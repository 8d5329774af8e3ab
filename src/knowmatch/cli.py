"""Command-line interface.

Subcommands: prepare, train, eval, compare, synth, annotate. Every run-config
key can be overridden with a flag of the same name; ``--config`` supplies a
flat JSON file and ``KAER_SEED`` overrides its seed (flags beat both).

Exit codes: 0 success, 1 usage error, 2 data error, 3 numerical error.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import fields

from .errors import KnowmatchError, NumericalError
from .harness import (
    PROFILES,
    RunConfig,
    build_annotations,
    compare,
    evaluate,
    load_config_file,
    load_tables,
    resolve_config,
    run_prepare,
    run_train,
)
from .knowledge import export_annotations
from .synth import SyntheticSpec, generate_synthetic, write_synthetic


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage problems; the contract here is exit 1.
    def error(self, message):
        raise _UsageError(message)


def _add_field_flags(parser: argparse.ArgumentParser, cls) -> None:
    """One ``--<field>`` flag per bool, int, float or str field of dataclass
    ``cls``, defaulting to None: an unset flag overrides nothing."""
    for f in fields(cls):
        names = (f"--{f.name}",) + (("--mode",) if f.name == "prompt_mode" else ())
        if f.type == "bool":
            parser.add_argument(*names, action=argparse.BooleanOptionalAction, default=None)
        elif f.type in ("int", "float"):
            parser.add_argument(*names, type=int if f.type == "int" else float, default=None)
        elif f.type.startswith("str"):
            parser.add_argument(*names, default=None)


def _field_values(args: argparse.Namespace, cls) -> dict:
    """The flags of ``cls``'s fields that were given, by field name."""
    return {
        f.name: getattr(args, f.name)
        for f in fields(cls)
        if getattr(args, f.name, None) is not None
    }


def _add_config_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="flat JSON config file")
    parser.add_argument("--profile", choices=tuple(PROFILES), help="preset overrides")
    _add_field_flags(parser, RunConfig)


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    file_values = load_config_file(args.config) if args.config else None
    return resolve_config(file_values, _field_values(args, RunConfig), profile=args.profile)


def _build_parser() -> _Parser:
    parser = _Parser(prog="knowmatch")
    sub = parser.add_subparsers(dest="command")

    for name in ("prepare", "train"):
        p = sub.add_parser(name)
        _add_config_flags(p)

    p = sub.add_parser("eval")
    _add_config_flags(p)
    p.add_argument("--split", default="test")
    p.add_argument("--checkpoint", default=None)

    p = sub.add_parser("compare")
    p.add_argument("--a", required=True, help="config file for model A")
    p.add_argument("--b", required=True, help="config file for model B")
    p.add_argument("--split", default="test")
    p.add_argument("--profile", choices=tuple(PROFILES), default=None)

    p = sub.add_parser("synth")
    p.add_argument("--out", required=True)
    _add_field_flags(p, SyntheticSpec)
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("annotate")
    p.add_argument("--data_dir", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--rule_typer", action=argparse.BooleanOptionalAction, default=True)
    p.add_argument("--gazetteer", default=None)
    p.add_argument("--ditto_mode", default="off")

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        parser.print_usage(sys.stderr)
        return 1
    if args.command is None:
        parser.print_usage(sys.stderr)
        return 1

    try:
        if args.command == "prepare":
            manifest = run_prepare(_config_from_args(args))
            print(json.dumps(manifest, sort_keys=True))
        elif args.command == "train":
            result = run_train(_config_from_args(args))
            print(json.dumps(result, sort_keys=True))
        elif args.command == "eval":
            config = _config_from_args(args)
            metrics = evaluate(config, args.split, checkpoint=args.checkpoint)
            print(json.dumps(metrics.to_dict(), sort_keys=True))
        elif args.command == "compare":
            config_a = resolve_config(load_config_file(args.a), profile=args.profile)
            config_b = resolve_config(load_config_file(args.b), profile=args.profile)
            result = compare(config_a, config_b, split=args.split)
            print(json.dumps(result, sort_keys=True))
        elif args.command == "synth":
            spec = SyntheticSpec(**_field_values(args, SyntheticSpec))
            dataset = generate_synthetic(spec, args.seed)
            write_synthetic(dataset, args.out)
            print(
                json.dumps(
                    {
                        "out": args.out,
                        "rows": len(dataset.left),
                        "pairs": {s: len(ps) for s, ps in dataset.splits.items()},
                    },
                    sort_keys=True,
                )
            )
        elif args.command == "annotate":
            config = RunConfig(
                data_dir=args.data_dir, use_rule_typer=args.rule_typer,
                gazetteer=args.gazetteer, ditto_mode=args.ditto_mode,
            )
            store = build_annotations(load_tables(config.data_dir), config)
            export_annotations(store, args.out)
            print(json.dumps(store.counts(), sort_keys=True))
    except NumericalError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 3
    except (KnowmatchError, FileNotFoundError, OSError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
