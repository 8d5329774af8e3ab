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
from pathlib import Path

from .errors import KnowmatchError, NumericalError
from .harness import (
    RunConfig,
    build_annotations,
    compare,
    evaluate,
    load_config_file,
    resolve_config,
    run_prepare,
    run_train,
)
from .knowledge import export_annotations
from .synth import SyntheticSpec, generate_synthetic, write_synthetic
from .tabular import load_table


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage problems; the contract here is exit 1.
    def error(self, message):
        raise _UsageError(message)


def _add_config_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="flat JSON config file")
    parser.add_argument("--profile", choices=("full", "desk"), help="preset overrides")
    for f in fields(RunConfig):
        flag = f"--{f.name}"
        extra = ("--mode",) if f.name == "prompt_mode" else ()
        if f.type == "bool":
            parser.add_argument(flag, *extra, action=argparse.BooleanOptionalAction, default=None)
        elif f.type == "int":
            parser.add_argument(flag, *extra, type=int, default=None)
        elif f.type == "float":
            parser.add_argument(flag, *extra, type=float, default=None)
        else:
            parser.add_argument(flag, *extra, default=None)


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    file_values = load_config_file(args.config) if args.config else None
    overrides = {
        f.name: getattr(args, f.name)
        for f in fields(RunConfig)
        if getattr(args, f.name, None) is not None
    }
    return resolve_config(file_values, overrides, profile=args.profile)


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
    p.add_argument("--profile", choices=("full", "desk"), default=None)

    p = sub.add_parser("synth")
    p.add_argument("--out", required=True)
    p.add_argument("--entities", type=int, default=100)
    p.add_argument("--ambiguity", type=int, default=2)
    p.add_argument("--match_rate", type=float, default=0.5)
    p.add_argument("--perturbation", type=float, default=0.0)
    p.add_argument("--extra_columns", type=int, default=1)
    p.add_argument("--train_frac", type=float, default=0.8)
    p.add_argument("--valid_frac", type=float, default=0.0)
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("annotate")
    p.add_argument("--data_dir", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--rule_typer", action=argparse.BooleanOptionalAction, default=True)
    p.add_argument("--gazetteer", default=None)
    p.add_argument("--ditto_mode", default="off")

    return parser


def _cmd_annotate(args: argparse.Namespace) -> int:
    data_dir = Path(args.data_dir)
    tables = []
    for name in ("tableA.csv", "tableB.csv"):
        path = data_dir / name
        if not path.exists():
            raise FileNotFoundError(str(path))
        tables.append(load_table(path))
    store = build_annotations(tables, args.rule_typer, args.gazetteer, None, args.ditto_mode)
    export_annotations(store, args.out)
    print(json.dumps(store.counts(), sort_keys=True))
    return 0


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
            spec = SyntheticSpec(
                entities=args.entities,
                ambiguity=args.ambiguity,
                match_rate=args.match_rate,
                perturbation=args.perturbation,
                extra_columns=args.extra_columns,
                train_frac=args.train_frac,
                valid_frac=args.valid_frac,
            )
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
            return _cmd_annotate(args)
    except NumericalError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 3
    except (KnowmatchError, FileNotFoundError, OSError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
