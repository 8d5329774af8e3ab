"""End-to-end orchestration: configuration, preparation, training, and
evaluation.

Artifacts live under ``out_dir``: ``vocab.tsv``, ``manifest.json``,
``batches/<split>.jsonl``, ``checkpoint.bin``, ``loss_log.jsonl``, and
``metrics_<split>.json``. Everything is deterministic for a fixed config
and seed so reruns are byte-identical.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from .encoder import (
    AdamState,
    Batch,
    EncoderConfig,
    forward,
    init_params,
    load_checkpoint,
    save_checkpoint,
    train_step,
)
from .errors import (
    DomainError,
    FormatError,
    IncompatibleArtifactsError,
    NumericalError,
)
from .injection import assemble, injected_to_json, unpack_visible_rows
from .knowledge import (
    AnnotationStore,
    Gazetteer,
    ditto_inject,
    infer_column_types,
    ingest_annotations,
    link_entities,
)
from .serializer import (
    PromptMode,
    build_vocab,
    pair_to_json,
    read_batch_file,
    serialize_pair,
    write_batch_file,
)
from .stats import paired_ttest
from .tabular import SPLITS, load_pairs, load_table
from .text import PAD_ID, Tokenizer

SEED_ENV_VAR = "KAER_SEED"

# Shipped full-scale defaults; the desk profile overrides them for the toy
# encoder, where they are impractical.
DESK_PROFILE = {"batch_size": 16, "epochs": 10, "lr": 1e-3, "max_len": 128}


@dataclass(frozen=True)
class RunConfig:
    data_dir: str = "."
    out_dir: str = "out"
    prompt_mode: str = "space"
    use_rule_typer: bool = False
    gazetteer: str | None = None
    annotations: str | None = None
    ditto_mode: str = "off"
    d_model: int = 64
    n_heads: int = 4
    n_layers: int = 2
    d_ff: int = 128
    dropout: float = 0.0
    use_segments: bool = True
    min_count: int = 1
    batch_size: int = 64
    epochs: int = 20
    lr: float = 3e-5
    max_len: int = 512
    seed: int = 0
    threads: int = 1

    def __post_init__(self) -> None:
        PromptMode.from_string(self.prompt_mode)  # validates
        if self.ditto_mode.lower() not in ("off", "general", "product"):
            raise DomainError(f"unknown ditto_mode {self.ditto_mode!r}")
        if self.threads != 1:
            raise DomainError("only --threads 1 (deterministic mode) is implemented")

    @property
    def mode(self) -> PromptMode:
        return PromptMode.from_string(self.prompt_mode)


def load_config_file(path: str | Path) -> dict:
    with open(path, encoding="utf-8") as fh:
        try:
            obj = json.load(fh)
        except json.JSONDecodeError as exc:
            raise FormatError(f"{path}: bad config JSON") from exc
    if not isinstance(obj, dict):
        raise FormatError(f"{path}: config must be a flat JSON object")
    return obj


def resolve_config(
    file_values: dict | None = None,
    overrides: dict | None = None,
    profile: str | None = None,
    env: dict | None = None,
) -> RunConfig:
    """Merge config sources: defaults < profile < file < KAER_SEED env < flags."""
    env = os.environ if env is None else env
    values: dict = {}
    if profile == "desk":
        values.update(DESK_PROFILE)
    elif profile not in (None, "full"):
        raise DomainError(f"unknown profile {profile!r}")
    known = {f.name for f in fields(RunConfig)}
    for key, val in (file_values or {}).items():
        if key not in known:
            raise FormatError(f"unknown config key {key!r}")
        values[key] = val
    if SEED_ENV_VAR in env:
        try:
            values["seed"] = int(env[SEED_ENV_VAR])
        except ValueError as exc:
            raise FormatError(f"{SEED_ENV_VAR} must be an integer") from exc
    for key, val in (overrides or {}).items():
        if val is None:
            continue
        if key not in known:
            raise FormatError(f"unknown config key {key!r}")
        values[key] = val
    return RunConfig(**values)


@dataclass(frozen=True)
class Metrics:
    tp: int
    fp: int
    fn: int
    tn: int
    precision: float
    recall: float
    f1: float
    per_example_correct: tuple[int, ...]

    @classmethod
    def from_predictions(cls, predictions, labels) -> "Metrics":
        if len(predictions) != len(labels):
            raise DomainError("predictions and labels differ in length")
        tp = fp = fn = tn = 0
        correct = []
        for pred, gold in zip(predictions, labels):
            correct.append(1 if pred == gold else 0)
            if pred == 1 and gold == 1:
                tp += 1
            elif pred == 1 and gold == 0:
                fp += 1
            elif pred == 0 and gold == 1:
                fn += 1
            else:
                tn += 1
        precision = tp / (tp + fp) if tp + fp else 0.0
        recall = tp / (tp + fn) if tp + fn else 0.0
        f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
        return cls(tp, fp, fn, tn, precision, recall, f1, tuple(correct))

    def to_dict(self) -> dict:
        return {
            "precision": self.precision,
            "recall": self.recall,
            "f1": self.f1,
            "n": len(self.per_example_correct),
        }


def build_annotations(
    tables,
    rule_typer: bool,
    gazetteer: str | Path | None,
    annotations: str | Path | None,
    ditto_mode: str,
) -> AnnotationStore:
    """Collect annotations: rule typer, gazetteer, then an external JSONL file
    (whose column types override). Ditto filtering applies to mentions last."""
    store = AnnotationStore()
    if rule_typer:
        for table in tables:
            for ann in infer_column_types(table):
                store.add_column_type(ann)
    if gazetteer:
        gaz = Gazetteer.from_file(gazetteer)
        for table in tables:
            for mention in link_entities(table, gaz):
                store.add_mention(mention)
    if annotations:
        store.merge(ingest_annotations(annotations))
    if ditto_mode.lower() == "off":
        return store
    filtered = AnnotationStore()
    for ann in store.all_column_types():
        filtered.add_column_type(ann)
    for mention in ditto_inject(store.all_mentions(), ditto_mode):
        filtered.add_mention(mention)
    return filtered


def run_prepare(config: RunConfig) -> dict:
    """Serialize every available split into batch files; returns the manifest."""
    data_dir = Path(config.data_dir)
    for name in ("tableA.csv", "tableB.csv"):
        if not (data_dir / name).exists():
            raise FileNotFoundError(str(data_dir / name))
    left = load_table(data_dir / "tableA.csv")
    right = load_table(data_dir / "tableB.csv")
    split_sets = {}
    for split in SPLITS:
        path = data_dir / f"{split}.csv"
        if path.exists():
            split_sets[split] = load_pairs(path, left, right, split=split)
    if not split_sets:
        raise FileNotFoundError(f"no split files (train/valid/test.csv) in {data_dir}")

    store = build_annotations(
        (left, right), config.use_rule_typer, config.gazetteer,
        config.annotations, config.ditto_mode,
    )
    tokenizer = build_vocab(
        [left, right], min_count=config.min_count, extra_labels=store.type_labels()
    )

    out_dir = Path(config.out_dir)
    (out_dir / "batches").mkdir(parents=True, exist_ok=True)
    tokenizer.save(out_dir / "vocab.tsv")

    mode = config.mode
    counts = {}
    for split, pair_set in split_sets.items():
        lines = []
        for pair in pair_set.pairs:
            seq = serialize_pair(
                left.row(pair.left_id),
                right.row(pair.right_id),
                store,
                mode,
                tokenizer,
                config.max_len,
                label=pair.label,
                left_table=left.name,
                right_table=right.name,
            )
            if mode is PromptMode.CONSTRAINED:
                inj = assemble(seq, config.max_len)
                lines.append(injected_to_json(inj, pair_to_json(seq)["sites"], pair.label))
            else:
                lines.append(pair_to_json(seq))
        write_batch_file(out_dir / "batches" / f"{split}.jsonl", lines)
        counts[split] = len(lines)

    manifest = {
        "vocab_hash": tokenizer.vocab_hash,
        "prompt_mode": mode.value,
        "max_len": config.max_len,
        "splits": counts,
        "annotations": {
            "rule_typer": config.use_rule_typer,
            "gazetteer": config.gazetteer,
            "annotations": config.annotations,
            "ditto_mode": config.ditto_mode,
            **store.counts(),
        },
    }
    with open(out_dir / "manifest.json", "w", encoding="utf-8") as fh:
        fh.write(json.dumps(manifest, sort_keys=True) + "\n")
    return manifest


def _line_to_sequence(line: dict) -> tuple:
    tokens = line["tokens"]
    n = len(tokens)
    soft = line.get("soft_pos")
    visible = None
    if "visible_rows" in line:
        visible = unpack_visible_rows(line["visible_rows"], n)
    return (tokens, soft, line["segments"], visible, line.get("label"))


def _batches_of(lines, order, batch_size, dtype):
    for start in range(0, len(order), batch_size):
        chunk = [lines[i] for i in order[start : start + batch_size]]
        yield Batch.from_sequences(
            [_line_to_sequence(line) for line in chunk], pad_id=PAD_ID, dtype=dtype
        )


def _read_manifest(out_dir: Path) -> dict:
    path = out_dir / "manifest.json"
    if not path.exists():
        raise FileNotFoundError(str(path))
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def run_train(config: RunConfig) -> dict:
    """Train on the prepared train split; writes checkpoint and loss log."""
    out_dir = Path(config.out_dir)
    manifest = _read_manifest(out_dir)
    train_path = out_dir / "batches" / "train.jsonl"
    if not train_path.exists():
        raise FileNotFoundError(str(train_path))
    lines = read_batch_file(train_path)
    tokenizer = Tokenizer.load(out_dir / "vocab.tsv")

    enc_config = EncoderConfig(
        vocab_size=len(tokenizer),
        d_model=config.d_model,
        n_heads=config.n_heads,
        n_layers=config.n_layers,
        d_ff=config.d_ff,
        max_position=config.max_len,
        dropout_rate=config.dropout,
        seed=config.seed,
        use_segments=config.use_segments,
    )
    params = init_params(enc_config)
    state = AdamState.init(params)
    rng = np.random.default_rng(config.seed)
    dtype = enc_config.np_dtype

    checkpoint_path = out_dir / "checkpoint.bin"
    log_path = out_dir / "loss_log.jsonl"
    losses = []
    step = 0
    with open(log_path, "w", encoding="utf-8") as log:
        for epoch in range(config.epochs):
            order = rng.permutation(len(lines)).tolist()
            for batch in _batches_of(lines, order, config.batch_size, dtype):
                try:
                    params_new, state, loss_value = train_step(
                        batch, params, state, config.lr, enc_config,
                        dropout_seed=config.seed * 1_000_003 + step,
                    )
                except NumericalError:
                    save_checkpoint(
                        checkpoint_path, params, enc_config, config.seed,
                        vocab_hash=manifest["vocab_hash"],
                    )
                    raise
                params = params_new
                losses.append(loss_value)
                log.write(
                    json.dumps(
                        {"step": step, "epoch": epoch, "loss": loss_value},
                        sort_keys=True,
                    )
                    + "\n"
                )
                step += 1
    save_checkpoint(
        checkpoint_path, params, enc_config, config.seed,
        vocab_hash=manifest["vocab_hash"],
    )
    return {
        "checkpoint": str(checkpoint_path),
        "loss_log": str(log_path),
        "steps": step,
        "final_loss": losses[-1] if losses else None,
    }


def evaluate(config: RunConfig, split: str, checkpoint: str | Path | None = None) -> Metrics:
    """Evaluate the trained checkpoint on one prepared split (0.5 threshold)."""
    out_dir = Path(config.out_dir)
    manifest = _read_manifest(out_dir)
    if split not in manifest["splits"]:
        raise FileNotFoundError(f"split {split!r} was not prepared in {out_dir}")
    checkpoint = Path(checkpoint) if checkpoint else out_dir / "checkpoint.bin"
    params, enc_config, _seed, header = load_checkpoint(checkpoint)
    if header.get("vocab_hash") != manifest["vocab_hash"]:
        raise IncompatibleArtifactsError(
            "checkpoint vocabulary does not match the prepared batches"
        )
    lines = read_batch_file(out_dir / "batches" / f"{split}.jsonl")
    predictions, labels = [], []
    order = list(range(len(lines)))
    for batch in _batches_of(lines, order, config.batch_size, enc_config.np_dtype):
        probs = forward(batch, params, enc_config)
        predictions.extend(np.argmax(probs, axis=1).tolist())
        labels.extend(batch.labels.tolist())
    metrics = Metrics.from_predictions(predictions, labels)
    with open(out_dir / f"metrics_{split}.json", "w", encoding="utf-8") as fh:
        fh.write(json.dumps(metrics.to_dict(), sort_keys=True) + "\n")
    return metrics


def compare(config_a: RunConfig, config_b: RunConfig, split: str = "test") -> dict:
    """Run two configs (prepare/train when artifacts are missing), evaluate
    both on the split, and t-test their per-example correctness."""
    results = []
    for cfg in (config_a, config_b):
        if not (Path(cfg.out_dir) / "checkpoint.bin").exists():
            run_prepare(cfg)
            run_train(cfg)
        results.append(evaluate(cfg, split))
    metrics_a, metrics_b = results
    test = paired_ttest(metrics_a.per_example_correct, metrics_b.per_example_correct)
    return {
        "f1_a": metrics_a.f1,
        "f1_b": metrics_b.f1,
        "t": test.t,
        "df": test.df,
        "p": test.p,
        "sig_05": test.p < 0.05,
        "sig_01": test.p < 0.01,
    }
