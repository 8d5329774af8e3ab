"""End-to-end orchestration: configuration, preparation, training, and
evaluation.

Artifacts live under ``out_dir``: ``vocab.tsv``, ``manifest.json``,
``batches/<split>.jsonl``, ``checkpoint.bin``, ``loss_log.jsonl``, and
``metrics_<split>.json``. Everything is deterministic for a fixed config
and seed so reruns are byte-identical.
"""

from __future__ import annotations

import functools
import json
import os
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from .blas import blas_threads
from .encoder import (
    AdamState,
    Batch,
    EncoderConfig,
    Workspace,
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
    KnowmatchError,
    NumericalError,
    OverlapError,
)
from .injection import Branch, InjectionTree, expand
from .knowledge import (
    AnnotationStore,
    DITTO_MODES,
    Gazetteer,
    ditto_inject,
    infer_column_types,
    ingest_annotations,
    link_entities,
)
from .serializer import (
    MIN_MAX_LEN,
    PromptMode,
    build_vocab,
    check_length,
    pair_to_json,
    read_batch_file,
    serialize_pair,
    write_batch_file,
)
from .stats import paired_ttest
from .tabular import (
    SPLITS, Table, check_fields, json_object, load_pairs, load_table, write_json_lines,
)
from .text import CLS_ID, PAD_ID, Tokenizer, tokenize, tokenize_once

SEED_ENV_VAR = "KAER_SEED"

# Shipped full-scale defaults; the desk profile overrides them for the toy
# encoder, where they are impractical.
DESK_PROFILE = {"batch_size": 16, "epochs": 10, "lr": 1e-3, "max_len": 128}
PROFILES = {"full": {}, "desk": DESK_PROFILE}


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
        check_fields(
            self, min_count=1, batch_size=1, epochs=0, max_len=MIN_MAX_LEN, seed=0,
            # run_train and evaluate run BLAS on one thread.
            threads=(1, 1),
        )
        PromptMode.from_string(self.prompt_mode)  # validates
        if self.ditto_mode.lower() not in ("off", *DITTO_MODES):
            raise DomainError(f"unknown ditto_mode {self.ditto_mode!r}")
        # One spelling per mode, so the manifest has one too.
        object.__setattr__(self, "ditto_mode", self.ditto_mode.lower())
        if self.lr <= 0.0:
            raise DomainError(f"lr must be positive, got {self.lr}")
        self.encoder_config(vocab_size=1)  # the encoder checks its own keys

    def encoder_config(self, vocab_size: int) -> EncoderConfig:
        """The encoder that ``run_train`` trains over a ``vocab_size``
        vocabulary, always in float32."""
        return EncoderConfig(
            vocab_size=vocab_size, d_model=self.d_model, n_heads=self.n_heads,
            n_layers=self.n_layers, d_ff=self.d_ff, max_position=self.max_len,
            dropout_rate=self.dropout, seed=self.seed, use_segments=self.use_segments,
            dtype="float32",
        )

    @property
    def mode(self) -> PromptMode:
        return PromptMode.from_string(self.prompt_mode)


def load_config_file(path: str | Path) -> dict:
    """Read a file holding one JSON object: a config or a manifest."""
    try:
        return json_object(Path(path).read_text(encoding="utf-8"))
    except ValueError as exc:
        raise FormatError(f"{path}: {exc}") from exc


def resolve_config(
    file_values: dict | None = None,
    overrides: dict | None = None,
    profile: str | None = None,
    env: dict | None = None,
) -> RunConfig:
    """Merge config sources: defaults < profile < file < KAER_SEED env < flags."""
    env = os.environ if env is None else env
    if profile not in (None, *PROFILES):
        raise DomainError(f"unknown profile {profile!r}")
    overrides = {k: v for k, v in (overrides or {}).items() if v is not None}
    values = {**PROFILES[profile or "full"], **(file_values or {})}
    known = {f.name for f in fields(RunConfig)}
    for key in [*values, *overrides]:
        if key not in known:
            raise FormatError(f"unknown config key {key!r}")
    if SEED_ENV_VAR in env:
        try:
            values["seed"] = int(env[SEED_ENV_VAR])
        except ValueError as exc:
            raise FormatError(f"{SEED_ENV_VAR} must be an integer") from exc
    values.update(overrides)
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
    tables, config: RunConfig, tokenize: Callable[[str], Sequence[str]] = tokenize
) -> AnnotationStore:
    """Collect the annotations that ``config`` asks for, in its JSONL file's
    store (or an empty one): the rule typer types only columns the file leaves
    untyped, and gazetteer mentions join the file's where they overlap none of
    its mentions. Ditto filters mentions last; linking splits by ``tokenize``."""
    store = ingest_annotations(config.annotations) if config.annotations else AnnotationStore()
    if config.use_rule_typer:
        for table in tables:
            for ann in infer_column_types(table):
                if store.column_type(ann.table, ann.column) is None:
                    store.add_column_type(ann)
    if config.gazetteer:
        gaz = Gazetteer.from_file(config.gazetteer)
        for table in tables:
            for mention in link_entities(table, gaz, tokenize):
                try:
                    store.add_mention(mention)
                except OverlapError:  # the file's mention wins
                    pass
    if config.ditto_mode == "off":
        return store
    filtered = AnnotationStore()
    for ann in store.all_column_types():
        filtered.add_column_type(ann)
    for mention in ditto_inject(store.all_mentions(), config.ditto_mode):
        filtered.add_mention(mention)
    return filtered


def load_tables(data_dir: str | Path) -> tuple[Table, Table]:
    """The two tables of a data directory: ``tableA.csv`` and ``tableB.csv``."""
    data_dir = Path(data_dir)
    return load_table(data_dir / "tableA.csv"), load_table(data_dir / "tableB.csv")


def run_prepare(config: RunConfig) -> dict:
    """Serialize every available split into batch files; returns the manifest.

    Within one call, each distinct cell text is tokenized once (for linking,
    the vocabulary and serialization alike) and each record is serialized
    once, however many pairs it is in. Both memos die with the call."""
    data_dir = Path(config.data_dir)
    left, right = load_tables(data_dir)
    split_sets = {}
    for split in SPLITS:
        path = data_dir / f"{split}.csv"
        if path.exists():
            split_sets[split] = load_pairs(path, left, right, split=split)
    if not split_sets:
        raise FileNotFoundError(f"no split files (train/valid/test.csv) in {data_dir}")

    tokens = tokenize_once()
    store = build_annotations((left, right), config, tokenize=tokens)
    tokenizer = build_vocab(
        [left, right], min_count=config.min_count, extra_labels=store.type_labels(),
        tokenize=tokens,
    )

    out_dir = Path(config.out_dir)
    (out_dir / "batches").mkdir(parents=True, exist_ok=True)
    # Gone until written last, so a prepare that fails midway leaves nothing to load.
    (out_dir / "manifest.json").unlink(missing_ok=True)
    tokenizer.save(out_dir / "vocab.tsv")

    mode = config.mode
    counts = {}
    entries = {}
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
                tokenize=tokens,
                entries=entries,
            )
            check_length(seq, config.max_len)
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
    write_json_lines(out_dir / "manifest.json", [manifest])
    return manifest


def _line_to_sequence(line: dict) -> tuple:
    """Decode a batch line to (tokens, soft_positions, segments, visible,
    label). Token ids must be non-negative ints led by [CLS], which the
    classifier reads; segments and the label the ints 0 or 1, and site heads
    pairs of ints. A line with sites is expanded into its injected sequence;
    one without keeps hard positions and full visibility (both None)."""
    if "soft_pos" in line or "visible_rows" in line:
        raise FormatError(
            "batch line in the old constrained format (soft_pos/visible_rows); "
            "re-run prepare"
        )
    tokens, segments, label = line.get("tokens"), line.get("segments"), line.get("label")
    if not isinstance(tokens, list) or not isinstance(segments, list):
        raise FormatError("batch line tokens and segments must be lists")
    if not tokens or tokens[0] != CLS_ID:
        raise FormatError("batch line tokens must start with [CLS] (id 0)")
    if type(label) is not int or label not in (0, 1):
        raise FormatError(f"batch line label must be 0 or 1, got {label!r}")
    if len(segments) != len(tokens):
        raise FormatError(f"{len(segments)} segments for {len(tokens)} tokens")
    if not all(type(s) is int and s in (0, 1) for s in segments):
        raise FormatError("batch line segments must be 0 or 1")
    if not line.get("sites"):
        seq = (tokens, None, segments, None, label)
    else:
        try:
            branches = tuple(
                Branch(tuple(site["head"]), tuple(site["know"])) for site in line["sites"]
            )
            if not all(type(i) is int for br in branches for i in br.head):
                raise TypeError("site heads must be ints")
            tree = InjectionTree(tuple(tokens), branches)
        except (KeyError, TypeError, ValueError) as exc:
            raise FormatError(f"bad injection site in batch line: {exc}") from exc
        inj = expand(tree, segments)
        seq = (inj.tokens, inj.soft_positions, inj.segments, inj.visible, label)
    if not all(type(t) is int and t >= 0 for t in seq[0]):
        raise FormatError("batch line token ids must be non-negative ints")
    return seq


def _batches_of(seqs, order, batch_size):
    """Batches of decoded ``_line_to_sequence`` tuples, in ``order``."""
    for start in range(0, len(order), batch_size):
        chunk = [seqs[i] for i in order[start : start + batch_size]]
        yield Batch.from_sequences(chunk, pad_id=PAD_ID)


def _load_prepared(
    config: RunConfig, split: str, vocab_size: int, vocab_hash: str | None
) -> list[tuple]:
    """One split of a prepared ``out_dir``, decoded by ``_line_to_sequence``. Its
    manifest must match the config and ``vocab_hash`` (of ``vocab.tsv`` or a
    checkpoint), and its token ids must be below ``vocab_size``."""
    out_dir = Path(config.out_dir)
    manifest_path = out_dir / "manifest.json"
    if not manifest_path.exists():  # prepare removes it first, writes it last
        raise FileNotFoundError(
            f"{manifest_path} is missing: the last prepare of {out_dir} did not "
            "finish or never ran; re-run prepare"
        )
    manifest = load_config_file(manifest_path)
    if not isinstance(manifest.get("splits"), dict) or "vocab_hash" not in manifest:
        raise FormatError(f"{manifest_path}: no splits or vocab_hash")
    for key, value in (("prompt_mode", config.mode.value), ("max_len", config.max_len)):
        if manifest.get(key) != value:
            raise IncompatibleArtifactsError(
                f"{out_dir} was prepared with {key}={manifest.get(key)!r}, "
                f"not {value!r}; re-run prepare"
            )
    if manifest["vocab_hash"] != vocab_hash:
        raise IncompatibleArtifactsError(
            f"the vocabulary does not match the one {out_dir} was prepared with; "
            "re-run prepare (and train)"
        )
    if split not in manifest["splits"]:
        raise FileNotFoundError(f"split {split!r} was not prepared in {out_dir}")
    path = out_dir / "batches" / f"{split}.jsonl"
    seqs = []
    for n, line in enumerate(read_batch_file(path), start=1):
        try:
            seq = _line_to_sequence(line)
            if max(seq[0]) >= vocab_size:
                raise FormatError(f"token id {max(seq[0])} >= vocabulary size {vocab_size}")
            if len(seq[0]) > config.max_len:
                raise FormatError(f"{len(seq[0])} tokens exceed max_len {config.max_len}")
        except KnowmatchError as exc:  # also a bad site head (Domain/OverlapError)
            raise FormatError(f"{path}: batch line {n}: {exc}") from exc
        seqs.append(seq)
    return seqs


@blas_threads(1)
def run_train(config: RunConfig) -> dict:
    """Train on the prepared train split; writes checkpoint and loss log."""
    out_dir = Path(config.out_dir)
    tokenizer = Tokenizer.load(out_dir / "vocab.tsv")
    # Decoded once: constrained lines are not re-expanded every epoch.
    seqs = _load_prepared(config, "train", len(tokenizer), tokenizer.vocab_hash)

    enc_config = config.encoder_config(len(tokenizer))
    params = init_params(enc_config)
    state = AdamState.init(params)
    rng = np.random.default_rng(config.seed)
    # One workspace for the run: its buffers grow to the largest batch, and
    # every later step reuses them instead of allocating large arrays.
    ws = Workspace()

    checkpoint_path = out_dir / "checkpoint.bin"
    # train_step updates params in place, so this saves the current ones.
    save = functools.partial(
        save_checkpoint, checkpoint_path, params, enc_config, config.seed,
        vocab_hash=tokenizer.vocab_hash,
    )
    log_path = out_dir / "loss_log.jsonl"
    loss_value = None
    with open(log_path, "w", encoding="utf-8") as log:
        for epoch in range(config.epochs):
            order = rng.permutation(len(seqs)).tolist()
            for batch in _batches_of(seqs, order, config.batch_size):
                step = state.step
                try:
                    loss_value = train_step(batch, params, state, config.lr, enc_config, ws)
                except NumericalError:  # raised before params changed
                    save()
                    raise
                log.write(
                    json.dumps(
                        {"step": step, "epoch": epoch, "loss": loss_value},
                        sort_keys=True,
                    )
                    + "\n"
                )
    save()
    return {
        "checkpoint": str(checkpoint_path),
        "loss_log": str(log_path),
        "steps": state.step,
        "final_loss": loss_value,
    }


@blas_threads(1)
def evaluate(config: RunConfig, split: str, checkpoint: str | Path | None = None) -> Metrics:
    """Evaluate the trained checkpoint on one prepared split (0.5 threshold),
    in the dtype that the checkpoint names."""
    out_dir = Path(config.out_dir)
    checkpoint = Path(checkpoint) if checkpoint else out_dir / "checkpoint.bin"
    params, enc_config, _seed, header = load_checkpoint(checkpoint)
    seqs = _load_prepared(config, split, enc_config.vocab_size, header.get("vocab_hash"))
    if enc_config.max_position < config.max_len:
        raise IncompatibleArtifactsError(
            f"{checkpoint} embeds {enc_config.max_position} positions, fewer than "
            f"max_len={config.max_len} that {out_dir} was prepared with; re-run train"
        )
    predictions, labels = [], []
    order = list(range(len(seqs)))
    ws = Workspace()
    for batch in _batches_of(seqs, order, config.batch_size):
        probs = forward(batch, params, enc_config, ws)
        predictions.extend(np.argmax(probs, axis=1).tolist())
        labels.extend(batch.labels.tolist())
    metrics = Metrics.from_predictions(predictions, labels)
    write_json_lines(out_dir / f"metrics_{split}.json", [metrics.to_dict()])
    return metrics


def compare(config_a: RunConfig, config_b: RunConfig, split: str = "test") -> dict:
    """Prepare, train and evaluate two configs on the split, and t-test their
    per-example correctness. Each config runs in full, so nothing already
    in its ``out_dir`` is scored in its place."""
    results = []
    for cfg in (config_a, config_b):
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
