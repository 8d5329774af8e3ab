"""Span tracing for the traced benchmark run, and the encoder step split.

Spans and the step split are timed in CPU seconds of the calling thread,
the same clock as the end-to-end figures (see ``bench/run.py``).

``instrument`` swaps the names the harness module imported from
``tabular``, ``knowledge``, ``serializer``, ``injection`` and ``encoder`` for
timed wrappers, and restores them on exit. Nothing under ``src/`` changes:
the spans sit at the boundary where the harness calls into each layer.
A name the harness no longer imports is skipped and its metrics read 0.
"""

from __future__ import annotations

import os
import statistics
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from knowmatch import encoder, injection, serializer
from knowmatch.text import PAD_ID


@dataclass
class CallRecord:
    """Spans of one traced phase call (one run_prepare, run_train or
    evaluate): per span name the total and self seconds, per-call samples,
    and the counts recorded at the same boundaries."""

    total: dict = field(default_factory=lambda: defaultdict(float))
    self_time: dict = field(default_factory=lambda: defaultdict(float))
    samples: dict = field(default_factory=lambda: defaultdict(list))
    counts: Counter = field(default_factory=Counter)


class Tracer:
    """In-memory span stack; ``take`` hands over the finished call record."""

    def __init__(self) -> None:
        self.record = CallRecord()
        self._stack: list[list] = []  # [name, start, child seconds]

    @contextmanager
    def span(self, name: str):
        frame = [name, time.thread_time(), 0.0]
        self._stack.append(frame)
        try:
            yield
        finally:
            elapsed = time.thread_time() - frame[1]
            self._stack.pop()
            rec = self.record
            rec.total[name] += elapsed
            rec.self_time[name] += elapsed - frame[2]
            rec.samples[name].append(elapsed)
            if self._stack:
                self._stack[-1][2] += elapsed

    def take(self) -> CallRecord:
        rec, self.record = self.record, CallRecord()
        return rec


# Counters computed from a wrapped call's arguments and result.

def _count_mentions_linked(counts, args, result):
    counts["knowledge.mentions"] += len(result)


def _count_mentions_ingested(counts, args, result):
    counts["knowledge.mentions"] += result.counts()["mentions"]


def _count_pair(counts, args, result):
    untruncated = len(result.left.tokens) + len(result.right.tokens) + 3
    dropped = untruncated - len(result.tokens)
    counts["serializer.pairs"] += 1
    counts["serializer.truncated"] += dropped > 0
    counts["serializer.dropped_tokens"] += dropped


def _count_written(counts, args, result):
    counts["serializer.batch_bytes"] += os.path.getsize(args[0])


def _count_read(counts, args, result):
    counts["injection.pairs_read"] += sum(1 for line in result if "visible_rows" in line)


def _count_assembled(counts, args, result):
    counts["injection.tokens"] += len(result.tokens)
    counts["injection.branch_tokens"] += len(result.tokens) - sum(result.trunk_mask)


def _count_batch(counts, args, result):
    real = result.token_ids != PAD_ID
    lengths = real.sum(axis=1)
    counts["encoder.cells"] += real.size
    counts["encoder.pad_cells"] += int(real.size - lengths.sum())
    counts["encoder.visible_cells"] += float(result.visible.sum())
    counts["encoder.real_cells"] += int((lengths * lengths).sum())


# harness attribute -> (span name, counter)
_FUNCTIONS = {
    "load_table": ("tabular.load", None),
    "load_pairs": ("tabular.load", None),
    "infer_column_types": ("knowledge.annotate", None),
    "link_entities": ("knowledge.annotate", _count_mentions_linked),
    "ingest_annotations": ("knowledge.annotate", _count_mentions_ingested),
    "ditto_inject": ("knowledge.annotate", None),
    "build_vocab": ("serializer.vocab", None),
    "serialize_pair": ("serializer.pair", _count_pair),
    "pair_to_json": ("serializer.pair_json", None),
    "write_batch_file": ("serializer.io", _count_written),
    "read_batch_file": ("serializer.io", _count_read),
    "assemble": ("injection.assemble", _count_assembled),
    "injected_to_json": ("injection.pack", None),
    "unpack_visible_rows": ("injection.unpack", None),
    "init_params": ("encoder.init", None),
    "train_step": ("encoder.train_step", None),
    "forward": ("encoder.forward", None),
    "save_checkpoint": ("encoder.checkpoint_io", None),
    "load_checkpoint": ("encoder.checkpoint_io", None),
}

# harness attribute (a class) -> (classmethod, span name, counter)
_CLASSMETHODS = {
    "Gazetteer": ("from_file", "knowledge.annotate", None),
    "Batch": ("from_sequences", "encoder.batch_build", _count_batch),
    "AdamState": ("init", "encoder.init", None),
}


def _wrap(tracer, name, fn, counter):
    def traced(*args, **kwargs):
        with tracer.span(name):
            result = fn(*args, **kwargs)
        if counter is not None:
            counter(tracer.record.counts, args, result)
        return result

    return traced


def _traced_subclass(tracer, cls, method, name, counter):
    traced = _wrap(tracer, name, getattr(cls, method).__func__, counter)
    return type(cls.__name__, (cls,), {method: classmethod(traced)})


@contextmanager
def instrument(harness, tracer: Tracer):
    """Route the harness module's calls into the layers through spans."""
    saved = {}
    try:
        for attr, (name, counter) in _FUNCTIONS.items():
            if hasattr(harness, attr):
                saved[attr] = getattr(harness, attr)
                setattr(harness, attr, _wrap(tracer, name, saved[attr], counter))
        for attr, (method, name, counter) in _CLASSMETHODS.items():
            if hasattr(harness, attr):
                saved[attr] = getattr(harness, attr)
                setattr(harness, attr, _traced_subclass(tracer, saved[attr], method, name, counter))
        yield
    finally:
        for attr, original in saved.items():
            setattr(harness, attr, original)


# Per-layer metrics: name -> (unit, better).
PER_LAYER = {
    "harness.prepare_self_s": ("s", "lower"),
    "harness.train_self_s": ("s", "lower"),
    "harness.eval_self_s": ("s", "lower"),
    "tabular.load_s": ("s", "lower"),
    "knowledge.annotate_s": ("s", "lower"),
    "knowledge.mentions": ("count", "higher"),
    "serializer.vocab_s": ("s", "lower"),
    "serializer.pair_s": ("s", "lower"),
    "serializer.pair_p50_ms": ("ms", "lower"),
    "serializer.pair_p90_ms": ("ms", "lower"),
    "serializer.truncated_frac": ("fraction", "lower"),
    "serializer.dropped_tokens": ("count", "lower"),
    "serializer.io_s": ("s", "lower"),
    "serializer.batch_bytes": ("bytes", "lower"),
    "injection.assemble_s": ("s", "lower"),
    "injection.pack_s": ("s", "lower"),
    "injection.unpack_s": ("s", "lower"),
    "injection.decodes_per_pair": ("ratio", "lower"),
    "injection.branch_token_frac": ("fraction", "higher"),
    "encoder.init_s": ("s", "lower"),
    "encoder.batch_build_s": ("s", "lower"),
    "encoder.pad_frac": ("fraction", "lower"),
    "encoder.visible_frac": ("fraction", "lower"),
    "encoder.train_step_s": ("s", "lower"),
    "encoder.train_step_p50_ms": ("ms", "lower"),
    "encoder.train_step_p95_ms": ("ms", "lower"),
    "encoder.forward_s": ("s", "lower"),
    "encoder.forward_p50_ms": ("ms", "lower"),
    "encoder.embed_ms": ("ms", "lower"),
    "encoder.attention_ms": ("ms", "lower"),
    "encoder.ffn_head_ms": ("ms", "lower"),
    "encoder.backward_ms": ("ms", "lower"),
    "encoder.adam_ms": ("ms", "lower"),
    "encoder.checkpoint_io_s": ("s", "lower"),
    "trace_overhead_frac": ("fraction", "lower"),
}

# Step-split metrics obtained by subtraction rather than timed directly.
DERIVED = {
    "encoder.ffn_head_ms": "forward - embed - attention",
    "encoder.backward_ms": "loss_and_gradients - forward",
    "encoder.adam_ms": "train_step - loss_and_gradients",
}

# Per-layer time metric -> the spans it sums.
_SPAN_TOTALS = {
    "tabular.load_s": ("tabular.load",),
    "knowledge.annotate_s": ("knowledge.annotate",),
    "serializer.vocab_s": ("serializer.vocab",),
    "serializer.pair_s": ("serializer.pair", "serializer.pair_json"),
    "serializer.io_s": ("serializer.io",),
    "injection.assemble_s": ("injection.assemble",),
    "injection.pack_s": ("injection.pack",),
    "injection.unpack_s": ("injection.unpack",),
    "encoder.init_s": ("encoder.init",),
    "encoder.batch_build_s": ("encoder.batch_build",),
    "encoder.train_step_s": ("encoder.train_step",),
    "encoder.forward_s": ("encoder.forward",),
    "encoder.checkpoint_io_s": ("encoder.checkpoint_io",),
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(records: dict[str, list[CallRecord]]) -> dict[str, float]:
    """Per-layer figures for one pipeline pass (prepare, train, evaluate).

    Each phase was called several times; a figure is the median over that
    phase's calls, summed over phases. Per-call percentiles pool the
    samples of every traced call.
    """
    def per_pass(get) -> float:
        return sum(
            statistics.median(get(r) for r in recs) for recs in records.values() if recs
        )

    def pooled(span: str) -> list[float]:
        return [s for recs in records.values() for r in recs for s in r.samples.get(span, ())]

    def pct_ms(span: str, q: float) -> float:
        samples = pooled(span)
        return float(np.percentile(samples, q)) * 1e3 if samples else 0.0

    out = {
        f"harness.{phase}_self_s": (
            statistics.median(r.self_time[f"harness.{phase}"] for r in recs) if recs else 0.0
        )
        for phase, recs in records.items()
    }
    for metric, names in _SPAN_TOTALS.items():
        out[metric] = per_pass(lambda r, names=names: sum(r.total.get(n, 0.0) for n in names))

    def count(key: str) -> float:
        return per_pass(lambda r: r.counts.get(key, 0))

    out["knowledge.mentions"] = count("knowledge.mentions")
    out["serializer.pair_p50_ms"] = pct_ms("serializer.pair", 50)
    out["serializer.pair_p90_ms"] = pct_ms("serializer.pair", 90)
    out["serializer.truncated_frac"] = _ratio(count("serializer.truncated"), count("serializer.pairs"))
    out["serializer.dropped_tokens"] = count("serializer.dropped_tokens")
    out["serializer.batch_bytes"] = count("serializer.batch_bytes")
    decodes = per_pass(lambda r: len(r.samples.get("injection.unpack", ())))
    out["injection.decodes_per_pair"] = _ratio(decodes, count("injection.pairs_read"))
    out["injection.branch_token_frac"] = _ratio(
        count("injection.branch_tokens"), count("injection.tokens")
    )
    out["encoder.pad_frac"] = _ratio(count("encoder.pad_cells"), count("encoder.cells"))
    out["encoder.visible_frac"] = _ratio(count("encoder.visible_cells"), count("encoder.real_cells"))
    out["encoder.train_step_p50_ms"] = pct_ms("encoder.train_step", 50)
    out["encoder.train_step_p95_ms"] = pct_ms("encoder.train_step", 95)
    out["encoder.forward_p50_ms"] = pct_ms("encoder.forward", 50)
    return out


def _line_to_sequence(line: dict) -> tuple:
    visible = None
    if "visible_rows" in line:
        visible = injection.unpack_visible_rows(line["visible_rows"], len(line["tokens"]))
    return (line["tokens"], line.get("soft_pos"), line["segments"], visible, line.get("label"))


def step_split(batch_path, checkpoint_path, lr: float, sample: int, repeats: int) -> dict:
    """Time the public encoder calls on the first ``sample`` pairs of one
    batch file, with the parameters of ``checkpoint_path``.

    ``embed``, ``masked_attention`` (summed over layers, each fed the
    embedding output), ``forward``, ``loss_and_gradients`` and
    ``train_step`` are timed directly; FFN+head, backward and Adam are
    derived by difference (see ``DERIVED``).
    """
    params, cfg, _seed, _header = encoder.load_checkpoint(checkpoint_path)
    lines = serializer.read_batch_file(batch_path)[:sample]
    batch = encoder.Batch.from_sequences(
        [_line_to_sequence(line) for line in lines], pad_id=PAD_ID, dtype=cfg.np_dtype
    )
    hidden = encoder.embed(batch, params, cfg)
    state = encoder.AdamState.init(params)
    calls = {
        "embed": lambda: encoder.embed(batch, params, cfg),
        **{
            f"attention{i}": lambda i=i: encoder.masked_attention(
                hidden, batch.visible, params, cfg, layer=i
            )
            for i in range(cfg.n_layers)
        },
        "forward": lambda: encoder.forward(batch, params, cfg),
        "grads": lambda: encoder.loss_and_gradients(batch, params, cfg),
        "step": lambda: encoder.train_step(batch, params, state, lr, cfg),
    }
    # Interleaved, so drift in machine speed hits every call alike.
    times = {name: [] for name in calls}
    for _ in range(repeats):
        for name, fn in calls.items():
            start = time.thread_time()
            fn()
            times[name].append(time.thread_time() - start)
    ms = {name: statistics.median(t) * 1e3 for name, t in times.items()}
    attention_ms = sum(ms[f"attention{i}"] for i in range(cfg.n_layers))
    return {
        "encoder.embed_ms": ms["embed"],
        "encoder.attention_ms": attention_ms,
        "encoder.ffn_head_ms": ms["forward"] - ms["embed"] - attention_ms,
        "encoder.backward_ms": ms["grads"] - ms["forward"],
        "encoder.adam_ms": ms["step"] - ms["grads"],
    }
