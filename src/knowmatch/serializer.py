"""Turn record pairs plus annotations into classifier-ready token sequences.

A single entry serializes to ``[COL] name ... [VAL] value ...`` per column;
a pair to ``[CLS] left [SEP] right [SEP]``. Knowledge is injected either
inline (space or slash template) or, in constrained mode, recorded as
branches (a sequence's ``sites``) that the injection stage expands.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass
from enum import Enum
from itertools import accumulate
from pathlib import Path
from typing import Callable, Iterable, Sequence

from .errors import AnnotationMismatchError, DomainError, SequenceOverflowError
from .knowledge import (
    AnnotationStore,
    DITTO_GENERAL_TYPES,
    DITTO_PRODUCT_SOURCE_TYPES,
    RULE_TYPE_LABELS,
)
from .tabular import Record, Table, json_object, read_lines, write_json_lines
from .text import CLS_ID, COL_ID, SEP_ID, SPECIAL_TOKENS, Tokenizer, VAL_ID, tokenize


class PromptMode(Enum):
    """How knowledge is combined with the serialized text."""

    SPACE = "space"
    SLASH = "slash"
    CONSTRAINED = "constrained"

    @classmethod
    def from_string(cls, value: str) -> "PromptMode":
        normalized = value.strip().lower()
        aliases = {
            "space": cls.SPACE,
            "slash": cls.SLASH,
            "/": cls.SLASH,
            "constrained": cls.CONSTRAINED,
            "constrained_tuning": cls.CONSTRAINED,
            "pct": cls.CONSTRAINED,
        }
        if normalized not in aliases:
            raise DomainError(f"unknown prompt mode {value!r}")
        return aliases[normalized]


@dataclass(frozen=True)
class Branch:
    """One knowledge subsequence attached to a trunk head span. The
    serializer's branches name their ``kind``; the injection tree does not
    read it."""

    head: tuple[int, int]
    knowledge: tuple[int, ...]
    kind: str | None = None  # "column" | "entity"


@dataclass(frozen=True)
class TokenSeq:
    """Serialized tokens of one entry, with its branches in constrained mode."""

    tokens: tuple[int, ...]
    sites: tuple[Branch, ...] = ()


@dataclass(frozen=True)
class InputSequence:
    """A serialized pair: ``[CLS] left [SEP] right [SEP]`` with segment ids."""

    left: TokenSeq
    right: TokenSeq
    tokens: tuple[int, ...]
    segments: tuple[int, ...]
    sites: tuple[Branch, ...]
    mode: PromptMode
    label: int | None = None


# Tokens every vocabulary must contain besides the corpus: the slash joiner
# and every label the shipped providers can emit.
def _default_label_tokens() -> set[str]:
    tokens = {"/"}
    for label in RULE_TYPE_LABELS:
        tokens.update(tokenize(label))
    for label in DITTO_GENERAL_TYPES | DITTO_PRODUCT_SOURCE_TYPES:
        tokens.update(tokenize(label))
    return tokens


def build_vocab(
    corpus: Sequence[Table],
    min_count: int = 1,
    extra_labels: Iterable[str] = (),
    tokenize: Callable[[str], Sequence[str]] = tokenize,
) -> Tokenizer:
    """Build a tokenizer over the corpus tables.

    Tokens occurring at least ``min_count`` times are kept, ordered by
    frequency (descending) then lexicographically. Knowledge labels are
    always included even when absent from the corpus. Column names and
    cells are split by ``tokenize``, which may be a memo of ``text.tokenize``.
    """
    if not corpus:
        raise DomainError("build_vocab needs a non-empty corpus")
    counts: Counter[str] = Counter()
    for table in corpus:
        for column in table.schema:
            counts.update(tokenize(column))
        for rec in table.rows:
            for _, value in rec.columns:
                counts.update(tokenize(value))

    always = _default_label_tokens()
    for label in extra_labels:
        always.update(tokenize(label))

    kept = {tok for tok, c in counts.items() if c >= min_count}
    kept.update(always)
    ordered = sorted(kept, key=lambda tok: (-counts.get(tok, 0), tok))

    vocab = {tok: i for i, tok in enumerate(SPECIAL_TOKENS)}
    for tok in ordered:
        vocab[tok] = len(vocab)
    return Tokenizer(vocab=vocab)


def serialize_entry(
    record: Record,
    store: AnnotationStore,
    mode: PromptMode,
    tokenizer: Tokenizer,
    table: str = "tableA",
    tokenize: Callable[[str], Sequence[str]] = tokenize,
) -> TokenSeq:
    """Serialize one record to ``[COL] name [VAL] value`` tokens per column.

    One walk builds the plain trunk and lists every knowledge site in trunk
    order: a column type's head is the column name, a mention's head its
    span of the value. Constrained mode keeps the trunk and records a site
    per non-empty label with a non-empty head; template modes splice each
    non-empty label in right after its head (slash mode puts "/" first).
    Texts are split by ``tokenize``, which may be a memo of ``text.tokenize``.
    """
    trunk: list[int] = []
    found: list[tuple[int, int, list[int], str]] = []  # (start, end, knowledge, kind)
    for column, value in record.columns:
        trunk.append(COL_ID)
        name_start = len(trunk)
        trunk.extend(tokenizer.encode_text(column, tokenize))
        ann = store.column_type(table, column)
        if ann is not None:
            know = tokenizer.encode_text(ann.predicted_type, tokenize)
            found.append((name_start, len(trunk), know, "column"))
        trunk.append(VAL_ID)
        value_tokens = tokenizer.encode_text(value, tokenize)
        base = len(trunk)
        for m in store.mentions_for(table, record.entry_id, column):
            if m.end > len(value_tokens):
                raise AnnotationMismatchError(
                    f"mention [{m.start},{m.end}) exceeds {len(value_tokens)} value "
                    f"tokens in table {table!r} row {record.entry_id!r} column {column!r}"
                )
            know = tokenizer.encode_text(m.entity_type, tokenize)
            found.append((base + m.start, base + m.end, know, "entity"))
        trunk.extend(value_tokens)

    if mode is PromptMode.CONSTRAINED:
        sites = tuple(
            Branch((start, end), tuple(know), kind)
            for start, end, know, kind in found
            if know and end > start
        )
        return TokenSeq(tokens=tuple(trunk), sites=sites)
    joiner = tokenizer.encode_tokens(["/"]) if mode is PromptMode.SLASH else []
    tokens, cursor = [], 0
    for _, end, know, _ in found:
        if know:
            tokens += trunk[cursor:end]
            tokens += joiner
            tokens += know
            cursor = end
    tokens += trunk[cursor:]
    return TokenSeq(tokens=tuple(tokens))


# The least max_len that serialize_pair, and so RunConfig, accepts.
MIN_MAX_LEN = 8


def serialize_pair(
    e1: Record,
    e2: Record,
    store: AnnotationStore,
    mode: PromptMode,
    tokenizer: Tokenizer,
    max_len: int,
    label: int | None = None,
    left_table: str = "tableA",
    right_table: str = "tableB",
    tokenize: Callable[[str], Sequence[str]] = tokenize,
    entries: dict[tuple[str, str], TokenSeq] | None = None,
) -> InputSequence:
    """Serialize a record pair to ``[CLS] left [SEP] right [SEP]``.

    Over-length sequences are shrunk by dropping value tokens from the tail
    of the longer side until the budget fits; markers, column names, and
    specials are never dropped. Ties shrink the left side.

    ``entries`` keeps each side's ``serialize_entry`` result by
    ``(table, entry_id)``, so a dict passed to many calls serializes each
    record once. It must serve one store, mode, tokenizer and table pair.
    """
    if max_len < MIN_MAX_LEN:
        raise DomainError(f"max_len must be >= {MIN_MAX_LEN}, got {max_len}")
    entries = {} if entries is None else entries
    for record, table in ((e1, left_table), (e2, right_table)):
        if (table, record.entry_id) not in entries:
            entries[table, record.entry_id] = serialize_entry(
                record, store, mode, tokenizer, table=table, tokenize=tokenize
            )
    left = entries[left_table, e1.entry_id]
    right = entries[right_table, e2.entry_id]

    tokens, segments, sites = _join_truncated(left, right, max_len)
    return InputSequence(
        left=left,
        right=right,
        tokens=tokens,
        segments=segments,
        sites=sites,
        mode=mode,
        label=label,
    )


def _join_truncated(left: TokenSeq, right: TokenSeq, max_len: int) -> tuple:
    """Tokens, segments and sites of ``[CLS] left [SEP] right [SEP]`` cut to
    ``max_len``.

    Each dropped token is the last value token left on the side that is
    longer at that moment (ties: left), or on the other side once that side
    has no value tokens left. Each side is cut on its own (``_cut``), and
    the sides' sites shift once, when they are joined. The cut takes a step
    per marker, run and site, not per token dropped.
    """
    excess = len(left.tokens) + len(right.tokens) + 3 - max_len
    if excess > 0:
        left_runs, right_runs = _value_runs(left.tokens), _value_runs(right.tokens)
        from_left, from_right = _drop_counts(
            len(left.tokens), len(right.tokens),
            sum(end - start for start, end in left_runs),
            sum(end - start for start, end in right_runs),
            excess,
        )
        if from_left + from_right < excess:
            raise SequenceOverflowError(
                f"pair cannot fit into max_len={max_len} even with all values removed"
            )
        left = _cut(left, _tail(left_runs, from_left))
        right = _cut(right, _tail(right_runs, from_right))

    n_left, n_right = len(left.tokens), len(right.tokens)
    tokens = (CLS_ID, *left.tokens, SEP_ID, *right.tokens, SEP_ID)
    segments = (0,) * (n_left + 2) + (1,) * (n_right + 1)
    return tokens, segments, _shifted(left.sites, 1) + _shifted(right.sites, n_left + 2)


def _cut(side: TokenSeq, cut: list[tuple[int, int]]) -> TokenSeq:
    """``side`` without the tokens of the [start, end) ranges ``cut`` (in
    order). Sites whose head loses a token are dropped; the others shift
    left by the number of tokens cut before them."""
    tokens, prev = [], 0
    for start, end in cut:
        tokens += side.tokens[prev:start]
        prev = end
    tokens += side.tokens[prev:]
    cut_starts = [start for start, _ in cut]
    cut_before = list(accumulate((end - start for start, end in cut), initial=0))

    def dropped_before(i: int) -> int:
        k = bisect_left(cut_starts, i) - 1
        return 0 if k < 0 else cut_before[k] + min(i, cut[k][1]) - cut[k][0]

    sites = []
    for s in side.sites:
        start, end = s.head
        shift = dropped_before(start)
        if dropped_before(end) == shift:  # the head lost no token
            sites.append(Branch((start - shift, end - shift), s.knowledge, s.kind))
    return TokenSeq(tuple(tokens), tuple(sites))


def _shifted(sites: tuple[Branch, ...], by: int) -> tuple[Branch, ...]:
    """``sites`` with their heads moved ``by`` tokens right."""
    return tuple(Branch((s.head[0] + by, s.head[1] + by), s.knowledge, s.kind) for s in sites)


def check_length(seq: InputSequence, max_len: int) -> None:
    """Injection never truncates knowledge: a pair whose trunk plus branch
    tokens exceed ``max_len`` is an error."""
    n = len(seq.tokens) + sum(len(s.knowledge) for s in seq.sites)
    if n > max_len:
        raise SequenceOverflowError(f"injected length {n} exceeds max_len {max_len}")


def _value_runs(tokens: tuple[int, ...]) -> list[tuple[int, int]]:
    """The [start, end) runs of value tokens in one side's ``tokens``: each
    stretch after a [VAL] up to the next [VAL] or [COL]. Found with
    ``tuple.index`` per marker, so the cost grows with the markers."""
    marks = []
    for marker in (VAL_ID, COL_ID):
        at = 0
        try:
            while True:
                at = tokens.index(marker, at)
                marks.append(at)
                at += 1
        except ValueError:
            pass
    marks.sort()
    return [
        (at + 1, end)
        for at, end in zip(marks, marks[1:] + [len(tokens)])
        if tokens[at] == VAL_ID and end > at + 1
    ]


def _drop_counts(
    left_len: int, right_len: int, left_values: int, right_values: int, excess: int
) -> tuple[int, int]:
    """How many value tokens each side loses when ``excess`` tokens are
    dropped one at a time from the side that is longer (ties: left), or
    from the other side once that one has no value tokens left.

    In closed form: the longer side drops down to level, then the sides
    drop a token each, left first, and the side that still has values takes
    the rest. Fewer than ``excess`` in all means the values ran out.
    """
    if left_len >= right_len:
        from_left, from_right = min(left_len - right_len, excess, left_values), 0
    else:
        from_left, from_right = 0, min(right_len - left_len, excess, right_values)
    excess -= from_left + from_right
    pairs = min(excess // 2, left_values - from_left, right_values - from_right)
    from_left += pairs
    from_right += pairs
    excess -= 2 * pairs
    # Left now: at most one token with the sides level, or one side is out.
    rest = min(excess, left_values - from_left)
    from_left += rest
    from_right += min(excess - rest, right_values - from_right)
    return from_left, from_right


def _tail(runs: list[tuple[int, int]], count: int) -> list[tuple[int, int]]:
    """The [start, end) ranges, in order, that hold the last ``count``
    positions of ``runs``."""
    out = []
    for start, end in reversed(runs):
        if count <= 0:
            break
        take = min(count, end - start)
        out.append((end - take, end))
        count -= take
    return out[::-1]


def pair_to_json(seq: InputSequence) -> dict:
    """Batch line for one pair, in every mode. Constrained-mode ``tokens``
    are the trunk; its sites are expanded when the line is loaded."""
    return {
        "tokens": list(seq.tokens),
        "segments": list(seq.segments),
        "sites": [
            {"head": list(s.head), "know": list(s.knowledge), "kind": s.kind}
            for s in seq.sites
        ],
        "label": seq.label,
    }


def write_batch_file(path: str | Path, lines: Iterable[dict]) -> None:
    write_json_lines(path, lines)


def read_batch_file(path: str | Path) -> list[dict]:
    return [obj for _, obj in read_lines(path, json_object)]
