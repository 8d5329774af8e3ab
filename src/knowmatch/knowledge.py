"""Column-level and entity-level knowledge providers.

Two shipped providers cover the desk-scale path: a transparent rule table
for column semantic types and a gazetteer for entity mentions. Annotations
produced by real external systems are brought in through a JSONL
interchange format instead (see ``ingest_annotations``).
"""

from __future__ import annotations

import itertools
import re
from bisect import bisect_right
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable, Iterable, Sequence

from .errors import DomainError, FormatError, OverlapError
from .tabular import FIELD_TYPES, Table, json_object, read_lines, tsv_pair, write_json_lines
from .text import tokenize

# Ditto-style baseline injection vocabularies.
DITTO_GENERAL_TYPES = frozenset(
    {"PERSON", "ORG", "LOC", "PRODUCT", "DATE", "QUANTITY", "TIME"}
)
DITTO_PRODUCT_SOURCE_TYPES = frozenset({"NORP", "GPE", "LOC", "PERSON", "PRODUCT"})

# Each Ditto mode: the mention types it keeps, and the type it relabels them
# to (None keeps each mention's own type).
DITTO_MODES = {
    "general": (DITTO_GENERAL_TYPES, None),
    "product": (DITTO_PRODUCT_SOURCE_TYPES, "PRODUCT"),
}


@dataclass(frozen=True)
class ColumnTypeAnnotation:
    """Predicted semantic type for one table column."""

    table: str
    column: str
    predicted_type: str
    confidence: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.confidence <= 1.0:
            raise FormatError(f"confidence {self.confidence} outside [0,1]")


@dataclass(frozen=True)
class EntityMention:
    """A typed entity mention inside one cell, as a token span of the value."""

    table: str
    row: str
    column: str
    start: int
    end: int
    surface: str
    entity_type: str

    def __post_init__(self) -> None:
        if not (0 <= self.start < self.end):
            raise FormatError(f"bad mention span [{self.start},{self.end})")


class Gazetteer:
    """Surface-form dictionary: surface -> entity type, matched by tokens.

    Both ways in (``Gazetteer(entries)`` and ``from_file``) are this
    constructor, which holds both surface rules: a surface must have
    tokens, and surfaces with the same tokens must have the same type (a
    repeat with the same type is kept once, as its first spelling). Each
    surface is tokenized once. ``sources``, one per entry (``"gaz.tsv: line
    3"``), name a surface's file and line in an error.
    """

    def __init__(
        self,
        entries: dict[str, str] | Iterable[tuple[str, str]],
        sources: Iterable[str] | None = None,
    ) -> None:
        pairs = entries.items() if isinstance(entries, dict) else entries
        sources = itertools.repeat("") if sources is None else sources
        first: dict[tuple[str, ...], tuple[str, str, str]] = {}
        widths: dict[str, set[int]] = {}
        for (surface, label), source in zip(pairs, sources):
            toks = tuple(tokenize(surface))
            if not toks:
                where = f"{source}: " if source else ""
                raise FormatError(f"{where}empty gazetteer surface {surface!r}")
            other, other_label, other_source = first.setdefault(toks, (surface, label, source))
            if other_label != label:
                raise FormatError(
                    f"gazetteer surfaces {_named(other, other_source)} and "
                    f"{_named(surface, source)} have the same tokens but types "
                    f"{other_label!r} and {label!r}"
                )
            widths.setdefault(toks[0], set()).add(len(toks))
        self.entries = {surface: label for surface, label, _ in first.values()}
        self._index = {toks: label for toks, (_, label, _) in first.items()}
        self._widths = {t: tuple(sorted(w, reverse=True)) for t, w in widths.items()}

    def __len__(self) -> int:
        return len(self._index)

    def lookup(self, tokens: tuple[str, ...]) -> str | None:
        return self._index.get(tokens)

    def widths(self, first: str) -> tuple[int, ...]:
        """Token counts of the surfaces that start with token ``first``,
        longest first; empty when none does."""
        return self._widths.get(first, ())

    @property
    def type_labels(self) -> tuple[str, ...]:
        return tuple(sorted(set(self._index.values())))

    @classmethod
    def from_file(cls, path: str | Path) -> "Gazetteer":
        """Load a TSV gazetteer: ``surface<TAB>type`` per line, UTF-8."""
        lines = list(read_lines(path, tsv_pair))
        return cls([pair for _, pair in lines], [f"{path}: line {n}" for n, _ in lines])


def _named(surface: str, source: str) -> str:
    return f"{surface!r} ({source})" if source else repr(surface)


class AnnotationStore:
    """Holds column-type predictions and entity mentions for named tables.

    At most one column type per (table, column); later additions override.
    Mentions within one cell must not overlap.
    """

    def __init__(self) -> None:
        self._column_types: dict[tuple[str, str], ColumnTypeAnnotation] = {}
        self._mentions: dict[tuple[str, str, str], list[EntityMention]] = {}

    def add_column_type(self, ann: ColumnTypeAnnotation) -> None:
        self._column_types[(ann.table, ann.column)] = ann

    def add_mention(self, mention: EntityMention) -> None:
        """Insert in start order. A cell is sorted and disjoint, so only the
        neighbours at the insertion point can overlap; the error names the
        leftmost overlapping mention."""
        key = (mention.table, mention.row, mention.column)
        cell = self._mentions.setdefault(key, [])
        at = bisect_right(cell, mention.start, key=lambda m: m.start)
        for other in cell[at - 1 if at else 0 : at + 1]:
            if mention.start < other.end and other.start < mention.end:
                raise OverlapError(
                    f"mention [{mention.start},{mention.end}) overlaps "
                    f"[{other.start},{other.end}) in cell {key}"
                )
        cell.insert(at, mention)

    def column_type(self, table: str, column: str) -> ColumnTypeAnnotation | None:
        return self._column_types.get((table, column))

    def mentions_for(self, table: str, row: str, column: str) -> tuple[EntityMention, ...]:
        return tuple(self._mentions.get((table, row, column), ()))

    def all_column_types(self) -> list[ColumnTypeAnnotation]:
        return [self._column_types[k] for k in sorted(self._column_types)]

    def all_mentions(self) -> list[EntityMention]:
        out: list[EntityMention] = []
        for key in sorted(self._mentions):
            out.extend(self._mentions[key])
        return out

    def type_labels(self) -> list[str]:
        """All distinct labels present, for vocabulary construction."""
        labels = {a.predicted_type for a in self._column_types.values()}
        labels.update(m.entity_type for ms in self._mentions.values() for m in ms)
        return sorted(labels)

    def counts(self) -> dict[str, int]:
        return {
            "column_types": len(self._column_types),
            "mentions": sum(len(v) for v in self._mentions.values()),
        }


# Rule table for column-type inference: (label, predicate on a raw cell).
_YEAR_RE = re.compile(r"^(18|19|20)\d{2}$")
_PRICE_RE = re.compile(r"^[$€£¥]\s?\d{1,3}(,\d{3})*(\.\d+)?$")
_DATE_RE = re.compile(r"^\d{1,4}([-/.])\d{1,2}\1\d{1,4}$")
_QUANTITY_UNITS = (
    "kg|g|mg|lb|lbs|oz|km|m|cm|mm|mi|ft|in|l|ml|gal|gb|mb|tb|kb|hz|khz|mhz|ghz|"
    "min|mins|hr|hrs|h|s|sec|secs|pcs|pc|pack|x|%"
)
_QUANTITY_RE = re.compile(rf"^\d+([.,]\d+)?\s?({_QUANTITY_UNITS})$", re.IGNORECASE)
_NAME_TOKEN_RE = re.compile(r"^[A-Z][a-z]*\.?$")


def _is_name_like(value: str) -> bool:
    parts = value.split()
    return len(parts) >= 2 and all(_NAME_TOKEN_RE.match(p) for p in parts)


_COLUMN_RULES: tuple[tuple[str, object], ...] = (
    ("year", lambda v: bool(_YEAR_RE.match(v))),
    ("price", lambda v: bool(_PRICE_RE.match(v.strip()))),
    ("date", lambda v: bool(_DATE_RE.match(v.strip()))),
    ("quantity", lambda v: bool(_QUANTITY_RE.match(v.strip()))),
    ("name", _is_name_like),
)

# Labels the shipped rule table can emit: its rules', then the fallback.
RULE_TYPE_LABELS = tuple(label for label, _ in _COLUMN_RULES) + ("text",)


def infer_column_types(table: Table) -> list[ColumnTypeAnnotation]:
    """Predict one semantic type per column from its values.

    Each rule is voted over the column's non-empty cells; the best rule wins
    if it matches more than half of them, otherwise the column falls back to
    "text". Confidence is the winning rule's match fraction (1.0 for the
    fallback, which matches everything).
    """
    if not table.rows:
        raise DomainError(f"table {table.name!r} is empty")
    annotations = []
    for ci, column in enumerate(table.schema):
        values = [rec.values[ci] for rec in table.rows if rec.values[ci] != ""]
        best_label, best_frac = "text", 0.0
        if values:
            for label, rule in _COLUMN_RULES:
                frac = sum(1 for v in values if rule(v)) / len(values)
                if frac > best_frac:
                    best_label, best_frac = label, frac
        if best_frac > 0.5:
            annotations.append(
                ColumnTypeAnnotation(table.name, column, best_label, best_frac)
            )
        else:
            annotations.append(ColumnTypeAnnotation(table.name, column, "text", 1.0))
    return annotations


def link_entities(
    table: Table,
    gazetteer: Gazetteer,
    tokenize: Callable[[str], Sequence[str]] = tokenize,
) -> list[EntityMention]:
    """Tag gazetteer hits in every cell by greedy longest match.

    The scan is left to right over the cell's token sequence; after a match
    it resumes past the matched span, so mentions never overlap. At each
    token it tries only the widths of the surfaces that start with that
    token, longest first. Cells are split by ``tokenize``, which may be a
    memo of ``text.tokenize``.
    """
    mentions = []
    for rec in table.rows:
        for column, value in rec.columns:
            tokens = tokenize(value)
            i, n = 0, len(tokens)
            while i < n:
                match_end = 0
                match_label = None
                for width in gazetteer.widths(tokens[i]):
                    if width > n - i:
                        continue
                    label = gazetteer.lookup(tuple(tokens[i : i + width]))
                    if label is not None:
                        match_end, match_label = i + width, label
                        break
                if match_label is None:
                    i += 1
                    continue
                mentions.append(
                    EntityMention(
                        table=table.name,
                        row=rec.entry_id,
                        column=column,
                        start=i,
                        end=match_end,
                        surface=" ".join(tokens[i:match_end]),
                        entity_type=match_label,
                    )
                )
                i = match_end
    return mentions


def ditto_inject(
    mentions: Iterable[EntityMention], mode: str
) -> list[EntityMention]:
    """Apply the Ditto baseline injection policy to raw NER-style mentions.

    General mode keeps the seven general types unchanged; Product mode keeps
    the five product-adjacent types and relabels them all 'PRODUCT'.
    """
    if mode.lower() not in DITTO_MODES:
        raise DomainError(f"unknown ditto mode {mode!r}")
    kept, relabel = DITTO_MODES[mode.lower()]
    return [
        m if relabel is None else replace(m, entity_type=relabel)
        for m in mentions
        if m.entity_type in kept
    ]


def _field(obj: dict, key: str, kind: str = "str"):
    """``obj[key]``, which must be of the ``FIELD_TYPES`` kind ``"str"``,
    ``"int"`` or ``"float"``: nothing is coerced, and a bool is not a
    number."""
    value = obj[key]
    if type(value) not in FIELD_TYPES[kind]:
        raise TypeError(f"{key} must be {kind}, got {value!r}")
    return value


def ingest_annotations(path: str | Path) -> AnnotationStore:
    """Read an annotation JSONL file into a store.

    One object per line, ``kind`` is ``column_type`` or ``mention``. Later
    column_type lines override earlier ones for the same (table, column).
    Names, surfaces and types are JSON strings, ``start`` and ``end`` JSON
    integers, and ``confidence`` a number.
    """
    store = AnnotationStore()
    for lineno, obj in read_lines(path, json_object):
        kind = obj.get("kind")
        if kind not in ("column_type", "mention"):
            raise FormatError(f"{path}: line {lineno}: unknown kind {kind!r}")
        try:
            if kind == "column_type":
                store.add_column_type(
                    ColumnTypeAnnotation(
                        table=_field(obj, "table"),
                        column=_field(obj, "column"),
                        predicted_type=_field(obj, "type"),
                        confidence=float(_field(obj, "confidence", "float")),
                    )
                )
            else:
                store.add_mention(
                    EntityMention(
                        table=_field(obj, "table"),
                        row=_field(obj, "row"),
                        column=_field(obj, "column"),
                        start=_field(obj, "start", "int"),
                        end=_field(obj, "end", "int"),
                        surface=_field(obj, "surface"),
                        entity_type=_field(obj, "type"),
                    )
                )
        except (KeyError, TypeError, OverflowError, FormatError) as exc:
            raise FormatError(f"{path}: line {lineno}: {exc}") from exc
        except OverlapError as exc:
            raise OverlapError(f"{path}: line {lineno}: {exc}") from exc
    return store


def export_annotations(store: AnnotationStore, path: str | Path) -> None:
    """Write a store back out as annotation JSONL (deterministic order)."""
    column_types = [
        {"kind": "column_type", "table": a.table, "column": a.column,
         "type": a.predicted_type, "confidence": a.confidence}
        for a in store.all_column_types()
    ]
    mentions = [
        {"kind": "mention", "table": m.table, "row": m.row, "column": m.column,
         "start": m.start, "end": m.end, "surface": m.surface, "type": m.entity_type}
        for m in store.all_mentions()
    ]
    write_json_lines(path, column_types + mentions)
