"""Column-level and entity-level knowledge providers.

Two shipped providers cover the desk-scale path: a transparent rule table
for column semantic types and a gazetteer for entity mentions. Annotations
produced by real external systems are brought in through a JSONL
interchange format instead (see ``ingest_annotations``).
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable

from .errors import DomainError, FormatError, OverlapError
from .tabular import Table
from .text import tokenize

# Ditto-style baseline injection vocabularies.
DITTO_GENERAL_TYPES = frozenset(
    {"PERSON", "ORG", "LOC", "PRODUCT", "DATE", "QUANTITY", "TIME"}
)
DITTO_PRODUCT_SOURCE_TYPES = frozenset({"NORP", "GPE", "LOC", "PERSON", "PRODUCT"})

# Labels the shipped rule table can emit; fallback is "text".
RULE_TYPE_LABELS = ("year", "price", "date", "quantity", "name", "text")


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


@dataclass(frozen=True)
class Gazetteer:
    """Surface-form dictionary: lowercase multi-token surface -> entity type."""

    entries: dict[str, str]
    _index: dict[tuple[str, ...], str] = field(init=False, repr=False, compare=False)
    _max_len: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        index: dict[tuple[str, ...], str] = {}
        for surface, label in self.entries.items():
            toks = tuple(tokenize(surface))
            if not toks:
                raise FormatError(f"empty gazetteer surface {surface!r}")
            index[toks] = label
        object.__setattr__(self, "_index", index)
        object.__setattr__(self, "_max_len", max((len(t) for t in index), default=0))

    def __len__(self) -> int:
        return len(self._index)

    def lookup(self, tokens: tuple[str, ...]) -> str | None:
        return self._index.get(tokens)

    @property
    def max_surface_len(self) -> int:
        return self._max_len

    @property
    def type_labels(self) -> tuple[str, ...]:
        return tuple(sorted(set(self._index.values())))

    @classmethod
    def from_pairs(cls, pairs: Iterable[tuple[str, str]]) -> "Gazetteer":
        return cls(entries={surface.lower(): label for surface, label in pairs})

    @classmethod
    def from_file(cls, path: str | Path) -> "Gazetteer":
        """Load a TSV gazetteer: ``surface<TAB>type`` per line, UTF-8."""
        pairs = []
        with open(path, encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                line = line.rstrip("\n")
                if not line:
                    continue
                parts = line.split("\t")
                if len(parts) != 2 or not parts[0].strip():
                    raise FormatError(f"{path}: bad gazetteer line {lineno}")
                pairs.append((parts[0], parts[1]))
        return cls.from_pairs(pairs)


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
        key = (mention.table, mention.row, mention.column)
        cell = self._mentions.setdefault(key, [])
        for other in cell:
            if mention.start < other.end and other.start < mention.end:
                raise OverlapError(
                    f"mention [{mention.start},{mention.end}) overlaps "
                    f"[{other.start},{other.end}) in cell {key}"
                )
        cell.append(mention)
        cell.sort(key=lambda m: m.start)

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

    def merge(self, other: "AnnotationStore") -> None:
        """Fold another store in; its column types override, mentions add."""
        for ann in other.all_column_types():
            self.add_column_type(ann)
        for mention in other.all_mentions():
            self.add_mention(mention)

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


def link_entities(table: Table, gazetteer: Gazetteer) -> list[EntityMention]:
    """Tag gazetteer hits in every cell by greedy longest match.

    The scan is left to right over the cell's token sequence; after a match
    it resumes past the matched span, so mentions never overlap.
    """
    mentions = []
    max_len = gazetteer.max_surface_len
    if max_len == 0:
        return mentions
    for rec in table.rows:
        for column, value in rec.columns:
            tokens = tokenize(value)
            i, n = 0, len(tokens)
            while i < n:
                match_end = 0
                match_label = None
                for width in range(min(max_len, n - i), 0, -1):
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
    normalized = mode.lower()
    out = []
    if normalized == "general":
        for m in mentions:
            if m.entity_type in DITTO_GENERAL_TYPES:
                out.append(m)
    elif normalized == "product":
        for m in mentions:
            if m.entity_type in DITTO_PRODUCT_SOURCE_TYPES:
                out.append(
                    EntityMention(
                        m.table, m.row, m.column, m.start, m.end, m.surface, "PRODUCT"
                    )
                )
    else:
        raise DomainError(f"unknown ditto mode {mode!r}")
    return out


def ingest_annotations(path: str | Path) -> AnnotationStore:
    """Read an annotation JSONL file into a store.

    One object per line, ``kind`` is ``column_type`` or ``mention``. Later
    column_type lines override earlier ones for the same (table, column).
    """
    store = AnnotationStore()
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise FormatError(f"{path}: line {lineno}: bad JSON") from exc
            if not isinstance(obj, dict):
                raise FormatError(f"{path}: line {lineno}: expected an object")
            kind = obj.get("kind")
            if kind not in ("column_type", "mention"):
                raise FormatError(f"{path}: line {lineno}: unknown kind {kind!r}")
            try:
                if kind == "column_type":
                    store.add_column_type(
                        ColumnTypeAnnotation(
                            table=str(obj["table"]),
                            column=str(obj["column"]),
                            predicted_type=str(obj["type"]),
                            confidence=float(obj["confidence"]),
                        )
                    )
                else:
                    store.add_mention(
                        EntityMention(
                            table=str(obj["table"]),
                            row=str(obj["row"]),
                            column=str(obj["column"]),
                            start=int(obj["start"]),
                            end=int(obj["end"]),
                            surface=str(obj["surface"]),
                            entity_type=str(obj["type"]),
                        )
                    )
            except OverlapError:
                raise
            except (KeyError, ValueError, TypeError, FormatError) as exc:
                raise FormatError(f"{path}: line {lineno}: {exc}") from exc
    return store


def export_annotations(store: AnnotationStore, path: str | Path) -> None:
    """Write a store back out as annotation JSONL (deterministic order)."""
    with open(path, "w", encoding="utf-8") as fh:
        for ann in store.all_column_types():
            fh.write(
                json.dumps(
                    {
                        "kind": "column_type",
                        "table": ann.table,
                        "column": ann.column,
                        "type": ann.predicted_type,
                        "confidence": ann.confidence,
                    },
                    sort_keys=True,
                )
                + "\n"
            )
        for m in store.all_mentions():
            fh.write(
                json.dumps(
                    {
                        "kind": "mention",
                        "table": m.table,
                        "row": m.row,
                        "column": m.column,
                        "start": m.start,
                        "end": m.end,
                        "surface": m.surface,
                        "type": m.entity_type,
                    },
                    sort_keys=True,
                )
                + "\n"
            )
