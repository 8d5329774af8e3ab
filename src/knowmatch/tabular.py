"""Tables of records and labeled record pairs.

Datasets follow the common two-table layout: ``tableA.csv`` / ``tableB.csv``
with an ``id`` column plus attribute columns, and pair files
(``train.csv`` / ``valid.csv`` / ``test.csv``) with columns
``ltable_id,rtable_id,label``. All cell values are kept as verbatim text.
"""

from __future__ import annotations

import csv
import math
import random
from dataclasses import dataclass, field
from pathlib import Path
from .errors import DanglingReferenceError, DomainError, DuplicateIdError, FormatError

SPLITS = ("train", "valid", "test")


@dataclass(frozen=True)
class Record:
    """One table row: an opaque id and an ordered (column, value) list."""

    entry_id: str
    columns: tuple[tuple[str, str], ...]

    def value(self, col: str) -> str:
        for name, val in self.columns:
            if name == col:
                return val
        raise KeyError(col)

    @property
    def values(self) -> tuple[str, ...]:
        return tuple(val for _, val in self.columns)


@dataclass(frozen=True)
class Table:
    """An immutable named table whose rows all share one schema."""

    name: str
    schema: tuple[str, ...]
    rows: tuple[Record, ...]
    _index: dict[str, Record] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        index: dict[str, Record] = {}
        for rec in self.rows:
            cols = tuple(name for name, _ in rec.columns)
            if cols != self.schema:
                raise FormatError(
                    f"table {self.name!r}: row {rec.entry_id!r} columns {cols} "
                    f"do not match schema {self.schema}"
                )
            if rec.entry_id in index:
                raise DuplicateIdError(
                    f"table {self.name!r}: duplicate id {rec.entry_id!r}"
                )
            index[rec.entry_id] = rec
        object.__setattr__(self, "_index", index)

    def __len__(self) -> int:
        return len(self.rows)

    def __contains__(self, entry_id: str) -> bool:
        return entry_id in self._index

    def row(self, entry_id: str) -> Record:
        return self._index[entry_id]


@dataclass(frozen=True)
class LabeledPair:
    """A (left id, right id) pair with a binary match label."""

    left_id: str
    right_id: str
    label: int

    def __post_init__(self) -> None:
        if self.label not in (0, 1):
            raise FormatError(f"label must be 0 or 1, got {self.label!r}")


@dataclass(frozen=True)
class LabeledPairSet:
    """Labeled pairs belonging to one split (train/valid/test)."""

    pairs: tuple[LabeledPair, ...]
    split: str

    def __post_init__(self) -> None:
        if self.split not in SPLITS:
            raise DomainError(f"unknown split {self.split!r}")
        seen = set()
        for p in self.pairs:
            key = (p.left_id, p.right_id)
            if key in seen:
                raise DuplicateIdError(f"duplicate pair {key} in split {self.split!r}")
            seen.add(key)

    def __len__(self) -> int:
        return len(self.pairs)

    @property
    def positives(self) -> int:
        return sum(p.label for p in self.pairs)


def _read_csv_rows(path: str | Path) -> list[list[str]]:
    """Read a CSV file strictly: UTF-8, comma, double quotes, no embedded newlines."""
    rows = []
    with open(path, newline="", encoding="utf-8") as fh:
        for lineno, row in enumerate(csv.reader(fh), start=1):
            for cell in row:
                if "\n" in cell or "\r" in cell:
                    raise FormatError(f"{path}: embedded newline in row {lineno}")
            rows.append(row)
    return rows


def load_table(path: str | Path, name: str | None = None) -> Table:
    """Load a table from CSV. The header must contain an ``id`` column.

    Cells are read verbatim as text (no numeric coercion); empty cells become
    empty strings.
    """
    path = Path(path)
    rows = _read_csv_rows(path)
    if not rows:
        raise FormatError(f"{path}: missing header")
    header = rows[0]
    if "id" not in header:
        raise FormatError(f"{path}: header has no 'id' column")
    id_pos = header.index("id")
    schema = tuple(col for i, col in enumerate(header) if i != id_pos)
    if any(not col for col in schema):
        raise FormatError(f"{path}: empty column name in header")

    records = []
    for lineno, row in enumerate(rows[1:], start=2):
        if len(row) != len(header):
            raise FormatError(
                f"{path}: row {lineno} has {len(row)} cells, expected {len(header)}"
            )
        entry_id = row[id_pos]
        cells = tuple(
            (header[i], row[i]) for i in range(len(header)) if i != id_pos
        )
        records.append(Record(entry_id=entry_id, columns=cells))

    table_name = name if name is not None else path.stem
    return Table(name=table_name, schema=schema, rows=tuple(records))


def write_table(table: Table, path: str | Path) -> None:
    """Write a table as CSV with the ``id`` column first."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(("id",) + table.schema)
        for rec in table.rows:
            writer.writerow((rec.entry_id,) + rec.values)


def load_pairs(
    path: str | Path,
    left: Table,
    right: Table,
    split: str | None = None,
) -> LabeledPairSet:
    """Load a labeled pair file (``ltable_id,rtable_id,label``).

    Every id must resolve into its table. The split defaults to the file stem
    when it is one of train/valid/test.
    """
    path = Path(path)
    rows = _read_csv_rows(path)
    if not rows:
        raise FormatError(f"{path}: missing header")
    header = rows[0]
    try:
        li = header.index("ltable_id")
        ri = header.index("rtable_id")
        yi = header.index("label")
    except ValueError as exc:
        raise FormatError(f"{path}: expected ltable_id,rtable_id,label header") from exc

    pairs = []
    for lineno, row in enumerate(rows[1:], start=2):
        if len(row) != len(header):
            raise FormatError(
                f"{path}: row {lineno} has {len(row)} cells, expected {len(header)}"
            )
        left_id, right_id, raw_label = row[li], row[ri], row[yi]
        if left_id not in left:
            raise DanglingReferenceError(
                f"{path}: row {lineno} references id {left_id!r} absent from {left.name!r}"
            )
        if right_id not in right:
            raise DanglingReferenceError(
                f"{path}: row {lineno} references id {right_id!r} absent from {right.name!r}"
            )
        if raw_label not in ("0", "1"):
            raise FormatError(f"{path}: row {lineno} label {raw_label!r} not in {{0,1}}")
        pairs.append(LabeledPair(left_id, right_id, int(raw_label)))

    if split is None:
        split = path.stem if path.stem in SPLITS else "train"
    return LabeledPairSet(pairs=tuple(pairs), split=split)


def write_pairs(pair_set: LabeledPairSet, path: str | Path) -> None:
    """Write a labeled pair file in the ltable_id,rtable_id,label layout."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(("ltable_id", "rtable_id", "label"))
        for p in pair_set.pairs:
            writer.writerow((p.left_id, p.right_id, p.label))


def make_dirty(table: Table, fraction: float, seed: int) -> Table:
    """Corrupt a table by moving cell values into other columns of the same row.

    A ``fraction`` share of all (row, column) cells is chosen by a seeded
    uniform shuffle; each chosen cell's value is emptied and appended (single
    space separator) to another uniformly chosen column of the same row.
    A cell never acts as both source and target in the same pass, so values
    are moved, never deleted. Deterministic for fixed (table, fraction, seed).
    """
    if not 0.0 <= fraction <= 1.0:
        raise DomainError(f"fraction must be in [0,1], got {fraction}")
    n_cols = len(table.schema)
    if n_cols < 2:
        raise DomainError("make_dirty requires at least 2 columns")
    if fraction == 0.0 or not table.rows:
        return table

    rng = random.Random(seed)
    n_rows = len(table.rows)
    want = math.ceil(fraction * n_rows * n_cols)

    cells = [(r, c) for r in range(n_rows) for c in range(n_cols)]
    rng.shuffle(cells)

    # Walk the shuffled order, capping each row at n_cols-1 sources so every
    # row keeps at least one column available as an append target.
    sources: list[tuple[int, int]] = []
    source_set: set[tuple[int, int]] = set()
    per_row = [0] * n_rows
    for r, c in cells:
        if len(sources) == want:
            break
        if per_row[r] == n_cols - 1:
            continue
        sources.append((r, c))
        source_set.add((r, c))
        per_row[r] += 1

    grid = [list(rec.values) for rec in table.rows]
    new_grid = [row[:] for row in grid]
    for r, c in sources:
        new_grid[r][c] = ""
    for r, c in sources:
        candidates = [t for t in range(n_cols) if t != c and (r, t) not in source_set]
        target = rng.choice(candidates)
        moved = grid[r][c]
        base = new_grid[r][target]
        new_grid[r][target] = " ".join(part for part in (base, moved) if part)

    records = tuple(
        Record(
            entry_id=rec.entry_id,
            columns=tuple(zip(table.schema, new_grid[r])),
        )
        for r, rec in enumerate(table.rows)
    )
    return Table(name=table.name, schema=table.schema, rows=records)
