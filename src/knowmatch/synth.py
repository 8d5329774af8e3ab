"""Synthetic paired datasets with gold annotations.

The generator builds an overlapping entity population where several distinct
entities can share one surface name and differ only in their (hidden)
semantic category. Record text carries no trace of the category, so telling
the look-alikes apart requires the gold entity-type annotations emitted
alongside the tables. That makes knowledge injection measurable: a matcher
without annotations faces label noise it cannot resolve.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from pathlib import Path

from .errors import DomainError
from .knowledge import AnnotationStore, ColumnTypeAnnotation, EntityMention, export_annotations
from .tabular import (
    LabeledPair, LabeledPairSet, Record, Table, check_fields, write_pairs, write_table,
)
from .text import tokenize

_ADJECTIVES = (
    "amber", "crimson", "silver", "golden", "shadow", "velvet", "rapid", "quiet",
    "northern", "southern", "eastern", "western", "royal", "lucky", "iron", "copper",
    "emerald", "scarlet", "frozen", "burning", "hollow", "bright", "misty", "wild",
    "ancient", "modern", "double", "triple", "broken", "gentle", "grand", "little",
    "mighty", "pale", "proud", "silent", "swift", "tender", "vivid", "wandering",
)
_NOUNS = (
    "fox", "river", "falcon", "harbor", "crown", "meadow", "stone", "comet",
    "lantern", "orchid", "anchor", "beacon", "canyon", "cedar", "delta", "ember",
    "garden", "hammer", "island", "jaguar", "kestrel", "ladder", "marble", "nectar",
    "onyx", "panther", "quartz", "raven", "saddle", "thistle", "umbrella", "valley",
    "walnut", "yarrow", "zephyr", "bridge", "castle", "dune", "engine", "forest",
)


@dataclass(frozen=True)
class SyntheticSpec:
    """Knobs for the generator.

    ``ambiguity`` entities share each surface name (with distinct categories
    where possible); negatives pair same-name entities first, falling back to
    cross-name pairs only when needed to hit ``match_rate``.
    """

    entities: int = 100
    ambiguity: int = 2
    categories: tuple[str, ...] = ("artist", "airline", "resort", "brand")
    match_rate: float = 0.5
    perturbation: float = 0.0
    extra_columns: int = 1
    train_frac: float = 0.8
    valid_frac: float = 0.0

    def __post_init__(self) -> None:
        check_fields(
            self, entities=1, ambiguity=1, extra_columns=0, match_rate=(0, 1),
            perturbation=(0, 1), train_frac=(0, 1), valid_frac=(0, 1),
        )
        if not self.categories:
            raise DomainError("need at least one category")
        if self.train_frac + self.valid_frac > 1.0:
            raise DomainError("split fractions must sum to <= 1")


@dataclass(frozen=True)
class SyntheticDataset:
    left: Table
    right: Table
    splits: dict[str, LabeledPairSet]
    annotations: AnnotationStore

    @property
    def all_pairs(self) -> list[LabeledPair]:
        return [p for s in ("train", "valid", "test") for p in self.splits[s].pairs]


def _surface_rng(seed: int, surface_idx: int, salt: int) -> random.Random:
    # Integer mixing only: hashing strings would not be stable across runs.
    return random.Random(seed * 1_000_003 + surface_idx * 7_919 + salt)


def _perturb_value(value: str, rng: random.Random) -> str:
    """One small edit that never changes the whitespace token count."""
    words = value.split()
    if not words:
        return value
    op = rng.choice(("typo", "abbrev", "reorder"))
    if op == "reorder" and len(words) >= 2:
        i = rng.randrange(len(words) - 1)
        words[i], words[i + 1] = words[i + 1], words[i]
        return " ".join(words)
    wi = rng.randrange(len(words))
    word = words[wi]
    if op == "abbrev" and len(word) >= 4:
        words[wi] = word[: max(2, len(word) // 2)] + "."
        return " ".join(words)
    if len(word) >= 2:
        pos = rng.randrange(len(word))
        choice = rng.random()
        if choice < 0.34:
            words[wi] = word[:pos] + word[pos + 1 :]  # delete
        elif choice < 0.67:
            words[wi] = word[:pos] + rng.choice("abcdefghijklmnopqrstuvwxyz") + word[pos + 1 :]
        else:
            words[wi] = word[:pos] + word[pos] + word[pos:]  # duplicate
    return " ".join(words)


def generate_synthetic(spec: SyntheticSpec, seed: int) -> SyntheticDataset:
    """Build two tables, labeled pair splits, and gold annotations.

    Deterministic for a fixed (spec, seed). With ``perturbation`` 0, matched
    records are byte-identical; same-name negatives differ only in the gold
    category annotation.
    """
    rng = random.Random(seed)
    n_surfaces = math.ceil(spec.entities / spec.ambiguity)
    combos = [(a, n) for a in range(len(_ADJECTIVES)) for n in range(len(_NOUNS))]
    if n_surfaces > len(combos):
        raise DomainError(f"at most {len(combos)} distinct surfaces supported")
    surface_idxs = rng.sample(range(len(combos)), n_surfaces)
    surfaces = [f"{_ADJECTIVES[combos[i][0]]} {_NOUNS[combos[i][1]]}" for i in surface_idxs]

    # Entities: (surface index, category); same-surface entities get distinct
    # categories while enough categories exist.
    entities: list[tuple[int, str]] = []
    for s in range(n_surfaces):
        k = min(spec.ambiguity, spec.entities - len(entities))
        if k <= 0:
            break
        if k <= len(spec.categories):
            cats = rng.sample(spec.categories, k)
        else:
            cats = list(spec.categories) + rng.choices(
                spec.categories, k=k - len(spec.categories)
            )
        for cat in cats:
            entities.append((s, cat))

    schema = ["name"] + [f"info{j + 1}" for j in range(spec.extra_columns)]

    def cell_values(surface_idx: int) -> list[str]:
        values = [surfaces[surface_idx]]
        for j in range(spec.extra_columns):
            srng = _surface_rng(seed, surface_idx, 17 + j)
            values.append(f"{srng.choice(_ADJECTIVES)} {srng.choice(_NOUNS)}")
        return values

    store = AnnotationStore()
    for table_name in ("tableA", "tableB"):
        store.add_column_type(ColumnTypeAnnotation(table_name, "name", "name", 1.0))
        for j in range(spec.extra_columns):
            store.add_column_type(
                ColumnTypeAnnotation(table_name, f"info{j + 1}", "description", 1.0)
            )

    def build_rows(table_name: str, perturb_rng: random.Random) -> list[Record]:
        rows = []
        for eid, (surface_idx, category) in enumerate(entities):
            values = cell_values(surface_idx)
            out = []
            for value in values:
                if spec.perturbation > 0 and perturb_rng.random() < spec.perturbation:
                    value = _perturb_value(value, perturb_rng)
                out.append(value)
            rows.append(Record(entry_id=str(eid), columns=tuple(zip(schema, out))))
            name_tokens = tokenize(out[0])
            if name_tokens:
                store.add_mention(
                    EntityMention(
                        table=table_name,
                        row=str(eid),
                        column="name",
                        start=0,
                        end=len(name_tokens),
                        surface=" ".join(name_tokens),
                        entity_type=category,
                    )
                )
        return rows

    left = Table("tableA", tuple(schema), tuple(build_rows("tableA", random.Random(seed + 1))))
    right = Table("tableB", tuple(schema), tuple(build_rows("tableB", random.Random(seed + 2))))

    positives = [LabeledPair(str(i), str(i), 1) for i in range(len(entities))]

    by_surface: dict[int, list[int]] = {}
    for eid, (surface_idx, _) in enumerate(entities):
        by_surface.setdefault(surface_idx, []).append(eid)
    hard_negatives = []
    for surface_idx in sorted(by_surface):
        group = by_surface[surface_idx]
        for a in group:
            for b in group:
                if a != b:
                    hard_negatives.append(LabeledPair(str(a), str(b), 0))

    if spec.match_rate == 0.0:
        n_neg = len(hard_negatives)
        positives = []
    else:
        n_neg = round(len(positives) * (1.0 - spec.match_rate) / spec.match_rate)
    rng.shuffle(hard_negatives)
    negatives = hard_negatives[:n_neg]
    seen = {(p.left_id, p.right_id) for p in positives + negatives}
    attempts = 0
    while len(negatives) < n_neg and attempts < 100 * n_neg:
        attempts += 1
        a = rng.randrange(len(entities))
        b = rng.randrange(len(entities))
        if a == b or (str(a), str(b)) in seen:
            continue
        negatives.append(LabeledPair(str(a), str(b), 0))
        seen.add((str(a), str(b)))

    pairs = positives + negatives
    rng.shuffle(pairs)
    n_total = len(pairs)
    n_train = round(spec.train_frac * n_total)
    n_valid = round(spec.valid_frac * n_total)
    splits = {
        "train": LabeledPairSet(tuple(pairs[:n_train]), "train"),
        "valid": LabeledPairSet(tuple(pairs[n_train : n_train + n_valid]), "valid"),
        "test": LabeledPairSet(tuple(pairs[n_train + n_valid :]), "test"),
    }
    return SyntheticDataset(left=left, right=right, splits=splits, annotations=store)


def write_synthetic(dataset: SyntheticDataset, out_dir: str | Path) -> None:
    """Write the two-table layout plus ``gold_annotations.jsonl``."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    write_table(dataset.left, out / "tableA.csv")
    write_table(dataset.right, out / "tableB.csv")
    for split, pair_set in dataset.splits.items():
        write_pairs(pair_set, out / f"{split}.csv")
    export_annotations(dataset.annotations, out / "gold_annotations.jsonl")
