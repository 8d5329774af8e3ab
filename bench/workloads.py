"""Benchmark workloads: seeded input generation and the run config of each.

Every input is derived from the workload seed, so one seed always gives the
same files. The model seed stays fixed at ``MODEL_SEED``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path

from knowmatch.encoder import EncoderConfig, init_params, save_checkpoint
from knowmatch.harness import DESK_PROFILE, RunConfig
from knowmatch.serializer import build_vocab
from knowmatch.synth import SyntheticSpec, generate_synthetic, write_synthetic
from knowmatch.tabular import Record, Table, write_pairs, write_table

MODEL_SEED = 101

# Filler vocabulary for the long free-text cells.
_FILLER = tuple(
    """
    the a of and to in for with on by from at as is was are were be been this
    that these those it its their our your new old large small best great
    local popular famous quiet busy open closed daily weekly annual early late
    service travel hotel flight music album tour store shop market brand show
    review guest room beach city town island harbor route ticket price offer
    deal season summer winter spring autumn morning evening night weekend
    family friends staff team member client visitor traveler fan artist crew
    quality comfort style design value support booking arrival departure
    checkin lounge suite view pool garden terrace menu dinner lunch breakfast
    coffee concert record release single stage venue festival label partner
    """.split()
)


@dataclass(frozen=True)
class Size:
    """How much input each workload gets; ``full`` is the benchmark size and
    ``tiny`` a seconds-long smoke size.

    Training runs two epochs: a train call then lasts about two seconds, so
    one run holds several of them, spread through it. Per-step cost does
    not depend on the epoch count. For the same reason the constrained
    workload has 125 entities (250 pairs) and the long-cells workload 8
    entities (16 test pairs, one batch): a run then holds four or more
    train calls and a dozen or more calls of each other phase.
    """

    slash_entities: int
    constrained_entities: int
    epochs: int
    long_entities: int
    long_words: tuple[int, int]


SIZES = {
    "full": Size(
        slash_entities=250, constrained_entities=125, epochs=2,
        long_entities=8, long_words=(20, 800),
    ),
    "tiny": Size(
        slash_entities=24, constrained_entities=24, epochs=1,
        long_entities=6, long_words=(20, 300),
    ),
}


@dataclass(frozen=True)
class Inputs:
    """What one set-up produces: the run config plus facts the output checks
    compare against."""

    config: RunConfig
    pairs: dict[str, int]          # split -> pair count in the generated files
    test_positives: int
    checkpoint: Path | None        # scoring workloads: the untrained checkpoint


def _desk(data_dir: Path, out_dir: Path, **overrides) -> RunConfig:
    values = {**DESK_PROFILE, "seed": MODEL_SEED, **overrides}
    return RunConfig(data_dir=str(data_dir), out_dir=str(out_dir), **values)


def _counts(dataset, splits=("train", "valid", "test")) -> dict[str, int]:
    return {s: len(dataset.splits[s]) for s in splits}


def _template_inputs(work: Path, seed: int, size: Size, mode: str) -> Inputs:
    constrained = mode == "constrained"
    spec = SyntheticSpec(
        entities=size.constrained_entities if constrained else size.slash_entities,
        ambiguity=2,
        extra_columns=3 if constrained else 0, match_rate=0.5,
        train_frac=0.8, valid_frac=0.0,
    )
    dataset = generate_synthetic(spec, seed=seed)
    data_dir = work / "data"
    write_synthetic(dataset, data_dir)
    config = _desk(
        data_dir, work / "run", prompt_mode=mode,
        annotations=str(data_dir / "gold_annotations.jsonl"),
        epochs=size.epochs,
    )
    return Inputs(
        config=config,
        pairs=_counts(dataset),
        test_positives=dataset.splits["test"].positives,
        checkpoint=None,
    )


def slash_inputs(work: Path, seed: int, size: Size) -> Inputs:
    return _template_inputs(work, seed, size, "slash")


def constrained_inputs(work: Path, seed: int, size: Size) -> Inputs:
    return _template_inputs(work, seed, size, "constrained")


def _description(rng: random.Random, surfaces: list[str], n_words: int) -> str:
    """Free text of ``n_words`` words with entity surfaces sprinkled in."""
    words: list[str] = []
    while len(words) < n_words:
        if rng.random() < 0.05:
            words.extend(rng.choice(surfaces).split())
        else:
            words.append(rng.choice(_FILLER))
    return " ".join(words)


def _spread_lengths(rng: random.Random, n: int, lo: int, hi: int) -> list[int]:
    """``n`` lengths evenly spaced over ``lo..hi``, in seeded order."""
    lengths = [lo + (hi - lo) * i // max(1, n - 1) for i in range(n)]
    rng.shuffle(lengths)
    return lengths


def long_cells_inputs(work: Path, seed: int, size: Size) -> Inputs:
    """All pairs are test pairs; each row carries a long ``description``.

    Writes a gazetteer of the entity surfaces and an untrained checkpoint
    whose vocabulary matches what ``run_prepare`` builds from these files.
    """
    spec = SyntheticSpec(
        entities=size.long_entities, ambiguity=2, extra_columns=0,
        match_rate=0.5, train_frac=0.0, valid_frac=0.0,
    )
    dataset = generate_synthetic(spec, seed=seed)
    gazetteer: dict[str, str] = {}
    for mention in dataset.annotations.all_mentions():
        gazetteer.setdefault(mention.surface, mention.entity_type)
    surfaces = sorted(gazetteer)

    # Entities sharing a name share a description length, in both tables.
    # Every pair joins two same-name rows, so each seed gets the same mix of
    # pair lengths, and truncation work does not swing with the seed.
    rng = random.Random(seed * 7_919 + 1)
    names = sorted({rec.value("name") for rec in dataset.left.rows})
    length = dict(zip(names, _spread_lengths(rng, len(names), *size.long_words)))
    tables = []
    for table in (dataset.left, dataset.right):
        rows = tuple(
            Record(
                rec.entry_id,
                rec.columns
                + (("description", _description(rng, surfaces, length[rec.value("name")])),),
            )
            for rec in table.rows
        )
        tables.append(Table(table.name, table.schema + ("description",), rows))

    data_dir = work / "data"
    data_dir.mkdir(parents=True, exist_ok=True)
    for table in tables:
        write_table(table, data_dir / f"{table.name}.csv")
    write_pairs(dataset.splits["test"], data_dir / "test.csv")
    gaz_path = work / "gazetteer.tsv"
    gaz_path.write_text(
        "".join(f"{s}\t{gazetteer[s]}\n" for s in surfaces), encoding="utf-8"
    )

    config = _desk(
        data_dir, work / "run", prompt_mode="slash", use_rule_typer=True,
        gazetteer=str(gaz_path), max_len=512,
    )
    # Every gazetteer surface is some row's name, so linking finds every
    # label; rule-typer labels are always in the vocabulary.
    tokenizer = build_vocab(
        tables, min_count=config.min_count, extra_labels=sorted(set(gazetteer.values()))
    )
    enc_config = EncoderConfig(
        vocab_size=len(tokenizer), d_model=config.d_model, n_heads=config.n_heads,
        n_layers=config.n_layers, d_ff=config.d_ff, max_position=config.max_len,
        dropout_rate=config.dropout, seed=config.seed, use_segments=config.use_segments,
    )
    checkpoint = work / "untrained.bin"
    save_checkpoint(
        checkpoint, init_params(enc_config), enc_config, config.seed,
        vocab_hash=tokenizer.vocab_hash,
    )
    return Inputs(
        config=config,
        pairs=_counts(dataset, ("test",)),
        test_positives=dataset.splits["test"].positives,
        checkpoint=checkpoint,
    )


@dataclass(frozen=True)
class Workload:
    """One workload; why each was chosen is in ``BENCHMARK.json``."""

    name: str
    make_inputs: object   # (work_dir, seed, Size) -> Inputs
    trains: bool
    step_sample: int      # pairs in the step-split sample batch
    step_repeats: int     # timings per encoder call in the step split


WORKLOADS = {
    w.name: w
    for w in (
        Workload("slash_train", slash_inputs, trains=True, step_sample=16, step_repeats=7),
        Workload(
            "constrained_train", constrained_inputs, trains=True, step_sample=16, step_repeats=7
        ),
        # Forward passes at L=512 take about a second per 16 pairs, so the
        # step split uses two pairs.
        Workload(
            "long_cells_score", long_cells_inputs, trains=False, step_sample=2, step_repeats=5
        ),
    )
}
