import pytest

from knowmatch.errors import DomainError, FormatError
from knowmatch.knowledge import ingest_annotations
from knowmatch.synth import SyntheticSpec, generate_synthetic, write_synthetic
from knowmatch.tabular import load_pairs, load_table
from knowmatch.text import tokenize


class TestGenerate:
    def test_label_balance_within_one_pair(self):
        dataset = generate_synthetic(SyntheticSpec(entities=50, match_rate=0.5), seed=3)
        pairs = dataset.all_pairs
        positives = sum(p.label for p in pairs)
        assert abs(positives - round(0.5 * len(pairs))) <= 1

    def test_other_match_rates(self):
        for rate in (0.25, 0.75):
            dataset = generate_synthetic(
                SyntheticSpec(entities=40, match_rate=rate), seed=5
            )
            pairs = dataset.all_pairs
            positives = sum(p.label for p in pairs)
            assert abs(positives - round(rate * len(pairs))) <= 1

    def test_zero_perturbation_matched_pairs_identical(self):
        dataset = generate_synthetic(
            SyntheticSpec(entities=30, perturbation=0.0), seed=1
        )
        for pair in dataset.all_pairs:
            if pair.label == 1:
                left = dataset.left.row(pair.left_id)
                right = dataset.right.row(pair.right_id)
                assert left.values == right.values

    def test_fixed_seed_reproducible(self):
        spec = SyntheticSpec(entities=25, perturbation=0.3)
        first = generate_synthetic(spec, seed=9)
        second = generate_synthetic(spec, seed=9)
        assert first.left == second.left
        assert first.right == second.right
        assert first.splits == second.splits

    def test_zero_entities_rejected(self):
        with pytest.raises(DomainError):
            SyntheticSpec(entities=0)

    def test_fractional_entities_rejected(self):
        with pytest.raises(FormatError, match="key entities must be int"):
            SyntheticSpec(entities=2.5)

    @pytest.mark.parametrize(
        "key", ["match_rate", "perturbation", "train_frac", "valid_frac"]
    )
    @pytest.mark.parametrize(
        "value", [-0.1, 1.5, float("nan"), float("inf"), float("-inf")]
    )
    def test_float_out_of_range_or_not_finite_rejected(self, key, value):
        with pytest.raises(DomainError, match=key):
            SyntheticSpec(**{key: value})

    def test_split_fractions_summing_past_one_rejected(self):
        with pytest.raises(DomainError, match="sum"):
            SyntheticSpec(train_frac=0.7, valid_frac=0.4)

    def test_all_positive_match_rate(self):
        dataset = generate_synthetic(SyntheticSpec(entities=20, match_rate=1.0), seed=4)
        assert len(dataset.all_pairs) == 20
        assert all(p.label == 1 for p in dataset.all_pairs)

    def test_same_surface_entities_get_distinct_categories(self):
        dataset = generate_synthetic(SyntheticSpec(entities=40, ambiguity=2), seed=2)
        store = dataset.annotations
        # Group gold mention types by surface name on the left table.
        by_name: dict[str, set[str]] = {}
        for rec in dataset.left.rows:
            mention = store.mentions_for("tableA", rec.entry_id, "name")[0]
            by_name.setdefault(rec.value("name"), set()).add(mention.entity_type)
        assert all(len(types) == 2 for types in by_name.values())

    def test_hard_negatives_share_surface(self):
        dataset = generate_synthetic(
            SyntheticSpec(entities=40, ambiguity=2, match_rate=0.5), seed=4
        )
        for pair in dataset.all_pairs:
            left = dataset.left.row(pair.left_id).value("name")
            right = dataset.right.row(pair.right_id).value("name")
            assert left == right  # negatives are all same-name look-alikes

    def test_gold_mentions_valid_spans(self):
        dataset = generate_synthetic(
            SyntheticSpec(entities=30, perturbation=0.5), seed=6
        )
        for table in (dataset.left, dataset.right):
            for rec in table.rows:
                tokens = tokenize(rec.value("name"))
                mentions = dataset.annotations.mentions_for(table.name, rec.entry_id, "name")
                assert len(mentions) == 1
                m = mentions[0]
                assert 0 <= m.start < m.end <= len(tokens)
                assert m.surface == " ".join(tokens[m.start : m.end])

    def test_split_sizes(self):
        spec = SyntheticSpec(entities=250, ambiguity=2, train_frac=0.8, valid_frac=0.0)
        dataset = generate_synthetic(spec, seed=7)
        assert len(dataset.splits["train"]) == 400
        assert len(dataset.splits["valid"]) == 0
        assert len(dataset.splits["test"]) == 100


class TestWrite:
    def test_written_layout_loads_back(self, tmp_path):
        dataset = generate_synthetic(SyntheticSpec(entities=20), seed=8)
        write_synthetic(dataset, tmp_path)
        left = load_table(tmp_path / "tableA.csv")
        right = load_table(tmp_path / "tableB.csv")
        assert left == dataset.left
        assert right == dataset.right
        train = load_pairs(tmp_path / "train.csv", left, right)
        assert train == dataset.splits["train"]
        store = ingest_annotations(tmp_path / "gold_annotations.jsonl")
        assert store.counts() == dataset.annotations.counts()
