import dataclasses
import hashlib
import json
import shutil
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from knowmatch import blas, cli, encoder, harness, injection
from knowmatch.encoder import forward, init_params, load_checkpoint, save_checkpoint
from knowmatch.errors import (
    DegenerateError,
    DomainError,
    FormatError,
    IncompatibleArtifactsError,
    OverlapError,
    SequenceOverflowError,
)
from knowmatch.harness import (
    DESK_PROFILE,
    PROFILES,
    Metrics,
    RunConfig,
    _line_to_sequence,
    build_annotations,
    compare,
    evaluate,
    resolve_config,
    run_prepare,
    run_train,
)
from knowmatch.injection import assemble
from knowmatch.knowledge import (
    AnnotationStore,
    DITTO_MODES,
    Gazetteer,
    ditto_inject,
    infer_column_types,
    ingest_annotations,
    link_entities,
)
from knowmatch.serializer import (
    PromptMode,
    build_vocab,
    pair_to_json,
    read_batch_file,
    serialize_pair,
)
from knowmatch.synth import SyntheticSpec, generate_synthetic, write_synthetic
from knowmatch.tabular import load_pairs, load_table
from knowmatch.text import Tokenizer, tokenize

from conftest import reference_flat_layout, reference_scatter_rows, reference_train_step


@pytest.fixture(scope="module")
def small_dataset(tmp_path_factory):
    data_dir = tmp_path_factory.mktemp("data")
    spec = SyntheticSpec(entities=16, ambiguity=2, extra_columns=1, train_frac=0.7, valid_frac=0.1)
    write_synthetic(generate_synthetic(spec, seed=5), data_dir)
    return data_dir


def desk_config(data_dir, out_dir, **kwargs):
    values = dict(DESK_PROFILE)
    values.update(epochs=2, batch_size=8)
    values.update(kwargs)
    return RunConfig(data_dir=str(data_dir), out_dir=str(out_dir), **values)


# Surfaces of the small dataset's cells, for the rule-typer-and-gazetteer
# config.
GAZETTEER = "little bridge\tLOC\ndelta\tLOC\nember\tPRODUCT\ntender forest\tORG\nswift\tPERSON\n"
# Per mode, a max_len that cuts pairs of that config: 4 of 32 in space mode,
# all 32 in slash mode. A cut constrained trunk fills max_len and keeps its
# column-type branches, so it always overflows; constrained gets the least
# max_len its pairs fit in.
TRUNCATING_MAX_LEN = {"space": 30, "slash": 30, "constrained": 33}


def gazetteer_config(data_dir, tmp_path, mode):
    """Rule typer, ``GAZETTEER`` and the mode's ``TRUNCATING_MAX_LEN``."""
    gaz = tmp_path / "gaz.tsv"
    gaz.write_text(GAZETTEER, encoding="utf-8")
    return desk_config(
        data_dir, tmp_path / "out", prompt_mode=mode, use_rule_typer=True,
        gazetteer=str(gaz), max_len=TRUNCATING_MAX_LEN[mode],
    )


def unmemoized_prepare(config):
    """The vocabulary and each split's batch lines that ``run_prepare``
    should write, from the public calls made pair by pair with no memo."""
    data_dir = Path(config.data_dir)
    left = load_table(data_dir / "tableA.csv")
    right = load_table(data_dir / "tableB.csv")
    store = build_annotations((left, right), config)
    tokenizer = build_vocab(
        [left, right], min_count=config.min_count, extra_labels=store.type_labels()
    )
    lines = {}
    for split in ("train", "valid", "test"):
        pairs = load_pairs(data_dir / f"{split}.csv", left, right, split=split).pairs
        lines[split] = [
            pair_to_json(serialize_pair(
                left.row(pair.left_id), right.row(pair.right_id), store, config.mode,
                tokenizer, config.max_len, label=pair.label,
                left_table=left.name, right_table=right.name,
            ))
            for pair in pairs
        ]
    return tokenizer, lines


def prepared_lines(out_dir):
    return {
        split: read_batch_file(Path(out_dir) / "batches" / f"{split}.jsonl")
        for split in ("train", "valid", "test")
    }


class TestMetrics:
    def test_hand_confusion_matrix(self):
        # tp=2, fp=1, fn=1 -> P = R = F1 = 2/3.
        metrics = Metrics.from_predictions([1, 1, 1, 0, 0], [1, 1, 0, 1, 0])
        assert metrics.tp == 2 and metrics.fp == 1 and metrics.fn == 1
        assert metrics.precision == pytest.approx(2 / 3, abs=1e-9)
        assert metrics.recall == pytest.approx(2 / 3, abs=1e-9)
        assert metrics.f1 == pytest.approx(2 / 3, abs=1e-9)
        assert metrics.per_example_correct == (1, 1, 0, 0, 1)

    def test_perfect(self):
        metrics = Metrics.from_predictions([1, 0, 1], [1, 0, 1])
        assert metrics.f1 == 1.0
        assert metrics.per_example_correct == (1, 1, 1)

    def test_zero_denominators(self):
        metrics = Metrics.from_predictions([0, 0], [0, 0])
        assert metrics.precision == 0.0
        assert metrics.recall == 0.0
        assert metrics.f1 == 0.0


class TestResolveConfig:
    def test_defaults_are_full_scale(self):
        config = resolve_config(env={})
        assert config.batch_size == 64
        assert config.epochs == 20
        assert config.lr == pytest.approx(3e-5)
        assert config.max_len == 512

    def test_desk_profile(self):
        config = resolve_config(profile="desk", env={})
        assert config.batch_size == 16
        assert config.epochs == 10
        assert config.lr == pytest.approx(1e-3)
        assert config.max_len == 128

    @pytest.mark.parametrize("spelling", ["General", "GENERAL", "general"])
    def test_ditto_mode_stored_lowercase(self, spelling):
        assert RunConfig(ditto_mode=spelling).ditto_mode == "general"

    @pytest.mark.parametrize(
        "mode", ["off", "general", "product", "Off", "PRODUCT", "both", "ner", ""]
    )
    def test_ditto_modes_are_off_and_the_table(self, mode):
        if mode.lower() in ("off", *DITTO_MODES):
            assert RunConfig(ditto_mode=mode).ditto_mode == mode.lower()
        else:
            with pytest.raises(DomainError, match="ditto_mode"):
                RunConfig(ditto_mode=mode)

    def test_precedence_config_env_flag(self):
        config = resolve_config({"seed": 1}, env={})
        assert config.seed == 1
        config = resolve_config({"seed": 1}, env={"KAER_SEED": "2"})
        assert config.seed == 2
        config = resolve_config({"seed": 1}, {"seed": 3}, env={"KAER_SEED": "2"})
        assert config.seed == 3

    def test_file_overrides_profile(self):
        config = resolve_config({"epochs": 4}, profile="desk", env={})
        assert config.epochs == 4
        assert config.batch_size == 16

    def test_unknown_key_rejected(self):
        with pytest.raises(FormatError):
            resolve_config({"lerning_rate": 1}, env={})

    def test_unknown_flag_key_rejected(self):
        with pytest.raises(FormatError, match="lerning_rate"):
            resolve_config(overrides={"lerning_rate": 1}, env={})

    def test_unknown_profile_rejected(self):
        with pytest.raises(DomainError, match="unknown profile 'nope'"):
            resolve_config(profile="nope", env={})

    def test_profiles_are_full_and_desk(self):
        assert PROFILES == {"full": {}, "desk": DESK_PROFILE}
        assert resolve_config(profile="full", env={}) == resolve_config(env={})

    def test_bad_env_seed(self):
        with pytest.raises(FormatError):
            resolve_config(env={"KAER_SEED": "abc"})

    def test_invalid_mode_rejected(self):
        with pytest.raises(DomainError):
            RunConfig(prompt_mode="dash")

    def test_multithreading_not_supported(self):
        with pytest.raises(DomainError):
            RunConfig(threads=4)

    @pytest.mark.parametrize(
        "values, error",
        [
            ({"batch_size": 0}, DomainError),
            ({"batch_size": -1}, DomainError),
            ({"epochs": -3}, DomainError),
            ({"n_heads": 0}, DomainError),
            ({"d_model": 0}, DomainError),
            ({"d_ff": 0}, DomainError),
            ({"n_layers": -1}, DomainError),
            ({"min_count": 0}, DomainError),
            ({"max_len": 7}, DomainError),
            ({"seed": -1}, DomainError),
            ({"dropout": -0.5}, DomainError),
            ({"dropout": 1.0}, DomainError),
            ({"lr": -1.0}, DomainError),
            ({"lr": 0}, DomainError),
            ({"lr": float("nan")}, DomainError),
            ({"lr": float("inf")}, DomainError),
            ({"batch_size": "16"}, FormatError),
            ({"batch_size": 16.0}, FormatError),
            ({"epochs": True}, FormatError),
            ({"lr": "1e-3"}, FormatError),
            ({"prompt_mode": 3}, FormatError),
            ({"use_segments": "no"}, FormatError),
            ({"use_segments": 1}, FormatError),
            ({"gazetteer": 5}, FormatError),
            ({"data_dir": None}, FormatError),
            ({"d_model": 10, "n_heads": 3}, DomainError),
            ({"lr": float("-inf")}, DomainError),
            ({"dropout": float("nan")}, DomainError),
            ({"dropout": float("inf")}, DomainError),
            ({"dropout": float("-inf")}, DomainError),
            ({"threads": 0}, DomainError),
        ],
    )
    def test_bad_value_rejected(self, values, error):
        with pytest.raises(error):
            resolve_config(values, env={})

    def test_edge_values_accepted(self):
        config = resolve_config(
            {"epochs": 0, "n_layers": 0, "seed": 0, "dropout": 0, "lr": 1, "max_len": 8},
            env={},
        )
        assert (config.epochs, config.n_layers, config.lr) == (0, 0, 1)


class TestPrepare:
    def test_manifest_and_batches(self, small_dataset, tmp_path):
        config = desk_config(small_dataset, tmp_path / "out")
        manifest = run_prepare(config)
        assert set(manifest["splits"]) == {"train", "valid", "test"}
        assert (tmp_path / "out" / "vocab.tsv").exists()
        lines = read_batch_file(tmp_path / "out" / "batches" / "train.jsonl")
        assert len(lines) == manifest["splits"]["train"]
        assert all(len(l["tokens"]) == len(l["segments"]) for l in lines)

    def test_slash_mode_injects_slash_tokens(self, small_dataset, tmp_path):
        config = desk_config(
            small_dataset, tmp_path / "out", prompt_mode="slash",
            annotations=str(small_dataset / "gold_annotations.jsonl"),
        )
        run_prepare(config)
        tokenizer = Tokenizer.load(tmp_path / "out" / "vocab.tsv")
        slash_id = tokenizer.vocab["/"]
        lines = read_batch_file(tmp_path / "out" / "batches" / "train.jsonl")
        assert all(slash_id in line["tokens"] for line in lines)

    def test_constrained_mode_extends_lines(self, small_dataset, tmp_path):
        config = desk_config(
            small_dataset, tmp_path / "out", prompt_mode="constrained",
            annotations=str(small_dataset / "gold_annotations.jsonl"),
        )
        run_prepare(config)
        lines = read_batch_file(tmp_path / "out" / "batches" / "test.jsonl")
        for line in lines:
            assert set(line) == {"tokens", "segments", "sites", "label"}
            assert len(line["segments"]) == len(line["tokens"])
            assert line["sites"]

    def test_constrained_lines_expand_like_assemble(self, small_dataset, tmp_path):
        # The stored trunk and sites decode to exactly the injected sequence
        # that assemble builds from the serialized pair.
        out = tmp_path / "out"
        config = desk_config(
            small_dataset, out, prompt_mode="constrained",
            annotations=str(small_dataset / "gold_annotations.jsonl"),
        )
        manifest = run_prepare(config)
        left = load_table(small_dataset / "tableA.csv")
        right = load_table(small_dataset / "tableB.csv")
        store = build_annotations((left, right), config)
        tokenizer = Tokenizer.load(out / "vocab.tsv")
        checked = 0
        for split in manifest["splits"]:
            pairs = load_pairs(small_dataset / f"{split}.csv", left, right, split=split).pairs
            lines = read_batch_file(out / "batches" / f"{split}.jsonl")
            assert len(lines) == len(pairs)
            for pair, line in zip(pairs, lines):
                seq = serialize_pair(
                    left.row(pair.left_id), right.row(pair.right_id), store,
                    PromptMode.CONSTRAINED, tokenizer, config.max_len,
                    label=pair.label, left_table=left.name, right_table=right.name,
                )
                inj = assemble(seq, config.max_len)
                tokens, soft, segments, visible, label = _line_to_sequence(line)
                assert tuple(tokens) == inj.tokens
                assert tuple(soft) == inj.soft_positions
                assert tuple(segments) == inj.segments
                assert visible.dtype == inj.visible.dtype
                np.testing.assert_array_equal(visible, inj.visible)
                assert label == pair.label
                checked += 1
        assert checked == sum(manifest["splits"].values()) > 0

    def test_rerun_byte_identical(self, small_dataset, tmp_path):
        config = desk_config(
            small_dataset, tmp_path / "out",
            annotations=str(small_dataset / "gold_annotations.jsonl"),
        )
        run_prepare(config)
        first = {
            p.name: p.read_bytes()
            for p in (tmp_path / "out" / "batches").iterdir()
        }
        first["manifest"] = (tmp_path / "out" / "manifest.json").read_bytes()
        run_prepare(config)
        second = {
            p.name: p.read_bytes()
            for p in (tmp_path / "out" / "batches").iterdir()
        }
        second["manifest"] = (tmp_path / "out" / "manifest.json").read_bytes()
        assert first == second

    # sha256 of the prepared artifacts for the gold-annotation config. A
    # refactor that should keep behaviour must keep these bytes; an intended
    # format change updates them openly. manifest.json is left out because it
    # records the absolute annotation path.
    GOLDEN_VOCAB = "7c513e02c15371c967aa4180e6d917c694dee8af3e02b2abb536d9c355c04c9d"
    GOLDEN_BATCHES = {
        "space": {
            "test.jsonl": "37e1e8b703c0329c84f197ad2bbab263e1194a8973de1809c8448e0e2bea9a2e",
            "train.jsonl": "12d6833d445ae4f6809d7e46ccb176349cfebeda7ad70f9fdc1cc096a997a9e3",
            "valid.jsonl": "c0bab5e13ce9eb0cfc1cef64dacea1757922d93335fafb9651fa6f10994bd623",
        },
        "slash": {
            "test.jsonl": "d1783da20ad67c4f5ad48ddb8cc117e67427923e3ecaeb50f57d51fe7a07f5af",
            "train.jsonl": "089a147a6b3fb8f487880a1831af5ec479d7e6457a22f6794649f5cc56bcbfb3",
            "valid.jsonl": "cabdef7523b6e9c1861933e9dedae7321ed42e29d7f55fe740df0656f1d36c9a",
        },
        "constrained": {
            "test.jsonl": "bd62b7d5065acf4199dc300932db2b673898fa4a4c1f0d270c487a87597de505",
            "train.jsonl": "0dcb9c38c001eaa6b6e9efa8de17635e7a7915736acdd01dd02911989e612729",
            "valid.jsonl": "220d02bc2f4d27d970469a2a706018d931670132b66ab95fe75b7853f9a2fdd1",
        },
    }

    @pytest.mark.parametrize("mode", ["space", "slash", "constrained"])
    def test_golden_bytes(self, small_dataset, tmp_path, mode):
        out = tmp_path / "out"
        config = desk_config(
            small_dataset, out, prompt_mode=mode,
            annotations=str(small_dataset / "gold_annotations.jsonl"),
        )
        run_prepare(config)

        def sha(path):
            return hashlib.sha256(path.read_bytes()).hexdigest()

        assert sha(out / "vocab.tsv") == self.GOLDEN_VOCAB
        assert {
            p.name: sha(p) for p in (out / "batches").glob("*.jsonl")
        } == self.GOLDEN_BATCHES[mode]

    # The same for the rule typer, a gazetteer and truncation, the inputs
    # that the per-call tokenization and serialization memos see most of.
    # Computed before those memos were added.
    GOLDEN_GAZETTEER_VOCAB = "a4a8de529bc0e58aa5c5ee706c7d9a44e597b708b88890e1bcf9ca394279447c"
    GOLDEN_GAZETTEER_BATCHES = {
        "space": {
            "test.jsonl": "9dcde1454a1d634f6213cc16b63250bf7585a486cb9e53c33fc071c7c7d58f0b",
            "train.jsonl": "9e86e28a16b1b5acb35a3874f82801b0ad7156638f0a924e125789f29920a1d5",
            "valid.jsonl": "bb3bcf757930029085fc72e17d9a2679569b4c0ada13ec271ed3d7a0205dcb14",
        },
        "slash": {
            "test.jsonl": "cce97c6a128e21391ffaf3cdb5bc6e6c858b58d16a55523bd99288718251f777",
            "train.jsonl": "d5a75581a58788a3338d321f5baac39e05423d61891d6a367f1460a134fcb92e",
            "valid.jsonl": "2f2bd74e46ff70621cfe8a5d7a64c48d7b5cfd941e88868cd8b18c6cad17c794",
        },
        "constrained": {
            "test.jsonl": "fd23a008f68a35d1735d9af74a91ccfc03293264a04e71810601326c6827f503",
            "train.jsonl": "fa3866ce7542cea7dea7ac1f51ade374565086ac448f8434c14c9e6d464c09d7",
            "valid.jsonl": "c51ca5970ee04e716fe1ef45d4f0bccdfd935cdc26e97cc2978ebc893803ba4f",
        },
    }

    @pytest.mark.parametrize("mode", ["space", "slash", "constrained"])
    def test_golden_bytes_rule_typer_gazetteer_truncation(self, small_dataset, tmp_path, mode):
        config = gazetteer_config(small_dataset, tmp_path, mode)
        run_prepare(config)
        out = Path(config.out_dir)

        def sha(path):
            return hashlib.sha256(path.read_bytes()).hexdigest()

        assert sha(out / "vocab.tsv") == self.GOLDEN_GAZETTEER_VOCAB
        assert {
            p.name: sha(p) for p in (out / "batches").glob("*.jsonl")
        } == self.GOLDEN_GAZETTEER_BATCHES[mode]

    @pytest.mark.parametrize("mode", ["space", "slash", "constrained"])
    @pytest.mark.parametrize("source", ["gold", "rule_typer_gazetteer"])
    def test_batch_lines_equal_unmemoized_serialization(
        self, small_dataset, tmp_path, mode, source
    ):
        if source == "gold":
            config = desk_config(
                small_dataset, tmp_path / "out", prompt_mode=mode,
                annotations=str(small_dataset / "gold_annotations.jsonl"),
            )
        else:
            config = gazetteer_config(small_dataset, tmp_path, mode)
        run_prepare(config)
        tokenizer, lines = unmemoized_prepare(config)
        assert Tokenizer.load(tmp_path / "out" / "vocab.tsv").vocab == tokenizer.vocab
        assert prepared_lines(config.out_dir) == lines

    def test_prepare_tokenizes_each_text_and_serializes_each_record_once(
        self, small_dataset, tmp_path, monkeypatch
    ):
        import knowmatch.serializer as serializer_module
        import knowmatch.text as text_module

        texts, records = Counter(), Counter()
        real_tokenize, real_entry = text_module.tokenize, serializer_module.serialize_entry

        def counting_tokenize(text):
            texts[text] += 1
            return real_tokenize(text)

        def counting_entry(record, *args, table, **kwargs):
            records[(table, record.entry_id)] += 1
            return real_entry(record, *args, table=table, **kwargs)

        monkeypatch.setattr(text_module, "tokenize", counting_tokenize)
        monkeypatch.setattr(serializer_module, "serialize_entry", counting_entry)
        run_prepare(gazetteer_config(small_dataset, tmp_path, "constrained"))

        left = load_table(small_dataset / "tableA.csv")
        right = load_table(small_dataset / "tableB.csv")
        cells = {value for t in (left, right) for rec in t.rows for _, value in rec.columns}
        assert cells <= set(texts)
        assert max(texts.values()) == 1
        used = set()
        for split in ("train", "valid", "test"):
            for pair in load_pairs(small_dataset / f"{split}.csv", left, right).pairs:
                used.update({(left.name, pair.left_id), (right.name, pair.right_id)})
        assert set(records) == used
        assert max(records.values()) == 1

    def test_no_memo_outlives_a_prepare_call(self, small_dataset, tmp_path):
        data = tmp_path / "data"
        shutil.copytree(small_dataset, data)
        config = gazetteer_config(data, tmp_path, "slash")
        run_prepare(config)
        first = prepared_lines(config.out_dir)

        table = data / "tableA.csv"
        text = table.read_text(encoding="utf-8")
        edited = text.replace("\n0,little bridge,", "\n0,quiet zephyr,")
        assert edited != text
        table.write_text(edited, encoding="utf-8")
        run_prepare(config)
        tokenizer, lines = unmemoized_prepare(config)
        assert Tokenizer.load(tmp_path / "out" / "vocab.tsv").vocab == tokenizer.vocab
        assert prepared_lines(config.out_dir) == lines != first

    def test_missing_table_raises(self, tmp_path):
        config = desk_config(tmp_path / "nowhere", tmp_path / "out")
        with pytest.raises(FileNotFoundError):
            run_prepare(config)

    def test_rule_typer_and_gazetteer_sources(self, small_dataset, tmp_path):
        gaz_path = tmp_path / "gaz.tsv"
        gaz_path.write_text("amber fox\tPRODUCT\n", encoding="utf-8")
        config = desk_config(
            small_dataset, tmp_path / "out", use_rule_typer=True,
            gazetteer=str(gaz_path),
        )
        manifest = run_prepare(config)
        assert manifest["annotations"]["column_types"] > 0

    def test_ditto_product_mode(self, small_dataset, tmp_path):
        left = load_table(small_dataset / "tableA.csv")
        right = load_table(small_dataset / "tableB.csv")
        row_id = load_pairs(small_dataset / "train.csv", left, right).pairs[0].left_id
        record = left.row(row_id)
        anns = [{
            "kind": "column_type", "table": left.name, "column": "name",
            "type": "name", "confidence": 1.0,
        }]
        # Two one-token mentions in each of two cells: ORG and artist are not
        # Product-source types, GPE and PERSON are.
        for column, types in (("name", ("ORG", "GPE")), ("info1", ("PERSON", "artist"))):
            words = tokenize(record.value(column))
            assert len(words) >= 2
            for start, label in enumerate(types):
                anns.append({
                    "kind": "mention", "table": left.name, "row": row_id,
                    "column": column, "start": start, "end": start + 1,
                    "surface": words[start], "type": label,
                })
        ann_path = tmp_path / "anns.jsonl"
        ann_path.write_text("".join(json.dumps(a) + "\n" for a in anns), encoding="utf-8")

        out = tmp_path / "out"
        config = desk_config(
            small_dataset, out, prompt_mode="constrained",
            annotations=str(ann_path), ditto_mode="product",
        )
        manifest = run_prepare(config)
        assert manifest["annotations"]["column_types"] == 1
        assert manifest["annotations"]["mentions"] == 2
        tokenizer = Tokenizer.load(out / "vocab.tsv")
        sites = [
            site
            for line in read_batch_file(out / "batches" / "train.jsonl")
            for site in line["sites"]
        ]
        entity_labels = [tokenizer.decode(s["know"]) for s in sites if s["kind"] == "entity"]
        column_labels = [tokenizer.decode(s["know"]) for s in sites if s["kind"] == "column"]
        assert entity_labels and all(label == ["product"] for label in entity_labels)
        assert column_labels and all(label == ["name"] for label in column_labels)

    def test_ditto_mode_spellings_write_the_same_bytes(self, small_dataset, tmp_path):
        annotations = str(small_dataset / "gold_annotations.jsonl")
        outs = [tmp_path / "upper", tmp_path / "lower"]
        for out, spelling in zip(outs, ("General", "general")):
            run_prepare(
                desk_config(small_dataset, out, annotations=annotations, ditto_mode=spelling)
            )
        names = ["manifest.json", "vocab.tsv"] + [
            f"batches/{split}.jsonl" for split in ("train", "valid", "test")
        ]
        for name in names:
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name


class TestBuildAnnotations:
    @staticmethod
    def three_store_build(tables, rule_typer, gazetteer, annotations, ditto_mode):
        """``build_annotations`` as it was with three stores: rule typer, then
        gazetteer, then the file's store merged in (its column types
        override), then a filtered copy for Ditto."""
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
            other = ingest_annotations(annotations)
            for ann in other.all_column_types():
                store.add_column_type(ann)
            for mention in other.all_mentions():
                store.add_mention(mention)
        if ditto_mode.lower() == "off":
            return store
        filtered = AnnotationStore()
        for ann in store.all_column_types():
            filtered.add_column_type(ann)
        for mention in ditto_inject(store.all_mentions(), ditto_mode):
            filtered.add_mention(mention)
        return filtered

    @staticmethod
    def annotation_file(data_dir, tables, gaz_path, path):
        """The gold mentions that no ``GAZETTEER`` mention overlaps, relabelled
        so that each Ditto mode keeps some and drops some, plus one column type
        that the rule typer never predicts."""
        gaz = Gazetteer.from_file(gaz_path)
        linked = {}
        for table in tables:
            for m in link_entities(table, gaz):
                linked.setdefault((m.table, m.row, m.column), []).append((m.start, m.end))
        left = tables[0]
        anns = [{
            "kind": "column_type", "table": left.name, "column": left.schema[0],
            "type": "person_name", "confidence": 0.5,
        }]
        labels = ("ORG", "GPE", "PERSON", "artist")
        for line in (data_dir / "gold_annotations.jsonl").read_text().splitlines():
            obj = json.loads(line)
            spans = linked.get((obj["table"], obj.get("row"), obj["column"]), ())
            if obj["kind"] == "mention" and all(
                obj["end"] <= start or end <= obj["start"] for start, end in spans
            ):
                anns.append(dict(obj, type=labels[len(anns) % len(labels)]))
        path.write_text("".join(json.dumps(a) + "\n" for a in anns), encoding="utf-8")
        return len(anns) - 1

    @pytest.mark.parametrize("ditto_mode", ["off", "general", "product"])
    @pytest.mark.parametrize("use_file", [False, True])
    @pytest.mark.parametrize("use_gazetteer", [False, True])
    @pytest.mark.parametrize("rule_typer", [False, True])
    def test_same_store_as_three_store_build(
        self, small_dataset, tmp_path, rule_typer, use_gazetteer, use_file, ditto_mode
    ):
        tables = harness.load_tables(small_dataset)
        gaz = tmp_path / "gaz.tsv"
        gaz.write_text(GAZETTEER, encoding="utf-8")
        ann_path = tmp_path / "anns.jsonl"
        assert self.annotation_file(small_dataset, tables, gaz, ann_path) >= 4
        gazetteer = str(gaz) if use_gazetteer else None
        annotations = str(ann_path) if use_file else None
        config = RunConfig(
            use_rule_typer=rule_typer, gazetteer=gazetteer, annotations=annotations,
            ditto_mode=ditto_mode,
        )
        store = build_annotations(tables, config)
        oracle = self.three_store_build(tables, rule_typer, gazetteer, annotations, ditto_mode)
        assert store.all_column_types() == oracle.all_column_types()
        assert store.all_mentions() == oracle.all_mentions()
        assert store.counts() == oracle.counts()

    def test_each_file_mention_added_once(self, small_dataset, monkeypatch):
        path = small_dataset / "gold_annotations.jsonl"
        n_mentions = sum(
            json.loads(line)["kind"] == "mention" for line in path.read_text().splitlines()
        )
        calls = []
        real_add = AnnotationStore.add_mention

        def spy(self, mention):
            calls.append(mention)
            real_add(self, mention)

        monkeypatch.setattr(AnnotationStore, "add_mention", spy)
        tables = harness.load_tables(small_dataset)
        store = build_annotations(tables, RunConfig(annotations=str(path)))
        assert len(calls) == n_mentions == store.counts()["mentions"]

    def test_file_mentions_win_over_gazetteer_hits(self, tmp_path):
        # A gazetteer of the gold surfaces finds the file's own mentions. At
        # ambiguity 1 each surface has one type, so adding it to the gold
        # annotations changes no byte of the prepared batches.
        data_dir = tmp_path / "data"
        write_synthetic(generate_synthetic(SyntheticSpec(entities=16, ambiguity=1), seed=3), data_dir)
        gold = data_dir / "gold_annotations.jsonl"
        mentions = [json.loads(line) for line in gold.read_text().splitlines()]
        gaz = tmp_path / "gaz.tsv"
        gaz.write_text("".join(sorted({
            f"{m['surface']}\t{m['type']}\n" for m in mentions if m["kind"] == "mention"
        })), encoding="utf-8")
        for name, gazetteer in (("gold", None), ("both", str(gaz))):
            run_prepare(desk_config(
                data_dir, tmp_path / name, prompt_mode="constrained",
                annotations=str(gold), gazetteer=gazetteer,
            ))
        files = sorted((tmp_path / "gold" / "batches").iterdir())
        assert files
        for path in files:
            assert path.read_bytes() == (tmp_path / "both" / "batches" / path.name).read_bytes()


class TestBatchLines:
    LINE = {"tokens": [0, 7, 8, 9, 1], "segments": [0, 0, 0, 0, 0], "label": 1}

    def test_line_without_sites_is_fully_visible(self):
        line = dict(self.LINE, sites=[])
        assert _line_to_sequence(line) == (line["tokens"], None, line["segments"], None, 1)

    def test_line_with_sites_is_expanded(self):
        line = dict(self.LINE, sites=[{"head": [2, 3], "know": [40, 41], "kind": "entity"}])
        tokens, soft, segments, visible, label = _line_to_sequence(line)
        assert tokens == (0, 7, 8, 40, 41, 9, 1)
        assert soft == (0, 1, 2, 3, 4, 3, 4)
        assert segments == (0,) * 7
        assert visible[3].tolist() == [0, 0, 1, 1, 1, 0, 0]
        assert label == 1

    def test_line_with_sites_has_bool_mask(self):
        line = dict(self.LINE, sites=[{"head": [2, 3], "know": [40], "kind": "entity"}])
        assert _line_to_sequence(line)[3].dtype == bool

    @pytest.mark.parametrize("key", ["soft_pos", "visible_rows"])
    def test_old_constrained_format_rejected(self, key):
        line = dict(self.LINE, sites=[], **{key: []})
        with pytest.raises(FormatError, match="re-run prepare"):
            _line_to_sequence(line)

    def test_segment_count_mismatch_rejected(self):
        line = dict(self.LINE, segments=[0, 0, 0], sites=[])
        with pytest.raises(FormatError):
            _line_to_sequence(line)

    @pytest.mark.parametrize(
        "head, error",
        [
            ([3, 9], DomainError),
            ([-1, 2], DomainError),
            ([2], FormatError),
            (["a", 2], FormatError),
            ([1.5, 3], FormatError),
            ([1, 3.0], FormatError),
            ([True, 3], FormatError),
            (None, FormatError),
        ],
    )
    def test_bad_site_head_rejected(self, head, error):
        line = dict(self.LINE, sites=[{"head": head, "know": [40], "kind": "entity"}])
        # Both are KnowmatchErrors, so the CLI exits 2.
        with pytest.raises(error):
            _line_to_sequence(line)

    @pytest.mark.parametrize("label", [None, 2, -1, "1", [1], True, 1.0, 0.0])
    def test_bad_label_rejected(self, label):
        with pytest.raises(FormatError, match="label"):
            _line_to_sequence(dict(self.LINE, sites=[], label=label))

    @pytest.mark.parametrize(
        "change",
        [
            {"tokens": [0, -1, 8, 9, 1]},
            {"tokens": [0, "a", 8, 9, 1]},
            {"tokens": [0, 7.0, 8, 9, 1]},
            {"tokens": [0, True, 8, 9, 1]},
            {"segments": [0, 0, 2, 0, 0]},
            {"segments": [0, -1, 0, 0, 0]},
            {"segments": [0, "0", 0, 0, 0]},
            {"sites": [{"head": [2, 3], "know": [-4], "kind": "entity"}]},
        ],
    )
    def test_bad_token_or_segment_rejected(self, change):
        with pytest.raises(FormatError, match="token ids|segments"):
            _line_to_sequence({**self.LINE, "sites": [], **change})

    def test_missing_label_rejected(self):
        line = {"tokens": self.LINE["tokens"], "segments": self.LINE["segments"], "sites": []}
        with pytest.raises(FormatError, match="label"):
            _line_to_sequence(line)

    @pytest.mark.parametrize("tokens", [[], [7, 8, 9, 1]])
    def test_line_without_leading_cls_rejected(self, tokens):
        line = {"tokens": tokens, "segments": [0] * len(tokens), "sites": [], "label": 1}
        with pytest.raises(FormatError, match=r"start with \[CLS\]"):
            _line_to_sequence(line)

    def test_identical_site_heads_rejected(self):
        site = {"head": [1, 3], "know": [40], "kind": "entity"}
        with pytest.raises(OverlapError):
            _line_to_sequence(dict(self.LINE, sites=[site, site]))

    def test_prepare_rejects_injected_overflow(self, small_dataset, tmp_path):
        # At max_len 20 every trunk fits, but trunk plus branches does not.
        run_prepare(desk_config(small_dataset, tmp_path / "trunk", max_len=20))
        config = desk_config(
            small_dataset, tmp_path / "out", prompt_mode="constrained", max_len=20,
            annotations=str(small_dataset / "gold_annotations.jsonl"),
        )
        with pytest.raises(SequenceOverflowError, match="injected length"):
            run_prepare(config)

    def test_prepare_builds_no_visibility_matrix(self, small_dataset, tmp_path, monkeypatch):
        import knowmatch.injection as injection_module

        def forbidden(*args):
            raise AssertionError("prepare built a visibility matrix")

        monkeypatch.setattr(injection_module, "_visible_matrix", forbidden)
        run_prepare(desk_config(
            small_dataset, tmp_path / "out", prompt_mode="constrained",
            annotations=str(small_dataset / "gold_annotations.jsonl"),
        ))

    def test_prepare_builds_no_injection_tree(self, small_dataset, tmp_path, monkeypatch):
        import knowmatch.injection as injection_module

        def forbidden(self):
            raise AssertionError("prepare built an injection tree")

        monkeypatch.setattr(injection_module.InjectionTree, "__post_init__", forbidden)
        manifest = run_prepare(desk_config(
            small_dataset, tmp_path / "out", prompt_mode="constrained",
            annotations=str(small_dataset / "gold_annotations.jsonl"),
        ))
        assert manifest["prompt_mode"] == "constrained"
        assert any(line["sites"] for line in read_batch_file(tmp_path / "out/batches/train.jsonl"))

    def test_evaluate_rejects_old_format_batches(self, small_dataset, tmp_path):
        config = desk_config(small_dataset, tmp_path / "out", epochs=0)
        run_prepare(config)
        run_train(config)
        path = tmp_path / "out" / "batches" / "test.jsonl"
        lines = read_batch_file(path)
        lines[0]["visible_rows"] = ["1"] * len(lines[0]["tokens"])
        path.write_text("".join(json.dumps(line) + "\n" for line in lines))
        with pytest.raises(FormatError, match="re-run prepare"):
            evaluate(config, "test")

    @pytest.mark.parametrize(
        "bad", ["{bad", "[1, 2]", '"tokens"', '{"segments": [0], "sites": [], "label": 1}',
                '{"tokens": 7, "segments": [0], "sites": [], "label": 1}',
                '{"tokens": [0, 1], "segments": [0, 0], "sites": [{"head": [1, 9], "know": [7]}], '
                '"label": 1}',
                '{"tokens": [], "segments": [], "sites": [], "label": 1}'],
    )
    @pytest.mark.parametrize("phase", ["train", "test"])
    def test_malformed_batch_line_names_path_and_line(self, small_dataset, tmp_path, bad, phase):
        config = desk_config(small_dataset, tmp_path / "out", epochs=0)
        run_prepare(config)
        run_train(config)
        path = tmp_path / "out" / "batches" / f"{phase}.jsonl"
        n_lines = len(path.read_text().splitlines())
        with open(path, "a", encoding="utf-8") as fh:
            fh.write(bad + "\n")
        with pytest.raises(FormatError, match=rf"{phase}\.jsonl: (batch )?line {n_lines + 1}: "):
            run_train(config) if phase == "train" else evaluate(config, phase)

    @pytest.mark.parametrize("phase", ["train", "test"])
    def test_token_id_beyond_vocabulary_rejected(self, small_dataset, tmp_path, phase):
        config = desk_config(small_dataset, tmp_path / "out", epochs=0)
        run_prepare(config)
        run_train(config)
        size = len(Tokenizer.load(tmp_path / "out" / "vocab.tsv"))
        path = tmp_path / "out" / "batches" / f"{phase}.jsonl"
        lines = read_batch_file(path)
        lines[1]["tokens"][1] = size
        path.write_text("".join(json.dumps(line) + "\n" for line in lines))
        expected = rf"{phase}\.jsonl: batch line 2: token id {size} >= vocabulary size {size}"
        with pytest.raises(FormatError, match=expected):
            run_train(config) if phase == "train" else evaluate(config, phase)

    @pytest.mark.parametrize("phase", ["train", "test"])
    def test_line_longer_than_max_len_rejected(self, small_dataset, tmp_path, phase):
        config = desk_config(small_dataset, tmp_path / "out", epochs=0)
        run_prepare(config)
        run_train(config)
        log_path = tmp_path / "out" / "loss_log.jsonl"
        log_path.unlink()
        path = tmp_path / "out" / "batches" / f"{phase}.jsonl"
        lines = read_batch_file(path)
        extra = config.max_len + 1 - len(lines[0]["tokens"])
        lines[0]["tokens"] += lines[0]["tokens"][1:2] * extra
        lines[0]["segments"] += [1] * extra
        path.write_text("".join(json.dumps(line) + "\n" for line in lines))
        expected = (
            rf"{phase}\.jsonl: batch line 1: {config.max_len + 1} tokens exceed "
            rf"max_len {config.max_len}"
        )
        with pytest.raises(FormatError, match=expected):
            run_train(config) if phase == "train" else evaluate(config, phase)
        assert not log_path.exists()

    def test_evaluate_rejects_unlabeled_line(self, small_dataset, tmp_path):
        config = desk_config(small_dataset, tmp_path / "out", epochs=0)
        run_prepare(config)
        run_train(config)
        path = tmp_path / "out" / "batches" / "test.jsonl"
        lines = read_batch_file(path)
        del lines[-1]["label"]
        path.write_text("".join(json.dumps(line) + "\n" for line in lines))
        with pytest.raises(FormatError, match="label"):
            evaluate(config, "test")


class TestTrainEvaluate:
    def test_epochs_zero_checkpoint_is_init(self, small_dataset, tmp_path):
        config = desk_config(small_dataset, tmp_path / "out", epochs=0)
        run_prepare(config)
        result = run_train(config)
        assert result["steps"] == 0
        params, enc_config, seed, _ = load_checkpoint(result["checkpoint"])
        fresh = init_params(enc_config)
        for name, arr in fresh.items():
            np.testing.assert_array_equal(params[name], arr)

    def test_train_deterministic(self, small_dataset, tmp_path):
        blobs = []
        for run in range(2):
            config = desk_config(small_dataset, tmp_path / f"out{run}")
            run_prepare(config)
            result = run_train(config)
            blobs.append(Path(result["checkpoint"]).read_bytes())
        assert blobs[0] == blobs[1]

    def test_evaluate_writes_metrics_and_preserves_order(self, small_dataset, tmp_path):
        config = desk_config(small_dataset, tmp_path / "out")
        run_prepare(config)
        run_train(config)
        metrics = evaluate(config, "test")
        n = len(read_batch_file(tmp_path / "out" / "batches" / "test.jsonl"))
        assert len(metrics.per_example_correct) == n
        written = json.loads((tmp_path / "out" / "metrics_test.json").read_text())
        assert written == metrics.to_dict()
        # Per-example order matches a batch-size-1 evaluation.
        single = evaluate(desk_config(small_dataset, tmp_path / "out", batch_size=1), "test")
        assert single.per_example_correct == metrics.per_example_correct

    @pytest.mark.skipif(blas.get_threads() is None, reason="numpy links no OpenBLAS")
    def test_train_and_evaluate_run_blas_on_one_thread(self, small_dataset, tmp_path, monkeypatch):
        config = desk_config(small_dataset, tmp_path / "out", epochs=1)
        run_prepare(config)
        seen = []
        for name in ("train_step", "forward"):
            real = getattr(harness, name)

            def spy(*args, real=real, **kwargs):
                seen.append(blas.get_threads())
                return real(*args, **kwargs)

            monkeypatch.setattr(harness, name, spy)
        before = blas.get_threads()
        with blas.blas_threads(2):
            run_train(config)
            evaluate(config, "test")
            assert blas.get_threads() == 2
        assert seen and set(seen) == {1}
        assert blas.get_threads() == before

    @pytest.mark.skipif(blas.get_threads() is None, reason="numpy links no OpenBLAS")
    def test_checkpoint_does_not_depend_on_blas_threads(self, small_dataset, tmp_path):
        # At batch 16 with annotated pairs, OpenBLAS splits the products
        # across two threads and sums some of them in another order.
        blobs = []
        for n in (1, 2):
            config = desk_config(
                small_dataset, tmp_path / f"out{n}", epochs=1, batch_size=16,
                annotations=str(small_dataset / "gold_annotations.jsonl"),
            )
            run_prepare(config)
            with blas.blas_threads(n):
                run_train(config)
            blobs.append((tmp_path / f"out{n}" / "checkpoint.bin").read_bytes())
        assert blobs[0] == blobs[1]

    def test_numerical_abort_keeps_last_good_checkpoint(
        self, small_dataset, tmp_path, monkeypatch
    ):
        import knowmatch.harness as harness_module
        from knowmatch.errors import NumericalError
        import knowmatch.encoder as encoder_module

        config = desk_config(small_dataset, tmp_path / "out", epochs=2)
        run_prepare(config)
        calls = {"n": 0}
        real_step = encoder_module.train_step

        def flaky_step(*args, **kwargs):
            calls["n"] += 1
            if calls["n"] == 2:
                raise NumericalError("synthetic blow-up")
            return real_step(*args, **kwargs)

        monkeypatch.setattr(harness_module, "train_step", flaky_step)
        with pytest.raises(NumericalError):
            run_train(config)
        # The checkpoint from before the failed step is on disk and loadable.
        params, _, _, header = load_checkpoint(tmp_path / "out" / "checkpoint.bin")
        assert header["vocab_hash"]
        log_lines = (tmp_path / "out" / "loss_log.jsonl").read_text().splitlines()
        assert len(log_lines) == 1

    def test_dropout_training_deterministic_end_to_end(self, small_dataset, tmp_path):
        blobs = []
        for run in range(2):
            config = desk_config(
                small_dataset, tmp_path / f"drop{run}", epochs=1, dropout=0.1
            )
            run_prepare(config)
            result = run_train(config)
            blobs.append(Path(result["checkpoint"]).read_bytes())
        assert blobs[0] == blobs[1]

    def test_dropout_stream_is_seeded_by_run_seed_and_step(
        self, small_dataset, tmp_path, monkeypatch
    ):
        config = desk_config(small_dataset, tmp_path / "out", dropout=0.1, seed=5)
        run_prepare(config)
        seeds = []
        real_rng = np.random.default_rng

        def spy(seed=None):
            seeds.append(seed)
            return real_rng(seed)

        monkeypatch.setattr(np.random, "default_rng", spy)
        result = run_train(config)
        steps = result["steps"]
        assert steps > 1
        # The initial weights, the harness's order, then one stream per step.
        assert seeds == [5, 5] + [5 * 1_000_003 + k for k in range(steps)]
        log = (tmp_path / "out" / "loss_log.jsonl").read_text().splitlines()
        assert [json.loads(line)["step"] for line in log] == list(range(steps))

    def test_vocab_hash_mismatch_rejected(self, small_dataset, tmp_path):
        config = desk_config(small_dataset, tmp_path / "out")
        run_prepare(config)
        run_train(config)
        manifest_path = tmp_path / "out" / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["vocab_hash"] = "0" * 64
        manifest_path.write_text(json.dumps(manifest, sort_keys=True) + "\n")
        with pytest.raises(IncompatibleArtifactsError):
            evaluate(config, "test")

    def test_train_rejects_vocab_not_in_manifest(self, small_dataset, tmp_path):
        config = desk_config(small_dataset, tmp_path / "out", epochs=0)
        run_prepare(config)
        vocab = tmp_path / "out" / "vocab.tsv"
        size = len(Tokenizer.load(vocab))
        with open(vocab, "a", encoding="utf-8") as fh:
            fh.write(f"qqqqq\t{size}\n")
        with pytest.raises(IncompatibleArtifactsError, match="vocabulary"):
            run_train(config)
        assert not (tmp_path / "out" / "checkpoint.bin").exists()

    def test_failed_prepare_leaves_nothing_to_load(self, small_dataset, tmp_path, capsys):
        out = tmp_path / "out"
        config = desk_config(small_dataset, out, prompt_mode="constrained", max_len=20)
        run_prepare(config)
        run_train(config)
        # The rule typer's column-type branches overflow max_len 20, after
        # prepare has written a vocabulary that holds the gazetteer's labels.
        gaz = tmp_path / "gaz.tsv"
        gaz.write_text(GAZETTEER, encoding="utf-8")
        overflowing = dataclasses.replace(config, use_rule_typer=True, gazetteer=str(gaz))
        with pytest.raises(SequenceOverflowError):
            run_prepare(overflowing)
        unfinished = r"manifest\.json is missing: the last prepare of .* did not finish"
        with pytest.raises(FileNotFoundError, match=unfinished):
            run_train(config)
        with pytest.raises(FileNotFoundError, match=unfinished):
            evaluate(config, "test")
        flags = ["--data_dir", str(small_dataset), "--out_dir", str(out), "--profile", "desk",
                 "--epochs", "2", "--batch_size", "8", "--mode", "constrained", "--max_len", "20"]
        capsys.readouterr()
        assert cli.main(["train", *flags]) == 2
        assert "did not finish" in capsys.readouterr().err

    @pytest.mark.parametrize("key, value", [("prompt_mode", "constrained"), ("max_len", 64)])
    def test_config_differing_from_manifest_rejected(self, small_dataset, tmp_path, key, value):
        prepared = {"prompt_mode": "slash", "epochs": 0}
        config = desk_config(small_dataset, tmp_path / "out", **prepared)
        run_prepare(config)
        run_train(config)
        other = desk_config(small_dataset, tmp_path / "out", **{**prepared, key: value})
        with pytest.raises(IncompatibleArtifactsError, match=key):
            evaluate(other, "test")

    @pytest.mark.parametrize("key, value", [("prompt_mode", "constrained"), ("max_len", 64)])
    def test_train_on_directory_prepared_otherwise_rejected(self, small_dataset, tmp_path, key, value):
        prepared = {"prompt_mode": "slash", "epochs": 0}
        run_prepare(desk_config(small_dataset, tmp_path / "out", **prepared))
        other = desk_config(small_dataset, tmp_path / "out", **{**prepared, key: value})
        with pytest.raises(IncompatibleArtifactsError, match=key):
            run_train(other)
        assert not (tmp_path / "out" / "checkpoint.bin").exists()

    @pytest.mark.parametrize("text", ["{bad", "[]", '{"prompt_mode": "space", "max_len": 128}'])
    @pytest.mark.parametrize("phase", ["train", "eval"])
    def test_corrupt_manifest_rejected(self, small_dataset, tmp_path, text, phase):
        config = desk_config(small_dataset, tmp_path / "out", epochs=0)
        run_prepare(config)
        run_train(config)
        (tmp_path / "out" / "manifest.json").write_text(text + "\n")
        with pytest.raises(FormatError, match="manifest.json: "):
            run_train(config) if phase == "train" else evaluate(config, "test")

    def test_checkpoint_shorter_than_max_len_rejected(self, small_dataset, tmp_path, monkeypatch):
        out = tmp_path / "out"
        run_prepare(desk_config(small_dataset, out, max_len=30, epochs=0))
        run_train(desk_config(small_dataset, out, max_len=30, epochs=0))
        config = desk_config(small_dataset, out, max_len=128)
        run_prepare(config)
        monkeypatch.setattr(harness, "forward", None)  # no batch is scored
        checkpoint = str(out / "checkpoint.bin")
        with pytest.raises(IncompatibleArtifactsError) as info:
            evaluate(config, "test")
        message = str(info.value)
        assert checkpoint in message and "30" in message and "max_len=128" in message

    def test_run_checkpoint_is_float32_and_round_trips(self, small_dataset, tmp_path):
        config = desk_config(small_dataset, tmp_path / "out", epochs=1)
        run_prepare(config)
        run_train(config)
        path = tmp_path / "out" / "checkpoint.bin"
        blob = path.read_bytes()
        params, enc_config, seed, header = load_checkpoint(path)
        assert enc_config.dtype == header["config"]["dtype"] == "float32"
        assert {p.dtype for p in params.values()} == {np.dtype(np.float32)}
        count = sum(p.size for p in params.values())
        assert len(blob) == blob.index(b"\n") + 1 + 4 * count
        again = tmp_path / "again.bin"
        save_checkpoint(again, params, enc_config, seed, vocab_hash=header["vocab_hash"])
        assert again.read_bytes() == blob

    def test_float64_checkpoint_scored_in_float64(self, small_dataset, tmp_path, monkeypatch):
        config = desk_config(small_dataset, tmp_path / "out", epochs=1)
        run_prepare(config)
        run_train(config)
        params, enc_config, seed, header = load_checkpoint(tmp_path / "out" / "checkpoint.bin")
        enc64 = dataclasses.replace(enc_config, dtype="float64")
        params64 = {name: p.astype(np.float64) for name, p in params.items()}
        path64 = tmp_path / "f64.bin"
        save_checkpoint(path64, params64, enc64, seed, vocab_hash=header["vocab_hash"])
        scored = []

        def spy(batch, params, enc_config, ws=None, real=harness.forward):
            scored.append((batch, real(batch, params, enc_config, ws).copy()))
            return scored[-1][1]

        monkeypatch.setattr(harness, "forward", spy)
        evaluate(config, "test", checkpoint=path64)
        assert scored
        with blas.blas_threads(1):
            for batch, probs in scored:
                assert probs.dtype == np.float64
                np.testing.assert_array_equal(probs, forward(batch, params64, enc64))

    def test_unprepared_split_rejected(self, small_dataset, tmp_path):
        config = desk_config(small_dataset, tmp_path / "out")
        run_prepare(config)
        run_train(config)
        (tmp_path / "out" / "batches" / "valid.jsonl").unlink()
        manifest_path = tmp_path / "out" / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        del manifest["splits"]["valid"]
        manifest_path.write_text(json.dumps(manifest, sort_keys=True) + "\n")
        with pytest.raises(FileNotFoundError):
            evaluate(config, "valid")


class TestTrainedBytes:
    @pytest.mark.parametrize("mode", ["slash", "constrained"])
    def test_reference_kernels_write_the_same_bytes(
        self, small_dataset, tmp_path, monkeypatch, mode
    ):
        # The shipped embedding scatter, flat Adam update and block layout
        # against the references in conftest; neither calls BLAS, so this
        # holds whatever the BLAS kernel.
        written = []
        for reference in (False, True):
            if reference:
                monkeypatch.setattr(encoder, "_scatter_rows", reference_scatter_rows)
                monkeypatch.setattr(harness, "train_step", reference_train_step)
                monkeypatch.setattr(injection, "_flat_layout", reference_flat_layout)
            out = tmp_path / ("reference" if reference else "shipped")
            config = desk_config(
                small_dataset, out, batch_size=DESK_PROFILE["batch_size"], prompt_mode=mode,
                annotations=str(small_dataset / "gold_annotations.jsonl"),
            )
            run_prepare(config)
            result = run_train(config)
            assert result["steps"] > 0
            written.append([(out / f).read_bytes() for f in ("checkpoint.bin", "loss_log.jsonl")])
        assert written[0] == written[1]


class TestCompare:
    def test_identical_configs_degenerate(self, small_dataset, tmp_path):
        config = desk_config(small_dataset, tmp_path / "out")
        with pytest.raises(DegenerateError):
            compare(config, config, split="test")

    def test_stale_out_dir_is_retrained(self, tmp_path):
        data_dir = tmp_path / "data"
        spec = SyntheticSpec(entities=40, ambiguity=2, extra_columns=0, train_frac=0.7)
        write_synthetic(generate_synthetic(spec, seed=11), data_dir)
        # "b" already holds an untrained checkpoint when compare runs it at 6 epochs.
        stale = desk_config(data_dir, tmp_path / "b", seed=1, epochs=0)
        run_prepare(stale)
        run_train(stale)
        config_a = desk_config(
            data_dir, tmp_path / "a", seed=1, epochs=6, prompt_mode="slash",
            annotations=str(data_dir / "gold_annotations.jsonl"),
        )
        config_b = desk_config(data_dir, tmp_path / "b", seed=1, epochs=6)
        result = compare(config_a, config_b, split="test")
        fresh = desk_config(data_dir, tmp_path / "fresh", seed=1, epochs=6)
        run_prepare(fresh)
        steps = run_train(fresh)["steps"]
        assert steps > 0
        assert len((tmp_path / "b" / "loss_log.jsonl").read_text().splitlines()) == steps
        assert result["f1_b"] == evaluate(fresh, "test").f1

    def test_injected_vs_baseline_full_output(self, tmp_path):
        data_dir = tmp_path / "data"
        spec = SyntheticSpec(entities=40, ambiguity=2, extra_columns=0, train_frac=0.7)
        write_synthetic(generate_synthetic(spec, seed=11), data_dir)
        config_a = desk_config(
            data_dir, tmp_path / "a", seed=1, epochs=6, prompt_mode="slash",
            annotations=str(data_dir / "gold_annotations.jsonl"),
        )
        config_b = desk_config(data_dir, tmp_path / "b", seed=1, epochs=0)
        result = compare(config_a, config_b, split="test")
        assert set(result) == {"f1_a", "f1_b", "t", "df", "p", "sig_05", "sig_01"}
        n_test = len(read_batch_file(tmp_path / "a" / "batches" / "test.jsonl"))
        assert result["df"] == n_test - 1
        assert result["sig_05"] == (result["p"] < 0.05)
