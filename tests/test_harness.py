import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from knowmatch.encoder import init_params, load_checkpoint
from knowmatch.errors import (
    DegenerateError,
    DomainError,
    FormatError,
    IncompatibleArtifactsError,
)
from knowmatch.harness import (
    DESK_PROFILE,
    Metrics,
    RunConfig,
    compare,
    evaluate,
    resolve_config,
    run_prepare,
    run_train,
)
from knowmatch.serializer import read_batch_file
from knowmatch.synth import SyntheticSpec, generate_synthetic, write_synthetic
from knowmatch.tabular import load_pairs, load_table
from knowmatch.text import Tokenizer, tokenize


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

    def test_bad_env_seed(self):
        with pytest.raises(FormatError):
            resolve_config(env={"KAER_SEED": "abc"})

    def test_invalid_mode_rejected(self):
        with pytest.raises(DomainError):
            RunConfig(prompt_mode="dash")

    def test_multithreading_not_supported(self):
        with pytest.raises(DomainError):
            RunConfig(threads=4)


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
            assert "soft_pos" in line and "visible_rows" in line
            assert len(line["soft_pos"]) == len(line["tokens"])
            assert len(line["visible_rows"]) == len(line["tokens"])
            assert line["sites"]

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
            "test.jsonl": "3853795e78b98ca07defb63435fde27af459ec2797a65e4b2f587df915eec524",
            "train.jsonl": "18bd3bade7f1869aabc172503c0260d1c189bea654e1e157118d6370add177bc",
            "valid.jsonl": "2c215f9a98697e0df5e1f3a2618f7fe845f80b2a1302c3c9b8532e292b770120",
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


class TestCompare:
    def test_identical_configs_degenerate(self, small_dataset, tmp_path):
        config = desk_config(small_dataset, tmp_path / "out")
        with pytest.raises(DegenerateError):
            compare(config, config, split="test")

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
