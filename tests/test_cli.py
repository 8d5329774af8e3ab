import json

import pytest

import knowmatch.cli as cli
from knowmatch.errors import NumericalError
from knowmatch.knowledge import DITTO_GENERAL_TYPES


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture(scope="module")
def synth_dir(tmp_path_factory):
    data_dir = tmp_path_factory.mktemp("cli_data")
    code = cli.main(
        [
            "synth", "--out", str(data_dir), "--entities", "16",
            "--extra_columns", "1", "--train_frac", "0.7",
            "--valid_frac", "0.1", "--seed", "3",
        ]
    )
    assert code == 0
    return data_dir


class TestUsage:
    def test_no_command(self, capsys):
        code, _, err = run_cli(capsys)
        assert code == 1
        assert "usage" in err.lower()

    def test_unknown_command(self, capsys):
        code, _, err = run_cli(capsys, "frobnicate")
        assert code == 1
        assert err

    def test_unknown_flag(self, capsys):
        code, _, err = run_cli(capsys, "train", "--bogus", "1")
        assert code == 1

    @pytest.mark.parametrize("command", ["prepare", "compare"])
    def test_unknown_profile(self, capsys, command):
        args = ("--a", "a.json", "--b", "b.json") if command == "compare" else ()
        code, _, err = run_cli(capsys, command, *args, "--profile", "nope")
        assert code == 1
        assert "nope" in err


class TestPipeline:
    def test_prepare_train_eval(self, synth_dir, tmp_path, capsys):
        out = tmp_path / "out"
        code, stdout, _ = run_cli(
            capsys, "prepare", "--profile", "desk", "--data_dir", str(synth_dir),
            "--out_dir", str(out), "--epochs", "2", "--batch_size", "8",
        )
        assert code == 0
        manifest = json.loads(stdout)
        assert manifest["splits"]["train"] > 0

        code, stdout, _ = run_cli(
            capsys, "train", "--profile", "desk", "--data_dir", str(synth_dir),
            "--out_dir", str(out), "--epochs", "2", "--batch_size", "8",
        )
        assert code == 0
        assert json.loads(stdout)["steps"] > 0

        code, stdout, _ = run_cli(
            capsys, "eval", "--profile", "desk", "--data_dir", str(synth_dir),
            "--out_dir", str(out), "--epochs", "2", "--batch_size", "8",
            "--split", "test",
        )
        assert code == 0
        metrics = json.loads(stdout)
        assert set(metrics) == {"precision", "recall", "f1", "n"}

    def test_missing_dataset_exit_2(self, tmp_path, capsys):
        code, _, err = run_cli(
            capsys, "prepare", "--data_dir", str(tmp_path / "missing"),
            "--out_dir", str(tmp_path / "out"),
        )
        assert code == 2
        assert "missing" in err

    def test_non_utf8_table_exit_2(self, synth_dir, tmp_path, capsys):
        data = tmp_path / "data"
        data.mkdir()
        for f in synth_dir.iterdir():
            (data / f.name).write_bytes(f.read_bytes())
        with open(data / "tableA.csv", "ab") as fh:
            fh.write(b"9,\xff\xfe\n")
        code, _, err = run_cli(
            capsys, "prepare", "--data_dir", str(data), "--out_dir", str(tmp_path / "out")
        )
        assert code == 2
        assert "data error" in err and "tableA.csv: line" in err and "UTF-8" in err

    def test_conflicting_gazetteer_exit_2(self, synth_dir, tmp_path, capsys):
        gaz = tmp_path / "gaz.tsv"
        gaz.write_text("alpha\tperson\nAlpha\torg\n", encoding="utf-8")
        code, _, err = run_cli(
            capsys, "prepare", "--data_dir", str(synth_dir),
            "--out_dir", str(tmp_path / "out"), "--gazetteer", str(gaz),
        )
        assert code == 2
        assert "'alpha'" in err and "'Alpha'" in err and "gaz.tsv: line 2" in err

    def test_mode_flag_equals_config_file(self, synth_dir, tmp_path, capsys):
        config_path = tmp_path / "config.json"
        config_path.write_text(
            json.dumps(
                {
                    "data_dir": str(synth_dir),
                    "out_dir": str(tmp_path / "by_file"),
                    "prompt_mode": "slash",
                    "annotations": str(synth_dir / "gold_annotations.jsonl"),
                    "max_len": 128,
                }
            )
        )
        code, _, _ = run_cli(capsys, "prepare", "--config", str(config_path))
        assert code == 0
        code, _, _ = run_cli(
            capsys, "prepare", "--data_dir", str(synth_dir),
            "--out_dir", str(tmp_path / "by_flag"), "--mode", "slash",
            "--annotations", str(synth_dir / "gold_annotations.jsonl"),
            "--max_len", "128",
        )
        assert code == 0
        for name in ("train.jsonl", "valid.jsonl", "test.jsonl"):
            assert (
                (tmp_path / "by_file" / "batches" / name).read_bytes()
                == (tmp_path / "by_flag" / "batches" / name).read_bytes()
            )

    def test_env_seed_override(self, synth_dir, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("KAER_SEED", "77")
        out = tmp_path / "env_out"
        code, _, _ = run_cli(
            capsys, "prepare", "--profile", "desk", "--data_dir", str(synth_dir),
            "--out_dir", str(out), "--epochs", "0",
        )
        assert code == 0
        code, _, _ = run_cli(
            capsys, "train", "--profile", "desk", "--data_dir", str(synth_dir),
            "--out_dir", str(out), "--epochs", "0",
        )
        assert code == 0
        header = (out / "checkpoint.bin").read_bytes().split(b"\n", 1)[0]
        assert json.loads(header)["seed"] == 77

    @pytest.mark.parametrize(
        "damage",
        ["trailing-bytes", "missing-param", "unknown-config-key", "zero-heads", "fractional-layers"],
    )
    def test_eval_bad_checkpoint_exit_2(self, synth_dir, tmp_path, capsys, damage):
        out = tmp_path / "out"
        flags = ("--profile", "desk", "--data_dir", str(synth_dir), "--out_dir", str(out), "--epochs", "0")
        assert run_cli(capsys, "prepare", *flags)[0] == 0
        assert run_cli(capsys, "train", *flags)[0] == 0
        header_line, body = (out / "checkpoint.bin").read_bytes().split(b"\n", 1)
        header = json.loads(header_line)
        if damage == "trailing-bytes":
            body += b"\x00" * 8
        elif damage == "missing-param":
            header["params"].pop()
        elif damage == "zero-heads":
            header["config"]["n_heads"] = 0
        elif damage == "fractional-layers":
            header["config"]["n_layers"] = 1.5
        else:
            header["config"]["colour"] = "blue"
        bad = tmp_path / "bad.bin"
        bad.write_bytes(json.dumps(header, sort_keys=True).encode() + b"\n" + body)
        code, _, err = run_cli(capsys, "eval", *flags, "--checkpoint", str(bad))
        assert code == 2
        assert "data error" in err

    @pytest.mark.parametrize("flag", [("--mode", "slash"), ("--max_len", "64")])
    def test_eval_config_differing_from_prepare_exit_2(self, synth_dir, tmp_path, capsys, flag):
        out = tmp_path / "out"
        flags = ("--profile", "desk", "--data_dir", str(synth_dir), "--out_dir", str(out), "--epochs", "0")
        assert run_cli(capsys, "prepare", *flags)[0] == 0
        assert run_cli(capsys, "train", *flags)[0] == 0
        code, _, err = run_cli(capsys, "eval", *flags, *flag)
        assert code == 2
        assert "data error" in err and "re-run prepare" in err

    @pytest.mark.parametrize("flag", [("--mode", "constrained"), ("--max_len", "64")])
    def test_train_config_differing_from_prepare_exit_2(self, synth_dir, tmp_path, capsys, flag):
        out = tmp_path / "out"
        flags = ("--profile", "desk", "--data_dir", str(synth_dir), "--out_dir", str(out), "--epochs", "0")
        assert run_cli(capsys, "prepare", *flags)[0] == 0
        code, _, err = run_cli(capsys, "train", *flags, *flag)
        assert code == 2
        assert "data error" in err and "re-run prepare" in err

    @pytest.mark.parametrize(
        "target, text",
        [
            ("batches/test.jsonl", "{bad"),
            ("batches/test.jsonl", "[1]"),
            ("batches/test.jsonl", '{"segments": [], "sites": [], "label": 0}'),
            ("batches/test.jsonl", '{"tokens": [-1], "segments": [0], "sites": [], "label": 0}'),
            ("batches/test.jsonl", '{"tokens": [99999], "segments": [0], "sites": [], "label": 0}'),
            ("manifest.json", "{bad"),
        ],
    )
    def test_eval_malformed_artifact_exit_2(self, synth_dir, tmp_path, capsys, target, text):
        out = tmp_path / "out"
        flags = ("--profile", "desk", "--data_dir", str(synth_dir), "--out_dir", str(out), "--epochs", "0")
        assert run_cli(capsys, "prepare", *flags)[0] == 0
        assert run_cli(capsys, "train", *flags)[0] == 0
        with open(out / target, "a", encoding="utf-8") as fh:
            fh.write(text + "\n")
        code, _, err = run_cli(capsys, "eval", *flags)
        assert code == 2
        assert "data error" in err and target.split("/")[-1] in err

    @pytest.mark.parametrize(
        "flag",
        [("--batch_size", "0"), ("--epochs", "-3"), ("--n_heads", "0"), ("--seed", "-1"),
         ("--dropout", "1.0"), ("--lr", "nan"), ("--d_model", "10"), ("--lr", "inf"),
         ("--dropout", "nan")],
    )
    def test_bad_config_value_exit_2(self, synth_dir, tmp_path, capsys, flag):
        out = tmp_path / "out"
        code, _, err = run_cli(
            capsys, "train", "--data_dir", str(synth_dir), "--out_dir", str(out), *flag
        )
        assert code == 2
        assert "data error" in err and flag[0][2:] in err
        assert not out.exists()

    @pytest.mark.parametrize("value", ["nan", "inf", "2"])
    @pytest.mark.parametrize("key", ["train_frac", "valid_frac", "match_rate", "perturbation"])
    def test_bad_synth_value_exit_2(self, tmp_path, capsys, key, value):
        out = tmp_path / "out"
        code, _, err = run_cli(
            capsys, "synth", "--out", str(out), "--entities", "8", f"--{key}", value
        )
        assert code == 2
        assert "data error" in err and key in err
        assert not out.exists()

    def test_numerical_error_exit_3(self, synth_dir, tmp_path, capsys, monkeypatch):
        def explode(config):
            raise NumericalError("boom")

        monkeypatch.setattr(cli, "run_train", explode)
        code, _, err = run_cli(
            capsys, "train", "--data_dir", str(synth_dir),
            "--out_dir", str(tmp_path / "out"),
        )
        assert code == 3
        assert "numerical" in err.lower()


class TestCompareCommand:
    def test_compare_json(self, tmp_path, capsys):
        data_dir = tmp_path / "data"
        code, _, _ = run_cli(
            capsys, "synth", "--out", str(data_dir), "--entities", "40",
            "--extra_columns", "0", "--train_frac", "0.7", "--seed", "11",
        )
        assert code == 0
        cfg_a = {
            "data_dir": str(data_dir), "out_dir": str(tmp_path / "a"),
            "prompt_mode": "slash",
            "annotations": str(data_dir / "gold_annotations.jsonl"),
            "epochs": 6, "batch_size": 16, "lr": 1e-3, "max_len": 128, "seed": 1,
        }
        cfg_b = {
            "data_dir": str(data_dir), "out_dir": str(tmp_path / "b"),
            "epochs": 0, "batch_size": 16, "lr": 1e-3, "max_len": 128, "seed": 1,
        }
        path_a = tmp_path / "a.json"
        path_b = tmp_path / "b.json"
        path_a.write_text(json.dumps(cfg_a))
        path_b.write_text(json.dumps(cfg_b))
        code, stdout, _ = run_cli(
            capsys, "compare", "--a", str(path_a), "--b", str(path_b),
            "--split", "test",
        )
        assert code == 0
        result = json.loads(stdout.strip())
        assert set(result) == {"f1_a", "f1_b", "t", "df", "p", "sig_05", "sig_01"}

    def test_compare_identical_configs_exit_2(self, tmp_path, capsys):
        data_dir = tmp_path / "data"
        run_cli(capsys, "synth", "--out", str(data_dir), "--entities", "12", "--seed", "2")
        cfg = {
            "data_dir": str(data_dir), "out_dir": str(tmp_path / "same"),
            "epochs": 1, "batch_size": 8, "lr": 1e-3, "max_len": 128, "seed": 1,
        }
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        code, _, err = run_cli(
            capsys, "compare", "--a", str(path), "--b", str(path), "--split", "test"
        )
        assert code == 2
        assert "zero" in err or "data error" in err


class TestAnnotateCommand:
    def test_annotate_outputs_jsonl(self, synth_dir, tmp_path, capsys):
        gaz = tmp_path / "gaz.tsv"
        gaz.write_text("amber fox\tPRODUCT\n", encoding="utf-8")
        out_file = tmp_path / "annotations.jsonl"
        code, stdout, _ = run_cli(
            capsys, "annotate", "--data_dir", str(synth_dir),
            "--out", str(out_file), "--gazetteer", str(gaz),
        )
        assert code == 0
        counts = json.loads(stdout)
        assert counts["column_types"] > 0
        lines = [
            json.loads(l)
            for l in out_file.read_text().splitlines()
            if l.strip()
        ]
        assert all(obj["kind"] in ("column_type", "mention") for obj in lines)

    @staticmethod
    def mixed_gazetteer(synth_dir, tmp_path):
        """One gazetteer entry per word of the first left name, typed with a
        General type (ORG, PERSON) or a non-General one (NORP, artist)."""
        first_row = (synth_dir / "tableA.csv").read_text().splitlines()[1]
        words = first_row.split(",")[1].split()
        assert len(words) >= 2
        labels = ["ORG", "NORP", "PERSON", "artist"]
        gaz = tmp_path / "gaz.tsv"
        gaz.write_text(
            "".join(f"{w}\t{label}\n" for w, label in zip(words, labels)),
            encoding="utf-8",
        )
        return gaz

    def test_annotate_ditto_general_keeps_general_types(self, synth_dir, tmp_path, capsys):
        gaz = self.mixed_gazetteer(synth_dir, tmp_path)
        out_file = tmp_path / "annotations.jsonl"
        code, _, _ = run_cli(
            capsys, "annotate", "--data_dir", str(synth_dir), "--out", str(out_file),
            "--gazetteer", str(gaz), "--ditto_mode", "general",
        )
        assert code == 0
        mentions = [
            obj
            for obj in map(json.loads, out_file.read_text().splitlines())
            if obj["kind"] == "mention"
        ]
        assert mentions
        assert {m["type"] for m in mentions} <= DITTO_GENERAL_TYPES
        assert "ORG" in {m["type"] for m in mentions}

    def test_annotate_unknown_ditto_mode_exit_2(self, synth_dir, tmp_path, capsys):
        code, _, err = run_cli(
            capsys, "annotate", "--data_dir", str(synth_dir),
            "--out", str(tmp_path / "a.jsonl"), "--ditto_mode", "bogus",
        )
        assert code == 2
        assert "ditto" in err

    @pytest.mark.parametrize("spelling", ["OFF", "General", "PRODUCT"])
    def test_annotate_ditto_mode_spellings_write_the_same_file(
        self, synth_dir, tmp_path, capsys, spelling
    ):
        gaz = self.mixed_gazetteer(synth_dir, tmp_path)
        written = []
        for i, mode in enumerate((spelling, spelling.lower())):
            out_file = tmp_path / f"annotations_{i}.jsonl"
            code, _, _ = run_cli(
                capsys, "annotate", "--data_dir", str(synth_dir), "--out", str(out_file),
                "--gazetteer", str(gaz), "--ditto_mode", mode,
            )
            assert code == 0
            written.append(out_file.read_bytes())
        assert written[0] == written[1]
