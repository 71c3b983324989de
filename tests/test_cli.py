"""CLI tests: exit codes, artifacts, determinism, precedence."""

import dataclasses
import io
import json
import os
import zipfile

import numpy as np
import pytest

from graphfuse import cli, training
from graphfuse.cli import main
from graphfuse.errors import ConfigError, ParseError
from graphfuse.model import ModelConfig, build_config
from graphfuse.rng import RngState
from graphfuse.training import TrainConfig

from helpers import write_version_2


def run_cli(argv):
    return main(argv)


# config files that must end in exit 2, and the text the error must contain
BAD_CONFIGS = {
    "section-not-object": ({"model": [1, 2]}, "model must be an object"),
    "int-as-string": ({"train": {"epochs": "x"}}, "train.epochs"),
    "old-model-gat-residual": ({"model": {"gat_residual": False}},
                               "unknown config key(s): model.gat_residual"),
    "old-model-negative-slope": ({"model": {"negative_slope": 0.2}},
                                 "unknown config key(s): model.negative_slope"),
    "old-model-dec-layers": ({"model": {"dec_layers": 1}},
                             "unknown config key(s): model.dec_layers"),
    "betas-number": ({"train": {"betas": 0.9}},
                     "unknown config key(s): train.betas"),
    "betas-one-value": ({"train": {"betas": [0.9]}},
                        "unknown config key(s): train.betas"),
    "bool-as-int": ({"train": {"epochs": True}}, "train.epochs"),
    "bool-as-float": ({"model": {"dropout": True}}, "model.dropout"),
    "top-level-variant": ({"variant": "gat"}, "'variant'"),
    "misspelled-section": ({"modle": {"d": 16}}, "'modle'"),
    "old-train-dropout": ({"train": {"dropout": 0.3}}, "train.dropout"),
    "zero-heads": ({"model": {"gat_heads": 0}}, "heads"),
    "negative-seed": ({"train": {"seed": -1}}, "seed"),
    "zero-eps": ({"train": {"eps": 0}}, "unknown config key(s): train.eps"),
    "negative-eps": ({"train": {"eps": -1}},
                     "unknown config key(s): train.eps"),
    "negative-weight-decay": ({"train": {"weight_decay": -5}},
                              "unknown config key(s): train.weight_decay"),
    "nan-weight-decay": ({"train": {"weight_decay": float("nan")}},
                         "unknown config key(s): train.weight_decay"),
    "nan-clip-norm": ({"train": {"clip_norm": float("nan")}},
                      "unknown config key(s): train.clip_norm"),
    "warmup-ratio": ({"train": {"warmup_ratio": 0.1}},
                     "unknown config key(s): train.warmup_ratio"),
}

# a value of the wrong JSON type for each field type, and an out-of-range
# value for every field of each config: its error must name the key
WRONG_TYPE = {"int": "1", "float": "0.5", "str": 1}
OUT_OF_RANGE = {
    "model": {"vocab_size": 1, "n_labels": 1, "d_emb": 0, "d": 0,
              "enc_layers": 3, "enc_heads": 0, "gat_hidden": 0,
              "gat_heads": 0, "dec_heads": 0, "dropout": 1.0, "max_len": 0,
              "variant": "both"},
    "train": {"learning_rate": -1.0, "batch_size": 0, "epochs": 0,
              "max_len": 0, "early_stop_patience": 0, "seed": -1},
}

# commands that hit an OS error, each of which must end in exit 2; {file} is
# an existing regular file, so it can be neither a directory nor a parent
OS_ERRORS = {
    "train-out-is-a-file": [
        "train", "--train", "{data}/train.conll", "--valid",
        "{data}/valid.conll", "--out", "{file}", "--preset", "copy",
        "--epochs", "1"],
    "train-input-under-a-file": [
        "train", "--train", "{file}/x.conll", "--valid",
        "{data}/valid.conll", "--out", "{tmp}/o"],
    "predict-output-under-a-file": [
        "predict", "--checkpoint", "{run}/checkpoint.npz", "--input",
        "{data}/test.conll", "--output", "{file}/out"],
    "eval-out-is-a-file": [
        "eval", "--checkpoint", "{run}/checkpoint.npz", "--test",
        "{data}/test.conll", "--out", "{file}"],
    "ablate-out-is-a-file": [
        "ablate", "--out", "{file}", "--seeds", "0", "--epochs", "1"],
}


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """Generated copy-task data plus one small trained run, shared by tests."""
    root = tmp_path_factory.mktemp("cli")
    data = root / "data"
    assert run_cli(["generate", "--task", "copy", "--out", str(data),
                    "--seed", "0"]) == 0
    run = root / "run"
    assert run_cli(["train", "--train", str(data / "train.conll"),
                    "--valid", str(data / "valid.conll"),
                    "--out", str(run), "--preset", "copy"]) == 0
    return root


class TestGenerate:
    def test_writes_three_splits(self, workdir):
        for name in ("train", "valid", "test"):
            assert (workdir / "data" / f"{name}.conll").exists()

    def test_deterministic(self, workdir, tmp_path):
        assert run_cli(["generate", "--task", "copy", "--out",
                        str(tmp_path), "--seed", "0"]) == 0
        a = (workdir / "data" / "train.conll").read_text()
        b = (tmp_path / "train.conll").read_text()
        assert a == b

    def test_negative_seed_exit_2(self, tmp_path, capsys):
        code = run_cli(["generate", "--task", "copy", "--out",
                        str(tmp_path), "--seed", "-1"])
        err = capsys.readouterr().err
        assert code == 2
        assert "seed must be >= 0" in err and "Traceback" not in err


class TestTrain:
    def test_artifacts(self, workdir):
        run = workdir / "run"
        assert (run / "checkpoint.npz").exists()
        assert (run / "history.jsonl").exists()
        blob = json.loads((run / "config.json").read_text())
        assert blob["train"]["epochs"] == 12   # from the copy preset
        assert blob["model"]["gat_heads"] == 8
        assert set(blob["train"]) == {"learning_rate", "batch_size", "epochs",
                                      "max_len", "early_stop_patience", "seed"}

    def test_history_rows(self, workdir):
        lines = (workdir / "run" / "history.jsonl").read_text().splitlines()
        rows = [json.loads(l) for l in lines]
        assert 3 <= len(rows) <= 12  # early stopping may cut the tail
        assert set(rows[0]) == {"epoch", "train_loss", "micro_f1", "macro_f1"}

    def test_missing_train_file_exit_2(self, workdir, tmp_path):
        code = run_cli(["train", "--train", str(tmp_path / "nope.conll"),
                        "--valid", str(workdir / "data" / "valid.conll"),
                        "--out", str(tmp_path / "o")])
        assert code == 2

    def test_non_utf8_train_file_exit_2(self, workdir, tmp_path):
        bad = tmp_path / "junk.conll"
        bad.write_bytes(b"\xa5\xff\x00binary")
        code = run_cli(["train", "--train", str(bad),
                        "--valid", str(workdir / "data" / "valid.conll"),
                        "--out", str(tmp_path / "o")])
        assert code == 2

    def test_deterministic_history(self, workdir, tmp_path):
        data = workdir / "data"
        outs = []
        for sub in ("a", "b"):
            out = tmp_path / sub
            assert run_cli(["train", "--train", str(data / "train.conll"),
                            "--valid", str(data / "valid.conll"),
                            "--out", str(out), "--preset", "copy",
                            "--epochs", "2", "--seed", "5"]) == 0
            outs.append((out / "history.jsonl").read_bytes())
        assert outs[0] == outs[1]

    def test_config_file_and_flag_precedence(self, workdir, tmp_path):
        data = workdir / "data"
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(
            {"train": {"epochs": 4, "batch_size": 32},
             "model": {"gat_heads": 2, "enc_heads": 2, "dec_heads": 2}}))
        out = tmp_path / "out"
        assert run_cli(["train", "--train", str(data / "train.conll"),
                        "--valid", str(data / "valid.conll"),
                        "--out", str(out), "--preset", "copy",
                        "--config", str(cfg), "--epochs", "2"]) == 0
        blob = json.loads((out / "config.json").read_text())
        assert blob["train"]["epochs"] == 2       # flag wins over file
        assert blob["train"]["batch_size"] == 32  # file wins over preset
        assert blob["model"]["gat_heads"] == 2

    def test_unknown_preset_exit_2(self, workdir, tmp_path):
        data = workdir / "data"
        code = run_cli(["train", "--train", str(data / "train.conll"),
                        "--valid", str(data / "valid.conll"),
                        "--out", str(tmp_path / "o"), "--preset", "bogus"])
        assert code == 2

    def test_train_max_len_beyond_model_positions_exit_2(self, workdir, tmp_path,
                                                         capsys):
        data = workdir / "data"
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"model": {"max_len": 8},
                                   "train": {"max_len": 64}}))
        code = run_cli(["train", "--train", str(data / "train.conll"),
                        "--valid", str(data / "valid.conll"),
                        "--out", str(tmp_path / "o"), "--preset", "copy",
                        "--config", str(cfg)])
        assert code == 2
        err = capsys.readouterr().err
        assert "train.max_len 64 must equal model.max_len 8" in err
        assert "Traceback" not in err

    def test_train_max_len_below_model_max_len_exit_2(self, workdir, tmp_path,
                                                      capsys):
        data = workdir / "data"
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"model": {"max_len": 16},
                                   "train": {"max_len": 4, "epochs": 1}}))
        code = run_cli(["train", "--train", str(data / "train.conll"),
                        "--valid", str(data / "valid.conll"),
                        "--out", str(tmp_path / "o"), "--preset", "copy",
                        "--config", str(cfg)])
        assert code == 2
        err = capsys.readouterr().err
        assert "train.max_len 4 must equal model.max_len 16" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("blob, named", BAD_CONFIGS.values(),
                             ids=BAD_CONFIGS)
    def test_bad_config_file_exit_2(self, workdir, tmp_path, capsys, blob,
                                    named):
        data = workdir / "data"
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps(blob))
        code = run_cli(["train", "--train", str(data / "train.conll"),
                        "--valid", str(data / "valid.conll"),
                        "--out", str(tmp_path / "o"), "--preset", "copy",
                        "--config", str(cfg)])
        assert code == 2
        err = capsys.readouterr().err
        assert named in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("lr", ["nan", "inf"])
    def test_non_finite_lr_flag_exit_2(self, workdir, tmp_path, capsys, lr):
        data = workdir / "data"
        code = run_cli(["train", "--train", str(data / "train.conll"),
                        "--valid", str(data / "valid.conll"),
                        "--out", str(tmp_path / "o"), "--preset", "copy",
                        "--lr", lr])
        assert code == 2
        err = capsys.readouterr().err
        assert "learning_rate must be >= 0 and finite" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("cls, section", [(ModelConfig, "model"),
                                              (TrainConfig, "train")])
    def test_every_config_error_names_its_key(self, cls, section):
        base = {"vocab_size": 10, "n_labels": 3} if cls is ModelConfig else {}
        build_config(cls, base, section)
        fields = dataclasses.fields(cls)
        assert sorted(OUT_OF_RANGE[section]) == sorted(f.name for f in fields)
        for f in fields:
            for value in (WRONG_TYPE[f.type], OUT_OF_RANGE[section][f.name]):
                with pytest.raises(ConfigError, match=rf"(^|\W){f.name}\b") as e:
                    build_config(cls, {**base, f.name: value}, section)
                assert f"got {value!r}" in str(e.value)

    @pytest.mark.parametrize("flag, named", [("--heads", "enc_heads"),
                                             ("--epochs", "epochs")])
    def test_zero_flag_names_its_key(self, workdir, tmp_path, capsys, flag,
                                     named):
        data = workdir / "data"
        code = run_cli(["train", "--train", str(data / "train.conll"),
                        "--valid", str(data / "valid.conll"),
                        "--out", str(tmp_path / "o"), "--preset", "copy",
                        flag, "0"])
        assert code == 2
        err = capsys.readouterr().err
        assert f"{named} must be >= 1, got 0" in err
        assert "Traceback" not in err

    def test_json_types_accepted(self):
        config = build_config(TrainConfig, {"learning_rate": 1}, "train")
        assert config.learning_rate == 1

    def test_config_json_round_trip(self, workdir, tmp_path):
        """A run's config.json, fed back with --config, repeats the run."""
        data = workdir / "data"
        first, second = tmp_path / "first", tmp_path / "second"
        common = ["train", "--train", str(data / "train.conll"),
                  "--valid", str(data / "valid.conll")]
        assert run_cli(common + ["--out", str(first), "--preset", "copy",
                                 "--variant", "gat", "--epochs", "2"]) == 0
        assert run_cli(common + ["--out", str(second), "--config",
                                 str(first / "config.json")]) == 0
        blob = json.loads((second / "config.json").read_text())
        assert blob["model"]["variant"] == "gat"
        for name in ("config.json", "history.jsonl"):
            assert (second / name).read_bytes() == (first / name).read_bytes()


class TestEval:
    def test_reports_written(self, workdir, tmp_path):
        code = run_cli(["eval", "--checkpoint",
                        str(workdir / "run" / "checkpoint.npz"),
                        "--test", str(workdir / "data" / "test.conll"),
                        "--out", str(tmp_path)])
        assert code == 0
        blob = json.loads((tmp_path / "report.json").read_text())
        assert "micro" in blob and "per_entity" in blob
        assert blob["n_truncated_sentences"] == blob["n_unscored_tokens"] == 0
        text = (tmp_path / "report.txt").read_text()
        assert "support" in text

    def test_train_split_scores_high(self, workdir, tmp_path):
        """Scoring the checkpoint on its own training data stays close to
        the recorded best validation score."""
        code = run_cli(["eval", "--checkpoint",
                        str(workdir / "run" / "checkpoint.npz"),
                        "--test", str(workdir / "data" / "train.conll"),
                        "--out", str(tmp_path)])
        assert code == 0
        blob = json.loads((tmp_path / "report.json").read_text())
        rows = [json.loads(l) for l in
                (workdir / "run" / "history.jsonl").read_text().splitlines()]
        best_valid = max(r["micro_f1"] for r in rows)
        assert blob["micro"]["f1"] >= best_valid - 0.05

    def test_unknown_label_exit_2(self, workdir, tmp_path, capsys):
        bad = tmp_path / "bad.conll"
        bad.write_text("t00 B-ZZZ\n")
        code = run_cli(["eval", "--checkpoint",
                        str(workdir / "run" / "checkpoint.npz"),
                        "--test", str(bad), "--out", str(tmp_path)])
        assert code == 2
        assert "B-ZZZ" in capsys.readouterr().err

    def test_truncated_checkpoint_exit_2(self, workdir, tmp_path, capsys):
        blob = (workdir / "run" / "checkpoint.npz").read_bytes()
        cut = tmp_path / "cut.npz"
        cut.write_bytes(blob[:len(blob) // 2])
        code = run_cli(["eval", "--checkpoint", str(cut),
                        "--test", str(workdir / "data" / "test.conll"),
                        "--out", str(tmp_path)])
        err = capsys.readouterr().err
        assert code == 2
        assert str(cut) in err and "Traceback" not in err

    def test_truncation_noted_on_stderr(self, workdir, tmp_path, capsys):
        # the copy preset's max_len is 16; a 33-token sentence loses 17
        long = tmp_path / "long.conll"
        long.write_text("".join(f"t{i:02d} O\n" for i in range(33)))
        code = run_cli(["eval", "--checkpoint",
                        str(workdir / "run" / "checkpoint.npz"),
                        "--test", str(long), "--out", str(tmp_path)])
        out, err = capsys.readouterr()
        assert code == 0
        assert err == ("note: 1 of 1 sentences exceed max_len 16; their 17 "
                       "tail tokens are not scored\n")
        assert out == (tmp_path / "report.txt").read_text()
        blob = json.loads((tmp_path / "report.json").read_text())
        assert blob["n_truncated_sentences"] == 1
        assert blob["n_unscored_tokens"] == 17

    def test_empty_test_file_exit_2(self, workdir, tmp_path):
        empty = tmp_path / "empty.conll"
        empty.write_text("")
        code = run_cli(["eval", "--checkpoint",
                        str(workdir / "run" / "checkpoint.npz"),
                        "--test", str(empty), "--out", str(tmp_path)])
        assert code == 2


class TestPredict:
    def test_line_count_and_determinism(self, workdir, tmp_path):
        tokens = tmp_path / "tokens.txt"
        test_text = (workdir / "data" / "test.conll").read_text()
        tokens.write_text("\n".join(
            line.split()[0] if line.split() else ""
            for line in test_text.splitlines()) + "\n")
        n_tokens = sum(1 for l in test_text.splitlines() if l.strip())

        outs = []
        for sub, bs in (("p1.conll", "1"), ("p16.conll", "16")):
            out = tmp_path / sub
            assert run_cli(["predict", "--checkpoint",
                            str(workdir / "run" / "checkpoint.npz"),
                            "--input", str(tokens), "--output", str(out),
                            "--batch-size", bs]) == 0
            outs.append(out.read_text())
        assert outs[0] == outs[1]  # batch-size invariance
        lines = [l for l in outs[0].splitlines() if l.strip()]
        assert len(lines) == n_tokens
        assert all(len(l.split()) == 2 for l in lines)

    def test_truncation_noted_on_stderr(self, workdir, tmp_path, capsys):
        src = tmp_path / "long.txt"
        src.write_text("".join(f"t{i:02d}\n" for i in range(20)) + "\nt00\n")
        code = run_cli(["predict", "--checkpoint",
                        str(workdir / "run" / "checkpoint.npz"),
                        "--input", str(src)])
        out, err = capsys.readouterr()
        assert code == 0
        assert err == ("note: 1 of 2 sentences exceed max_len 16; their 4 "
                       "tail tokens are labelled O\n")
        blocks = out.split("\n\n")
        assert [len(b.splitlines()) for b in blocks] == [20, 1]
        assert all(l.endswith(" O") for l in blocks[0].splitlines()[16:])

    def test_empty_input(self, workdir, tmp_path):
        src = tmp_path / "empty.txt"
        src.write_text("")
        out = tmp_path / "pred.conll"
        assert run_cli(["predict", "--checkpoint",
                        str(workdir / "run" / "checkpoint.npz"),
                        "--input", str(src), "--output", str(out)]) == 0
        assert out.read_text() == ""

    def test_unknown_tokens_never_error(self, workdir, tmp_path):
        src = tmp_path / "oov.txt"
        src.write_text("zzz-never-seen\nanother-oov\n")
        out = tmp_path / "pred.conll"
        assert run_cli(["predict", "--checkpoint",
                        str(workdir / "run" / "checkpoint.npz"),
                        "--input", str(src), "--output", str(out)]) == 0
        assert len(out.read_text().splitlines()) == 2


class TestAblate:
    def test_csv_shape_on_tiny_budget(self, workdir, tmp_path):
        out = tmp_path / "abl"
        code = run_cli(["ablate", "--out", str(out), "--seeds", "0",
                        "--epochs", "1", "--hidden", "16", "--heads", "2"])
        assert code == 0
        lines = (out / "ablation.csv").read_text().splitlines()
        assert lines[0] == "variant,seed,micro_f1,macro_f1"
        assert len(lines) == 4  # header + 3 variants x 1 seed
        summary = (out / "summary.txt").read_text().splitlines()
        assert len(summary) == 3
        variants = [l.split()[0] for l in summary]
        assert variants == ["encoder", "gat", "full"]

    def test_non_integer_seed_exit_2(self, tmp_path, capsys):
        code = run_cli(["ablate", "--out", str(tmp_path / "abl"),
                        "--seeds", "a,b"])
        err = capsys.readouterr().err
        assert code == 2
        assert "'a'" in err and "Traceback" not in err


class TestExitCodes:
    @pytest.mark.parametrize("argv", OS_ERRORS.values(), ids=OS_ERRORS)
    def test_os_error_exit_2(self, workdir, tmp_path, capsys, monkeypatch,
                             argv):
        file = tmp_path / "plain.txt"
        file.write_text("x\n")
        paths = {"data": workdir / "data", "run": workdir / "run",
                 "file": file, "tmp": tmp_path}
        work = []  # a bad path must fail before any of the work
        monkeypatch.setattr(cli, "train", lambda *a: work.append("train"))
        monkeypatch.setattr(cli, "evaluate",
                            lambda *a, **kw: work.append("evaluate"))
        monkeypatch.setattr(cli, "predict_corpus",
                            lambda *a, **kw: work.append("predict"))
        code = run_cli([arg.format(**paths) for arg in argv])
        out, err = capsys.readouterr()
        assert code == 2
        assert err.startswith("error: ") and "Traceback" not in err
        assert work == [] and "epoch" not in out

    @pytest.mark.parametrize("command, source, sink", [
        ("eval", "--test", "--out"), ("predict", "--input", "--output")])
    def test_zero_batch_size_exit_2(self, workdir, tmp_path, capsys, command,
                                    source, sink):
        code = run_cli([command, "--checkpoint",
                        str(workdir / "run" / "checkpoint.npz"),
                        source, str(workdir / "data" / "test.conll"),
                        sink, str(tmp_path / "out"), "--batch-size", "0"])
        err = capsys.readouterr().err
        assert code == 2
        assert "batch_size must be >= 1" in err and "Traceback" not in err


    @pytest.mark.parametrize("newline", [b"\r\n", b"\r"], ids=["crlf", "cr"])
    @pytest.mark.parametrize("argv", [
        ["train", "--train", "{bad}", "--valid", "{data}/valid.conll",
         "--out", "{tmp}/o"],
        ["predict", "--checkpoint", "{run}/checkpoint.npz", "--input", "{bad}",
         "--output", "{tmp}/p"],
        ["train", "--train", "{data}/valid.conll", "--valid",
         "{data}/valid.conll", "--out", "{tmp}/o", "--config", "{bad}"],
    ], ids=["train", "predict-input", "config"])
    def test_non_utf8_error_names_file_and_line(self, workdir, tmp_path,
                                                capsys, argv, newline):
        bad = tmp_path / "bad.txt"
        bad.write_bytes(b"a O" + newline + newline + b"c\xff O\n")  # 0xff on line 3
        paths = {"bad": bad, "data": workdir / "data", "run": workdir / "run",
                 "tmp": tmp_path}
        code = run_cli([arg.format(**paths) for arg in argv])
        err = capsys.readouterr().err
        assert code == 2
        assert err == (f"error: line 3: {bad} is not UTF-8: byte 0xff "
                       f"(invalid start byte)\n")


    @pytest.mark.parametrize("argv", [
        ["train", "--train", "{bad}", "--valid", "{data}/valid.conll",
         "--out", "{tmp}/o"],
        ["train", "--train", "{data}/valid.conll", "--valid", "{bad}",
         "--out", "{tmp}/o"],
        ["eval", "--checkpoint", "{run}/checkpoint.npz", "--test", "{bad}",
         "--out", "{tmp}/e"],
        ["predict", "--checkpoint", "{run}/checkpoint.npz", "--input", "{bad}",
         "--output", "{tmp}/p"],
    ], ids=["train", "valid", "eval-test", "predict-input"])
    def test_parse_error_names_file_and_line(self, workdir, tmp_path, capsys,
                                             argv):
        bad = tmp_path / "bad.conll"
        bad.write_text("a O\nb O\n\nc d e\n")  # three fields on line 4
        paths = {"bad": bad, "data": workdir / "data", "run": workdir / "run",
                 "tmp": tmp_path}
        code = run_cli([arg.format(**paths) for arg in argv])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith(f"error: {bad}: line 4: expected 'token")
        assert "got 3 fields" in err

    @pytest.mark.parametrize("retype", [
        lambda a: np.full(a.shape, "x"), lambda a: a + 1j,
        lambda a: a.astype(np.int64), lambda a: a.astype(np.float32)],
        ids=["str", "complex128", "int64", "float32"])
    def test_checkpoint_entry_not_float64_exit_2(self, workdir, tmp_path,
                                                 capsys, retype):
        blob = dict(np.load(workdir / "run" / "checkpoint.npz",
                            allow_pickle=False))
        blob["params"] = retype(blob["params"])
        bad = tmp_path / "bad.npz"
        np.savez(bad, **blob)
        code = run_cli(["predict", "--checkpoint", str(bad), "--input",
                        str(workdir / "data" / "test.conll"),
                        "--output", str(tmp_path / "p")])
        err = capsys.readouterr().err
        assert code == 2
        assert "params" in err and "float64" in err
        assert "Traceback" not in err

    def test_version_2_checkpoint_exit_2(self, workdir, tmp_path, capsys):
        old = tmp_path / "v2.npz"
        write_version_2(workdir / "run" / "checkpoint.npz", old)
        code = run_cli(["predict", "--checkpoint", str(old), "--input",
                        str(workdir / "data" / "test.conll"),
                        "--output", str(tmp_path / "p")])
        err = capsys.readouterr().err
        assert code == 2
        assert "unsupported checkpoint version 2" in err and "retrain" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("threads", ["0", "two"])
    @pytest.mark.parametrize("argv", [
        ["train", "--train", "{data}/train.conll", "--valid",
         "{data}/valid.conll", "--out", "{tmp}/o", "--preset", "copy"],
        ["ablate", "--out", "{tmp}/o", "--seeds", "0", "--epochs", "1",
         "--hidden", "16", "--heads", "2"],
        ["eval", "--checkpoint", "{run}/checkpoint.npz", "--test",
         "{data}/test.conll", "--out", "{tmp}/o"],
        ["predict", "--checkpoint", "{run}/checkpoint.npz", "--input",
         "{data}/test.conll", "--output", "{tmp}/o"],
    ], ids=["train", "ablate", "eval", "predict"])
    def test_bad_thread_count_exits_before_any_work(
            self, workdir, tmp_path, capsys, monkeypatch, argv, threads):
        steps = []
        real_step = training.adamw_step
        monkeypatch.setattr(training, "adamw_step",
                            lambda *a: steps.append(1) or real_step(*a))
        monkeypatch.setenv("GRAPHFUSE_THREADS", threads)
        paths = {"data": workdir / "data", "run": workdir / "run",
                 "tmp": tmp_path}
        code = run_cli([arg.format(**paths) for arg in argv])
        err = capsys.readouterr().err
        assert code == 2 and steps == []
        assert err.startswith("error: GRAPHFUSE_THREADS must be")
        assert not (tmp_path / "o").exists()  # no output, not even empty

    def test_generate_ignores_thread_count(self, tmp_path, monkeypatch):
        monkeypatch.setenv("GRAPHFUSE_THREADS", "0")
        assert run_cli(["generate", "--task", "copy",
                        "--out", str(tmp_path / "d")]) == 0

    # sizes numpy refuses before it touches any memory; a size a machine
    # could grant (10**9 positions, say) must never be tried here
    @pytest.mark.parametrize("flags", [
        ["--max-len", str(10**15)], ["--max-len", str(10**20)],
        ["--hidden", str(10**15), "--heads", "1"]],
        ids=["max-len-1e15", "max-len-1e20", "hidden-1e15"])
    def test_unallocatable_model_exit_2(self, workdir, tmp_path, capsys,
                                        flags):
        data = workdir / "data"
        code = run_cli(["train", "--train", str(data / "train.conll"),
                        "--valid", str(data / "valid.conll"),
                        "--out", str(tmp_path / "o"), "--preset", "copy",
                        *flags])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: cannot allocate a model at max_len")
        assert err.count("\n") == 1
        assert not (tmp_path / "o").exists()

    def test_checkpoint_with_unallocatable_max_len_exit_2(
            self, workdir, tmp_path, capsys):
        blob = dict(np.load(workdir / "run" / "checkpoint.npz",
                            allow_pickle=False))
        meta = json.loads(str(blob["__meta__"]))
        meta["config"]["max_len"] = 10**15
        blob["__meta__"] = np.array(json.dumps(meta))
        bad = tmp_path / "huge.npz"
        np.savez(bad, **blob)
        code = run_cli(["predict", "--checkpoint", str(bad), "--input",
                        str(workdir / "data" / "test.conll"),
                        "--output", str(tmp_path / "p")])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith(f"error: cannot allocate a model at max_len "
                              f"{10**15}")
        assert err.count("\n") == 1

    def test_non_utf8_line_past_first_read_chunk(self, tmp_path):
        path = tmp_path / "long.conll"
        path.write_bytes(b"a O\r\n" * 5000 + b"c O\n\xfe O\n")
        with pytest.raises(ParseError, match=r"^line 5002: .* byte 0xfe "):
            cli._read_text(str(path))


# values of the wrong JSON type for any config or metadata key
RETYPES = ("x", None, [1], {}, True, 1.5)
# CoNLL lines that break the two-column format or its label set
BROKEN_LINES = (b"a b c", b"tok", b"tok I-", b"tok X-Y", b"\xff\xfe B-A",
                b"-DOCSTART- O")


def _pick(rng, items):
    return items[int(rng.integers(0, len(items)))]


def _drop_or_retype(rng, obj):
    """Delete one key of ``obj`` or give it a wrong-typed value; say which."""
    key = _pick(rng, sorted(obj))
    if rng.integers(0, 2):
        obj[key] = _pick(rng, RETYPES)
        return f"{key}={obj[key]!r}"
    del obj[key]
    return f"-{key}"


def mutants(workdir, tmp_path):
    """About 30 damaged inputs drawn from a fixed seed: (label, argv) pairs.

    A checkpoint cut short or with one flipped bit (anywhere, or inside a
    zip header), a checkpoint whose metadata lost or retyped a key, a
    config.json that lost or retyped a key and a CoNLL file with one broken
    line.
    """
    rng = RngState(13)
    run, data = workdir / "run", workdir / "data"
    ckpt = (run / "checkpoint.npz").read_bytes()
    with zipfile.ZipFile(io.BytesIO(ckpt)) as zf:
        headers = [info.header_offset for info in zf.infolist()]
    commands = {  # {m} is the mutant
        "eval": ["eval", "--checkpoint", "{m}", "--test", "{data}/test.conll",
                 "--out", "{tmp}/o"],
        "eval-conll": ["eval", "--checkpoint", "{run}/checkpoint.npz",
                       "--test", "{m}", "--out", "{tmp}/o"],
        "predict": ["predict", "--checkpoint", "{run}/checkpoint.npz",
                    "--input", "{m}", "--output", "{tmp}/p"],
        "train": ["train", "--train", "{data}/valid.conll", "--valid",
                  "{data}/valid.conll", "--out", "{tmp}/t", "--config",
                  "{m}", "--epochs", "1"],
    }
    out = []

    def add(label, blob, command):
        path = tmp_path / f"m{len(out)}"
        path.write_bytes(blob)
        paths = {"m": path, "run": run, "data": data, "tmp": tmp_path}
        out.append((f"{len(out)}: {label}",
                    [arg.format(**paths) for arg in commands[command]]))

    for _ in range(4):
        add("truncated", ckpt[:int(rng.integers(0, len(ckpt)))], "eval")
    for where in ["anywhere"] * 4 + ["zip header"] * 4:
        pos = (int(rng.integers(0, len(ckpt))) if where == "anywhere"
               else _pick(rng, headers) + int(rng.integers(0, 30)))
        blob = bytearray(ckpt)
        blob[pos] ^= 1 << int(rng.integers(0, 8))
        add(f"bit flipped at {pos} ({where})", bytes(blob), "eval")
    with np.load(io.BytesIO(ckpt), allow_pickle=False) as z:
        arrays = {k: z[k] for k in z.files}
    for _ in range(6):
        meta = json.loads(str(arrays["__meta__"]))
        part = _pick(rng, [None, "config", "token_vocab", "label_vocab"])
        label = _drop_or_retype(rng, meta if part is None else meta[part])
        buf = io.BytesIO()
        np.savez(buf, **{**arrays, "__meta__": np.array(json.dumps(meta))})
        add(f"metadata {part or 'top'}: {label}", buf.getvalue(), "eval")
    for _ in range(6):
        config = json.loads((run / "config.json").read_text())
        section = _pick(rng, ["model", "train"])
        label = _drop_or_retype(rng, config[section])
        add(f"config.json {section}: {label}", json.dumps(config).encode(),
            "train")
    conll = (data / "test.conll").read_bytes().split(b"\n")
    for command in ["eval-conll"] * 3 + ["predict"] * 3:
        lines = list(conll)
        at = int(rng.integers(0, len(lines)))
        lines[at] = _pick(rng, BROKEN_LINES)
        add(f"CoNLL line {at + 1} = {lines[at]!r}", b"\n".join(lines), command)
    return out


class TestMutants:
    def test_damaged_inputs_exit_0_or_2(self, workdir, tmp_path, capsys):
        bad = []
        for label, argv in mutants(workdir, tmp_path):
            try:
                code = run_cli(argv)
            except Exception as exc:  # main() let it escape: a traceback
                code = repr(exc)
            err = capsys.readouterr().err
            if code not in (0, 2) or "Traceback" in err:
                bad.append((label, code))
        assert bad == []


class TestUsage:
    def test_no_command_is_usage_error(self):
        with pytest.raises(SystemExit) as exc_info:
            run_cli([])
        assert exc_info.value.code == 2

    def test_bad_variant_rejected(self):
        with pytest.raises(SystemExit) as exc_info:
            run_cli(["train", "--train", "x", "--valid", "y", "--out", "z",
                     "--variant", "bert"])
        assert exc_info.value.code == 2
