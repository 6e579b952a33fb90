"""End-to-end command tests, all in-process through cli.main."""

import argparse
import base64
import hashlib
import json
import re

import numpy as np
import pytest

from spikeprune import (RandomStream, gen_keyword_task, load_checkpoint,
                        save_jsonl)
from spikeprune import cli

# small enough to train in well under a second, large enough that the
# spatial floor (1 head + 1 neuron per layer) sits below the sweep budgets
FAST_CFG = """\
num_layers = 1
hidden_size = 8
num_heads = 4
intermediate_size = 16
seq_len = 4
vocab_size = 8
t_conv = 10
epochs = 1
learning_rate = 0.05
train_batch = 16
test_batch = 32
train_examples = 48
test_examples = 24
pca_interval = 0
eta = 0.001
lambda = 5e-9
"""


@pytest.fixture(scope="module")
def ws(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    cfg = root / "fast.cfg"
    cfg.write_text(FAST_CFG)
    base = root / "base.json"
    assert cli.main(["train", "--config", str(cfg), "--out", str(base)]) == 0
    spatial = root / "spatial.json"
    assert cli.main(["prune-spatial", "--checkpoint", str(base),
                     "--out", str(spatial), "--constraint", "0.6",
                     "--calib", "64"]) == 0
    temporal = root / "temporal.json"
    assert cli.main(["prune-temporal", "--checkpoint", str(spatial),
                     "--out", str(temporal), "--base", "1.3",
                     "--calib", "64"]) == 0
    return {"root": root, "cfg": str(cfg), "base": str(base),
            "spatial": str(spatial), "temporal": str(temporal)}


class TestTrain:
    def test_writes_checkpoint_and_history(self, ws, tmp_path, capsys):
        out = tmp_path / "m.json"
        hist = tmp_path / "h.csv"
        rc = cli.main(["train", "--config", ws["cfg"], "--out", str(out),
                       "--history", str(hist)])
        assert rc == 0
        txt = capsys.readouterr().out
        assert "epoch 0:" in txt and f"saved {out}" in txt
        model, masks, plan = load_checkpoint(str(out))
        assert model.config.hidden_size == 8
        assert plan.max_timesteps() == 10
        header = hist.read_text().splitlines()[0]
        assert header.startswith("epoch,loss,accuracy,acs_ratio,"
                                 "normalized_c,mean_timesteps")
        assert "asr_layer_0" in header
        assert len(hist.read_text().splitlines()) == 2

    def test_rerun_is_byte_identical(self, ws, tmp_path):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        assert cli.main(["train", "--config", ws["cfg"], "--out", str(a)]) == 0
        assert cli.main(["train", "--config", ws["cfg"], "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_jsonl_data_accepted(self, ws, tmp_path, capsys):
        data = gen_keyword_task(8, 4, 32, RandomStream(1))
        test = gen_keyword_task(8, 4, 16, RandomStream(2))
        dpath = tmp_path / "train.jsonl"
        tpath = tmp_path / "test.jsonl"
        save_jsonl(str(dpath), data)
        save_jsonl(str(tpath), test)
        out = tmp_path / "m.json"
        rc = cli.main(["train", "--config", ws["cfg"], "--out", str(out),
                       "--data", str(dpath), "--test-data", str(tpath)])
        assert rc == 0
        assert "test accuracy" in capsys.readouterr().out

    def test_example_counts_accepted(self, ws, tmp_path):
        """--data and --test-data take a synthetic example count, as eval's --data does."""
        out = tmp_path / "m.json"
        rc = cli.main(["train", "--config", ws["cfg"], "--out", str(out),
                       "--data", "40", "--test-data", "12"])
        assert rc == 0 and out.exists()

    def test_unknown_config_fails(self, tmp_path, capsys):
        rc = cli.main(["train", "--config", "no_such_preset",
                       "--out", str(tmp_path / "x.json")])
        assert rc == 1
        assert "error:" in capsys.readouterr().err


class TestPruneSpatial:
    def test_respects_budget_and_reports_ratio(self, ws, capsys):
        model, masks, plan = load_checkpoint(ws["spatial"])
        from spikeprune import acs_total
        ratio = acs_total(model.config, masks, plan).ratio
        assert ratio <= 0.6 * (1 + 1e-12)
        heads, neurons = masks.active_counts()
        assert heads[0] >= 1 and neurons[0] >= 1
        assert heads[0] < 4 or neurons[0] < 16

    def test_constraint_one_keeps_everything(self, ws, tmp_path, capsys):
        out = tmp_path / "full.json"
        rc = cli.main(["prune-spatial", "--checkpoint", ws["base"],
                       "--out", str(out), "--constraint", "1.0",
                       "--calib", "32"])
        assert rc == 0
        _, masks, _ = load_checkpoint(str(out))
        assert all((h == 1).all() for h in masks.heads)
        assert all((n == 1).all() for n in masks.neurons)

    def test_infeasible_budget_exits_1(self, ws, tmp_path, capsys):
        rc = cli.main(["prune-spatial", "--checkpoint", ws["base"],
                       "--out", str(tmp_path / "x.json"),
                       "--constraint", "0.01", "--calib", "32"])
        assert rc == 1
        assert "infeasible" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["1.5", "nan", "0", "-0.2", "inf", "x"])
    def test_bad_constraint_is_usage_error(self, tmp_path, capsys, value):
        """Refused as the command line is parsed, naming the flag: the
        checkpoint does not exist, so a later check would exit 1 instead."""
        with pytest.raises(SystemExit) as exc:
            cli.main(["prune-spatial", "--checkpoint", str(tmp_path / "nope.json"),
                      "--out", str(tmp_path / "x.json"), "--constraint", value])
        assert exc.value.code == 2
        assert "--constraint" in capsys.readouterr().err

    def test_missing_checkpoint_exits_1(self, tmp_path, capsys):
        rc = cli.main(["prune-spatial", "--checkpoint",
                       str(tmp_path / "nope.json"),
                       "--out", str(tmp_path / "x.json")])
        assert rc == 1
        assert "error:" in capsys.readouterr().err


class TestPruneTemporal:
    def test_lists_complexity_and_budget_per_sublayer(self, ws, tmp_path, capsys):
        out = tmp_path / "t.json"
        rc = cli.main(["prune-temporal", "--checkpoint", ws["spatial"],
                       "--out", str(out), "--base", "1.3", "--calib", "64"])
        assert rc == 0
        txt = capsys.readouterr().out
        rows = re.findall(r"(L\d+\.\w+): c=(\d+) t=(\d+)", txt)
        assert [r[0] for r in rows] == [f"L0.{n}" for n in
                                        ("key", "value", "attn", "fc",
                                         "inter", "output")]
        assert "mean timesteps" in txt
        _, _, plan = load_checkpoint(str(out))
        assert [int(r[2]) for r in rows] == plan.flat().tolist()
        assert plan.max_timesteps() <= 10
        assert plan.steps.min() >= 1

    def test_rho_scales_the_plan(self, ws, tmp_path):
        out = tmp_path / "r.json"
        rc = cli.main(["prune-temporal", "--checkpoint", ws["spatial"],
                       "--out", str(out), "--base", "1.3", "--calib", "64",
                       "--rho", "0.5"])
        assert rc == 0
        _, _, full = load_checkpoint(ws["temporal"])
        _, _, halved = load_checkpoint(str(out))
        expect = np.maximum(1, np.floor(0.5 * full.steps)).astype(np.int64)
        assert np.array_equal(halved.steps, expect)

    @pytest.mark.parametrize("flag,value", [
        ("--base", "1.0"), ("--base", "0.9"), ("--base", "x"),
        ("--rho", "0"), ("--rho", "1.5"), ("--rho", "y"),
        ("--base", "nan"), ("--base", "inf"), ("--variance", "0"), ("--variance", "nan"),
    ])
    def test_bad_flag_values_are_usage_errors(self, ws, tmp_path, flag, value):
        with pytest.raises(SystemExit) as exc:
            cli.main(["prune-temporal", "--checkpoint", ws["spatial"],
                      "--out", str(tmp_path / "x.json"), flag, value])
        assert exc.value.code == 2


class TestRetrain:
    def test_recovers_on_pruned_checkpoint(self, ws, tmp_path, capsys):
        out = tmp_path / "rt.json"
        rc = cli.main(["retrain", "--checkpoint", ws["temporal"],
                       "--config", ws["cfg"], "--out", str(out),
                       "--epochs", "1", "--lr", "0.01"])
        assert rc == 0
        assert "test accuracy" in capsys.readouterr().out
        model, masks, plan = load_checkpoint(str(out))
        base_model, _, _ = load_checkpoint(ws["temporal"])
        assert not np.array_equal(model.embedding, base_model.embedding)
        assert plan.steps.tolist() == load_checkpoint(ws["temporal"])[2].steps.tolist()

    def test_fixed_vth_freezes_thresholds(self, ws, tmp_path):
        out = tmp_path / "fv.json"
        rc = cli.main(["retrain", "--checkpoint", ws["temporal"],
                       "--config", ws["cfg"], "--out", str(out),
                       "--epochs", "1", "--lr", "0.01", "--fixed-vth"])
        assert rc == 0
        model, _, _ = load_checkpoint(str(out))
        before, _, _ = load_checkpoint(ws["temporal"])
        assert np.array_equal(model.layers[0].vth, before.layers[0].vth)


class TestEval:
    def test_deterministic_json_result(self, ws, tmp_path, capsys):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        args = ["eval", "--checkpoint", ws["temporal"], "--data", "40",
                "--batch", "16"]
        assert cli.main(args + ["--out", str(a)]) == 0
        printed = capsys.readouterr().out
        assert cli.main(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()
        result = json.loads(a.read_text())
        assert set(result) == {"accuracy", "acs_ratio", "normalized_c",
                               "mean_timesteps", "examples"}
        assert 0.0 <= result["accuracy"] <= 1.0
        assert result["examples"] == 40
        assert json.loads(printed) == result
        # example j draws from the same stream at every batch size, so --batch
        # moves only normalized_c's rounding (its rates sum chunk by chunk)
        for batch in ("1", "7", "40"):
            out = tmp_path / f"batch{batch}.json"
            assert cli.main(args[:-1] + [batch, "--out", str(out)]) == 0
            other = json.loads(out.read_text())
            for key in ("accuracy", "acs_ratio", "mean_timesteps", "examples"):
                assert other[key] == result[key], (batch, key)
            assert other["normalized_c"] == pytest.approx(result["normalized_c"],
                                                          rel=1e-12, abs=0)

    def test_jsonl_input(self, ws, tmp_path):
        data = gen_keyword_task(8, 4, 20, RandomStream(4))
        path = tmp_path / "d.jsonl"
        save_jsonl(str(path), data)
        rc = cli.main(["eval", "--checkpoint", ws["temporal"],
                       "--data", str(path), "--batch", "8"])
        assert rc == 0

    def test_bad_count_exits_1(self, ws, capsys):
        rc = cli.main(["eval", "--checkpoint", ws["temporal"], "--data", "0"])
        assert rc == 1
        assert "positive" in capsys.readouterr().err


class TestReport:
    def test_writes_curves_sweep_and_summary(self, ws, tmp_path, capsys):
        out_dir = tmp_path / "report"
        rc = cli.main(["report", "--checkpoint", ws["spatial"],
                       "--out-dir", str(out_dir), "--calib", "48",
                       "--batch", "16"])
        assert rc == 0
        curves = (out_dir / "asr_layers.csv").read_text().splitlines()
        assert curves[0] == "timestep,layer_0"
        assert len(curves) == 11      # header + t_conv rows
        sweep = (out_dir / "constraint_sweep.csv").read_text().splitlines()
        assert sweep[0] == "constraint,acs_ratio,accuracy"
        assert len(sweep) == 9        # header + 8 budgets
        for line in sweep[1:]:
            constraint, ratio, acc = map(float, line.split(","))
            assert ratio <= constraint * (1 + 1e-12)
            assert 0.0 <= acc <= 1.0
        summary = json.loads((out_dir / "report.json").read_text())
        assert {"config", "active_heads", "active_neurons", "timestep_plan",
                "acs_total", "acs_ratio", "normalized_c", "mean_timesteps",
                "proxy_accuracy"} <= set(summary)
        assert summary["timestep_plan"]["key"] == [10]


class TestAblate:
    def test_activity_study(self, ws, tmp_path, capsys):
        out = tmp_path / "act.json"
        rc = cli.main(["ablate", "--study", "activity", "--config", ws["cfg"],
                       "--epochs", "1", "--out", str(out)])
        assert rc == 0
        result = json.loads(out.read_text())
        assert result["study"] == "activity"
        for side in ("with_activity", "without_activity"):
            assert set(result[side]) == {"eta", "accuracy", "group_asr",
                                         "normalized_c"}
            assert set(result[side]["group_asr"]) == {"key_value", "attn",
                                                      "fc", "inter_output"}
        assert isinstance(result["asr_lower_groups"], list)
        assert isinstance(result["normalized_c_lower"], bool)

    def test_adaptive_vth_study(self, ws, tmp_path, capsys):
        out = tmp_path / "vth.json"
        rc = cli.main(["ablate", "--study", "adaptive-vth",
                       "--config", ws["cfg"], "--epochs", "1",
                       "--out", str(out)])
        assert rc == 0
        result = json.loads(out.read_text())
        assert result["scaled_mean_timesteps"] < 10
        for side in ("adaptive_vth", "fixed_vth"):
            assert set(result[side]) == {"accuracy", "recovered",
                                         "recovered_at_least_half"}

    def test_joint_study(self, ws, tmp_path, capsys):
        out = tmp_path / "joint.json"
        rc = cli.main(["ablate", "--study", "joint", "--config", ws["cfg"],
                       "--epochs", "1", "--out", str(out)])
        assert rc == 0
        result = json.loads(out.read_text())
        for side in ("two_stage", "joint"):
            assert set(result[side]) == {"accuracy", "acs_ratio"}
            assert 0.0 <= result[side]["accuracy"] <= 1.0

    def test_unknown_study_is_usage_error(self, ws):
        with pytest.raises(SystemExit) as exc:
            cli.main(["ablate", "--study", "bogus", "--config", ws["cfg"]])
        assert exc.value.code == 2

    @pytest.mark.parametrize("epochs", ["0", "-1", "one"])
    def test_non_positive_epochs_is_usage_error(self, ws, tmp_path, capsys, epochs):
        out = tmp_path / "act.json"
        with pytest.raises(SystemExit) as exc:
            cli.main(["ablate", "--study", "activity", "--config", ws["cfg"],
                      "--epochs", epochs, "--out", str(out)])
        assert exc.value.code == 2
        assert "epochs" in capsys.readouterr().err
        assert not out.exists()

    def test_zero_epochs_from_config_is_an_error(self, tmp_path, capsys):
        cfg = tmp_path / "zero.cfg"
        cfg.write_text(FAST_CFG.replace("epochs = 1", "epochs = 0"))
        out = tmp_path / "act.json"
        rc = cli.main(["ablate", "--study", "activity", "--config", str(cfg),
                       "--out", str(out)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "epoch" in err
        assert not out.exists()


class TestUsage:
    def test_unknown_command(self):
        with pytest.raises(SystemExit) as exc:
            cli.main(["frobnicate"])
        assert exc.value.code == 2

    def test_no_command(self):
        with pytest.raises(SystemExit) as exc:
            cli.main([])
        assert exc.value.code == 2

    @pytest.mark.parametrize("argv", [
        ["eval"], ["prune-spatial", "--out", "x.json"], ["report", "--out-dir", "x"],
    ])
    @pytest.mark.parametrize("batch", ["0", "-2", "two"])
    def test_non_positive_batch_is_usage_error(self, ws, tmp_path, argv, batch):
        argv = [a if a not in ("x.json", "x") else str(tmp_path / a) for a in argv]
        with pytest.raises(SystemExit) as exc:
            cli.main(argv + ["--checkpoint", ws["temporal"], "--batch", batch])
        assert exc.value.code == 2

    @pytest.mark.parametrize("argv", [
        ["eval", "--data"], ["prune-spatial", "--out", "x.json", "--calib"],
        ["prune-temporal", "--out", "x.json", "--calib"],
        ["report", "--out-dir", "x", "--calib"],
        ["train", "--config", "fast", "--out", "x.json", "--test-data"],
        ["retrain", "--config", "fast", "--out", "x.json", "--data"],
    ])
    def test_empty_dataset_exits_1(self, ws, tmp_path, capsys, argv):
        """The empty file is refused, by path, before any training runs."""
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        subs = {"x.json": str(tmp_path / "x.json"), "x": str(tmp_path / "x"),
                "fast": ws["cfg"]}
        argv = [subs.get(a, a) for a in argv] + [str(empty)]
        if argv[0] != "train":
            argv += ["--checkpoint", ws["temporal"]]
        rc = cli.main(argv)
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and "no examples" in captured.err
        assert str(empty) in captured.err and "epoch" not in captured.out

    @pytest.mark.parametrize("epochs", ["0", "-1", "one"])
    @pytest.mark.parametrize("command", ["train", "retrain"])
    def test_non_positive_training_epochs_is_usage_error(self, ws, tmp_path, capsys,
                                                         command, epochs):
        out = tmp_path / "m.json"
        argv = [command, "--config", ws["cfg"], "--out", str(out), "--epochs", epochs]
        if command == "retrain":
            argv += ["--checkpoint", ws["temporal"]]
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2
        assert "epochs" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["train", "retrain"])
    def test_zero_training_epochs_from_config_is_an_error(self, ws, tmp_path, capsys,
                                                          command):
        cfg = tmp_path / "zero.cfg"
        cfg.write_text(FAST_CFG.replace("epochs = 1", "epochs = 0"))
        out = tmp_path / "m.json"
        argv = [command, "--config", str(cfg), "--out", str(out)]
        if command == "retrain":
            argv += ["--checkpoint", ws["temporal"]]
        assert cli.main(argv) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error:") and "epoch" in captured.err
        assert "nan" not in captured.out
        assert not out.exists()


def _with_byte_ff(data: bytes) -> bytes:
    """data with its middle byte set to 0xff, which no UTF-8 text holds."""
    mid = len(data) // 2
    return data[:mid] + b"\xff" + data[mid + 1:]


class TestBadBytes:
    """Files that are not UTF-8 or nest past the parser's depth end in the
    package's error and exit code 1, not in a traceback."""

    @pytest.mark.parametrize("case", ["checkpoint-ff", "checkpoint-nesting", "data-ff",
                                      "data-nesting", "config-ff"])
    def test_one_error_line_and_exit_1(self, ws, tmp_path, capsys, case):
        with open(ws["temporal"], "rb") as fh:
            checkpoint = fh.read()
        rows = b'{"tokens": [0, 1, 2], "label": 0}\n{"tokens": [0, 3], "label": 1}\n'
        bad = tmp_path / "bad"
        bad.write_bytes({
            "checkpoint-ff": _with_byte_ff(checkpoint),
            "checkpoint-nesting": b"[" * 100000,
            "data-ff": _with_byte_ff(rows),
            "data-nesting": rows + b"[" * 100000 + b"\n",
            "config-ff": _with_byte_ff(FAST_CFG.encode("utf-8")),
        }[case])
        if case.startswith("checkpoint"):
            argv = ["eval", "--checkpoint", str(bad), "--data", "2"]
        elif case.startswith("data"):
            argv = ["eval", "--checkpoint", ws["temporal"], "--data", str(bad)]
        else:
            argv = ["train", "--config", str(bad), "--out", str(tmp_path / "m.json")]
        assert cli.main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), captured.err
        # the message names the file, or for a dataset the line, and the cause
        where = {"data-ff": "line 1: ", "data-nesting": "line 3: "}.get(case, f"{bad}: ")
        assert lines[0].startswith(f"error: {where}"), lines[0]
        cause = "'utf-8' codec can't decode byte 0xff" if case.endswith("ff") else "recursion"
        assert cause in lines[0], lines[0]

    def test_non_printable_array_key_is_one_line(self, ws, tmp_path, capsys):
        """An array key holding a newline, with a digest that matches, is
        refused by its repr, on one line."""
        with open(ws["temporal"], encoding="utf-8") as fh:
            doc = json.load(fh)
        records = doc["arrays"]
        records["a\nb"] = records["cls_b"]
        digest = hashlib.sha256()
        for key in sorted(records):
            digest.update(base64.b64decode(records[key]["f8"]))
        doc["sha256"] = digest.hexdigest()
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc), encoding="utf-8")
        assert cli.main(["eval", "--checkpoint", str(bad), "--data", "2"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            "error: checkpoint.arrays: key 'a\\nb' is not printable"]


# every subcommand's (option strings, default, required), written out literally
# so that moving declarations between parsers cannot change the interface
PARSER_TABLE = {
    "train": [("--config", None, True), ("--data", None, False),
              ("--epochs", None, False), ("--eta", None, False),
              ("--history", None, False), ("--lr", None, False),
              ("--out", None, True), ("--seed", None, False),
              ("--test-data", None, False)],
    "prune-spatial": [("--batch", 32, False), ("--calib", "256", False),
                      ("--checkpoint", None, True), ("--constraint", 0.6, False),
                      ("--out", None, True), ("--seed", 0, False)],
    "prune-temporal": [("--base", None, False), ("--calib", "256", False),
                       ("--checkpoint", None, True), ("--out", None, True),
                       ("--rho", 1.0, False), ("--seed", 0, False),
                       ("--variance", None, False)],
    "retrain": [("--checkpoint", None, True), ("--config", None, True),
                ("--data", None, False), ("--epochs", None, False),
                ("--eta", None, False), ("--fixed-vth", False, False),
                ("--history", None, False), ("--lr", None, False),
                ("--out", None, True), ("--penalty-epochs", None, False),
                ("--seed", None, False), ("--test-data", None, False)],
    "eval": [("--batch", 128, False), ("--checkpoint", None, True),
             ("--data", "500", False), ("--out", None, False), ("--seed", 0, False)],
    "report": [("--batch", 32, False), ("--calib", "256", False),
               ("--checkpoint", None, True), ("--out-dir", None, True),
               ("--seed", 0, False)],
    "ablate": [("--config", None, True), ("--epochs", None, False),
               ("--out", None, False), ("--seed", None, False),
               ("--study", None, True)],
}


def test_parser_table():
    parser = cli.build_parser()
    sub = next(a for a in parser._actions
               if isinstance(a, argparse._SubParsersAction))
    got = {name: sorted((*p.option_strings, p.default, p.required)
                        for p in command._actions if p.dest != "help")
           for name, command in sub.choices.items()}
    assert got == PARSER_TABLE
    study = next(a for a in sub.choices["ablate"]._actions if a.dest == "study")
    assert study.choices == ["activity", "adaptive-vth", "joint"]
