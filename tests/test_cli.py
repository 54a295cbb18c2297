"""CLI surface: configs, subcommands, file formats, exit codes."""

import json

import numpy as np
import pytest

from noisyfed.cli import main
from noisyfed.config import (ConfigError, load_config, parse_config, preset,
                             preset_documents, serialize, write_presets)


def tiny_doc(**overrides):
    doc = {
        "task": "regression_v5a",
        "mode": "fedavg",
        "data": {"m": 600, "d": 12, "seed": 3, "label_noise_variance": 0.05},
        "fedavg": {"n": 10, "r": 4, "E": 2, "K": 8, "gamma": 18.0, "batch_size": 8},
        "uplink": {"kind": "constant", "base_std": 0.2},
        "downlink": {"kind": "constant", "base_std": 0.2},
        "repeat_seeds": [1, 2],
        "out_prefix": "out/tiny",
    }
    doc.update(overrides)
    return doc


def write_doc(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc, indent=1))
    return str(path)


class TestConfigParsing:
    def test_round_trip_is_stable(self, tmp_path):
        cfg = parse_config(json.dumps(tiny_doc()))
        text = serialize(cfg)
        again = parse_config(text)
        assert again == cfg
        assert serialize(again) == text

    def test_unknown_key_rejected_with_line(self):
        doc = tiny_doc()
        doc["fedavg"]["cohort"] = 3
        with pytest.raises(ConfigError, match=r"config:\d+: unknown key fedavg.cohort"):
            parse_config(json.dumps(doc, indent=1))

    def test_invalid_json_carries_line(self):
        with pytest.raises(ConfigError, match=r"config:2:"):
            parse_config('{\n "task": regression\n}')

    def test_nested_invariants_checked(self):
        bad = tiny_doc()
        bad["fedavg"]["r"] = 99
        with pytest.raises(ConfigError, match="fedavg"):
            parse_config(json.dumps(bad))
        bad = tiny_doc()
        bad["uplink"] = {"kind": "constant", "base_std": -1.0}
        with pytest.raises(ConfigError, match="uplink"):
            parse_config(json.dumps(bad))

    def test_sgd_mode_needs_block(self):
        with pytest.raises(ConfigError, match="sgd"):
            parse_config(json.dumps(tiny_doc(mode="sgd")))

    def test_presets_all_parse(self, tmp_path):
        paths = write_presets(tmp_path / "configs")
        assert len(paths) == len(preset_documents())
        for p in paths:
            load_config(p)


class TestRunCommand:
    def test_writes_metrics_and_summary(self, tmp_path, capsys):
        cfgp = write_doc(tmp_path, tiny_doc())
        out = str(tmp_path / "o" / "run")
        assert main(["run", "--config", cfgp, "--out", out]) == 0
        for seed in (1, 2):
            lines = (tmp_path / "o" / f"run_seed{seed}.csv").read_text().splitlines()
            assert lines[0] == ("round,train_loss,grad_norm_sq,uplink_var,"
                                "downlink_var,snr_up,snr_down,diverged")
            assert len(lines) == 1 + 8
        summary = json.loads((tmp_path / "o" / "run_summary.json").read_text())
        assert summary["theory_eta"] is True
        assert summary["bound_report"]["bound_holds"] is True
        assert set(summary["k_star"]) == {"1", "2"}

    def test_byte_identical_reruns(self, tmp_path):
        cfgp = write_doc(tmp_path, tiny_doc())
        out = str(tmp_path / "o" / "run")
        main(["run", "--config", cfgp, "--out", out])
        first = {p.name: p.read_bytes() for p in (tmp_path / "o").iterdir()}
        main(["run", "--config", cfgp, "--out", out])
        second = {p.name: p.read_bytes() for p in (tmp_path / "o").iterdir()}
        assert first == second

    def test_seed_override_runs_single_seed(self, tmp_path):
        cfgp = write_doc(tmp_path, tiny_doc())
        out = str(tmp_path / "s" / "run")
        assert main(["run", "--config", cfgp, "--out", out, "--seed-override", "7"]) == 0
        files = sorted(p.name for p in (tmp_path / "s").iterdir())
        assert files == ["run_seed7.csv", "run_summary.json"]

    def test_invalid_config_exits_2(self, tmp_path, capsys):
        bad = tiny_doc()
        bad["fedavg"]["gamma"] = 2.0
        cfgp = write_doc(tmp_path, bad)
        assert main(["run", "--config", cfgp]) == 2
        err = capsys.readouterr().err
        assert "config.json" in err and "gamma" in err
        assert not (tmp_path / "out").exists()  # no partial outputs

    def test_missing_config_exits_2(self, tmp_path):
        assert main(["run", "--config", str(tmp_path / "nope.json")]) == 2

    @pytest.mark.parametrize("where", ["repeat_seeds", "data.seed"])
    def test_negative_seed_rejected_with_line(self, tmp_path, capsys, where):
        doc = tiny_doc()
        if where == "repeat_seeds":
            doc["repeat_seeds"] = [1, -2]
        else:
            doc["data"]["seed"] = -3
        cfgp = write_doc(tmp_path, doc)
        out = str(tmp_path / "o" / "run")
        assert main(["run", "--config", cfgp, "--out", out]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {cfgp}:")
        line = int(err.split(":")[2])
        key = '"repeat_seeds"' if where == "repeat_seeds" else '"seed"'
        assert key in (tmp_path / "config.json").read_text().splitlines()[line - 1]
        assert f"{where} must be >= 0" in err
        assert not (tmp_path / "o").exists()

    def test_negative_seed_override_rejected(self, tmp_path, capsys):
        cfgp = write_doc(tmp_path, tiny_doc())
        out = str(tmp_path / "o" / "run")
        assert main(["run", "--config", cfgp, "--out", out, "--seed-override", "-1"]) == 2
        assert capsys.readouterr().err.startswith("error: --seed-override must be >= 0")
        assert not (tmp_path / "o").exists()

    def test_divergence_is_still_success(self, tmp_path, capsys):
        doc = tiny_doc()
        doc["fedavg"]["learning_rate_override"] = 5.0
        doc["fedavg"]["K"] = 40
        cfgp = write_doc(tmp_path, doc)
        out = str(tmp_path / "d" / "run")
        assert main(["run", "--config", cfgp, "--out", out]) == 0
        rows = (tmp_path / "d" / "run_seed1.csv").read_text().splitlines()
        assert rows[-1].endswith(",1")  # sentinel row carries the diverged flag


def classification_doc(block, key, value):
    doc = preset_documents()["classification_noniid"]
    doc[block] = dict(doc[block], **{key: value})
    return doc


class TestBadClassificationInput:
    """Inputs that used to escape as a traceback: exit 2, an error line, no outputs."""

    @pytest.mark.parametrize("block, key, value, message", [
        ("data", "d", 0, "need d >= 1"),
        ("data", "labels_per_client", 0, "need labels_per_client >= 1"),
        ("data", "labels_per_client", 200, "too few examples to slice"),
        ("fedavg", "batch_size", 500, "batch_size exceeds a client shard"),
        ("fedavg", "learning_rate_override", True, "fedavg.learning_rate_override has wrong type"),
        ("fedavg", "learning_rate_override", False, "fedavg.learning_rate_override has wrong type"),
    ])
    def test_run_exits_2(self, tmp_path, capsys, block, key, value, message):
        cfgp = write_doc(tmp_path, classification_doc(block, key, value))
        out = tmp_path / "o"
        assert main(["run", "--config", cfgp, "--out", str(out / "run")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {cfgp}:") and message in err
        assert not out.exists()

    @pytest.mark.parametrize("key", ["d", "labels_per_client"])
    def test_parse_reports_the_line(self, key):
        text = json.dumps(classification_doc("data", key, 0), indent=1)
        with pytest.raises(ConfigError, match=rf"need {key} >= 1") as info:
            parse_config(text)
        line = int(str(info.value).split(":")[1])
        assert f'"{key}"' in text.splitlines()[line - 1]

    def test_bounds_exits_2(self, tmp_path, capsys):
        cfgp = write_doc(tmp_path, classification_doc("data", "labels_per_client", 200))
        assert main(["bounds", "--config", cfgp]) == 2
        assert capsys.readouterr().err.startswith(f"error: {cfgp}:")


class TestSweepCommand:
    def test_single_value_degenerates_to_three_runs(self, tmp_path):
        cfgp = write_doc(tmp_path, tiny_doc())
        out = str(tmp_path / "sw" / "s")
        assert main(["sweep", "--config", cfgp, "--axis", "r", "--values", "4",
                     "--out", out]) == 0
        rows = (tmp_path / "sw" / "s_sweep_r.csv").read_text().splitlines()
        assert rows[0] == "axis,value,variant,final_loss,excess"
        assert len(rows) == 4
        variants = [r.split(",")[2] for r in rows[1:]]
        assert variants == ["noise_free", "uplink_only", "downlink_only"]

    def test_sweep_needs_noisy_base_config(self, tmp_path):
        doc = tiny_doc(uplink={"kind": "off"})
        cfgp = write_doc(tmp_path, doc)
        assert main(["sweep", "--config", cfgp, "--axis", "r", "--values", "2,4"]) == 2

    def test_out_of_range_value_rejected(self, tmp_path):
        cfgp = write_doc(tmp_path, tiny_doc())
        assert main(["sweep", "--config", cfgp, "--axis", "r", "--values", "99"]) == 2

    def test_non_integer_value_rejected(self, tmp_path, capsys):
        cfgp = write_doc(tmp_path, tiny_doc())
        out = str(tmp_path / "sw" / "s")
        assert main(["sweep", "--config", cfgp, "--axis", "r", "--values", "10,x",
                     "--out", out]) == 2
        assert capsys.readouterr().err.startswith("error: --values")
        assert not (tmp_path / "sw").exists()


class TestBoundsCommand:
    def test_noise_free_total_is_leading_plus_variance(self, tmp_path, capsys):
        doc = tiny_doc(uplink={"kind": "off"}, downlink={"kind": "off"})
        cfgp = write_doc(tmp_path, doc)
        assert main(["bounds", "--config", cfgp, "--csv"]) == 0
        got = dict(line.split(",") for line in
                   capsys.readouterr().out.strip().splitlines()[1:])
        assert float(got["term_uplink"]) == 0.0
        assert float(got["term_downlink"]) == 0.0
        assert float(got["total"]) == pytest.approx(
            float(got["leading"]) + float(got["term_sgd_variance"]), rel=1e-9)
        assert float(got["K_meets_min_rounds"]) == 1.0

    def test_constant_noise_downlink_dominates(self, tmp_path, capsys):
        cfgp = write_doc(tmp_path, tiny_doc())
        assert main(["bounds", "--config", cfgp, "--csv"]) == 0
        got = dict(line.split(",") for line in
                   capsys.readouterr().out.strip().splitlines()[1:])
        assert float(got["term_downlink"]) > 10 * float(got["term_uplink"])


class TestPowerCommand:
    def test_reference_ratio(self, capsys):
        assert main(["power", "100", "5", "--csv"]) == 0
        rows = [line.split(",") for line in capsys.readouterr().out.strip().splitlines()]
        assert rows[0] == ["link", "policy_budget", "reference_budget", "ratio"]
        table = {r[0]: [float(v) for v in r[1:]] for r in rows[1:]}
        assert table["uplink"][2] == pytest.approx(0.133, abs=1e-3)
        assert table["downlink"][2] == pytest.approx(25.0)

    def test_single_round(self, capsys):
        assert main(["power", "1", "5", "--csv"]) == 0
        rows = [line.split(",") for line in capsys.readouterr().out.strip().splitlines()]
        table = {r[0]: [float(v) for v in r[1:]] for r in rows[1:]}
        assert table["uplink"] == [1.0, 1.0, 1.0]

    @pytest.mark.parametrize("K, E", [("0", "5"), ("5", "0"), ("-1", "5")])
    def test_degenerate_horizon_exits_2(self, capsys, K, E):
        assert main(["power", K, E]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: power: need K >= 1 and E >= 1")
        assert captured.out == ""


class TestBcdDemoCommand:
    def test_witness_output(self, capsys):
        assert main(["bcd-demo", "50", "10"]) == 0
        out = capsys.readouterr().out
        assert "20.408" in out
        assert "400" in out
        assert "True" in out

    def test_single_client(self, capsys):
        assert main(["bcd-demo", "1", "10"]) == 0
        assert "identically 0" in capsys.readouterr().out


class TestPresetContents:
    def test_reference_preset_constants(self):
        cfg = preset("v5a_constant_noise")
        fb = cfg.fedavg
        assert (fb.n, fb.r, fb.E, fb.K, fb.batch_size) == (50, 10, 5, 100, 16)
        assert fb.gamma == 18.0
        assert cfg.data.m == 15000 and cfg.data.d == 60
        assert cfg.uplink.base_std == 0.2 and cfg.downlink.base_std == 0.2
        assert cfg.data.label_noise_variance == 0.05

    def test_control_preset_schedules(self):
        cfg = preset("v5a_snr_control")
        assert cfg.downlink.kind == "poly_decay"
        assert cfg.downlink.decay_exponent == 1.0
        assert cfg.downlink.e_squared_scaling is True
        assert cfg.uplink.decay_exponent == 0.5
        assert cfg.uplink.e_squared_scaling is False

    def test_sweep_preset_pins_learning_rate(self):
        cfg = preset("v5a_sweep")
        assert cfg.fedavg.learning_rate_override == pytest.approx(0.0035136, abs=1e-6)
