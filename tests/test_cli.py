"""CLI surface: configs, subcommands, file formats, exit codes."""

import dataclasses
import json
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from noisyfed.cli import main
from noisyfed.config import (TASKS, ConfigError, SgdBlock, canonical_dict, load_config,
                             parse_config, serialize)
from noisyfed.theory import learning_rate
from presets import CONFIGS, preset

REPO = Path(__file__).resolve().parents[1]


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


def number(lo, hi, exclude_min=False):
    """A float field's value in [lo, hi], sometimes given as an int."""
    return (st.floats(lo, hi, exclude_min=exclude_min)
            | st.integers(int(lo) + 1 if exclude_min else int(lo), int(hi)))


POSITIVE = number(0, 10, exclude_min=True)


def schedule_blocks():
    zero = st.just(0) | st.just(0.0)
    return st.none() | st.one_of(
        st.fixed_dictionaries({}, optional={"kind": st.just("off"), "base_std": zero,
                                            "decay_exponent": zero,
                                            "e_squared_scaling": st.just(False)}),
        st.fixed_dictionaries({"kind": st.just("constant"), "base_std": POSITIVE},
                              optional={"decay_exponent": zero,
                                        "e_squared_scaling": st.just(False)}),
        st.fixed_dictionaries({"kind": st.just("poly_decay"), "base_std": POSITIVE},
                              optional={"decay_exponent": number(0, 3),
                                        "e_squared_scaling": st.booleans()}))


@st.composite
def config_docs(draw):
    """Valid config documents; optional keys are omitted at random."""
    def put(block, key, strategy):
        if draw(st.booleans()):
            block[key] = draw(strategy)

    task = draw(st.sampled_from(TASKS))
    n, d = draw(st.integers(1, 20)), draw(st.integers(1, 50))
    fed = {"n": n, "r": draw(st.integers(1, n)), "E": draw(st.integers(1, 5)),
           "K": draw(st.integers(1, 200)), "gamma": draw(number(4, 100, exclude_min=True)),
           "batch_size": draw(st.integers(1, 64))}
    put(fed, "learning_rate_override", st.none() | POSITIVE)
    data = {"d": d, "seed": draw(st.integers(0, 2**31))}
    put(data, "normalize_hessian", st.booleans())
    if task == "regression_v5a":
        data["m"] = draw(st.integers(max(n, d), 10_000))
        put(data, "label_noise_variance", number(0, 1))
        put(data, "n_classes", st.integers(0, 5))
        put(data, "cluster_separation", number(0, 5))
        put(data, "partition", st.just("iid"))
        put(data, "labels_per_client", st.integers(1, 5))
    else:
        classes = draw(st.integers(2, 6))
        data["n_classes"] = classes
        data["m"] = draw(st.integers(max(n, classes), 10_000))
        put(data, "cluster_separation", number(0, 5))
        put(data, "partition", st.sampled_from(["iid", "label_shard"]))
        put(data, "labels_per_client", st.integers(1, classes))
    doc = {"task": task, "data": data, "fedavg": fed,
           "repeat_seeds": draw(st.lists(st.integers(0, 2**31), min_size=1, max_size=4,
                                         unique=True))}
    put(doc, "sgd", st.none() | st.fixed_dictionaries(
        {"T": st.integers(1, 1000), "eta": POSITIVE, "batch_size": st.integers(1, 64)}))
    put(doc, "mode", st.sampled_from(["fedavg", "sgd"] if doc.get("sgd") else ["fedavg"]))
    put(doc, "uplink", schedule_blocks())
    put(doc, "downlink", schedule_blocks())
    put(doc, "out_prefix", st.text("abc/_", max_size=12))
    return doc


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
        for uplink in ({"kind": "constant", "base_std": -1.0},
                       {"kind": "constant", "base_std": 0.2, "decay_exponent": 0.5},
                       {"kind": "constant", "base_std": 0.2, "e_squared_scaling": True}):
            with pytest.raises(ConfigError, match="uplink"):
                parse_config(json.dumps(tiny_doc(uplink=uplink)))

    @pytest.mark.parametrize("block, key", [("uplink", "base_std"), ("downlink", "base_std"),
                                            ("fedavg", "batch_size"), ("sgd", "batch_size")])
    def test_error_in_a_shared_key_points_into_its_own_block(self, block, key):
        # each key is also in another block; "mode": "sgd" names a block before the blocks
        doc = tiny_doc(mode="sgd", sgd={"T": 5, "eta": 0.01, "batch_size": 8})
        doc[block][key] = "marker"
        text = json.dumps(doc, indent=1)
        with pytest.raises(ConfigError, match=rf"^config:\d+: {block}\.{key} has wrong type$") \
                as info:
            parse_config(text)
        line = int(str(info.value).split(":")[1])
        assert text.splitlines()[line - 1].strip().rstrip(",") == f'"{key}": "marker"'
        doc[block][key] = float("nan") if key == "base_std" else 8
        if key == "base_std":
            with pytest.raises(ConfigError, match=rf"{block}\.base_std must be finite") as info:
                parse_config(json.dumps(doc, indent=1))
            line = int(str(info.value).split(":")[1])
            assert "NaN" in json.dumps(doc, indent=1).splitlines()[line - 1]

    def test_sgd_mode_needs_block(self):
        with pytest.raises(ConfigError, match="sgd"):
            parse_config(json.dumps(tiny_doc(mode="sgd")))

    @settings(max_examples=200, deadline=None)
    @given(doc=config_docs())
    def test_round_trip_of_any_valid_document(self, doc):
        cfg = parse_config(json.dumps(doc, indent=1))
        text = serialize(cfg)
        assert parse_config(text) == cfg
        assert serialize(parse_config(text)) == text

    @settings(max_examples=100, deadline=None)
    @given(doc=config_docs(), data=st.data())
    def test_unknown_key_in_any_block_rejected_with_line(self, doc, data):
        blocks = ["top"] + [name for name in ("data", "fedavg", "sgd", "uplink", "downlink")
                            if isinstance(doc.get(name), dict)]
        where = data.draw(st.sampled_from(blocks))
        key = "zz" + data.draw(st.text("abcdefgh_", max_size=6))  # no value contains "zz"
        (doc if where == "top" else doc[where])[key] = 1
        text = json.dumps(doc, indent=1)
        with pytest.raises(ConfigError, match=rf"^config:\d+: unknown key {where}\.{key}$") as info:
            parse_config(text)
        line = int(str(info.value).split(":")[1])
        assert text.splitlines()[line - 1].strip().startswith(f'"{key}":')


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

    @pytest.mark.parametrize("block, key, value", [
        ("uplink", "base_std", float("nan")),
        ("fedavg", "learning_rate_override", float("nan")),
        ("data", "label_noise_variance", float("nan")),
        ("fedavg", "gamma", float("inf")),
    ])
    def test_non_finite_number_exits_2(self, tmp_path, capsys, block, key, value):
        doc = tiny_doc()
        doc[block] = dict(doc[block], **{key: value})
        cfgp = write_doc(tmp_path, doc)
        out = tmp_path / "o"
        assert main(["run", "--config", cfgp, "--out", str(out / "run")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {cfgp}:") and f"{block}.{key} must be finite" in err
        line = int(err.split(":")[2])
        assert f'"{key}"' in (tmp_path / "config.json").read_text().splitlines()[line - 1]
        assert not out.exists()

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

    @pytest.mark.parametrize("command", ["run", "bounds"])
    def test_base_std_whose_square_overflows_exits_2(self, tmp_path, capsys, command):
        # it used to escape from variance_at as an OverflowError traceback
        cfgp = write_doc(tmp_path, tiny_doc(uplink={"kind": "constant", "base_std": 1e160}))
        out = tmp_path / "o"
        argv = [command, "--config", cfgp] + (["--out", str(out / "run")] if command == "run"
                                              else [])
        assert main(argv) == 2
        assert "base_std squared must be finite" in capsys.readouterr().err
        assert not out.exists()

    def test_decay_beyond_float_range_runs(self, tmp_path, capsys):
        # (k + 1)**1000 overflows from round 2 on, where the variance is then 0.0
        doc = tiny_doc(uplink={"kind": "poly_decay", "base_std": 0.2, "decay_exponent": 1000})
        cfgp = write_doc(tmp_path, doc)
        assert main(["run", "--config", cfgp, "--out", str(tmp_path / "o" / "run")]) == 0
        rows = (tmp_path / "o" / "run_seed1.csv").read_text().splitlines()[1:]
        assert [float(row.split(",")[3]) for row in rows[2:]] == [0.0] * (len(rows) - 2)
        assert main(["bounds", "--config", cfgp]) == 0


def classification_doc(block, key, value):
    doc = json.loads((CONFIGS / "classification_noniid.json").read_text())
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

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # matmul overflow and nan
    def test_non_finite_smoothness_exits_2(self, tmp_path, capsys):
        # smoothness_constant gives nan here; the run used to exit 0 with NaN in its JSON
        cfgp = write_doc(tmp_path, classification_doc("data", "cluster_separation", 1e160))
        out = tmp_path / "o"
        assert main(["run", "--config", cfgp, "--out", str(out / "run")]) == 2
        assert "smoothness must be finite" in capsys.readouterr().err
        assert not out.exists()
        assert main(["bounds", "--config", cfgp]) == 2
        assert "smoothness must be finite" in capsys.readouterr().err


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

    def test_out_of_range_value_rejected(self, tmp_path, capsys):
        cfgp = write_doc(tmp_path, tiny_doc())
        out = str(tmp_path / "sw" / "s")
        for axis, values, message in (("r", "4,99", "r=99: need 1 <= r <= n"),
                                      ("E", "2,0", "E=0: need E >= 1")):
            assert main(["sweep", "--config", cfgp, "--axis", axis, "--values", values,
                         "--out", out]) == 2
            assert message in capsys.readouterr().err
        assert not (tmp_path / "sw").exists()

    def test_non_integer_value_rejected(self, tmp_path, capsys):
        cfgp = write_doc(tmp_path, tiny_doc())
        out = str(tmp_path / "sw" / "s")
        assert main(["sweep", "--config", cfgp, "--axis", "r", "--values", "10,x",
                     "--out", out]) == 2
        assert capsys.readouterr().err.startswith("error: --values")
        assert not (tmp_path / "sw").exists()

    def test_repeated_value_rejected(self, tmp_path, capsys):
        cfgp = write_doc(tmp_path, tiny_doc())
        out = str(tmp_path / "sw" / "s")
        assert main(["sweep", "--config", cfgp, "--axis", "r", "--values", "4,2,4",
                     "--out", out]) == 2
        assert capsys.readouterr().err == f"error: {cfgp}: repeated r values: [4, 2, 4]\n"
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

    @pytest.mark.parametrize("G, message", [
        ("nan", "need n >= 1 and finite G > 0"), ("inf", "need n >= 1 and finite G > 0"),
        ("1e200", "the gap overflows a float")])
    def test_non_finite_G_exits_2(self, capsys, G, message):
        assert main(["bcd-demo", "3", G]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: bcd-demo:") and message in captured.err
        assert captured.out == ""


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
        # the prescribed rate of the base configuration (gamma 18, L = 1, E 5, r 10, K 100)
        cfg = preset("v5a_sweep")
        assert cfg.fedavg.learning_rate_override == learning_rate(18.0, 1.0, 5, 10, 100)

    def test_v5a_presets_differ_only_in_their_channels(self):
        # the reference fixtures step these presets side by side on one task and seed;
        # the sweep preset alone pins its learning rate
        def shared(cfg):
            fed = dataclasses.replace(cfg.fedavg, learning_rate_override=None)
            return cfg.task, cfg.mode, cfg.data, fed, cfg.sgd, cfg.repeat_seeds

        names = sorted(p.stem for p in CONFIGS.glob("v5a_*.json"))
        assert "v5a_sweep" in names
        base = shared(preset("v5a_noise_free"))
        for name in names:
            cfg = preset(name)
            assert shared(cfg) == base, name
            assert (cfg.fedavg.learning_rate_override is None) == (name != "v5a_sweep"), name


class TestSchemaDrift:
    """The committed configs and README's schema block against what the code writes."""

    @pytest.mark.parametrize("name", sorted(p.stem for p in CONFIGS.glob("*.json")))
    def test_committed_config_is_the_serialized_preset(self, name):
        # configs are edited by hand; each must load and be its own canonical serialization
        path = CONFIGS / f"{name}.json"
        assert serialize(load_config(path)).encode() == path.read_bytes()

    def test_readme_names_only_committed_configs(self):
        named = set(re.findall(r"configs/([\w.-]+)\.json", (REPO / "README.md").read_text()))
        assert named
        for name in sorted(named):
            load_config(CONFIGS / f"{name}.json")

    def test_readme_schema_lists_the_canonical_keys(self):
        section = (REPO / "README.md").read_text().split("### Config schema\n", 1)[1]
        documented = json.loads(section.split("```json\n", 1)[1].split("```", 1)[0])
        cfg = dataclasses.replace(preset("v5a_constant_noise"),
                                  sgd=SgdBlock(T=1, eta=0.1, batch_size=1))
        canonical = canonical_dict(cfg)
        assert list(documented) == list(canonical)
        for name, block in canonical.items():
            if isinstance(block, dict):
                assert list(documented[name]) == list(block), name
