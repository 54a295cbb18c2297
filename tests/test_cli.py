"""CLI surface: configs, subcommands, file formats, exit codes."""

import dataclasses
import json
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from noisyfed.cli import main
from noisyfed.config import (TASKS, ConfigError, SgdBlock, canonical_dict, load_config,
                             parse_config, serialize)
from noisyfed.theory import BoundReport, learning_rate
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
    assume(n >= 2 or doc.get("mode") == "sgd")  # a federated run needs two clients
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

    @pytest.mark.parametrize("field", ["T", "eta", "batch_size"])
    def test_sgd_block_checks_its_fields(self, field):
        with pytest.raises(ValueError, match=r"^need T >= 1, eta > 0, batch_size >= 1$"):
            SgdBlock(**dict({"T": 5, "eta": 0.01, "batch_size": 8}, **{field: 0}))

    def test_sgd_check_points_at_its_block(self):
        text = json.dumps(tiny_doc(mode="sgd", sgd={"T": 5, "eta": 0, "batch_size": 8}), indent=1)
        with pytest.raises(ConfigError, match=r"^config:\d+: sgd: need T >= 1, eta > 0, "
                                              r"batch_size >= 1$") as info:
            parse_config(text)
        line = int(str(info.value).split(":")[1])
        assert text.splitlines()[line - 1].strip().startswith('"sgd":')

    def test_omitted_keys_read_as_their_defaults(self):
        omitted = {key: val for key, val in tiny_doc().items()
                   if key in ("task", "data", "fedavg", "repeat_seeds")}
        spelled = dict(omitted, mode="fedavg", sgd=None, uplink={"kind": "off"},
                       downlink=None, out_prefix="out/run")
        cfg = parse_config(json.dumps(omitted))
        assert cfg == parse_config(json.dumps(spelled))
        assert serialize(cfg) == serialize(parse_config(json.dumps(spelled)))

    @pytest.mark.parametrize("entry", ['"task": "regression_v5a",', '"seed": 3,', '"K": 8,',
                                       '"kind": "constant",'], ids=lambda e: e.split('"')[1])
    def test_duplicate_key_rejected_with_line(self, entry):
        # json.loads keeps the last of two values; a config must say which one it means
        text = json.dumps(tiny_doc(), indent=1).replace(entry, f"{entry}\n{entry}", 1)
        key = entry.split('"')[1]
        with pytest.raises(ConfigError, match=rf"^config:\d+: duplicate key {key}$") as info:
            parse_config(text)
        line = int(str(info.value).split(":")[1])
        assert text.splitlines()[line - 1].strip() == entry

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
        # an integer past float range used to escape float() as an OverflowError
        pytest.param("uplink", "base_std", 10**400, id="uplink-base_std-401_digits"),
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

    def test_duplicate_key_exits_2_and_writes_nothing(self, tmp_path, capsys):
        # a second "K": 3 after "K": 100 used to run at K = 3 and exit 0
        lines = (CONFIGS / "v5a_uplink_only.json").read_text().splitlines(keepends=True)
        at = next(i for i, ln in enumerate(lines) if ln.strip() == '"K": 100,')
        lines.insert(at + 1, lines[at].replace("100", "3"))
        cfgp = tmp_path / "config.json"
        cfgp.write_text("".join(lines))
        out = tmp_path / "o"
        for argv in (["bounds"], ["run", "--out", str(out / "run")]):
            assert main([*argv, "--config", str(cfgp)]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert re.fullmatch(rf"error: {re.escape(str(cfgp))}:(\d+): duplicate key K\n",
                                captured.err)
            line = int(captured.err.split(":")[2])
            assert lines[line - 1].strip().startswith('"K":')
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

    @pytest.mark.parametrize("argv", [["run"], ["sweep", "--axis", "E", "--values", "1,2"],
                                      ["bounds"]])
    def test_one_client_fedavg_exits_2_before_running(self, tmp_path, capsys, argv):
        doc = tiny_doc()
        doc["fedavg"] = dict(doc["fedavg"], n=1, r=1)
        cfgp = write_doc(tmp_path, doc)
        out = tmp_path / "o"
        extra = ["--out", str(out / "run")] if argv[0] != "bounds" else []
        assert main([argv[0], "--config", cfgp, *argv[1:], *extra]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {cfgp}:") and "fedavg mode needs n >= 2 clients" in err
        line = int(err.split(":")[2])
        assert '"n"' in (tmp_path / "config.json").read_text().splitlines()[line - 1]
        assert not out.exists()
        # sgd mode has no k* weights to compute, so one client stays valid there
        parse_config(json.dumps(dict(doc, mode="sgd", sgd={"T": 3, "eta": 0.1, "batch_size": 4})))

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
        # gamma = sqrt(r/K) / (eta L E) is below 4 here, where the theorem gives no bound
        summary = json.loads((tmp_path / "d" / "run_summary.json").read_text())
        assert [summary[k] for k in ("min_rounds", "K_meets_min_rounds", "bound_report")] \
            == [None, None, None]

    def test_pinned_rate_run_reports_the_bound_at_that_rate(self, tmp_path, capsys):
        # at eta = 0.01 the run is at gamma = sqrt(4/8) / (0.01 L 2) = 35.4, not at its
        # configured gamma 18; it used to report min_rounds at 18 (0.0494) and no bound
        doc = tiny_doc()
        doc["fedavg"]["learning_rate_override"] = 0.01
        cfgp = write_doc(tmp_path, doc)
        assert main(["run", "--config", cfgp, "--out", str(tmp_path / "o" / "run")]) == 0
        summary = json.loads((tmp_path / "o" / "run_summary.json").read_text())
        assert summary["theory_eta"] is False
        assert summary["min_rounds"] == pytest.approx(0.0128, rel=1e-10)
        assert summary["K_meets_min_rounds"] is True
        capsys.readouterr()
        assert main(["bounds", "--config", cfgp, "--csv"]) == 0
        got = {k: float(v) for k, v in (line.split(",") for line in
                                         capsys.readouterr().out.strip().splitlines()[1:])}
        report = summary["bound_report"]
        # sigma2, and so the variance term and the total, also probe the runs' final models
        for key in ("leading", "term_uplink", "term_downlink", "zeta", "zeta2", "zeta3"):
            assert report[key] == pytest.approx(got[key], rel=1e-11), key
        assert got["min_rounds"] == pytest.approx(summary["min_rounds"], rel=1e-11)

    def test_report_fields_are_the_bound_reports(self, tmp_path, capsys):
        cfgp = write_doc(tmp_path, tiny_doc())
        assert main(["run", "--config", cfgp, "--out", str(tmp_path / "o" / "run")]) == 0
        summary = json.loads((tmp_path / "o" / "run_summary.json").read_text())
        names = [f.name for f in dataclasses.fields(BoundReport)]
        assert list(summary["bound_report"])[:len(names)] == names
        capsys.readouterr()
        assert main(["bounds", "--config", cfgp, "--csv"]) == 0
        rows = capsys.readouterr().out.strip().splitlines()[1:]
        assert [row.split(",")[0] for row in rows[:len(names)]] == names

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

    def test_non_finite_smoothness_exits_2(self, tmp_path, capsys):
        # smoothness_constant gives nan here; the run used to exit 0 with NaN in its JSON.
        # The overflow behind the nan must not reach stderr as a numpy warning either.
        cfgp = write_doc(tmp_path, classification_doc("data", "cluster_separation", 1e160))
        out = tmp_path / "o"
        error = f"error: {cfgp}: smoothness must be finite and >= 0, got nan\n"
        assert main(["run", "--config", cfgp, "--out", str(out / "run")]) == 2
        assert capsys.readouterr().err == error
        assert not out.exists()
        assert main(["bounds", "--config", cfgp]) == 2
        assert capsys.readouterr().err == error


    def test_overflowing_smoothness_exits_2(self, tmp_path, capsys):
        # at separation 1e150 the Gram matrix is finite but its top eigenvalue has no
        # finite square; with eta pinned the run used to exit 0 with L = 0, and without
        # the pin it exited 2 naming gamma and L instead of the smoothness
        error = "smoothness must be finite and >= 0, got nan"
        for eta in (0.01, None):
            doc = classification_doc("data", "cluster_separation", 1e150)
            doc["fedavg"]["learning_rate_override"] = eta
            cfgp = write_doc(tmp_path, doc)
            out = tmp_path / "o"
            assert main(["run", "--config", cfgp, "--out", str(out / "run")]) == 2
            assert capsys.readouterr().err == f"error: {cfgp}: {error}\n"
            assert not out.exists()


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

    def test_diverged_runs_read_nan(self, tmp_path, capsys):
        # 1e306 label noise diverges every run, at a finite final loss: the six rows used
        # to average those into final=5.53562219638e+305 excess=0
        doc = tiny_doc(data={"m": 600, "d": 5, "seed": 3, "label_noise_variance": 1e306},
                       fedavg={"n": 6, "r": 2, "E": 1, "K": 5, "gamma": 18.0, "batch_size": 4},
                       uplink={"kind": "constant", "base_std": 0.1},
                       downlink={"kind": "constant", "base_std": 0.1}, repeat_seeds=[1, 2, 3])
        cfgp = write_doc(tmp_path, doc)
        assert main(["sweep", "--config", cfgp, "--axis", "r", "--values", "2,4",
                     "--out", str(tmp_path / "sw" / "s")]) == 0
        rows = (tmp_path / "sw" / "s_sweep_r.csv").read_text().splitlines()[1:]
        assert len(rows) == 6 and all(row.endswith(",nan,nan") for row in rows)
        assert capsys.readouterr().out.splitlines()[-6:] == [
            f"r={v} {name}: diverged in seeds [1, 2, 3]"
            for v in (2, 4) for name in ("noise_free", "uplink_only", "downlink_only")]

    def test_one_diverged_variant_leaves_the_others_finite(self, tmp_path, capsys):
        # an uplink of std 1e14 moves the model past norm 1e12 in round 0
        cfgp = write_doc(tmp_path, tiny_doc(uplink={"kind": "constant", "base_std": 1e14}))
        assert main(["sweep", "--config", cfgp, "--axis", "r", "--values", "4",
                     "--out", str(tmp_path / "sw" / "s")]) == 0
        rows = (tmp_path / "sw" / "s_sweep_r.csv").read_text().splitlines()[1:]
        table = {row.split(",")[2]: [float(v) for v in row.split(",")[3:]] for row in rows}
        assert np.isnan(table.pop("uplink_only")).all()
        assert np.isfinite(list(table.values())).all() and table["noise_free"][1] == 0.0
        assert capsys.readouterr().out.splitlines()[-1] == "r=4 uplink_only: diverged in seeds [1, 2]"


class TestSgdMode:
    """sgd mode runs on one shard of every row, so the fedavg block does not partition
    its data. It used to: n above m exited 2 with "need m >= n clients", and a label
    shard cut into more slices than a class has rows with "class 0 has too few
    examples to slice"."""

    @pytest.mark.parametrize("task, data, n", [
        ("regression_v5a", {"m": 50, "d": 5, "seed": 3}, 60),
        ("classification_synth", {"m": 40, "d": 3, "seed": 3, "n_classes": 4,
                                  "cluster_separation": 2.0, "partition": "label_shard",
                                  "labels_per_client": 2}, 30)])
    def test_fedavg_n_does_not_partition(self, tmp_path, task, data, n):
        out = tmp_path / "o"
        written = []
        for clients in (n, 10):
            doc = tiny_doc(task=task, mode="sgd", data=data,
                           fedavg=dict(tiny_doc()["fedavg"], n=clients),
                           sgd={"T": 20, "eta": 0.05, "batch_size": 4})
            cfgp = write_doc(tmp_path, doc)
            assert main(["run", "--config", cfgp, "--out", str(out / "run")]) == 0
            written.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
        assert written[0] == written[1] and len(written[0]) == 3


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

    @staticmethod
    def pinned_sweep(tmp_path, eta):
        doc = json.loads((CONFIGS / "v5a_sweep.json").read_text())
        doc["fedavg"]["learning_rate_override"] = eta
        return write_doc(tmp_path, doc)

    def test_pinned_rate_report_is_at_that_rate(self, tmp_path, capsys):
        # at eta = 0.002 the sweep runs at gamma = sqrt(r/K) / (eta L E) = 31.6, not at its
        # configured gamma 18: every term and min_rounds are at that rate, and nothing warns
        cfgp = self.pinned_sweep(tmp_path, 0.002)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["bounds", "--config", cfgp, "--csv"]) == 0
        got = {k: float(v) for k, v in (line.split(",") for line in
                                         capsys.readouterr().out.strip().splitlines()[1:])}
        eta, E, K = got["eta"], 5, got["K"]
        assert eta == 0.002
        assert got["leading"] == pytest.approx(8 * got["f0"] / (eta * E * K), rel=1e-10)
        assert got["term_uplink"] == pytest.approx(4 * eta * got["sum_U2"] / (10 * E * K),
                                                   rel=1e-10)
        assert got["total"] == pytest.approx(196.848563265, rel=1e-11)
        assert got["min_rounds"] == pytest.approx(0.04, rel=1e-10)

    def test_short_horizon_warns_once_on_stderr(self, tmp_path, capsys):
        # min_rounds is 159.3 at gamma 4.5 and r = 8; the report used to say so twice,
        # as a UserWarning on stderr and as a "warning:" line on stdout
        doc = tiny_doc()
        doc["fedavg"] = dict(doc["fedavg"], r=8, K=2, gamma=4.5)
        cfgp = write_doc(tmp_path, doc)
        with pytest.warns(UserWarning, match="159.3"):
            assert main(["bounds", "--config", cfgp]) == 0
        out = capsys.readouterr().out
        assert "warning:" not in out
        assert "K_meets_min_rounds   0" in out.splitlines()

    def test_short_horizon_warning_is_one_cli_line(self, tmp_path):
        # in a child process, since pytest records warnings rather than printing them;
        # it used to print theory.py's path, "UserWarning" and the warnings.warn line
        doc = tiny_doc(out_prefix=str(tmp_path / "o" / "run"))
        doc["fedavg"] = dict(doc["fedavg"], r=8, K=2, gamma=4.5)
        cfgp = write_doc(tmp_path, doc)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [str(REPO / "src"), os.environ.get("PYTHONPATH")])))
        for command in ("bounds", "run"):
            child = subprocess.run([sys.executable, "-m", "noisyfed.cli", command,
                                    "--config", cfgp], env=env, capture_output=True, text=True)
            assert child.returncode == 0, command
            assert child.stderr == "warning: K=2 is below the minimum-round requirement 159.3\n"

    def test_rate_the_theorem_does_not_cover_exits_2(self, tmp_path, capsys):
        # at eta = 0.02 gamma is 3.16, where the theorem gives no bound
        cfgp = self.pinned_sweep(tmp_path, 0.02)
        assert main(["bounds", "--config", cfgp]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == (f"error: {cfgp}: eta=0.02 must be below sqrt(r/K) / (4 L E) = "
                       f"0.0158114 for the bound to apply\n")


def label_noise_docs(variance):
    """tiny_doc, and an sgd-mode copy, with label noise of the given variance."""
    fed = tiny_doc(data=dict(tiny_doc()["data"], label_noise_variance=variance))
    return fed, dict(fed, mode="sgd", sgd={"T": 20, "eta": 0.05, "batch_size": 8})


class TestNonFiniteBoundInputs:
    """Label noise too large for float64, on 600 rows in shards of 60. At 1e306 the
    metric statistics fit (y^T y / m per shard) but sigma^2's spread overflows, and a
    sweep, which reports no bound, exits 0 with every run diverged, so every row reads
    nan; from 1e307 y^T y overflows. These used to exit 0: bounds printed f0 inf and
    sigma2 inf (1e306) or 0 (max dropped the nan spread), and run wrote Infinity losses
    and a NaN std."""

    SIGMA2, STATS = "sigma2 is not finite", "metric statistics are not finite"

    @pytest.mark.parametrize("variance, messages", [
        (1e306, {"run": SIGMA2, "bounds": SIGMA2, "sgd": STATS, "sweep": None}),
        (1e307, {"run": STATS, "bounds": STATS, "sgd": STATS, "sweep": STATS}),
        (1e308, {"run": STATS, "bounds": STATS, "sgd": STATS, "sweep": STATS})])
    def test_exits_2_and_writes_nothing(self, tmp_path, capsys, variance, messages):
        fed, sgd = label_noise_docs(variance)
        fedp, sgdp = write_doc(tmp_path, fed), write_doc(tmp_path, sgd, "sgd.json")
        out = tmp_path / "o"
        argv = {"run": ["run", "--config", fedp, "--out", str(out / "run")],
                "bounds": ["bounds", "--config", fedp],
                "sgd": ["run", "--config", sgdp, "--out", str(out / "sgd")],
                "sweep": ["sweep", "--config", fedp, "--axis", "r", "--values", "2,4",
                          "--out", str(out / "sweep")]}
        for name, message in messages.items():
            code = main(argv[name])
            err = capsys.readouterr().err
            if message is None:
                assert code == 0 and err == "", name
                assert np.isnan(np.loadtxt(out / "sweep_sweep_r.csv", delimiter=",",
                                           skiprows=1, usecols=(3, 4))).all()
                continue
            assert code == 2 and err.startswith("error: ") and message in err, name
            assert not out.exists(), name


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
