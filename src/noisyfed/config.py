"""Experiment configuration: JSON schema, validation, presets.

A config file is one JSON object. Unknown keys anywhere are rejected, every
nested invariant is checked before any run starts, and validation errors
carry a best-effort line reference into the source text. Parsing then
serializing yields a canonical document with every defaulted field explicit.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace

from .channel import NoiseSchedule
from .fedavg import FedAvgConfig, learning_rate

TASKS = ("regression_v5a", "classification_synth")
MODES = ("fedavg", "sgd")
PARTITIONS = ("iid", "label_shard")


class ConfigError(Exception):
    pass


@dataclass(frozen=True)
class DataConfig:
    m: int
    d: int
    seed: int
    label_noise_variance: float = 0.0
    normalize_hessian: bool = True
    n_classes: int = 0
    cluster_separation: float = 0.0
    partition: str = "iid"
    labels_per_client: int = 2


@dataclass(frozen=True)
class FedBlock:
    n: int
    r: int
    E: int
    K: int
    gamma: float
    batch_size: int
    learning_rate_override: float | None = None


@dataclass(frozen=True)
class SgdBlock:
    T: int
    eta: float
    batch_size: int


@dataclass(frozen=True)
class ExperimentConfig:
    task: str
    mode: str
    data: DataConfig
    fedavg: FedBlock
    uplink: NoiseSchedule
    downlink: NoiseSchedule
    repeat_seeds: tuple
    out_prefix: str
    sgd: SgdBlock | None = None

    def fedavg_config(self, seed: int) -> FedAvgConfig:
        fb = self.fedavg
        return FedAvgConfig(n=fb.n, r=fb.r, E=fb.E, K=fb.K, gamma=fb.gamma,
                            batch_size=fb.batch_size, seed=seed,
                            learning_rate_override=fb.learning_rate_override,
                            uplink=self.uplink, downlink=self.downlink)


def _line_of(text: str, key: str) -> int:
    for ln, line in enumerate(text.splitlines(), start=1):
        if f'"{key}"' in line:
            return ln
    return 1


def _take(block: dict, allowed: dict, where: str, text: str, source: str) -> dict:
    """Pop known keys with type coercion; reject anything left over."""
    out = {}
    for key, (types, required, default) in allowed.items():
        if key in block:
            val = block.pop(key)
            if types is float and isinstance(val, int) and not isinstance(val, bool):
                val = float(val)
            bad = not isinstance(val, types) or (isinstance(val, bool) and types is int)
            if bad:
                raise ConfigError(f"{source}:{_line_of(text, key)}: {where}.{key} has wrong type")
            out[key] = val
        elif required:
            raise ConfigError(f"{source}:{_line_of(text, where)}: missing required key {where}.{key}")
        else:
            out[key] = default
    if block:
        stray = sorted(block)[0]
        raise ConfigError(f"{source}:{_line_of(text, stray)}: unknown key {where}.{stray}")
    return out


def _parse_schedule(block, direction, text, source) -> NoiseSchedule:
    if block is None:
        block = {}
    if not isinstance(block, dict):
        raise ConfigError(f"{source}:{_line_of(text, direction)}: {direction} must be an object")
    vals = _take(dict(block), {
        "kind": (str, False, "off"),
        "base_std": (float, False, 0.0),
        "decay_exponent": (float, False, 0.0),
        "e_squared_scaling": (bool, False, False),
    }, direction, text, source)
    try:
        return NoiseSchedule(direction=direction, **vals)
    except ValueError as exc:
        raise ConfigError(f"{source}:{_line_of(text, direction)}: {direction}: {exc}") from exc


def parse_config(text: str, source: str = "config") -> ExperimentConfig:
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{source}:{exc.lineno}: invalid JSON: {exc.msg}") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"{source}:1: top level must be an object")

    top = _take(dict(raw), {
        "task": (str, True, None),
        "mode": (str, False, "fedavg"),
        "data": (dict, True, None),
        "fedavg": (dict, True, None),
        "sgd": ((dict, type(None)), False, None),
        "uplink": ((dict, type(None)), False, None),
        "downlink": ((dict, type(None)), False, None),
        "repeat_seeds": (list, True, None),
        "out_prefix": (str, False, "out/run"),
    }, "top", text, source)

    if top["task"] not in TASKS:
        raise ConfigError(f"{source}:{_line_of(text, 'task')}: task must be one of {TASKS}")
    if top["mode"] not in MODES:
        raise ConfigError(f"{source}:{_line_of(text, 'mode')}: mode must be one of {MODES}")
    seeds = top["repeat_seeds"]
    if not seeds or not all(isinstance(s, int) and not isinstance(s, bool) for s in seeds):
        raise ConfigError(f"{source}:{_line_of(text, 'repeat_seeds')}: repeat_seeds must be a "
                          "non-empty list of integers")
    if len(set(seeds)) != len(seeds):
        raise ConfigError(f"{source}:{_line_of(text, 'repeat_seeds')}: repeat_seeds must be distinct")
    if min(seeds) < 0:
        raise ConfigError(f"{source}:{_line_of(text, 'repeat_seeds')}: repeat_seeds must be >= 0")

    dvals = _take(dict(top["data"]), {
        "m": (int, True, None),
        "d": (int, True, None),
        "seed": (int, True, None),
        "label_noise_variance": (float, False, 0.0),
        "normalize_hessian": (bool, False, True),
        "n_classes": (int, False, 0),
        "cluster_separation": (float, False, 0.0),
        "partition": (str, False, "iid"),
        "labels_per_client": (int, False, 2),
    }, "data", text, source)
    if dvals["seed"] < 0:
        raise ConfigError(f"{source}:{_line_of(text, 'seed')}: data.seed must be >= 0")
    if dvals["partition"] not in PARTITIONS:
        raise ConfigError(f"{source}:{_line_of(text, 'partition')}: partition must be one of {PARTITIONS}")
    if top["task"] == "regression_v5a":
        if dvals["partition"] != "iid":
            raise ConfigError(f"{source}:{_line_of(text, 'partition')}: regression data is partitioned iid")
        if dvals["m"] < dvals["d"] or dvals["d"] < 1:
            raise ConfigError(f"{source}:{_line_of(text, 'm')}: need m >= d >= 1")
        if dvals["label_noise_variance"] < 0:
            raise ConfigError(f"{source}:{_line_of(text, 'label_noise_variance')}: variance must be >= 0")
    else:
        if dvals["n_classes"] < 2:
            raise ConfigError(f"{source}:{_line_of(text, 'n_classes')}: classification needs n_classes >= 2")
        if dvals["m"] < dvals["n_classes"]:
            raise ConfigError(f"{source}:{_line_of(text, 'm')}: need m >= n_classes")
        if dvals["d"] < 1:
            raise ConfigError(f"{source}:{_line_of(text, 'd')}: need d >= 1")
        if dvals["labels_per_client"] < 1:
            raise ConfigError(f"{source}:{_line_of(text, 'labels_per_client')}: "
                              "need labels_per_client >= 1")
    data = DataConfig(**dvals)

    fvals = _take(dict(top["fedavg"]), {
        "n": (int, True, None),
        "r": (int, True, None),
        "E": (int, True, None),
        "K": (int, True, None),
        "gamma": (float, True, None),
        "batch_size": (int, True, None),
        "learning_rate_override": ((float, int, type(None)), False, None),
    }, "fedavg", text, source)
    if fvals["learning_rate_override"] is not None:
        fvals["learning_rate_override"] = float(fvals["learning_rate_override"])
    fed = FedBlock(**fvals)
    try:
        FedAvgConfig(n=fed.n, r=fed.r, E=fed.E, K=fed.K, gamma=fed.gamma,
                     batch_size=fed.batch_size, seed=0,
                     learning_rate_override=fed.learning_rate_override)
    except ValueError as exc:
        raise ConfigError(f"{source}:{_line_of(text, 'fedavg')}: fedavg: {exc}") from exc
    if data.partition == "iid" and data.m < fed.n:
        raise ConfigError(f"{source}:{_line_of(text, 'n')}: need m >= n clients")

    sgd = None
    if top["sgd"] is not None:
        svals = _take(dict(top["sgd"]), {
            "T": (int, True, None),
            "eta": (float, True, None),
            "batch_size": (int, True, None),
        }, "sgd", text, source)
        if svals["T"] < 1 or svals["eta"] <= 0 or svals["batch_size"] < 1:
            raise ConfigError(f"{source}:{_line_of(text, 'sgd')}: sgd needs T >= 1, eta > 0, batch_size >= 1")
        sgd = SgdBlock(**svals)
    if top["mode"] == "sgd" and sgd is None:
        raise ConfigError(f"{source}:{_line_of(text, 'mode')}: mode sgd requires an sgd block")

    return ExperimentConfig(
        task=top["task"], mode=top["mode"], data=data, fedavg=fed,
        uplink=_parse_schedule(top["uplink"], "uplink", text, source),
        downlink=_parse_schedule(top["downlink"], "downlink", text, source),
        repeat_seeds=tuple(seeds), out_prefix=top["out_prefix"], sgd=sgd,
    )


def load_config(path) -> ExperimentConfig:
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"{path}: cannot read config: {exc}") from exc
    return parse_config(text, source=str(path))


def _schedule_dict(s: NoiseSchedule) -> dict:
    return {"kind": s.kind, "base_std": s.base_std,
            "decay_exponent": s.decay_exponent, "e_squared_scaling": s.e_squared_scaling}


def canonical_dict(cfg: ExperimentConfig) -> dict:
    """Every field explicit, fixed key order; parse(serialize(cfg)) == cfg."""
    out = {
        "task": cfg.task,
        "mode": cfg.mode,
        "data": {
            "m": cfg.data.m, "d": cfg.data.d, "seed": cfg.data.seed,
            "label_noise_variance": cfg.data.label_noise_variance,
            "normalize_hessian": cfg.data.normalize_hessian,
            "n_classes": cfg.data.n_classes,
            "cluster_separation": cfg.data.cluster_separation,
            "partition": cfg.data.partition,
            "labels_per_client": cfg.data.labels_per_client,
        },
        "fedavg": {
            "n": cfg.fedavg.n, "r": cfg.fedavg.r, "E": cfg.fedavg.E, "K": cfg.fedavg.K,
            "gamma": cfg.fedavg.gamma, "batch_size": cfg.fedavg.batch_size,
            "learning_rate_override": cfg.fedavg.learning_rate_override,
        },
        "sgd": None if cfg.sgd is None else
            {"T": cfg.sgd.T, "eta": cfg.sgd.eta, "batch_size": cfg.sgd.batch_size},
        "uplink": _schedule_dict(cfg.uplink),
        "downlink": _schedule_dict(cfg.downlink),
        "repeat_seeds": list(cfg.repeat_seeds),
        "out_prefix": cfg.out_prefix,
    }
    return out


def serialize(cfg: ExperimentConfig) -> str:
    return json.dumps(canonical_dict(cfg), indent=2) + "\n"


def with_schedules(cfg: ExperimentConfig, uplink: NoiseSchedule,
                   downlink: NoiseSchedule) -> ExperimentConfig:
    return replace(cfg, uplink=uplink, downlink=downlink)


# ---------------------------------------------------------------------------
# bundled presets (the reference experiment family)
# ---------------------------------------------------------------------------

V5A_SEEDS = [1, 2, 3]
V5A_DATA = {"m": 15000, "d": 60, "seed": 2024,
            "label_noise_variance": 0.05, "normalize_hessian": True}
V5A_FED = {"n": 50, "r": 10, "E": 5, "K": 100, "gamma": 18.0, "batch_size": 16}
CONST_NOISE = {"kind": "constant", "base_std": 0.2}
OFF = {"kind": "off"}


def _v5a(uplink, downlink, out_prefix, override=None) -> dict:
    fed = dict(V5A_FED)
    if override is not None:
        fed["learning_rate_override"] = override
    return {
        "task": "regression_v5a",
        "mode": "fedavg",
        "data": dict(V5A_DATA),
        "fedavg": fed,
        "uplink": dict(uplink),
        "downlink": dict(downlink),
        "repeat_seeds": list(V5A_SEEDS),
        "out_prefix": out_prefix,
    }


def preset_documents() -> dict:
    """Name -> config dict for every bundled preset."""
    control_up = {"kind": "poly_decay", "base_std": 0.2, "decay_exponent": 0.5}
    control_dn = {"kind": "poly_decay", "base_std": 0.2, "decay_exponent": 1.0,
                  "e_squared_scaling": True}
    # the sweep preset pins the learning rate at the base-configuration value
    # so that axis changes vary only the noise path, not the optimizer; each
    # axis point then runs at the prescribed rate of
    # gamma_eff = sqrt(r/K) / (eta L E), not at the configured gamma
    fixed_eta = learning_rate(V5A_FED["gamma"], 1.0, V5A_FED["E"], V5A_FED["r"], V5A_FED["K"])
    docs = {
        "v5a_noise_free": _v5a(OFF, OFF, "out/v5a_noise_free"),
        "v5a_uplink_only": _v5a(CONST_NOISE, OFF, "out/v5a_uplink_only"),
        "v5a_downlink_only": _v5a(OFF, CONST_NOISE, "out/v5a_downlink_only"),
        "v5a_constant_noise": _v5a(CONST_NOISE, CONST_NOISE, "out/v5a_constant_noise"),
        "v5a_snr_control": _v5a(control_up, control_dn, "out/v5a_snr_control"),
        "v5a_sweep": _v5a(CONST_NOISE, CONST_NOISE, "out/v5a_sweep", override=fixed_eta),
        "classification_noniid": {
            "task": "classification_synth",
            "mode": "fedavg",
            "data": {"m": 2000, "d": 10, "seed": 7, "n_classes": 4,
                     "cluster_separation": 4.0, "partition": "label_shard",
                     "labels_per_client": 2},
            "fedavg": {"n": 20, "r": 5, "E": 5, "K": 40, "gamma": 18.0, "batch_size": 10},
            "uplink": dict(OFF),
            "downlink": dict(OFF),
            "repeat_seeds": [1, 2, 3],
            "out_prefix": "out/classification_noniid",
        },
    }
    return docs


def preset(name: str) -> ExperimentConfig:
    docs = preset_documents()
    if name not in docs:
        raise ConfigError(f"unknown preset {name!r}; have {sorted(docs)}")
    return parse_config(json.dumps(docs[name]), source=f"preset:{name}")


def write_presets(directory) -> list:
    """Materialize every preset as a JSON file; returns the paths."""
    import os

    os.makedirs(directory, exist_ok=True)
    paths = []
    for name, doc in preset_documents().items():
        path = os.path.join(directory, f"{name}.json")
        cfg = parse_config(json.dumps(doc), source=name)
        with open(path, "w") as fh:
            fh.write(serialize(cfg))
        paths.append(path)
    return paths
