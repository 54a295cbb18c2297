"""Experiment configuration: JSON schema and validation.

A config file is one JSON object. Each block's keys, types, defaults and
order come from its dataclass (``DataConfig``, ``FedAvgConfig``,
``SgdBlock``, ``NoiseSchedule``). Unknown keys anywhere are rejected, numbers
must be finite, every nested invariant is checked before any run starts, and
validation errors carry a best-effort line reference into the source text.
Parsing then serializing yields a canonical document with every defaulted
field explicit.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import MISSING, dataclass, fields
from functools import cache
from typing import get_args, get_type_hints

from .channel import NoiseSchedule
from .fedavg import FedAvgConfig

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
class SgdBlock:
    T: int
    eta: float
    batch_size: int


@dataclass(frozen=True)
class ExperimentConfig:
    task: str
    mode: str
    data: DataConfig
    fedavg: FedAvgConfig
    uplink: NoiseSchedule
    downlink: NoiseSchedule
    repeat_seeds: tuple
    out_prefix: str
    sgd: SgdBlock | None = None


def _line_of(text: str, key: str, block: str | None = None) -> int:
    """Line of the first ``"key":``, searched from the line of ``"block":`` when
    given, so a key that several blocks share points into the right one; 1 if none."""
    lines = text.splitlines()
    start = _line_of(text, block) - 1 if block else 0
    pattern = re.compile(rf'"{re.escape(key)}"\s*:')
    for ln in range(start, len(lines)):
        if pattern.search(lines[ln]):
            return ln + 1
    return 1


@cache
def _schema(cls) -> dict:
    """Key -> (types, required, default) for each field of a block's dataclass.

    A schedule's direction is not a key: it is the name of its block.
    """
    hints = get_type_hints(cls)
    return {f.name: (get_args(hints[f.name]) or hints[f.name], f.default is MISSING, f.default)
            for f in fields(cls) if f.name != "direction"}


def _take(block: dict, allowed: dict, where: str, text: str, source: str) -> dict:
    """Pop known keys with type coercion; reject anything left over."""
    block_key = None if where == "top" else where
    out = {}
    for key, (types, required, default) in allowed.items():
        if key in block:
            val = block.pop(key)
            kinds = types if isinstance(types, tuple) else (types,)
            if float in kinds and isinstance(val, int) and not isinstance(val, bool):
                val = float(val)
            if not isinstance(val, kinds) or (isinstance(val, bool) and bool not in kinds):
                raise ConfigError(f"{source}:{_line_of(text, key, block_key)}: {where}.{key} has wrong type")
            if isinstance(val, float) and not math.isfinite(val):
                raise ConfigError(f"{source}:{_line_of(text, key, block_key)}: {where}.{key} must be finite")
            out[key] = val
        elif required:
            raise ConfigError(f"{source}:{_line_of(text, where)}: missing required key {where}.{key}")
        else:
            out[key] = default
    if block:
        stray = sorted(block)[0]
        raise ConfigError(f"{source}:{_line_of(text, stray, block_key)}: unknown key {where}.{stray}")
    return out


def _parse_schedule(block, direction, text, source) -> NoiseSchedule:
    if block is None:
        block = {}
    if not isinstance(block, dict):
        raise ConfigError(f"{source}:{_line_of(text, direction)}: {direction} must be an object")
    vals = _take(dict(block), _schema(NoiseSchedule), direction, text, source)
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

    dvals = _take(dict(top["data"]), _schema(DataConfig), "data", text, source)
    if dvals["seed"] < 0:
        raise ConfigError(f"{source}:{_line_of(text, 'seed', 'data')}: data.seed must be >= 0")
    if dvals["partition"] not in PARTITIONS:
        raise ConfigError(f"{source}:{_line_of(text, 'partition', 'data')}: partition must be one of {PARTITIONS}")
    if top["task"] == "regression_v5a":
        if dvals["partition"] != "iid":
            raise ConfigError(f"{source}:{_line_of(text, 'partition', 'data')}: regression data is partitioned iid")
        if dvals["m"] < dvals["d"] or dvals["d"] < 1:
            raise ConfigError(f"{source}:{_line_of(text, 'm', 'data')}: need m >= d >= 1")
        if dvals["label_noise_variance"] < 0:
            raise ConfigError(f"{source}:{_line_of(text, 'label_noise_variance', 'data')}: variance must be >= 0")
    else:
        if dvals["n_classes"] < 2:
            raise ConfigError(f"{source}:{_line_of(text, 'n_classes', 'data')}: classification needs n_classes >= 2")
        if dvals["m"] < dvals["n_classes"]:
            raise ConfigError(f"{source}:{_line_of(text, 'm', 'data')}: need m >= n_classes")
        if dvals["d"] < 1:
            raise ConfigError(f"{source}:{_line_of(text, 'd', 'data')}: need d >= 1")
        if dvals["labels_per_client"] < 1:
            raise ConfigError(f"{source}:{_line_of(text, 'labels_per_client', 'data')}: "
                              "need labels_per_client >= 1")
    data = DataConfig(**dvals)

    fvals = _take(dict(top["fedavg"]), _schema(FedAvgConfig), "fedavg", text, source)
    try:
        fed = FedAvgConfig(**fvals)
    except ValueError as exc:
        raise ConfigError(f"{source}:{_line_of(text, 'fedavg')}: fedavg: {exc}") from exc
    if top["mode"] == "fedavg":  # sgd mode runs on one shard of every row
        if data.partition == "iid" and data.m < fed.n:
            raise ConfigError(f"{source}:{_line_of(text, 'n', 'fedavg')}: need m >= n clients")
        if fed.n < 2:
            raise ConfigError(f"{source}:{_line_of(text, 'n', 'fedavg')}: fedavg mode needs "
                              "n >= 2 clients")

    sgd = None
    if top["sgd"] is not None:
        svals = _take(dict(top["sgd"]), _schema(SgdBlock), "sgd", text, source)
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


def _block(obj) -> dict | None:
    return None if obj is None else {key: getattr(obj, key) for key in _schema(type(obj))}


def canonical_dict(cfg: ExperimentConfig) -> dict:
    """Every field explicit, fixed key order; parse(serialize(cfg)) == cfg."""
    return {
        "task": cfg.task,
        "mode": cfg.mode,
        "data": _block(cfg.data),
        "fedavg": _block(cfg.fedavg),
        "sgd": _block(cfg.sgd),
        "uplink": _block(cfg.uplink),
        "downlink": _block(cfg.downlink),
        "repeat_seeds": list(cfg.repeat_seeds),
        "out_prefix": cfg.out_prefix,
    }


def serialize(cfg: ExperimentConfig) -> str:
    return json.dumps(canonical_dict(cfg), indent=2) + "\n"
