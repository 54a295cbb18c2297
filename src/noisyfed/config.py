"""Experiment configuration: JSON schema and validation.

A config file is one JSON object. Its top-level keys, types, defaults and
order come from ``ExperimentConfig``, as each block's come from its dataclass
(``DataConfig``, ``FedAvgConfig``, ``SgdBlock``, ``NoiseSchedule``). Unknown
and repeated keys anywhere are rejected, numbers must be finite (an integer
too large for a float is not), every nested invariant is checked before any
run starts, and validation errors carry a best-effort line reference into the
source text. Parsing then serializing yields a canonical document with every
defaulted field explicit.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import MISSING, dataclass, fields, is_dataclass
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

    def __post_init__(self):
        if self.T < 1 or self.eta <= 0 or self.batch_size < 1:
            raise ValueError("need T >= 1, eta > 0, batch_size >= 1")


@dataclass(frozen=True, kw_only=True)
class ExperimentConfig:
    task: str
    mode: str = "fedavg"
    data: DataConfig
    fedavg: FedAvgConfig
    sgd: SgdBlock | None = None
    uplink: NoiseSchedule = NoiseSchedule("uplink")
    downlink: NoiseSchedule = NoiseSchedule("downlink")
    repeat_seeds: tuple
    out_prefix: str = "out/run"


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
    """Key -> (JSON types, required, default) for each field of a dataclass. A block
    reads as an object, or as null where it has a default; a tuple reads as a list.

    A schedule's direction is not a key: it is the name of its block.
    """
    hints = get_type_hints(cls)
    schema = {}
    for f in fields(cls):
        kinds = tuple(dict if is_dataclass(kind) else list if kind is tuple else kind
                      for kind in get_args(hints[f.name]) or (hints[f.name],))
        nullable = (type(None),) if dict in kinds and f.default is not MISSING else ()
        schema[f.name] = (kinds + nullable, f.default is MISSING, f.default)
    schema.pop("direction", None)
    return schema


def _take(block: dict, allowed: dict, where: str, text: str, source: str) -> dict:
    """Pop known keys with type coercion, null reading as the default; reject
    anything left over."""
    block_key = None if where == "top" else where
    out = {}
    for key, (kinds, required, default) in allowed.items():
        if key in block:
            val = block.pop(key)
            if float in kinds and isinstance(val, int) and not isinstance(val, bool):
                try:
                    val = float(val)
                except OverflowError:  # beyond float range
                    val = math.inf
            if not isinstance(val, kinds) or (isinstance(val, bool) and bool not in kinds):
                raise ConfigError(f"{source}:{_line_of(text, key, block_key)}: {where}.{key} has wrong type")
            if isinstance(val, float) and not math.isfinite(val):
                raise ConfigError(f"{source}:{_line_of(text, key, block_key)}: {where}.{key} must be finite")
            out[key] = default if val is None else val
        elif required:
            raise ConfigError(f"{source}:{_line_of(text, where)}: missing required key {where}.{key}")
        else:
            out[key] = default
    if block:
        stray = sorted(block)[0]
        raise ConfigError(f"{source}:{_line_of(text, stray, block_key)}: unknown key {where}.{stray}")
    return out


def _parse_block(cls, block, where: str, text: str, source: str, **fixed):
    """A block's dataclass from its JSON object, its checks failing at the block's
    line; a value ``_take`` already read as the block's default passes through."""
    if not isinstance(block, dict):
        return block
    vals = _take(block, _schema(cls), where, text, source)
    try:
        return cls(**vals, **fixed)
    except ValueError as exc:
        raise ConfigError(f"{source}:{_line_of(text, where)}: {where}: {exc}") from exc


def parse_config(text: str, source: str = "config") -> ExperimentConfig:
    def unique_keys(pairs: list) -> dict:
        keys = [key for key, _ in pairs]
        for i, key in enumerate(keys):
            if key in keys[:i]:
                raise ConfigError(f"{source}:{_line_of(text, key)}: duplicate key {key}")
        return dict(pairs)

    try:
        raw = json.loads(text, object_pairs_hook=unique_keys)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{source}:{exc.lineno}: invalid JSON: {exc.msg}") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"{source}:1: top level must be an object")
    top = _take(raw, _schema(ExperimentConfig), "top", text, source)

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

    data = _parse_block(DataConfig, top["data"], "data", text, source)
    if data.seed < 0:
        raise ConfigError(f"{source}:{_line_of(text, 'seed', 'data')}: data.seed must be >= 0")
    if data.partition not in PARTITIONS:
        raise ConfigError(f"{source}:{_line_of(text, 'partition', 'data')}: partition must be one of {PARTITIONS}")
    if top["task"] == "regression_v5a":
        if data.partition != "iid":
            raise ConfigError(f"{source}:{_line_of(text, 'partition', 'data')}: regression data is partitioned iid")
        if data.m < data.d or data.d < 1:
            raise ConfigError(f"{source}:{_line_of(text, 'm', 'data')}: need m >= d >= 1")
        if data.label_noise_variance < 0:
            raise ConfigError(f"{source}:{_line_of(text, 'label_noise_variance', 'data')}: variance must be >= 0")
    else:
        if data.n_classes < 2:
            raise ConfigError(f"{source}:{_line_of(text, 'n_classes', 'data')}: classification needs n_classes >= 2")
        if data.m < data.n_classes:
            raise ConfigError(f"{source}:{_line_of(text, 'm', 'data')}: need m >= n_classes")
        if data.d < 1:
            raise ConfigError(f"{source}:{_line_of(text, 'd', 'data')}: need d >= 1")
        if data.labels_per_client < 1:
            raise ConfigError(f"{source}:{_line_of(text, 'labels_per_client', 'data')}: "
                              "need labels_per_client >= 1")

    fed = _parse_block(FedAvgConfig, top["fedavg"], "fedavg", text, source)
    if top["mode"] == "fedavg":  # sgd mode runs on one shard of every row
        if data.partition == "iid" and data.m < fed.n:
            raise ConfigError(f"{source}:{_line_of(text, 'n', 'fedavg')}: need m >= n clients")
        if fed.n < 2:
            raise ConfigError(f"{source}:{_line_of(text, 'n', 'fedavg')}: fedavg mode needs "
                              "n >= 2 clients")

    sgd = _parse_block(SgdBlock, top["sgd"], "sgd", text, source)
    if top["mode"] == "sgd" and sgd is None:
        raise ConfigError(f"{source}:{_line_of(text, 'mode')}: mode sgd requires an sgd block")

    for key in ("uplink", "downlink"):
        top[key] = _parse_block(NoiseSchedule, top[key], key, text, source, direction=key)
    return ExperimentConfig(**dict(top, data=data, fedavg=fed, sgd=sgd, repeat_seeds=tuple(seeds)))


def load_config(path) -> ExperimentConfig:
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"{path}: cannot read config: {exc}") from exc
    return parse_config(text, source=str(path))


def canonical_dict(cfg) -> dict:
    """Every field of a config or of a block explicit, in field order, with blocks
    as objects and tuples as lists; parse(serialize(cfg)) == cfg."""
    out = {}
    for key in _schema(type(cfg)):
        val = getattr(cfg, key)
        out[key] = canonical_dict(val) if is_dataclass(val) else list(val) if isinstance(val, tuple) else val
    return out


def serialize(cfg: ExperimentConfig) -> str:
    return json.dumps(canonical_dict(cfg), indent=2) + "\n"
