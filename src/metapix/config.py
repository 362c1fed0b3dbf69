"""Run configuration: one JSON document covering every stage of the pipeline.

A config file may specify any subset of the fields; missing ones are filled
from the committed defaults so that an empty document is a valid config.
Unknown keys are rejected loudly since they are almost always typos.  Each
section's dataclass lives beside its code: TrainSettings in surrogate (and
importable from here), GAConfig in inverse, ArrayConfig in arraysim.
"""

from __future__ import annotations

import dataclasses
import json
import sys
import typing
from dataclasses import dataclass
from pathlib import Path

from .arraysim import ArrayConfig
from .inverse import GAConfig
from .netcalc import PIN_SWITCH, SwitchModel
from .oracle import OracleConstants
from .pattern import GeometryMeta
from .surrogate import TrainSettings


@dataclass(frozen=True)
class RunConfig:
    constants: OracleConstants = OracleConstants()
    geometry: GeometryMeta = GeometryMeta()
    switch: SwitchModel = PIN_SWITCH
    train: TrainSettings = TrainSettings()
    ga: GAConfig = GAConfig()
    array: ArrayConfig = ArrayConfig()
    dataset_n: int = 11000
    dataset_seed: int = 1
    outdir: str = "out"

    def __post_init__(self):
        if self.dataset_n < 1:
            raise ValueError("dataset size must be positive")


def config_to_dict(cfg: RunConfig) -> dict:
    d = dataclasses.asdict(cfg)
    d["train"]["hidden"] = list(cfg.train.hidden)
    d["array"]["feed_xyz"] = list(cfg.array.feed_xyz)
    return d


def _coerce(hint, value, path: str):
    """A JSON value as the annotated field type; ValueError naming the key
    path when it does not fit.  An int is accepted where a float is due;
    NaN, infinities and ints beyond the float range are not."""
    args = typing.get_args(hint)
    if typing.get_origin(hint) is tuple:
        if isinstance(value, list):
            types = (args[0],) * len(value) if args[-1] is Ellipsis else args
            if len(types) == len(value):
                return tuple(_coerce(t, v, f"{path}[{i}]")
                             for i, (t, v) in enumerate(zip(types, value)))
    elif args:  # a union such as float | None
        for option in args:
            try:
                return _coerce(option, value, path)
            except ValueError:
                pass
    elif hint is float:
        if type(value) in (int, float) and abs(value) <= sys.float_info.max:
            return float(value)
    elif type(value) is hint:
        return value
    name = hint.__name__ if isinstance(hint, type) else hint
    raise ValueError(f"config key {path} expects {name}, got {json.dumps(value)}")


def _rebuild(cls, defaults, data, path: str):
    """Instantiate a dataclass from defaults overridden by a JSON dict."""
    if not isinstance(data, dict):
        raise ValueError(f"config key {path} expects an object, got {json.dumps(data)}")
    hints = typing.get_type_hints(cls)
    kwargs = {f.name: getattr(defaults, f.name) for f in dataclasses.fields(cls)}
    for key, value in data.items():
        if key not in kwargs:
            raise ValueError(f"unknown config key {path}.{key}")
        default = kwargs[key]
        if dataclasses.is_dataclass(default):
            kwargs[key] = _rebuild(type(default), default, value, f"{path}.{key}")
        else:
            kwargs[key] = _coerce(hints[key], value, f"{path}.{key}")
    return cls(**kwargs)


def config_from_dict(data: dict) -> RunConfig:
    if not isinstance(data, dict):
        raise ValueError("config document must be a JSON object")
    return _rebuild(RunConfig, RunConfig(), data, "config")


def load_config(path: str | Path | None) -> RunConfig:
    """Read a JSON config file; None gives the committed defaults."""
    if path is None:
        return RunConfig()
    p = Path(path)
    if not p.exists():
        raise FileNotFoundError(f"config file not found: {p}")
    try:
        data = json.loads(p.read_text())
    except json.JSONDecodeError as exc:
        raise ValueError(f"config file {p} is not valid JSON: {exc}") from exc
    return config_from_dict(data)


def dump_default_config() -> str:
    return json.dumps(config_to_dict(RunConfig()), indent=2) + "\n"
