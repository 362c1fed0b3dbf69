"""Run configuration: one JSON document covering every stage of the pipeline.

A config file may specify any subset of the fields; missing ones are filled
from the committed defaults so that an empty document is a valid config.
Unknown keys and mistyped values (see `jsontypes`) are rejected loudly.  Each
section's dataclass lives beside its code: TrainSettings in surrogate (and
importable from here), GAConfig in inverse, ArrayConfig in arraysim.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from pathlib import Path

from .arraysim import ArrayConfig
from .inverse import GAConfig
from .jsontypes import loads, read
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


def config_from_dict(data: dict) -> RunConfig:
    return read(RunConfig, data, "config key", "config", RunConfig())


def load_config(path: str | Path | None) -> RunConfig:
    """Read a JSON config file; None gives the committed defaults."""
    if path is None:
        return RunConfig()
    p = Path(path)
    if not p.exists():
        raise FileNotFoundError(f"config file not found: {p}")
    try:
        data = loads(p.read_text())
    except ValueError as exc:  # bad UTF-8 as well as bad JSON
        raise ValueError(f"config file {p} is not valid JSON: {exc}") from exc
    return config_from_dict(data)
