import json
import math
import re

import pytest

from metapix.netcalc import RlcBranch
from metapix.config import (
    RunConfig,
    TrainSettings,
    config_from_dict,
    config_to_dict,
    load_config,
)


def dump_default_config() -> str:
    return json.dumps(config_to_dict(RunConfig()), indent=2) + "\n"


def test_default_round_trip():
    cfg = RunConfig()
    assert config_from_dict(config_to_dict(cfg)) == cfg
    assert config_from_dict({}) == cfg
    assert config_from_dict(json.loads(dump_default_config())) == cfg


def test_nested_override_keeps_other_fields():
    cfg = config_from_dict({"constants": {"l_lead": 0.2e-9}, "dataset_seed": 9})
    assert cfg.constants.l_lead == 0.2e-9
    assert cfg.constants.c_gap0 == RunConfig().constants.c_gap0
    assert cfg.dataset_seed == 9
    assert cfg.ga == RunConfig().ga


def test_switch_override():
    cfg = config_from_dict({"switch": {"state1": {"r": 12.0}}})
    assert cfg.switch.state1.r == 12.0
    assert cfg.switch.state1.l == RunConfig().switch.state1.l
    assert cfg.switch.state0 == RunConfig().switch.state0


def test_unknown_keys_rejected():
    with pytest.raises(ValueError, match="config.bogus"):
        config_from_dict({"bogus": 1})
    with pytest.raises(ValueError, match="switch.state2"):
        config_from_dict({"switch": {"state2": {"r": 1.0}}})
    with pytest.raises(ValueError, match="config.train.momentum"):
        config_from_dict({"train": {"momentum": 0.9}})


def test_train_settings_validation():
    with pytest.raises(ValueError):
        TrainSettings(hidden=())
    with pytest.raises(ValueError):
        TrainSettings(batch_size=0)
    with pytest.raises(ValueError):
        TrainSettings(lr0=0.0)


@pytest.mark.parametrize("branch", [
    {"state1": {"c": 0.0}},
    {"state1": {"c": -1e-13}},
    {"state1": {"l": 0.0, "c": -1e-13}},
    {"state0": {"r": -1.0}},
    {"state1": {"l": -1e-12}},
])
def test_switch_branch_validation(branch):
    with pytest.raises(ValueError, match="switch branch"):
        config_from_dict({"switch": branch})


def test_switch_branch_refuses_non_finite_values():
    for kwargs in ({"r": math.nan, "l": 1e-10}, {"r": 1.0, "l": math.inf},
                   {"r": 1.0, "l": 1e-10, "c": math.nan}, {"r": 1.0, "l": 1e-10, "c": math.inf}):
        with pytest.raises(ValueError, match="finite"):
            RlcBranch(**kwargs)
    # a lossless, inductance-free or capacitance-free branch stays allowed
    assert RlcBranch(r=0.0, l=0.0, c=None).c is None
    cfg = config_from_dict({"switch": {"state0": {"r": 0.0, "l": 0.0}}})
    assert cfg.switch.state0 == RlcBranch(0.0, 0.0)


def test_load_config_paths(tmp_path):
    assert load_config(None) == RunConfig()
    with pytest.raises(FileNotFoundError):
        load_config(tmp_path / "nope.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ValueError, match="not valid JSON"):
        load_config(bad)
    good = tmp_path / "good.json"
    good.write_text(json.dumps({"train": {"hidden": [32, 32]}}))
    assert load_config(good).train.hidden == (32, 32)


@pytest.mark.parametrize("doc, path", [
    ({"ga": {"population": "10"}}, "config.ga.population"),
    ({"ga": {"population": True}}, "config.ga.population"),
    ({"ga": {"population": 10.5}}, "config.ga.population"),
    ({"train": {"lr0": "1e-3"}}, "config.train.lr0"),
    ({"train": {"lr0": False}}, "config.train.lr0"),
    ({"train": {"lr0": [1e-3]}}, "config.train.lr0"),
    ({"train": {"lr0": float("nan")}}, "config.train.lr0"),
    ({"constants": {"l_lead": float("inf")}}, "config.constants.l_lead"),
    ({"array": {"f0": 10**400}}, "config.array.f0"),
    ({"train": {"hidden": [32, "32"]}}, "config.train.hidden[1]"),
    ({"train": {"hidden": 32}}, "config.train.hidden"),
    ({"array": {"feed_xyz": [0.0, 0.3]}}, "config.array.feed_xyz"),
    ({"array": {"plane_wave_feed": 1}}, "config.array.plane_wave_feed"),
    ({"switch": {"state0": {"c": "1e-13"}}}, "config.switch.state0.c"),
    ({"switch": {"state1": 5}}, "config.switch.state1"),
    ({"ga": [24]}, "config.ga"),
    ({"outdir": 5}, "config.outdir"),
])
def test_wrong_value_types_rejected(doc, path):
    with pytest.raises(ValueError, match=re.escape(f"config key {path} expects")):
        config_from_dict(doc)


def test_ints_widen_to_floats_and_null_fits_optional():
    cfg = config_from_dict({"train": {"lr0": 1}, "array": {"feed_xyz": [0, 0, 1]},
                            "switch": {"state0": {"c": 1e-13}, "state1": {"c": None}}})
    assert cfg.train.lr0 == 1.0 and type(cfg.train.lr0) is float
    assert cfg.array.feed_xyz == (0.0, 0.0, 1.0)
    assert cfg.switch.state0.c == 1e-13
    assert cfg.switch.state1.c is None
    assert config_from_dict({"switch": {"state0": {"c": None}}}) == RunConfig()
