"""The benchmark's output checks call metapix functions by name, and its
traced runs require some spans to record calls; run both on small chains so
a removed, re-signatured or no longer called function fails here rather
than only in a benchmark run."""

import importlib
import json
from pathlib import Path

import pytest

from metapix.cli import main


def _perfbench(monkeypatch, name):
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    return importlib.import_module(name)


def _design_oracle_chain(d):
    t, des = str(d / "target.json"), str(d / "design.json")
    return [
        ["target", "--band", "5.3e9:6.3e9", "--anchor", "5.0e9:-0.1:0", "--out", t],
        ["design", "--target", t, "--evaluator", "oracle", "--population", "60",
         "--generations", "10", "--out", des],
        ["validate", "--design", des, "--target", t, "--out", str(d / "validation.csv"),
         "--pbm", str(d / "genome.pbm")],
        ["array", "--steer", "30:0", "--design", des, "--sweep", "--hemisphere",
         "--outdir", str(d)],
    ]


def _dataset_bulk_chain(d):
    data = str(d / "jobs1.bin")
    return [
        ["gen", "--n", "300", "--seed", "7", "--jobs", "1", "--out", data],
        ["stats", "--data", data, "--out", str(d / "stats.json")],
    ]


def _surrogate_build_chain(d):
    t, des, cfg = str(d / "target.json"), str(d / "design.json"), d / "train_config.json"
    data, ckpt = str(d / "dataset.bin"), str(d / "surrogate.ckpt")
    cfg.write_text(json.dumps({"train": {"hidden": [16], "seed": 1}}))
    return [
        ["target", "--band", "5.3e9:6.3e9", "--anchor", "5.0e9:-0.1:0", "--out", t],
        ["gen", "--n", "220", "--seed", "7", "--jobs", "1", "--out", data],
        ["train", "--config", str(cfg), "--data", data, "--epochs", "3", "--out", ckpt,
         "--history", str(d / "train_history.csv")],
        ["design", "--target", t, "--evaluator", "surrogate", "--ckpt", ckpt,
         "--population", "60", "--generations", "10", "--out", des],
        ["validate", "--design", des, "--target", t, "--out", str(d / "validation.csv"),
         "--pbm", str(d / "genome.pbm")],
    ]


def _assert_chain_passes_the_checks(workload, chain, d, monkeypatch, capsys):
    checks = _perfbench(monkeypatch, "checks")
    for argv in chain(d):
        assert main(argv) == 0, argv
    capsys.readouterr()
    found = checks.Checks()
    checks.check_rep(workload, d, found)
    assert found.attempted > 0
    assert found.failures == []


def test_design_oracle_chain_passes_the_benchmark_checks(tmp_path, monkeypatch, capsys):
    _assert_chain_passes_the_checks("design-oracle", _design_oracle_chain, tmp_path,
                                    monkeypatch, capsys)


def test_surrogate_build_chain_passes_the_benchmark_checks(tmp_path, monkeypatch, capsys):
    _assert_chain_passes_the_checks("surrogate-build", _surrogate_build_chain, tmp_path,
                                    monkeypatch, capsys)


@pytest.mark.parametrize("workload, chain", [
    ("design-oracle", _design_oracle_chain),
    ("surrogate-build", _surrogate_build_chain),
    ("dataset-bulk", _dataset_bulk_chain),
])
def test_small_chain_records_every_required_span(tmp_path, monkeypatch, capsys, workload, chain):
    spans = _perfbench(monkeypatch, "spans")
    layers = _perfbench(monkeypatch, "layers")
    tracer = spans.Tracer()
    tracer.install()
    try:
        for i, argv in enumerate(chain(tmp_path)):
            with tracer.stage(i):
                assert main(argv) == 0, argv
    finally:
        tracer.uninstall()
    capsys.readouterr()
    recorded = tracer.summary()
    silent = sorted(s for s in layers.required_spans(workload) if not recorded.get(f"{s}.calls"))
    assert silent == []
