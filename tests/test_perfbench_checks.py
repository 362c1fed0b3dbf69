"""The benchmark's output checks call metapix functions by name; run them on
a small design-oracle chain so a removed or re-signatured function fails
here rather than only in a benchmark run."""

import importlib
from pathlib import Path

from metapix.cli import main


def test_design_oracle_chain_passes_the_benchmark_checks(tmp_path, monkeypatch, capsys):
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    checks = importlib.import_module("checks")
    t, d = str(tmp_path / "target.json"), str(tmp_path / "design.json")
    for argv in (
        ["target", "--band", "5.3e9:6.3e9", "--anchor", "5.0e9:-0.1:0", "--out", t],
        ["design", "--target", t, "--evaluator", "oracle", "--population", "60",
         "--generations", "10", "--out", d],
        ["validate", "--design", d, "--target", t, "--out", str(tmp_path / "validation.csv"),
         "--pbm", str(tmp_path / "genome.pbm")],
        ["array", "--steer", "30:0", "--design", d, "--sweep", "--hemisphere",
         "--outdir", str(tmp_path)],
    ):
        assert main(argv) == 0, argv
    capsys.readouterr()
    found = checks.Checks()
    checks.check_rep("design-oracle", tmp_path, found)
    assert found.attempted > 0
    assert found.failures == []
