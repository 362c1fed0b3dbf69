"""The benchmark's span tracer wraps metapix functions by name; a rename
must fail here rather than only in a traced benchmark run."""

import contextlib
import importlib
import io
from pathlib import Path

import pytest

import metapix.cli  # noqa: F401  (loads every module the tracer scans)
from metapix.cli import main


@pytest.fixture
def spans(monkeypatch):
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    return importlib.import_module("spans")


def test_tracer_finds_every_span(spans):
    tracer = spans.Tracer()
    try:
        tracer.install()
    except spans.TraceError as exc:
        pytest.fail(f"a traced metapix function is missing: {exc}")
    finally:
        tracer.uninstall()


def test_traced_evaluator_takes_genome_bits(spans, tmp_path):
    """The tracer keeps every evaluator argument as (k, 64) uint8 bits and
    packs them to words for unique_frac; an oracle GA of 8 x 2 hands it
    the initial population and two generations."""
    target = tmp_path / "target.json"
    tracer = spans.Tracer()
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["target", "--freq", "5.8e9", "--out", str(target)]) == 0
        tracer.install()
        try:
            with tracer.stage(0):
                assert main(["design", "--target", str(target), "--evaluator", "oracle",
                             "--population", "8", "--generations", "2",
                             "--out", str(tmp_path / "design.json")]) == 0
        finally:
            tracer.uninstall()
    summary = tracer.summary()
    assert summary["inverse.evaluator.calls"] == 3
    assert summary["inverse.evaluator.genomes"] == 24
    assert 0 < summary["inverse.evaluator.unique_frac"] <= 1
    assert [b.shape for b in tracer.evaluated[0]] == [(8, 64)] * 3
