"""The benchmark's span tracer wraps metapix functions by name; a rename
must fail here rather than only in a traced benchmark run."""

import importlib
from pathlib import Path

import pytest

import metapix.cli  # noqa: F401  (loads every module the tracer scans)


def test_tracer_finds_every_span(monkeypatch):
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    spans = importlib.import_module("spans")
    tracer = spans.Tracer()
    try:
        tracer.install()
    except spans.TraceError as exc:
        pytest.fail(f"a traced metapix function is missing: {exc}")
    finally:
        tracer.uninstall()
