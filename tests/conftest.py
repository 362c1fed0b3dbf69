import os

import pytest

_ACCEPTANCE_LINES = []


@pytest.fixture
def acceptance():
    """Record one PASS/FAIL line per acceptance criterion, then assert it."""

    def record(num: int, name: str, ok: bool, detail: str = ""):
        line = f"criterion {num:2d} {name}: {'PASS' if ok else 'FAIL'}  {detail}".rstrip()
        _ACCEPTANCE_LINES.append(line)
        print(line)
        assert ok, line

    return record


@pytest.fixture
def pin_cpus(monkeypatch):
    """pin_cpus(k) makes this process look as if it may run on k CPUs."""

    def pin(cpus: int):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)

    return pin


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if _ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in _ACCEPTANCE_LINES:
            terminalreporter.write_line(line)
