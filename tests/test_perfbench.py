"""The benchmark harness still finds what it measures in the library."""

import importlib.util
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture
def harness(monkeypatch):
    """perfbench/run.py loaded as a module; it puts perfbench/ on sys.path
    to import its siblings, and load_package puts src/ there, so sys.path
    is restored afterwards."""
    monkeypatch.setattr(sys, "path", list(sys.path))
    spec = importlib.util.spec_from_file_location("perfbench_run", PERFBENCH / "run.py")
    run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run)
    return run


def test_every_boundary_resolves(harness):
    # an absent boundary is skipped by a traced run, which then reads 0 for
    # its per-layer metrics instead of failing
    from spans import CLI_BOUNDARIES, LAYER_BOUNDARIES, Installation, Tracer

    assert Installation(Tracer(), LAYER_BOUNDARIES + CLI_BOUNDARIES).absent == []


def test_every_measured_module_imports(harness):
    package = harness.load_package()
    assert sorted(vars(package)) == sorted(harness.MODULES)
    for name in harness.MODULES:
        assert getattr(package, name).__name__ == "fatpointlab." + name
