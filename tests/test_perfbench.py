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


@pytest.mark.parametrize("name, step", [("small-random", 7), ("special-position", 1), ("partition", 13)])
def test_results_match_the_reference_digests(harness, tmp_path, name, step):
    # every step-th catalog instance, run in process: reports stay
    # byte-identical before the benchmark is run (cli-cold is left out, its
    # ops start processes)
    from workloads import WORKLOADS, digest

    w = WORKLOADS[name](harness.load_package(), harness.ROOT, tmp_path)
    expected = w.reference()
    got = {i: digest(w.op(w.build(i))) for i in range(0, w.size, step)}
    assert got == {i: expected[i] for i in got}
