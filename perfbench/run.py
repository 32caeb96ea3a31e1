"""fatpointlab benchmark: end-to-end numbers per workload, and per-layer
numbers from a separate traced run.

    python3 perfbench/run.py                       # every workload, untraced
    python3 perfbench/run.py --workload partition --seed 3 --seconds 20 --trace 1
    python3 perfbench/run.py --self-check          # tiny-size check of the harness
    python3 perfbench/run.py --record-reference    # re-record result digests

Run it from anywhere inside a source checkout: the package is imported from
the checkout's ``src``.  Each workload is a closed loop with one client:
ops run back to back on inputs rebuilt from the seed, and the timed window
is the summed op time (input building between ops is not timed).  Reported
times are scaled to a reference machine speed (see ``SpeedScale``).  The last
line of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; with ``--trace 0`` the metrics are the
end-to-end ones, with ``--trace 1`` the per-layer ones.

Written-out state (instance files, kept spans) goes to ``.perfbench_work``
in the checkout.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
import types
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKDIR = ROOT / ".perfbench_work"
sys.path.insert(0, str(HERE))

from spans import CLI_BOUNDARIES, LAYER_BOUNDARIES, Installation, Tracer  # noqa: E402
from workloads import WORKLOADS, child_env, digest  # noqa: E402

SETUP_REPEATS = 5
MODULES = ("exact", "schemes", "matroid", "constructions", "partition", "bounds",
           "generators", "instances", "cli")
LAYERS = ("exact", "schemes", "matroid", "constructions", "partition", "bounds", "cli")

END_TO_END = {
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

# per-layer metric -> unit; counts and times are per traced op
PER_LAYER = {
    "exact.rank.calls": "count/op",
    "exact.rank.self_s": "s/op",
    "exact.rank.cells": "count/op",
    "exact.rank.full.calls": "count/op",
    "exact.rank.full.self_s": "s/op",
    "exact.rank.deficient.calls": "count/op",
    "exact.rank.deficient.self_s": "s/op",
    "exact.rank.full_ratio": "ratio",
    "exact.kernel_basis.calls": "count/op",
    "exact.kernel_basis.self_s": "s/op",
    "exact.matrix.self_s": "s/op",
    "exact.column_subset.self_s": "s/op",
    "schemes.conditions_matrix.calls": "count/op",
    "schemes.conditions_matrix.self_s": "s/op",
    "schemes.conditions_matrix.entries": "count/op",
    "schemes.hilbert_function.calls": "count/op",
    "schemes.regularity_index.self_s": "s/op",
    "schemes.regularity_index.total_s": "s/op",
    "matroid.rank.calls": "count/op",
    "matroid.rank_fn.calls": "count/op",
    "matroid.rank.hit_ratio": "ratio",
    "matroid.rank_fn.self_s": "s/op",
    "matroid.closure.calls": "count/op",
    "matroid.is_independent.self_s": "s/op",
    "constructions.verify_count_hypothesis.calls": "count/op",
    "constructions.verify_count_hypothesis.self_s": "s/op",
    "constructions.verify_count_hypothesis.total_s": "s/op",
    "constructions.count_rank.calls": "count/op",
    "constructions.count_rank.self_s": "s/op",
    "constructions.is_independent.calls": "count/op",
    "constructions.is_independent.self_s": "s/op",
    "partition.edmonds_fulkerson_partition.calls": "count/op",
    "partition.edmonds_fulkerson_partition.self_s": "s/op",
    "partition.inductive_split.self_s": "s/op",
    "partition.avoidance_partition.self_s": "s/op",
    "partition.is_independent.calls": "count/op",
    "partition.witnesses": "count/op",
    "partition.certificate_verify.self_s": "s/op",
    "bounds.segre_bound.calls": "count/op",
    "bounds.segre_bound.self_s": "s/op",
    "bounds.segre_bound.total_s": "s/op",
    "bounds.segre_bound.rank_calls": "count/op",
    "bounds.verify_main_theorem.self_s": "s/op",
    "cli.interpreter_ms": "ms",
    "cli.import_ms": "ms",
    "cli.import_numpy_ms": "ms",
    "cli.exit_ms": "ms",
    "cli.command_ms": "ms",
    "cli.json_io_ms": "ms",
    **{"%s.self_s" % layer: "s/op" for layer in LAYERS},
    "trace.overhead_ratio": "ratio",
    "trace.unattributed_ratio": "ratio",
}

# per-layer metric -> the span name whose calls or self time it reports
_SPAN_CALLS = {
    "exact.rank.calls": "exact.rank",
    "exact.rank.full.calls": "exact.rank.full",
    "exact.rank.deficient.calls": "exact.rank.deficient",
    "exact.kernel_basis.calls": "exact.kernel_basis",
    "schemes.conditions_matrix.calls": "schemes.conditions_matrix",
    "schemes.hilbert_function.calls": "schemes.hilbert_function",
    "matroid.closure.calls": "matroid.closure",
    "constructions.verify_count_hypothesis.calls": "constructions.verify_count_hypothesis",
    "constructions.count_rank.calls": "constructions.count_rank",
    "constructions.is_independent.calls": "constructions.is_independent",
    "partition.edmonds_fulkerson_partition.calls": "partition.edmonds_fulkerson_partition",
    "bounds.segre_bound.calls": "bounds.segre_bound",
}
_COUNTERS = ("exact.rank.cells", "schemes.conditions_matrix.entries", "matroid.rank.calls",
             "matroid.rank_fn.calls", "partition.is_independent.calls", "partition.witnesses",
             "bounds.segre_bound.rank_calls")


def load_package():
    """Import fatpointlab from this checkout's src, or exit without a result."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        modules = {m: importlib.import_module("fatpointlab." + m) for m in MODULES}
    except ImportError as exc:
        sys.exit("perfbench: cannot import fatpointlab from %s: %s" % (src, exc))
    origin = Path(modules["exact"].__file__).resolve()
    if src.resolve() not in origin.parents:
        sys.exit("perfbench: fatpointlab was imported from %s, not from %s" % (origin, src))
    return types.SimpleNamespace(**modules)


def environment(args):
    import numpy

    cpu = "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        with contextlib.suppress(OSError, subprocess.SubprocessError):
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=30).stdout.strip() or commit
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "nproc": os.cpu_count(), "cpu": cpu, "commit": commit, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace}


def kernel_s():
    """Best of two timings of a fixed pure-Python kernel that never touches
    the package: the speed of work inside this process."""
    best = float("inf")
    for _ in range(2):
        t0 = time.perf_counter()
        acc = 0
        for i in range(20000):
            acc += i * i % 7
        best = min(best, time.perf_counter() - t0)
    return best


def _child_s(code):
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", code], capture_output=True, timeout=120, check=True)
    return time.perf_counter() - t0


def interpreter_s():
    """Wall time of ``python -c pass``."""
    return _child_s("pass")


def numpy_start_s():
    """Wall time of a fresh interpreter importing numpy: the speed of
    starting a process and loading extension modules, which is most of a
    cold CLI call (numpy is a dependency, not part of the package)."""
    return _child_s("import numpy")


# probe -> (its time at the reference speed, op time between two samples)
PROBES = {kernel_s: (0.0014, 0.1), numpy_start_s: (0.15, 0.4)}


class SpeedScale:
    """Op times scaled to the reference speed.

    On a shared virtual machine the speed can drift by 20% over tens of
    seconds (other tenants share the host), far more than the bounds.  A
    speed probe is timed between segments of op time (the second entry of
    PROBES), and each op time is multiplied by the probe's reference time
    over its mean time around the segment, so timings read as seconds on a
    machine where the probe takes its reference time.  Probes lie outside
    the timed window.  Work in this process is scaled by ``kernel_s``;
    child processes, whose cost is mostly process start and imports, by
    ``numpy_start_s``.
    """

    def __init__(self, probe):
        self.probe = probe
        self.reference_s, self.segment_s = PROBES[probe]
        self.last = probe()
        self.pending = []
        self.pending_s = 0.0
        self.scaled = []
        self.factors = []

    def add(self, seconds):
        self.pending.append(seconds)
        self.pending_s += seconds
        if self.pending_s >= self.segment_s:
            self.flush()

    def flush(self):
        if not self.pending:
            return
        now = self.probe()
        factor = 2 * self.reference_s / (self.last + now)
        self.scaled.extend(s * factor for s in self.pending)
        self.factors.append(factor)
        self.last = now
        self.pending, self.pending_s = [], 0.0


def scaled_call(fn, probe):
    """(time of fn() scaled to the reference speed, its result)."""
    speed = SpeedScale(probe)
    t0 = time.perf_counter()
    result = fn()
    speed.add(time.perf_counter() - t0)
    speed.flush()
    return speed.scaled[0], result


def median_import_s(n=SETUP_REPEATS):
    """Time of a fresh interpreter importing the package (scaled)."""
    argv = [sys.executable, "-c", "import fatpointlab.cli"]
    return statistics.median(
        scaled_call(lambda: subprocess.run(argv, env=child_env(ROOT), capture_output=True,
                                           timeout=120, check=True), numpy_start_s)[0]
        for _ in range(n))


def set_up(w, offset, probe):
    """Build the first inputs, write files and warm process-wide caches,
    SETUP_REPEATS times; returns (median scaled seconds, inputs of the last)."""

    def once():
        items = [w.build(offset + j) for j in range(w.pool)]
        w.prepare(items)
        w.warm_up(items)
        return items

    runs = [scaled_call(once, probe) for _ in range(SETUP_REPEATS)]
    return statistics.median(t for t, _ in runs), runs[-1][1]


class Run:
    """One workload, one seed: the op loop and its bookkeeping."""

    def __init__(self, fpl, name, seed):
        self.w = WORKLOADS[name](fpl, ROOT, WORKDIR / name)
        self.fpl = fpl
        self.ref = self.w.reference()
        self.seed = seed
        self.offset = random.Random(seed).randrange(self.w.size)
        self.children = self.w.child_processes
        self.probe = numpy_start_s if self.children else kernel_s
        self.latencies = []
        self.failed = 0
        self.errors = []
        self.import_s = median_import_s()
        self.setup_s, self.items = set_up(self.w, self.offset, self.probe)

    def index(self, j):
        # child-process ops cycle over the files written in set-up
        return self.offset + (j % self.w.pool if self.children else j)

    def item(self, j):
        if self.children or j < len(self.items):
            return self.items[j % len(self.items)]
        return self.w.build(self.index(j))

    def record(self, j, latency, result, error):
        self.latencies.append(latency)
        if error is None:
            expected = self.ref[self.index(j) % self.w.size]
            got = digest(result)
            if got != expected:
                error = "digest %s, reference %s" % (got, expected)
        if error is not None:
            self.failed += 1
            if len(self.errors) < 5:
                self.errors.append("op %d (instance %d): %s" % (j, self.index(j) % self.w.size, error))

    def timed_op(self, item):
        t0 = time.perf_counter()
        try:
            result, error = self.w.op(item), None
        except Exception as exc:   # a failed op never stops the run
            result, error = None, "%s: %s" % (type(exc).__name__, exc)
        return time.perf_counter() - t0, result, error

    def measure(self, seconds):
        busy, j = 0.0, 0
        speed = SpeedScale(self.probe)
        while busy < seconds:
            latency, result, error = self.timed_op(self.item(j))
            self.record(j, latency, result, error)
            speed.add(latency)
            busy += latency
            j += 1
        speed.flush()
        return speed

    def end_to_end(self, speed):
        lat = sorted(speed.scaled)
        n = len(lat)
        who = resource.RUSAGE_CHILDREN if self.children else resource.RUSAGE_SELF
        values = {
            "ops_per_s": (n - self.failed) / sum(lat),
            "op_p50_ms": 1000 * statistics.median(lat),
            "setup_s": self.import_s + self.setup_s,
            "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024,
        }
        raw_s = sum(self.latencies)
        info = {"error_rate": self.failed / n, "ops": n, "window_s": raw_s,
                "unscaled": {"ops_per_s": (n - self.failed) / raw_s,
                             "op_p50_ms": 1000 * statistics.median(self.latencies)},
                "speed_factor": {"median": statistics.median(speed.factors),
                                 "min": min(speed.factors), "max": max(speed.factors)}}
        if n >= 20:
            pct = 100 * (n - 10) // n
            rank = -(-pct * n // 100)
            info["op_tail_ms"] = {"value": 1000 * lat[rank - 1], "percentile": pct,
                                  "ops_beyond": n - rank}
        return values, info

    def trace(self, seconds):
        """Pairs of the same instance run untraced, then traced on a fresh
        copy with wrappers installed."""
        tracer = Tracer()
        layers = Installation(tracer, LAYER_BOUNDARIES)
        plain = traced = 0.0
        j = 0
        cli = CliTrace(self, tracer) if self.children else None
        while plain + traced < seconds:
            latency, result, error = self.timed_op(self.item(j))
            self.record(j, latency, result, error)
            plain += latency
            if cli is not None:
                traced += cli.op(self.item(j))
            else:
                fresh = self.w.build(self.index(j))
                with layers:
                    tracer.enter("op")
                    try:
                        self.w.op(fresh)
                    except Exception:
                        pass                    # counted by the untraced twin
                    finally:
                        traced += tracer.exit()
            j += 1
        ops = max(1, tracer.calls["op"] or j)
        values = layer_metrics(tracer, ops)
        values["trace.overhead_ratio"] = traced / plain
        if cli is not None:
            values.update(cli.metrics())
            values["trace.unattributed_ratio"] = cli.unattributed()
            info_extra = {"traced_child_ms": 1000 * statistics.median(cli.walls)}
        else:
            values["trace.unattributed_ratio"] = tracer.layer_self_s["op"] / traced
            info_extra = {}
        self.w.workdir.mkdir(parents=True, exist_ok=True)
        spans_file = self.w.workdir / ("spans-seed%d.json" % self.seed)
        spans_file.write_text(json.dumps({"fields": ["id", "parent", "name", "start", "end"],
                                          "spans": tracer.spans}))
        absent = sorted(set(layers.absent) | set(cli.absent if cli else ()))
        info = {"error_rate": self.failed / len(self.latencies), "ops": len(self.latencies),
                "traced_ops": ops, "absent_boundaries": absent,
                "spans_file": str(spans_file.relative_to(ROOT)), **info_extra}
        return values, info, tracer


class CliTrace:
    """Per-layer numbers for cli-cold, taken from outside each child: the
    interpreter alone, the child's ``-X importtime`` report, the exit of an
    interpreter that imported the package, and the same argv run in this
    process through ``cli.main``."""

    PROBE_EVERY = 3    # ops between two samples of the interpreter and exit times

    def __init__(self, run, tracer):
        self.run = run
        self.tracer = tracer
        self.layers = Installation(tracer, LAYER_BOUNDARIES + CLI_BOUNDARIES)
        self.absent = self.layers.absent
        self.interpreter, self.exits = [], []
        baseline = subprocess.run([sys.executable, "-X", "importtime", "-c", "pass"],
                                  capture_output=True, text=True, timeout=120).stderr
        self.startup_modules = {name for name, _, _ in _importtime(baseline)}
        self.walls, self.imports, self.numpy, self.commands, self.json_io = [], [], [], [], []

    def op(self, item):
        t0 = time.perf_counter()
        proc = self.run.w.run_child(item, extra=("-X", "importtime"))
        wall = time.perf_counter() - t0
        entries = _importtime(proc.stderr)
        self.imports.append(sum(cum for name, cum, level in entries
                                if level == 0 and name not in self.startup_modules))
        self.numpy.append(max((cum for name, cum, _ in entries if name == "numpy"), default=0.0))
        self.walls.append(wall)
        filename, _, args, _ = item
        argv = [args[0], str(self.run.w.workdir / filename), *args[1:]]
        t0 = time.perf_counter()
        self._main(argv)
        self.commands.append(time.perf_counter() - t0)
        before = sum(self.tracer.self_s[k] for k in ("cli.load_instance", "cli.canonical_json"))
        with self.layers:
            self.tracer.enter("op")
            try:
                self._main(argv)
            finally:
                self.tracer.exit()
        after = sum(self.tracer.self_s[k] for k in ("cli.load_instance", "cli.canonical_json"))
        self.json_io.append(after - before)
        if len(self.walls) % self.PROBE_EVERY == 1:
            self.sample_probes()
        return wall

    def sample_probes(self):
        """``python -c pass``, and the extra exit time of an interpreter that
        imported the package: normal exit minus ``os._exit``."""
        self.interpreter.append(interpreter_s())
        times = []
        for code in ("import fatpointlab.cli", "import fatpointlab.cli, os; os._exit(0)"):
            t0 = time.perf_counter()
            subprocess.run([sys.executable, "-c", code], env=child_env(ROOT), capture_output=True,
                           timeout=120, check=True)
            times.append(time.perf_counter() - t0)
        self.exits.append(max(0.0, times[0] - times[1]))

    def _main(self, argv):
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                self.run.fpl.cli.main(argv)
        except Exception as exc:   # the untraced child already judged the op
            self.run.errors.append("in-process %r: %s: %s" % (argv, type(exc).__name__, exc))

    def metrics(self):
        ms = lambda xs: 1000 * statistics.median(xs) if xs else 0.0  # noqa: E731
        return {"cli.interpreter_ms": ms(self.interpreter), "cli.import_ms": ms(self.imports),
                "cli.import_numpy_ms": ms(self.numpy), "cli.exit_ms": ms(self.exits),
                "cli.command_ms": ms(self.commands), "cli.json_io_ms": ms(self.json_io)}

    def unattributed(self):
        m = self.metrics()
        covered = (m["cli.interpreter_ms"] + m["cli.import_ms"] + m["cli.exit_ms"]
                   + m["cli.command_ms"])
        wall = 1000 * statistics.median(self.walls)
        # the parts come from separate processes, so their noise can push
        # this a little below zero
        return (wall - covered) / wall


def _importtime(stderr):
    """(module, cumulative seconds, nesting level) from ``-X importtime``."""
    out = []
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "cumulative" in line:
            continue
        _, cumulative, name = line.split("|")
        bare = name[1:]
        out.append((bare.strip(), int(cumulative) / 1e6, (len(bare) - len(bare.lstrip())) // 2))
    return out


def layer_metrics(tracer, ops):
    calls, self_s, counts = tracer.calls, tracer.self_s, tracer.counts
    values = {}
    for name in PER_LAYER:
        if name in _SPAN_CALLS:
            values[name] = calls[_SPAN_CALLS[name]] / ops
        elif name in _COUNTERS:
            values[name] = counts[name] / ops
        elif name.endswith(".total_s"):
            values[name] = tracer.total_s[name[: -len(".total_s")]] / ops
        elif name.endswith(".self_s"):
            span = name[: -len(".self_s")]
            total = tracer.layer_self_s[span] if span in LAYERS else self_s[span]
            values[name] = total / ops
        else:
            values[name] = 0.0
    decided = calls["exact.rank.full"] + calls["exact.rank.deficient"]
    values["exact.rank.full_ratio"] = calls["exact.rank.full"] / decided if decided else 0.0
    rank_calls = counts["matroid.rank.calls"]
    values["matroid.rank.hit_ratio"] = (
        1 - counts["matroid.rank_fn.calls"] / rank_calls if rank_calls else 0.0)
    return values


def run_workload(fpl, name, seed, seconds, trace):
    run = Run(fpl, name, seed)
    if trace:
        values, info, tracer = run.trace(seconds)
        units = PER_LAYER
    else:
        values, info = run.end_to_end(run.measure(seconds))
        tracer = None
        units = END_TO_END
    info["errors"] = run.errors
    result = {
        "correct": run.failed == 0,
        "attempted": len(run.latencies),
        "failed": run.failed,
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in units},
    }
    return result, info, tracer


def print_table(name, result, info):
    print("== %s: %d ops, %d failed" % (name, result["attempted"], result["failed"]))
    for key, m in result["metrics"].items():
        print("  %-46s %14.6g %s" % (key, m["value"], m["unit"]))
    print("  info " + json.dumps(info, sort_keys=True))


def self_check(fpl):
    """Tiny runs of every workload, untraced and traced: every metric is
    printed with its unit, ops are correct, and every boundary is called on
    the workload it is meant for."""
    problems = []
    bench = ROOT / "BENCHMARK.json"
    declared = json.loads(bench.read_text()) if bench.exists() else None
    if declared is not None:
        if {m["name"]: m["unit"] for m in declared["end_to_end"]} != END_TO_END:
            problems.append("BENCHMARK.json end_to_end differs from END_TO_END")
        if {m["name"]: m["unit"] for m in declared["per_layer"]} != PER_LAYER:
            problems.append("BENCHMARK.json per_layer differs from PER_LAYER")
        if sorted(w["name"] for w in declared["workloads"]) != sorted(WORKLOADS):
            problems.append("BENCHMARK.json workloads differ from WORKLOADS")
    tracers = {}
    for name in WORKLOADS:
        for trace, units in ((0, END_TO_END), (1, PER_LAYER)):
            result, info, tracer = run_workload(fpl, name, 1, 2, trace)
            print_table("%s trace=%d" % (name, trace), result, info)
            if not result["correct"]:
                problems.append("%s trace=%d: %d failed ops %r" % (name, trace, result["failed"],
                                                                  info["errors"]))
            for key, unit in units.items():
                got = result["metrics"].get(key)
                if got is None or got["unit"] != unit or not isinstance(got["value"], float):
                    problems.append("%s trace=%d: metric %s missing or without unit" % (name, trace, key))
            if trace:
                tracers[name] = tracer
                for boundary in info["absent_boundaries"]:
                    problems.append("%s: boundary %s is absent" % (name, boundary))
    for b in LAYER_BOUNDARIES + CLI_BOUNDARIES:
        t = tracers[b.meant_for]
        if t.calls[b.span] + t.counts[b.span + ".calls"] == 0:
            problems.append("boundary %s never called on %s" % (b.span, b.meant_for))
    for key, name in (("constructions.is_independent", "partition"),
                      ("exact.rank.deficient", "special-position"),
                      ("exact.rank.full", "small-random")):
        if tracers[name].calls[key] == 0:
            problems.append("span %s never closed on %s" % (key, name))
    if tracers["partition"].counts["partition.witnesses"] == 0:
        problems.append("no infeasibility witness on partition")
    for p in problems:
        print("FAIL " + p)
    print("self-check: %s" % ("FAIL" if problems else "PASS"))
    return 1 if problems else 0


def record_reference(fpl, names):
    """Recompute every catalog instance's digest (run only when results are
    meant to change)."""
    for name in names:
        w = WORKLOADS[name](fpl, ROOT, WORKDIR / name)
        lines = []
        for index in range(w.size):
            item = w.build(index)
            w.prepare([item])
            lines.append(digest(w.op(item)))
        path = HERE / "reference" / ("%s.txt" % name)
        path.parent.mkdir(exist_ok=True)
        path.write_text("\n".join(lines) + "\n")
        print("%s: %d digests -> %s" % (name, len(lines), path))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=["all", *WORKLOADS])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--self-check", action="store_true")
    parser.add_argument("--record-reference", action="store_true")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    fpl = load_package()
    if args.self_check:
        return self_check(fpl)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    if args.record_reference:
        record_reference(fpl, names)
        return 0
    print(json.dumps({"environment": {**environment(args), "workload": args.workload}}))
    results = {}
    for name in names:
        result, info, _ = run_workload(fpl, name, args.seed, args.seconds, args.trace)
        print_table(name, result, info)
        results[name] = result
    if len(names) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {"%s/%s" % (n, k): m for n, r in results.items()
                        for k, m in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
