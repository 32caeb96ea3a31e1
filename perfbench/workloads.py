"""The benchmark's workloads: instance catalogs, ops and their checks.

Each workload owns a catalog of ``size`` instances.  Instance ``i`` is built
from its own seed ("<workload>/<i>") with the package's public constructors,
so it can be rebuilt at will and its result digest can be recorded once in
``reference/<workload>.txt``.  A run visits consecutive catalog indices from
an offset drawn from the run's seed, wrapping around, and builds every
instance afresh: the package memoizes on its input objects
(``RankOracle._cache``, ``FatPointScheme._hilbert_cache``,
``ExactMatrix._rank``), so an input object is never handed to two ops.

Shapes that drive the cost (ambient dimension and support size, or the
avoidance parameters) cycle with the index; the seed only moves coordinates,
multiplicities and targets.  Every run therefore sees the same shape mix,
which keeps run-to-run spread low.

An op is the program's work plus an independent re-check of its result; a
failed re-check raises ``CheckFailed``.  None of the checks is an
``assert``, so they survive ``python -O``.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import subprocess
import sys
from pathlib import Path


class CheckFailed(Exception):
    """An op's result failed its independent re-check."""


def digest(result):
    text = json.dumps(result, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:8]


def _rng(workload, index):
    return random.Random("%s/%d" % (workload, index))


def _warm_monomials(schemes, dims):
    """Fill the process-wide ``monomials`` cache, if the package has one."""
    monomials = getattr(schemes, "monomials", None)
    if monomials is not None:
        for n in dims:
            for d in range(40):
                monomials(n, d)


class Workload:
    name = ""
    size = 0           # catalog size
    pool = 32          # instances built during set-up; later ones on demand
    child_processes = False

    def __init__(self, fpl, root, workdir):
        self.fpl = fpl              # namespace with the package modules
        self.root = root
        self.workdir = workdir

    def reference(self):
        path = Path(__file__).with_name("reference") / ("%s.txt" % self.name)
        return path.read_text().split()

    def build(self, index):
        """The input of catalog instance ``index`` (index may exceed size)."""
        raise NotImplementedError

    def op(self, item):
        """Run the program on one input; returns the canonical result."""
        raise NotImplementedError

    def prepare(self, items):
        """Set-up work besides building inputs (for example writing files)."""

    def warm_up(self, items):
        """Fill process-wide caches only (never an input's own memo)."""


class SmallRandom(Workload):
    """verify_main_theorem on random schemes shaped like acceptance
    criterion 1: n <= 3, s <= 5, m <= 3 over Q."""

    name = "small-random"
    size = 6000        # a multiple of len(shapes)
    shapes = [(n, s) for n in (1, 2, 3) for s in range(1, 6)]

    def build(self, index):
        g = self.fpl
        index %= self.size
        n, s = self.shapes[index % len(self.shapes)]
        rng = _rng(self.name, index)
        field = g.exact.ScalarField.rational()
        points = g.generators.random_points(rng, n, s, field=field)
        return g.schemes.FatPointScheme(field, n, [(p, rng.randint(1, 3)) for p in points])

    def op(self, x):
        report = self.fpl.bounds.verify_main_theorem(x)
        out = report.to_dict()
        if not (out["reg_index"] <= out["segre"] and out["verdict"] is True):
            raise CheckFailed("r(X) > seg(X): %r" % (out,))
        return out

    def warm_up(self, items):
        _warm_monomials(self.fpl.schemes, (1, 2, 3))
        for index in range(len(self.shapes)):
            self.op(self.build(self.size + index))


class SpecialPosition(SmallRandom):
    """verify_main_theorem on collinear clusters over Q: 3 points on a line
    and 2 off it, m = 5, deg 75, where the Segre bound is sharp."""

    name = "special-position"
    size = 120
    on_line, off_line, mult = 3, 2, 5

    def build(self, index):
        g = self.fpl
        rng = _rng(self.name, index % self.size)
        field = g.exact.ScalarField.rational()
        line = g.generators.collinear_points(2, self.on_line, field=field)
        # (a : b : 1) is off the line z = 0 of collinear_points, and two such
        # points are projectively equal only if they are equal tuples
        off = []
        while len(off) < self.off_line:
            p = (field.elem(rng.randint(1000, 9999)), field.elem(rng.randint(1000, 9999)), field.one())
            if p not in off:
                off.append(p)
        return g.schemes.FatPointScheme(field, 2, [(p, self.mult) for p in line + off])

    def warm_up(self, items):
        _warm_monomials(self.fpl.schemes, (2,))
        g = self.fpl
        field = g.exact.ScalarField.rational()
        line = g.generators.collinear_points(2, 2, field=field)
        x = g.schemes.FatPointScheme(field, 2, [(p, 3) for p in line + [(3, 7, 1)]])
        self.op(x)


def _avoidance_schedule(length, max_size):
    """A cycle of ``length`` avoidance shapes (k, p, dim, |E|), each about
    as often as acceptance criterion 4 draws it with its |E| cap lowered
    to ``max_size``, interleaved evenly.

    The cost of one avoidance partition grows like 2^|E|; drawing shapes
    at random would let a few large ops swing a run's total, while a fixed
    interleaved cycle gives every run the same mix.
    """
    weights = {}
    for k in (2, 3, 4):
        for p in range(1, k):
            for dim in (2, 3, 4):
                lo, cap = max(dim + 1, 4), min(max_size, k * dim - p)
                hi = max(cap, 4)
                for drawn in range(lo, hi + 1):
                    shape = (k, p, dim, min(drawn, cap))
                    weights[shape] = weights.get(shape, 0.0) + 1 / (9 * (k - 1) * (hi - lo + 1))
    # largest-remainder rounding, at least one slot per shape
    counts = {s: max(1, int(w * length)) for s, w in weights.items()}
    by_remainder = sorted(weights, key=lambda s: (-(weights[s] * length % 1), s))
    for s in by_remainder[: max(0, length - sum(counts.values()))]:
        counts[s] += 1
    # golden-ratio phases keep the rare (and costly) shapes apart
    slots = sorted(((j + (i * 0.6180339887) % 1) / counts[s], s)
                   for i, s in enumerate(sorted(counts)) for j in range(counts[s]))
    return [s for _, s in slots]


class Partition(Workload):
    """Two of three ops are avoidance partitions shaped like acceptance
    criterion 4; the third is an Edmonds-Fulkerson call on random vector
    matroids shaped like criterion 3, feasible or not."""

    name = "partition"
    # |E| <= 10 rather than criterion 4's 12: ops at |E| = 11 and 12 take
    # 0.3-0.9 s each, half of a cycle's time, and a 20 s run could not
    # average them out
    shapes = _avoidance_schedule(432, 10)
    # every (k, dim, |E|, coordinate range) of criterion 3, in a fixed
    # shuffled order so that any stretch of the cycle has about the same mix
    edmonds_shapes = [(k, dim, size, coords) for k in (1, 2, 3) for dim in (1, 2, 3, 4)
                      for size in range(2, 11) for coords in (1, 2, 4)]
    random.Random(0).shuffle(edmonds_shapes)
    size = 3 * 2592   # whole cycles of both lists: 432 / 2 and 324 divide 2592

    def build(self, index):
        g = self.fpl
        index %= self.size
        rng = _rng(self.name, index)
        field = g.exact.ScalarField.rational()
        if index % 3 == 2:
            # criterion 3: k random (possibly degenerate) vector matroids
            k, dim, size, coords = self.edmonds_shapes[(index // 3) % len(self.edmonds_shapes)]
            mats = [g.generators.random_vector_matroid(rng, dim, size, field=field, coord_range=coords)
                    for _ in range(k)]
            return ("edmonds", [_columns(m) for m in mats])
        k, p, dim, size = self.shapes[(index - index // 3) % len(self.shapes)]
        m = g.generators.generic_vectors_matroid(rng, dim, size, field=field)
        targets = tuple(rng.choice(m.elements) for _ in range(p))
        return ("avoidance", _columns(m), k, p, targets)

    def _matroid(self, columns):
        g = self.fpl
        field = g.exact.ScalarField.rational()
        return g.matroid.VectorMatroid(g.exact.ExactMatrix.from_columns(field, columns))

    def op(self, item):
        g = self.fpl
        if item[0] == "edmonds":
            mats = [self._matroid(cols) for cols in item[1]]
            result = g.partition.edmonds_fulkerson_partition(mats)
            if type(result).__name__ == "InfeasibilityWitness":
                if not result.verify(mats):
                    raise CheckFailed("infeasibility witness does not verify")
                return {"witness": result.to_dict()}
            if not result.verify():
                raise CheckFailed("partition certificate does not verify")
            return {"certificate": result.to_dict()}
        _, columns, k, p, targets = item
        m = self._matroid(columns)
        problem = g.partition.AvoidanceProblem(m, m.elements, k, p, tail=targets)
        cert = g.partition.avoidance_partition(problem)
        if not cert.verify():
            raise CheckFailed("avoidance certificate does not verify")
        for elem, j in cert.avoidance:
            if elem in m.closure(cert.blocks[j]):
                raise CheckFailed("avoided element %r lies in cl(I_%d)" % (elem, j))
        return {"certificate": cert.to_dict()}

    def warm_up(self, items):
        # one cheap op of each kind: an Edmonds-Fulkerson call and the
        # smallest avoidance shape
        slot = self.shapes.index(min(self.shapes, key=lambda s: s[3]))
        self.op(self.build(2))
        self.op(self.build(3 * (slot // 2) + slot % 2))


def _columns(m):
    return [m.matrix.column(j) for j in range(m.matrix.ncols)]


class CliCold(Workload):
    """One fresh ``python -m fatpointlab.cli`` process per op on small
    instance files written during set-up."""

    name = "cli-cold"
    size = 240
    pool = 24          # instance files written during set-up; ops cycle over them
    child_processes = True
    kinds = ("verify", "edmonds", "infeasible", "avoidance")

    def build(self, index):
        """(file name, instance dict, argv after the file, expected exit)."""
        g = self.fpl
        index %= self.size
        rng = _rng(self.name, index)
        field = g.exact.ScalarField.rational()
        to_dict = g.instances.vectors_to_dict
        kind = self.kinds[index % len(self.kinds)]
        if kind == "verify":
            n = rng.randint(1, 2)
            points = g.generators.random_points(rng, n, rng.randint(2, 4), field=field)
            x = g.schemes.FatPointScheme(field, n, [(p, rng.randint(1, 2)) for p in points])
            data = g.instances.scheme_to_dict(x, seed=index, generator="perfbench")
            args, code = ["verify", "--checks", "main-theorem,ctv"], 0
        elif kind == "edmonds":
            # |E| <= k*dim generic vectors always split into k independent sets
            dim, k = rng.randint(2, 3), rng.randint(2, 3)
            m = g.generators.generic_vectors_matroid(rng, dim, rng.randint(dim + 1, k * dim), field=field)
            data = to_dict(field, _columns(m), seed=index, generator="perfbench")
            args, code = ["partition", "--k", str(k)], 0
        elif kind == "infeasible":
            # |E| > k*dim >= k*rk(E) vectors cannot split into k independent sets
            dim, k = rng.randint(1, 3), rng.randint(1, 3)
            m = g.generators.random_vector_matroid(rng, dim, k * dim + rng.randint(1, 3), field=field)
            data = to_dict(field, _columns(m), seed=index, generator="perfbench")
            args, code = ["partition", "--k", str(k)], 4
        else:
            k = rng.randint(2, 3)
            p = rng.randint(1, k - 1)
            dim = rng.randint(2, 3)
            m = g.generators.generic_vectors_matroid(rng, dim, rng.randint(dim + 1, min(8, k * dim - p)),
                                                     field=field)
            tail = ",".join(str(rng.choice(m.elements)) for _ in range(p))
            data = to_dict(field, _columns(m), seed=index, generator="perfbench")
            args = ["partition", "--mode", "avoidance", "--k", str(k), "--p", str(p), "--tail", tail]
            code = 0
        return ("item-%03d.json" % index, data, args, code)

    def prepare(self, items):
        self.workdir.mkdir(parents=True, exist_ok=True)
        for filename, data, _, _ in items:
            (self.workdir / filename).write_text(self.fpl.instances.canonical_json(data))

    def run_child(self, item, extra=()):
        filename, _, args, _ = item
        argv = [sys.executable, *extra, "-m", "fatpointlab.cli", args[0], filename, *args[1:]]
        return subprocess.run(argv, cwd=self.workdir, env=child_env(self.root),
                              capture_output=True, text=True, timeout=120)

    def op(self, item):
        proc = self.run_child(item)
        if proc.returncode != item[3]:
            raise CheckFailed("exit %d, expected %d: %s"
                              % (proc.returncode, item[3], proc.stderr.strip()[-300:]))
        out = json.loads(proc.stdout)
        if item[2][0] == "verify" and out.get("failed") != 0:
            raise CheckFailed("a check failed: %r" % (out,))
        return {"exit": proc.returncode, "stdout": proc.stdout}

    def warm_up(self, items):
        self.op(items[0])


def child_env(root):
    env = dict(os.environ)
    src = str(Path(root) / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


WORKLOADS = {w.name: w for w in (SmallRandom, SpecialPosition, Partition, CliCold)}
