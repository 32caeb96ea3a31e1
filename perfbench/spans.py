"""Layer tracing from outside the package.

The benchmark wraps the public entry points of each fatpointlab module with
spans (name, start, end, parent) and counters.  Nothing in the package knows
about it: wrappers are installed around one traced op and removed right
after, so untraced ops run the unmodified code.

Every boundary is resolved by name when the wrappers are built.  A function
or method that a refactor removed is reported as absent instead of failing
the run, and every module-level alias of a wrapped function (for example
``bounds.conditions_matrix``, bound by ``from .schemes import ...``) is
patched along with the original, so no call escapes the count.

Spans are aggregated as they close (calls and self time per name, self time
per layer), because a traced run opens millions of them; the first
``KEEP_SPANS`` are kept verbatim and written out when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from collections import defaultdict
from dataclasses import dataclass

PACKAGE = "fatpointlab"
KEEP_SPANS = 10000


class Tracer:
    """Nested spans with online self-time aggregation."""

    def __init__(self, keep=KEEP_SPANS):
        self.keep = keep
        self.spans = []                      # (id, parent id, name, start, end)
        self.calls = defaultdict(int)        # span name -> closed spans
        self.self_s = defaultdict(float)     # span name -> summed self time
        self.total_s = defaultdict(float)    # span name -> summed duration
        self.layer_self_s = defaultdict(float)
        self.counts = defaultdict(int)       # plain counters
        self._stack = []                     # [name, start, child seconds, id]
        self._open = defaultdict(int)        # open spans per name and per layer
        self._next_id = 0

    def enter(self, name):
        self._next_id += 1
        self._open[name] += 1
        self._open[layer_of(name)] += 1
        self._stack.append([name, time.perf_counter(), 0.0, self._next_id])

    def exit(self, *also):
        """Close the innermost span; its self time is also booked under the
        extra names in ``also`` (sub-classifications such as full rank)."""
        end = time.perf_counter()
        name, start, child, span_id = self._stack.pop()
        duration = end - start
        own = duration - child
        for key in (name,) + also:
            self.calls[key] += 1
            self.self_s[key] += own
        self.total_s[name] += duration
        layer = layer_of(name)
        self.layer_self_s[layer] += own
        self._open[name] -= 1
        self._open[layer] -= 1
        parent = 0
        if self._stack:
            self._stack[-1][2] += duration
            parent = self._stack[-1][3]
        if len(self.spans) < self.keep:
            self.spans.append((span_id, parent, name, start, end))
        return duration

    def inside(self, name):
        """True while a span with this name (or of this layer) is open."""
        return self._open[name] > 0

    def count(self, key, n=1):
        self.counts[key] += n


def layer_of(name):
    return name.split(".", 1)[0]


def _span(tracer, name, original, after=None):
    """Wrap ``original`` in a span; ``after(args, result)`` may count and
    returns extra names to book the span's self time under."""

    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        tracer.enter(name)
        try:
            result = original(*args, **kwargs)
        except BaseException:
            tracer.exit()
            raise
        tracer.exit(*(after(args, result) if after else ()))
        return result

    return wrapper


def _wrap_plain(after=None):
    return lambda tracer, name, original: _span(
        tracer, name, original, after and functools.partial(after, tracer))


def _wrap_exact_rank(tracer, name, original):
    @functools.wraps(original)
    def rank(self, *args, **kwargs):
        cached = getattr(self, "_rank", None) is not None
        if tracer.inside("bounds.segre_bound"):
            tracer.count("bounds.segre_bound.rank_calls")
        tracer.enter(name)
        try:
            r = original(self, *args, **kwargs)
        except BaseException:
            tracer.exit()
            raise
        if cached:
            tracer.exit("exact.rank.cached")
            return r
        nrows, ncols = getattr(self, "nrows", 0), getattr(self, "ncols", 0)
        tracer.count("exact.rank.cells", nrows * ncols)
        tracer.exit("exact.rank.full" if r == min(nrows, ncols) else "exact.rank.deficient")
        return r

    return rank


def _rank_fn_span(rank_fn):
    """Span name for a rank function handed to ``RankOracle``: the count
    matroid's greedy rank, a quotient closure, or a plain matroid one."""
    fn = inspect.unwrap(getattr(rank_fn, "__func__", rank_fn))
    module = getattr(fn, "__module__", None) or ""
    if module.rsplit(".", 1)[-1] == "constructions":
        owner = getattr(rank_fn, "__self__", None)
        if owner is not None and type(owner).__name__ == "CountMatroid":
            return "constructions.count_rank"
        return "constructions.quotient_rank"
    return "matroid.rank_fn"


def _wrap_oracle_init(tracer, name, original):
    """Wrap the rank function given to ``RankOracle.__init__``: each call
    of it is a memo miss of the oracle's cache."""

    def wrap_fn(rank_fn):
        inner = _span(tracer, _rank_fn_span(rank_fn), rank_fn)

        def counted(*args, **kwargs):
            tracer.count("matroid.rank_fn.calls")
            return inner(*args, **kwargs)

        return counted

    @functools.wraps(original)
    def __init__(self, *args, **kwargs):
        if "rank_fn" in kwargs:
            kwargs["rank_fn"] = wrap_fn(kwargs["rank_fn"])
        elif len(args) >= 2:
            args = (args[0], wrap_fn(args[1])) + args[2:]
        return original(self, *args, **kwargs)

    return __init__


def _wrap_oracle_rank(tracer, name, original):
    # counted only: a span per memo hit would cost more than the hit
    @functools.wraps(original)
    def rank(*args, **kwargs):
        tracer.count(name + ".calls")
        return original(*args, **kwargs)

    return rank


def _wrap_is_independent(tracer, name, original):
    inner = _span(tracer, name, original)

    @functools.wraps(original)
    def is_independent(*args, **kwargs):
        if tracer.inside("partition"):
            tracer.count("partition.is_independent.calls")
        return inner(*args, **kwargs)

    return is_independent


def _count_entries(tracer, args, result):
    tracer.count("schemes.conditions_matrix.entries",
                 getattr(result, "nrows", 0) * getattr(result, "ncols", 0))
    return ()


def _count_witness(tracer, args, result):
    if type(result).__name__ == "InfeasibilityWitness":
        tracer.count("partition.witnesses")
    return ()


@dataclass(frozen=True)
class Boundary:
    """One wrapped entry point: ``attr`` is ``func`` or ``Class.method`` in
    ``fatpointlab.<module>``, ``wrap(tracer, span, original)`` builds the
    wrapper, and ``meant_for`` is the workload on which the self-check
    requires it to be called."""

    span: str
    module: str
    attr: str
    wrap: object
    meant_for: str
    overrides: bool = False   # also wrap overriding methods of subclasses


LAYER_BOUNDARIES = (
    Boundary("exact.matrix", "exact", "ExactMatrix.__init__", _wrap_plain(), "partition"),
    Boundary("exact.rank", "exact", "ExactMatrix.rank", _wrap_exact_rank, "special-position"),
    Boundary("exact.column_subset", "exact", "ExactMatrix.rank_of_column_subset",
             _wrap_plain(), "partition"),
    Boundary("exact.kernel_basis", "exact", "ExactMatrix.kernel_basis",
             _wrap_plain(), "cli-cold"),
    Boundary("schemes.conditions_matrix", "schemes", "conditions_matrix",
             _wrap_plain(_count_entries), "small-random"),
    Boundary("schemes.hilbert_function", "schemes", "hilbert_function",
             _wrap_plain(), "small-random"),
    Boundary("schemes.regularity_index", "schemes", "regularity_index",
             _wrap_plain(), "special-position"),
    Boundary("schemes.ctv_decomposition_check", "schemes", "ctv_decomposition_check",
             _wrap_plain(), "cli-cold"),
    Boundary("matroid.rank", "matroid", "RankOracle.rank", _wrap_oracle_rank, "partition"),
    Boundary("matroid.rank_fn", "matroid", "RankOracle.__init__", _wrap_oracle_init, "partition"),
    Boundary("matroid.closure", "matroid", "RankOracle.closure", _wrap_plain(), "partition"),
    Boundary("matroid.is_independent", "matroid", "RankOracle.is_independent",
             _wrap_is_independent, "partition", overrides=True),
    Boundary("constructions.verify_count_hypothesis", "constructions", "verify_count_hypothesis",
             _wrap_plain(), "partition"),
    Boundary("partition.edmonds_fulkerson_partition", "partition", "edmonds_fulkerson_partition",
             _wrap_plain(_count_witness), "partition"),
    Boundary("partition.edmonds_partition", "partition", "edmonds_partition",
             _wrap_plain(), "partition"),
    Boundary("partition.inductive_split", "partition", "inductive_split",
             _wrap_plain(), "partition"),
    Boundary("partition.avoidance_partition", "partition", "avoidance_partition",
             _wrap_plain(), "partition"),
    Boundary("partition.certificate_verify", "partition", "PartitionCertificate.verify",
             _wrap_plain(), "partition"),
    Boundary("partition.witness_verify", "partition", "InfeasibilityWitness.verify",
             _wrap_plain(), "partition"),
    Boundary("bounds.segre_bound", "bounds", "segre_bound", _wrap_plain(), "small-random"),
    Boundary("bounds.verify_main_theorem", "bounds", "verify_main_theorem",
             _wrap_plain(), "small-random"),
)

CLI_BOUNDARIES = (
    Boundary("cli.load_instance", "instances", "load_instance", _wrap_plain(), "cli-cold"),
    Boundary("cli.canonical_json", "instances", "canonical_json", _wrap_plain(), "cli-cold"),
)


def _package_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]


def _package_classes():
    for module in _package_modules():
        for value in vars(module).values():
            if inspect.isclass(value) and value.__module__ == module.__name__:
                yield value


class Installation:
    """The resolved patches for a set of boundaries; use as a context
    manager around each traced op."""

    def __init__(self, tracer, boundaries):
        self.patches = []      # (owner, attribute, original, replacement)
        self.absent = []
        for b in boundaries:
            try:
                module = importlib.import_module("%s.%s" % (PACKAGE, b.module))
                owner_name, _, attr = b.attr.rpartition(".")
                owner = getattr(module, owner_name) if owner_name else module
                original = vars(owner)[attr]
            except (ImportError, AttributeError, KeyError):
                self.absent.append(b.span)
                continue
            self.patches.append((owner, attr, original, b.wrap(tracer, b.span, original)))
            if owner_name:
                if b.overrides:
                    for cls in _package_classes():
                        if cls is not owner and issubclass(cls, owner) and attr in vars(cls):
                            name = "%s.%s" % (cls.__module__.rsplit(".", 1)[-1], attr)
                            own = vars(cls)[attr]
                            self.patches.append((cls, attr, own, b.wrap(tracer, name, own)))
                continue
            replacement = self.patches[-1][3]
            for other in _package_modules():
                for alias, value in list(vars(other).items()):
                    if value is original and (other, alias) != (owner, attr):
                        self.patches.append((other, alias, original, replacement))

    def __enter__(self):
        for owner, attr, _, replacement in self.patches:
            setattr(owner, attr, replacement)
        return self

    def __exit__(self, *exc):
        for owner, attr, original, _ in reversed(self.patches):
            setattr(owner, attr, original)
        return False
