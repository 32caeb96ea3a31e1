"""Abstract matroids as rank oracles, and concrete vector matroids.

A matroid is represented by a :class:`RankOracle`: a finite ground set of
integer element ids together with a rank function on subsets.  Derived
notions (independence, closure, circuits, flats) are computed through the
rank function only, so quotients, extensions and count matroids all reuse
the same machinery.
"""

from __future__ import annotations

from itertools import combinations

from .exact import ExactMatrix

FLAT_ENUMERATION_GUARD = 24
CIRCUIT_ENUMERATION_GUARD = 20


class RankOracle:
    """A matroid given by its rank function over a finite ground set.

    Elements are arbitrary (sortable) integer ids; they need not be
    0..n-1, which keeps restrictions and quotients on natural ids.
    Rank values are memoized; oracles are immutable after construction.
    """

    def __init__(self, elements, rank_fn, labels=None):
        self.elements = tuple(sorted(elements))
        self._element_set = frozenset(self.elements)
        self._rank_fn = rank_fn
        self.labels = dict(labels) if labels else {}
        self._cache = {}

    def __len__(self):
        return len(self.elements)

    def _check(self, subset):
        fs = frozenset(subset)
        if not fs <= self._element_set:
            raise ValueError("subset %r not contained in ground set" % (sorted(fs - self._element_set),))
        return fs

    def _rank(self, fs):
        """Memoized rank of a frozenset already checked against the ground set."""
        r = self._cache.get(fs)
        if r is None:
            r = self._rank_fn(fs)
            self._cache[fs] = r
        return r

    def rank(self, subset):
        return self._rank(self._check(subset))

    def full_rank(self):
        return self._rank(self._element_set)

    def is_independent(self, subset):
        fs = self._check(subset)
        return self._rank(fs) == len(fs)

    def closure(self, subset):
        fs = self._check(subset)
        r = self._rank(fs)
        return frozenset(e for e in self.elements if e in fs or self._rank(fs | {e}) == r)

    def restrict(self, subset):
        fs = self._check(subset)
        return RankOracle(fs, self.rank, labels={e: self.labels[e] for e in fs if e in self.labels})

    def max_independent_subset(self, subset=None):
        """Greedy maximal independent subset, processing ids in ascending order."""
        pool = self.elements if subset is None else sorted(self._check(subset))
        indep = []
        current = frozenset()
        for e in pool:
            if self._rank(current | {e}) == len(indep) + 1:
                indep.append(e)
                current = current | {e}
        return frozenset(indep)


def is_independent(m, subset):
    return m.is_independent(subset)


def closure(m, subset):
    return m.closure(subset)


def circuits(m, max_size=None):
    """All inclusion-minimal dependent sets of size <= max_size (exhaustive)."""
    if len(m) > CIRCUIT_ENUMERATION_GUARD:
        raise ValueError("ground set too large for exhaustive circuit enumeration")
    if max_size is None:
        max_size = len(m)
    found = []
    for size in range(1, max_size + 1):
        for combo in combinations(m.elements, size):
            fs = frozenset(combo)
            if any(c <= fs for c in found):
                continue
            if m.rank(fs) < size:
                found.append(fs)
    return found


def independent_sets(m, subset=None):
    """All independent subsets, grown depth-first by ascending element id."""
    pool = m.elements if subset is None else sorted(subset)
    out = [frozenset()]
    stack = [(frozenset(), 0)]
    while stack:
        current, start = stack.pop()
        for i in range(start, len(pool)):
            cand = current | {pool[i]}
            if m.rank(cand) == len(cand):
                out.append(cand)
                stack.append((cand, i + 1))
    return out


def flats_spanned_by_subsets(m, min_rank=0):
    """Distinct closures cl(S) over subsets S, with rank >= min_rank.

    Every closure equals the closure of an independent set, so it suffices
    to close the independent sets (far fewer than all subsets).
    """
    if len(m) > FLAT_ENUMERATION_GUARD:
        raise ValueError("ground set too large for exhaustive flat enumeration")
    flats = set()
    for indep in independent_sets(m):
        if len(indep) >= min_rank:
            flats.add(m.closure(indep))
    return sorted((f for f in flats if m.rank(f) >= min_rank), key=lambda f: (len(f), sorted(f)))


class VectorMatroid(RankOracle):
    """The matroid of the columns of an exact matrix; rank = column rank."""

    def __init__(self, matrix, labels=None):
        self.matrix = matrix
        self.field = matrix.field
        super().__init__(range(matrix.ncols), lambda fs: matrix.rank_of_column_subset(fs), labels=labels)


def fat_point_vector_matroid(x):
    """The vector matroid of a fat point scheme: m_i parallel copies of P_i.

    Ground element ids are consecutive; labels record (point index, copy).
    """
    if not x.points:
        raise ValueError("scheme must have at least one point")
    columns = []
    labels = {}
    for i, (coords, mult) in enumerate(x.points):
        if all(c == x.field.zero() for c in coords):
            raise ValueError("invalid projective point")
        for copy in range(mult):
            labels[len(columns)] = (i, copy)
            columns.append(coords)
    matrix = ExactMatrix.from_columns(x.field, columns)
    return VectorMatroid(matrix, labels=labels)


def check_rank_axioms(m):
    """Exhaustively verify the rank axioms (normalization, monotonicity,
    submodularity); only sensible for small ground sets."""
    if len(m) > 10:
        raise ValueError("axiom check is exhaustive; |E| <= 10 required")
    elems = m.elements
    n = len(elems)
    subsets = []
    for mask in range(1 << n):
        fs = frozenset(elems[i] for i in range(n) if mask >> i & 1)
        subsets.append(fs)
        r = m.rank(fs)
        if not 0 <= r <= len(fs):
            return False, ("R1", fs)
    ranks = {fs: m.rank(fs) for fs in subsets}
    for a in subsets:
        for b in subsets:
            if a <= b and ranks[a] > ranks[b]:
                return False, ("R2", a, b)
            if ranks[a & b] + ranks[a | b] > ranks[a] + ranks[b]:
                return False, ("R3", a, b)
    return True, None
