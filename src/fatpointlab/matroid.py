"""Abstract matroids as rank oracles, and concrete vector matroids.

A matroid is represented by a :class:`RankOracle`: a finite ground set of
integer element ids together with a rank function on subsets.  Derived
notions (independence, closure) are computed through the rank
function only, so quotients, extensions and count matroids all reuse the
same machinery.  The flats of a scheme's support points are found, and
general position is decided, without rank queries, by projective keys
(``schemes.flat_levels``, ``schemes.in_general_position``).
"""

from __future__ import annotations

from .exact import ExactMatrix


class RankOracle:
    """A matroid given by its rank function over a finite ground set.

    Elements are arbitrary (sortable) integer ids; they need not be
    0..n-1, which keeps restrictions and quotients on natural ids.
    Rank values are memoized; oracles are immutable after construction.
    """

    def __init__(self, elements, rank_fn):
        self.elements = tuple(sorted(elements))
        self._element_set = frozenset(self.elements)
        self._rank_fn = rank_fn
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
        return RankOracle(fs, self.rank)

    def max_independent_subset(self):
        """Greedy maximal independent subset, processing ids in ascending order."""
        indep = []
        current = frozenset()
        for e in self.elements:
            if self._rank(current | {e}) == len(indep) + 1:
                indep.append(e)
                current = current | {e}
        return frozenset(indep)


def independent_sets(m):
    """All independent subsets, grown depth-first by ascending element id."""
    pool = m.elements
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


class VectorMatroid(RankOracle):
    """The matroid of the columns of an exact matrix; rank = column rank.

    A rank query ranks the chosen columns of the matrix as rows
    (``ExactMatrix.rank_of_column_subset``), without building a matrix;
    over Q the small ones, which are nearly all, by exact fraction-free
    elimination rather than a modular certificate.  A single column is a
    loop iff it is zero, so the singleton ranks are put in the memo
    without elimination.
    """

    def __init__(self, matrix):
        self.matrix = matrix
        self.field = matrix.field
        super().__init__(range(matrix.ncols), lambda fs: matrix.rank_of_column_subset(fs))
        for j in self.elements:
            self._cache[frozenset([j])] = int(any(matrix.column(j)))


def fat_point_vector_matroid(x):
    """The vector matroid of a fat point scheme: m_i parallel copies of the
    key of P_i.

    Ground element ids are consecutive: the copies of P_1 first, then those
    of P_2, and so on, as many of each as ``x.mults`` says.
    """
    columns = [key for key, mult in zip(x.keys, x.mults) for _ in range(mult)]
    return VectorMatroid(ExactMatrix.from_columns(x.field, columns))

