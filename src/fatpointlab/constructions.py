"""Derived matroids: count matroids, elementary quotients, parallel extensions.

The count matroid M(f) attached to a base matroid and integers k > p >= 0
has as circuits the minimal nonempty sets C with |C| > k*rk(C) - p.  A set
J is therefore independent iff |A| <= k*rk(A) - p for EVERY nonempty
A subseteq J (checking J alone is not sufficient in general: J can satisfy
the inequality while containing a violating subset).

That condition is tested in polynomial time with the augmenting-path
partitioner: for 0 <= p < k it holds iff, for every e in J, J plus p
parallel copies of e partitions into k independent sets of the base
matroid (the Edmonds-Fulkerson criterion applied to the sets that contain
e and its copies; it suffices to ask this of the elements of J up to e).
A failed augmentation yields a violating subset.
"""

from __future__ import annotations

from collections import namedtuple

from .exact import InternalError
from .matroid import RankOracle


class CountMatroid(RankOracle):
    """The matroid M(f) with f(A) = k*rk_base(A) - p, for k > p >= 0."""

    def __init__(self, base, k, p):
        if not k > p >= 0:
            raise ValueError("count matroid undefined: requires k > p >= 0")
        self.base = base
        self.k = k
        self.p = p
        self._indep_cache = {frozenset(): True}
        super().__init__(base.elements, self._rank_greedy)

    def _is_f_independent(self, fs):
        ok = self._indep_cache.get(fs)
        if ok is None:
            ok = verify_count_hypothesis(self.base, self.k, self.p, ground=fs) is None
            self._indep_cache[fs] = ok
        return ok

    def _rank_greedy(self, fs):
        # greedy is valid by the matroid exchange property
        current = frozenset()
        for e in sorted(fs):
            cand = current | {e}
            if self._is_f_independent(cand):
                current = cand
        return len(current)

    def is_independent(self, subset):
        fs = self._check(subset)
        return self._is_f_independent(fs)


class RankBoundVerdict(namedtuple("RankBoundVerdict", "holds count_rank bound witness")):
    __slots__ = ()


def verify_count_hypothesis(base, k_plus, p_plus, ground=None):
    """Check |A| <= k_plus*rk(A) - p_plus for every nonempty A of the ground
    set (all of base by default); returns a violating subset or None.

    Inserts the elements in ascending order into k_plus independent blocks
    with the augmenting-path partitioner; after inserting e it also inserts
    p_plus parallel copies of e, then takes them out again.  That succeeds
    iff no violating subset of the elements so far contains e, and a failed
    insertion's reached set, with each copy mapped back to e, violates.
    """
    from .partition import _augment  # partition builds on this module

    if p_plus < 0:
        raise ValueError("hypothesis check requires p >= 0")
    elems = sorted(ground) if ground is not None else list(base.elements)
    if not elems:
        return None
    whole = frozenset(elems)
    r = base.rank(whole)  # also rejects elements outside the base matroid
    if p_plus >= k_plus:
        return frozenset(elems[:1])  # |{e}| = 1 > k*rk({e}) - p
    # one rank decides most count-matroid queries: the whole set violates,
    # or it is independent in the base matroid
    if len(whole) > k_plus * r - p_plus:
        return whole
    if r == len(whole):
        return None  # |A| = rk(A) <= k*rk(A) - p since p <= k - 1
    ext = parallel_extension(base, [e for e in elems for _ in range(p_plus)])
    copies = {e: [] for e in elems}
    for c, e in ext.copy_of.items():
        copies[e].append(c)
    matroids = [ext] * k_plus
    blocks = [frozenset()] * k_plus
    assignment = {}
    for i, e in enumerate(elems):
        # element i starts at block i mod k: spread out, the blocks seldom
        # span e, so its copies mostly go in without exchanges
        for x in [e] + copies[e]:
            reached = _augment(matroids, blocks, assignment, x, first=i % k_plus)
            if reached is not None:
                bad = frozenset(map(ext.copy_of.get, reached, reached))
                if len(bad) <= k_plus * base.rank(bad) - p_plus:
                    raise InternalError("insertion failed on a non-violating set %r" % (sorted(bad),))
                return bad
        for c in copies[e]:
            j = assignment.pop(c)
            blocks[j] = blocks[j] - {c}
    return None


def count_matroid_rank_lower_bound_check(base, k, p):
    """Verify rk_{M(f)}(E) >= |E| - rk(E) + 1 under the strengthened
    hypothesis |A| <= (k+1)*rk(A) - (p+1)."""
    bad = verify_count_hypothesis(base, k + 1, p + 1)
    if bad is not None:
        raise ValueError("hypothesis |A| <= (k+1)rk(A)-(p+1) fails on %r" % (sorted(bad),))
    cm = CountMatroid(base, k, p)
    witness = cm.max_independent_subset()
    count_rank = len(witness)
    bound = len(base.elements) - base.full_rank() + 1
    return RankBoundVerdict(count_rank >= bound, count_rank, bound, witness)


def elementary_quotient(ambient, ground, pivot):
    """The matroid on `ground` with rk(A) = rk_ambient(A + pivot) - 1.

    With the pivot outside `ground` this is the contraction by the pivot;
    with the pivot inside, it is the quotient through a parallel copy of the
    pivot (M_{+e}/e), in which the pivot and its parallel class are loops.
    """
    ground = frozenset(ground)
    if pivot not in ambient._element_set:
        raise ValueError("pivot not in ambient ground set")
    if not ground <= ambient._element_set:
        raise ValueError("ground not contained in ambient ground set")

    def rank_fn(fs):
        return ambient.rank(fs | {pivot}) - 1

    return RankOracle(ground, rank_fn)


class ParallelExtension(RankOracle):
    """A parallel extension of ``base`` (see ``parallel_extension``).

    A copy behaves as its element, so a subset is ranked by mapping each
    copy back through ``copy_of`` and asking the base oracle; its memo
    serves every extension of it, and the extension keeps none of its own.
    """

    def __init__(self, base, copy_of):
        self.base = base
        self.copy_of = copy_of
        super().__init__(list(base.elements) + list(copy_of), None)

    def _rank(self, fs):
        return self.base._rank(frozenset(map(self.copy_of.get, fs, fs)))


def parallel_extension(base, duplicated):
    """The parallel extension M_{+S}: tagged copies of S added in parallel.

    `duplicated` may repeat an element to add several copies of it.  Copies
    get fresh ids above max(base ids), in ascending order of the element
    they copy; `copy_of` maps each copy id back to its base element.
    """
    duplicated = sorted(duplicated)
    if not frozenset(duplicated) <= base._element_set:
        raise ValueError("duplicated set not contained in ground set")
    offset = (max(base.elements) + 1) if base.elements else 0
    return ParallelExtension(base, {offset + i: e for i, e in enumerate(duplicated)})
