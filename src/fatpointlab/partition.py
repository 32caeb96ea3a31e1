"""Matroid partition algorithms and certificates.

The Edmonds-Fulkerson criterion (a ground set partitions into sets
independent in matroids M_1..M_k iff |A| <= sum_j rk_j(A) for all A) is
made constructive by the classical augmenting-path algorithm: elements are
inserted one at a time, searching breadth-first through exchange moves.
If the search is exhausted, the set of reached elements is a violating
subset, returned as an explicit infeasibility witness.

Determinism: elements are inserted in ascending id order; the BFS explores
blocks and eviction candidates in ascending order, so augmenting paths are
shortest and lexicographically smallest.  This makes the prefix-stability
contract of avoidance partitions testable.
"""

from __future__ import annotations

from collections import namedtuple

from .constructions import CountMatroid, elementary_quotient, verify_count_hypothesis
from .exact import InternalError
from .matroid import independent_sets


class PartitionCertificate(namedtuple("PartitionCertificate",
                                      "blocks matroids ground ambient avoidance",
                                      defaults=(None, ()))):
    """A partition E = I_1 | ... | I_k plus everything needed to re-check it:
    the blocks, one matroid per block, the ground set, and for avoidance
    partitions the ambient matroid and the (element, block) pairs whose
    element must stay outside the block's closure."""

    __slots__ = ()

    def verify(self):
        seen = set()
        for block in self.blocks:
            if block & seen:
                return False
            seen |= block
        if frozenset(seen) != self.ground:
            return False
        for block, oracle in zip(self.blocks, self.matroids):
            if not oracle.is_independent(block):
                return False
        ambient = self.ambient
        for elem, j in self.avoidance:
            block = self.blocks[j]
            if ambient.rank(block | {elem}) != ambient.rank(block) + 1:
                return False
        return True

    def to_dict(self):
        return {
            "blocks": [sorted(b) for b in self.blocks],
            "avoidance": [{"element": e, "block": j} for e, j in self.avoidance],
        }


class InfeasibilityWitness(namedtuple("InfeasibilityWitness", "subset size rank_sum")):
    """A subset A with |A| > sum_j rk_j(A), certifying no partition exists."""

    __slots__ = ()

    def verify(self, matroids):
        return self.size == len(self.subset) and self.size > sum(
            m.rank(self.subset) for m in matroids
        )

    def to_dict(self):
        return {"subset": sorted(self.subset), "size": self.size, "rank_sum": self.rank_sum}


def _augment(matroids, blocks, assignment, new_elem, first=0):
    """Try to place new_elem via a shortest augmenting path of exchanges.

    Blocks are tried in cyclic order from `first`.  Each reached element is
    first offered to every other block as a free insertion, and only then
    queues the elements it can replace (exchanges queued before a free
    insertion would never be used, so the path is the same as with a
    block-by-block scan).

    Returns None on success (blocks/assignment updated).  On failure returns
    the reached set A, which satisfies |A| = 1 + sum_j |I_j cap A| with each
    I_j cap A spanning A in M_j, so A violates the partition criterion.
    """
    k = len(matroids)
    parent = {new_elem: None}
    queue = [new_elem]
    head = 0
    while head < len(queue):
        x = queue[head]
        head += 1
        own = assignment.get(x)
        others = [j % k for j in range(first, first + k) if j % k != own]
        for free in others:
            if matroids[free].is_independent(blocks[free] | {x}):
                break
        else:
            free = None
        if free is not None:
            # free insertion: unwind the exchange chain back to the root
            cur, jcur = x, free
            while True:
                old = assignment.get(cur)
                blocks[jcur] = blocks[jcur] | {cur}
                assignment[cur] = jcur
                link = parent[cur]
                if link is None:
                    break
                prev, jprev = link
                if jprev != old:
                    raise InternalError("augmenting path left block %r, not %r" % (jprev, old))
                blocks[jprev] = blocks[jprev] - {cur}
                cur, jcur = prev, jprev
            return None
        # no block takes x as it is: queue the elements x can replace
        for j in others:
            block = blocks[j] | {x}
            for y in sorted(blocks[j]):
                if y not in parent and matroids[j].is_independent(block - {y}):
                    parent[y] = (x, j)
                    queue.append(y)
    return frozenset(parent)


def edmonds_fulkerson_partition(matroids):
    """Partition the common ground set into blocks independent per matroid,
    or return an InfeasibilityWitness."""
    if not matroids:
        raise ValueError("need at least one matroid")
    ground = frozenset(matroids[0].elements)
    for m in matroids[1:]:
        if frozenset(m.elements) != ground:
            raise ValueError("matroids must share a ground set")
    blocks = [frozenset() for _ in matroids]
    assignment = {}
    for e in sorted(ground):
        reached = _augment(matroids, blocks, assignment, e)
        if reached is not None:
            witness = InfeasibilityWitness(
                reached, len(reached), sum(m.rank(reached) for m in matroids)
            )
            if not witness.verify(matroids):
                raise InternalError("bad infeasibility witness %r" % (sorted(reached),))
            return witness
    cert = PartitionCertificate(tuple(blocks), list(matroids), ground)
    if not cert.verify():
        raise InternalError("augmenting path produced an invalid partition")
    return cert


def edmonds_partition(m, k):
    """Partition into k sets independent in a single matroid."""
    if k < 1:
        raise ValueError("k must be >= 1")
    return edmonds_fulkerson_partition([m] * k)


def inductive_split(ambient, ground, pivot, k, p, check_hypothesis=True):
    """Split ground = I | J with I independent, pivot outside cl(I), and
    |B| <= k*rk(B) - p for every nonempty B of J.

    Precondition: |A| <= (k+1)*rk(A) - (p+1) for all nonempty A of ground.
    Implemented per the two-matroid route: the elementary quotient by the
    pivot (inside or outside ground) paired with the count matroid M_{k,p}.
    """
    ground = frozenset(ground)
    if not ground:
        raise ValueError("ground must be nonempty")
    if check_hypothesis:
        bad = verify_count_hypothesis(ambient, k + 1, p + 1, ground=ground)
        if bad is not None:
            raise ValueError(
                "hypothesis |A| <= (k+1)rk(A)-(p+1) fails on %r" % (sorted(bad),)
            )
    quotient = elementary_quotient(ambient, ground, pivot)
    counting = CountMatroid(ambient.restrict(ground), k, p)
    result = edmonds_fulkerson_partition([quotient, counting])
    if isinstance(result, InfeasibilityWitness):
        raise InternalError(
            "two-matroid partition infeasible despite hypothesis; "
            "witness %r" % (sorted(result.subset),)
        )
    return result.blocks[0], result.blocks[1]


class AvoidanceProblem(namedtuple("AvoidanceProblem", "ambient ground k p pinned tail")):
    """Partition ``ground`` into k blocks independent in ``ambient``, block j
    avoiding the j-th of ``pinned + tail`` (p targets in all).  The target
    count is checked where the problem is solved (``avoidance_partition``),
    since ``_replace`` and ``_make`` do not pass through the constructor."""

    __slots__ = ()

    def __new__(cls, ambient, ground, k, p, pinned=(), tail=()):
        return super().__new__(cls, ambient, frozenset(ground), k, p, tuple(pinned), tuple(tail))


def avoidance_partition(problem):
    """The main avoidance partition: E = I_1 | ... | I_k, all blocks
    independent, a_j outside cl(I_j) for j <= p.

    The first q = len(pinned) blocks depend only on the pinned prefix
    (prefix stability), because each block is produced by a deterministic
    inductive split that never looks at later tuple entries.
    """
    ambient, ground, k, p = problem.ambient, problem.ground, problem.k, problem.p
    targets = tuple(problem.pinned) + tuple(problem.tail)
    if len(targets) != p:
        raise ValueError("pinned prefix plus tail must have length p")
    bad = verify_count_hypothesis(ambient, k, p, ground=ground)
    if bad is not None:
        raise ValueError("hypothesis |A| <= k*rk(A)-p fails on %r" % (sorted(bad),))
    blocks = []
    remaining = ground
    for j in range(p):
        if not remaining:
            blocks.append(frozenset())
            continue
        block, remaining = inductive_split(
            ambient, remaining, targets[j], k - 1 - j, p - 1 - j, check_hypothesis=False
        )
        blocks.append(block)
    if remaining:
        tail_part = edmonds_partition(ambient.restrict(remaining), k - p)
        if isinstance(tail_part, InfeasibilityWitness):
            raise InternalError("residual partition infeasible")
        blocks.extend(tail_part.blocks)
    else:
        blocks.extend(frozenset() for _ in range(k - p))
    cert = PartitionCertificate(
        tuple(blocks),
        [ambient] * k,
        ground,
        ambient=ambient,
        avoidance=tuple((targets[j], j) for j in range(p)),
    )
    if not cert.verify():
        raise InternalError("avoidance partition failed verification")
    return cert


class OptimalityExampleVerdict(namedtuple("OptimalityExampleVerdict",
                                          "hypothesis_holds qualifying_set ground_size rank",
                                          defaults=(None, 0, 0))):
    __slots__ = ()

    @property
    def confirmed(self):
        return self.hypothesis_holds and self.qualifying_set is None


def verify_partition_optimality_example(t, k, p, seed=0):
    """Concrete family showing the avoidance theorem's conclusion cannot be
    strengthened to a single universal independent set.

    Builds t generic lines through the origin of a rank t-1 space with
    k-p (parallel) vectors on each, checks |A| <= k*rk(A)-p, and confirms
    by exhaustive search over the independent I with at most t-2 elements
    that none leaves a remainder with |B| <= (k-1)*rk(B)-p throughout.
    """
    from .generators import generic_line_configuration

    if not (k > p > 0):
        raise ValueError("requires k > p > 0")
    if t > 5:
        raise ValueError("t too large for exhaustive verification")
    if t * p < k + p:  # t >= k/p + 1 without rational arithmetic
        raise ValueError("t too small for example hypothesis")
    m = generic_line_configuration(t, k - p, seed=seed)
    bad = verify_count_hypothesis(m, k, p)
    if bad is not None:
        return OptimalityExampleVerdict(False, ground_size=len(m), rank=m.full_rank())
    elems = frozenset(m.elements)
    for indep in independent_sets(m):
        if not indep or len(indep) > t - 2:
            continue
        if verify_count_hypothesis(m, k - 1, p, ground=elems - indep) is None:
            return OptimalityExampleVerdict(True, qualifying_set=indep,
                                            ground_size=len(m), rank=m.full_rank())
    return OptimalityExampleVerdict(True, ground_size=len(m), rank=m.full_rank())
