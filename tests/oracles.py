"""Exhaustive test oracles and the seeded instances they are compared on.

The library checks the count-matroid hypothesis with the augmenting-path
partitioner; these oracles enumerate every subset instead (2^|E| rank
queries), so they are for small ground sets only.
"""

from itertools import combinations

from fatpointlab.generators import generic_vectors_matroid, random_vector_matroid


def count_violations_exhaustive(base, k, p, ground=None):
    """Every nonempty A of the ground set with |A| > k*rk(A) - p, smallest first."""
    elems = sorted(ground) if ground is not None else list(base.elements)
    return [
        frozenset(combo)
        for size in range(1, len(elems) + 1)
        for combo in combinations(elems, size)
        if size > k * base.rank(frozenset(combo)) - p
    ]


def count_independent_exhaustive(base, k, p, subset):
    """Independence in the count matroid M(k*rk - p), by enumeration."""
    return not count_violations_exhaustive(base, k, p, ground=subset)


def criterion_5_instances(rng):
    """The count-matroid instances of acceptance criterion 5, in draw order.

    Yields ("axioms", base, k, p) for the ten loop-free random bases whose
    count matroids get the rank-axiom and circuit checks, then
    ("estimate", base, k, p) for the fifty generic bases that satisfy
    |A| <= (k+1)*rk(A) - (p+1) and get the rank estimate.
    """
    for i in range(10):
        size = 10 if i < 2 else rng.randint(4, 8)
        while True:
            base = random_vector_matroid(rng, rng.randint(2, 3), size)
            # loop-free base: the circuit size law needs f({e}) = k - p > 0
            if all(base.rank({e}) == 1 for e in base.elements):
                break
        k = rng.randint(1, 3)
        p = rng.randint(0, k - 1)
        yield "axioms", base, k, p
    for _ in range(50):
        k = rng.randint(1, 3)
        p = rng.randint(0, k - 1)
        dim = rng.randint(2, 4)
        cap = (k + 1) * dim - (p + 1)
        size = rng.randint(dim, min(cap, 9))
        yield "estimate", generic_vectors_matroid(rng, dim, size), k, p
