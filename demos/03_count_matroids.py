"""Count matroids: sparsity-style independence over a base matroid.

Given a base matroid and integers k > p >= 0, a set J is independent in the
count matroid when every nonempty subset A of J satisfies
|A| <= k*rk(A) - p.  Checking J alone is not enough: a set can satisfy the
inequality while hiding a violating subset.
"""

from itertools import combinations

from fatpointlab import CountMatroid, ExactMatrix, ScalarField, VectorMatroid
from fatpointlab.constructions import count_matroid_rank_lower_bound_check

QQ = ScalarField.rational()


def circuits(m):
    """The inclusion-minimal dependent sets of a small matroid, by trying
    every subset in order of size."""
    found = []
    for size in range(1, len(m) + 1):
        for combo in combinations(m.elements, size):
            fs = frozenset(combo)
            if not any(c <= fs for c in found) and m.rank(fs) < size:
                found.append(fs)
    return found


# Three vectors on one line plus two off it, with k = 2, p = 1.
base = VectorMatroid(ExactMatrix.from_columns(
    QQ, [(1, 0, 0), (2, 0, 0), (3, 0, 0), (0, 1, 0), (0, 0, 1)]
))
cm = CountMatroid(base, 2, 1)

full = set(base.elements)
print("|E| =", len(full), " k*rk(E) - p =", 2 * base.rank(full) - 1)
print("E satisfies the inequality globally but is dependent:",
      not cm.is_independent(full))
print("the hidden violation is the collinear triple {0,1,2}:",
      not cm.is_independent({0, 1, 2}))

# Circuits of a count matroid have a predictable size: |C| = k*rk(C) - p + 1.
print("\ncircuits:")
for c in circuits(cm):
    print("  %s  size %d = k*rk - p + 1 = %d"
          % (sorted(c), len(c), 2 * base.rank(c) - 1 + 1))

# Under the strengthened hypothesis |A| <= (k+1)*rk(A) - (p+1), the count
# matroid rank of the whole ground set is at least |E| - rk(E) + 1.
from fatpointlab.generators import generic_vectors_matroid, rng_from_seed

gen = generic_vectors_matroid(rng_from_seed(1), 3, 6)
verdict = count_matroid_rank_lower_bound_check(gen, 2, 0)
print("\nrank estimate on 6 generic vectors in rank 3:")
print("  count rank %d >= |E| - rk(E) + 1 = %d : %s"
      % (verdict.count_rank, verdict.bound, verdict.holds))
