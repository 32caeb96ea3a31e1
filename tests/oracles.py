"""Exhaustive and independent test oracles, the seeded instances they are
compared on, and the helpers only tests need (``random_scheme``,
``hilbert_profile``, the exhaustive ``circuits``).

The library checks the count-matroid hypothesis and the cardinality
estimate with the augmenting-path partitioner, finds the Segre bound's
flats rank by rank and partitions by augmenting paths; these oracles
enumerate every subset or every assignment instead (2^|E| rank queries, or
k^|E| placements), so they are for small ground sets only, as is the
rank-axiom check.  The add-one-point quotient term, which the library reads
off Hilbert functions, is computed here from kernels of conditions
matrices, the regularity index, which the library certifies at its
boundary, by ranking every degree from the monomial floor up, and the
heaviest line, which the library finds by grouping pair keys, by ranking
every triple of support points.  Two points are compared by their 2 x 2
minors, which the library replaces by one projective normal form, and
general position is checked at every subset size, where the library ranks
the largest size only.  A kernel basis, which the library back-substitutes
on a fraction-free integer echelon, is read here off the reduced row
echelon form of the field elements, by Gauss-Jordan elimination.
"""

from dataclasses import dataclass
from itertools import combinations
from math import comb

from fatpointlab.bounds import SegreWitness
from fatpointlab.exact import ExactMatrix, GuardExceeded, ScalarField
from fatpointlab.generators import generic_vectors_matroid, random_points, random_vector_matroid
from fatpointlab.schemes import (FatPointScheme, conditions_matrix, hilbert_function,
                                 regularity_index)

CIRCUIT_ENUMERATION_GUARD = 20


def random_scheme(rng, n, max_points, max_mult, field=None):
    """A random fat point scheme with 1..max_points points, mults 1..max_mult."""
    field = field or ScalarField.rational()
    s = rng.randint(1, max_points)
    pts = random_points(rng, n, s, field=field)
    return FatPointScheme(field, n, [(p, rng.randint(1, max_mult)) for p in pts])


@dataclass
class HilbertProfile:
    values: dict
    degree: int
    reg_index: int


def hilbert_profile(x):
    """{d: h_X(d)} for d = 0 .. r(X), deg X and r(X), from the library's
    boundary search and its ``hilbert_function``."""
    r = regularity_index(x)
    return HilbertProfile({d: hilbert_function(x, d) for d in range(r + 1)}, x.degree(), r)


def circuits(m):
    """All inclusion-minimal dependent sets of a rank oracle (exhaustive)."""
    if len(m) > CIRCUIT_ENUMERATION_GUARD:
        raise GuardExceeded("ground set too large for exhaustive circuit enumeration")
    found = []
    for size in range(1, len(m) + 1):
        for combo in combinations(m.elements, size):
            fs = frozenset(combo)
            if any(c <= fs for c in found):
                continue
            if m.rank(fs) < size:
                found.append(fs)
    return found


def proportional(field, a, b):
    """Whether the coordinate vectors a and b name the same projective
    point: every 2 x 2 minor a_i b_j - a_j b_i vanishes."""
    for i in range(len(a)):
        for j in range(i + 1, len(a)):
            if field.elem(a[i] * b[j]) != field.elem(a[j] * b[i]):
                return False
    return True


def rref(rows, field):
    """In-place reduced row echelon form of rows of field elements, by
    Gauss-Jordan elimination; returns (rows, pivot columns)."""
    pivots = []
    for c in range(len(rows[0])):
        r = len(pivots)
        piv = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = 1 / rows[r][c] if field.is_rational else pow(rows[r][c], -1, field.p)
        top = rows[r] = [field.elem(inv * x) for x in rows[r]]
        for i, row in enumerate(rows):
            factor = row[c]
            if factor and i != r:
                rows[i] = [field.elem(x - factor * y) for x, y in zip(row, top)]
        pivots.append(c)
    return rows, pivots


def rref_kernel_basis(field, rows):
    """The right kernel of rows of field elements, one vector per free
    column of ``rref``: 1 there, 0 at the other free columns."""
    ncols = len(rows[0])
    red, pivots = rref([list(row) for row in rows], field)
    basis = []
    for j in range(ncols):
        if j in pivots:
            continue
        v = [field.zero()] * ncols
        v[j] = field.one()
        for row, pc in zip(red, pivots):
            v[pc] = field.elem(-row[j])
        basis.append(tuple(v))
    return basis


def general_position_exhaustive(m, elements, k):
    """Whether every subset of ``elements`` of each size 0..k is independent."""
    return all(
        m.rank(frozenset(combo)) == size
        for size in range(k + 1)
        for combo in combinations(elements, size)
    )


def subset_ranks(rank, elements):
    """The rank of every subset of ``elements`` (frozenset -> rank)."""
    return {
        frozenset(combo): rank(frozenset(combo))
        for size in range(len(elements) + 1)
        for combo in combinations(elements, size)
    }


def closures_exhaustive(rank, elements):
    """The distinct closures cl(S) of all subsets S: every flat."""
    ranks = subset_ranks(rank, elements)
    return {
        frozenset(e for e in elements if ranks[s | {e}] == r)
        for s, r in ranks.items()
    }


def segre_bound_brute_force(x):
    """seg(X) and its witness, maximized over the spans of ALL support
    subsets, with the library's tie-break: smallest span dimension, then the
    lexicographically smallest point set, and a single point only when its
    m - 1 beats every span of positive dimension."""
    s = x.support_size
    mults = x.mults
    if s == 1:
        return mults[0] - 1, SegreWitness(frozenset([0]), 0, mults[0], mults[0] - 1)
    matrix = ExactMatrix.from_columns(x.field, [c for c, _ in x.points])
    ranks = subset_ranks(matrix.rank_of_column_subset, range(s))
    best = None
    for subset, r in ranks.items():
        if r < 2:
            continue
        members = frozenset(i for i in range(s) if ranks[subset | {i}] == r)
        w = sum(mults[i] for i in members)
        value = -(-(w - 1) // (r - 1))
        key = (-value, r - 1, sorted(members))
        if best is None or key < best[0]:
            best = (key, SegreWitness(members, r - 1, w, value))
    witness = best[1]
    if max(mults) - 1 > witness.value:
        i = mults.index(max(mults))
        witness = SegreWitness(frozenset([i]), 0, mults[i], mults[i] - 1)
    return witness.value, witness


def cardinality_violation_exhaustive(m, seg):
    """The first ground subset S of a fat-point vector matroid m, smallest
    first, with rk(S) >= 2 and |S| > seg*(rk(S)-1) + 1, or None.

    Copies of a point are parallel, equal columns of the matrix, so the
    rank of S is computed once per set of columns that S meets.
    """
    point = {e: m.matrix.column(e) for e in m.elements}
    ranks = {}
    for size in range(2, len(m.elements) + 1):
        for combo in combinations(m.elements, size):
            met = frozenset(map(point.get, combo))
            r = ranks.get(met)
            if r is None:
                r = ranks[met] = m.rank(frozenset(combo))
            if r >= 2 and size > seg * (r - 1) + 1:
                return frozenset(combo)
    return None


def ctv_quotient_term_by_kernels(z, p_coords, m):
    """1 + reg R/(I_Z + I_P^m): the first degree j at which I_Z + I_P^m
    fills R_j.  Its degree-j part is spanned by the kernels of the
    conditions matrices of Z and of mP, so the union of the two kernel
    bases is ranked degree by degree."""
    fat_p = FatPointScheme(z.field, z.n, [(p_coords, m)])
    for j in range(z.degree() + fat_p.degree() + 1):
        vectors = conditions_matrix(z, j).kernel_basis() + conditions_matrix(fat_p, j).kernel_basis()
        if vectors and ExactMatrix(z.field, vectors).rank() == comb(z.n + j, z.n):
            return j
    raise AssertionError("quotient did not vanish by deg Z + deg mP")


def regularity_index_ascending(x):
    """The least d with h_X(d) = deg X, ranking a fresh conditions matrix
    in every degree from the first with deg X monomials up; a prime field
    too small for some degree on the way raises ValueError there."""
    deg = x.degree()
    d = 0
    while comb(x.n + d, x.n) < deg:
        d += 1
    while d < deg:
        if conditions_matrix(x, d).rank() == deg:
            return d
        d += 1
    raise AssertionError("regularity search exceeded deg X - 1")


def heaviest_line_weight_by_ranks(x):
    """The largest total multiplicity of the support points on a line:
    the line through points i and j holds the k with rank {i, j, k} = 2."""
    mults = x.mults
    if len(mults) == 1:
        return mults[0]
    matrix = ExactMatrix.from_columns(x.field, [c for c, _ in x.points])
    return max(
        sum(mults[k] for k in range(len(mults)) if matrix.rank_of_column_subset({i, j, k}) == 2)
        for i, j in combinations(range(len(mults)), 2)
    )


def hilbert_profile_ascending(x):
    """{d: h_X(d)} for d = 0 .. r(X), every value from a fresh matrix."""
    r = regularity_index_ascending(x)
    return {d: conditions_matrix(x, d).rank() for d in range(r + 1)}


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


BRUTE_FORCE_GROUND_GUARD = 12
BRUTE_FORCE_BLOCK_GUARD = 4


def brute_force_partition_oracle(matroids):
    """Does an assignment of the common ground set into blocks independent
    in the respective matroids exist?  Exponential; guarded to desk scale."""
    ground = sorted(matroids[0].elements)
    k = len(matroids)
    if len(ground) > BRUTE_FORCE_GROUND_GUARD or k > BRUTE_FORCE_BLOCK_GUARD:
        raise GuardExceeded("instance too large for brute-force enumeration")

    def place(i, blocks):
        if i == len(ground):
            return True
        e = ground[i]
        for j in range(k):
            cand = blocks[j] | {e}
            if matroids[j].is_independent(cand):
                blocks[j] = cand
                if place(i + 1, blocks):
                    return True
                blocks[j] = cand - {e}
        return False

    return place(0, [frozenset() for _ in range(k)])


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
