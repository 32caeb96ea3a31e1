"""Fat point schemes and their exact invariants.

A fat point scheme is a formal sum of projective points with multiplicities.
Its degree-d Hilbert function is the rank of the derivative-conditions
matrix: one row per vanishing condition (point, derivative multi-index of
order below the multiplicity), one column per degree-d monomial in a fixed
degree-lexicographic order.  The regularity index is the least degree at
which that rank reaches the degree of the scheme.  It is found at its
boundary (see ``regularity_index``): one rank modulo a prime per degree
from a lower bound up, then one certified deficiency one degree below.  The
climb builds its matrices as residues in numpy (``_conditions_residues``),
exact integer rows (``conditions_matrix``, ``_multiples_matrix``) only
where a certificate reads them, from the same factor tables
(``_factor_tables``).  Where a coordinate x_j vanishes at no support point,
one residue matrix per degree d gives both h_X(d - 1), from its rows at the
multiples of x_j, and h_X(d) (``_split_ranks``).  The scheme holds only
certified Hilbert values and r(X).

Each point is cleared to integers once, to its projective normal form
(``_point_key``): the primitive integer vector with first nonzero entry
positive over Q, the vector scaled to first nonzero entry 1 over F_p.  A
scheme keeps these keys (``keys``) next to the given coordinates, which
serve serialization and derived schemes only.  Distinctness, membership,
the conditions matrices, the line search, the support matroids and the
generators' resampling all read the keys.

Vanishing conditions are written after dehomogenizing each point at its
first nonzero coordinate, which avoids the redundancy among homogeneous
partials coming from the Euler relation, and each row is scaled so that
the matrix has integer entries (see ``conditions_matrix``).  Over a prime
field this encoding is faithful only when p exceeds the working degree;
this is enforced.

The add-one-point decomposition of r(Z + mP) needs the Hilbert function of
R/(I_Z + I_P^m).  It is read off the exact sequence
0 -> R/I_{Z+mP} -> R/I_Z + R/I_P^m -> R/(I_Z + I_P^m) -> 0 as
h_Z(j) + h_mP(j) - h_{Z+mP}(j), where a single fat point has the closed
form h_mP(j) = binom(n + min(j, m-1), n) (see ``ctv_decomposition_check``).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import comb, gcd, perm, prod
from operator import mul

from .exact import (_NUMPY_MIN_CELLS, ExactMatrix, InternalError, _extend_rank_mod_p,
                    _rref_mod_p, certificate_prime, integer_vector)


@lru_cache(maxsize=None)
def monomials(n, d):
    """Exponent tuples of the degree-d monomials in n+1 variables,
    in degree-lexicographic order (x0^d first)."""
    def gen(nvars, total):
        if nvars == 1:
            yield (total,)
            return
        for first in range(total, -1, -1):
            for rest in gen(nvars - 1, total - first):
                yield (first,) + rest

    return tuple(gen(n + 1, d))


@lru_cache(maxsize=None)
def _derivative_orders(nvars, below):
    """Multi-indices over nvars variables of total order < below, a fixed
    deterministic order."""
    out = []
    for total in range(below):
        out.extend(monomials(nvars - 2, total))
    return tuple(out)


class FatPointScheme:
    """X = sum m_i P_i: distinct projective points with multiplicities.

    ``points`` holds the (coordinates, multiplicity) pairs as given, as
    field elements; ``keys`` the projective normal form of each point.
    """

    def __init__(self, field, ambient_dim, points):
        if ambient_dim < 1:
            raise ValueError("ambient dimension must be >= 1")
        self.field = field
        self.n = ambient_dim
        cleaned = []
        for coords, mult in points:
            coords = _projective_point(field, ambient_dim, coords)
            if not (isinstance(mult, int) and mult >= 1):
                raise ValueError("multiplicity must be a positive integer")
            cleaned.append((coords, mult))
        keys = tuple(_point_key(field, c) for c, _ in cleaned)
        if len(set(keys)) < len(cleaned):
            raise ValueError("points must be pairwise distinct in projective space")
        self._init(field, ambient_dim, cleaned, keys)

    def _init(self, field, n, points, keys):
        if not points:
            raise ValueError("scheme must have at least one point")
        self.field = field
        self.n = n
        self.points = tuple(points)
        self.keys = keys
        self._hilbert_cache = {}  # certified values of h_X
        self._reg = None          # r(X), filled by regularity_index
        self._segre = None        # (seg, witness), filled by bounds.segre_bound

    def _part(self, mults):
        """The scheme on these points with new multiplicities, a point
        dropped at 0.  The points keep their coordinates and keys, so none
        is cleared again."""
        kept = [i for i, m in enumerate(mults) if m]
        part = FatPointScheme.__new__(FatPointScheme)
        part._init(self.field, self.n, [(self.points[i][0], mults[i]) for i in kept],
                   tuple(self.keys[i] for i in kept))
        return part

    @property
    def support_size(self):
        return len(self.points)

    @property
    def mults(self):
        return tuple(m for _, m in self.points)

    def degree(self):
        return sum(comb(self.n + m - 1, self.n) for m in self.mults)

    def __repr__(self):
        return "FatPointScheme(n=%d, mults=%r)" % (self.n, list(self.mults))

    def with_point(self, coords, mult):
        """The scheme X + mult*P for a new point P."""
        return FatPointScheme(self.field, self.n, list(self.points) + [(coords, mult)])

    def contains_point(self, coords):
        """Whether the point of P^n with these coordinates is in the support;
        ValueError if they are not a point of P^n."""
        return _point_key(self.field, _projective_point(self.field, self.n, coords)) in self.keys


def _projective_point(field, n, coords):
    """The coordinates as field elements, checked to name a point of P^n."""
    coords = tuple(field.elem(c) for c in coords)
    if len(coords) != n + 1:
        raise ValueError("point has wrong number of coordinates")
    if not any(coords):
        raise ValueError("invalid projective point")
    return coords


def _point_key(field, coords):
    """The projective normal form of a point: equal keys, same point.

    Over Q the primitive integer vector with first nonzero entry positive,
    over F_p the residues scaled to first nonzero entry 1."""
    return _normalized(integer_vector(field, coords), field.p)


@lru_cache(maxsize=None)
def _exponent_columns(n, d):
    """For each variable, its exponent in every degree-d monomial."""
    return tuple(zip(*monomials(n, d)))


def conditions_matrix(x, d):
    """The derivative-conditions matrix of X in degree d, over Z.

    sum_i binom(n + m_i - 1, n) rows, binom(n + d, n) columns; the kernel is
    the degree-d part of the ideal of X and the rank is h_X(d).

    Each point is taken as its key c (see ``_point_key``) and
    dehomogenized at its first nonzero coordinate c_piv (1 over F_p), with
    affine coordinates u_j = c_j / c_piv.  The row of the derivative
    d^alpha in the affine variables, evaluated at the point, is scaled by
    c_piv^d, which leaves rank and right kernel unchanged and makes every
    entry an integer: at the monomial x^beta it is
    prod_j ff(beta_j, alpha_j) c_j^(beta_j - alpha_j) over the affine j,
    times c_piv^(beta_piv + |alpha|), where ff(b, a) = b!/(b - a)! is the
    falling factorial.  Over F_p the same formula is reduced mod p.  The
    factors come from ``_factor_tables``.
    """
    return ExactMatrix.from_integer_rows(x.field, _integer_rows(x, d, _exponent_columns(x.n, d)))


def _integer_rows(x, d, exponents):
    """The rows of the conditions matrix in degree d restricted to some
    monomials, as integers (over F_p, residues): ``exponents`` gives, per
    variable, its exponent in each of them."""
    p = x.field.p
    rows = []
    for orders, factors in _factor_tables(x, d, p):
        for order in orders:
            row = list(map(factors[0][order[0]].__getitem__, exponents[0]))
            for j in range(1, x.n + 1):
                row = list(map(mul, row, map(factors[j][order[j]].__getitem__, exponents[j])))
            rows.append(tuple(v % p for v in row) if p is not None else tuple(row))
    return rows


@lru_cache(maxsize=None)
def _multiples(n, d, j):
    """The positions of the degree-d monomials divisible by x_j, in order,
    and of the others.  x_j m runs through the first list as m runs
    through ``monomials(n, d - 1)``: the monomial order is multiplicative.
    For j = 0 the first list is the first binom(n + d - 1, n) positions."""
    mons = monomials(n, d)
    return ([i for i, beta in enumerate(mons) if beta[j]],
            [i for i, beta in enumerate(mons) if not beta[j]])


def _multiples_matrix(x, d, j):
    """The exact rows of the tall conditions matrix in degree d at the
    multiples of x_j: one row per monomial x_j m, one column per condition.
    If x_j vanishes at no support point its rank is h_X(d - 1) (see
    ``_split_ranks``)."""
    divisible, _ = _multiples(x.n, d, j)
    exponents = [[e[i] for i in divisible] for e in _exponent_columns(x.n, d)]
    return ExactMatrix.from_integer_rows(x.field, zip(*_integer_rows(x, d, exponents)))


@lru_cache(maxsize=None)
def _falling_factorials(d, a):
    """ff(b, a) = b!/(b - a)! for b = a .. d."""
    return tuple(perm(b, a) for b in range(a, d + 1))


def _factor_tables(x, d, q):
    """Per point of X, the factors of its rows of the conditions matrix in
    degree d, reduced mod q (over Z if q is None): (orders, factors), where
    orders[k][j] is the derivative order of the point's k-th row in the
    variable j (the total order at the pivot) and factors[j][a][b] is the
    factor of variable j at exponent b in a row of order a in it."""
    if d < 0:
        raise ValueError("degree must be >= 0")
    p = x.field.p
    if p is not None and p <= d:
        raise ValueError("prime field too small for derivative conditions at degree %d" % d)
    for c, mult in zip(x.keys, x.mults):
        pivot = next(i for i, v in enumerate(c) if v)
        powers = [[pow(v, e, q) for e in range(d + mult)] for v in c]
        factors = [
            [powers[j][a:a + d + 1] if j == pivot else
             [0] * min(a, d + 1) + list(map(mul, _falling_factorials(d, a), powers[j]))
             for a in range(mult)]
            for j in range(x.n + 1)
        ]
        if q is not None:
            factors = [[[v % q for v in f] for f in fj] for fj in factors]
        yield [alpha[:pivot] + (sum(alpha),) + alpha[pivot:]
               for alpha in _derivative_orders(x.n + 1, mult)], factors


def _conditions_residues(x, d, q):
    """The conditions matrix in degree d modulo a prime q < 2^31 as an
    int64 numpy array, in the orientation of ``exact._tall``: per variable
    one gather from every point's factor tables, at each row's order and
    each column's exponent, multiplied mod q."""
    import numpy as np

    tables = [[] for _ in range(x.n + 1)]  # per variable, every point's factors
    index = []                             # per row, its factors in each table
    for orders, factors in _factor_tables(x, d, q):
        base = [len(t) for t in tables]
        index.extend([b + o for b, o in zip(base, order)] for order in orders)
        for t, f in zip(tables, factors):
            t.extend(f)
    exponents = _exponent_columns(x.n, d)
    transpose = len(index) < len(exponents[0])
    a = None
    for t, rows, cols in zip(tables, zip(*index), exponents):
        t = np.array(t, dtype=np.int64)
        g = t.T[list(cols)][:, rows] if transpose else t[list(rows)][:, cols]
        a = g if a is None else a * g % q
    return a


def _normalized(v, p):
    """The nonzero integer vector v up to scale: primitive with its first
    nonzero entry positive (over F_p: reduced, with that entry 1)."""
    if p is not None:
        v = [c % p for c in v]
        inv = pow(next(c for c in v if c), -1, p)
        return tuple(c * inv % p for c in v)
    g = gcd(*v)
    if next(c for c in v if c) < 0:
        g = -g
    return tuple(c // g for c in v)


def heaviest_line_weight(x):
    """The largest total multiplicity w_L of the support points on a line L.

    w_L - 1 is a lower bound for r(X), at least max m_i - 1: X meets L in a
    scheme of degree w_L on a P^1, which needs degree w_L - 1.  The lines
    through a support point a are told apart by where they meet the
    hyperplane x_t = 0, for a coordinate with a_t != 0: the line through a
    and b meets it at a_t b - b_t a.  So each of the s(s - 1)/2 pairs costs
    O(n) integer steps and no rank; each line is weighed from its first
    point on.
    """
    mults = x.mults
    if x.n == 1 or len(mults) <= 2:
        return sum(mults)  # the support lies on one line
    p = x.field.p
    keys = x.keys
    best = 0
    for i, a in enumerate(keys[:-1]):
        t = next(k for k, v in enumerate(a) if v)
        later = {}  # line through a -> weight of its points after a
        for j in range(i + 1, len(keys)):
            b = keys[j]
            key = _normalized([a[t] * bk - b[t] * ak for ak, bk in zip(a, b)], p)
            later[key] = later.get(key, 0) + mults[j]
        best = max(best, mults[i] + max(later.values()))
    return best


def hilbert_function(x, d):
    """h_X(d) = dim [R/I_X]_d = rank of the conditions matrix, and deg X
    from a certified r(X) on.  Only certified values are cached; after
    ``regularity_index`` they include h_X(r) and h_X(r - 1), which the
    climb mostly reads off one matrix in degree r.  Other ranks are read off
    residues (``_rank_bound``); exact rows are built only where a
    certificate reads them."""
    h = x._hilbert_cache.get(d)
    if h is None:
        if x._reg is not None and d >= x._reg:
            return x.degree()
        h, first = _rank_bound(x, d)
        if first is not None:
            h = conditions_matrix(x, d).rank(first=first)
        x._hilbert_cache[d] = h
    return h


def _residue_prime(x, d):
    """The prime q the conditions matrix in degree d is reduced modulo as
    residues: over Q ``certificate_prime(0)``, the first prime of the
    certificate, which starts from this reduction; p over F_p.  None where it
    is ranked on exact rows instead: below ``_NUMPY_MIN_CELLS`` cells, for
    q >= 2^31, and at negative degrees, whose exact rows raise the error."""
    q = certificate_prime(0) if x.field.p is None else x.field.p
    if d < 0 or q >= 2**31 or x.degree() * comb(x.n + d, x.n) < _NUMPY_MIN_CELLS:
        return None
    return q


def _rank_bound(x, d):
    """(r, first) for the conditions matrix in degree d: its rank r, or
    over Q a deficient rank mod q and ``first``, the reduction a
    certificate on exact rows starts from.  Where ``_residue_prime`` gives
    a prime q, the matrix is reduced as residues mod q, and a full rank mod
    q is full over Q; other matrices are ranked on exact rows."""
    q = _residue_prime(x, d)
    if q is None:
        return conditions_matrix(x, d).rank(), None
    red, pivots = _rref_mod_p(_conditions_residues(x, d, q), q)
    if x.field.p is not None or len(pivots) == red.shape[1]:
        return len(pivots), None
    return len(pivots), (red, pivots)


def _unit_coordinate(x):
    """The first j with x_j nonzero at every support point, or None."""
    return next((j for j, column in enumerate(zip(*x.keys)) if all(column)), None)


def _split_ranks(x, d, j, q):
    """(h, low, first): the ranks mod q of the tall degree-d residues and of
    their rows at the multiples of x_j, and the reduction ``first`` of those
    rows.  The tall orientation has one row per monomial when d is above the
    monomial floor.

    Multiplying by x_j maps the degree-(d - 1) forms onto the span of those
    monomials, and a form f x_j is in I_X exactly when f is, if x_j
    vanishes at no support point: then x_j is a nonzerodivisor on R/I_X.
    So the rows have rank h_X(d - 1) over the field of X.  They are reduced
    first; ``_extend_rank_mod_p`` adds the other rows through a Schur
    complement, for the whole rank.  Over F_p both ranks are exact; over Q
    they are lower bounds, ``first`` the start of the certificate of
    ``_multiples_matrix``."""
    divisible, rest = _multiples(x.n, d, j)
    a = _conditions_residues(x, d, q)
    red, pivots = _rref_mod_p(a[divisible], q)
    return _extend_rank_mod_p(red, pivots, a[rest], q), len(pivots), (red, pivots)


def regularity_index(x):
    """Least d with h_X(d) = deg X, by a search at its boundary; memoized.

    h_X is monotone, so two facts fix r: h_X(r) = deg X and
    h_X(r - 1) < deg X.  The rank of the conditions matrix does not change
    over the algebraic closure of the field, and there a linear form
    missing every support point is a nonzerodivisor on R/I_X, so
    multiplying by it embeds degree d into degree d + 1: full at d means
    full above d.  Over F_p this needs p > d, which ``conditions_matrix``
    enforces; the ideal of X itself does not depend on the derivative
    encoding.

    The search climbs from the largest of the monomial floor and the lower
    bound w_L - 1 of ``heaviest_line_weight``, one residue matrix per
    degree: its rank modulo a prime certifies a full rank over Q and is the
    rank over F_p (below 64 cells, exact rows give the exact rank).  The
    line search runs only when the line bound can move the start two
    degrees or more above the floor (the total multiplicity minus 1 can;
    one degree up would spare only the floor's matrix, the smallest one)
    and its s(s - 1)/2 pair keys are at most deg X, the row count of every
    conditions matrix the search builds, which keeps it a small part of
    building even one of them.  Otherwise (many light points, generic
    simple points among them) the climb starts at the floor.

    At the first full degree d the search certifies h_X(d - 1) (no
    certificate is needed at or below the monomial floor, where the rank in
    degree d - 1 cannot be full), and steps down while that is full too:
    after an unlucky prime took the climb past r, or if the start was above
    r.  So correctness depends on no bound.  Above the floor, if some
    coordinate x_j vanishes at no support point (the first such j), each
    degree d is ranked by ``_split_ranks``: the rows of the degree-d
    residues at the multiples of x_j first, which have rank h_X(d - 1), then
    the rest by a Schur extension.  So h_X(d - 1) comes from the same
    matrix: over F_p as it is, over Q full mod q or certified on the exact
    rows at the multiples of x_j (``_multiples_matrix``), starting from the
    reduction of their residues, in the step where h_X(d) is full.  Where
    every coordinate vanishes at some support point, and at the floor, a
    degree is ranked whole (``_rank_bound``) and cached only if certified;
    the step-down certifies h_X(d - 1) through ``hilbert_function``.  Exact
    rows are built only for these certificates.  A degree already in the
    scheme's cache of certified values is read from there, not built.
    Over F_p the start is capped at p - 1, so a field too small for r(X) is
    reported at the degree where an ascending search meets it first.  The
    climb must end by d = deg X - 1, the classical bound; exceeding it is
    an internal error.
    """
    if x._reg is None:
        deg = x.degree()
        floor = 0  # the first degree with at least deg X monomials
        while comb(x.n + floor, x.n) < deg:
            floor += 1
        d = floor
        s = x.support_size
        if sum(x.mults) - 1 >= floor + 2 and s * (s - 1) // 2 <= deg:
            d = max(floor, heaviest_line_weight(x) - 1)
        p = x.field.p
        if p is not None:
            d = max(floor, min(d, p - 1))
        cache = x._hilbert_cache
        while True:
            q = _residue_prime(x, d) if d > floor else None
            unit = _unit_coordinate(x) if q is not None else None
            if d in cache:
                h = cache[d]
            elif unit is not None:
                h, low, first = _split_ranks(x, d, unit, q)
                if p is not None:
                    cache[d], cache[d - 1] = h, low
                elif h == deg:
                    cache[d] = h
                    cache[d - 1] = low if low == deg else (
                        _multiples_matrix(x, d, unit).rank(first=first))
            else:
                h, first = _rank_bound(x, d)
                if first is None:
                    cache[d] = h
            if h == deg:
                break
            d += 1
            if d > max(0, deg - 1):
                raise InternalError("regularity search exceeded deg X - 1")
        while d > floor and hilbert_function(x, d - 1) == deg:
            d -= 1
        x._reg = d
    return x._reg


@dataclass
class HilbertProfile:
    values: dict
    degree: int
    reg_index: int


def hilbert_profile(x):
    r = regularity_index(x)
    return HilbertProfile({d: hilbert_function(x, d) for d in range(r + 1)}, x.degree(), r)


def subscheme(x, new_mults):
    """The fat point subscheme with multiplicities reduced pointwise;
    points reduced to 0 are dropped."""
    if len(new_mults) != x.support_size:
        raise ValueError("need one multiplicity per point")
    for mult, nm in zip(x.mults, new_mults):
        if not (isinstance(nm, int) and 0 <= nm <= mult):
            raise ValueError("new multiplicity must satisfy 0 <= new <= old")
    return x._part(new_mults)


@dataclass
class CtvVerdict:
    ok: bool
    reg_index: int
    formula_value: int
    point_term: int
    subscheme_term: int
    quotient_term: int


def ctv_decomposition_check(z, p_coords, m):
    """Check r(Z + mP) = max{m-1, r(Z), 1 + reg(R/(I_Z + I_P^m))}.

    Since I_{Z+mP} = I_Z meet I_P^m, the exact sequence
    0 -> R/I_{Z+mP} -> R/I_Z + R/I_P^m -> R/(I_Z + I_P^m) -> 0 gives the
    quotient in degree j the dimension h_Z(j) + h_mP(j) - h_{Z+mP}(j), with
    h_mP(j) = binom(n + min(j, m-1), n).  The quotient vanishes from some
    degree on (and then forever, since the ideal contains that full graded
    piece), at the latest at r(Z + mP), where h_{Z+mP} reaches
    deg Z + deg mP.  The Hilbert values come from ``hilbert_function``,
    mostly from the caches the two regularity searches filled, so this is a
    consistency check of the ranks of the conditions matrices of Z and
    Z + mP.
    """
    if z.contains_point(p_coords):
        raise ValueError("point must be disjoint from Z")
    total = z.with_point(p_coords, m)
    r_direct = regularity_index(total)
    r_z = regularity_index(z)
    for j in range(r_direct + 1):
        dim = hilbert_function(z, j) + comb(z.n + min(j, m - 1), z.n) - hilbert_function(total, j)
        if dim < 0:
            raise InternalError("negative quotient dimension %d in degree %d" % (dim, j))
        if dim == 0:
            break
    else:
        raise InternalError("quotient did not vanish by r(Z + mP)")
    quotient_term = j
    formula = max(m - 1, r_z, quotient_term)
    return CtvVerdict(r_direct == formula, r_direct, formula, m - 1, r_z, quotient_term)


def veronese_lift(x, d):
    """The image of X under the degree-d Veronese embedding; coordinates are
    the degree-d monomials (degree-lexicographic order), multiplicities kept."""
    if d < 1:
        raise ValueError("degree must be >= 1")
    field = x.field
    mons = monomials(x.n, d)
    big_n = len(mons) - 1
    pts = []
    for coords, mult in x.points:
        image = tuple(field.elem(prod(map(pow, coords, beta))) for beta in mons)
        pts.append((image, mult))
    # the Veronese map is injective, so the constructor's distinctness
    # check doubles as the injectivity assertion
    return FatPointScheme(field, big_n, pts)


def _ceil_div(a, b):
    return -(-a // b)


@dataclass
class VeroneseVerdict:
    ok: bool
    reg_index: int
    lifted_reg_index: int
    ratio: int
    equality_case: bool
    closed_form: int = None


def veronese_inequality_check(x, d):
    """Verify ceil(r(X)/d) <= r(X^) for the Veronese lift X^; in the n=1
    equality regime additionally check the closed form for r(X^)."""
    r = regularity_index(x)
    lifted = veronese_lift(x, d)
    r_hat = regularity_index(lifted)
    ratio = _ceil_div(r, d)
    ok = ratio <= r_hat
    equality_case = False
    closed = None
    if x.n == 1:
        total = sum(x.mults)
        if r != total - 1:
            raise InternalError("principal-ideal fact for points on a line fails: r=%d" % r)
        mults = x.mults
        cond = all(
            d * (mults[j] + mults[k]) <= 2 * d - 2 + total
            for j in range(len(mults))
            for k in range(j + 1, len(mults))
        )
        # the equality regime needs at least two support points; with a
        # single point the pair condition is vacuous but equality fails
        if cond and len(mults) >= 2:
            equality_case = True
            closed = _ceil_div(total - 1, d)
            ok = ok and r_hat == closed and ratio == r_hat
    return VeroneseVerdict(ok, r, r_hat, ratio, equality_case, closed)
