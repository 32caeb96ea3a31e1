"""Fat point schemes and their exact invariants.

A fat point scheme is a formal sum of projective points with multiplicities.
Its degree-d Hilbert function is the rank of the derivative-conditions
matrix: one row per vanishing condition (point, derivative multi-index of
order below the multiplicity), one column per degree-d monomial in a fixed
degree-lexicographic order.  The regularity index is the least degree at
which that rank reaches the degree of the scheme.  It is found at its
boundary (see ``regularity_index``): from a proven lower bound, the
monomial floor or the heaviest line's weight minus 1 (``heaviest_line``,
its members re-checked as collinear), one rank modulo a prime per degree
up to the first full one.  The climb builds its matrices as residues in
numpy (``_conditions_residues``, from one power table per scheme and
gathers by shape), exact integer rows (``conditions_matrix``, from
``_factor_tables``) only where a certificate of a deficient rank reads
them; both give the same entries.  The scheme holds only certified Hilbert
values and r(X).

Each degree is ranked first in a coordinate frame (``_frame``,
``_frame_rank``): a maximum-weight independent set of support points,
independence tested mod q, is sent to the coordinate points e_0, e_1, ..
by a change of coordinates E, invertible mod q.  A condition d^alpha of a
frame point e_k is nonzero at one monomial only, alpha + (d - |alpha|)e_k,
where it is prod_j alpha_j!, a unit mod q > d.  These unit columns of the
tall matrix sit at distinct monomials when d >= m_k - 1 and
m_k + m_l <= d + 1 for every pair of frame points (the gate), and then the
rank is sum deg(m_k P_k) over the frame plus the rank of the other points'
rows, in the frame, on the monomials with beta_k <= d - m_k for each frame
index k.  This is the rank mod q of a conditions matrix of EX: the rows
of the lift of E to the integers applied to the keys, each dehomogenized at
its first coordinate nonzero mod q.  h_X is invariant under an invertible
change of coordinates, so over F_p the frame gives h_X(d) itself and over
Q a lower bound, and a full one certifies h_X(d) = deg X.  A deficient rank
over Q, a degree the gate refuses, and over Q a degree where the frame
cannot pay (see ``_rank_bound``) are ranked on the whole matrix as before,
so a certificate starts from the whole matrix's echelon.

Beside a frame of n + 1 points one more point u, the unit point, is sent
to (1 : .. : 1) where its image under E has every coordinate nonzero mod q:
every image is scaled by D = diag(u_j^-1), which fixes each e_k
projectively and is invertible mod q, so the argument above holds for DE
unchanged.  The unit point's rows on the frame's monomials then depend on
the shape alone, and their reduced echelon form mod q is computed once per
shape (``_unit_echelon``).  Each degree reduces the other points' rows
against it with one int64 product on 16-bit limbs (``_add_product_mod``)
and eliminates them only on the monomials off its pivots: the rank is the
frame's units, plus the echelon's pivots, plus the rank of the reduced
rest.  Without a unit point the echelon is empty.

Each point is cleared to integers once, to its projective normal form
(``_point_key``): the primitive integer vector with first nonzero entry
positive over Q, the vector scaled to first nonzero entry 1 over F_p.  A
scheme keeps these keys (``keys``) next to the given coordinates, which
serve serialization and derived schemes only.  Distinctness, membership,
the conditions matrices, the coordinate frame, the flats of the support
points (``flat_levels``: covers told apart by keys of their points' images
modulo the flat, no rank query, walked once per scheme by
``support_levels``), the heaviest line among them, general position
(``in_general_position``, for the generators' resampling and the
sharpness hypothesis), and the support matroids all read the keys.

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

from collections import namedtuple
from functools import lru_cache
from itertools import combinations, count, islice
from math import comb, gcd, perm, prod
from operator import mul

from .exact import (_NUMPY_MIN_CELLS, ExactMatrix, GuardExceeded, InternalError, _echelon_mod_p,
                    _rref_mod_p, certificate_prime, integer_vector)

# The most cells, deg X rows by binom(n + d, n) columns, of a conditions
# matrix that is built.  Each takes several int64 arrays of its size as
# residues, and over Q a big integer per cell as exact rows.
CONDITIONS_MATRIX_GUARD = 10**7


@lru_cache(maxsize=None)
def monomials(n, d):
    """Exponent tuples of the degree-d monomials in n+1 variables,
    in degree-lexicographic order (x0^d first).

    A monomial is a placement of n bars among n + d slots, its exponents
    the runs of free slots between them; placements in reverse
    lexicographic order give degree-lexicographic order.  No recursion, so
    any number of variables works."""
    out = []
    for bars in combinations(range(n + d), n):
        exponents, prev = [], -1
        for b in bars:
            exponents.append(b - prev - 1)
            prev = b
        exponents.append(n + d - 1 - prev)
        out.append(tuple(exponents))
    out.reverse()
    return tuple(out)


@lru_cache(maxsize=None)
def _point_orders(n, mult, pivot):
    """The derivative orders of the rows of a point of multiplicity mult
    with its first nonzero coordinate at pivot, in a fixed deterministic
    order: the multi-indices over the n affine variables of total order
    < mult, each with its total order inserted at the pivot."""
    return tuple(alpha[:pivot] + (total,) + alpha[pivot:]
                 for total in range(mult) for alpha in monomials(n - 1, total))


class FatPointScheme:
    """X = sum m_i P_i: distinct projective points with multiplicities.

    ``points`` holds the (coordinates, multiplicity) pairs as given, as
    field elements; ``mults`` the multiplicities alone; ``keys`` the
    projective normal form of each point.
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
        self.mults = tuple(m for _, m in points)
        self.keys = keys
        self._hilbert_cache = {}  # certified values of h_X
        self._reg = None          # r(X), filled by regularity_index
        self._segre = None        # (seg, witness), filled by bounds.segre_bound
        self._levels = []         # the levels of flat_levels built so far
        self._walk = None         # the flat_levels walk that extends them
        self._pending = None      # (d, h, first): the climb's last deficient reduction
        self._frame = None        # X in its coordinate frame mod q, filled by _frame

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
    _check_degree(x, d)
    p = x.field.p
    exponents = _exponent_columns(x.n, d)
    rows = []
    for orders, factors in _factor_tables(x, d, p):
        for order in orders:
            row = list(map(factors[0][order[0]].__getitem__, exponents[0]))
            for j in range(1, x.n + 1):
                row = list(map(mul, row, map(factors[j][order[j]].__getitem__, exponents[j])))
            rows.append(tuple(v % p for v in row) if p is not None else tuple(row))
    return ExactMatrix.from_integer_rows(x.field, rows)


@lru_cache(maxsize=None)
def _falling_factorials(d, a):
    """ff(b, a) = b!/(b - a)! for b = a .. d."""
    return tuple(perm(b, a) for b in range(a, d + 1))


def _check_degree(x, d):
    """ValueError for a degree whose conditions are not faithful: d < 0, or
    over F_p with p <= d; ``GuardExceeded`` for a conditions matrix of more
    than ``CONDITIONS_MATRIX_GUARD`` cells, sized from binomials before any
    of it is built."""
    if d < 0:
        raise ValueError("degree must be >= 0")
    p = x.field.p
    if p is not None and p <= d:
        raise ValueError("prime field too small for derivative conditions at degree %d" % d)
    rows, cols = x.degree(), comb(x.n + d, x.n)
    if rows * cols > CONDITIONS_MATRIX_GUARD:
        raise GuardExceeded("conditions matrix too large: %d x %d = %d cells in degree %d "
                            "(CONDITIONS_MATRIX_GUARD = %d)" % (rows, cols, rows * cols, d,
                                                                CONDITIONS_MATRIX_GUARD))


def _factor_tables(x, d, q):
    """Per point of X, the factors of its rows of the conditions matrix in
    degree d, reduced mod q (over Z if q is None): (orders, factors), where
    orders[k][j] is the derivative order of the point's k-th row in the
    variable j (the total order at the pivot) and factors[j][a][b] is the
    factor of variable j at exponent b in a row of order a in it."""
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
        yield _point_orders(x.n, mult, pivot), factors


@lru_cache(maxsize=None)
def _shift_arrays(n, d, mult, q):
    """The int64 arrays that turn powers of coordinates into the factors of
    ``_factor_tables`` for orders a < mult and exponents b <= d, modulo q:
    the exponent a + b of a pivot's power and b - a of another variable's
    (0 where b < a), the falling factorials ff(b, a) mod q (0 where b < a),
    each of shape (mult, d + 1), and per variable its exponent in every
    degree-d monomial, of shape (n + 1, binom(n + d, n))."""
    import numpy as np

    a, b = np.arange(mult)[:, None], np.arange(d + 1)
    ff = np.array([[perm(e, k) % q for e in range(d + 1)] for k in range(mult)], dtype=np.int64)
    return a + b, np.maximum(b - a, 0), ff, np.array(_exponent_columns(n, d), dtype=np.int64)


@lru_cache(maxsize=None)
def _row_orders(n, mult, pivot):
    """``_point_orders`` as an int64 array of shape (n + 1, rows): per
    variable the order of each row in it."""
    import numpy as np

    return np.array(_point_orders(n, mult, pivot), dtype=np.int64).T.copy()


def _conditions_residues(x, d, q, keys=None, mults=None, columns=None):
    """The conditions matrix in degree d modulo a prime q < 2^31 as an
    int64 numpy array, in the orientation of ``exact._tall``: the entries
    of ``conditions_matrix`` mod q, from numpy tables instead of
    ``_factor_tables``.  The rows are those of X's points, or of the points
    with these integer ``keys`` and ``mults``; the columns are the degree-d
    monomials, or those where the boolean mask ``columns`` is set (see
    ``_residue_rows``).  The degree is checked against X
    (``_check_degree``) either way."""
    _check_degree(x, d)
    a = _residue_rows(x.n, d, q, x.keys if keys is None else keys,
                      x.mults if mults is None else mults, columns)
    return a.T.copy() if a.shape[0] < a.shape[1] else a


def _residue_rows(n, d, q, keys, mults, columns=None):
    """The one residue builder: the conditions rows in degree d mod q of
    the points of P^n with these integer ``keys`` and ``mults``, each
    dehomogenized at its first nonzero entry as a key is, one row per
    condition and one column per degree-d monomial (where the mask
    ``columns`` is set, if given).

    One power table holds every coordinate of every point to the exponents
    0 .. d + max m_i - 1, each exponent one product mod q for all points at
    once.  The factors gather from it through ``_shift_arrays``, the
    pivot's and the other variables' apart, and per variable one gather at
    each row's order (``_row_orders``) and each column's exponent is
    multiplied in mod q.  The two large products, the factors and the
    entries, are reduced by ``_reduce``."""
    import numpy as np

    width = max(mults)
    table = np.array([[v % q for v in c] for c in keys], dtype=np.int64)
    powers = np.empty((d + width,) + table.shape, dtype=np.int64)
    powers[0] = 1
    for e in range(1, d + width):
        powers[e] = powers[e - 1] * table % q
    up, down, ff, exponents = _shift_arrays(n, d, width, q)
    if columns is not None:
        exponents = exponents[:, columns]
    pivots = [next(j for j, v in enumerate(c) if v) for c in keys]
    at_pivot = np.arange(n + 1) == np.array(pivots)[:, None]
    # factors[j, i * width + a, b]: variable j of point i, order a, exponent b
    factors = np.where(at_pivot, powers[up], _reduce(powers[down] * ff[:, :, None, None], q))
    factors = factors.transpose(3, 2, 0, 1).reshape(n + 1, -1, d + 1)
    index = np.concatenate([_row_orders(n, m, t) + i * width
                            for i, (m, t) in enumerate(zip(mults, pivots))], axis=1)
    a = None
    for t, rows, cols in zip(factors, index, exponents):
        g = t.take(rows, axis=0).take(cols, axis=1)
        a = g if a is None else _reduce(a * g, q)
    return a


def _reduce(c, q):
    """The int64 array c >= 0 reduced mod q in place, as c - c // q * q:
    the values of c % q, but numpy's floor division by a scalar multiplies
    where its % divides in hardware, entry by entry."""
    c -= c // q * q
    return c


class _Frame(namedtuple("_Frame", "heavy units unit keys mults")):
    """X in a coordinate frame modulo q: the multiplicities of the frame
    points, which sit at e_0, e_1, .. in that order, their total degree
    sum deg(m_k P_k), the multiplicity of the unit point, which sits at
    (1 : .. : 1) (0 where there is none), and the other points' images and
    multiplicities."""

    __slots__ = ()


def _frame(x, q):
    """X's ``_Frame`` modulo q, taken on the first call and kept on X (q
    is the same for every degree of a scheme).

    The keys mod q are the columns of a matrix, heaviest point first and
    then by index, brought to reduced row echelon form mod q.  Its pivot
    columns are the frame: the greedy, so maximum-weight, independent set
    of support points weighted by multiplicity, and so by degree.  The row
    operations are a change of coordinates E, invertible mod q, taking the
    k-th frame point to e_k, and the other columns are E applied to the
    other points.  A pivot reduces n + 1 rows on the columns from its own
    on, so the frame costs O(s (n + 1)) per frame point and E is never
    inverted.  Each frame point's image is re-checked to be its coordinate
    vector, explicitly, so the check also runs under ``python -O``.

    The unit point is the first other point, in the same order, whose
    image u has every coordinate nonzero mod q; only a frame of n + 1
    points leaves one, since below that every image is zero past the
    frame's rows.  Every other image is scaled by diag(u_j^-1), which fixes
    each e_k projectively, is invertible mod q and sends u to
    (1 : .. : 1)."""
    if x._frame is not None:
        return x._frame
    n, mults = x.n, x.mults
    order = sorted(range(len(mults)), key=lambda i: (-mults[i], i))
    rows = [[x.keys[i][j] % q for i in order] for j in range(n + 1)]
    frame = []
    for c in range(len(order)):
        r = len(frame)
        t = next((t for t in range(r, n + 1) if rows[t][c]), None)
        if t is None:
            continue
        rows[r], rows[t] = rows[t], rows[r]
        inv = pow(rows[r][c], -1, q)
        top = rows[r][c:] = [v * inv % q for v in rows[r][c:]]
        for row in rows:
            f = row[c]
            if f and row is not rows[r]:
                row[c:] = [(v - f * w) % q for v, w in zip(row[c:], top)]
        frame.append(c)
        if r == n:
            break
    for k, c in enumerate(frame):
        if any(row[c] != (t == k) for t, row in enumerate(rows)):
            raise InternalError("frame point %d is not sent to e_%d" % (order[c], k))
    others = [c for c in range(len(order)) if c not in frame]
    images = [tuple(row[c] for row in rows) for c in others]
    u = next((k for k, image in enumerate(images) if all(image)), None)
    unit = 0
    if u is not None:
        unit = mults[order[others.pop(u)]]
        scale = [pow(v, -1, q) for v in images.pop(u)]
        images = [tuple(v * w % q for v, w in zip(image, scale)) for image in images]
    heavy = tuple(mults[order[c]] for c in frame)
    x._frame = _Frame(heavy, sum(comb(n + m - 1, n) for m in heavy), unit, images,
                      [mults[order[c]] for c in others])
    return x._frame


@lru_cache(maxsize=None)
def _frame_columns(n, d, heavy):
    """The degree-d monomials with beta_k <= d - m_k for the k-th of the
    frame multiplicities ``heavy``, as a boolean mask: the columns where no
    frame point's row is nonzero."""
    import numpy as np

    exponents = np.array(_exponent_columns(n, d)[:len(heavy)], dtype=np.int64)
    return (exponents <= d - np.array(heavy)[:, None]).all(axis=0)


@lru_cache(maxsize=None)
def _unit_echelon(n, d, unit, heavy, q):
    """The unit point's rows in degree d on the frame's columns
    (``_frame_columns``), brought to reduced row echelon form mod q: they
    depend on the shape alone, n, d, the unit multiplicity and the frame
    multiplicities ``heavy``, and are reduced once per shape.

    Returns (pivots, off, limbs): the pivot columns and the others, as
    indices into the frame's columns, and the ``_split_limbs`` of the
    transpose of minus the echelon's rows on the columns off its pivots,
    which ``_frame_rank`` multiplies the other points' pivot entries by.
    With no unit point (``unit`` 0) the echelon is empty: no pivots, every
    column off them.  The arrays are read-only, as every caller shares
    them."""
    import numpy as np

    columns = _frame_columns(n, d, heavy)
    ech, pivots = np.zeros((0, int(columns.sum())), dtype=np.int64), []
    if unit:
        ech, pivots = _echelon_mod_p(_residue_rows(n, d, q, [(1,) * (n + 1)], [unit], columns), q)
        ech = _rref_mod_p(ech, pivots, q)[:len(pivots)]
    off = np.array(sorted(set(range(ech.shape[1])).difference(pivots)), dtype=np.int64)
    out = np.array(pivots, dtype=np.int64), off, _split_limbs(((q - ech[:, off]) % q).T)
    for a in out:
        a.setflags(write=False)
    return out


def _split_limbs(a):
    """The int64 array a of residues below 2^31 as its 16-bit limbs: the
    low ones stacked above the high ones, which are below 2^15."""
    import numpy as np

    return np.concatenate([a & 0xFFFF, a >> 16])


def _add_product_mod(c, limbs, b, q):
    """(c + a b) mod q for int64 arrays of residues mod a prime q < 2^31,
    a given as its ``_split_limbs``: one int64 product of the limbs by b.
    A low limb's row times a column of b sums k products below 2^47, and
    the high limbs' sums are reduced before they are shifted back, so every
    sum stays below 2^63 while b has k < 2^15 rows; both bounds are
    checked explicitly, so the check also runs under ``python -O``."""
    k = b.shape[0]
    if q >= 2**31 or k >= 2**15:
        raise ValueError("limb product overflows int64: %d rows modulo q = %d "
                         "(needs fewer than 2^15 rows and q < 2^31)" % (k, q))
    t = limbs @ b
    low, high = t[:len(t) // 2], t[len(t) // 2:]
    high %= q
    high <<= 16
    low += high
    low += c
    return _reduce(low, q)


def _frame_rank(x, d, q):
    """The rank mod q of the conditions matrix in degree d, taken in the
    coordinate frame of ``_frame``, or None where the gate refuses d: a
    frame multiplicity above d + 1, or two summing to more than d + 1.
    Past the gate each frame point's rows are unit columns of the tall
    matrix at monomials of their own, so the rank is their count, the
    frame's ``units``, plus the rank of the other points' rows on the
    other monomials (``_frame_columns``); the module docstring says why
    this is the rank of a projectively equivalent scheme.

    Of those rows, the unit point's are the same for every scheme of a
    shape, and their echelon comes from ``_unit_echelon``: the other
    points' rows are reduced against it by one ``_add_product_mod``, which
    clears them on its pivot columns, and only the columns off its pivots
    are eliminated.  The rank adds the echelon's pivot count.  With no unit
    point the echelon is empty and the reduction changes nothing."""
    heavy, units, unit, keys, mults = _frame(x, q)
    if sum(heavy[:2]) > d + 1:
        return None
    if not (keys or unit):
        return units  # a frame of every point needs no array, nor numpy
    pivots, off, limbs = _unit_echelon(x.n, d, unit, heavy, q)
    units += len(pivots)
    if not keys or not len(off):
        return units
    a = _conditions_residues(x, d, q, keys, mults, _frame_columns(x.n, d, heavy))
    # one row per frame column, whichever orientation the builder chose
    rest = a.T if a.shape[1] == len(pivots) + len(off) else a
    block = _add_product_mod(rest[off], limbs, rest[pivots], q)
    if block.shape[0] < block.shape[1]:
        block = block.T.copy()
    return units + len(_echelon_mod_p(block, q)[1])


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


def _reduced(images, u, p):
    """The vectors ``images`` (point index -> vector) after one
    fraction-free step by u, each ``_normalized``, those that vanish
    dropped: v becomes u_t v - v_t u at the first nonzero coordinate t of
    u.  That kills u and the coordinate t, so after steps by u_1, u_2, ..
    a point's image vanishes exactly when it lies in their span.  Over F_p
    u and v are reduced with leading entry 1, so a step that vanishes
    mod p gives v = u and vanishes outright."""
    t = next(k for k, c in enumerate(u) if c)
    out = {}
    for b, v in images.items():
        w = [u[t] * c - v[t] * e for c, e in zip(v, u)]
        if any(w):
            out[b] = _normalized(w, p)
    return out


def in_general_position(field, vectors, k):
    """Whether every set of at most k of ``vectors`` is linearly
    independent, decided by projective keys: no rank is queried.

    A dependent set of at most k vectors holds a circuit, and the last two
    members of a circuit, in index order, have equal images modulo the span
    of the others.  So for k >= 1 no vector may be zero, and for k >= 2 the
    keys, and for each set S of at most k - 2 vectors the images
    (``_reduced``) modulo span(S) of the vectors after S's last one, must be
    pairwise distinct (``_distinct_images``)."""
    vectors = [integer_vector(field, v) for v in vectors]
    if k < 1 or not all(map(any, vectors)):
        return k < 1  # only the empty set to check, or a zero vector
    return _distinct_images(dict(enumerate(_normalized(v, field.p) for v in vectors)), k - 2, field.p)


def _distinct_images(images, depth, p):
    """Whether the images are pairwise distinct (at depth >= 0) and, up to
    depth pivots deeper, so are those of the later points modulo each one,
    taken depth-first in index order; it stops at the first repeated image,
    and reduces nothing at depth 0.  Once a pivot has at most depth + 1
    later points, its branch has checked every set of them with it, and
    the later pivots' sets are among those, so they are skipped."""
    if depth >= 0 and len(set(images.values())) < len(images):
        return False
    items = list(images.items())
    for t, (_, u) in enumerate(items[:max(1, len(items) - depth - 1)] if depth > 0 else ()):
        if not _distinct_images(_reduced(dict(items[t + 1:]), u, p), depth - 1, p):
            return False
    return True


def flat_levels(x):
    """The flats of rank 2, 3, .. of X's support points, one list per rank
    up to the full rank; a flat is the set of support points in the span
    of some of them, given as a frozenset of their indices.  No rank is
    queried.

    A flat F is kept with the images of the points outside it modulo its
    span (``_reduced``, starting from the keys): two points q, q' lie in
    the same cover cl(F + q) exactly when their images are equal, so F's
    covers are the classes of equal images, and a cover's images are F's
    reduced by the class's image.  Every flat of rank r + 1 covers one of
    rank r, so the covers of each level give the next, each flat reached
    first by some parent keeping that parent's images.  A flat's images are
    built only when it is expanded.  The full rank is the number of steps
    that reduce the keys to nothing, and its level is the whole support, so
    hyperplanes are never expanded.  Each of those steps gives a flat with
    its images, the first flat of its level, and its expansion reads them
    instead of reducing again.  For a point a, the image of b is
    a_t b - b_t a, where the line through a and b meets x_t = 0.

    Each level is built only when the walk is taken past the previous one.
    A scheme keeps one walk (``support_levels``), which ``heaviest_line``
    takes to its first level and ``bounds.segre_bound`` to the end.
    """
    p = x.field.p
    keys = dict(enumerate(x.keys))
    images, chain = keys, {}  # the flats the full-rank steps pass, and their images
    while images:
        images = _reduced(images, next(iter(images.values())), p)
        chain[frozenset(keys).difference(images)] = images
    full = len(chain)
    level = {frozenset([i]): (keys, key) for i, key in keys.items()}
    for _ in range(2, full):
        covers = {}
        for flat, (parent, key) in level.items():
            images = chain.pop(flat, None) or _reduced(parent, key, p)
            classes = {}
            for b, v in images.items():
                classes.setdefault(v, []).append(b)
            for v, members in classes.items():
                covers.setdefault(flat.union(members), (images, v))
        yield list(covers)
        level = covers
    if full > 1:
        yield [frozenset(keys)]


def support_levels(x):
    """The levels of ``flat_levels(x)`` from the one walk the scheme keeps:
    the levels built so far are read back, and the walk is started on the
    first read and taken a level further only when a reader asks for it.
    A walk started with levels kept (``bounds.segre_bound`` keeps only the
    lines) goes on past them."""
    levels = x._levels
    if x._walk is None:
        x._walk = islice(flat_levels(x), len(levels), None)
    for k in count():
        if k == len(levels):
            level = next(x._walk, None)
            if level is None:
                return
            levels.append(level)
        yield levels[k]


def heaviest_line(x):
    """The indices, in order, of the support points on a heaviest line L:
    one whose points have the largest total multiplicity w_L, the first
    such by its smallest member, then its next one.

    w_L - 1 is a lower bound for r(X), at least max m_i - 1, and L's own
    Segre value: the points on L form a subscheme of X, which meets L in a
    scheme of degree w_L on a P^1, and that needs degree w_L - 1.  The
    lines are the rank-2 level of the scheme's walk (``support_levels``),
    the only level read here, so the walk goes no further and the Segre
    bound later continues it; a single point is on a line by itself.
    """
    mults = x.mults
    lines = sorted(map(sorted, next(support_levels(x), [frozenset([0])])))
    return max(lines, key=lambda line: sum(mults[i] for i in line))


def hilbert_function(x, d):
    """h_X(d) = dim [R/I_X]_d = rank of the conditions matrix, and deg X
    from a certified r(X) on.  Only certified values are cached; after
    ``regularity_index`` they include h_X(r), and h_X(r - 1) where the climb
    or its step-down ranked it: below the lower bound the climb starts
    from, the deficiency is proven and nothing is ranked.  A value that is
    not cached is read off residues (``_rank_bound``), or during the
    step-down off the reduction the climb left pending for that degree, and
    a deficient rank over Q is certified on exact rows from that
    reduction."""
    h = x._hilbert_cache.get(d)
    if h is None:
        if x._reg is not None and d >= x._reg:
            return x.degree()
        pending = x._pending
        h, first = pending[1:] if pending and pending[0] == d else _rank_bound(x, d)
        if first is not None:
            h = conditions_matrix(x, d).rank(first=first)
        x._hilbert_cache[d] = h
    return h


def _rank_bound(x, d):
    """(r, first) for the conditions matrix in degree d: its rank r, or
    over Q a deficient rank mod q and ``first``, the echelon a certificate
    on exact rows starts from.  Residues are taken modulo q =
    ``certificate_prime(0)`` over Q and modulo p over F_p.

    The degree is checked first (``_check_degree``), then ranked in the
    coordinate frame (``_frame_rank``): over F_p that rank is h_X(d), and
    over Q a full one is, since the frame ranks a conditions matrix of a
    projectively equivalent scheme mod q.  Over Q, where a deficient frame
    rank is followed by the whole matrix, the frame is taken only where it
    can pay: where a full rank is possible, from the monomial floor on and
    before r(X) is certified (every degree ranked after lies below it),
    and where the frame sets aside at least as many conditions as it
    leaves to eliminate, units >= deg X - units, so that an attempt found
    deficient costs no more pivots than a full one saves.  Where the frame
    is not taken, its gate refuses d or its rank over Q is deficient, the
    whole matrix's residues are brought to an echelon form and no further:
    its pivot count is the rank, and over Q, if deficient, the echelon is
    ``first``, so a certificate starts from this reduction.  Matrices below
    ``_NUMPY_MIN_CELLS`` cells, those over F_p with p >= 2^31 and negative
    degrees, whose exact rows raise the error, are ranked on exact rows
    instead."""
    q = certificate_prime(0) if x.field.p is None else x.field.p
    deg = x.degree()
    if d < 0 or q >= 2**31 or deg * comb(x.n + d, x.n) < _NUMPY_MIN_CELLS:
        return conditions_matrix(x, d).rank(), None
    _check_degree(x, d)
    if x.field.p is not None or (x._reg is None and deg <= comb(x.n + d, x.n)
                                 and 2 * _frame(x, q).units >= deg):
        r = _frame_rank(x, d, q)
        if r is not None and (x.field.p is not None or r == deg):
            return r, None
    ech, pivots = _echelon_mod_p(_conditions_residues(x, d, q), q)
    if x.field.p is not None or len(pivots) == ech.shape[1]:
        return len(pivots), None
    return len(pivots), (ech, pivots)


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

    The second fact comes from a proven lower bound: the monomial floor,
    the first degree with at least deg X monomials, or, larger, w_L - 1 for
    the line L of ``heaviest_line``.  The line is a witness, not a number:
    its members' keys are ranked exactly, and more than a line
    (rank above 2) is an ``InternalError``, so the check also runs under
    ``python -O``.  The line search, O(n) integer steps for each ordered
    pair of support points, runs only when s(s - 1)/2 is at most deg X,
    the row count of every conditions matrix the search builds, which
    keeps it a small part of building even one of them; otherwise (many
    light points) the bound is the floor.

    The search climbs from the bound, one degree at a time, ranked by
    ``_rank_bound``: first in the coordinate frame, where heavy independent
    support points are unit columns and only the other points' rows are
    eliminated, then, where the frame's gate refuses the degree or its rank
    over Q is deficient, on the whole matrix.  Both rank a conditions
    matrix of X or of a projectively equivalent scheme modulo a prime, and
    h_X does not change under an invertible change of coordinates, so a
    full rank modulo a prime is full over Q, and the rank over F_p is
    exact.  Only those values are cached.  At the first full
    degree d, if d is above the bound, h_X(d - 1) is certified, and the
    search steps down while that is full too, which only an unlucky prime,
    one that lost rank at r and took the climb past it, can cause.  The
    climb leaves its last deficient reduction over Q pending, so the first
    step down (``hilbert_function``) certifies h_X(d - 1) on exact rows
    from it, and only a further step builds and reduces its degree again.
    A degree already in the scheme's cache of certified values is read from
    there, not built.  Over F_p the start is capped at p - 1, so a field
    too small for r(X) is reported at the degree where an ascending search
    meets it first.  The climb must end by d = deg X - 1, the classical bound;
    exceeding it is an internal error.
    """
    if x._reg is None:
        deg = x.degree()
        floor = 0  # the first degree with at least deg X monomials
        while comb(x.n + floor, x.n) < deg:
            floor += 1
        lower = floor
        s = x.support_size
        if s * (s - 1) // 2 <= deg:
            line = heaviest_line(x)
            if ExactMatrix.from_integer_rows(x.field, [x.keys[i] for i in line]).rank() > 2:
                raise InternalError("the heaviest line's points %r span more than a line" % line)
            lower = max(floor, sum(x.mults[i] for i in line) - 1)
        p = x.field.p
        d = lower if p is None else max(floor, min(lower, p - 1))
        cache = x._hilbert_cache
        while True:
            if d in cache:
                h = cache[d]
            else:
                h, first = _rank_bound(x, d)
                if first is None:
                    cache[d] = h
                else:
                    x._pending = (d, h, first)
            if h == deg:
                break
            d += 1
            if d > max(0, deg - 1):
                raise InternalError("regularity search exceeded deg X - 1")
        while d > lower and hilbert_function(x, d - 1) == deg:
            d -= 1
        x._pending = None
        x._reg = d
    return x._reg


def subscheme(x, new_mults):
    """The fat point subscheme with multiplicities reduced pointwise;
    points reduced to 0 are dropped."""
    if len(new_mults) != x.support_size:
        raise ValueError("need one multiplicity per point")
    for mult, nm in zip(x.mults, new_mults):
        if not (isinstance(nm, int) and 0 <= nm <= mult):
            raise ValueError("new multiplicity must satisfy 0 <= new <= old")
    return x._part(new_mults)


class CtvVerdict(namedtuple("CtvVerdict",
                            "ok reg_index formula_value point_term subscheme_term quotient_term")):
    __slots__ = ()


def ctv_decomposition_check(z, p_coords, m):
    """Check r(Z + mP) = max{m-1, r(Z), 1 + reg(R/(I_Z + I_P^m))}.

    Since I_{Z+mP} = I_Z meet I_P^m, the exact sequence
    0 -> R/I_{Z+mP} -> R/I_Z + R/I_P^m -> R/(I_Z + I_P^m) -> 0 gives the
    quotient in degree j the dimension h_Z(j) + h_mP(j) - h_{Z+mP}(j), with
    h_mP(j) = binom(n + min(j, m-1), n).  The quotient vanishes from some
    degree on (and then forever, since the ideal contains that full graded
    piece), at the latest at r(Z + mP), where h_{Z+mP} reaches
    deg Z + deg mP.  The Hilbert values come from ``hilbert_function``:
    from the caches the two regularity searches filled where they ranked a
    degree, and ranked here, deficient ones certified, below the lower
    bounds those searches started from.  So this is a consistency check of
    the ranks of the conditions matrices of Z and Z + mP.
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


class VeroneseVerdict(namedtuple("VeroneseVerdict",
                                 "ok reg_index lifted_reg_index ratio equality_case closed_form",
                                 defaults=(None,))):
    __slots__ = ()


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
