"""Exact scalar arithmetic and dense exact linear algebra.

Two coefficient fields are supported: the rationals (via
``fractions.Fraction``) and prime fields F_p (elements stored as ints in
``range(p)``).  All computations are exact.  Floating point appears in
one place only, ``modular._add_product_mod``, where float64 carries exact
integer products below 2^53 and that bound is checked explicitly.

Field elements (``ScalarField.elem``) appear where input is parsed, and
the library computes with them in one place only:
``bounds.separating_hypersurface``, with its ``_poly_mul_linear`` and
``_poly_eval``, multiplies kernel vectors of ``kernel_basis``
(``Fraction``s over Q) by each other and by a point's coordinates; its
re-check hands the product's coefficients to ``mul_vector``.  Everything
else is integer arithmetic.  Rationals are cleared to integers in one
place, ``integer_vector``: over Q a vector is scaled by the lcm of its
denominators, over F_p it becomes its residues.  A matrix keeps integer
rows and nothing else.  Its constructor clears each row, which changes
neither the rank nor the right kernel; ``from_columns`` clears each column,
which keeps the matroid of the columns.  So every rank works on the integer
rows directly, and ``entries``, ``column`` and ``mul_vector`` hand back
integers.

The library has three eliminations.  Two of them rank a matrix, with one
size split between them for both fields, ``_NUMPY_MIN_CELLS``.  Below it,
fraction-free (Bareiss 1968) elimination, ``_bareiss_echelon`` in this
module, gives the exact rank: over Q on the integer rows, over F_p on
their residues.  On matrices this small it costs less than numpy's
per-call overhead or any modular certificate.  From it on, the rank is
taken in ``modular``: over F_p the pivot count of numpy's elimination mod
p, ``modular._echelon_mod_p``, and over Q the rank certified from primes
below 2^31 by ``modular._echelon_kernel``, on ``_tall`` of the rows, so
the kernel to certify is the smaller one.  ``kernel_basis`` reads
``_echelon_kernel`` at every size.  ``_rank_of_rows`` picks the route for
every rank, also for the column subsets a vector matroid asks about.  The
third elimination, ``schemes._frame``, is a pure-Python Gauss-Jordan
elimination mod q on the n + 1 rows of a scheme's point keys, which sends
a heaviest independent set of support points to the coordinate points.

This module imports neither numpy nor ``modular`` at load time.  It
reaches ``modular`` only on a rank of ``_NUMPY_MIN_CELLS`` cells or more
and in ``kernel_basis``, so a process that ranks only smaller matrices and
builds no scheme, such as ``partition`` on a vectors file, loads neither.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from operator import mul

# The one size split of exact rank, over Q and F_p.  Matrices with fewer
# cells take the fraction-free echelon; larger ones numpy's elimination mod p
# (over Q inside the modular certificate).  numpy's per-call overhead
# dominates below: on a 2-vCPU Xeon VM pure Python mod p was faster up to
# 6 x 8 (144 vs 181 us), numpy from 8 x 10 (206 vs 297 us).  numpy is
# imported on the first elimination of this size or kernel basis, so
# partition commands and small ``verify`` runs never load it.
_NUMPY_MIN_CELLS = 64

# The first twelve primes are a deterministic Miller-Rabin base below this
# bound (Sorenson and Webster 2015); at or above it the test is unproven.
PRIMALITY_BOUND = 3317044064679887385961981
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


class InternalError(AssertionError):
    """A certificate, witness or proven identity failed its re-check: a bug,
    not bad input.

    Raised explicitly, so the re-checks also run under ``python -O``."""


class GuardExceeded(ValueError):
    """An input is larger than a size guard (a ``*_GUARD`` constant) of an
    exhaustive enumeration or a conditions matrix: the question was not
    answered, and nothing failed."""


def is_prime(n):
    """Deterministic Miller-Rabin for n < PRIMALITY_BOUND; ValueError above."""
    if n >= PRIMALITY_BOUND:
        raise ValueError("primality is only certified below %d" % PRIMALITY_BOUND)
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class ScalarField:
    """The coefficient field: the rationals or a prime field F_p."""

    def __init__(self, p=None):
        if p is None:
            self.p = None
        else:
            if not is_prime(p):
                raise ValueError("PrimeField characteristic must be prime: %r" % (p,))
            self.p = p

    @classmethod
    def rational(cls):
        return cls()

    @classmethod
    def prime(cls, p):
        return cls(p)

    @property
    def is_rational(self):
        return self.p is None

    def __eq__(self, other):
        return isinstance(other, ScalarField) and self.p == other.p

    def __hash__(self):
        return hash(("ScalarField", self.p))

    def __repr__(self):
        return "ScalarField.rational()" if self.p is None else "ScalarField.prime(%d)" % self.p

    # -- element construction ------------------------------------------------

    def elem(self, x):
        """Coerce an int, Fraction, or 'a/b' string into a field element."""
        if isinstance(x, str):
            x = Fraction(x)
        if self.p is None:
            return Fraction(x)
        if isinstance(x, Fraction):
            if x.denominator % self.p == 0:
                raise ZeroDivisionError("denominator divisible by %d" % self.p)
            return x.numerator * pow(x.denominator, -1, self.p) % self.p
        return int(x) % self.p

    def zero(self):
        return Fraction(0) if self.p is None else 0

    def one(self):
        return Fraction(1) if self.p is None else 1


def integer_vector(field, values):
    """The values cleared to integers, as a tuple.

    Over Q they are scaled by the lcm of their denominators, a positive
    multiple, and ints and Fractions pass through as they are (only other
    values, such as 'a/b' strings, go through ``field.elem``); over F_p they
    become their residues in range(p)."""
    if field.p is not None:
        return tuple(map(field.elem, values))
    vals = [v if type(v) is int or type(v) is Fraction else field.elem(v) for v in values]
    den = lcm(*(v.denominator for v in vals))
    return tuple(v.numerator * (den // v.denominator) for v in vals)


class ExactMatrix:
    """A dense matrix over a ScalarField, immutable after construction.

    It holds integer rows only (over F_p, residues): ``entries`` gives them,
    ``column(j)`` the integer column, and ``mul_vector`` their product with
    a vector, zero exactly where the product with the given rows is.
    """

    def __init__(self, field, rows):
        self._init(field, [integer_vector(field, row) for row in rows])

    @classmethod
    def from_integer_rows(cls, field, rows):
        """The matrix of integer rows (over F_p, of residues in range(p)),
        taken as they are."""
        m = cls.__new__(cls)
        m._init(field, [tuple(row) for row in rows])
        return m

    def _init(self, field, rows):
        self.field = field
        self._rows = tuple(rows)
        self.nrows = len(self._rows)
        self.ncols = len(self._rows[0]) if self._rows else 0
        if any(len(row) != self.ncols for row in self._rows):
            raise ValueError("ragged rows")
        self._rank = None
        self._cols = None             # column tuples, see _columns

    @classmethod
    def from_columns(cls, field, columns):
        """The matrix with these columns, each cleared on its own: over Q
        every column is a positive multiple of the given one."""
        cols = [integer_vector(field, c) for c in columns]
        if not cols:
            raise ValueError("need at least one column")
        if not cols[0] or any(len(c) != len(cols[0]) for c in cols):
            raise ValueError("columns must be nonempty and of equal length")
        m = cls(field, list(zip(*cols)))
        m._cols = tuple(cols)
        return m

    def __repr__(self):
        return "ExactMatrix(%d x %d over %r)" % (self.nrows, self.ncols, self.field)

    @property
    def entries(self):
        return self._rows

    def _columns(self):
        if self._cols is None:
            self._cols = tuple(zip(*self._rows))
        return self._cols

    def column(self, j):
        return self._columns()[j]

    def mul_vector(self, v):
        p = self.field.p
        out = [sum(map(mul, row, v)) for row in self._rows]
        return tuple(out) if p is None else tuple(x % p for x in out)

    # -- rank ----------------------------------------------------------------

    def rank(self):
        """The rank, computed once, by the route ``_rank_of_rows`` picks:
        over Q from numpy size on, the certificate on ``_tall`` of the
        rows."""
        if self._rank is None:
            if not self.nrows or not self.ncols:
                self._rank = 0
            else:
                self._rank = _rank_of_rows(self._rows, self.field.p)
        return self._rank

    def rank_of_column_subset(self, cols):
        """Rank of the chosen columns, as the rank of the rows they form:
        no matrix is built per query."""
        cols = sorted(cols)
        if not cols:
            return 0
        for j in cols:
            if not (0 <= j < self.ncols):
                raise IndexError("column index out of range: %r" % (j,))
        columns = self._columns()
        return _rank_of_rows([columns[j] for j in cols], self.field.p)

    def kernel_basis(self):
        """Basis of the right kernel, one vector per free column of the
        reduced row echelon form: 1 there, 0 at the other free columns and
        the negated echelon entries at the pivot columns, as ``Fraction``s
        over Q and ``int``s over F_p.  ``_echelon_kernel`` gives them."""
        if self.ncols == 0:
            return []
        from .modular import _echelon_kernel

        pivots, basis = _echelon_kernel(self._rows, self.field.p)
        if self.field.p is not None:
            return [tuple(v) for v in basis]
        free = (j for j in range(self.ncols) if j not in pivots)
        return [tuple(Fraction(x, v[f]) for x in v) for f, v in zip(free, basis)]


def _rank_of_rows(rows, p):
    """Rank of nonempty integer rows by the route the size and field pick:
    the fraction-free echelon below ``_NUMPY_MIN_CELLS`` cells (over F_p,
    ``p`` given, mod p); from there over F_p the pivot count of
    ``_echelon_mod_p``, over Q that of ``_echelon_kernel`` on ``_tall`` of
    the rows."""
    if len(rows) * len(rows[0]) < _NUMPY_MIN_CELLS:
        return len(_bareiss_echelon(rows, p)[1])
    from .modular import _echelon_kernel, _echelon_mod_p

    if p is not None:
        return len(_echelon_mod_p(rows, p)[1])
    return len(_echelon_kernel(_tall(rows))[0])


def _tall(rows):
    """The rows, or their transpose if it has more rows."""
    return list(zip(*rows)) if len(rows) < len(rows[0]) else rows


def _bareiss_echelon(int_rows, p=None):
    """Fraction-free (Bareiss 1968) row echelon form of nonempty integer
    rows: (the rows, echelon first and zero below, their pivot columns).

    Over Q every division is exact, so the rows stay integers with the row
    space of the given ones; over F_p (``p`` given) the rows are reduced mod
    p and no division is needed, since each step only scales a row by the
    unit pivot before subtracting.  The rank is the number of pivots."""
    if p is None:
        m = [list(row) for row in int_rows]
    else:
        m = [[x % p for x in row] for row in int_rows]
    nrows = len(m)
    ncols = len(m[0])
    prev = 1
    pivots = []
    for c in range(ncols):
        r = len(pivots)
        if r == nrows:
            break
        piv = None
        for i in range(r, nrows):
            if m[i][c]:
                piv = i
                break
        if piv is None:
            continue
        if piv != r:
            m[r], m[piv] = m[piv], m[r]
        pr = m[r]
        pv = pr[c]
        for i in range(r + 1, nrows):
            ri = m[i]
            vi = ri[c]
            if vi:
                if p is None:
                    for j in range(c + 1, ncols):
                        ri[j] = (pv * ri[j] - vi * pr[j]) // prev
                else:
                    for j in range(c + 1, ncols):
                        ri[j] = (pv * ri[j] - vi * pr[j]) % p
                ri[c] = 0
            elif p is None:
                for j in range(c + 1, ncols):
                    ri[j] = (pv * ri[j]) // prev
        prev = pv
        pivots.append(c)
    return m, pivots
