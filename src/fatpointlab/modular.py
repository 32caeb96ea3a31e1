"""Arithmetic modulo a prime: the numpy elimination mod p, the limb product,
and the certificate of a rank and kernel over Q from primes below 2^31.

One bound decides which residues the arrays carry exactly, ``_INT64_BOUND``
(2^31): for a prime q below it, products of two residues mod q fit in
int64, so a row operation mod q is one numpy call on an int64 array, and
the limb product's float64 sums of a chunk stay below 2^53.  The primes of
the certificate are the primes below it, and the conditions matrix of a
prime field at or above it is ranked on its exact rows.

Elimination mod p runs in numpy (``_echelon_mod_p``: int64 below
``_INT64_BOUND``, Python ints from there).  It stops at a row echelon form,
whose pivot count is the rank over F_p and, over Q, the first step of the
certificate below; only a kernel reads the reduced form, which
``_rref_mod_p`` back-substitutes on the same array.  ``_echelon_mod_p``
also takes a numpy array of residues as it is, so a caller that builds its
matrix mod p skips the integer rows.  ``exact._rank_of_rows`` calls it from
``exact._NUMPY_MIN_CELLS`` cells on; below that, the fraction-free echelon
of ``exact`` ranks a matrix in pure Python.

``_echelon_kernel`` gives the pivot columns and the kernel basis of the
reduced echelon form, the one ``ExactMatrix.kernel_basis`` returns at every
size: over F_p read off ``_rref_mod_p``, over Q certified from modular
data.  From ``exact._NUMPY_MIN_CELLS`` cells on it is also the one route of
the rank over Q, on the matrix's tall side, so the kernel to certify has
ncols - r vectors:

1. the rank r modulo a 31-bit prime is a lower bound for the rank over Q
   (a nonsingular minor mod p is nonsingular over Q), so a matrix of full
   rank mod p is done;
2. otherwise the kernel is computed modulo the primes below 2^31 in
   descending order (``certificate_prime``), combined by the Chinese
   remainder theorem and lifted to Q by rational reconstruction (Wang
   1981; Monagan, ISSAC 2004);
3. the lifted vectors are accepted only if each one is annihilated exactly
   over Z.  They carry the unit pattern of the reduced echelon form on the
   free columns, so they are independent, and ncols - r independent kernel
   vectors bound the rank over Q above by r.  Each vector is 0 at the
   pivots after its free column, so that column depends on the earlier
   ones: the pivots are those over Q, and the vectors the reduced echelon
   kernel basis.

The Hadamard bound on the minors gives a count of primes that must
certify (see ``_echelon_kernel``), so the certificate ends without a
fallback.  Every certificate starts from the rows themselves: step 1 is
its first prime's elimination.

The coordinate frame of ``schemes`` reduces its block of conditions
against the unit point's echelon with one product on 16-bit limbs
(``_split_limbs``, ``_add_product_mod``), in float64, which carries its
sums exactly below 2^53.  This is the one place that computes in floating
point.

numpy is imported inside the functions that use it, so importing this
module loads no numpy.
"""

from __future__ import annotations

from itertools import compress, count
from math import isqrt, lcm
from operator import mul

from .exact import InternalError, is_prime

# The int64 bound: residues mod a prime below it multiply to less than 2^62,
# which int64 carries, and their 16-bit limbs' chunk sums stay below 2^53.
_INT64_BOUND = 2**31

_PRIMES = [_INT64_BOUND - 1]     # the cache of ``certificate_prime``


def certificate_prime(k):
    """The k-th prime below 2^31, largest first (k = 0 gives 2^31 - 1), found
    by ``is_prime`` on descending odd numbers and cached.  Products of two
    residues fit in int64, so numpy row operations mod it are exact."""
    while len(_PRIMES) <= k:
        _PRIMES.append(next(q for q in range(_PRIMES[-1] - 2, 2, -2) if is_prime(q)))
    return _PRIMES[k]


def _echelon_kernel(rows, p=None):
    """(pivots, basis) of nonempty integer rows: the pivot columns of their
    reduced row echelon form and, for each free column f in order, the
    vector of ``ExactMatrix.kernel_basis`` times the positive integer at f
    that makes it integral (1 over F_p, ``p`` given).

    Each prime's ``_echelon_mod_p`` of the rows ends the search where
    every column is a pivot; otherwise ``_rref_mod_p`` back-substitutes it
    in place.  Over F_p both are read off that reduced form.  Over Q the
    kernel vectors modulo the primes of ``certificate_prime`` in turn are
    combined, lifted and checked exactly over Z, as the module describes.
    The primes of largest rank and, at that rank, earliest pivots are
    combined; the others are unlucky.  The lift is tried after every
    combined prime among the first 16, and past them only once the count
    of combined primes has grown by a quarter since the last lift, so the
    primes eliminated overshoot the count a lift needs by less than a
    quarter, or once their product is at least 2^(2H + 1), where 2^H
    bounds every minor (Hadamard).  There the primes cannot all be unlucky, since unlucky primes divide one
    nonzero minor, and every kernel entry, a ratio of two minors, is
    reconstructed: a failed lift there is an ``InternalError``."""
    import numpy as np

    ncols = len(rows[0])
    best = None
    for k in count():
        q = p or certificate_prime(k)
        if k == 16:
            # 2^H bounds every minor (Hadamard): it exceeds the product of
            # the norms of the nonzero rows, and that of the columns
            hadamard = min(sum(sum(x * x for x in v).bit_length() for v in vs)
                           for vs in (rows, zip(*rows))) // 2 + 1
        red, pivots = _echelon_mod_p(rows, q)
        r = len(pivots)
        if r == ncols:
            return pivots, []
        _rref_mod_p(red, pivots, q)
        free = sorted(set(range(ncols)).difference(pivots))
        vectors = np.zeros((len(free), ncols), dtype=red.dtype)
        vectors[:, pivots] = -red[:r][:, free].T % q
        vectors[range(len(free)), free] = 1
        if p is not None:
            return pivots, vectors.tolist()
        if best is None or (r, best) > (len(best), pivots):
            best, lifts, modulus, combined, tried = pivots, vectors.tolist(), q, 1, 0
        elif pivots != best:
            continue
        else:
            # Chinese remaindering: x = a mod modulus and x = b mod q
            inv = pow(modulus, -1, q)
            lifts = [[a + modulus * ((b - a) * inv % q) for a, b in zip(la, lb)]
                     for la, lb in zip(lifts, vectors.tolist())]
            modulus, combined = modulus * q, combined + 1
        enough = k >= 16 and modulus.bit_length() > 2 * hadamard + 1
        if k >= 16 and not enough and 4 * combined < 5 * tried:
            continue
        tried = combined
        basis = _lift(rows, lifts, modulus)
        if basis is not None:
            return pivots, basis
        if enough:
            raise InternalError("no kernel certificate from as many primes as the Hadamard bound needs")


def _rational_reconstruction(u, m):
    """The a/b = u mod m with |a|, b <= sqrt(m/2) (Wang), as (a, b), or None."""
    bound = isqrt(m // 2)
    r0, r1 = m, u % m
    t0, t1 = 0, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1 = r1, r0 - q * r1
        t0, t1 = t1, t0 - q * t1
    if t1 == 0 or abs(t1) > bound:
        return None
    return (r1, t1) if t1 > 0 else (-r1, -t1)


def _lift(rows, lifts, modulus):
    """The vectors with these residues modulo ``modulus``, lifted to Q by
    rational reconstruction and scaled by the lcm of their denominators,
    or None if one fails to lift or to annihilate the rows exactly."""
    basis = []
    for values in lifts:
        fracs = []
        for u in values:
            ab = _rational_reconstruction(u, modulus)
            if ab is None:
                return None
            fracs.append(ab)
        den = lcm(*(b for _, b in fracs))
        v = [a * (den // b) for a, b in fracs]
        support = [x for x in v if x]
        if any(sum(map(mul, compress(row, v), support)) for row in rows):
            return None
        basis.append(v)
    return basis


def _echelon_mod_p(rows, p):
    """Row echelon form mod p of an integer matrix and its pivot columns,
    the one elimination of numpy size: each pivot row is scaled to 1 at
    its pivot, and only the rows below it with a nonzero entry in its
    column are reduced, so every row past the rank ends zero.  The rank is
    the pivot count, and ``_rref_mod_p`` back-substitutes on the same
    array where a reduced form is read.

    The array is int64 when p < 2^31, so products of residues fit, Python
    ints in a ``dtype=object`` array from 2^31 on.  A numpy array of
    residues in range(p) is taken as it is and reduced in place, an int64
    one only for p < 2^31 (ValueError otherwise, as it would overflow);
    other rows are reduced mod p entry by entry first.  Ranks below
    ``_NUMPY_MIN_CELLS`` cells take the fraction-free echelon, so this runs
    on matrices of that size, on the residue arrays of the regularity
    climb, and for ``_echelon_kernel`` at every size."""
    import numpy as np

    if not isinstance(rows, np.ndarray):
        a = np.array([[x % p for x in row] for row in rows],
                     dtype=np.int64 if p < _INT64_BOUND else object)
    elif rows.dtype == np.int64 and p >= _INT64_BOUND:
        raise ValueError("int64 residues overflow modulo p = %d >= 2^31" % p)
    else:
        a = rows
    nrows, ncols = a.shape
    pivots = []
    for c in range(ncols):
        r = len(pivots)
        if r == nrows:
            break
        (nz,) = a[r:, c].nonzero()
        if not nz.size:
            continue
        if nz[0]:
            a[[r, r + nz[0]]] = a[[r + nz[0], r]]
        top = a[r, c:]
        top *= pow(int(top[0]), -1, p)
        top %= p
        # the row swapped down was zero in column c, so the rows to reduce
        # are those of the later nonzero entries
        if nz.size > 1:
            hit = nz[1:] + r
            block = a[hit, c:]
            block -= block[:, :1] * top
            block %= p
            a[hit, c:] = block
        pivots.append(c)
    return a, pivots


def _rref_mod_p(a, pivots, p):
    """The reduced row echelon form mod p of ``_echelon_mod_p``'s echelon
    ``a`` with these pivots, by back-substitution in place: from the last
    pivot up, the rows above it with a nonzero entry in its column are
    reduced by its row, which is zero at every later pivot.  Returns a."""
    for i in range(len(pivots) - 1, 0, -1):
        c = pivots[i]
        (hit,) = a[:i, c].nonzero()
        if hit.size:
            block = a[hit, c:]
            block -= block[:, :1] * a[i, c:]
            block %= p
            a[hit, c:] = block
    return a


def _reduce(c, q):
    """The int64 array c >= 0 reduced mod q in place, as c - c // q * q:
    the values of c % q, but numpy's floor division by a scalar multiplies
    where its % divides in hardware, entry by entry."""
    c -= c // q * q
    return c


def _split_limbs(a):
    """The int64 array a of residues below 2^31 as its 16-bit limbs, in
    float64: the low ones stacked above the high ones, which are below
    2^15."""
    import numpy as np

    return np.concatenate([a & 0xFFFF, a >> 16]).astype(np.float64)


def _add_product_mod(c, limbs, b, q):
    """(c + a b) mod q for int64 arrays of residues mod a prime q < 2^31,
    a given as its ``_split_limbs``: float64 products of the limbs by b,
    in chunks of k rows of b with k 2^16 q < 2^53 (64 rows for q near
    2^31).  Each sum of a chunk is an integer below 2^53, which float64
    carries exactly; the sums are reduced mod q between chunks, and the
    high limbs' before they are shifted back.  The bound on q is checked
    explicitly, so the check also runs under ``python -O``.  This is the
    one place that computes in floating point."""
    import numpy as np

    if q >= _INT64_BOUND:
        raise ValueError("limb product modulo q = %d is not exact in float64: chunks of "
                         "k >= 64 rows need k * 2^16 * q < 2^53, so q < 2^31" % q)
    k = (2**53 - 1) // (q << 16)
    b = b.astype(np.float64)
    t = (limbs[:, :k] @ b[:k]).astype(np.int64)
    for s in range(k, len(b), k):
        _reduce(t, q)
        t += (limbs[:, s:s + k] @ b[s:s + k]).astype(np.int64)
    low, high = t[:len(t) // 2], t[len(t) // 2:]
    high %= q
    high <<= 16
    low += high
    low += c
    return _reduce(low, q)
