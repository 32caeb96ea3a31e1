"""Seeded, reproducible instance generators.

All randomness flows through ``random.Random(seed)``; genericity is never
assumed, it is certified post hoc by keys (``schemes.in_general_position``,
no rank queried), with a bounded number of resampling attempts.  When they
run out, ``ValueError`` is raised: the parameters ask for more than the
sampler can certify.  A draw too large to test in seconds is refused before
it starts (``MAX_GENERIC_SETS``).
"""

from __future__ import annotations

import random
from math import comb

from .exact import ExactMatrix, ScalarField
from .matroid import VectorMatroid
from .schemes import FatPointScheme, _point_key, in_general_position

MAX_RESAMPLE_ATTEMPTS = 200
# Rounds of generic_points after the given coordinate range, each at ten
# times the range of the one before.
_RANGE_WIDENINGS = 2
# The most sets of n + 1 points, binom(s, n + 1) for s points of P^n, that
# five_plus_generic_scheme's draw may leave to the general-position test.
# The test's work grows with that count, not with s alone: 378 points of
# P^2, 120 of P^3 and 56 of P^4 (3.4M to 8.2M sets) each took 2-4 s.
MAX_GENERIC_SETS = 10**7


def rng_from_seed(seed):
    return random.Random(seed)


def random_points(rng, n, s, coord_range=9, field=None):
    """s pairwise distinct projective points with small integer coordinates."""
    field = field or ScalarField.rational()
    points = []
    keys = set()
    attempts = 0
    while len(points) < s:
        attempts += 1
        if attempts > 100 * s + MAX_RESAMPLE_ATTEMPTS:
            raise ValueError("failed to sample distinct points")
        cand = tuple(field.elem(rng.randint(0, coord_range)) for _ in range(n + 1))
        if all(c == field.zero() for c in cand):
            continue
        key = _point_key(field, cand)
        if key in keys:
            continue
        keys.add(key)
        points.append(cand)
    return points


def generic_points(rng, n, s, coord_range=9, field=None):
    """Points certified to be in linearly general position: every subset of
    at most n+1 points spans a subspace of maximal dimension.

    Coordinates are drawn from 0..coord_range.  If no draw certifies after
    ``MAX_RESAMPLE_ATTEMPTS``, or the range has too few points, the range
    grows tenfold (by default 0..9, then 0..99, then 0..999)."""
    if n < 1:
        raise ValueError("generic_points needs n >= 1, got n = %d" % n)
    if s < 1:
        raise ValueError("generic_points needs s >= 1 points, got s = %d" % s)
    field = field or ScalarField.rational()
    for _ in range(_RANGE_WIDENINGS + 1):
        for _ in range(MAX_RESAMPLE_ATTEMPTS):
            try:
                pts = random_points(rng, n, s, coord_range=coord_range, field=field)
            except ValueError:  # fewer than s distinct points drawn at this range
                break
            if in_general_position(field, pts, n + 1):
                return pts
        coord_range = 10 * (coord_range + 1) - 1
    raise ValueError("could not certify linearly general position after retries")


def collinear_points(n, s, field=None):
    """s simple points (1 : t : 0 : ... : 0), t = 0..s-1, on a line; over
    F_p the t are residues, so there are at most p of them."""
    if s < 0:
        raise ValueError("collinear_points needs s >= 0, got s = %d" % s)
    field = field or ScalarField.rational()
    if field.p is not None and s > field.p:
        raise ValueError("collinear_points needs s <= p over F_p, got s = %d > p = %d" % (s, field.p))
    pts = []
    for t in range(s):
        coords = [field.elem(1), field.elem(t)] + [field.zero()] * (n - 1)
        pts.append(tuple(coords))
    return pts


def collinear_cluster_points(rng, n, s, extra, field=None):
    """``collinear_points(n, s)`` plus ``extra`` random points off that line:
    the first ones of a pool of s + extra random points, then more draws
    only if the pool runs short.  Off the line means a nonzero coordinate
    past index 1, so no extra point is proportional to one on the line."""
    if extra < 0:
        raise ValueError("collinear_cluster_points needs extra >= 0, got extra = %d" % extra)
    field = field or ScalarField.rational()

    def off_line(p):
        return any(c != field.zero() for c in p[2:])

    pool = random_points(rng, n, s + extra, field=field) if extra else []
    points = [p for p in pool if off_line(p)][:extra]
    keys = {_point_key(field, p) for p in points}
    draws = 0
    while len(points) < extra:
        draws += 1
        if draws > MAX_RESAMPLE_ATTEMPTS:
            raise ValueError("could not place %d distinct points off the line" % extra)
        (cand,) = random_points(rng, n, 1, field=field)
        key = _point_key(field, cand)
        if off_line(cand) and key not in keys:
            keys.add(key)
            points.append(cand)
    return collinear_points(n, s, field=field) + points


def rational_normal_curve_points(n, s, field=None):
    """s points (1 : t : ... : t^n), t = 0..s-1, on the rational normal
    curve; over F_p the t are residues, so there are at most p of them."""
    field = field or ScalarField.rational()
    if field.p is not None and s > field.p:
        raise ValueError("rational_normal_curve_points needs s <= p over F_p, got s = %d > p = %d"
                         % (s, field.p))
    pts = []
    for t in range(s):
        pts.append(tuple(field.elem(t ** k) for k in range(n + 1)))
    return pts


def rational_normal_curve_scheme(n, mults, field=None):
    field = field or ScalarField.rational()
    pts = rational_normal_curve_points(n, len(mults), field=field)
    return FatPointScheme(field, n, list(zip(pts, mults)))


def generic_line_configuration(t, copies_per_line, seed=0, field=None):
    """t generic one-dimensional subspaces of a rank t-1 space, each carrying
    copies_per_line parallel vectors; returns the vector matroid.

    The line directions are ``generic_vectors_matroid``'s t vectors in rank
    t-1 from ``rng_from_seed(seed)``, so every subset of at most t-1 of them
    is certified linearly independent.
    """
    if t < 2:
        raise ValueError("generic_line_configuration needs t >= 2 lines, got t = %d" % t)
    if copies_per_line < 1:
        raise ValueError("generic_line_configuration needs copies_per_line >= 1, got %d"
                         % copies_per_line)
    field = field or ScalarField.rational()
    dirs = generic_vectors_matroid(rng_from_seed(seed), t - 1, t, field=field).matrix
    columns = [tuple(field.elem((j + 1) * c) for c in dirs.column(i))
               for i in range(t) for j in range(copies_per_line)]
    return VectorMatroid(ExactMatrix.from_columns(field, columns))


def generic_vectors_matroid(rng, dim, count, field=None, coord_range=50):
    """count vectors in rank dim, certified that every subset of at most dim
    vectors is independent."""
    field = field or ScalarField.rational()
    for _ in range(MAX_RESAMPLE_ATTEMPTS):
        cols = [tuple(rng.randint(1, coord_range) for _ in range(dim)) for _ in range(count)]
        if in_general_position(field, cols, dim):
            return VectorMatroid(ExactMatrix.from_columns(field, cols))
    raise ValueError("could not certify generic vectors after retries")


def random_vector_matroid(rng, dim, count, field=None, coord_range=4):
    """An arbitrary (possibly degenerate) vector matroid for stress tests.
    Zero columns are allowed; they become loops."""
    field = field or ScalarField.rational()
    cols = [tuple(field.elem(rng.randint(0, coord_range)) for _ in range(dim)) for _ in range(count)]
    if all(all(c == field.zero() for c in col) for col in cols):
        cols[0] = tuple([field.one()] + [field.zero()] * (dim - 1))
    return VectorMatroid(ExactMatrix.from_columns(field, cols))


def five_plus_generic_scheme(rng, n, d, m, field=None):
    """Support = five fixed points plus binom(d+n, n) certified-generic
    points, every point with multiplicity m.  The five fixed points lie in
    P^2, padded with zeros, so n >= 2.  A draw whose points make more than
    ``MAX_GENERIC_SETS`` sets of n + 1 is refused (``ValueError``) before
    it starts."""
    if n < 2:
        raise ValueError("five_plus_generic_scheme needs n >= 2, got n = %d" % n)
    if d < 0:
        raise ValueError("five_plus_generic_scheme needs d >= 0, got d = %d" % d)
    extra = comb(n + d, n)
    if extra > MAX_GENERIC_SETS or comb(extra, n + 1) > MAX_GENERIC_SETS:
        raise ValueError("five_plus_generic_scheme would draw binom(n + d, n) = %d generic points "
                         "of P^%d, more than MAX_GENERIC_SETS = %d sets of %d of them to test"
                         % (extra, n, MAX_GENERIC_SETS, n + 1))
    field = field or ScalarField.rational()
    fixed = [
        (1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1), (1, 2, 3),
    ]
    fixed = [tuple(field.elem(c) for c in p + (0,) * (n - 2)) for p in fixed]
    for _ in range(MAX_RESAMPLE_ATTEMPTS):
        gen = generic_points(rng, n, extra, field=field)
        all_pts = fixed + gen
        if len({_point_key(field, p) for p in all_pts}) == len(all_pts):
            return FatPointScheme(field, n, [(p, m) for p in all_pts])
    raise ValueError("could not place generic points distinct from the fixed five")
