import os
import random
import subprocess
import sys
from fractions import Fraction
from itertools import combinations_with_replacement, count
from math import comb, factorial, gcd

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fatpointlab import exact, schemes
from fatpointlab.bounds import segre_bound
from fatpointlab.exact import ExactMatrix, GuardExceeded, InternalError, ScalarField
from fatpointlab.generators import (
    collinear_points,
    generic_points,
    rng_from_seed,
)
from fatpointlab.schemes import (
    CtvVerdict,
    FatPointScheme,
    conditions_matrix,
    ctv_decomposition_check,
    hilbert_function,
    monomials,
    regularity_index,
    subscheme,
    veronese_inequality_check,
    veronese_lift,
)
from oracles import (
    ctv_quotient_term_by_kernels,
    heaviest_line_weight_by_ranks,
    hilbert_profile,
    hilbert_profile_ascending,
    proportional,
    random_scheme,
    regularity_index_ascending,
)

QQ = ScalarField.rational()


def simple(n, coords_list):
    return FatPointScheme(QQ, n, [(c, 1) for c in coords_list])


class TestSchemeConstruction:
    def test_degree_formula(self):
        x = FatPointScheme(QQ, 2, [((1, 0, 0), 2), ((0, 1, 0), 3)])
        assert x.degree() == comb(3, 2) + comb(4, 2)  # 3 + 6

    def test_rejects_empty_point_list(self):
        with pytest.raises(ValueError, match="^scheme must have at least one point$"):
            FatPointScheme(QQ, 2, [])

    def test_rejects_zero_point(self):
        with pytest.raises(ValueError):
            FatPointScheme(QQ, 2, [((0, 0, 0), 1)])

    def test_rejects_projectively_equal_points(self):
        with pytest.raises(ValueError):
            FatPointScheme(QQ, 1, [((1, 2), 1), ((2, 4), 1)])

    def test_rejects_bad_multiplicity(self):
        with pytest.raises(ValueError):
            FatPointScheme(QQ, 1, [((1, 0), 0)])

    def test_contains_point_up_to_scaling(self):
        x = simple(2, [(1, 2, 3)])
        assert x.contains_point((2, 4, 6))
        assert not x.contains_point((1, 0, 0))

    def test_contains_point_rejects_non_points(self):
        x = simple(2, [(1, 0, 0)])
        with pytest.raises(ValueError, match="invalid projective point"):
            x.contains_point((0, 0, 0))
        for coords in [(1, 0), (1, 0, 0, 1)]:
            with pytest.raises(ValueError, match="wrong number of coordinates"):
                x.contains_point(coords)


@st.composite
def point_pairs(draw):
    """(field, a, b): two nonzero coordinate vectors over Q, F_7 or F_10007
    with fractional, negative and zero entries; b is often a copy of a
    scaled by a nonzero fraction, which may be negative."""
    field = draw(st.sampled_from([QQ, ScalarField.prime(7), ScalarField.prime(10007)]))
    n = draw(st.integers(1, 3))
    entry = st.builds(Fraction, st.integers(-8, 8), st.integers(1, 4))
    vector = st.lists(entry, min_size=n + 1, max_size=n + 1)
    a = tuple(map(field.elem, draw(vector)))
    if draw(st.booleans()):
        scale = field.elem(draw(entry))
        b = tuple(field.elem(scale * c) for c in a)
    else:
        b = tuple(map(field.elem, draw(vector)))
    assume(any(a) and any(b))  # over F_7 a nonzero entry such as 7/4 reduces to 0
    return field, a, b


class TestPointKey:
    @given(point_pairs())
    @settings(max_examples=300, deadline=None)
    def test_equal_keys_iff_proportional(self, pair):
        field, a, b = pair
        key = schemes._point_key(field, a)
        assert (key == schemes._point_key(field, b)) == proportional(field, a, b)
        first = next(c for c in key if c)
        if field.is_rational:
            assert all(isinstance(c, int) for c in key) and first > 0 and gcd(*key) == 1
        else:
            assert first == 1 and all(0 <= c < field.p for c in key)

    @given(point_pairs())
    @settings(max_examples=100, deadline=None)
    def test_scheme_keeps_each_points_key(self, pair):
        field, a, b = pair
        assume(not proportional(field, a, b))
        x = FatPointScheme(field, len(a) - 1, [(a, 1), (b, 2)])
        assert [c for c, _ in x.points] == [a, b]
        assert x.keys == tuple(schemes._point_key(field, c) for c, _ in x.points)


class TestMonomials:
    def test_count(self):
        assert len(monomials(2, 3)) == comb(5, 2)

    def test_deglex_leading_term(self):
        assert monomials(2, 2)[0] == (2, 0, 0)
        assert monomials(2, 2)[-1] == (0, 0, 2)


class TestConditionsMatrix:
    def test_simple_point_rank_one(self):
        x = simple(2, [(1, 2, 3)])
        m = conditions_matrix(x, 1)
        assert m.nrows == 1 and m.ncols == 3 and m.rank() == 1

    def test_row_and_column_counts(self):
        x = FatPointScheme(QQ, 2, [((1, 0, 0), 3), ((0, 1, 0), 2)])
        m = conditions_matrix(x, 2)
        assert m.nrows == comb(4, 2) + comb(3, 2)
        assert m.ncols == comb(4, 2)

    def test_kernel_vanishes_to_order(self):
        # kernel elements of the 2P conditions vanish doubly: plugging the
        # point into every first partial (row of the degree-1 block) gives 0
        x = FatPointScheme(QQ, 2, [((1, 1, 2), 2)])
        m = conditions_matrix(x, 2)
        for v in m.kernel_basis():
            assert all(c == 0 for c in m.mul_vector(v))

    def test_prime_field_too_small(self):
        f = ScalarField.prime(3)
        x = FatPointScheme(f, 1, [((1, 2), 1)])
        with pytest.raises(ValueError):
            conditions_matrix(x, 3)

    def test_guard_trips_before_the_build(self, monkeypatch):
        # deg X * binom(n + d, n) cells are counted from binomials: the
        # monomials and the residue table of a matrix past the guard are
        # never built, over Q and over F_p alike
        def refuse(*args):
            raise AssertionError("built")

        monkeypatch.setattr(schemes, "monomials", refuse)
        monkeypatch.setattr(schemes, "_exponent_columns", refuse)
        for field in (QQ, ScalarField.prime(2**31 - 1)):
            x = FatPointScheme(field, 2, [((1, 2, 3), 3)])
            d = 2000  # 6 * binom(2002, 2) = 12,018,006 cells
            with pytest.raises(GuardExceeded, match="6 x 2003001 = 12018006 cells in degree 2000"):
                conditions_matrix(x, d)
            with pytest.raises(GuardExceeded, match="CONDITIONS_MATRIX_GUARD"):
                schemes._conditions_residues(x, d, 10007)
            with pytest.raises(GuardExceeded):
                hilbert_function(x, d)

    def test_prime_field_matches_rational_on_integer_points(self):
        f = ScalarField.prime(10007)
        pts = [(1, 0, 0), (0, 1, 0), (1, 1, 1), (1, 2, 5)]
        xq = FatPointScheme(QQ, 2, [(p, 2) for p in pts])
        xf = FatPointScheme(f, 2, [(p, 2) for p in pts])
        for d in range(4):
            assert hilbert_function(xq, d) == hilbert_function(xf, d)


def dehomogenized_rows(x, d):
    """Oracle: the conditions rows with Fraction entries, each point taken
    in affine coordinates at its first nonzero coordinate."""
    n = x.n
    rows = []
    for coords, mult in x.points:
        pivot = next(i for i, c in enumerate(coords) if c)
        affine = [i for i in range(n + 1) if i != pivot]
        u = {j: Fraction(coords[j]) / coords[pivot] for j in affine}
        for total in range(mult):
            for alpha in monomials(n - 1, total):
                order = dict(zip(affine, alpha))
                row = []
                for beta in monomials(n, d):
                    val = Fraction(1)
                    for j in affine:
                        b, a = beta[j], order[j]
                        val *= 0 if b < a else comb(b, a) * factorial(a) * u[j] ** (b - a)
                    row.append(val)
                rows.append(row)
    return rows


class TestIntegerConditionsMatrix:
    @pytest.mark.parametrize("seed", range(6))
    def test_rows_are_scaled_dehomogenized_rows(self, seed):
        rng = random.Random(seed)
        n = 1 + seed % 3
        pts = []
        while len(pts) < 3:
            c = tuple(Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(n + 1))
            try:
                FatPointScheme(QQ, n, [(q, 1) for q in pts + [c]])
            except ValueError:
                continue
            pts.append(c)
        x = FatPointScheme(QQ, n, [(q, 1 + i) for i, q in enumerate(pts)])
        d = 4
        m = conditions_matrix(x, d)
        expected = dehomogenized_rows(x, d)
        # each block of rows is scaled by c_piv^d for the key c of its point
        scales = []
        for key, mult in zip(x.keys, x.mults):
            piv = next(v for v in key if v)
            scales += [piv ** d] * comb(n + mult - 1, n)
        assert [list(row) for row in m.entries] == [
            [s * v for v in row] for s, row in zip(scales, expected)
        ]
        assert all(v.denominator == 1 for row in m.entries for v in row)


def prime_above(d):
    p = d + 1
    while not exact.is_prime(p):
        p += 1
    return p


@st.composite
def residue_cases(draw, wide=False):
    """(X, d) with X over Q or over F_p, p the least prime above d: points
    of P^n, each with its pivot at a drawn coordinate, zeros before it and
    zeros among the later ones, and multiplicities 1..5.  Half the cases
    have fewer than ``_NUMPY_MIN_CELLS`` cells (n <= 2, d <= 2, at most
    three points, multiplicities <= 2 off P^1), half at least that many.
    With ``wide``, coordinates also come from around +-10^100, so keys are
    wider than int64."""
    small = draw(st.booleans())
    n = draw(st.integers(1, 2 if small else 3))
    d = draw(st.integers(0, 2) if small else st.integers(3, 9))
    field = draw(st.sampled_from([QQ, ScalarField.prime(prime_above(d))]))
    magnitude = st.integers(1, 10**4)
    if wide:
        magnitude = st.one_of(magnitude, st.integers(10**100 - 10**4, 10**100 + 10**4))
    coord = st.one_of(st.just(0), st.integers(-3, 3),
                      st.builds(lambda m, sign: sign * m, magnitude, st.sampled_from([1, -1])))
    points, keys = [], set()
    for _ in range(draw(st.integers(1, 3 if small else 4))):
        pivot = draw(st.integers(0, n))
        lead = draw(magnitude) * draw(st.sampled_from([1, -1]))
        coords = [0] * pivot + [lead] + draw(st.lists(coord, min_size=n - pivot, max_size=n - pivot))
        mult = draw(st.integers(1, 5 if n == 1 or not small else 2))
        elems = [field.elem(c) for c in coords]
        if any(elems) and schemes._point_key(field, elems) not in keys:
            keys.add(schemes._point_key(field, elems))
            points.append((coords, mult))
    assume(points)
    x = FatPointScheme(field, n, points)
    assume((x.degree() * comb(n + d, n) < exact._NUMPY_MIN_CELLS) == small)
    return x, d


class TestConditionsResidues:
    """The climb's residue builder against the exact rows."""

    @given(residue_cases(wide=True))
    @settings(max_examples=150, deadline=None)
    def test_equals_exact_rows_mod_q(self, case):
        x, d = case
        q = exact.certificate_prime(0) if x.field.p is None else x.field.p
        a = schemes._conditions_residues(x, d, q)
        assert str(a.dtype) == "int64"
        rows = exact._tall(conditions_matrix(x, d).entries)
        assert a.tolist() == [[v % q for v in row] for row in rows]

    def test_unfaithful_degrees_refused(self):
        x = FatPointScheme(ScalarField.prime(5), 2, [((1, 0, 0), 4), ((0, 1, 0), 4)])
        for d, message in [(5, "prime field too small"), (-1, "degree must be >= 0")]:
            for build in (conditions_matrix, lambda y, e: schemes._conditions_residues(y, e, 5)):
                with pytest.raises(ValueError, match=message):
                    build(x, d)

    def test_helper_caches_are_keyed_by_shape(self):
        # the residue build caches per shape, (n, d, max m, q) and
        # (n, m, pivot), and the frame's unit echelon per (n, d, unit m,
        # frame mults, q), never per scheme: thousands of schemes leave
        # those caches as small as the shapes they have
        caches = schemes._shift_arrays, schemes._row_orders, schemes._unit_echelon
        for cache in caches:
            cache.cache_clear()
        rng = rng_from_seed(11)
        q = exact.certificate_prime(0)
        for _ in range(3000):
            x = random_scheme(rng, rng.randint(1, 3), 5, 3)
            d = rng.randint(0, 6)
            schemes._conditions_residues(x, d, q)
            schemes._frame_rank(x, d, q)
        # n <= 3, d <= 6 and m <= 3 make 63 and 27 shapes, and at most
        # this many frames (nonincreasing mults past the gate) with a unit
        # point (only beside a frame of n + 1 points) or none
        frames = sum(1 for n in range(1, 4) for d in range(7) for size in range(1, n + 2)
                     for heavy in combinations_with_replacement((3, 2, 1), size)
                     if sum(heavy[:2]) <= d + 1 for _ in range(4 if size == n + 1 else 1))
        assert schemes._unit_echelon.cache_info().currsize > 0
        assert all(cache.cache_info().currsize <= bound
                   for cache, bound in zip(caches, (63, 27, frames)))

    @given(residue_cases())
    @settings(max_examples=80, deadline=None)
    def test_regularity_matches_ascending_oracle(self, case):
        x, _ = case
        try:
            expected = hilbert_profile_ascending(x)
        except ValueError as exc:
            with pytest.raises(ValueError) as info:
                regularity_index(x)
            assert str(info.value) == str(exc)
            return
        assert regularity_index(x) == max(expected)
        assert hilbert_profile(x).values == expected


@st.composite
def integer_schemes(draw):
    n = draw(st.integers(1, 3))
    points = draw(st.lists(
        st.tuples(st.lists(st.integers(-6, 6), min_size=n + 1, max_size=n + 1),
                  st.integers(1, 3)),
        min_size=1, max_size=4,
    ))
    return n, points


class TestFieldAgreement:
    """h_X over F_p never exceeds h_X over Q when the F_p conditions matrix
    is the reduction of the integer one: points stay distinct mod p, their
    dehomogenizing coordinate is a unit mod p, and p > d."""

    @given(integer_schemes(), st.sampled_from([11, 13, 17, 10007, 2147483629, 2**61 - 1]))
    @settings(max_examples=80, deadline=None)
    def test_prime_field_never_exceeds_rational(self, scheme, p):
        n, points = scheme
        fp = ScalarField.prime(p)
        try:
            xq = FatPointScheme(QQ, n, points)
            xp = FatPointScheme(fp, n, points)
        except ValueError:
            assume(False)
        assume(all(next(c for c in coords if c) % p for coords, _ in points))
        r = regularity_index(xq)
        assume(r < p)
        for d in range(r + 1):
            assert hilbert_function(xp, d) <= hilbert_function(xq, d)
        try:
            rp = regularity_index(xp)
        except ValueError as exc:  # the climb over F_p met p first, so r(X_p) >= p > r
            assert str(exc).startswith("prime field too small")
            rp = p
        assert rp >= r

    def test_equality_at_10007_on_fixed_example(self):
        f = ScalarField.prime(10007)
        pts = [(1, 0, 0), (0, 1, 0), (1, 1, 1), (1, 2, 5)]
        xq = FatPointScheme(QQ, 2, [(p, 2) for p in pts])
        xf = FatPointScheme(f, 2, [(p, 2) for p in pts])
        r = regularity_index(xq)
        assert r == regularity_index(xf)
        for d in range(r + 1):
            assert hilbert_function(xq, d) == hilbert_function(xf, d)


class TestHilbertFunction:
    def test_degree_zero_is_one(self):
        x = simple(2, [(1, 0, 0), (0, 1, 0)])
        assert hilbert_function(x, 0) == 1

    def test_four_collinear_in_p3(self):
        x = simple(3, collinear_points(3, 4))
        assert hilbert_function(x, 2) == 3  # only 3 conditions on a line in deg 2

    def test_five_generic_in_p2(self):
        pts = generic_points(rng_from_seed(41), 2, 5)
        assert hilbert_function(simple(2, pts), 2) == 5

    def test_monotone_and_stabilizes(self):
        rng = rng_from_seed(42)
        x = random_scheme(rng, 2, 3, 2)
        r = regularity_index(x)
        prev = 0
        for d in range(r + 3):
            h = hilbert_function(x, d)
            assert h >= prev
            prev = h
        assert hilbert_function(x, r) == x.degree()
        assert hilbert_function(x, r + 2) == x.degree()

    def test_invariant_under_projective_change_of_coordinates(self):
        rng = random.Random(43)
        pts = [(1, 0, 0), (0, 1, 0), (1, 1, 1), (2, 3, 1)]
        x = FatPointScheme(QQ, 2, [(p, m) for p, m in zip(pts, (2, 1, 2, 1))])
        for _ in range(5):
            while True:
                g = [[Fraction(rng.randint(-4, 4)) for _ in range(3)] for _ in range(3)]
                if ExactMatrix(QQ, g).rank() == 3:
                    break
            moved = [
                tuple(sum(g[i][j] * Fraction(p[j]) for j in range(3)) for i in range(3))
                for p in pts
            ]
            y = FatPointScheme(QQ, 2, [(p, m) for p, m in zip(moved, (2, 1, 2, 1))])
            for d in range(4):
                assert hilbert_function(x, d) == hilbert_function(y, d)

    def test_invariant_under_rescaling_representatives(self):
        x = FatPointScheme(QQ, 2, [((1, 2, 3), 2), ((0, 1, 1), 2)])
        y = FatPointScheme(QQ, 2, [((2, 4, 6), 2), ((0, 5, 5), 2)])
        for d in range(4):
            assert hilbert_function(x, d) == hilbert_function(y, d)


def interpolation_oracle(s, d):
    """Independent oracle for s simple points on a line: conditions behave
    univariately, so h(d) = min(d + 1, s)."""
    return min(d + 1, s)


class TestRegularityIndex:
    def test_single_fat_point(self):
        for n in (1, 2, 3):
            for m in (1, 2, 3, 4):
                x = FatPointScheme(QQ, n, [(tuple([1] + [0] * n), m)])
                assert regularity_index(x) == m - 1

    def test_triple_point_in_plane(self):
        x = FatPointScheme(QQ, 2, [((1, 1, 1), 3)])
        assert regularity_index(x) == 2

    def test_collinear_points_match_interpolation_oracle(self):
        for n in (2, 3):
            for s in (2, 3, 5):
                x = simple(n, collinear_points(n, s))
                assert regularity_index(x) == s - 1
                for d in range(s):
                    assert hilbert_function(x, d) == interpolation_oracle(s, d)

    def test_profile(self):
        x = simple(2, collinear_points(2, 3))
        prof = hilbert_profile(x)
        assert prof.reg_index == 2 and prof.degree == 3
        assert prof.values == {0: 1, 1: 2, 2: 3}


@st.composite
def regularity_instances(draw):
    """A scheme over Q, F_7 or F_10007 with n <= 3, at most five points and
    multiplicities <= 3 (<= 5 on P^1).  Each point is either free or a
    combination of two base vectors, so collinear clusters occur."""
    field = draw(st.sampled_from([QQ, ScalarField.prime(7), ScalarField.prime(10007)]))
    n = draw(st.integers(1, 3))
    vector = st.lists(st.integers(-3, 3), min_size=n + 1, max_size=n + 1)
    a, b = draw(vector), draw(vector)
    on_line = st.tuples(st.integers(-3, 3), st.integers(-3, 3)).map(
        lambda w: [w[0] * x + w[1] * y for x, y in zip(a, b)])
    points = draw(st.lists(st.tuples(st.one_of(on_line, vector), st.integers(1, 5 if n == 1 else 3)),
                           min_size=1, max_size=5))
    try:
        return FatPointScheme(field, n, points)
    except ValueError:
        assume(False)


# three points on a line and one or two off it
LINE = [(1, 0, 0), (1, 1, 0), (1, 2, 0)]

# a patched heaviest_line naming points off one line, run under python -O
NON_COLLINEAR_LINE = """
import sys
from fatpointlab import schemes
from fatpointlab.exact import InternalError, ScalarField
x = schemes.FatPointScheme(ScalarField.rational(), 2, [(p, 3) for p in %r])
schemes.heaviest_line = lambda y: [0, 1, 3]
try:
    schemes.regularity_index(x)
except InternalError as exc:
    print("optimize %%d: InternalError: %%s" %% (sys.flags.optimize, exc))
"""


def count_conditions_matrices(monkeypatch):
    """The degrees of the conditions matrices built from now on, in order:
    as exact integer rows and as residues modulo a prime, whole or of the
    points outside the coordinate frame."""
    built = {"exact": [], "residues": []}
    build_rows, build_residues = schemes.conditions_matrix, schemes._conditions_residues

    def rows(x, d):
        built["exact"].append(d)
        return build_rows(x, d)

    def residues(x, d, q, *frame):
        built["residues"].append(d)
        return build_residues(x, d, q, *frame)

    monkeypatch.setattr(schemes, "conditions_matrix", rows)
    monkeypatch.setattr(schemes, "_conditions_residues", residues)
    return built


def count_reductions(monkeypatch):
    """The eliminations mod p from now on, in order, as (p, rows, cols):
    every one goes through ``_echelon_mod_p``, and the shape names the
    route, a frame's block or a whole matrix."""
    reductions = []
    eliminate = exact._echelon_mod_p

    def counted(rows, p):
        reductions.append((p, len(rows), len(rows[0])))
        return eliminate(rows, p)

    monkeypatch.setattr(exact, "_echelon_mod_p", counted)
    monkeypatch.setattr(schemes, "_echelon_mod_p", counted)
    return reductions


def first_prime_shapes(reductions):
    """The (rows, cols) of the reductions modulo the first certificate prime."""
    return [(rows, cols) for p, rows, cols in reductions if p == exact.certificate_prime(0)]


class TestBoundarySearch:
    """The boundary search against the ascending one, and its forced paths."""

    @given(regularity_instances())
    @settings(max_examples=80, deadline=None)
    def test_matches_ascending_oracle(self, x):
        try:
            expected = hilbert_profile_ascending(x)
        except ValueError as exc:
            with pytest.raises(ValueError) as info:
                hilbert_profile(x)
            assert str(info.value) == str(exc)
            return
        profile = hilbert_profile(x)
        assert (profile.reg_index, profile.values) == (max(expected), expected)

    @given(regularity_instances())
    @settings(max_examples=80, deadline=None)
    def test_heaviest_line_matches_rank_oracle(self, x):
        line = schemes.heaviest_line(x)
        assert line == sorted(set(line))
        assert sum(x.mults[i] for i in line) == heaviest_line_weight_by_ranks(x)
        assert ExactMatrix.from_columns(x.field, [x.keys[i] for i in line]).rank() <= 2

    def test_heaviest_line_over_a_prime_field(self):
        # the keys of (1, 1, 0) and (1, 2, 0) seen from (1, 0, 0) differ by a unit
        x = FatPointScheme(ScalarField.prime(7), 2, [(p, 2) for p in LINE + [(3, 5, 1)]])
        assert schemes.heaviest_line(x) == [0, 1, 2]
        assert 6 == heaviest_line_weight_by_ranks(x)

    def test_heaviest_line_tie_breaks(self):
        # equally heavy lines: the first by its next member, {0, 1, 2}
        # before {0, 3, 4}, or by its smallest, {0, 4, 5} before {1, 2, 3}
        x = simple(2, [(1, 0, 0), (0, 1, 0), (1, 1, 0), (0, 0, 1), (1, 0, 1)])
        assert schemes.heaviest_line(x) == [0, 1, 2]
        x = simple(2, [(1, 1, 1), (1, 0, 0), (0, 0, 1), (1, 0, 2), (0, 1, 0), (1, 2, 1)])
        assert schemes.heaviest_line(x) == [0, 4, 5]

    def test_line_search_ranks_nothing(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("the line search built or ranked a matrix")

        points = collinear_points(2, 12) + generic_points(rng_from_seed(5), 2, 28, coord_range=1000)
        x = FatPointScheme(QQ, 2, [(p, 1) for p in points])
        monkeypatch.setattr(ExactMatrix, "__init__", refuse)
        monkeypatch.setattr(ExactMatrix, "from_integer_rows", classmethod(refuse))
        assert schemes.heaviest_line(x) == list(range(12))

    def test_line_search_builds_one_level(self):
        # the lines and nothing past them, and the Segre bound's guard is
        # checked before the walk would go further
        points = collinear_points(2, 12) + generic_points(rng_from_seed(5), 2, 28, coord_range=1000)
        x = FatPointScheme(QQ, 2, [(p, 1) for p in points])
        assert schemes.heaviest_line(x) == list(range(12))
        assert len(x._levels) == 1
        with pytest.raises(GuardExceeded, match="flat enumeration"):
            segre_bound(x)
        assert len(x._levels) == 1

    def test_line_search_skipped_where_it_cannot_pay(self, monkeypatch):
        def refuse(y):
            raise AssertionError("line search run")

        monkeypatch.setattr(schemes, "heaviest_line", refuse)
        # many light points: 8 collinear simple points and one off the
        # line have 36 pairs > deg 9, so the climb starts at the floor 3
        x = simple(2, collinear_points(2, 8) + [(3, 7, 1)])
        built = count_conditions_matrices(monkeypatch)
        reductions = count_reductions(monkeypatch)
        assert regularity_index(x) == 7
        # every degree from the floor whole (9 conditions): the frame, two
        # points of the line and the one off it, would set aside 3 of the 9
        # conditions, fewer than it leaves, so it is not taken.  Then h(6),
        # deficient mod q and so not cached, is certified on exact rows from
        # the climb's own reduction, not reduced again
        assert built == {"residues": [3, 4, 5, 6, 7], "exact": [6]}
        assert first_prime_shapes(reductions) == [(10, 9), (15, 9), (21, 9), (28, 9), (36, 9)]
        assert regularity_index_ascending(x) == 7

    def test_non_collinear_line_is_refused(self, monkeypatch):
        # the line's bound is trusted only once its members rank at most 2,
        # an explicit check that also runs under python -O
        x = FatPointScheme(QQ, 2, [(p, 3) for p in LINE + [(3, 7, 1)]])
        monkeypatch.setattr(schemes, "heaviest_line", lambda y: [0, 1, 3])
        with pytest.raises(InternalError, match="span more than a line"):
            regularity_index(x)
        src = os.path.dirname(os.path.dirname(schemes.__file__))
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        script = NON_COLLINEAR_LINE % (LINE + [(3, 7, 1)])
        proc = subprocess.run([sys.executable, "-O", "-c", script], capture_output=True,
                              text=True, env=dict(os.environ, PYTHONPATH=path), timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == ("optimize 1: InternalError: the heaviest line's points "
                               "[0, 1, 3] span more than a line\n")

    def test_lighter_true_line_still_gives_r(self, monkeypatch):
        # any two points lie on a line; that lighter bound starts the climb
        # lower, and the climb still meets r
        x = FatPointScheme(QQ, 2, [(p, 3) for p in LINE + [(3, 7, 1)]])
        r = regularity_index_ascending(x)
        monkeypatch.setattr(schemes, "heaviest_line", lambda y: [0, 3])
        built = count_conditions_matrices(monkeypatch)
        reductions = count_reductions(monkeypatch)
        assert regularity_index(x) == r == 8
        # from max(floor 6, 3 + 3 - 1): h(6) and h(7) are deficient in the
        # frame (the 6 conditions of (1, 2, 0)) and whole (24), h(8) full in
        # the frame, and the step-down certifies h(7) from the climb's
        # whole reduction
        assert built == {"residues": [6, 6, 7, 7, 8], "exact": [7]}
        assert first_prime_shapes(reductions) == [(10, 6), (28, 24), (18, 6), (36, 24), (27, 6)]
        assert hilbert_profile(x).values == hilbert_profile_ascending(x)

    def test_unlucky_first_prime_at_r(self, monkeypatch):
        x = FatPointScheme(QQ, 2, [(p, 3) for p in LINE + [(3, 7, 1)]])
        r = regularity_index_ascending(x)
        assert r == 9 - 1  # the line's bound: r is proven deficient below
        built = count_conditions_matrices(monkeypatch)
        build_residues = schemes._conditions_residues

        def unlucky(y, d, q, *frame):
            # the first prime loses one rank on the degree-r matrices, the
            # frame's block and the whole one: one condition (a column of
            # the tall residues) vanishes mod q
            a = build_residues(y, d, q, *frame)
            if d == r:
                a[:, 0] = 0
            return a

        monkeypatch.setattr(schemes, "_conditions_residues", unlucky)
        reductions = count_reductions(monkeypatch)
        assert regularity_index(x) == r
        # deficient in the frame at r, so ranked whole, deficient again;
        # climbed past r to r + 1, full in the frame; the step-down
        # certifies degree r full on exact rows, from the climb's unlucky
        # whole reduction, and stops at the line's bound
        assert built == {"residues": [r, r, r + 1], "exact": [r]}
        assert first_prime_shapes(reductions) == [(27, 6), (45, 24), (37, 6)]
        assert x._hilbert_cache == {r: x.degree(), r + 1: x.degree()}

    def test_sharp_cluster_builds_one_residue_matrix(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("a rank was certified on exact rows")

        x = FatPointScheme(QQ, 2, [(p, 5) for p in LINE + [(3, 7, 1), (5, 2, 1)]])
        schemes._unit_echelon.cache_clear()
        built = count_conditions_matrices(monkeypatch)
        monkeypatch.setattr(exact, "_echelon_kernel", refuse)
        reductions = count_reductions(monkeypatch)
        assert regularity_index(x) == 14
        # the line of weight 15 proves h(13) < 75, so the climb starts at
        # 14.  The frame is (1, 0, 0), (1, 1, 0) and (3, 7, 1): their 45
        # conditions are unit columns.  The line's third point has a zero
        # coordinate in the frame, so (5, 2, 1) is the unit point: its 15
        # conditions on the other 75 monomials are reduced once per shape,
        # and one reduction of the line point's 15 conditions on the 60
        # monomials off the unit pivots shows the degree full
        assert x._frame.unit == 5 and x._frame.mults == [5]
        assert built == {"residues": [14], "exact": []}
        assert first_prime_shapes(reductions) == [(15, 75), (60, 15)]
        assert x._hilbert_cache == {14: 75}
        # a second scheme of the same shape reads the unit echelon back
        y = FatPointScheme(QQ, 2, [(p, 5) for p in LINE + [(3, 7, 1), (5, 2, 1)]])
        assert regularity_index(y) == 14
        assert first_prime_shapes(reductions) == [(15, 75), (60, 15), (60, 15)]

    def test_hilbert_values_above_r_build_nothing(self, monkeypatch):
        x = FatPointScheme(QQ, 2, [(p, 2) for p in LINE + [(3, 7, 1)]])
        r = regularity_index(x)
        built = count_conditions_matrices(monkeypatch)
        assert [hilbert_function(x, d) for d in range(r, r + 4)] == [x.degree()] * 4
        assert built == {"residues": [], "exact": []}

    def test_ctv_builds_no_matrix_of_z_above_r(self, monkeypatch):
        built = []
        build_rows, build_residues = schemes.conditions_matrix, schemes._conditions_residues

        def rows(x, d):
            built.append((x, d))
            return build_rows(x, d)

        def residues(x, d, q, *frame):
            built.append((x, d))
            return build_residues(x, d, q, *frame)

        monkeypatch.setattr(schemes, "conditions_matrix", rows)
        monkeypatch.setattr(schemes, "_conditions_residues", residues)
        rng = rng_from_seed(7)
        done = 0
        while done < 20:
            z = random_scheme(rng, rng.randint(1, 3), 4, 3)
            cand = tuple(rng.randint(0, 5) for _ in range(z.n + 1))
            if not any(cand) or z.contains_point(cand):
                continue
            ctv_decomposition_check(z, cand, rng.randint(1, 3))
            r_z = regularity_index(z)
            assert all(d <= r_z for y, d in built if y is z)
            built.clear()
            done += 1

    def test_too_small_field_reported_at_the_ascending_degree(self):
        # the search would start at the line bound 7, but an ascending one
        # meets p = 5 first at the monomial floor 5
        x = FatPointScheme(ScalarField.prime(5), 2, [((1, 0, 0), 4), ((0, 1, 0), 4)])
        with pytest.raises(ValueError, match="^prime field too small for derivative "
                                             "conditions at degree 5$"):
            regularity_index(x)


FRAME_FIELDS = [QQ] + [ScalarField.prime(p) for p in (7, 13, 10007, 2147483629)]


@st.composite
def frame_cases(draw):
    """(X, d) for the coordinate frame: X over Q or F_7 .. F_2147483629 in
    P^1 .. P^4, its points coordinate points, members of one collinear
    cluster or free, and with ``flat`` all inside the hyperplane x_n = 0,
    so the frame has at most n points; multiplicities 1..4 and d up to 8
    (below p, at most 6000 cells), from just below the gate."""
    field = draw(st.sampled_from(FRAME_FIELDS))
    n = draw(st.integers(1, 4))
    flat = draw(st.booleans())
    vector = st.lists(st.integers(-4, 4), min_size=n + 1, max_size=n + 1)
    a, b = draw(vector), draw(vector)
    on_line = st.tuples(st.integers(-3, 3), st.integers(-3, 3)).map(
        lambda w: [w[0] * u + w[1] * v for u, v in zip(a, b)])
    point = st.one_of(st.integers(0, n).map(lambda i: [int(j == i) for j in range(n + 1)]),
                      on_line, on_line, vector)
    if flat:
        point = point.map(lambda c: c[:-1] + [0])
    points = {}
    for coords, mult in draw(st.lists(st.tuples(point, st.integers(1, 4)), min_size=3, max_size=8)):
        elems = [field.elem(c) for c in coords]
        if any(elems):
            points.setdefault(schemes._point_key(field, elems), (coords, mult))
    assume(points)
    x = FatPointScheme(field, n, list(points.values()))
    top = 8 if field.p is None else min(8, field.p - 1)
    while top >= 0 and x.degree() * comb(n + top, n) > 6000:
        top -= 1
    assume(top >= 0)
    # any two points are independent, so the frame's two heaviest are X's
    # and the gate opens at d = m_(1) + m_(2) - 1; start just below it
    gate = sum(sorted(x.mults, reverse=True)[:2]) - 1
    return x, draw(st.integers(max(0, min(gate - 2, top)), top))


@st.composite
def unit_cases(draw):
    """(X, d) for the unit point: X over Q, F_10007 or F_2147483629 in
    P^1 .. P^4 with n + 2 .. n + 5 support points, coordinates in -9..9
    and zeros (points of the moment curve (1, j, .., j^n) make up for
    drawn ones that are zero or repeated), multiplicities 1..4 in P^1,
    1..3 in P^2 and 1..2 above, and d up to 8 (at most 6000 cells) past
    the gate."""
    field = draw(st.sampled_from([QQ, ScalarField.prime(10007), ScalarField.prime(2147483629)]))
    n = draw(st.integers(1, 4))
    coord = st.one_of(st.integers(-9, 9), st.just(0))
    point = st.lists(coord, min_size=n + 1, max_size=n + 1)
    mult = st.integers(1, max(2, 5 - n))
    drawn = draw(st.lists(st.tuples(point, mult), min_size=n + 2, max_size=n + 5))
    curve = ([j ** e for e in range(n + 1)] for j in count(1))
    points = {}
    for coords, m in drawn:
        elems = [field.elem(c) for c in coords]
        while not any(elems) or schemes._point_key(field, elems) in points:
            coords = next(curve)
            elems = [field.elem(c) for c in coords]
        points[schemes._point_key(field, elems)] = (coords, m)
    x = FatPointScheme(field, n, list(points.values()))
    top = 8
    while top >= 0 and x.degree() * comb(n + top, n) > 6000:
        top -= 1
    gate = max(0, sum(sorted(x.mults, reverse=True)[:2]) - 1)
    assume(gate <= top)
    return x, draw(st.integers(gate, top))


class TestFrameRank:
    """The coordinate frame's rank against the whole matrix's."""

    @given(frame_cases())
    @settings(max_examples=200, deadline=None)
    def test_equals_the_whole_residues_rank(self, case):
        x, d = case
        q = exact.certificate_prime(0) if x.field.p is None else x.field.p
        r = schemes._frame_rank(x, d, q)
        heavy = x._frame.heavy
        assert list(heavy) == sorted(heavy, reverse=True)
        assert len(heavy) == ExactMatrix.from_integer_rows(x.field, x.keys).rank()
        assert (r is None) == (sum(heavy[:2]) > d + 1)
        if r is not None:
            # small coordinates: every key's first entry is a unit mod q,
            # so the whole residues rank X itself mod q
            assert r == len(exact._echelon_mod_p(schemes._conditions_residues(x, d, q), q)[1])

    def test_frame_in_a_hyperplane(self):
        # five points of x_2 = 0 in P^2: a frame of two points, the other
        # three at their images in its coordinates
        x = FatPointScheme(ScalarField.prime(13), 2, [((1, t, 0), 3 - t // 2) for t in range(5)])
        heavy, units, unit, keys, mults = schemes._frame(x, 13)
        assert heavy == (3, 3) and units == 12 and mults == [2, 2, 1]
        # every image is 0 at x_2, so no point is taken to (1 : 1 : 1)
        assert unit == 0
        assert keys == [(12, 2, 0), (11, 3, 0), (10, 4, 0)]
        for d in range(5, 9):
            assert schemes._frame_rank(x, d, 13) == hilbert_function(x, d)
        assert schemes._frame_rank(x, 4, 13) is None  # 3 + 3 > 4 + 1

    def test_unit_point_route_equals_the_whole_residues_rank(self):
        # schemes with s >= n + 2 points: mostly a frame of n + 1 points
        # and a unit point beside it, whose echelon is read per shape
        taken = []

        @given(unit_cases())
        @settings(max_examples=150, deadline=None, database=None)
        def check(case):
            x, d = case
            q = exact.certificate_prime(0) if x.field.p is None else x.field.p
            r = schemes._frame_rank(x, d, q)
            taken.append(x._frame.unit > 0)
            assert len(x._frame.keys) == x.support_size - len(x._frame.heavy) - (x._frame.unit > 0)
            assert r == len(exact._echelon_mod_p(schemes._conditions_residues(x, d, q), q)[1])

        check()
        assert sum(taken) > len(taken) / 2

    def test_unit_candidate_with_a_zero_residue_is_skipped(self):
        # the frame is e_0, e_1, e_2; the heaviest other point, (1, q, 1),
        # is (1 : 0 : 1) mod q, so the next one, (1, 2, 3), is sent to
        # (1 : 1 : 1), and the skipped point's image is scaled with the rest
        q = exact.certificate_prime(0)
        x = FatPointScheme(QQ, 2, [((1, 0, 0), 3), ((0, 1, 0), 3), ((0, 0, 1), 3),
                                   ((1, q, 1), 2), ((1, 2, 3), 1)])
        heavy, units, unit, keys, mults = schemes._frame(x, q)
        assert heavy == (3, 3, 3) and units == 18
        assert unit == 1 and keys == [(1, 0, pow(3, -1, q))] and mults == [2]
        for d in range(5, 9):
            r = schemes._frame_rank(x, d, q)
            assert r == len(exact._echelon_mod_p(schemes._conditions_residues(x, d, q), q)[1])
            assert r <= hilbert_function(x, d)

    @pytest.mark.parametrize("q", [10007, 2147483629, 2**31 - 1])
    def test_limb_product_matches_python_ints(self, q):
        # entries in [q - 3, q), the largest residues, where a product of
        # whole residues would overflow int64
        import numpy as np

        rng = random.Random(q)
        for rows, k, cols in [(1, 1, 1), (3, 7, 2), (40, 15, 60), (5, 300, 4)]:
            a, b, c = ([[rng.randint(q - 3, q - 1) for _ in range(w)] for _ in range(h)]
                       for h, w in [(rows, k), (k, cols), (rows, cols)])
            got = schemes._add_product_mod(np.array(c, dtype=np.int64),
                                           schemes._split_limbs(np.array(a, dtype=np.int64)),
                                           np.array(b, dtype=np.int64), q)
            assert got.tolist() == [[(c[i][j] + sum(a[i][t] * b[t][j] for t in range(k))) % q
                                     for j in range(cols)] for i in range(rows)]

    def test_limb_product_bound_is_checked(self):
        # 2^15 rows of b, or q >= 2^31, could overflow: refused explicitly,
        # also under python -O
        import numpy as np

        limbs = np.zeros((2, 2**15), dtype=np.int64)
        with pytest.raises(ValueError, match="32768 rows modulo q = 2147483647"):
            schemes._add_product_mod(np.zeros((1, 1), dtype=np.int64), limbs,
                                     np.zeros((2**15, 1), dtype=np.int64), 2**31 - 1)
        with pytest.raises(ValueError, match="1 rows modulo q = 2147483659"):
            schemes._add_product_mod(np.zeros((1, 1), dtype=np.int64), limbs[:, :1],
                                     np.zeros((1, 1), dtype=np.int64), 2147483659)
        src = os.path.dirname(os.path.dirname(schemes.__file__))
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        proc = subprocess.run([sys.executable, "-O", "-c", LIMB_BOUND], capture_output=True,
                              text=True, env=dict(os.environ, PYTHONPATH=path), timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.startswith("optimize 1: ValueError: limb product overflows int64")

    def test_frame_of_every_point_imports_no_numpy(self):
        # a scheme whose points are all in its frame is ranked by counting
        # their conditions: a fresh CLI process on one never pays numpy's
        # import, with or without a unit echelon to look up
        script = ("import sys\n"
                  "from fatpointlab.exact import ScalarField\n"
                  "from fatpointlab.schemes import FatPointScheme, regularity_index\n"
                  "x = FatPointScheme(ScalarField.rational(), 2, %r)\n"
                  "print(regularity_index(x), x._frame.units, 'numpy' in sys.modules)\n"
                  % [(p, 3) for p in LINE[:2] + [(3, 7, 1)]])
        src = os.path.dirname(os.path.dirname(schemes.__file__))
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                              env=dict(os.environ, PYTHONPATH=path), timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "5 18 False\n"

    def test_share_rule_holds_over_q_only(self, monkeypatch):
        # two points of the line and the one off it set aside 3 of the 9
        # conditions of eight collinear simple points and one off the line:
        # over Q, where a deficient attempt costs a second elimination, the
        # frame is not taken; over F_p its rank is exact, and it is
        for field, taken in ((QQ, False), (ScalarField.prime(101), True)):
            x = FatPointScheme(field, 2, [(p, 1) for p in collinear_points(2, 8) + [(3, 7, 1)]])
            reductions = count_reductions(monkeypatch)
            assert regularity_index(x) == 7
            assert any(cols == 6 for _, _, cols in reductions) == taken

    def test_deficient_rank_over_q_falls_back_to_the_whole_matrix(self, monkeypatch):
        # the climb from the lighter line's bound 6 meets h(7) deficient in
        # the frame; the whole matrix is reduced, and the step-down's
        # certificate starts from that echelon, as the climb left it pending
        x = FatPointScheme(QQ, 2, [(p, 3) for p in LINE + [(3, 7, 1)]])
        monkeypatch.setattr(schemes, "heaviest_line", lambda y: [0, 3])
        q = exact.certificate_prime(0)
        whole = exact._echelon_mod_p(schemes._conditions_residues(x, 7, q), q)
        firsts = []
        rank = ExactMatrix.rank

        def recording(self, first=None):
            if first is not None:
                firsts.append((first[0].copy(), list(first[1]), x._pending[0]))
            return rank(self, first)

        monkeypatch.setattr(ExactMatrix, "rank", recording)
        assert regularity_index(x) == 8
        ((ech, pivots, pending),) = firsts
        assert pending == 7 and pivots == whole[1]
        assert ech.tolist() == whole[0].tolist()
        assert x._pending is None and x._hilbert_cache[7] < x.degree()

    def test_degree_checks_come_before_the_frame(self, monkeypatch):
        # the prime field's size and the guard are checked before any frame
        # is taken, so both still refuse as they did
        def refuse(*args):
            raise AssertionError("frame work before the degree check")

        monkeypatch.setattr(schemes, "_frame", refuse)
        monkeypatch.setattr(schemes, "_frame_rank", refuse)
        x = FatPointScheme(ScalarField.prime(5), 2, [((1, 0, 0), 4), ((0, 1, 0), 4)])
        with pytest.raises(ValueError, match="prime field too small"):
            hilbert_function(x, 5)
        with pytest.raises(ValueError, match="prime field too small"):
            regularity_index(x)
        for field in (QQ, ScalarField.prime(2**31 - 1)):
            y = FatPointScheme(field, 2, [((1, 2, 3), 3)])
            with pytest.raises(GuardExceeded, match="CONDITIONS_MATRIX_GUARD"):
                hilbert_function(y, 2000)
            assert y._frame is None

    def test_frame_taken_once_per_scheme(self, monkeypatch):
        frames = []
        take = schemes._frame

        def counted(x, q):
            if x._frame is None:
                frames.append(x)
            return take(x, q)

        monkeypatch.setattr(schemes, "_frame", counted)
        x = FatPointScheme(QQ, 2, [(p, 5) for p in LINE + [(3, 7, 1), (5, 2, 1)]])
        assert hilbert_profile(x).values == hilbert_profile_ascending(x)
        assert frames == [x]

    def test_frame_check_runs_under_optimize(self):
        # a wrong inverse leaves a frame point off its coordinate vector;
        # the explicit re-check refuses it also under python -O
        src = os.path.dirname(os.path.dirname(schemes.__file__))
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        proc = subprocess.run([sys.executable, "-O", "-c", WRONG_INVERSE], capture_output=True,
                              text=True, env=dict(os.environ, PYTHONPATH=path), timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "optimize 1: InternalError: frame point 0 is not sent to e_0\n"


# the limb product's int64 bound, run under python -O
LIMB_BOUND = """
import sys
import numpy as np
from fatpointlab import schemes
try:
    schemes._add_product_mod(np.zeros((1, 1), dtype=np.int64), np.zeros((2, 2**15), dtype=np.int64),
                             np.zeros((2**15, 1), dtype=np.int64), 2**31 - 1)
except ValueError as exc:
    print("optimize %d: ValueError: %s" % (sys.flags.optimize, exc))
"""

# a frame whose pivots are scaled by a wrong inverse, run under python -O
WRONG_INVERSE = """
import sys
from fatpointlab import schemes
from fatpointlab.exact import InternalError, ScalarField
x = schemes.FatPointScheme(ScalarField.prime(13), 2, [((1, 2, 3), 2), ((0, 1, 5), 1)])
schemes.pow = lambda v, e, q: 2
try:
    schemes._frame(x, 13)
except InternalError as exc:
    print("optimize %d: InternalError: %s" % (sys.flags.optimize, exc))
"""


class TestSubscheme:
    def test_pointwise_reduction(self):
        x = FatPointScheme(QQ, 2, [((1, 0, 0), 3), ((0, 1, 0), 2)])
        z = subscheme(x, (1, 2))
        assert z.mults == (1, 2)

    def test_drops_zero_multiplicities(self):
        x = FatPointScheme(QQ, 2, [((1, 0, 0), 3), ((0, 1, 0), 2)])
        z = subscheme(x, (2, 0))
        assert z.support_size == 1 and z.mults == (2,)

    def test_validation(self):
        x = FatPointScheme(QQ, 2, [((1, 0, 0), 2)])
        with pytest.raises(ValueError):
            subscheme(x, (3,))
        with pytest.raises(ValueError, match="^scheme must have at least one point$"):
            subscheme(x, (0,))
        with pytest.raises(ValueError):
            subscheme(x, (1, 1))

    def test_monotonicity(self):
        rng = rng_from_seed(44)
        for _ in range(20):
            x = random_scheme(rng, 2, 3, 3)
            new = tuple(rng.randint(0, m) for m in x.mults)
            if not any(new):
                new = (x.mults[0],) + new[1:]
            z = subscheme(x, new)
            assert regularity_index(z) <= regularity_index(x)


@st.composite
def ctv_instances(draw):
    """(Z, P, m) over Q or F_10007 with n <= 3, at most four points and
    multiplicities <= 3.  Each point is either free or a combination of two
    base vectors, so collinear clusters (with P on or off the line) occur."""
    field = draw(st.sampled_from([QQ, ScalarField.prime(10007)]))
    n = draw(st.integers(1, 3))
    vector = st.lists(st.integers(-3, 3), min_size=n + 1, max_size=n + 1)
    a, b = draw(vector), draw(vector)
    on_line = st.tuples(st.integers(-3, 3), st.integers(-3, 3)).map(
        lambda w: [w[0] * x + w[1] * y for x, y in zip(a, b)])
    points = draw(st.lists(st.tuples(st.one_of(on_line, vector), st.integers(1, 3)),
                           min_size=2, max_size=4))
    try:
        x = FatPointScheme(field, n, points)
    except ValueError:
        assume(False)
    (p, m), rest = x.points[-1], x.points[:-1]
    return FatPointScheme(field, n, list(rest)), p, m


class TestCtv:
    @given(ctv_instances())
    @settings(max_examples=40, deadline=None)
    def test_matches_kernel_oracle(self, instance):
        z, p, m = instance
        r = regularity_index(z.with_point(p, m))
        r_z = regularity_index(z)
        q = ctv_quotient_term_by_kernels(z, p, m)
        formula = max(m - 1, r_z, q)
        expected = CtvVerdict(r == formula, r, formula, m - 1, r_z, q)
        assert ctv_decomposition_check(z, p, m) == expected

    def test_rejects_non_points(self):
        z = FatPointScheme(QQ, 2, [((1, 0, 0), 1)])
        with pytest.raises(ValueError, match="invalid projective point"):
            ctv_decomposition_check(z, (0, 0, 0), 1)
        with pytest.raises(ValueError, match="wrong number of coordinates"):
            ctv_decomposition_check(z, (1, 0), 1)

    def test_basic_identity(self):
        z = FatPointScheme(QQ, 2, [((1, 0, 0), 1), ((0, 1, 0), 1)])
        verdict = ctv_decomposition_check(z, (0, 0, 1), 2)
        assert verdict.ok
        assert verdict.reg_index == verdict.formula_value
        assert verdict.point_term == 1

    def test_point_must_be_new(self):
        z = FatPointScheme(QQ, 2, [((1, 0, 0), 1)])
        with pytest.raises(ValueError):
            ctv_decomposition_check(z, (2, 0, 0), 1)

    def test_random_instances(self):
        rng = rng_from_seed(45)
        done = 0
        while done < 15:
            z = random_scheme(rng, rng.randint(1, 2), 3, 2)
            cand = tuple(rng.randint(0, 5) for _ in range(z.n + 1))
            if all(c == 0 for c in cand) or z.contains_point(cand):
                continue
            verdict = ctv_decomposition_check(z, cand, rng.randint(1, 3))
            assert verdict.ok
            done += 1


class TestVeronese:
    def test_degree_one_is_identity(self):
        x = FatPointScheme(QQ, 2, [((1, 2, 3), 2)])
        lifted = veronese_lift(x, 1)
        assert lifted.n == 2 and lifted.points == x.points

    def test_line_to_conic(self):
        x = FatPointScheme(QQ, 1, [((1, 2), 1), ((1, 3), 1)])
        lifted = veronese_lift(x, 2)
        assert lifted.n == 2
        assert lifted.points[0][0] == (1, 2, 4)
        assert lifted.points[1][0] == (1, 3, 9)

    def test_multiplicities_preserved(self):
        x = FatPointScheme(QQ, 1, [((1, 2), 3)])
        assert veronese_lift(x, 2).mults == (3,)

    def test_inequality_and_closed_form(self):
        x = FatPointScheme(QQ, 1, [((1, 0), 2), ((1, 1), 1), ((1, 2), 1)])
        verdict = veronese_inequality_check(x, 2)
        assert verdict.ok
        assert verdict.reg_index == 3  # sum(m) - 1 on the line
        assert verdict.equality_case
        assert verdict.lifted_reg_index == verdict.closed_form == 2

    def test_single_point_not_equality_case(self):
        # one point of multiplicity 3 on the line: the pair condition is
        # vacuous, but the lift is still regular only in degree 2
        x = FatPointScheme(QQ, 1, [((1, 2), 3)])
        verdict = veronese_inequality_check(x, 2)
        assert verdict.ok and not verdict.equality_case
        assert verdict.lifted_reg_index == 2

    def test_plane_instance(self):
        x = FatPointScheme(QQ, 2, [((1, 0, 0), 1), ((0, 1, 0), 1), ((0, 0, 1), 2)])
        verdict = veronese_inequality_check(x, 2)
        assert verdict.ok

    def test_invalid_degree(self):
        x = FatPointScheme(QQ, 1, [((1, 0), 1)])
        with pytest.raises(ValueError):
            veronese_lift(x, 0)
