from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fatpointlab import exact, schemes
from fatpointlab.bounds import (
    CardinalityVerdict,
    cardinality_estimate_check,
    modified_bound,
    rational_normal_curve_sharpness,
    reproduce_generic_example,
    segre_bound,
    separating_hypersurface,
    verify_main_theorem,
)
from fatpointlab.exact import GuardExceeded, ScalarField
from fatpointlab.generators import (
    collinear_points,
    generic_points,
    rng_from_seed,
)
from fatpointlab.matroid import fat_point_vector_matroid
from fatpointlab.schemes import FatPointScheme, heaviest_line, regularity_index
from oracles import (
    cardinality_violation_exhaustive,
    heaviest_line_weight_by_ranks,
    proportional,
    random_scheme,
    segre_bound_brute_force,
)

QQ = ScalarField.rational()
FP = ScalarField.prime(10007)


@st.composite
def segre_schemes(draw, max_copies=None):
    """A scheme with n <= 3 and 1 <= s <= 8 over Q or F_10007, often with a
    forced collinear or coplanar cluster (combinations of two or three base
    vectors) and with zero coordinates; with ``max_copies``, the last points
    are dropped until the multiplicities sum to at most that."""
    n = draw(st.integers(1, 3))
    field = draw(st.sampled_from([QQ, FP]))
    size = draw(st.integers(1, 8))
    vector = st.tuples(*[st.integers(-3, 3)] * (n + 1))
    base = draw(st.lists(vector, min_size=2, max_size=3))
    combos = draw(st.lists(st.tuples(*[st.integers(-2, 2)] * len(base)), max_size=6))
    candidates = [tuple(sum(c * v[i] for c, v in zip(coeffs, base)) for i in range(n + 1))
                  for coeffs in combos]
    candidates += draw(st.lists(vector, max_size=8))
    points = []
    for cand in draw(st.permutations(candidates)):
        p = tuple(field.elem(c) for c in cand)
        if len(points) < size and any(p) and not any(proportional(field, p, q) for q in points):
            points.append(p)
    if not points:
        points.append(tuple([field.one()] + [field.zero()] * n))
    mults = draw(st.lists(st.integers(1, 4), min_size=len(points), max_size=len(points)))
    while max_copies is not None and sum(mults) > max_copies:
        mults.pop()
        points.pop()
    return FatPointScheme(field, n, list(zip(points, mults)))


class TestSegreBound:
    def test_two_fat_points(self):
        x = FatPointScheme(QQ, 2, [((1, 0, 0), 2), ((0, 1, 0), 3)])
        seg, witness = segre_bound(x)
        assert seg == 4  # the line through both points: ceil((5-1)/1)
        assert witness.flat == frozenset({0, 1})
        assert witness.span_dim == 1 and witness.weight == 5

    def test_three_non_collinear_double_points(self):
        x = FatPointScheme(QQ, 2, [((1, 0, 0), 2), ((0, 1, 0), 2), ((0, 0, 1), 2)])
        seg, witness = segre_bound(x)
        assert seg == 3  # a line through two points: ceil(3/1) wins over the plane

    def test_single_point(self):
        x = FatPointScheme(QQ, 2, [((1, 2, 3), 4)])
        seg, witness = segre_bound(x)
        assert seg == 3 and witness.span_dim == 0

    def test_collinear_weights_add_up(self):
        x = FatPointScheme(QQ, 2, [(p, 2) for p in collinear_points(2, 4)])
        seg, witness = segre_bound(x)
        assert seg == 7 and witness.weight == 8

    def test_pairwise_lower_bound(self):
        # seg >= m_i + m_j - 1 for every pair, and seg >= max(m_i) - 1
        rng = rng_from_seed(51)
        for _ in range(20):
            x = random_scheme(rng, 2, 4, 3)
            seg, _ = segre_bound(x)
            mults = x.mults
            assert seg >= max(mults) - 1
            for i in range(len(mults)):
                for j in range(i + 1, len(mults)):
                    assert seg >= mults[i] + mults[j] - 1

    def test_agrees_with_brute_force(self):
        rng = rng_from_seed(52)
        for _ in range(40):
            x = random_scheme(rng, rng.randint(1, 3), 6, 3)
            assert segre_bound(x) == segre_bound_brute_force(x)

    @settings(max_examples=150, deadline=None)
    @given(segre_schemes())
    def test_witness_agrees_with_brute_force(self, x):
        assert segre_bound(x) == segre_bound_brute_force(x)

    def test_twenty_points_in_the_plane(self):
        x = FatPointScheme(QQ, 2, [(p, 1) for p in generic_points(rng_from_seed(58), 2, 20, coord_range=1000)])
        seg, witness = segre_bound(x)
        assert seg == 10 and witness.span_dim == 2 and witness.weight == 20

    def test_segre_bound_ranks_nothing(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("a rank was queried")

        x = FatPointScheme(QQ, 2, [(p, 2) for p in collinear_points(2, 3) + [(3, 7, 1), (5, 2, 1)]])
        monkeypatch.setattr(exact, "_rank_of_rows", refuse)
        assert segre_bound(x)[0] == 5

    def test_guard_is_the_flat_enumeration_guard(self):
        x = FatPointScheme(QQ, 2, [(p, 1) for p in collinear_points(2, 24)])
        assert segre_bound(x)[0] == 23
        x = FatPointScheme(QQ, 2, [(p, 1) for p in collinear_points(2, 25)])
        with pytest.raises(GuardExceeded, match="^ground set too large for exhaustive flat enumeration$"):
            segre_bound(x)

    def test_ceiling_floor_identity(self):
        # ceil((w-1)/k) == (w+k-2)//k for all small k, w
        for k in range(1, 7):
            for w in range(1, 61):
                assert -(-(w - 1) // k) == (w + k - 2) // k


def fresh(x):
    """The same scheme as a new object, with nothing computed yet."""
    return FatPointScheme(x.field, x.n, list(x.points))


class TestSharedWalk:
    """One walk of the support flats per scheme (``schemes.support_levels``),
    read by the regularity search's heaviest line and by the Segre bound."""

    @settings(max_examples=60, deadline=None)
    @given(segre_schemes(max_copies=12))
    def test_either_order_gives_the_fresh_values(self, x):
        expected = (regularity_index(fresh(x)), segre_bound(fresh(x)), heaviest_line(fresh(x)))
        segre_first, regularity_first = fresh(x), fresh(x)
        segre_bound(segre_first)
        regularity_index(regularity_first)
        for y in (segre_first, regularity_first):
            assert (regularity_index(y), segre_bound(y), heaviest_line(y)) == expected
            # past the Segre bound only the lines are kept, and a reader
            # past them walks on to the same levels
            assert y._levels == list(schemes.flat_levels(fresh(x)))[:1]
            assert list(schemes.support_levels(y)) == list(schemes.flat_levels(fresh(x)))
        assert expected[1] == segre_bound_brute_force(x)
        assert sum(x.mults[i] for i in expected[2]) == heaviest_line_weight_by_ranks(x)

    def test_verify_main_theorem_walks_once(self, monkeypatch):
        # the line search takes the walk through the lines, the Segre bound
        # goes on from there: one walk started, and no step of it repeated
        x = FatPointScheme(QQ, 2, [(p, 2) for p in collinear_points(2, 3) + [(3, 7, 1), (5, 2, 1)]])
        started, steps = [], []
        walk, step = schemes.flat_levels, schemes._reduced

        def counting_walk(y):
            started.append(y)
            return walk(y)

        def counting_step(*args):
            steps.append(args)
            return step(*args)

        monkeypatch.setattr(schemes, "flat_levels", counting_walk)
        monkeypatch.setattr(schemes, "_reduced", counting_step)
        report = verify_main_theorem(x)
        assert started == [x]
        assert (report.reg_index, report.segre, sorted(report.witness.flat)) == (5, 5, [0, 1, 2])
        walked = len(steps)
        assert list(walk(fresh(x)))[:1] == x._levels
        assert len(steps) == 2 * walked


    def test_segre_bound_keeps_only_the_lines(self):
        # ten generic points of P^3: the walk has three levels, and past the
        # bound only the lines are kept; read again, nothing changes
        x = FatPointScheme(QQ, 3, [(p, 2) for p in generic_points(rng_from_seed(8), 3, 10)])
        line = heaviest_line(x)
        seg = segre_bound(x)
        assert len(x._levels) == 1 and len(x._levels[0]) == 45
        assert (heaviest_line(x), segre_bound(x)) == (line, seg)
        assert seg == segre_bound(fresh(x)) and line == heaviest_line(fresh(x))
        assert len(x._levels) == 1


class TestCardinalityEstimate:
    def test_collinear_double_points(self):
        x = FatPointScheme(QQ, 2, [(p, 2) for p in collinear_points(2, 3)])
        verdict = cardinality_estimate_check(x)
        assert verdict.ok

    def test_random(self):
        rng = rng_from_seed(53)
        done = 0
        while done < 15:
            x = random_scheme(rng, 2, 3, 2)
            if sum(x.mults) > 14:
                continue
            assert cardinality_estimate_check(x).ok
            done += 1

    def test_large_scheme_is_checked(self):
        # 15 and 32 ground elements: far beyond an exhaustive subset loop
        x = FatPointScheme(QQ, 2, [(p, 3) for p in collinear_points(2, 5)])
        assert cardinality_estimate_check(x) == CardinalityVerdict(True, 14)
        x = FatPointScheme(QQ, 3, [(p, 4) for p in generic_points(rng_from_seed(3), 3, 8)])
        assert cardinality_estimate_check(x).ok

    @settings(max_examples=200, deadline=None)
    @given(segre_schemes(max_copies=14))
    def test_agrees_with_exhaustive_oracle(self, x):
        # the negative control lowers seg by one, so the estimate often fails
        seg = segre_bound(x)[0]
        m = fat_point_vector_matroid(x)
        for value in (seg, seg - 1):
            with mock.patch("fatpointlab.bounds.segre_bound", return_value=(value, None)):
                verdict = cardinality_estimate_check(x)
            expected = cardinality_violation_exhaustive(m, value)
            assert verdict.ok == (expected is None)
            if not verdict.ok:
                subset = verdict.violating_subset
                r = m.rank(subset)
                assert r >= 2 and len(subset) > value * (r - 1) + 1


class TestMainTheorem:
    def test_two_fat_points_sharp(self):
        x = FatPointScheme(QQ, 2, [((1, 0, 0), 2), ((0, 1, 0), 3)])
        report = verify_main_theorem(x)
        assert report.verdict and report.sharp
        assert report.reg_index == report.segre == 4

    def test_generic_points_not_sharp(self):
        # 5 generic simple points in the plane: r = 2 but seg = 1 fails...
        # seg is ceil((2-1)/1) = 1 on lines through 2 points, 2 on the plane
        from fatpointlab.generators import generic_points

        pts = generic_points(rng_from_seed(54), 2, 5)
        x = FatPointScheme(QQ, 2, [(p, 1) for p in pts])
        report = verify_main_theorem(x)
        assert report.verdict
        assert report.reg_index == 2 and report.segre == 2

    def test_report_serialization_is_deterministic(self):
        x = FatPointScheme(QQ, 2, [((1, 0, 0), 2), ((0, 1, 0), 3)])
        d1 = verify_main_theorem(x).to_dict()
        d2 = verify_main_theorem(x).to_dict()
        assert d1 == d2


class TestPointsClearedOnce:
    def test_queries_do_not_clear_the_points_again(self, monkeypatch):
        # every point has a fractional coordinate, so clearing its given
        # coordinates shows as a call on a non-integer vector
        points = [("1/2", 0, 0), ("1/2", "1/2", 0), ("1/2", "3/2", 0),
                  ("2/3", "1/3", "1/3"), ("5/2", "1/7", 1)]
        x = FatPointScheme(QQ, 2, [(p, 2) for p in points])
        cleared = []

        def recorded(clear):
            def recording(field, values):
                values = tuple(values)
                cleared.append(values)
                return clear(field, values)

            return recording

        for module in (exact, schemes):
            monkeypatch.setattr(module, "integer_vector", recorded(module.integer_vector))
        assert regularity_index(x) == 5
        assert segre_bound(x)[0] == 5
        assert cardinality_estimate_check(x).ok
        assert cleared and all(type(v) is int for values in cleared for v in values)
        cleared.clear()
        queries = [("1/4", "3/4", 0), ("1/4", 0, "1/3")]
        assert x.contains_point(queries[0]) and not x.contains_point(queries[1])
        assert cleared == [tuple(map(QQ.elem, q)) for q in queries]


class TestSharpness:
    @pytest.mark.parametrize(
        "n,mults",
        [
            (1, (2, 2)),
            (2, (2, 2, 2)),
            (2, (1, 1, 1, 1, 1, 1)),
            (3, (2, 2, 2, 2)),
            (3, (1, 1, 1, 1, 1, 1, 1)),
        ],
    )
    def test_curve_configurations(self, n, mults):
        report = rational_normal_curve_sharpness(mults, n)
        assert report.hypothesis_met
        assert report.report.reg_index == report.report.segre


class TestSeparatingHypersurface:
    def test_basic_certificate(self):
        z = FatPointScheme(QQ, 2, [((1, 0, 0), 2), ((0, 1, 0), 1)])
        cert = separating_hypersurface(z, (0, 0, 1))
        assert cert.degree == 2  # seg(Z + P) on the heaviest line
        assert len(cert.hyperplanes) == cert.degree
        assert cert.verify(z)

    def test_point_on_scheme_rejected(self):
        z = FatPointScheme(QQ, 2, [((1, 0, 0), 1)])
        with pytest.raises(ValueError):
            separating_hypersurface(z, (3, 0, 0))

    def test_non_point_rejected(self):
        z = FatPointScheme(QQ, 2, [((1, 0, 0), 1)])
        with pytest.raises(ValueError, match="invalid projective point"):
            separating_hypersurface(z, (0, 0, 0))
        for coords in [(1, 0), (1, 0, 0, 1)]:
            with pytest.raises(ValueError, match="wrong number of coordinates"):
                separating_hypersurface(z, coords)

    def test_random_certificates(self):
        rng = rng_from_seed(55)
        done = 0
        while done < 10:
            z = random_scheme(rng, rng.randint(1, 2), 3, 2)
            cand = tuple(rng.randint(0, 6) for _ in range(z.n + 1))
            if all(c == 0 for c in cand) or z.contains_point(cand):
                continue
            cert = separating_hypersurface(z, cand)
            assert cert.verify(z)
            done += 1

    @pytest.mark.parametrize("p", [101, 10007])
    def test_pairing_reduced_mod_p(self, p):
        # the kernel vector (67, 1, 0, 0) over F_101 pairs with P to 101,
        # a multiple of p: it passes through P and must not be chosen
        field = ScalarField.prime(p)
        z = FatPointScheme(field, 3, [((9, 5, 4, 8), 2), ((6, 2, 0, 5), 3)])
        cert = separating_hypersurface(z, (6, 2, 2, 0))
        assert cert.verify(z)
        for h in cert.hyperplanes:
            assert sum(a * b for a, b in zip(h, cert.point)) % p != 0

    def test_tampered_certificate_fails(self):
        z = FatPointScheme(QQ, 2, [((1, 0, 0), 1), ((0, 1, 0), 1)])
        cert = separating_hypersurface(z, (1, 1, 1))
        poly = dict(cert.poly)
        # add an x0 term: the tampered product no longer vanishes at (1:0:0)
        key = (cert.degree,) + (0,) * z.n
        poly[key] = poly.get(key, 0) + 1
        assert not cert._replace(poly=poly).verify(z)


class TestModifiedBound:
    def test_degree_one_equals_segre(self):
        rng = rng_from_seed(56)
        done = 0
        while done < 20:
            x = random_scheme(rng, rng.randint(1, 3), 4, 3)
            if x.support_size < 2:
                continue
            seg, _ = segre_bound(x)
            mod, witness = modified_bound(x, 1)
            assert mod == seg
            done += 1

    def test_two_point_term(self):
        # for |Y| = 2 and d >= 1 the denominator is h_Y(d) - 1 = 1
        x = FatPointScheme(QQ, 2, [((1, 0, 0), 2), ((0, 1, 0), 3)])
        mod, witness = modified_bound(x, 2)
        assert mod == 2 * (2 + 3 - 1)
        assert witness.witness_subset == frozenset({0, 1})

    def test_upper_bounds_regularity(self):
        rng = rng_from_seed(57)
        done = 0
        while done < 10:
            x = random_scheme(rng, 2, 4, 2)
            if x.support_size < 2:
                continue
            r = regularity_index(x)
            for d in (1, 2, 3):
                mod, _ = modified_bound(x, d)
                assert r <= mod
            done += 1

    def test_guard(self):
        x = FatPointScheme(QQ, 2, [(p, 1) for p in collinear_points(2, 13)])
        with pytest.raises(GuardExceeded):
            modified_bound(x, 1)

    def test_validation(self):
        single = FatPointScheme(QQ, 2, [((1, 0, 0), 2)])
        with pytest.raises(ValueError):
            modified_bound(single, 1)
        x = FatPointScheme(QQ, 2, [((1, 0, 0), 1), ((0, 1, 0), 1)])
        with pytest.raises(ValueError):
            modified_bound(x, 0)


class TestGenericExample:
    def test_scaled_reproduction(self):
        report = reproduce_generic_example(n=2, d=2, m=1, seed=0)
        assert report.sound
        assert report.reg_index <= report.segre
        assert report.reg_index <= report.modified
