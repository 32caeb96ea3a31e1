import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fatpointlab import bounds, exact, schemes
from fatpointlab.bounds import FLAT_ENUMERATION_GUARD, rational_normal_curve_sharpness, segre_bound
from fatpointlab.exact import ExactMatrix, GuardExceeded, ScalarField
from fatpointlab.generators import (
    generic_points,
    generic_vectors_matroid,
    random_vector_matroid,
    rng_from_seed,
)
from fatpointlab.matroid import RankOracle, VectorMatroid, fat_point_vector_matroid, independent_sets
from fatpointlab.schemes import FatPointScheme, flat_levels, heaviest_line, in_general_position
from oracles import check_rank_axioms, circuits, closures_exhaustive, general_position_exhaustive

QQ = ScalarField.rational()
FP = ScalarField.prime(10007)


def vm(field, cols):
    return VectorMatroid(ExactMatrix.from_columns(field, cols))


def simple(n, coords_list):
    return FatPointScheme(QQ, n, [(c, 1) for c in coords_list])


class TestIndependenceAndClosure:
    def test_standard_basis_independent(self):
        m = vm(QQ, [(1, 0, 0), (0, 1, 0), (0, 0, 1)])
        assert m.is_independent({0, 1, 2})

    def test_dependent_sum(self):
        m = vm(QQ, [(1, 0), (0, 1), (1, 1)])
        assert not m.is_independent({0, 1, 2})
        assert m.is_independent({0, 2})

    def test_closure_of_plane(self):
        # e1, e2, e1+e2, e3: the closure of {e1, e2} picks up e1+e2 only
        m = vm(QQ, [(1, 0, 0), (0, 1, 0), (1, 1, 0), (0, 0, 1)])
        assert m.closure({0, 1}) == frozenset({0, 1, 2})
        assert m.closure({0, 1, 2, 3}) == frozenset({0, 1, 2, 3})

    def test_closure_extensive_idempotent_monotone(self):
        rng = rng_from_seed(11)
        for _ in range(20):
            m = random_vector_matroid(rng, 3, 6)
            sub = frozenset(e for e in m.elements if rng.random() < 0.5)
            cl = m.closure(sub)
            assert sub <= cl
            assert m.closure(cl) == cl
            assert m.rank(cl) == m.rank(sub)
            bigger = sub | {rng.choice(m.elements)}
            assert m.closure(sub) <= m.closure(bigger) or not sub <= bigger

    def test_subset_outside_ground_rejected(self):
        m = vm(QQ, [(1, 0)])
        with pytest.raises(ValueError):
            m.rank({5})


class TestCircuits:
    def test_free_matroid_no_circuits(self):
        assert circuits(vm(QQ, [(1, 0), (0, 1)])) == []

    def test_parallel_pair(self):
        m = vm(QQ, [(1, 2), (2, 4), (0, 1)])
        assert circuits(m) == [frozenset({0, 1})]

    def test_four_generic_in_rank_three(self):
        m = vm(QQ, [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)])
        assert circuits(m) == [frozenset({0, 1, 2, 3})]

    def test_loop_is_a_circuit(self):
        m = vm(QQ, [(0, 0), (1, 0)])
        assert circuits(m) == [frozenset({0})]

    def test_guard(self):
        m = RankOracle(range(25), lambda fs: min(len(fs), 3))
        with pytest.raises(GuardExceeded):
            circuits(m)


@st.composite
def support_points(draw):
    """(field, n, keys): up to seven distinct points of P^n, n <= 4, over
    Q, F_7 or F_10007, as keys.  A point is free or a combination of two
    or three base vectors, so clusters on lines and planes occur, and
    coordinates come from -3..3 or within 10^4 of +-10^100.  Projectively
    equal and zero vectors are dropped."""
    field = draw(st.sampled_from([QQ, ScalarField.prime(7), ScalarField.prime(10007)]))
    n = draw(st.integers(1, 4))
    entry = st.one_of(st.integers(-3, 3), st.builds(lambda m, sign: sign * m,
                                                    st.integers(10**100 - 10**4, 10**100 + 10**4),
                                                    st.sampled_from([1, -1])))
    vector = st.lists(entry, min_size=n + 1, max_size=n + 1)
    base = draw(st.lists(vector, min_size=3, max_size=3))
    combination = st.lists(st.integers(-3, 3), min_size=3, max_size=3).map(
        lambda w: [sum(c * v[j] for c, v in zip(w, base)) for j in range(n + 1)])
    on_a_line = combination.map(lambda v: v[:2] + [0] * (n - 1))
    keys = []
    for coords in draw(st.lists(st.one_of(vector, combination, on_a_line), min_size=1, max_size=7)):
        elems = [field.elem(c) for c in coords]
        if any(elems) and schemes._point_key(field, elems) not in keys:
            keys.append(schemes._point_key(field, elems))
    assume(keys)
    return field, n, keys


@st.composite
def clustered_points(draw):
    """(field, n, keys): up to eight distinct points of P^n, n <= 4, over
    Q, F_7 or F_10007, as keys, in drawn order.  Most come in clusters,
    each drawn from a random subspace of dimension 1 to n (combinations of
    its spanning vectors), the rest are free, so that several flats lie in
    the same hyperplane.  Projectively equal and zero vectors are
    dropped."""
    field = draw(st.sampled_from([QQ, ScalarField.prime(7), ScalarField.prime(10007)]))
    n = draw(st.integers(1, 4))
    vector = st.lists(st.integers(-5, 5), min_size=n + 1, max_size=n + 1)
    coords = []
    for dim in draw(st.lists(st.integers(1, n), min_size=1, max_size=3)):
        base = draw(st.lists(vector, min_size=dim + 1, max_size=dim + 1))
        weights = st.lists(st.integers(-3, 3), min_size=dim + 1, max_size=dim + 1)
        coords += [[sum(c * v[j] for c, v in zip(w, base)) for j in range(n + 1)]
                   for w in draw(st.lists(weights, min_size=2, max_size=4))]
    coords += draw(st.lists(vector, max_size=2))
    keys = []
    for v in draw(st.permutations(coords)):
        elems = [field.elem(c) for c in v]
        if any(elems) and schemes._point_key(field, elems) not in keys:
            keys.append(schemes._point_key(field, elems))
    assume(keys)
    return field, n, keys[:8]


def check_levels(field, n, keys):
    """``flat_levels`` of the points with these keys against the closures
    of every subset by ranks: one level per rank from 2 to the full rank,
    each with every flat of its rank once."""
    x = FatPointScheme(field, n, [(k, 1) for k in keys])
    rank = ExactMatrix.from_columns(field, keys).rank_of_column_subset
    flats = closures_exhaustive(rank, range(len(keys)))
    levels = list(flat_levels(x))
    assert len(levels) == max(0, rank(range(len(keys))) - 1)
    for r, level in enumerate(levels, 2):
        assert len(level) == len(set(level))
        assert set(level) == {f for f in flats if rank(f) == r}


class TestFlats:
    """The flats of a scheme's support points, found by projective keys
    (``flat_levels``), against the closures of every subset by ranks."""

    @given(support_points())
    @settings(max_examples=200, deadline=None)
    def test_equals_exhaustive_closure(self, case):
        check_levels(*case)

    @given(clustered_points())
    @settings(max_examples=200, deadline=None)
    def test_clusters_equal_exhaustive_closure(self, case):
        # many flats share a hyperplane, so the last level's walk skips the
        # points of the hyperplanes already found through a flat; general
        # position on the same points agrees with its oracle
        field, n, keys = case
        check_levels(field, n, keys)
        m = vm(field, keys)
        for k in range(n + 3):
            assert in_general_position(field, keys, k) == general_position_exhaustive(
                m, m.elements, k)

    def test_three_independent_columns_min_rank_two(self):
        x = simple(2, [(1, 0, 0), (0, 1, 0), (0, 0, 1)])
        lines, plane = flat_levels(x)
        assert sorted(map(sorted, lines)) == [[0, 1], [0, 2], [1, 2]]
        assert plane == [frozenset({0, 1, 2})]

    def test_rank_one_matroid_has_no_rank_two_flats(self):
        assert list(flat_levels(simple(2, [(1, 2, 3)]))) == []

    def test_guard(self):
        # walking every flat is refused past the guard's support size; the
        # rank-2 level alone (the heaviest line) is not
        points = generic_points(rng_from_seed(12), 2, FLAT_ENUMERATION_GUARD + 1, coord_range=1000)
        with pytest.raises(GuardExceeded, match="flat enumeration"):
            segre_bound(simple(2, points))
        assert heaviest_line(simple(2, points)) == [0, 1]

    def test_rank_queries_on_twenty_generic_points(self, monkeypatch):
        # none: the 190 lines and the plane come from keys alone
        def refuse(*args):
            raise AssertionError("a rank was queried")

        x = simple(2, generic_points(rng_from_seed(12), 2, 20, coord_range=1000))
        monkeypatch.setattr(exact, "_rank_of_rows", refuse)
        lines, plane = flat_levels(x)
        assert sorted(map(len, lines)) == [2] * 190 and plane == [frozenset(range(20))]

    def test_singleton_ranks_need_no_elimination(self, monkeypatch):
        # a column is a loop iff it is zero, so closures ask no one-column
        # rank
        points = generic_points(rng_from_seed(12), 2, 20, coord_range=1000)
        widths = []
        ranked = ExactMatrix.rank_of_column_subset

        def counted(matrix, cols):
            widths.append(len(cols))
            return ranked(matrix, cols)

        monkeypatch.setattr(ExactMatrix, "rank_of_column_subset", counted)
        assert vm(QQ, points).closure({0, 1}) == {0, 1}
        m = vm(FP, [(0, 0), (1, 2)])
        assert m.closure(()) == {0} and m.rank({1}) == 1
        assert widths and 1 not in widths


@st.composite
def general_position_instances(draw):
    """(field, columns, elements, k): columns in dimension 1..4 over Q,
    F_10007 or F_3 with zero columns and parallel classes (scaled copies of
    a column), where over F_3 a nonzero integer column can vanish mod p, a
    subset of the column indices in some order, and k in 0..5."""
    field = draw(st.sampled_from([QQ, FP, ScalarField.prime(3)]))
    dim = draw(st.integers(1, 4))
    vector = st.tuples(*[st.integers(-3, 3)] * dim)
    columns = []
    for v in draw(st.lists(vector, min_size=1, max_size=6)):
        for scale in draw(st.lists(st.integers(1, 3), min_size=1, max_size=3)):
            columns.append(tuple(scale * c for c in v))
    columns += [(0,) * dim] * draw(st.integers(0, 2))
    columns = draw(st.permutations(columns))
    elements = draw(st.lists(st.sampled_from(range(len(columns))), unique=True, max_size=7))
    return field, columns, elements, draw(st.integers(0, 5))


class TestGeneralPosition:
    @given(general_position_instances())
    @settings(max_examples=300, deadline=None)
    def test_matches_every_subset_size(self, instance):
        field, columns, elements, k = instance
        expected = general_position_exhaustive(vm(field, columns), elements, k)
        assert in_general_position(field, [columns[e] for e in elements], k) == expected

    def test_ranks_nothing(self, monkeypatch):
        # the generators certify, and the sharpness check reads its
        # hypothesis, by keys: with every exact rank refused outside the
        # sharpness check's own regularity search, their results are those
        # of an unpatched run
        def run():
            return (generic_points(rng_from_seed(3), 3, 12),
                    generic_points(rng_from_seed(4), 2, 6, field=ScalarField.prime(101)),
                    generic_vectors_matroid(rng_from_seed(5), 4, 9).matrix.entries,
                    [(r.hypothesis_met, r.reason, r.report.to_dict())
                     for r in (rational_normal_curve_sharpness(mults, n)
                               for mults, n in (((3, 3, 2, 2), 2), ((1,) * 8, 3)))])

        expected = run()
        real_rank, real_verify = exact._rank_of_rows, bounds.verify_main_theorem
        armed = [True]

        def refuse(*args, **kwargs):
            if armed[0]:
                raise AssertionError("a rank was queried")
            return real_rank(*args, **kwargs)

        def unarmed(x):
            armed[0] = False
            try:
                return real_verify(x)
            finally:
                armed[0] = True

        monkeypatch.setattr(exact, "_rank_of_rows", refuse)
        monkeypatch.setattr(bounds, "verify_main_theorem", unarmed)
        with pytest.raises(AssertionError, match="a rank was queried"):
            vm(QQ, [(1, 0), (0, 1)]).is_independent({0, 1})
        assert run() == expected


class TestIndependentSets:
    def test_counts_uniform(self):
        # U_{2,3}: 1 empty + 3 singletons + 3 pairs
        m = vm(QQ, [(1, 0), (0, 1), (1, 1)])
        assert len(independent_sets(m)) == 7


class TestFatPointMatroid:
    def scheme(self):
        return FatPointScheme(QQ, 2, [((1, 0, 0), 2), ((0, 1, 0), 1), ((1, 1, 1), 3)])

    def test_ground_size_and_rank(self):
        m = fat_point_vector_matroid(self.scheme())
        assert len(m) == 6
        assert m.full_rank() == 3

    def test_labels_and_parallel_copies(self):
        m = fat_point_vector_matroid(self.scheme())
        assert m.rank({0, 1}) == 1  # copies of the same point are parallel
        assert m.rank({0, 2}) == 2

    def test_rank_vs_projective_span(self):
        # rank of a subset = 1 + projective dimension of the span
        x = self.scheme()
        m = fat_point_vector_matroid(x)
        matrix = ExactMatrix.from_columns(QQ, [c for c, _ in x.points])
        for sub, pts in [({0, 3}, [0, 2]), ({0, 2, 3}, [0, 1, 2]), ({0, 1}, [0])]:
            assert m.rank(sub) == matrix.rank_of_column_subset(pts)


class TestAxioms:
    @pytest.mark.parametrize("field", [QQ, FP])
    def test_random_vector_matroids(self, field):
        rng = rng_from_seed(12)
        for _ in range(15):
            m = random_vector_matroid(rng, rng.randint(2, 4), rng.randint(2, 8), field=field)
            ok, why = check_rank_axioms(m)
            assert ok, why

    def test_detects_broken_oracle(self):
        bad = RankOracle(range(3), lambda fs: len(fs) % 2)  # not monotone
        ok, why = check_rank_axioms(bad)
        assert not ok

    def test_guard(self):
        m = RankOracle(range(11), len)
        with pytest.raises(ValueError):
            check_rank_axioms(m)


def test_rescaled_representatives_same_matroid():
    rng = random.Random(13)
    for _ in range(10):
        cols = [tuple(rng.randint(-4, 4) for _ in range(3)) for _ in range(5)]
        cols = [c if any(c) else (1, 0, 0) for c in cols]
        scales = [rng.choice([1, 2, -5]) for _ in cols]
        scaled = [tuple(s * x for x in c) for s, c in zip(scales, cols)]
        m1, m2 = vm(QQ, cols), vm(QQ, scaled)
        for mask in range(1 << 5):
            sub = {i for i in range(5) if mask >> i & 1}
            assert m1.rank(sub) == m2.rank(sub)


def test_max_independent_subset_is_a_basis():
    rng = rng_from_seed(14)
    for _ in range(15):
        m = random_vector_matroid(rng, 3, 7)
        basis = m.max_independent_subset()
        assert m.is_independent(basis)
        assert len(basis) == m.full_rank()
