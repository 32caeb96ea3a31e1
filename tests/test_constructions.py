import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fatpointlab.constructions import (
    CountMatroid,
    count_matroid_rank_lower_bound_check,
    elementary_quotient,
    parallel_extension,
    verify_count_hypothesis,
)
from fatpointlab.exact import ExactMatrix, ScalarField
from fatpointlab.generators import (
    generic_vectors_matroid,
    random_vector_matroid,
    rng_from_seed,
)
from fatpointlab.matroid import VectorMatroid
from oracles import (
    check_rank_axioms,
    circuits,
    count_independent_exhaustive,
    count_violations_exhaustive,
    criterion_5_instances,
)

QQ = ScalarField.rational()


def vm(cols):
    return VectorMatroid(ExactMatrix.from_columns(QQ, cols))


def all_subsets(elems):
    elems = sorted(elems)
    for mask in range(1 << len(elems)):
        yield frozenset(elems[i] for i in range(len(elems)) if mask >> i & 1)


class TestCountMatroid:
    def test_requires_k_greater_than_p(self):
        with pytest.raises(ValueError):
            CountMatroid(vm([(1,)]), 1, 1)

    def test_free_case_equals_base(self):
        base = vm([(1, 0), (0, 1), (1, 1), (1, 2)])
        cm = CountMatroid(base, 1, 0)
        for sub in all_subsets(base.elements):
            assert cm.rank(sub) == base.rank(sub)

    def test_doubling_case_ground_independent(self):
        # four generic vectors in rank 2: |A| <= 2*rk(A) holds everywhere
        base = vm([(1, 0), (0, 1), (1, 1), (1, 2)])
        cm = CountMatroid(base, 2, 0)
        assert cm.is_independent(set(base.elements))

    def test_parallel_pair_dependent(self):
        base = vm([(1, 1), (2, 2), (1, 0)])
        cm = CountMatroid(base, 2, 1)
        assert not cm.is_independent({0, 1})  # 2 > 2*1 - 1
        assert cm.is_independent({0, 2})

    def test_subset_violation_is_detected(self):
        # {0,1,2} on one line violate |A| <= 2rk(A)-1 even though the full
        # 5-set satisfies the inequality globally (5 <= 2*3 - 1)
        base = vm([(1, 0, 0), (2, 0, 0), (3, 0, 0), (0, 1, 0), (0, 0, 1)])
        cm = CountMatroid(base, 2, 1)
        big = {0, 1, 2, 3, 4}
        assert len(big) <= 2 * base.rank(big) - 1
        assert not cm.is_independent(big)

    def test_circuit_size_law(self):
        rng = rng_from_seed(21)
        checked = 0
        for _ in range(12):
            base = random_vector_matroid(rng, rng.randint(2, 3), rng.randint(3, 6))
            k = rng.randint(1, 3)
            p = rng.randint(0, k - 1)
            cm = CountMatroid(base, k, p)
            for c in circuits(cm):
                if len(c) == 1:
                    # loops: the only circuits where f(C) can be negative
                    assert k * base.rank(c) <= p
                else:
                    assert len(c) == k * base.rank(c) - p + 1
                    checked += 1
        assert checked >= 5

    def test_axioms(self):
        rng = rng_from_seed(22)
        for _ in range(8):
            base = random_vector_matroid(rng, rng.randint(2, 3), rng.randint(3, 7))
            cm = CountMatroid(base, rng.randint(2, 3), rng.randint(0, 1))
            ok, why = check_rank_axioms(cm)
            assert ok, why


class TestHypothesisCheck:
    def test_returns_violating_subset(self):
        base = vm([(1, 0), (2, 0), (3, 0)])
        bad = verify_count_hypothesis(base, 2, 1)
        assert bad is not None and len(bad) > 2 * base.rank(bad) - 1

    def test_passes_generic(self):
        base = generic_vectors_matroid(rng_from_seed(23), 3, 5)
        assert verify_count_hypothesis(base, 2, 1) is None

    def test_large_ground_is_checked(self):
        # no size guard: 17 parallel vectors fail, 18 generic ones pass
        parallel = vm([(1,)] * 17)
        bad = verify_count_hypothesis(parallel, 2, 1)
        assert bad is not None and len(bad) > 2 * parallel.rank(bad) - 1
        base = generic_vectors_matroid(rng_from_seed(29), 4, 18)
        assert verify_count_hypothesis(base, 5, 2) is None
        bad = verify_count_hypothesis(base, 4, 2)  # 18 > 4*4 - 2
        assert bad is not None and len(bad) > 4 * base.rank(bad) - 2
        # a hidden violation: 22 <= 6*4 - 2, but 5 parallel vectors > 6*1 - 2
        cols = [base.matrix.column(j) for j in range(18)]
        hidden = vm(cols + [tuple(c * t for c in cols[0]) for t in (2, 3, 4, 5)])
        bad = verify_count_hypothesis(hidden, 6, 2)
        assert bad is not None and len(bad) > 6 * hidden.rank(bad) - 2

    def test_p_at_least_k_fails_on_a_singleton(self):
        base = vm([(1, 0), (0, 1)])
        assert verify_count_hypothesis(base, 2, 2) == frozenset({0})
        assert verify_count_hypothesis(base, 2, 1, ground=()) is None

    def test_foreign_ground_rejected(self):
        for k, p in ((2, 1), (2, 2)):
            with pytest.raises(ValueError):
                verify_count_hypothesis(vm([(1, 0), (0, 1)]), k, p, ground={0, 9})

    def test_negative_p_rejected(self):
        with pytest.raises(ValueError):
            verify_count_hypothesis(vm([(1,)]), 2, -1)
        with pytest.raises(ValueError):
            CountMatroid(vm([(1,)]), 2, -1)


class TestRankLowerBound:
    def test_single_element(self):
        verdict = count_matroid_rank_lower_bound_check(vm([(1, 0)]), 2, 0)
        assert verdict.holds and verdict.count_rank >= 1 and verdict.bound == 1

    def test_generic_six_in_rank_three(self):
        base = generic_vectors_matroid(rng_from_seed(24), 3, 6)
        verdict = count_matroid_rank_lower_bound_check(base, 2, 0)
        assert verdict.holds
        assert verdict.bound == 6 - 3 + 1

    def test_count_rank_matches_exhaustive_search(self):
        rng = rng_from_seed(25)
        for _ in range(6):
            dim = rng.randint(2, 3)
            base = generic_vectors_matroid(rng, dim, dim + rng.randint(1, 2))
            k, p = 2, 0
            verdict = count_matroid_rank_lower_bound_check(base, k, p)
            cm = CountMatroid(base, k, p)
            best = max(len(s) for s in all_subsets(base.elements) if cm.is_independent(s))
            assert verdict.count_rank == best

    def test_rejects_failing_hypothesis(self):
        base = vm([(1, 0), (2, 0), (3, 0), (4, 0)])
        with pytest.raises(ValueError):
            count_matroid_rank_lower_bound_check(base, 2, 1)


class TestElementaryQuotient:
    def test_rank_drops_by_one_outside_closure(self):
        # free on {e1, e2, e3}; quotient by e3 on ground {0, 1}
        amb = vm([(1, 0, 0), (0, 1, 0), (0, 0, 1)])
        q = elementary_quotient(amb, {0, 1}, 2)
        assert q.rank({0, 1}) == 2  # rk({0,1,2}) - 1
        assert q.rank({0}) == 1

    def test_pivot_in_closure_kills_rank(self):
        amb = vm([(1, 0), (0, 1), (1, 1)])
        q = elementary_quotient(amb, {0, 1}, 2)
        assert q.rank({0, 1}) == 1  # pivot lies in the span of {0,1}

    def test_pivot_inside_ground_becomes_loop(self):
        amb = vm([(1, 0), (0, 1)])
        q = elementary_quotient(amb, {0, 1}, 1)
        assert q.rank({1}) == 0
        assert q.rank({0}) == 1 and q.rank({0, 1}) == 1

    def test_ground_must_lie_in_ambient(self):
        amb = vm([(1, 0), (0, 1)])
        with pytest.raises(ValueError):
            elementary_quotient(amb, {0, 5}, 1)

    def test_pivot_must_exist(self):
        amb = vm([(1, 0), (0, 1)])
        with pytest.raises(ValueError):
            elementary_quotient(amb, {0}, 9)

    def test_quotient_is_a_matroid_and_rank_bounds(self):
        rng = rng_from_seed(26)
        for _ in range(10):
            amb = random_vector_matroid(rng, 3, 7)
            pivot = amb.elements[-1]
            ground = frozenset(amb.elements) - {pivot}
            q = elementary_quotient(amb, ground, pivot)
            ok, why = check_rank_axioms(q)
            assert ok, why
            for sub in all_subsets(ground):
                assert amb.rank(sub) - 1 <= q.rank(sub) <= amb.rank(sub)


class TestParallelExtension:
    def test_rank_preserved_and_copies_parallel(self):
        base = vm([(1, 0), (0, 1)])
        ext = parallel_extension(base, {0})
        copy = max(ext.elements)
        assert ext.copy_of[copy] == 0
        assert ext.full_rank() == base.full_rank()
        assert ext.rank({0, copy}) == 1

    def test_independence_characterization(self):
        rng = rng_from_seed(27)
        for _ in range(8):
            base = random_vector_matroid(rng, 3, 4)
            dup = frozenset([base.elements[0], base.elements[2]])
            ext = parallel_extension(base, dup)
            proj = {e: ext.copy_of.get(e, e) for e in ext.elements}
            for sub in all_subsets(ext.elements):
                projected = frozenset(proj[e] for e in sub)
                expected = len(projected) == len(sub) and base.is_independent(projected)
                assert ext.is_independent(sub) == expected

    def test_axioms(self):
        base = vm([(1, 0, 0), (0, 1, 0), (1, 1, 0), (0, 0, 1)])
        ext = parallel_extension(base, {1, 3})
        ok, why = check_rank_axioms(ext)
        assert ok, why

    def test_rejects_foreign_elements(self):
        with pytest.raises(ValueError):
            parallel_extension(vm([(1,)]), {5})

    def test_ranks_go_to_the_base_memo(self):
        base = vm([(1, 0), (0, 1), (1, 1)])
        ext = parallel_extension(base, [0, 2])  # copies 3 of 0 and 4 of 2
        assert ext.rank({0, 3, 4}) == 2
        assert ext._cache == {} and base._cache[frozenset({0, 2})] == 2

    def test_repeated_elements_get_several_copies(self):
        base = vm([(1, 0), (0, 1)])
        ext = parallel_extension(base, [1, 0, 1])
        assert ext.copy_of == {2: 0, 3: 1, 4: 1}
        assert ext.rank({1, 3, 4}) == 1
        assert ext.is_independent({0, 4}) and not ext.is_independent({3, 4})


class TestParallelExtensionQuotient:
    def test_avoided_element_becomes_loop(self):
        base = vm([(1, 0), (0, 1)])
        q = elementary_quotient(base, base.elements, 0)
        assert q.rank({0}) == 0
        assert q.rank({1}) == 1
        assert q.full_rank() == 1

    def test_parallel_class_becomes_loops(self):
        base = vm([(1, 1), (2, 2), (1, 0)])
        q = elementary_quotient(base, base.elements, 0)
        assert q.rank({1}) == 0  # parallel to the avoided element
        assert q.rank({2}) == 1

    def test_independent_iff_avoids_closure(self):
        rng = rng_from_seed(28)
        for _ in range(10):
            base = random_vector_matroid(rng, 3, 6)
            e = base.elements[rng.randrange(len(base.elements))]
            q = elementary_quotient(base, base.elements, e)
            for sub in all_subsets(frozenset(base.elements) - {e}):
                expected = base.is_independent(sub) and e not in base.closure(sub)
                assert q.is_independent(sub) == expected

    def test_rejects_foreign_element(self):
        with pytest.raises(ValueError):
            elementary_quotient(vm([(1,)]), {0}, 3)


@st.composite
def count_instances(draw):
    """A small vector matroid over Q with loops, parallels and degenerate
    coordinates, k <= 4 and 0 <= p < k."""
    dim = draw(st.integers(1, 3))
    vector = st.lists(st.integers(-2, 2), min_size=dim, max_size=dim)
    cols = draw(st.lists(vector, min_size=1, max_size=8))
    if draw(st.booleans()):
        # repeat some columns up to sign: parallel classes
        cols += [[-c for c in col] for col in draw(st.lists(st.sampled_from(cols), max_size=3))]
    k = draw(st.integers(1, 4))
    p = draw(st.integers(0, k - 1))
    base = vm([tuple(c) for c in cols])
    ground = draw(st.frozensets(st.sampled_from(base.elements)))
    return base, k, p, ground


class TestAgainstExhaustiveOracle:
    """The partition-based hypothesis check against subset enumeration."""

    def check(self, base, k, p, ground=None):
        expected = count_violations_exhaustive(base, k, p, ground=ground)
        bad = verify_count_hypothesis(base, k, p, ground=ground)
        assert (bad is None) == (not expected), (k, p, ground, expected[:1])
        if bad is not None:
            assert bad and bad <= frozenset(base.elements if ground is None else ground)
            assert len(bad) > k * base.rank(bad) - p
        return bad is None

    @settings(max_examples=150, deadline=None)
    @given(count_instances())
    def test_hypothesis_check_agrees(self, instance):
        base, k, p, ground = instance
        self.check(base, k, p)
        self.check(base, k, p, ground=ground)
        cm = CountMatroid(base, k, p)
        assert cm.is_independent(ground) == count_independent_exhaustive(base, k, p, ground)
        full = frozenset(base.elements)
        assert cm.is_independent(full) == count_independent_exhaustive(base, k, p, full)

    def test_every_criterion_5_instance(self):
        holds = 0
        for kind, base, k, p in criterion_5_instances(rng_from_seed(105)):
            if kind == "estimate":
                k, p = k + 1, p + 1  # the strengthened hypothesis
            holds += self.check(base, k, p)
            cm = CountMatroid(base, k, p)
            for size in (len(base) // 2, len(base)):
                subset = frozenset(base.elements[:size])
                assert cm.is_independent(subset) == count_independent_exhaustive(base, k, p, subset)
        assert holds >= 50
