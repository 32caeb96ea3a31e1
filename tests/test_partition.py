import pytest

from fatpointlab.exact import ExactMatrix, GuardExceeded, ScalarField
from fatpointlab.generators import (
    generic_vectors_matroid,
    random_vector_matroid,
    rng_from_seed,
)
from fatpointlab.matroid import VectorMatroid
from fatpointlab.partition import (
    AvoidanceProblem,
    InfeasibilityWitness,
    PartitionCertificate,
    avoidance_partition,
    edmonds_fulkerson_partition,
    edmonds_partition,
    inductive_split,
    verify_partition_optimality_example,
)
from oracles import brute_force_partition_oracle

QQ = ScalarField.rational()


def vm(cols):
    return VectorMatroid(ExactMatrix.from_columns(QQ, cols))


class TestEdmondsFulkerson:
    def test_two_bases_of_rank_two(self):
        m = vm([(1, 0), (0, 1), (1, 1), (1, 2)])
        cert = edmonds_fulkerson_partition([m, m])
        assert isinstance(cert, PartitionCertificate)
        assert sorted(sorted(b) for b in cert.blocks) == [[0, 1], [2, 3]]
        assert cert.verify()

    def test_three_parallel_vectors_infeasible(self):
        m = vm([(1, 1), (2, 2), (3, 3)])
        witness = edmonds_fulkerson_partition([m, m])
        assert isinstance(witness, InfeasibilityWitness)
        assert witness.subset == frozenset({0, 1, 2})
        assert witness.size == 3 and witness.rank_sum == 2
        assert witness.verify([m, m])

    def test_single_free_matroid(self):
        m = vm([(1, 0, 0), (0, 1, 0), (0, 0, 1)])
        cert = edmonds_partition(m, 1)
        assert cert.blocks == (frozenset({0, 1, 2}),)

    def test_mixed_matroids(self):
        # rank-1 matroid and rank-2 matroid on the same three elements
        m1 = vm([(1, 1), (1, 1), (1, 1)])
        m2 = vm([(1, 0), (0, 1), (1, 1)])
        cert = edmonds_fulkerson_partition([m1, m2])
        assert isinstance(cert, PartitionCertificate) and cert.verify()

    def test_requires_common_ground(self):
        with pytest.raises(ValueError):
            edmonds_fulkerson_partition([vm([(1,)]), vm([(1,), (2,)])])

    def test_deterministic(self):
        m1 = vm([(1, 0), (0, 1), (1, 1), (1, 2), (2, 1)])
        m2 = vm([(1, 0), (0, 1), (1, 1), (1, 2), (2, 1)])
        c1 = edmonds_fulkerson_partition([m1, m1, m1])
        c2 = edmonds_fulkerson_partition([m2, m2, m2])
        assert c1.blocks == c2.blocks

    def test_agrees_with_brute_force(self):
        rng = rng_from_seed(31)
        feasible = infeasible = 0
        for _ in range(60):
            dim = rng.randint(1, 3)
            count = rng.randint(2, 7)
            k = rng.randint(1, 3)
            matroids = [random_vector_matroid(rng, dim, count) for _ in range(k)]
            result = edmonds_fulkerson_partition(matroids)
            expected = brute_force_partition_oracle(matroids)
            if isinstance(result, PartitionCertificate):
                assert expected and result.verify()
                feasible += 1
            else:
                assert not expected and result.verify(matroids)
                infeasible += 1
        assert feasible >= 5 and infeasible >= 5


class TestBruteForceOracle:
    def test_guards(self):
        big = vm([(1, 0)] * 13)
        with pytest.raises(GuardExceeded):
            brute_force_partition_oracle([big])
        small = vm([(1, 0)])
        with pytest.raises(GuardExceeded):
            brute_force_partition_oracle([small] * 5)


class TestInductiveSplit:
    def test_basic_split(self):
        # basis of rank 3; avoid the vector e1+e2+e3 sitting outside the ground
        amb = vm([(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)])
        block, rest = inductive_split(amb, {0, 1, 2}, 3, 1, 0)
        assert amb.is_independent(block)
        assert amb.rank(block | {3}) == amb.rank(block) + 1
        # the remainder satisfies |B| <= 1*rk(B) - 0, i.e. it is independent
        assert amb.is_independent(rest)

    def test_pivot_inside_ground(self):
        amb = vm([(1, 0), (0, 1), (1, 1), (1, 2)])
        block, rest = inductive_split(amb, frozenset(amb.elements), 0, 2, 1)
        assert amb.is_independent(block)
        assert 0 not in amb.closure(block)
        assert block | rest == frozenset(amb.elements)

    def test_hypothesis_violation_rejected(self):
        amb = vm([(1, 1), (2, 2), (0, 1)])
        with pytest.raises(ValueError):
            inductive_split(amb, {0, 1}, 2, 1, 0)  # needs |A| <= 2rk(A)-1


class TestAvoidancePartition:
    def test_p_zero_reduces_to_plain_partition(self):
        amb = vm([(1, 0), (0, 1), (1, 1), (1, 2)])
        cert = avoidance_partition(AvoidanceProblem(amb, amb.elements, 2, 0))
        plain = edmonds_partition(amb.restrict(frozenset(amb.elements)), 2)
        assert cert.blocks == plain.blocks
        assert cert.avoidance == ()

    def test_avoidance_constraint_holds(self):
        amb = generic_vectors_matroid(rng_from_seed(32), 3, 7)
        targets = (amb.elements[0], amb.elements[1])
        cert = avoidance_partition(
            AvoidanceProblem(amb, amb.elements, 4, 2, pinned=(), tail=targets)
        )
        assert cert.verify()
        for elem, j in cert.avoidance:
            assert elem not in amb.closure(cert.blocks[j])

    def test_prefix_stability(self):
        amb = generic_vectors_matroid(rng_from_seed(33), 3, 8)
        e = amb.elements
        base = avoidance_partition(
            AvoidanceProblem(amb, e, 4, 2, pinned=(e[0],), tail=(e[1],))
        )
        for other_tail in (e[2], e[3], e[4]):
            alt = avoidance_partition(
                AvoidanceProblem(amb, e, 4, 2, pinned=(e[0],), tail=(other_tail,))
            )
            assert alt.blocks[0] == base.blocks[0]

    def test_remark_reformulation(self):
        # a_j outside cl(I_j) iff I_j independent in the quotient by a_j
        from fatpointlab.constructions import elementary_quotient

        amb = generic_vectors_matroid(rng_from_seed(34), 3, 7)
        cert = avoidance_partition(
            AvoidanceProblem(amb, amb.elements, 3, 1, tail=(amb.elements[2],))
        )
        (elem, j), = cert.avoidance
        q = elementary_quotient(amb, amb.elements, elem)
        assert q.is_independent(cert.blocks[j])

    def test_hypothesis_violation_rejected(self):
        amb = vm([(1, 1), (2, 2), (3, 3)])
        with pytest.raises(ValueError):
            avoidance_partition(AvoidanceProblem(amb, amb.elements, 2, 1, tail=(0,)))

    def test_large_ground_is_checked(self):
        # 17 vectors in rank 2, none parallel: |A| <= 9*rk(A) holds
        amb = vm([(i + 1, 1, 0) for i in range(17)])
        cert = avoidance_partition(AvoidanceProblem(amb, amb.elements, 9, 0))
        assert cert.verify()
        with pytest.raises(ValueError):
            avoidance_partition(AvoidanceProblem(amb, amb.elements, 8, 0))  # 17 > 8*2

    def test_mismatched_targets_rejected(self):
        amb = vm([(1, 0), (0, 1)])
        with pytest.raises(ValueError, match="must have length p"):
            avoidance_partition(AvoidanceProblem(amb, amb.elements, 3, 2, pinned=(0,), tail=()))

    def test_mismatched_targets_rejected_after_replace(self):
        # _replace and _make skip the constructor; the count is checked
        # where the problem is solved, so they get the same ValueError
        amb = generic_vectors_matroid(rng_from_seed(34), 3, 7)
        problem = AvoidanceProblem(amb, amb.elements, 3, 1, tail=(0,))
        for bad in (problem._replace(p=2), AvoidanceProblem._make((amb, problem.ground, 3, 1, (0,), (1,)))):
            with pytest.raises(ValueError, match="pinned prefix plus tail must have length p"):
                avoidance_partition(bad)


class TestOptimalityExample:
    def test_confirmed_for_t4_k3_p1(self):
        verdict = verify_partition_optimality_example(4, 3, 1)
        assert verdict.hypothesis_holds
        assert verdict.confirmed
        assert verdict.ground_size == 4 * (3 - 1)
        assert verdict.rank == 3
        # for rank-1 subsets of E minus any candidate, the bound k-1-p = 1
        assert 3 - 1 - 1 == 1

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            verify_partition_optimality_example(4, 2, 2)  # needs k > p
        with pytest.raises(ValueError):
            verify_partition_optimality_example(2, 3, 1)  # t too small
        with pytest.raises(ValueError):
            verify_partition_optimality_example(6, 5, 4)  # t too large


def test_certificate_serialization():
    m = vm([(1, 0), (0, 1), (1, 1), (1, 2)])
    cert = edmonds_fulkerson_partition([m, m])
    d = cert.to_dict()
    assert d["blocks"] == [[0, 1], [2, 3]] and d["avoidance"] == []
    w = edmonds_fulkerson_partition([vm([(1, 1), (2, 2), (3, 3)])] * 2)
    assert w.to_dict() == {"subset": [0, 1, 2], "size": 3, "rank_sum": 2}
