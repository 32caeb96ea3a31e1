"""Acceptance gate: the release criteria, one test per criterion.

Each test prints a single PASS line (visible with ``pytest -s``) and pins
its instance counts, size caps and runtime budgets explicitly.  Counts and
caps are hard requirements: do not lower them to make a failing criterion
pass.
"""

import time

from fatpointlab.bounds import (
    modified_bound,
    rational_normal_curve_sharpness,
    segre_bound,
    separating_hypersurface,
    verify_main_theorem,
)
from fatpointlab.constructions import (
    CountMatroid,
    count_matroid_rank_lower_bound_check,
)
from fatpointlab.exact import ScalarField
from fatpointlab.generators import (
    collinear_points,
    generic_vectors_matroid,
    random_vector_matroid,
    rng_from_seed,
)
from fatpointlab.partition import (
    AvoidanceProblem,
    InfeasibilityWitness,
    PartitionCertificate,
    avoidance_partition,
    edmonds_fulkerson_partition,
    verify_partition_optimality_example,
)
from fatpointlab.schemes import (
    FatPointScheme,
    ctv_decomposition_check,
    hilbert_function,
    regularity_index,
    subscheme,
    veronese_inequality_check,
)
from oracles import (
    brute_force_partition_oracle,
    check_rank_axioms,
    circuits,
    criterion_5_instances,
    random_scheme,
)

QQ = ScalarField.rational()


def test_criterion_1_main_theorem_suite():
    """>= 300 seeded random schemes (n <= 3, s <= 5, m_i <= 3, rational
    coordinates): r(X) <= seg(X) with zero failures, in <= 5 minutes."""
    budget = 300.0  # seconds
    count = 300
    rng = rng_from_seed(101)
    start = time.perf_counter()
    failures = 0
    for _ in range(count):
        n = rng.randint(1, 3)
        x = random_scheme(rng, n, 5, 3)
        report = verify_main_theorem(x)
        if not report.verdict:
            failures += 1
    elapsed = time.perf_counter() - start
    assert failures == 0
    assert elapsed <= budget, "main theorem suite exceeded %.0fs: %.1fs" % (budget, elapsed)
    print("PASS criterion 1: r(X) <= seg(X) on %d random schemes (%.1fs)" % (count, elapsed))


def test_criterion_2_sharpness_on_curves():
    """>= 20 rational-normal-curve configurations, n in {1,2,3}, uniform
    multiplicities: hypothesis met and r(X) = seg(X) exactly."""
    configs = []
    for s, m in [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (4, 2)]:
        configs.append((1, s, m))
    for s in (3, 4, 5, 6, 7):
        for m in (1, 2):
            configs.append((2, s, m))
    for s in (4, 5, 6, 7):
        configs.append((3, s, 1))
    for s in (4, 5):
        configs.append((3, s, 2))
    assert len(configs) >= 20
    checked = 0
    for n, s, m in configs:
        report = rational_normal_curve_sharpness([m] * s, n)
        assert report.hypothesis_met, (n, s, m, report.reason)
        assert report.report.reg_index == report.report.segre, (n, s, m)
        checked += 1
    print("PASS criterion 2: r = seg on %d curve configurations" % checked)


def test_criterion_3_partition_oracle_equivalence():
    """>= 200 random instances, |E| <= 10, k <= 3: the augmenting-path
    partitioner agrees with the brute-force oracle; certificates re-verify;
    witnesses violate the counting criterion."""
    rng = rng_from_seed(103)
    count = 200
    feasible = infeasible = 0
    for _ in range(count):
        dim = rng.randint(1, 4)
        size = rng.randint(2, 10)
        k = rng.randint(1, 3)
        matroids = [
            random_vector_matroid(rng, dim, size, coord_range=rng.choice([1, 2, 4]))
            for _ in range(k)
        ]
        result = edmonds_fulkerson_partition(matroids)
        expected = brute_force_partition_oracle(matroids)
        if isinstance(result, PartitionCertificate):
            assert expected
            assert result.verify()
            feasible += 1
        else:
            assert not expected
            assert isinstance(result, InfeasibilityWitness)
            assert result.size > result.rank_sum
            assert result.verify(matroids)
            infeasible += 1
    assert feasible + infeasible == count
    assert feasible >= 20 and infeasible >= 20, (feasible, infeasible)
    print(
        "PASS criterion 3: oracle agreement on %d instances (%d feasible, %d infeasible)"
        % (count, feasible, infeasible)
    )


def _avoidance_instance(rng):
    k = rng.randint(2, 4)
    p = rng.randint(1, k - 1)
    dim = rng.randint(2, 4)
    cap = min(12, k * dim - p)
    size = rng.randint(max(dim + 1, 4), max(cap, 4))
    size = min(size, cap)
    m = generic_vectors_matroid(rng, dim, size)
    return m, k, p


def test_criterion_4_avoidance_partition():
    """>= 100 instances satisfying |A| <= k*rk(A) - p (checked by the
    partition test, which tests/test_constructions.py compares with
    exhaustive enumeration; |E| <= 12, k <= 4, p < k): valid certificates
    with a_j outside cl(I_j), and prefix stability for every pinned length
    q in {0..p}."""
    rng = rng_from_seed(104)
    count = 100
    stability_checks = 0
    for i in range(count):
        m, k, p = _avoidance_instance(rng)
        elems = list(m.elements)
        targets = tuple(rng.choice(elems) for _ in range(p))
        cert = avoidance_partition(AvoidanceProblem(m, elems, k, p, tail=targets))
        assert cert.verify()
        for elem, j in cert.avoidance:
            assert elem not in m.closure(cert.blocks[j])
        # prefix stability: for every q, the first q blocks must not depend
        # on the tail; compare against runs with resampled tails
        for q in range(p + 1):
            pinned = targets[:q]
            for _ in range(2):
                alt_tail = tuple(rng.choice(elems) for _ in range(p - q))
                alt = avoidance_partition(
                    AvoidanceProblem(m, elems, k, p, pinned=pinned, tail=alt_tail)
                )
                assert alt.blocks[:q] == cert.blocks[:q], (i, q)
                stability_checks += 1
    print(
        "PASS criterion 4: %d avoidance certificates, %d prefix-stability checks"
        % (count, stability_checks)
    )


def test_criterion_5_count_matroid():
    """Rank axioms exhaustively for |E| <= 10; the circuit size law
    |C| = k*rk(C) - p + 1; the rank estimate on >= 50 hypothesis-satisfying
    instances."""
    axioms = 0
    circuit_count = 0
    estimates = 0
    for kind, base, k, p in criterion_5_instances(rng_from_seed(105)):
        if kind == "axioms":
            cm = CountMatroid(base, k, p)
            ok, why = check_rank_axioms(cm)
            assert ok, why
            axioms += 1
            for c in circuits(cm):
                assert len(c) == k * base.rank(c) - p + 1
                circuit_count += 1
        else:
            verdict = count_matroid_rank_lower_bound_check(base, k, p)
            assert verdict.holds, (k, p, len(base))
            estimates += 1
    assert axioms == 10 and estimates >= 50, (axioms, estimates)
    print(
        "PASS criterion 5: %d axiom checks, %d circuits, %d rank estimates"
        % (axioms, circuit_count, estimates)
    )


def test_criterion_6_hilbert_oracles():
    """Single fat point r(mP) = m - 1 (m <= 5, n <= 3); collinear points
    match the univariate interpolation oracle; subscheme monotonicity on
    >= 100 random pairs."""
    for n in (1, 2, 3):
        for m in (1, 2, 3, 4, 5):
            x = FatPointScheme(QQ, n, [(tuple([1] + [0] * n), m)])
            assert regularity_index(x) == m - 1, (n, m)
    for n in (2, 3):
        for s in (2, 3, 4, 6):
            x = FatPointScheme(QQ, n, [(p, 1) for p in collinear_points(n, s)])
            assert regularity_index(x) == s - 1
            for d in range(s + 1):
                assert hilbert_function(x, d) == min(d + 1, s)
    rng = rng_from_seed(106)
    pairs = 0
    while pairs < 100:
        x = random_scheme(rng, rng.randint(1, 2), 4, 3)
        new = tuple(rng.randint(0, m) for m in x.mults)
        if not any(new):
            continue
        z = subscheme(x, new)
        assert regularity_index(z) <= regularity_index(x)
        pairs += 1
    print("PASS criterion 6: fat point / collinear oracles and %d monotone pairs" % pairs)


def test_criterion_7_ctv_identity():
    """>= 100 random (Z, P, m) with m <= 3, n <= 3: the decomposition
    identity for r(Z + mP) holds."""
    rng = rng_from_seed(107)
    done = 0
    while done < 100:
        n = rng.choice([1, 1, 2, 2, 2, 3])
        z = random_scheme(rng, n, 3, 2)
        cand = tuple(rng.randint(0, 7) for _ in range(n + 1))
        if all(c == 0 for c in cand) or z.contains_point(cand):
            continue
        m = rng.randint(1, 3)
        verdict = ctv_decomposition_check(z.with_point(cand, m))
        assert verdict.ok, (z, cand, m, verdict)
        done += 1
    print("PASS criterion 7: decomposition identity on %d instances" % done)


def test_criterion_8_veronese():
    """>= 50 instances with d <= 3: ceil(r(X)/d) <= r(lift); in every n=1
    case meeting the pair condition, equality plus the closed form."""
    rng = rng_from_seed(108)
    done = 0
    equality_cases = 0
    while done < 50:
        if done % 6 == 5:
            n, max_pts, max_mult = 2, 3, 1
            d = 2
        else:
            n, max_pts, max_mult = 1, 3, 2
            d = rng.randint(2, 3)
        x = random_scheme(rng, n, max_pts, max_mult)
        verdict = veronese_inequality_check(x, d)
        assert verdict.ok, (x, d, verdict)
        if verdict.equality_case:
            assert verdict.lifted_reg_index == verdict.closed_form
            equality_cases += 1
        done += 1
    assert equality_cases >= 5
    print(
        "PASS criterion 8: inequality on %d lifts, closed form on %d equality cases"
        % (done, equality_cases)
    )


def test_criterion_9_modified_bound():
    """modified_bound(X, 1) = seg(X) whenever s >= 2; r(X) <= modified
    bound for d <= 3 on >= 50 instances."""
    rng = rng_from_seed(109)
    done = 0
    while done < 50:
        x = random_scheme(rng, rng.randint(1, 2), 4, 3)
        if x.support_size < 2:
            continue
        seg, _ = segre_bound(x)
        value1, _ = modified_bound(x, 1)
        assert value1 == seg, (x, value1, seg)
        r = regularity_index(x)
        for d in (2, 3):
            value, _ = modified_bound(x, d)
            assert r <= value, (x, d, r, value)
        done += 1
    print("PASS criterion 9: degree-1 agreement and upper bound on %d instances" % done)


def test_criterion_10_optimality_example():
    """The (t, k, p) = (4, 3, 1) partition-optimality example: hypothesis
    verified exhaustively, no qualifying independent set with <= t - 2
    elements; runtime <= 1 minute."""
    start = time.perf_counter()
    verdict = verify_partition_optimality_example(4, 3, 1)
    elapsed = time.perf_counter() - start
    assert verdict.hypothesis_holds
    assert verdict.confirmed
    assert elapsed <= 60.0, "optimality example exceeded 60s: %.1fs" % elapsed
    print("PASS criterion 10: optimality example confirmed (%.1fs)" % elapsed)


def test_criterion_11_separating_certificates():
    """>= 50 separating-hypersurface certificates re-verify: the product of
    hyperplanes lies in the degree-B ideal part and is nonzero at P."""
    rng = rng_from_seed(111)
    done = 0
    while done < 50:
        n = rng.randint(1, 2)
        z = random_scheme(rng, n, 3, 2)
        cand = tuple(rng.randint(0, 7) for _ in range(n + 1))
        if all(c == 0 for c in cand) or z.contains_point(cand):
            continue
        cert = separating_hypersurface(z, cand)
        assert cert.verify(z)
        done += 1
    print("PASS criterion 11: %d separating certificates re-verified" % done)
