"""The Segre bound, the modified bound, and executable certificates.

The Segre bound of X = sum m_i P_i maximizes ceil((w_L - 1)/dim L) over
positive-dimensional linear subspaces L, where w_L is the total
multiplicity of support points in L.  Replacing L by the span of the
support points it contains preserves the weight and cannot increase the
dimension, so the maximum is attained on spans of support subsets, that
is, on the flats of the support points' vector matroid.  The flats come
level by level from ``schemes.flat_levels``, which tells them apart by
projective keys and ranks nothing, for at most ``FLAT_ENUMERATION_GUARD``
support points; the scheme keeps that walk (``schemes.support_levels``),
so the lines its regularity search read are not found again.  The brute
force over every support subset that cross-checks the flats lives in
``tests/oracles.py``.

The cardinality estimate |S| <= seg*(rk S - 1) + 1 is a count-matroid
condition: a worst-case S holds every copy of each point it meets, so with
T = S - copies(P_i) it reads |T| <= seg*rk_{M/P_i}(T) - (m_i - 1), which
the augmenting-path partitioner tests per point (``tests/oracles.py`` keeps
the exhaustive loop over all subsets).
"""

from __future__ import annotations

from collections import namedtuple
from itertools import combinations
from math import prod
from operator import mul

from .exact import ExactMatrix, GuardExceeded, InternalError
from .schemes import (
    _ceil_div,
    conditions_matrix,
    hilbert_function,
    in_general_position,
    monomials,
    regularity_index,
    support_levels,
)

MODIFIED_BOUND_GUARD = 12
FLAT_ENUMERATION_GUARD = 24


class SegreWitness(namedtuple("SegreWitness", "flat span_dim weight value")):
    """An attaining linear subspace, recorded by the support points it
    contains (a frozenset of point indices), its dimension, their weight
    and the Segre value."""

    __slots__ = ()


class BoundReport(namedtuple("BoundReport", "reg_index segre witness verdict sharp")):
    """r(X), seg(X), the attaining ``SegreWitness``, whether r <= seg, and
    whether r == seg."""

    __slots__ = ()

    def to_dict(self):
        return {
            "reg_index": self.reg_index,
            "segre": self.segre,
            "witness": {
                "flat": sorted(self.witness.flat),
                "span_dim": self.witness.span_dim,
                "weight": self.witness.weight,
                "value": self.witness.value,
            },
            "verdict": self.verdict,
            "sharp": self.sharp,
            "modified": {},   # no bound fills it; kept so reports keep their keys
        }


def segre_bound(x):
    """seg(X) and an attaining witness flat, computed once per scheme.

    The candidates are the flats of rank >= 2 of the support points, for
    at most ``FLAT_ENUMERATION_GUARD`` points, checked before the walk is
    read: the levels of the scheme's one walk (``support_levels``), which
    ``heaviest_line`` may already have taken through the lines, continued
    from there to the full rank.  Ties are broken by smallest span
    dimension, then lexicographically smallest point subset, so witnesses
    are deterministic.  A heaviest single point, of value max m_i - 1, is
    the witness only where it beats every flat, and where there is no
    flat: a one-point scheme.

    Once the bound is known, the scheme keeps the lines of its walk, which
    ``heaviest_line`` reads, and drops the levels past them, which nothing
    reads again (``support_levels`` would walk to them afresh).
    """
    if x._segre is None:
        x._segre = _segre_bound(x)
        del x._levels[1:]
        x._walk = None
    return x._segre


def _segre_bound(x):
    mults = x.mults
    if x.support_size > FLAT_ENUMERATION_GUARD:
        raise GuardExceeded("ground set too large for exhaustive flat enumeration")
    best = None
    for dim, level in enumerate(support_levels(x), 1):
        for members in level:
            w = sum(mults[i] for i in members)
            value = _ceil_div(w - 1, dim)
            if value != (w + dim - 2) // dim:
                raise InternalError("floor and ceiling forms of the Segre value disagree")
            key = (-value, dim, sorted(members))
            if best is None or key < best[0]:
                best = (key, SegreWitness(members, dim, w, value))
    singleton = max(mults) - 1
    if best is None or singleton > best[1].value:
        i = mults.index(singleton + 1)
        return singleton, SegreWitness(frozenset([i]), 0, singleton + 1, singleton)
    return best[1].value, best[1]


class CardinalityVerdict(namedtuple("CardinalityVerdict", "ok segre violating_subset",
                                    defaults=(None,))):
    __slots__ = ()


def cardinality_estimate_check(z):
    """Verify |S| <= seg(Z)*(rk(S)-1) + 1 for every ground subset S of the
    fat-point vector matroid with rk(S) >= 2.

    Per support point P_i this is the count hypothesis with k = seg and
    p = m_i - 1 on the contraction M/P_i of the other points' copies (see
    the module docstring); a violating T there gives S = T + copies(P_i).
    """
    from .constructions import elementary_quotient, verify_count_hypothesis
    from .matroid import fat_point_vector_matroid

    seg, _ = segre_bound(z)
    m = fat_point_vector_matroid(z)
    end = 0
    for mult in z.mults:
        own = frozenset(range(end, end + mult))   # the copies of one point
        end += mult
        quotient = elementary_quotient(m, frozenset(m.elements) - own, min(own))
        bad = verify_count_hypothesis(quotient, seg, len(own) - 1)
        if bad is not None:
            subset = bad | own
            r = m.rank(subset)
            if r < 2 or len(subset) <= seg * (r - 1) + 1:
                raise InternalError("cardinality witness %r does not violate" % (sorted(subset),))
            return CardinalityVerdict(False, seg, subset)
    return CardinalityVerdict(True, seg)


class SeparatingCertificate(namedtuple("SeparatingCertificate", "degree hyperplanes poly point")):
    """A degree-B product of hyperplanes vanishing on Z but not at P:
    ``hyperplanes`` holds each one's covector of linear-form coefficients,
    ``poly`` maps exponent tuples to the product's coefficients."""

    __slots__ = ()

    def verify(self, z):
        coeffs = [self.poly.get(mon, 0) for mon in monomials(z.n, self.degree)]
        conds = conditions_matrix(z, self.degree)
        if any(conds.mul_vector(coeffs)):
            return False
        return _poly_eval(z.field, self.poly, self.point) != 0


def _poly_mul_linear(field, poly, lin):
    out = {}
    for expo, coeff in poly.items():
        for j, c in enumerate(lin):
            if not c:
                continue
            new = list(expo)
            new[j] += 1
            key = tuple(new)
            out[key] = out.get(key, 0) + coeff * c
    out = {k: field.elem(v) for k, v in out.items()}
    return {k: v for k, v in out.items() if v}


def _poly_eval(field, poly, coords):
    return field.elem(sum(coeff * prod(map(pow, coords, expo)) for expo, coeff in poly.items()))


def separating_hypersurface(z, p_coords):
    """The add-one-point certificate: B = seg(Z+P) hyperplanes whose product
    vanishes on Z to the required orders but not at P.

    Construction: partition the columns of the fat-point vector matroid of
    Z + B*P (``fat_point_vector_matroid``: Z's copies first, then P's B)
    into B independent sets, then pass a hyperplane through the non-P part
    of each block, chosen to miss P.
    """
    from .matroid import fat_point_vector_matroid
    from .partition import InfeasibilityWitness, edmonds_partition

    field = z.field
    p_coords = tuple(field.elem(c) for c in p_coords)
    if z.contains_point(p_coords):
        raise ValueError("point must be disjoint from Z")
    big_b, _ = segre_bound(z.with_point(p_coords, 1))
    matroid = fat_point_vector_matroid(z.with_point(p_coords, big_b))
    matrix = matroid.matrix
    n_z = matrix.ncols - big_b
    result = edmonds_partition(matroid, big_b)
    if isinstance(result, InfeasibilityWitness):
        raise InternalError(
            "partition infeasible, contradicting the Segre criterion; witness %r"
            % (sorted(result.subset),)
        )
    hyperplanes = []
    poly = {tuple([0] * (z.n + 1)): field.one()}
    for block in result.blocks:
        # a block holding only P: every hyperplane, the kernel of a zero row
        vectors = [matrix.column(i) for i in sorted(block) if i < n_z] or [[0] * (z.n + 1)]
        kernel = ExactMatrix(field, vectors).kernel_basis()
        lin = None
        for cand in kernel:
            if field.elem(sum(map(mul, cand, p_coords))):
                lin = cand
                break
        if lin is None:
            raise InternalError("P lies in the span of a block")
        hyperplanes.append(tuple(lin))
        poly = _poly_mul_linear(field, poly, lin)
    cert = SeparatingCertificate(big_b, tuple(hyperplanes), poly, p_coords)
    if not cert.verify(z):
        raise InternalError("separating certificate failed re-check")
    return cert


def verify_main_theorem(x):
    """Compute r(X) and seg(X) independently and package the comparison."""
    r = regularity_index(x)
    seg, witness = segre_bound(x)
    return BoundReport(r, seg, witness, r <= seg, r == seg)


class SharpnessReport(namedtuple("SharpnessReport", "hypothesis_met report reason",
                                 defaults=(None, ""))):
    __slots__ = ()


def rational_normal_curve_sharpness(mults, n):
    """Sharpness on rational normal curve configurations: points at
    t = 0, 1, 2, ... on (1 : t : ... : t^n).

    The corollary applies when the support points inside an attaining flat
    are in linearly general position there (curve points always are, and
    then they lie on a rational normal curve of the flat), which
    ``in_general_position`` decides on their keys, ranking nothing; in that
    case r(X) = seg(X) is checked, and a violation raises InternalError.
    """
    from .generators import rational_normal_curve_scheme

    x = rational_normal_curve_scheme(n, list(mults))
    report = verify_main_theorem(x)
    witness = report.witness
    if witness.span_dim < 1:
        return SharpnessReport(False, report, "attained only by a single point")
    if not in_general_position(x.field, [x.keys[i] for i in sorted(witness.flat)], witness.span_dim + 1):
        return SharpnessReport(False, report, "corollary hypothesis not met")
    if report.reg_index != report.segre:
        raise InternalError(
            "sharpness violated on a curve configuration: r=%d seg=%d"
            % (report.reg_index, report.segre)
        )
    return SharpnessReport(True, report)


class ModifiedBoundResult(namedtuple("ModifiedBoundResult", "value witness_subset degree")):
    __slots__ = ()


def modified_bound(x, d):
    """The Veronese-modified regularity bound: maximize
    d * ceil((-1 + sum_{P_i in Y} m_i)/(h_Y(d) - 1)) over support subsets Y
    with at least two points, where h_Y(d) is the Hilbert function of the
    reduced scheme on Y."""
    s = x.support_size
    if s < 2:
        raise ValueError("modified bound needs at least two support points")
    if s > MODIFIED_BOUND_GUARD:
        raise GuardExceeded("support too large for subset enumeration")
    if d < 1:
        raise ValueError("degree must be >= 1")
    best = None
    for size in range(2, s + 1):
        for combo in combinations(range(s), size):
            h = hilbert_function(x._part([int(i in combo) for i in range(s)]), d)
            denom = h - 1
            if denom <= 0:
                raise InternalError("h_Y(d) = 1 with |Y| >= 2, d >= 1")
            w = sum(x.points[i][1] for i in combo)
            value = d * _ceil_div(w - 1, denom)
            key = (-value, size, combo)
            if best is None or key < best[0]:
                best = (key, ModifiedBoundResult(value, frozenset(combo), d))
    return best[1].value, best[1]


class GenericExampleReport(namedtuple("GenericExampleReport",
                                      "reg_index segre modified degree sound improved")):
    __slots__ = ()


def reproduce_generic_example(n=2, d=2, m=1, seed=0):
    """Scaled-down reproduction of the many-generic-points comparison:
    five fixed points plus binom(d+n, n) generic ones, all of multiplicity
    m; reports r(X), seg(X) and the modified bound at degree d."""
    from .generators import five_plus_generic_scheme, rng_from_seed

    x = five_plus_generic_scheme(rng_from_seed(seed), n, d, m)
    r = regularity_index(x)
    seg, _ = segre_bound(x)
    mod, _ = modified_bound(x, d)
    sound = r <= seg and r <= mod
    return GenericExampleReport(r, seg, mod, d, sound, mod < seg)
