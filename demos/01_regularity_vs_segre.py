"""Regularity index vs. the Segre bound.

A fat point scheme X = sum m_i P_i has a Hilbert function h_X(d) that
climbs to deg X and stays there; the regularity index r(X) is the first
degree where it arrives.  The Segre bound caps r(X) by a purely
combinatorial quantity: the worst ratio (weight - 1)/dim over linear
subspaces spanned by support points.
"""

from fatpointlab import (
    FatPointScheme,
    ScalarField,
    hilbert_function,
    regularity_index,
    verify_main_theorem,
)

QQ = ScalarField.rational()


def hilbert_profile(x):
    """{d: h_X(d)} for d = 0 .. r(X): the climb to deg X."""
    return {d: hilbert_function(x, d) for d in range(regularity_index(x) + 1)}


# Two fat points: a double point and a triple point on a line.
x = FatPointScheme(QQ, 2, [((1, 0, 0), 2), ((0, 1, 0), 3)])
print("scheme:", x)
print("degree:", x.degree())
print("hilbert function:", hilbert_profile(x))

report = verify_main_theorem(x)
print("regularity index r(X) =", report.reg_index)
print("segre bound  seg(X) =", report.segre)
print("attaining flat:", sorted(report.witness.flat),
      "(span dim %d, weight %d)" % (report.witness.span_dim, report.witness.weight))
print("r <= seg:", report.verdict, "| sharp:", report.sharp)

# Six simple points in general position in the plane: the bound is attained
# by the whole plane but the configuration is still regular early.
print()
from fatpointlab.generators import generic_points, rng_from_seed

pts = generic_points(rng_from_seed(0), 2, 6)
y = FatPointScheme(QQ, 2, [(p, 1) for p in pts])
report = verify_main_theorem(y)
print("six generic simple points: r = %d, seg = %d, sharp = %s"
      % (report.reg_index, report.segre, report.sharp))

# Points on a rational normal curve attain the bound exactly.
print()
from fatpointlab import rational_normal_curve_sharpness

sharp = rational_normal_curve_sharpness((2, 2, 2, 2), n=3)
print("four double points on the twisted cubic: r = seg =",
      sharp.report.reg_index)
