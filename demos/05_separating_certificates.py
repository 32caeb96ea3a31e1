"""Separating hypersurfaces as checkable certificates.

For a scheme Z and an extra point P, a product of B = seg(Z + P) linear
forms vanishes on Z to the required orders while staying nonzero at P.
The hyperplanes come from a matroid partition of the point vectors (with B
copies of P adjoined), and the resulting polynomial re-verifies directly
against the derivative-conditions matrix.
"""

from fatpointlab import FatPointScheme, ScalarField, separating_hypersurface

QQ = ScalarField.rational()

z = FatPointScheme(QQ, 2, [((1, 0, 0), 2), ((0, 1, 0), 2), ((1, 1, 1), 1)])
p = (0, 0, 1)
cert = separating_hypersurface(z, p)

print("degree B = seg(Z + P) =", cert.degree)
print("hyperplane covectors:")
for h in cert.hyperplanes:
    print("  ", tuple(str(c) for c in h))
print("polynomial support:", sorted(cert.poly))
print("certificate re-verifies (vanishes on Z, nonzero at P):", cert.verify(z))

# Tampering with the polynomial is caught by the verifier.
broken_poly = dict(cert.poly)
key = (cert.degree, 0, 0)
broken_poly[key] = broken_poly.get(key, QQ.zero()) + QQ.one()
tampered = cert._replace(poly=broken_poly)
print("tampered certificate rejected:", not tampered.verify(z))
