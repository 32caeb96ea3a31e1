"""Two structural identities for the regularity index.

First: adding one fat point mP to a scheme Z changes the regularity in a
controlled way,

    r(Z + mP) = max{ m - 1, r(Z), 1 + reg(R / (I_Z + I_P^m)) },

and the package computes both sides independently.  Second: re-embedding by
the degree-d Veronese map divides the regularity by roughly d, with an
exact closed form for points on a line.
"""

from fatpointlab import (
    FatPointScheme,
    ScalarField,
    ctv_decomposition_check,
    veronese_inequality_check,
    veronese_lift,
)

QQ = ScalarField.rational()

z = FatPointScheme(QQ, 2, [((1, 0, 0), 2), ((0, 1, 0), 1)])
verdict = ctv_decomposition_check(z.with_point((0, 0, 1), 3))
print("r(Z + 3P) =", verdict.reg_index)
print("max{m-1, r(Z), 1 + reg of the quotient} = max{%d, %d, %d} = %d"
      % (verdict.point_term, verdict.subscheme_term, verdict.quotient_term,
         verdict.formula_value))
print("identity holds:", verdict.ok)

# A double point plus two simple points on the line, re-embedded as a conic.
print()
x = FatPointScheme(QQ, 1, [((1, 0), 2), ((1, 1), 1), ((1, 2), 1)])
lifted = veronese_lift(x, 2)
print("line scheme with mults", x.mults, "-> conic scheme in P^%d" % lifted.n)
verdict = veronese_inequality_check(x, 2)
print("r(X) = %d,  r(lift) = %d,  ceil(r/d) = %d"
      % (verdict.reg_index, verdict.lifted_reg_index, verdict.ratio))
print("inequality holds:", verdict.ok)
if verdict.equality_case:
    print("equality regime: closed form ceil((sum m - 1)/d) =", verdict.closed_form)
