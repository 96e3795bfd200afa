"""Resultants via layered permanents of Sylvester matrices.

Determinants make no sense without subtraction, so the resultant is the
*permanent* computed with layered arithmetic: every maximizing
transversal contributes its layer.  The resultant factors exactly over
primary-factor pairs, but plain multiplicativity in one argument only
holds up to nu-equivalence -- the demo reproduces the counterexample.
"""

import laytrop as lt
from laytrop.resultants import dense_rows

f = lt.parse_poly("x^2 + 5:1*x + 7:1")
g = lt.parse_poly("x^2 + 4:1*x + 6:1")
print("f =", lt.format_poly(f), "   g =", lt.format_poly(g))
m = lt.sylvester(f, g, lt.NAT)
for row in dense_rows(m, None):  # m stores each row as its band of real entries
    print("  ", "  ".join("_" if e is None else lt.format_scalar(e) for e in row))
print("resultant:", lt.resultant(f, g, lt.NAT))
print("(factors (x+5)(x+2) and (x+4)(x+2): <2>^2 * 5 * 4 * 5 = <16>^2)")

# equal-root primary pairs: the layer is a classical permanent
print()
fp = lt.parse_poly("x^2 + 1:1*x + 2:1")
gp = lt.parse_poly("x + 1:1")
lm = lt.layer_sylvester(fp, gp, lt.NAT)
print("layer Sylvester matrix of an equal-root primary pair:")
for row in lm.entries:
    print("  ", row)
print("layer permanent:", lt.layer_permanent(lm))
print("closed form:", lt.primary_pair_resultant(fp, gp, lt.NAT))
print("direct     :", lt.resultant(fp, gp, lt.NAT))

# multiplicativity fails exactly, but holds at the value level
print()
hp = lt.parse_poly("x + 1:1")
gh = lt.p_mul(gp, hp, lt.NAT)
lhs = lt.resultant(fp, gh, lt.NAT)
rhs = lt.ls_mul(lt.resultant(fp, gp, lt.NAT), lt.resultant(fp, hp, lt.NAT), lt.NAT)
print("res(f, gh)          =", lhs)
print("res(f,g) * res(f,h) =", rhs)
print("values agree, layers differ by the permanent cross terms (4*k0*l*lhat)")

# under truncation at q <= 4 both sides collapse and surpassing holds
print()
for q in (2, 3, 4):
    sort = lt.truncated(q)
    lhs_t = lt.resultant(fp, lt.p_mul(gp, hp, sort), sort)
    rhs_t = lt.ls_mul(lt.resultant(fp, gp, sort), lt.resultant(fp, hp, sort), sort)
    print(f"trunc:{q}  lhs {lhs_t}  rhs {rhs_t}  surpasses:",
          lt.surpasses_L(lhs_t, rhs_t, sort))
