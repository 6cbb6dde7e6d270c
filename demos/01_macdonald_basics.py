#!/usr/bin/env python3
"""A tour of the exact Macdonald machinery.

Everything below is computed over Q(q, t) with no floating point anywhere:
the polynomials come out of a triangular solve against the first Macdonald
operator, and every identity shown is an exact equality of rational
functions.
"""

from wheelmac import (CoeffField, MacdonaldTable, apply_D, apply_E,
                      eigenvalue_D, integral_form_factor, render_scalar,
                      sympoly_mul, verify_pieri)
from wheelmac.macdonald import psi_prime
from wheelmac.scalars import BiRatFunc
from wheelmac.symfunc import SymPoly
from wheelmac import partitions as pt

n = 3
table = MacdonaldTable(n)

print("== Macdonald polynomials in %d variables ==" % n)
for lam in [(1,), (2,), (1, 1), (2, 1), (3, 1)]:
    P = table.compute_P(lam)
    print("P_%s:" % (lam,))
    for mu, c in sorted(P.coeffs.items(), reverse=True):
        print("   m_%-8s %s" % (str(mu), render_scalar(c)))

print()
print("== the defining eigenvalue equation ==")
lam = (2, 1)
P = table.compute_P(lam)
fld = CoeffField.generic()
evs = eigenvalue_D(lam, n)
for rho in range(n + 1):
    image = apply_D(P, rho, fld)
    same = image == P.scale(BiRatFunc.from_poly(evs[rho]))
    print("D_%d^%d P_%s = (%s) P_%s   exact: %s"
          % (n, rho, lam, render_scalar(evs[rho]), lam, same))

print()
print("== Pieri expansion of e_1 P_(2,1) ==")
e1 = SymPoly.m((1,), n, BiRatFunc.one())
product = sympoly_mul(e1, P)
for j in range(1, pt.length(lam) + 2):
    if j not in pt.addable_rows(lam):
        print("  row %d: absent (psi' = %s)" % (j, render_scalar(psi_prime(lam, j))))
        continue
    mu = pt.add_node(lam, j)
    print("  + psi'_%s/%s = %s" % (mu, lam, render_scalar(psi_prime(lam, j))))
print("identity e1/E0/E2 verified:", verify_pieri(lam, n, table))

print()
print("== integral form ==")
for lam in [(1,), (2,), (2, 1)]:
    c = integral_form_factor(lam)
    print("c_%s = %s" % (lam, render_scalar(c)))
    f = table.compute_P(lam).scale(c)
    print("  c P polynomial in q,t:",
          all(v.is_polynomial() for v in f.coeffs.values()))

print()
print("== the q-derivative lowering operator ==")
out = apply_E(table.compute_P((1,)), 0, fld)
print("E_0 P_(1) =", render_scalar(out.coeffs[()]), "* P_()")
