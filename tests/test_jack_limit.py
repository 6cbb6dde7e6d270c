"""The Jack limit of the specialized Macdonald polynomials.

At r = 2 the specialization is t = u, q = u^(-(k+1)), so q = t^alpha with
alpha = -(k+1), and u -> 1 sends the specialized P_lam to the Jack
polynomial P_lam^(alpha) (Macdonald, SFHP VI.10).  For r > 2 with
m = gcd(k+1, r-1) = 1 the same limit holds at t = u^(r-1),
q = u^(-(k+1)), the point with omega = 1 rather than ParameterSpec's
omega = zeta_{r-1}: there q = t^alpha with alpha = -(k+1)/(r-1).  The
Jack side here
comes from a different operator over a different field: the
Laplace-Beltrami operator

    D(alpha) = (alpha/2) sum_i x_i^2 d_i^2
               + sum_{i<j} (x_i^2 d_i - x_j^2 d_j)/(x_i - x_j),

which is triangular on the m_lam (Stanley, Adv. Math. 77, 1989), solved
over Fraction at the exact alpha.
"""

from fractions import Fraction
from itertools import permutations

from wheelmac import partitions as pt
from wheelmac.macdonald import MacdonaldTable, specialize_P
from wheelmac.scalars import ParameterSpec, UniRatFunc
from wheelmac.symfunc import SymPoly

from oracles import unirat_evaluate


def _laplace_beltrami_column(nu, n, alpha):
    """{mu: <m_mu> D(alpha) m_nu}, from the monomials of m_nu in n variables.

    A monomial x^a of the symmetric m_nu is taken with its transposition
    partner: for a_i = p > q = a_j the pair contributes
    p (x_i^p x_j^q + x_i^q x_j^p) + (p - q) sum_{0<s<p-q} x_i^(p-s) x_j^(q+s),
    and for a_i = a_j = p the monomial alone contributes p x^a.
    """
    out = {}

    def add(a, c):
        if list(a) == sorted(a, reverse=True):  # <m_mu> is read at x^mu
            out[a] = out.get(a, 0) + c

    for a in set(permutations(pt.pad(nu, n))):
        add(a, alpha / 2 * sum(e * (e - 1) for e in a))
        for i in range(n):
            for j in range(i + 1, n):
                p, q = a[i], a[j]
                if p < q:
                    continue
                add(a, p)
                if p == q:
                    continue
                add(a[:i] + (q,) + a[i + 1:j] + (p,) + a[j + 1:], p)
                for s in range(1, p - q):
                    add(a[:i] + (p - s,) + a[i + 1:j] + (q + s,) + a[j + 1:],
                        p - q)
    return {pt.normalize(mu): c for mu, c in out.items() if c}


def jack_P(lam, n, alpha):
    """The monic Jack P_lam^(alpha) in n variables as {mu: Fraction}, by
    back-substitution against D(alpha); raises when lam and a mu below it
    in dominance share an eigenvalue."""
    lam = pt.normalize(lam)
    plist = pt.enumerate_partitions(n, pt.size(lam))
    cols = {nu: _laplace_beltrami_column(nu, n, alpha) for nu in plist}
    eig = cols[lam].get(lam, 0)
    u = {lam: Fraction(1)}
    for mu in plist[plist.index(lam) + 1:]:
        diff = eig - cols[mu].get(mu, 0)
        if pt.dominance_leq(mu, lam) and diff == 0:
            raise ZeroDivisionError("equal eigenvalues for %r and %r"
                                    % (lam, mu))
        acc = sum((c * cols[nu].get(mu, 0) for nu, c in u.items()),
                  Fraction(0))
        if acc:
            u[mu] = acc / diff
    return u


def _at_u_equal_1(sp):
    out = {}
    for mu, c in sp.coeffs.items():
        v = unirat_evaluate(c, 1).rational_value()
        if v:
            out[mu] = v
    return out


def test_jack_of_a_row_in_two_variables():
    # P_(2)^(alpha) = m_2 + 2/(1 + alpha) m_11: m_2 - 2 m_11 at alpha = -2
    assert jack_P((2,), 2, Fraction(-2)) == {(2,): 1, (1, 1): -2}
    sp = specialize_P((2,), 2, ParameterSpec(1, 2))
    assert _at_u_equal_1(sp) == {(2,): 1, (1, 1): -2}
    # one wrong coefficient of P_(2) must show at u = 1
    table = MacdonaldTable(2)
    P = table.compute_P((2,))
    wrong = P.coeffs[(1, 1)] + 1
    table.entries[(2,)] = SymPoly(2, {**P.coeffs, (1, 1): wrong})
    sp = specialize_P((2,), 2, ParameterSpec(1, 2), table)
    assert _at_u_equal_1(sp) != jack_P((2,), 2, Fraction(-2))


def test_specialized_P_at_r_2_tends_to_the_jack_polynomial(tables):
    """Every admissible lam for k in {1, 2, 3}, r = 2, n <= 4 and d <= 8;
    with alpha off by 1/7 every lam whose Jack polynomial has more than
    one term mismatches."""
    checked = moved = 0
    for k in (1, 2, 3):
        alpha = Fraction(-(k + 1))
        p = ParameterSpec(k, 2)
        for n in range(1, 5):
            for d in range(9):
                for lam in pt.enumerate_admissible(k, 2, n, d):
                    got = _at_u_equal_1(specialize_P(lam, n, p, tables(n)))
                    want = jack_P(lam, n, alpha)
                    assert got == want, (k, n, lam)
                    checked += 1
                    if len(want) > 1:
                        assert jack_P(lam, n, alpha + Fraction(1, 7)) != got, \
                            (k, n, lam)
                        moved += 1
    assert (checked, moved) == (230, 176)


def _at_omega_1(f, k, r):
    """The QTPoly f at q = u^(-(k+1)), t = u^(r-1), as a Laurent
    {u-exponent: int} map."""
    terms = {}
    for (a, b), v in f.d.items():
        e = b * (r - 1) - a * (k + 1)
        terms[e] = terms.get(e, 0) + v
    return {e: v for e, v in terms.items() if v}


def _jack_limit(P, k, r):
    """P's coefficients at omega = 1, each num and den a Laurent polynomial
    in u, then u -> 1 (a pole there raises)."""
    out = {}
    for mu, c in P.coeffs.items():
        num, den = [UniRatFunc.from_laurent(1, _at_omega_1(f, k, r))
                    for f in (c.num, c.den)]
        v = unirat_evaluate(num / den, 1).rational_value()
        if v:
            out[mu] = v
    return out


def test_P_at_omega_1_tends_to_the_jack_polynomial(tables):
    """Every admissible lam for each (k, r) with m = 1 and 2 < r <= 6,
    n <= 4 and d <= 8; with alpha off by 1/7 every lam whose Jack
    polynomial has more than one term mismatches."""
    checked = moved = 0
    for k, r in ((2, 3), (4, 3), (1, 4), (3, 4), (2, 5), (1, 6)):
        alpha = Fraction(-(k + 1), r - 1)
        for n in range(1, 5):
            for d in range(9):
                for lam in pt.enumerate_admissible(k, r, n, d):
                    got = _jack_limit(tables(n).compute_P(lam), k, r)
                    want = jack_P(lam, n, alpha)
                    assert got == want, (k, r, n, lam)
                    checked += 1
                    if len(want) > 1:
                        assert jack_P(lam, n, alpha + Fraction(1, 7)) != got, \
                            (k, r, n, lam)
                        moved += 1
    assert (checked, moved) == (366, 249)
