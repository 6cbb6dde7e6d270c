"""Reference definitions that several test modules check the library
against, kept out of the library because no library code needs them."""

from fractions import Fraction
from math import lcm

from wheelmac import linalg
from wheelmac import partitions as pt
from wheelmac.macdonald import CoeffField
from wheelmac.scalars import LaurentPoly, QTPoly, UniPoly, UniRatFunc, _lpoly
from wheelmac.symfunc import SymPoly, orbit_of


def euler_phi(n):
    """The number of 1 <= a <= n coprime to n, by trial division."""
    result = n
    p, m = 2, n
    while p * p <= m:
        if m % p == 0:
            while m % p == 0:
                m //= p
            result -= result // p
        p += 1
    if m > 1:
        result -= result // m
    return result


def eval_monomial_symmetric(lam, values, one=Fraction(1)):
    """m_lam evaluated at a concrete list of scalars."""
    n = len(values)
    lam = pt.normalize(lam)
    if len(lam) > n:
        return one * 0
    total = one * 0
    powcache = {}
    for alpha in orbit_of(lam, n):
        prod = one
        for i, e in enumerate(alpha):
            if e:
                pw = powcache.get((i, e))
                if pw is None:
                    pw = powcache[(i, e)] = values[i] ** e
                prod = prod * pw
        total = total + prod
    return total


def rational_value(f, x):
    """The UniPoly f over Q (N <= 2) at the rational x, by Horner over its
    Fraction coefficients."""
    acc = Fraction(0)
    for c in reversed(f.coeffs()):
        acc = acc * x + c
    return acc


def unirat_evaluate(f, x):
    """The UniRatFunc f at x, num(x) / den(x) by UniPoly.evaluate; a pole
    at x raises ZeroDivisionError."""
    den = f.den.evaluate(x)
    if den.is_zero():
        raise ZeroDivisionError("pole at evaluation point")
    return f.num.evaluate(x) / den


def fraction_det(rows):
    """Determinant of a square matrix of Fractions, by Gaussian elimination
    with a row swap wherever a pivot is zero."""
    rows = [list(map(Fraction, row)) for row in rows]
    det = Fraction(1)
    for col in range(len(rows)):
        piv = next((i for i in range(col, len(rows)) if rows[i][col]), None)
        if piv is None:
            return Fraction(0)
        if piv != col:
            rows[col], rows[piv] = rows[piv], rows[col]
            det = -det
        pv = rows[col][col]
        det *= pv
        for row in rows[col + 1:]:
            c = row[col] / pv
            if c:
                for j in range(col, len(row)):
                    row[j] -= c * rows[col][j]
    return det


def eager_rank_kernel(rows, ncols, N):
    """(rank, kernel) of u-power UniRatFunc rows ranked eagerly: every row
    cleared by linalg._clear_upower_row and the first copy of each distinct
    nonzero one kept before any is read; every entry of each kept row taken
    at the probe point until the rank is full; below it linalg's exact
    triangularization, back-substitution and certificate, with each row
    failing the certificate added in turn."""
    rows = list(dict.fromkeys(tuple(linalg._clear_upower_row(row, N))
                              for row in rows if any(row)))
    ech = linalg.EchelonBasis(ncols)
    chosen = []
    for i, row in enumerate(rows):
        if ech.add([e.evaluate(linalg._PROBE_POINT) for e in row]):
            chosen.append(i)
            if ech.rank == ncols:
                return ncols, []
    while True:
        tri = linalg._triangularize_poly([rows[i] for i in chosen], ncols)
        kernel = linalg._poly_kernel_from_triangular(tri, ncols, N)
        offender = next(
            (i for i, row in enumerate(rows) if i not in chosen
             and any(sum((a * b for a, b in zip(row, vec) if a and b),
                         UniPoly.zero(N)) for vec in kernel)), None)
        if offender is None:
            return len(tri), kernel
        chosen.append(offender)


def doubled_coefficient(table, lam, mu):
    """table, with the coefficient of m_mu in its P_lam doubled: a planted
    wrong Macdonald polynomial for the verifiers' negative controls."""
    P = table.compute_P(lam)
    coeffs = dict(P.coeffs)
    coeffs[mu] = coeffs[mu] * 2
    table.entries[pt.normalize(lam)] = SymPoly(P.n, coeffs)
    return table


def laurent_sum_of_products(pairs):
    """sum a * b over a nonempty list of pairs of LaurentPolys over Q
    (N <= 2), a rational b read as a constant: one int dict over the lcm
    of the denominators, made canonical once."""
    N, out = pairs[0][0].N, {}
    pairs = [(a, b if type(b) is LaurentPoly else LaurentPoly.const(N, b))
             for a, b in pairs]
    den = lcm(*[a.den * b.den for a, b in pairs])
    for a, b in pairs:
        s = den // (a.den * b.den)
        for eb, y in b.c.items():
            y *= s
            for ea, x in a.c.items():
                out[ea + eb] = out.get(ea + eb, 0) + x * y
    return _lpoly(N, {e: v for e, v in out.items() if v}, den)


def lcm_sum(pairs, merges):
    """(num, den) with num/den = sum of x * e over a nonempty list of
    (BiRatFunc x, QTPoly e) pairs, by QTPoly products and sums over the
    running lcm den of the x.den; a new den extends it by one gcd, kept in
    merges under (den, x.den)."""
    num = den = None
    for x, entry in pairs:
        term, b = x.num * entry, x.den
        if num is None:
            num, den = term, b
        elif b == den:
            num = num + term
        else:
            got = merges.get((den, b))
            if got is None:
                _, dg, b2 = den.gcd(b)
                got = merges[den, b] = (dg, b2, den * b2)
            dg, b, den = got
            num = num * b + term * dg
    return num, den


def specialized_field(p):
    """The CoeffField K = Q(zeta_{r-1})(u), each table read through
    p.specialize: p alone knows how q and t become u."""
    N = p.N
    return CoeffField(UniRatFunc.zero(N), UniRatFunc.one(N), p.q_value(),
                      p.t_value(), lambda i: UniRatFunc.const(N, i),
                      p.specialize, p)


def poly_field():
    """The CoeffField Q[q, t], reading each table as itself: enough for
    operator application and eigenvalues."""
    return CoeffField(QTPoly.zero(), QTPoly.one(), QTPoly.q(), QTPoly.t(),
                      QTPoly.term, lambda counts: counts)


def unirat_u(N):
    """u in K = Q(zeta_N)(u)."""
    return UniRatFunc.from_laurent(N, {1: 1})
