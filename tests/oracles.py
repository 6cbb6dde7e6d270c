"""Reference definitions that several test modules check the library
against, kept out of the library because no library code needs them."""

from fractions import Fraction
from math import factorial, lcm, prod

from wheelmac import linalg
from wheelmac import partitions as pt
from wheelmac.macdonald import CoeffField
from wheelmac.scalars import (BiRatFunc, LaurentPoly, QTPoly, UniPoly,
                              UniRatFunc, _lpoly)
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


def recursion_P(table, lam):
    """P_lam by the D_n^1 triangular solve alone, whatever the length of
    lam: u_lam = 1 and u_mu = sum_nu u_nu <m_mu> D m_nu / (eps1(lam) -
    eps1(mu)) down the decreasing-lex partitions of |lam| after lam, each
    sum one lcm_sum made canonical once.  Reads table's component matrix
    and eigenvalues, and stores no P_lam in it."""
    lam = pt.normalize(lam)
    plist, cols = table.component_matrix(pt.size(lam))
    eps_lam = table.eps1(lam)
    u, merges = {lam: BiRatFunc.one()}, {}
    for mu in plist[plist.index(lam) + 1:]:
        pairs = [(unu, e) for nu, unu in u.items()
                 if (e := cols[nu].get(mu)) is not None]
        if pairs:
            num, den = lcm_sum(pairs, merges)
            u[mu] = BiRatFunc(num, den * (eps_lam - table.eps1(mu)))
    return SymPoly(table.n, u)


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


def _p_in_m(rho, mu):
    """The coefficient of m_mu in the power sum p_rho: the ways to send each
    part of rho to an entry of mu so that the parts sent to each entry sum
    to it."""
    if not rho:
        return int(not any(mu))
    first, rest = rho[0], rho[1:]
    return sum(_p_in_m(rest, mu[:j] + (x - first,) + mu[j + 1:])
               for j, x in enumerate(mu) if x >= first)


def _fraction_inverse(rows):
    """The inverse of an invertible square matrix of ints or Fractions, by
    Gauss-Jordan elimination with a row swap wherever a pivot is zero."""
    size = len(rows)
    aug = [[Fraction(x) for x in row] + [Fraction(int(i == j))
                                         for j in range(size)]
           for i, row in enumerate(rows)]
    for col in range(size):
        piv = next(i for i in range(col, size) if aug[i][col])
        aug[col], aug[piv] = aug[piv], aug[col]
        inv = 1 / aug[col][col]
        aug[col] = [x * inv for x in aug[col]]
        for i in range(size):
            c = aug[i][col]
            if i != col and c:
                aug[i] = [x - c * y for x, y in zip(aug[i], aug[col])]
    return [row[size:] for row in aug]


def _power_sum_norm(rho):
    """<p_rho, p_rho> = z_rho prod_i (1 - q^rho_i) / (1 - t^rho_i), with
    z_rho = prod_i i^(m_i) m_i! (Macdonald, SFHP VI (1.5), (4.7))."""
    one = BiRatFunc.one()
    out = BiRatFunc.const(prod(i ** rho.count(i) * factorial(rho.count(i))
                               for i in set(rho)))
    for part in rho:
        out = out * (one - BiRatFunc.qt_monomial(part, 0)) \
            * (one - BiRatFunc.qt_monomial(0, part)).inverse()
    return out


def scalar_product_P(d):
    """{lam: (P_lam, <P_lam, P_lam>)} for every partition lam of d, P_lam a
    {mu: nonzero BiRatFunc} map of its m_mu coefficients in d (so in any
    number of) variables, with no operator: Gram-Schmidt for the scalar
    product <p_rho, p_sigma> = delta_(rho, sigma) <p_rho, p_rho>.  Walking
    the partitions up from 1^d, the reverse of decreasing lex order (a
    linear extension of dominance), P_lam is m_lam minus its projection on
    each P_mu already built.  m_mu is read in the p basis by inverting the
    integer matrix of p in m.  Dropping the m_mu with more than n parts
    gives P_lam in n variables."""
    plist = pt.enumerate_partitions(d, d)[::-1]
    size = len(plist)
    m_in_p = _fraction_inverse([[_p_in_m(rho, mu) for mu in plist]
                                for rho in plist])
    weights = [_power_sum_norm(rho) for rho in plist]
    zero = BiRatFunc.zero()
    built = []  # (m coordinates, p coordinates times weights, norm)
    for i in range(size):
        coords = [BiRatFunc.const(int(i == j)) for j in range(size)]
        for other, weighted, norm in built:
            c = sum((a * w for a, w in zip(m_in_p[i], weighted) if a),
                    zero) * norm.inverse()
            coords = [x - c * y if y else x for x, y in zip(coords, other)]
        in_p = [sum((x * row[s] for x, row in zip(coords, m_in_p)
                     if x and row[s]), zero) for s in range(size)]
        weighted = [x * w for x, w in zip(in_p, weights)]
        built.append((coords, weighted,
                      sum((x * w for x, w in zip(in_p, weighted)), zero)))
    return {lam: ({mu: x for mu, x in zip(plist, coords) if x}, norm)
            for lam, (coords, _, norm) in zip(plist, built)}
