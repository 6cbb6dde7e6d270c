"""Reference definitions that several test modules check the library
against, kept out of the library because no library code needs them."""

from fractions import Fraction
from math import lcm

from wheelmac import partitions as pt
from wheelmac.macdonald import CoeffField
from wheelmac.scalars import LaurentPoly, QTPoly, UniRatFunc, _lpoly
from wheelmac.symfunc import orbit_of


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
