"""Reference definitions that several test modules check the library
against, kept out of the library because no library code needs them."""

from fractions import Fraction

from wheelmac import partitions as pt
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
