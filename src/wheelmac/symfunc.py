"""Symmetric polynomials in n variables over an exact scalar ring.

Storage is sparse in the monomial-symmetric basis: a ``SymPoly`` maps
partitions to coefficients, and the dense orbit expansion
(``MonomialExpansion``) is materialized only inside operators and
substitutions; ``current_algebra`` keeps its combinations of current
monomials e_lam in the same class.  Coefficients can be any of the scalar
types from ``wheelmac.scalars`` (or plain ints/Fractions); the code only
relies on ring arithmetic and truthiness for zero tests.

Every wheel substitution (wheel_substitute) runs in the CoeffField its
caller passes: the field keeps each collapse into integer orbit counts per
q^a t^b (wheel_collapse) read by its table reader, next to its operator
matrices, and the read tables are summed against f's coefficients in the
field's ring by scalars.apply_rows, the one application kernel, which
macdonald's operators use too.  No field type is named here.
"""

from fractions import Fraction
from itertools import combinations
from math import factorial
from operator import mul

from . import partitions as pt
from .scalars import (QTPoly, _add_vectors, _sparse_add, _sparse_mul,
                      apply_rows)

__all__ = [
    "SymPoly", "MonomialExpansion", "m_to_monomials", "monomials_to_m",
    "sympoly_mul", "check_sigma", "check_wheel_size", "wheel_collapse",
    "wheel_substitute", "restrict_derivative", "orbit_of",
]

_ORBITS = {}


def orbit_of(lam, n):
    """Distinct permutations of lam padded to n slots (the S_n orbit), in
    ascending order: the lexicographic successors of the ascending sort,
    so the work is proportional to the orbit, not to n!."""
    key = (tuple(lam), n)
    orb = _ORBITS.get(key)
    if orb is None:
        a = sorted(pt.pad(lam, n))
        orb = _ORBITS[key] = [tuple(a)]
        while True:
            i = n - 2
            while i >= 0 and a[i] >= a[i + 1]:
                i -= 1
            if i < 0:
                return orb
            j = n - 1
            while a[j] <= a[i]:
                j -= 1
            a[i], a[j] = a[j], a[i]
            a[i + 1:] = a[:i:-1]
            orb.append(tuple(a))
    return orb


class SymPoly:
    """Element of Lambda_n, keyed by partitions with <= n parts."""

    __slots__ = ("n", "coeffs")

    def __init__(self, n, coeffs=None, _clean=False):
        """_clean: coeffs is kept as given, so its keys must already be
        normal partitions with <= n parts and its coefficients nonzero."""
        self.n = n
        if _clean:
            self.coeffs = coeffs
            return
        clean = {}
        for lam, c in (coeffs or {}).items():
            lam = pt.normalize(lam)
            if len(lam) > n:
                raise ValueError("partition %r needs more than %d variables"
                                 % (lam, n))
            if c:
                clean[lam] = c
        self.coeffs = clean

    @classmethod
    def m(cls, lam, n, one=Fraction(1)):
        """The monomial symmetric function m_lam."""
        return cls(n, {pt.normalize(lam): one})

    @classmethod
    def zero(cls, n):
        return cls(n, {})

    def is_zero(self):
        return not self.coeffs

    def __bool__(self):
        return bool(self.coeffs)

    def __add__(self, other):
        if isinstance(other, SymPoly):
            if other.n != self.n:
                raise ValueError("variable counts differ")
            return SymPoly(self.n, _sparse_add(self.coeffs, other.coeffs),
                           _clean=True)
        return NotImplemented

    def __sub__(self, other):
        if isinstance(other, SymPoly):
            return self + other.scale(-1)
        return NotImplemented

    def scale(self, s):
        return SymPoly(self.n, {lam: w for lam, c in self.coeffs.items()
                                if (w := c * s)}, _clean=True)

    # QTPoly * SymPoly in apply_rows, on component_matrix's generic element
    __rmul__ = scale

    def __eq__(self, other):
        return (isinstance(other, SymPoly) and self.n == other.n
                and self.coeffs == other.coeffs)

    def __repr__(self):
        if not self.coeffs:
            return "SymPoly(%d, 0)" % self.n
        body = " + ".join("(%r)*m[%s]" % (c, ",".join(map(str, lam)))
                          for lam, c in sorted(self.coeffs.items(), reverse=True))
        return "SymPoly(%d, %s)" % (self.n, body)


class MonomialExpansion:
    """Dense-orbit form: {exponent vector of length n: coefficient}."""

    __slots__ = ("n", "terms")

    def __init__(self, n, terms=None):
        self.n = n
        self.terms = {a: c for a, c in (terms or {}).items() if c}

    def is_zero(self):
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        return (isinstance(other, MonomialExpansion) and self.n == other.n
                and self.terms == other.terms)

    def __add__(self, other):
        if not isinstance(other, MonomialExpansion) or other.n != self.n:
            return NotImplemented
        return MonomialExpansion(self.n, _sparse_add(self.terms, other.terms))

    def scale(self, s):
        return MonomialExpansion(self.n, {a: c * s for a, c in self.terms.items()})

    def __repr__(self):
        return "MonomialExpansion(%d, %d terms)" % (self.n, len(self.terms))


def m_to_monomials(f):
    """Expand each m_lam into its orbit sum (coefficient 1 per monomial)."""
    return MonomialExpansion(f.n, {alpha: c for lam, c in f.coeffs.items()
                                   for alpha in orbit_of(lam, f.n)})


def monomials_to_m(g, check=True):
    """Inverse of m_to_monomials: each orbit's coefficient is read off its
    first term in g.

    With check, a non-symmetric g raises ValueError naming a swap of two
    variables and a term of g whose coefficient that swap changes or kills
    (the swapped term has another coefficient, or is absent).  Single swaps
    connect every orbit, so every non-symmetric g has such a term; the
    first one in g's order is named.
    """
    coeffs = {}
    for alpha, c in g.terms.items():
        coeffs.setdefault(tuple(sorted(alpha, reverse=True)), c)
    if check:
        for alpha, c in g.terms.items():
            for i, j in combinations(range(g.n), 2):
                if alpha[i] == alpha[j]:
                    continue
                beta = list(alpha)
                beta[i], beta[j] = beta[j], beta[i]
                other = g.terms.get(tuple(beta))
                if other is None or other != c:
                    verb = "kills" if other is None else "changes"
                    raise ValueError(
                        "input not symmetric: swapping x_%d and x_%d %s the "
                        "coefficient of %r" % (i + 1, j + 1, verb, alpha))
    return SymPoly(g.n, coeffs)


def sympoly_mul(f, g):
    """Product in Lambda_n via the monomial-expansion round trip."""
    if f.n != g.n:
        raise ValueError("variable counts differ: %d vs %d" % (f.n, g.n))
    prod = MonomialExpansion(f.n, _sparse_mul(
        m_to_monomials(f).terms, m_to_monomials(g).terms, _add_vectors))
    # product of symmetric polynomials is symmetric; skip the scan
    return monomials_to_m(prod, check=False)


def check_sigma(sigma, k, r):
    """sigma as a tuple; ValueError unless it is a cumulative wheel
    exponent sequence: length k, weakly increasing within 0..r-1."""
    sigma = tuple(sigma)
    if len(sigma) != k:
        raise ValueError("sigma must have length k=%d" % k)
    prev = 0
    for s in sigma:
        if s < prev or s > r - 1:
            raise ValueError("sigma must be weakly increasing within 0..r-1: %r"
                             % (sigma,))
        prev = s
    return sigma


def check_wheel_size(n, k):
    """n; ValueError unless n variables hold a wheel of k+1 points."""
    if n < k + 1:
        raise ValueError("need at least k+1=%d variables, got %d" % (k + 1, n))
    return n


def wheel_collapse(lam, n, sigma):
    """m_lam in n variables at x_{i+1} = t^i q^(sigma_i) x_1, i = 1..k.

    Keys are those of wheel_substitute.  An orbit term alpha of m_lam
    becomes one monomial q^a t^b, a = sum sigma_i alpha_i, b = sum i alpha_i,
    so each key maps to a QTPoly of integer counts per (a, b).
    """
    k = len(sigma)
    steps = range(1, k + 1)
    counts = {}
    for alpha in orbit_of(lam, n):
        head = alpha[1:k + 1]
        key = (alpha[0] + sum(head),) + alpha[k + 1:]
        ab = (sum(map(mul, sigma, head)), sum(map(mul, steps, head)))
        row = counts.setdefault(key, {})
        row[ab] = row.get(ab, 0) + 1
    return {key: QTPoly(row, _clean=True) for key, row in counts.items()}


def wheel_substitute(f, sigma, fld):
    """Substitute the wheel x_{i+1} = t^i q^{sigma_i} x_1, i = 1..k, in the
    CoeffField fld that f's coefficients live in.

    sigma is the cumulative exponent sequence (sigma_i = s_1 + ... + s_i),
    weakly increasing inside {0, ..., r-1}; the first k+1 variables
    collapse onto the line through x_1 and the rest stay free.  Returns
    the expansion in the free variables (slot 0 is x_1, then
    x_{k+2}, ..., x_n).  Each m_lam of f collapses to one read table per
    key (fld.wheel_table, wheel_collapse read once per field), and
    scalars.apply_rows sums the tables against f's coefficients per key
    in fld's ring.  sigma must pass check_sigma when fld.spec is not
    None; f needs n >= k+1.
    """
    p = fld.spec
    sigma = tuple(sigma) if p is None else check_sigma(sigma, p.k, p.r)
    k = len(sigma)
    check_wheel_size(f.n, k)
    rows = {}
    for lam in f.coeffs:
        for key, v in fld.wheel_table(lam, f.n, sigma).items():
            rows.setdefault(key, {})[lam] = v
    return MonomialExpansion(f.n - k, apply_rows(rows, f.coeffs, fld.zero))


def restrict_derivative(f, j):
    """rho(d^j f / dx_n^j): differentiate j times in x_n, set x_n = 0.

    Returns a SymPoly in n-1 variables.  Only the monomials of m_lam with
    x_n^j survive, each times j!, and they form m_mu, where mu is lam
    padded to n with one part equal to j removed; m_lam maps to 0 when no
    part equals j.  Each coefficient is multiplied by the int j! in its
    own ring.
    """
    if f.n < 2:
        raise ValueError("need at least two variables")
    if j < 0:
        raise ValueError("cannot differentiate %d times" % j)
    scale = factorial(j)
    out = {}
    for lam, c in f.coeffs.items():
        lam = pt.pad(lam, f.n)
        if j in lam:
            i = lam.index(j)
            out[lam[:i] + lam[i + 1:]] = c * scale
    return SymPoly(f.n - 1, out)
