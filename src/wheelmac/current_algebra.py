"""Commuting currents dual to the wheel condition.

R = K[e_0, e_1, ...] with deg e_i = (1, i).  The ideal of interest is
generated by Fourier coefficients of products of shifted currents

    e(z) e(c_1 z) ... e(c_k z),      c_i = t^i q^(sigma_i),

whose z^d coefficient is  sum_{mu in pi_{k+1,d}} m_mu(1, c_1, ..., c_k) e_mu.
At the resonance each c_i is a monomial zeta^a u^b, so the coefficients
are Laurent polynomials: ideal rows have u-power denominators.
W_space_dim projects them onto its kept columns and hands them to
linalg.rank_kernel_poly one at a time, which stops reading at full rank
and below it clears the rows read by one u-shift.  At the
root of unity t = 1, q = tau the same generators regroup by residue
profiles nu (counts of the exponents mod r-1) into integer combinations
sum_{mu in K_d(nu)} C_mu e_mu with multinomial C_mu, and the quotient has
the admissible monomials as a basis; reduce_to_admissible realizes the
rewriting walk from the spanning proof.  On top of that sit the prefix-
bounded quotients W_{b_0..b_{r-2}}, their monomial-counting characters and
the character recursion.

Relations and rewritten vectors are symfunc.MonomialExpansions keyed by
partitions padded with zeros: e_0 is an honest generator, so (2, 0) is
e_2 e_0, not e_2.
"""

import math
from fractions import Fraction
from itertools import accumulate, combinations

from . import partitions as pt
from .linalg import EchelonBasis, rank_kernel_poly
from .scalars import ParameterSpec
from .symfunc import MonomialExpansion
from .wheel_ideal import (_check_choice, _merge, _relation_rows,
                          constraint_rows, relation_generic)

__all__ = [
    "CharSeries", "relation_rootofunity", "relation_generic",
    "residue_profiles", "check_residue_profile", "K_d_nu", "quotient_dim",
    "reduce_to_admissible", "check_profile", "check_recursion_profile",
    "enumerate_C_sequences", "chi_C", "verify_recursion", "W_space_dim",
    "verify_prop302", "ideal_rows",
]


def residue_profiles(k, r):
    """All nu = (nu_0..nu_{r-2}) of non-negative integers summing to k+1, in
    lex order: the gaps between r-2 bars placed among k+r-1 slots."""
    return [tuple(b - a - 1 for a, b in zip((-1,) + bars, bars + (k + r - 1,)))
            for bars in combinations(range(k + r - 1), r - 2)]


def check_residue_profile(nu, k, r):
    """nu as a tuple; ValueError unless it is a residue profile: r-1
    non-negative entries summing to k+1."""
    nu = tuple(nu)
    if len(nu) != r - 1 or min(nu, default=0) < 0 or sum(nu) != k + 1:
        raise ValueError("want r-1 = %d non-negative entries summing to "
                         "k+1 = %d" % (r - 1, k + 1))
    return nu


def _residue_profile(mu, r):
    """The residue-class multiplicities of mu's parts mod r-1, as a tuple."""
    counts = [0] * (r - 1)
    for v in mu:
        counts[v % (r - 1)] += 1
    return tuple(counts)


def K_d_nu(d, nu, k, r):
    """Partitions of d with exactly k+1 parts (zeros allowed) whose
    residue profile (_residue_profile) is nu."""
    nu = tuple(nu)
    padded = (pt.pad(mu, k + 1) for mu in pt.enumerate_partitions(k + 1, d))
    return [mu for mu in padded if _residue_profile(mu, r) == nu]


def relation_rootofunity(d, nu, k, r):
    """z^d Fourier coefficient of prod_a e_{1,a+2}(z)^(nu_a) at t=1, q=tau.

    Supported on K_d(nu) with positive integer multinomial coefficients
    C_mu = prod_a nu_a! / prod_{v = a mod r-1} mult_mu(v)!.
    """
    nu = check_residue_profile(nu, k, r)
    terms = {}
    for mu in K_d_nu(d, nu, k, r):
        mult = {}
        for v in mu:
            mult[v] = mult.get(v, 0) + 1
        c = 1
        for a in range(r - 1):
            c *= math.factorial(nu[a])
        for v, m in mult.items():
            c //= math.factorial(m)
        terms[mu] = Fraction(c)
    return MonomialExpansion(k + 1, terms)


_FIELDS = ("rootofunity", "generic")


def ideal_rows(k, r, n, d, p=None, field="rootofunity"):
    """Vectors spanning the (n, d) ideal component, over pi_{n,d}.

    Rows are e_nu * relation(d', .) for every internal degree d' <= d and
    every filler nu in pi_{n-k-1, d-d'} (wheel_ideal._relation_rows).  For
    field="generic" they are the wheel constraint rows,
    wheel_ideal.constraint_rows(k, r, n, d, p), with u-power denominators:
    relation_generic over one sigma per rotation class, as that docstring
    says.  At the root of unity the relations run over the residue
    profiles.
    """
    _check_choice("field", field, _FIELDS)
    if n < k + 1:
        return []
    if field == "generic":
        return [row for _, row in constraint_rows(k, r, n, d, p)]
    gens = [(nu, dd, relation_rootofunity(dd, nu, k, r))
            for dd in range(d + 1) for nu in residue_profiles(k, r)]
    return [row for _, row in _relation_rows(gens, n, d, Fraction(0))]


def quotient_dim(k, r, n, d):
    """dim of the (n, d) component of R modulo the root-of-unity current
    relations.  The generic relations times fillers are the wheel rows, so
    that quotient is wheel_ideal.dim_J."""
    ncols = len(pt.enumerate_partitions(n, d))
    ech = EchelonBasis(ncols)
    for row in ideal_rows(k, r, n, d):
        ech.add(row)
    return ncols - ech.rank


def reduce_to_admissible(lam, k, r):
    """Rewrite e_lam modulo the t=1, q=tau relations into admissible terms.

    Repeatedly takes the lexicographically largest non-admissible term,
    extracts its first violating window mu (k+1 consecutive parts with
    spread <= r-1, pt.violating_window), and eliminates e_mu by the
    relation of its residue profile, in which mu is the lex-minimal
    support element.  Every replacement is lex-greater,
    so the walk terminates inside pi_{n,d}.
    """
    n = len(lam)
    current = MonomialExpansion(n, {pt.pad(pt.normalize(lam), n): Fraction(1)})
    while True:
        worklist = [key for key in current.terms
                    if not pt.is_admissible(key, k, r, n)]
        if not worklist:
            return current
        key = max(worklist)
        coeff = current.terms[key]
        i = pt.violating_window(key, k, r, n)
        mu = key[i: i + k + 1]
        rest = key[:i] + key[i + k + 1:]
        rel = relation_rootofunity(sum(mu), _residue_profile(mu, r), k, r)
        if min(rel.terms) != mu:
            raise AssertionError(
                "window %r is not the minimal element of its relation" % (mu,))
        # e_rest times the relation, scaled to cancel the term at key;
        # distinct mu2 merge into distinct keys
        c_mu = rel.terms[mu]
        step = {_merge(rest, mu2): -coeff * c2 / c_mu
                for mu2, c2 in rel.terms.items()}
        if min(step) != key:
            raise AssertionError("rewriting did not increase %r" % (key,))
        current = current + MonomialExpansion(n, step)


class CharSeries:
    """Truncated power series in (v, z) with non-negative integer entries."""

    __slots__ = ("d_max", "n_max", "coeffs")

    def __init__(self, d_max, n_max, coeffs=None):
        self.d_max = d_max
        self.n_max = n_max
        self.coeffs = {k: v for k, v in (coeffs or {}).items() if v}

    def __getitem__(self, key):
        d, n = key
        if d > self.d_max or n > self.n_max:
            raise KeyError("outside truncation")
        return self.coeffs.get((d, n), 0)

    def __repr__(self):
        return "CharSeries(d<=%d, n<=%d, %d nonzero)" % (
            self.d_max, self.n_max, len(self.coeffs))


def check_profile(b, k, r):
    """b as a tuple; ValueError unless it is a prefix-bound profile: r-1
    bounds, weakly increasing within 0..k."""
    b = tuple(b)
    if len(b) != r - 1 or list(b) != sorted(b) or min(b, default=0) < 0 \
            or max(b, default=0) > k:
        raise ValueError("want r-1 = %d bounds, weakly increasing within 0..%d"
                         % (r - 1, k))
    return b


def check_recursion_profile(b, k, r):
    """b as a tuple; ValueError unless it passes check_profile with
    b_0 >= 1, as the recursion in b_0 needs."""
    b = check_profile(b, k, r)
    if b[0] < 1:
        raise ValueError("the recursion needs b_0 >= 1")
    return b


def enumerate_C_sequences(b, k, r, n, d):
    """The C-sequences of (n, d) under the prefix bounds b, sorted.

    A C-sequence a = (a_0, a_1, ...) is the multiplicity vector of a
    (k,r,n)-admissible partition of d padded to n (a_v parts equal v, up
    to the largest part): sum a_i = n, sum i a_i = d, and every window sum
    a_i + ... + a_{i+r-1} is at most k, which is admissibility.  The
    partition must also pass _prefix_ok(lam, b, r).
    """
    b = check_profile(b, k, r)
    out = []
    for lam in pt.enumerate_admissible(k, r, n, d):
        lam = pt.pad(lam, n)
        if _prefix_ok(lam, b, r):
            top = max(lam, default=-1)
            out.append(tuple(lam.count(v) for v in range(top + 1)))
    return sorted(out)


def _prefix_ok(lam, b, r):
    """True iff lam (padded to its n) has at most b_j parts <= j for every
    j <= r-2: the prefix sums a_0 + ... + a_j of its multiplicity vector
    stay within b, the bounds of W_b."""
    prefix = accumulate(lam.count(v) for v in range(r - 1))
    return all(c <= b[j] for j, c in enumerate(prefix))


def chi_C(b, k, r, d_max, n_max):
    """Character of the admissible-sequence set: coefficient of v^d z^n."""
    coeffs = {}
    for n in range(n_max + 1):
        for d in range(d_max + 1):
            cnt = len(enumerate_C_sequences(b, k, r, n, d))
            if cnt:
                coeffs[(d, n)] = cnt
    return CharSeries(d_max, n_max, coeffs)


def verify_recursion(b, k, r, d_max=8, n_max=8):
    """chi_C(b) = chi_C(b with b_0 - 1) + z^(b_0) chi_C(shifted b)(v, vz).

    The (v, vz) substitution sends coefficient (d, n) to (d + n, n); the
    shifted profile is (b_1 - b_0, ..., b_{r-2} - b_0, k - b_0).
    """
    b = check_recursion_profile(b, k, r)
    lhs = chi_C(b, k, r, d_max, n_max)
    first = chi_C((b[0] - 1,) + b[1:], k, r, d_max, n_max)
    shifted = tuple(x - b[0] for x in b[1:]) + (k - b[0],)
    second = chi_C(shifted, k, r, d_max, n_max)
    for d in range(d_max + 1):
        for n in range(n_max + 1):
            total = first[(d, n)]
            n2 = n - b[0]
            d2 = d - n2
            if n2 >= 0 and 0 <= d2 <= d_max:
                total += second[(d2, n2)]
            if lhs[(d, n)] != total:
                return False
    return True


def W_space_dim(b, k, r, n, d, p=None):
    """dim of the (n, d) component of W_b = R / I_b over K.

    I_b is spanned in the component by the shifted-current relations and
    by the multiples of the prefix-violating monomials in e_0..e_{r-2}.
    e_lam is such a multiple exactly when lam (padded to n) fails
    _prefix_ok, the bound the C-sequences obey; those multiples are unit
    vectors, so their columns are deleted before the relation rows are
    ranked.  The relations are those of wheel_ideal.constraint_rows, one
    sigma per rotation class, whose span is that of every sigma; so the
    undercount against chi_C at (k, r) = (2, 3) is the generic rows' own.
    """
    p = ParameterSpec.matching(p, k, r)
    b = check_profile(b, k, r)
    keep = [i for i, lam in enumerate(pt.enumerate_partitions(n, d))
            if _prefix_ok(pt.pad(lam, n), b, r)]
    # no relation reaches n <= k; ranking no rows would still build the
    # unit-vector kernel
    if n <= k or not keep:
        return len(keep)
    rows = ideal_rows(k, r, n, d, p, "generic")
    return len(keep) - rank_kernel_poly(
        ([row[ci] for ci in keep] for row in rows), len(keep), p.N)[0]


def verify_prop302(b, k, r, d_max=8, n_max=4, p=None):
    """W_space_dim matches the chi_C coefficient on the whole truncation."""
    p = ParameterSpec.matching(p, k, r)
    chi = chi_C(b, k, r, d_max, n_max)
    for n in range(n_max + 1):
        for d in range(d_max + 1):
            if W_space_dim(b, k, r, n, d, p) != chi[(d, n)]:
                return False
    return True
