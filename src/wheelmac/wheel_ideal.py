"""The wheel-condition ideal J and its Macdonald-polynomial basis I.

A symmetric polynomial f in n >= k+1 variables satisfies the wheel
condition when it vanishes under every substitution

    x_{i+1} = t^i q^(sigma_i) x_1   (i = 1..k),

sigma running over the weakly increasing sequences in {0, ..., r-1}^k
(the cumulative form of the exponents s_1, ..., s_{k+1} >= 0 with
s_1 + ... + s_{k+1} = r - 1).  Only wheels of length k+1 are generated:
longer resonant wheels contain one of these.  At the resonance
t^(k+1) q^(r-1) = 1 the wheel closes into a cycle, so rotating
(s_1, ..., s_{k+1}) gives the same condition.  Every membership test and
every rank (satisfies_wheel, dim_J, wheel_kernel_basis) uses the first
sigma of each rotation class (_rotation_classes) only: a rotated sigma's
relation of internal degree dd is c^dd times the representative's, with
c a monomial t^i q^j (a unit of K), so the row span is the same.
Membership substitutes f itself (symfunc.wheel_substitute, over a
CoeffField through _wheel_substitute_fld).  The field keeps each read wheel
table next to its operator matrices, both applied with one kernel
(scalars.apply_rows), so a field shared by satisfies_wheel and
verify_stability calls reads each (lam, n, sigma) table once.

The wheel fixes x_{k+2}, ..., x_n, so the constraint matrix is built once,
as current relations in k+1 variables (relation_generic, which
current_algebra re-exports) times filler monomials in the free variables
(_relation_rows, which current_algebra.ideal_rows shares for its
root-of-unity rows).  J on the (n, d) component is the exact kernel of
that matrix over the monomial-symmetric basis (wheel_kernel_basis), and
dim J is the number of its kernel vectors; rows are cleared to polynomial
entries in u and eliminated fraction-free.
"""

from itertools import combinations_with_replacement

from . import partitions as pt
from .linalg import _clear_denominators, _clear_upower_row, rank_kernel_poly
from .macdonald import CoeffField, MacdonaldTable, apply_D, apply_E, specialize_P
from .scalars import LaurentPoly, ParameterSpec, UniRatFunc
from .symfunc import (MonomialExpansion, SymPoly, check_sigma,
                      check_wheel_size, restrict_derivative, wheel_collapse,
                      wheel_substitute)

__all__ = [
    "wheel_substitutions", "satisfies_wheel", "dim_J", "basis_I",
    "wheel_kernel_basis", "verify_theorem1", "verify_stability",
    "check_restriction_size", "verify_rho_inclusion", "constraint_rows",
    "relation_generic", "laurent_clear",
]


# verify_theorem1 has one mode; the benchmark's workloads still name it
_MODES = ("exact",)


def _check_choice(name, value, allowed):
    if value not in allowed:
        raise ValueError("%s must be one of %s, got %r"
                         % (name, ", ".join(map(repr, allowed)), value))


def wheel_substitutions(k, r):
    """All cumulative exponent sequences; count = C(k+r-1, k)."""
    return [tuple(c) for c in combinations_with_replacement(range(r), k)]


def satisfies_wheel(f, p, fld=None):
    """True iff every wheel substitution annihilates f.

    By default f has UniRatFunc coefficients, and it is first cleared to
    Laurent-polynomial ones (a nonzero scalar multiple, so membership is
    unchanged); pass the CoeffField the coefficients already live in
    (CoeffField.laurent, say) to substitute in that ring directly.

    One sigma per rotation class of its increment cycle is substituted.
    With ratios c_i = t^i q^(sigma_i), rotating s by one step and starting
    at y = c_1 x_1 gives the points c_1 x_1, ..., c_k x_1,
    t^(k+1) q^(r-1) x_1 = x_1: the same multiset.  As f is symmetric and
    c_1 is a unit, f vanishes on one wheel exactly when it vanishes on the
    other.  This needs t^(k+1) q^(r-1) = 1 in fld; ValueError otherwise.
    """
    k, r = p.k, p.r
    if fld is None:
        f, fld = laurent_clear(f, p), CoeffField.laurent(p)
    if fld.t ** (k + 1) * fld.q ** (r - 1) != fld.one:
        raise ValueError("the field does not satisfy t^%d q^%d = 1"
                         % (k + 1, r - 1))
    return all(_wheel_substitute_fld(f, sigma, fld).is_zero()
               for sigma in _rotation_classes(k, r))


def _rotation_classes(k, r):
    """The first sigma of each rotation class of the increment cycle
    (sigma_1, sigma_2 - sigma_1, ..., r-1 - sigma_k), in
    wheel_substitutions order."""
    seen, reps = set(), []
    for sigma in wheel_substitutions(k, r):
        inc = tuple(b - a for a, b in zip((0,) + sigma, sigma + (r - 1,)))
        cyc = min(inc[i:] + inc[:i] for i in range(k + 1))
        if cyc not in seen:
            seen.add(cyc)
            reps.append(sigma)
    return reps


def laurent_clear(f, p):
    """Scale a SymPoly over K to Laurent-polynomial coefficients.

    Multiplies by the least common denominator, which changes nothing
    about membership in the wheel ideal.
    """
    cleared = _clear_denominators(f.coeffs.values(), p.N)
    return SymPoly(f.n, {lam: LaurentPoly.from_unipoly(c)
                         for lam, c in zip(f.coeffs, cleared)})


def _merge(a, b):
    return tuple(sorted(a + b, reverse=True))


def relation_generic(d, sigma, k, r, p=None):
    """The z^d coefficient of e(z) e(c_1 z) ... e(c_k z), c_i =
    t^i q^(sigma_i), over K: m_mu(1, c_1, ..., c_k) is the (d,) table of
    wheel_collapse(mu, k+1, sigma), read by p.specialize; keys padded to
    k+1.  sigma must pass check_sigma.

    p keeps the relation (ParameterSpec.relation): the first call with a
    given (d, sigma) builds it, and every later call with the same p
    returns that MonomialExpansion, shared and read-only.
    """
    sigma = check_sigma(sigma, k, r)
    p = ParameterSpec.matching(p, k, r)
    return p.relation((d, sigma), lambda: MonomialExpansion(k + 1, {
        pt.pad(mu, k + 1): p.specialize(wheel_collapse(mu, k + 1, sigma)[(d,)])
        for mu in pt.enumerate_partitions(k + 1, d)}))


def _relation_rows(gens, n, d, zero):
    """((label, (dd,) + nu), row) for each (label, dd, rel) of gens and
    each filler nu in pi_{n-k-1, d-dd}, padded: the row of e_nu * rel over
    pi_{n,d}.  nu fixes mu from merge(mu, nu), so a row holds each
    coefficient of rel once; a zero rel yields nothing."""
    plist = pt.enumerate_partitions(n, d)
    index = {lam: i for i, lam in enumerate(plist)}
    for label, dd, rel in gens:
        if rel.is_zero():
            continue
        m = n - rel.n
        for filler in pt.enumerate_partitions(m, d - dd):
            filler = pt.pad(filler, m)
            row = [zero] * len(plist)
            for mu, c in rel.terms.items():
                row[index[pt.normalize(_merge(mu, filler))]] = c
            yield (label, (dd,) + filler), row


def constraint_rows(k, r, n, d, p=None, sigmas=None):
    """Rows of the wheel constraint matrix on the (n, d) component.

    Yields ((sigma, (dd,) + nu), row), row a list indexed like
    enumerate_partitions(n, d) with UniRatFunc entries: relation_generic
    of sigma in internal degree dd times the filler nu, each row once.
    Degrees ascend, and within one the sigmas (None: every wheel
    substitution, rotation copies included) keep their order, so the
    ranks' row selection meets the low-degree rows first.
    The degree-0 relation is 1 for every sigma, so only the first sigma
    yields its rows.
    The ranks pass _rotation_classes(k, r), which spans the same rows.
    Drained, it raises ValueError when n <= k (no wheel) or on a bad sigma.
    """
    p = ParameterSpec.matching(p, k, r)
    check_wheel_size(n, k)
    if sigmas is None:
        sigmas = wheel_substitutions(k, r)
    sigmas = [check_sigma(sigma, k, r) for sigma in sigmas]
    gens = ((sigma, dd, relation_generic(dd, sigma, k, r, p))
            for dd in range(d + 1) for sigma in (sigmas if dd else sigmas[:1]))
    yield from _relation_rows(gens, n, d, UniRatFunc.zero(p.N))


def _wheel_substitute_fld(f, sigma, fld):
    """wheel_substitute over the CoeffField fld, which keeps the read
    tables; sigma is checked against fld.spec when fld has one."""
    return wheel_substitute(f, sigma, fld)


def _kernel(k, r, n, d, p):
    """rank_kernel_poly's UniPoly kernel vectors on the (n, d) component,
    over the rows of one sigma per rotation class; no rows when n <= k."""
    rows = () if n <= k else (
        _clear_upower_row(row, p.N) for _, row in constraint_rows(
            k, r, n, d, p, sigmas=_rotation_classes(k, r)))
    return rank_kernel_poly(rows, len(pt.enumerate_partitions(n, d)), p.N)[1]


def dim_J(k, r, n, d, p=None):
    """dim over K of the wheel-condition subspace of Lambda_{n,d}: the
    number of kernel vectors of the rows of one sigma per rotation class,
    which span the rows of every sigma (see the module docstring)."""
    return len(_kernel(k, r, n, d, ParameterSpec.matching(p, k, r)))


def wheel_kernel_basis(k, r, n, d, p=None):
    """Exact basis of J_{n,d} as SymPolys over K (monomial-basis kernel).

    The rows are those of one sigma per rotation class; rank_kernel_poly's
    kernel depends only on their span, which is that of every sigma.
    """
    p = ParameterSpec.matching(p, k, r)
    plist = pt.enumerate_partitions(n, d)
    return [SymPoly(n, {lam: UniRatFunc(x, _canonical=True)
                        for lam, x in zip(plist, vec) if x}, _clean=True)
            for vec in _kernel(k, r, n, d, p)]


def basis_I(k, r, n, d, p=None, table=None):
    """Specialized Macdonald polynomials over the admissible labels."""
    p = ParameterSpec.matching(p, k, r)
    table = MacdonaldTable.matching(table, n)
    return [specialize_P(lam, n, p, table)
            for lam in pt.enumerate_admissible(k, r, n, d)]


def verify_theorem1(k, r, n, d, p=None, mode="exact", table=None):
    """Check I = J on one component: inclusion witnesses plus the exact
    dim_J.  mode must be "exact"; there is no other."""
    _check_choice("mode", mode, _MODES)
    p = ParameterSpec.matching(p, k, r)
    admissible = pt.enumerate_admissible(k, r, n, d)
    witness_failures = []
    if n > k:
        table = MacdonaldTable.matching(table, n)
        fld = CoeffField.laurent(p)
        for lam in admissible:
            f = laurent_clear(specialize_P(lam, n, p, table), p)
            if not satisfies_wheel(f, p, fld):
                witness_failures.append(pt.format_partition(lam))
    dim = dim_J(k, r, n, d, p)
    return {
        "k": k, "r": r, "n": n, "d": d,
        "dim_J": dim,
        "admissible_count": len(admissible),
        "inclusion_ok": not witness_failures,
        "dims_equal": dim == len(admissible),
        "witness_failures": witness_failures,
    }


def verify_stability(f, p, operators=None, fld=None):
    """Images of f under the Macdonald-type operators stay in J.

    Checks D_n^rho for 1 <= rho <= n and E_m for 0 <= m <= 2.  By default
    the input (over K) is first rescaled to Laurent-polynomial
    coefficients, which does not move it in or out of the ideal but keeps
    the operator arithmetic free of rational-function normalization; as
    in satisfies_wheel, pass the CoeffField the coefficients already live
    in (CoeffField.laurent, say) to run in that ring directly.  The field
    keeps every operator matrix it builds, so one field shared by several
    calls builds each matrix once.
    """
    if fld is None:
        f, fld = laurent_clear(f, p), CoeffField.laurent(p)
    if not satisfies_wheel(f, p, fld):
        raise ValueError("input does not satisfy the wheel condition")
    n = f.n
    if operators is None:
        operators = [("D", rho) for rho in range(1, n + 1)] + \
                    [("E", m) for m in range(3)]
    for kind, arg in operators:
        image = apply_D(f, arg, fld) if kind == "D" else apply_E(f, arg, fld)
        if not satisfies_wheel(image, p, fld):
            return False
    return True


def check_restriction_size(n, k):
    """n; ValueError unless the restriction to n-1 variables still holds a
    wheel, i.e. n >= k+2."""
    if n < k + 2:
        raise ValueError("the restriction needs n >= k+2 = %d" % (k + 2))
    return n


def verify_rho_inclusion(lam, k, r, n, j_max, p=None, table=None):
    """rho(d^j/dx_n^j P_lam) lies in J^(k,r)_{n-1} for 0 <= j <= j_max."""
    check_restriction_size(n, k)
    p = ParameterSpec.matching(p, k, r)
    table = MacdonaldTable.matching(table, n)
    fld = CoeffField.laurent(p)
    f = laurent_clear(specialize_P(lam, n, p, table), p)
    for j in range(j_max + 1):
        g = restrict_derivative(f, j)
        if not satisfies_wheel(g, p, fld):
            return False
    return True
