"""Macdonald q-difference operators and Macdonald polynomials.

The operator family D_n^rho acts on symmetric polynomials as

    D_n^rho = sum_{|I|=rho} t^(rho(rho-1)/2)
              prod_{i in I, j notin I} (t x_i - x_j)/(x_i - x_j) . T_I,

with T_I the q-shift of the variables indexed by I, together with the
first-order operators E_m built from the q-derivative.  Both are applied
by antisymmetrization (Macdonald, SFHP VI.3): A_I(x;t) = T_{t,I}(a_delta)
/ a_delta, so a_delta Op f is a sum over w in S_n and the subsets I that
needs no x-denominators.  It is evaluated only at the dominant exponents
lam + delta, as one integer q^a t^b table per source partition that the
field's table reader reads (as it reads wheel_collapse's), and Op f is
read off by a unitriangular solve with +-1 entries: no Vandermonde
product is assembled and nothing is divided.  At a rational point (q, t)
the tables and their sum against f's coefficients go through the
rational lane of sum_of_products: one integer numerator over the lcm of
the denominators per sum, made one canonical Fraction.  The exactness
witness is the antisymmetry of a_delta Op f: its weights at an exponent
with the first two entries swapped must be exactly the negatives, or
ExactDivisionError (a check that also runs under python -O).

P_lam itself is found from the eigenvalue problem for D_n^1 by
back-substitution against the dominance-triangular matrix of the operator
in the monomial-symmetric basis, always over the generic field Q(q, t);
specializing the coefficients is a separate, final step.  The matrix of
one (n, d) component comes from one antisymmetrization of the generic
element sum_nu m_nu (x) e_nu, whose coefficients are the unit columns.
Each coefficient is summed as one numerator over a running lcm of
denominators and made canonical once, so integrality is a division test
on its denominator, run once per distinct denominator.
"""

from itertools import combinations, permutations

from . import partitions as pt
from .scalars import (BiRatFunc, CycloNum, ExactDivisionError, LaurentPoly,
                      PoleError, QTPoly, UniRatFunc, _lpoly, qt_divexact,
                      sum_of_products)
from .symfunc import (MonomialExpansion, SymPoly, m_to_monomials,
                      monomials_to_m, specialized_reader, sympoly_mul)

__all__ = [
    "CoeffField", "ExactDivisionError", "MacdonaldTable",
    "apply_D", "apply_E", "eigenvalue_D", "eigenvalue_e1",
    "compute_P", "psi_prime", "psi_dblprime", "verify_pieri", "pieri_failures",
    "integral_form_factor", "check_integrality", "specialize_P",
    "cauchy_row_check", "qpochhammer_ratio",
]


class CoeffField:
    """The coefficient ring an operator runs over: its 0, 1, q and t, the
    map from_int of ints into it, its reader of integer q^a t^b tables and
    the ParameterSpec spec it specializes (None for Q(q, t) and Q[q, t]).
    A ring built without a reader (numeric, or Fractions at a rational
    point) gets the one default, which multiplies each integer count by a
    cached q^a t^b, so its elements must take an int factor.  Power caches
    are per-instance; instances are cheap and callers normally create one
    per computation.
    """

    __slots__ = ("zero", "one", "q", "t", "from_int", "spec", "_read",
                 "_qp", "_tp", "_qtp")

    def __init__(self, zero, one, q, t, from_int, read=None, spec=None):
        self.zero = zero
        self.one = one
        self.q = q
        self.t = t
        self.from_int = from_int
        self.spec, self._read = spec, read
        self._qp = {0: one, 1: q}
        self._tp = {0: one, 1: t}
        self._qtp = {}

    @classmethod
    def generic_poly(cls):
        """Q[q, t] -- enough for operator application and eigenvalues."""
        return cls(QTPoly.zero(), QTPoly.one(), QTPoly.q(), QTPoly.t(),
                   QTPoly.term, lambda counts: counts)

    @classmethod
    def generic(cls):
        """Q(q, t)."""
        return cls(BiRatFunc.zero(), BiRatFunc.one(), BiRatFunc.q(),
                   BiRatFunc.t(), BiRatFunc.const, BiRatFunc.from_poly)

    @classmethod
    def specialized(cls, p):
        """K = Q(zeta_{r-1})(u) at t = u^((r-1)/m), q = omega1 u^(-(k+1)/m)."""
        N = p.N
        return cls(UniRatFunc.zero(N), UniRatFunc.one(N), p.q_value(),
                   p.t_value(), lambda i: UniRatFunc.const(N, i),
                   specialized_reader(p), p)

    @classmethod
    def laurent(cls, p):
        """Same specialization over Laurent polynomials in u (no fractions).

        Only usable on inputs already cleared of denominators; this is the
        fast lane for the stability and restriction checks.  Over Q
        (omega1 = +-1) q, t and the coefficients laurent_clear gives are
        LaurentPolys of ints over one denominator, so the kernels run on
        plain ints.  A specialized table (ints over 1, or CycloNums) is
        already canonical, so it becomes a LaurentPoly as it stands.
        """
        N = p.N
        q = LaurentPoly.monomial(N, -p.q_exp, p.omega1)
        t = LaurentPoly.monomial(N, p.t_exp)
        return cls(LaurentPoly.zero(N), LaurentPoly.one(N), q, t,
                   lambda i: LaurentPoly.const(N, i),
                   lambda counts: _lpoly(N, p.specialize_poly(counts)), p)

    @classmethod
    def numeric(cls, p, u0):
        """Probe field: u evaluated at a rational point, over Q(zeta_{r-1})."""
        N = p.N
        return cls(CycloNum.zero(N), CycloNum.one(N),
                   p.q_value().evaluate(u0), p.t_value().evaluate(u0),
                   lambda i: CycloNum.from_rational(N, i), spec=p)

    def table_reader(self):
        """The map from a QTPoly of integer counts per q^a t^b to its value
        in this ring: the constructor's, or the one default, which sums each
        count against the cached q^a t^b by sum_of_products (over Q, one
        integer numerator over one denominator)."""
        return self._read or (lambda counts: sum_of_products(
            [(v, self.qtpow(a, b)) for (a, b), v in counts.d.items()],
            self.zero))

    def qpow(self, e):
        v = self._qp.get(e)
        if v is None:
            v = self._qp[e] = self.qpow(e - 1) * self.q
        return v

    def tpow(self, e):
        v = self._tp.get(e)
        if v is None:
            v = self._tp[e] = self.tpow(e - 1) * self.t
        return v

    def qtpow(self, a, b):
        v = self._qtp.get((a, b))
        if v is None:
            v = self._qtp[a, b] = self.qpow(a) * self.tpow(b)
        return v


def _acc(out, key, c):
    w = out.get(key)
    w = c if w is None else w + c
    if w:
        out[key] = w
    else:
        out.pop(key, None)


_DELTA_ORBITS = {}


def _delta_orbit(n):
    """[(eps(w), w.delta) for w in S_n], identity first, delta = (n-1, ..., 0).

    eps(w) is the parity of the inversions of w.delta, so that
    a_delta = prod_{i<j} (x_i - x_j) = sum_w eps(w) x^(w.delta).
    """
    orbit = _DELTA_ORBITS.get(n)
    if orbit is None:
        orbit = []
        for wd in permutations(range(n - 1, -1, -1)):
            inv = sum(wd[i] < wd[j] for i in range(n) for j in range(i + 1, n))
            orbit.append((-1 if inv % 2 else 1, wd))
        _DELTA_ORBITS[n] = orbit
    return orbit


def _antisymmetrize(f, fld, tops, payload):
    """Op f for Op = sum_I A_I(x;t) P_I, without dividing by a_delta.

    A_I(x;t) = T_{t,I}(a_delta) / a_delta (Macdonald, SFHP VI.3), so
        N = a_delta Op f = sum_w eps(w) x^(w.delta) sum_I t^<w.delta, I> P_I f.
    payload(beta, w.delta) yields (alpha, a, b) when f has the monomial
    x^alpha and P_I carries it to x^beta with weight t^a q^b; N is only
    collected at the dominant exponents lam + delta, as integer weights on
    (partition of alpha, a, b): one table of counts per q^b t^a for each
    partition, read once by fld.table_reader() and summed against f's
    coefficients by sum_of_products.  N is antisymmetric, so the weights
    at the exponent with its first two entries swapped must be exactly the
    negatives, or ExactDivisionError: a wrong sign or t-weight breaks it.
    Then g = Op f solves N_(lam+delta) = sum_w eps(w) g_sort(lam+delta-w.delta),
    unitriangular in decreasing lex order, by additions alone.  Op f is
    supported in the dominance ideals of tops.
    """
    n = f.n
    orbit = _delta_orbit(n)
    coeffs = {pt.pad(nu, n): c for nu, c in f.coeffs.items()}
    shapes = {}
    read = fld.table_reader()

    def weights(e):
        acc = {}
        for s, wd in orbit:
            beta = tuple([x - y for x, y in zip(e, wd)])
            if min(beta) < 0:
                continue
            for alpha, a, b in payload(beta, wd):
                nu = shapes.get(alpha)
                if nu is None:
                    nu = shapes[alpha] = tuple(sorted(alpha, reverse=True))
                key = (nu, a, b)
                v = acc.get(key, 0) + s
                if v:
                    acc[key] = v
                else:
                    del acc[key]
        return acc

    def value(acc):
        tables = {}
        for (nu, a, b), v in acc.items():
            tables.setdefault(nu, {})[(b, a)] = v
        return sum_of_products([(read(QTPoly(table, _clean=True)), coeffs[nu])
                                for nu, table in tables.items()], fld.zero)

    lams = set()
    for d in {sum(top) for top in tops}:
        below = [top for top in tops if sum(top) == d]
        lams.update(pt.pad(lam, n) for lam in pt.enumerate_partitions(n, d)
                    if any(pt.dominance_leq(lam, top) for top in below))
    g = {}
    for lam in sorted(lams, reverse=True):
        e = tuple(x + y for x, y in zip(lam, orbit[0][1]))
        acc = weights(e)
        if n > 1 and weights((e[1], e[0]) + e[2:]) != {
                key: -v for key, v in acc.items()}:
            raise ExactDivisionError("a_delta * Op f is not antisymmetric "
                                     "at x^%r" % (e,))
        val = value(acc)
        for s, wd in orbit[1:]:
            mu = [x - y for x, y in zip(e, wd)]
            if min(mu) < 0:
                continue
            gm = g.get(tuple(sorted(mu, reverse=True)))
            if gm is not None:
                val = val - gm if s > 0 else val + gm
        if val:
            g[lam] = val
    return monomials_to_m(MonomialExpansion(n, g), check=False)


def apply_D(f, rho, fld):
    """D_n^rho f = sum_{|I|=rho} A_I(x;t) T_{q,I} f.

    T_{t,I}(a_delta) already carries the t^(rho(rho-1)/2) of A_I.
    """
    n = f.n
    if not 0 <= rho <= n:
        raise ValueError("need 0 <= rho <= n")
    if rho == 0:
        return f
    terms = m_to_monomials(f).terms
    subsets = list(combinations(range(n), rho))

    def payload(beta, wd):
        if beta in terms:
            for I in subsets:
                yield beta, sum([wd[i] for i in I]), sum([beta[i] for i in I])

    return _antisymmetrize(f, fld, [pt.pad(nu, n) for nu in f.coeffs],
                           payload)


def apply_E(f, m, fld):
    """E_m f = sum_i x_i^m A_i(x;t) (T_{q,x_i} - 1)/((q-1) x_i) f.

    The q-derivative of a monomial is [e]_q x^(alpha - e_i), which keeps
    every coefficient polynomial in q; no division by q - 1 happens.
    """
    if m < 0:
        raise ValueError("need m >= 0")
    n = f.n
    terms = m_to_monomials(f).terms

    def payload(beta, wd):
        for i in range(n):
            e = beta[i] + 1 - m
            if e > 0:
                alpha = beta[:i] + (e,) + beta[i + 1:]
                if alpha in terms:
                    for j in range(e):
                        yield alpha, wd[i], j

    tops = set()
    for nu in f.coeffs:
        nu = pt.pad(nu, n)
        tops.update(tuple(sorted(nu[:i] + (nu[i] + m - 1,) + nu[i + 1:],
                                 reverse=True))
                    for i in range(n) if nu[i])
    return _antisymmetrize(f, fld, tops, payload)


def eigenvalue_D(lam, n, fld=None):
    """Coefficient list of prod_i (1 + X q^(lam_i) t^(n-i)) in X."""
    fld = fld or CoeffField.generic_poly()
    lam = pt.pad(pt.normalize(lam), n)
    coeffs = [fld.one]
    for i in range(n):
        v = fld.qtpow(lam[i], n - 1 - i)
        nxt = [fld.zero] * (len(coeffs) + 1)
        for e, c in enumerate(coeffs):
            nxt[e] = nxt[e] + c
            nxt[e + 1] = nxt[e + 1] + c * v
        coeffs = nxt
    return coeffs


def eigenvalue_e1(lam, n, fld=None):
    """The D_n^1 eigenvalue sum_i q^(lam_i) t^(n-i)."""
    fld = fld or CoeffField.generic_poly()
    lam = pt.pad(pt.normalize(lam), n)
    acc = fld.zero
    for i in range(n):
        acc = acc + fld.qtpow(lam[i], n - 1 - i)
    return acc


class MacdonaldTable:
    """Cache of Macdonald polynomials P_lam over Q(q, t) for fixed n.

    compute_P mutates the table; share a table only under external
    serialization, or give each thread its own.
    """

    def __init__(self, n):
        self.n = n
        self.entries = {}
        self._matrices = {}
        self._eps = {}

    def eps1(self, lam):
        lam = pt.normalize(lam)
        v = self._eps.get(lam)
        if v is None:
            v = self._eps[lam] = eigenvalue_e1(lam, self.n)
        return v

    def component_matrix(self, d):
        """Decreasing-lex partition list of size d and the D_n^1 columns.

        Column nu maps each mu to the QTPoly entry <m_mu> D_n^1 m_nu.  All
        columns come from one antisymmetrization of the generic element
        sum_nu m_nu (x) e_nu, whose coefficient at nu is the unit column
        m_nu: the kernel keys its weights by the partition of the source
        monomial, so columns never mix, and the antisymmetry witness checks
        every column in the same pass.  D_0^1 is the empty sum.
        """
        cached = self._matrices.get(d)
        if cached is not None:
            return cached
        n = self.n
        plist = pt.enumerate_partitions(n, d)
        cols = {nu: {} for nu in plist}
        if n:
            one = QTPoly.one()
            fld = CoeffField(SymPoly.zero(n), one, QTPoly.q(), QTPoly.t(),
                             QTPoly.term, lambda counts: counts)
            generic = SymPoly(n, {nu: SymPoly.m(nu, n, one) for nu in plist})
            for mu, row in apply_D(generic, 1, fld).coeffs.items():
                for nu, entry in row.coeffs.items():
                    cols[nu][mu] = entry
        cached = self._matrices[d] = (plist, cols)
        return cached

    def compute_P(self, lam):
        """P_lam = sum_mu u_mu m_mu with u_lam = 1 and u_mu = sum_nu u_nu
        <m_mu> D m_nu / (eps1(lam) - eps1(mu)); the sum is num/den over the
        lcm of the u_nu denominators, made canonical once."""
        lam = pt.normalize(lam)
        if pt.length(lam) > self.n:
            raise ValueError("partition %r does not fit in %d variables"
                             % (lam, self.n))
        got = self.entries.get(lam)
        if got is not None:
            return got
        plist, cols = self.component_matrix(pt.size(lam))
        eps_lam = self.eps1(lam)
        u = {lam: BiRatFunc.one()}
        merges = {}  # (den, b) -> (den / g, b / g, lcm), g = gcd(den, b)
        start = plist.index(lam)
        for mu in plist[start + 1:]:
            num = den = None
            for nu, unu in u.items():
                entry = cols[nu].get(mu)
                if entry is None:
                    continue
                term, b = unu.num * entry, unu.den
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
            if num is None or num.is_zero():
                continue
            diff = eps_lam - self.eps1(mu)
            if diff.is_zero():
                raise ExactDivisionError(
                    "equal D_n^1 eigenvalues for %r and %r over Q(q,t)"
                    % (lam, mu))
            u[mu] = BiRatFunc(num, den * diff)
        result = SymPoly(self.n, u)
        self.entries[lam] = result
        return result


def compute_P(lam, n, table=None):
    table = table if table is not None else MacdonaldTable(n)
    if table.n != n:
        raise ValueError("table was built for n=%d" % table.n)
    return table.compute_P(lam)


def _one_minus_qt(a, b):
    """1 - q^a t^b as a BiRatFunc, any integer exponents."""
    return BiRatFunc.one() - BiRatFunc.qt_monomial(a, b)


def _psi_factor(a, h, name):
    """The factor of psi' and psi'' for a row gap a at row distance h:
    (1 - q^(a-1) t^(h+1)) (1 - q^a t^(h-1)) over
    (1 - q^a t^h) (1 - q^(a-1) t^h)."""
    den = _one_minus_qt(a, h) * _one_minus_qt(a - 1, h)
    if den.is_zero():
        raise ExactDivisionError("vanishing denominator in %s" % name)
    return _one_minus_qt(a - 1, h + 1) * _one_minus_qt(a, h - 1) / den


def psi_prime(lam, j):
    """Pieri coefficient psi' for adding a node to row j of lam.

    Vanishes exactly when lam_{j-1} = lam_j, i.e. when the new shape is
    not a partition.
    """
    lam = pt.normalize(lam)
    if not 1 <= j <= pt.length(lam) + 1:
        raise ValueError("need 1 <= j <= l(lam)+1")
    lam_j = lam[j - 1] if j <= len(lam) else 0
    out = BiRatFunc.one()
    for i in range(1, j):
        out = out * _psi_factor(lam[i - 1] - lam_j, j - i, "psi'")
    return out


def psi_dblprime(lam, j, n):
    """Lowering coefficient psi'' for removing a node from row j of lam."""
    lam = pt.normalize(lam)
    if not 1 <= j <= pt.length(lam):
        raise ValueError("need 1 <= j <= l(lam)")
    if pt.length(lam) > n:
        raise ValueError("partition does not fit in %d variables" % n)
    padded = pt.pad(lam, n)
    lam_j = padded[j - 1]
    out = _one_minus_qt(lam_j, n - j) / _one_minus_qt(1, 0)
    for i in range(j + 1, n + 1):
        out = out * _psi_factor(lam_j - padded[i - 1], i - j, "psi''")
    return out


def _pieri_sum_up(lam, n, table, weight=None):
    """sum_j weight(j) psi'_j P_(lam + node at j), inside Lambda_n."""
    acc = SymPoly.zero(n)
    lam = pt.normalize(lam)
    for j in pt.addable_rows(lam):  # psi' = 0 at every other row
        mu = pt.add_node(lam, j)
        if pt.length(mu) > n:
            continue  # P_mu = 0 in n variables
        coeff = psi_prime(lam, j)
        if weight is not None:
            coeff = coeff * weight(j, (lam + (0,))[j - 1])
        acc = acc + table.compute_P(mu).scale(coeff)
    return acc


def pieri_failures(lam, n, table=None):
    """Names of the expansion identities that fail for lam (normally none).

    Checks, by exact equality over Q(q, t):
      e1  : e_1 P_lam            = sum_j psi'  P_(add node j)
      E0  : E_0 P_lam            = sum_j psi'' P_(remove node j)
      E2  : E_2 P_lam            = t^(n-1)/(1-q) sum_j (1 - q^(lam_j) t^(1-j))
                                   psi' P_(add node j)
    """
    table = table if table is not None else MacdonaldTable(n)
    lam = pt.normalize(lam)
    if pt.length(lam) > n:
        raise ValueError("partition does not fit")
    fld = CoeffField.generic()
    P = table.compute_P(lam)
    failures = []

    e1 = SymPoly.m((1,), n, BiRatFunc.one())
    if sympoly_mul(e1, P) != _pieri_sum_up(lam, n, table):
        failures.append("e1")

    acc = SymPoly.zero(n)
    for j in pt.removable_rows(lam):  # psi'' = 0 at every other row
        mu = pt.remove_node(lam, j)
        acc = acc + table.compute_P(mu).scale(psi_dblprime(lam, j, n))
    if apply_E(P, 0, fld) != acc:
        failures.append("E0")

    pref = (BiRatFunc.t() ** (n - 1)) / (BiRatFunc.one() - BiRatFunc.q())
    rhs = _pieri_sum_up(
        lam, n, table,
        weight=lambda j, lam_j: _one_minus_qt(lam_j, 1 - j))
    if apply_E(P, 2, fld) != rhs.scale(pref):
        failures.append("E2")
    return failures


def verify_pieri(lam, n, table=None):
    return not pieri_failures(lam, n, table)


def integral_form_factor(lam):
    """c_lam(q, t) = prod over cells (i,j) of (1 - q^(arm) t^(leg+1))."""
    lam = pt.normalize(lam)
    conj = pt.conjugate(lam)
    out = QTPoly.one()
    for i, li in enumerate(lam, start=1):
        for j in range(1, li + 1):
            out = out * (QTPoly.one() - QTPoly.term(1, li - j, conj[j - 1] - i + 1))
    return BiRatFunc.from_poly(out)


def check_integrality(lam, n, table=None):
    """True iff c_lam P_lam has polynomial coefficients (in lowest terms).

    A stored coefficient num/den is canonical, so num and den are coprime
    and c_lam num/den is a polynomial exactly when den divides c_lam.  If
    den | c_lam the product is a polynomial whatever num is, so the test
    never answers True wrongly.  c_lam is divided once per distinct den.
    """
    table = table if table is not None else MacdonaldTable(n)
    c = integral_form_factor(lam).num
    P = table.compute_P(lam)
    try:
        for den in {coeff.den for coeff in P.coeffs.values()}:
            qt_divexact(c, den)
    except ExactDivisionError:
        return False
    return True


def specialize_P(lam, n, p, table=None):
    """P_lam with every coefficient pushed into K = Q(zeta_{r-1})(u).

    Raises PoleError naming the offending coefficient when a denominator
    vanishes; by the regularity lemma this cannot happen for admissible
    partitions or admissible ones changed by a single node.
    """
    table = table if table is not None else MacdonaldTable(n)
    P = table.compute_P(lam)
    out = {}
    for mu, c in P.coeffs.items():
        try:
            out[mu] = p.specialize(c)
        except PoleError:
            raise PoleError(
                "coefficient of m_%s in P_%s has a pole at the (k=%d, r=%d) "
                "specialization" % (pt.format_partition(mu),
                                    pt.format_partition(lam), p.k, p.r))
    return SymPoly(n, out)


def qpochhammer_ratio(m):
    """(t; q)_m / (q; q)_m as a BiRatFunc."""
    num = QTPoly.one()
    den = QTPoly.one()
    for i in range(m):
        num = num * (QTPoly.one() - QTPoly.term(1, i, 1))
        den = den * (QTPoly.one() - QTPoly.term(1, i + 1, 0))
    return BiRatFunc(num, den)


def cauchy_row_check(n, l_max, table=None):
    """Row case of the Cauchy identity, as truncated series in y.

    Compares sum_l P_(l)(x) (t;q)_l/(q;q)_l y^l against
    prod_i (t x_i y; q)_inf / (x_i y; q)_inf expanded through y^l_max via
    the q-binomial series (t z; q)_inf/(z; q)_inf = sum_m (t;q)_m/(q;q)_m z^m.
    """
    table = table if table is not None else MacdonaldTable(n)
    ratios = [qpochhammer_ratio(m) for m in range(l_max + 1)]
    # right-hand side: product over variables of the one-variable series
    rhs = [dict() for _ in range(l_max + 1)]
    rhs[0][(0,) * n] = BiRatFunc.one()
    for i in range(n):
        new = [dict() for _ in range(l_max + 1)]
        for deg, terms in enumerate(rhs):
            for alpha, c in terms.items():
                for m in range(l_max + 1 - deg):
                    beta = list(alpha)
                    beta[i] += m
                    _acc(new[deg + m], tuple(beta), c * ratios[m])
        rhs = new
    for l in range(l_max + 1):
        lhs = m_to_monomials(table.compute_P((l,) if l else ()).scale(ratios[l]))
        if lhs.terms != rhs[l]:
            return False
    return True
