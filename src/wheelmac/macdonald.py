"""Macdonald q-difference operators and Macdonald polynomials.

The operator family D_n^rho acts on symmetric polynomials as

    D_n^rho = sum_{|I|=rho} t^(rho(rho-1)/2)
              prod_{i in I, j notin I} (t x_i - x_j)/(x_i - x_j) . T_I,

with T_I the q-shift of the variables indexed by I, together with the
first-order operators E_m built from the q-derivative.  Both are applied
by antisymmetrization (Macdonald, SFHP VI.3): A_I(x;t) = T_{t,I}(a_delta)
/ a_delta, so a_delta Op f is a sum over w in S_n and the subsets I that
needs no x-denominators.  A CoeffField builds each operator's matrix on
degree d once, the first time it applies the operator there, from the
generic element sum_nu m_nu (x) e_nu: a_delta Op is evaluated only at the
dominant exponents lam + delta, as integer q^a t^b counts per source
partition nu, Op is read off by a unitriangular solve with +-1 entries on
those counts, and each entry is read once by the field's table reader:
no Vandermonde product is assembled and nothing is divided.  The field
keeps the wheel_collapse tables it has read next to these matrices
(CoeffField.wheel_table), and either kind is applied with one kernel,
scalars.apply_rows in the field's ring, against f's coefficients: at a
rational point (q, t) each target is the rational lane, one integer
numerator over the lcm of the denominators, made one canonical Fraction;
over Laurent polynomials over Q the application is one packed integer per
target at one slot width, each coefficient of f packed once.  The
exactness witness is the antisymmetry of a_delta Op: its counts at an
exponent with the first two entries swapped must be exactly the negatives,
or ExactDivisionError (a check that also runs under python -O, at every
target of every build).

P_lam itself is found from the eigenvalue problem for D_n^1 by
back-substitution against the dominance-triangular matrix of the operator
in the monomial-symmetric basis, always over the generic field Q(q, t);
specializing the coefficients is a separate, final step.  The matrix of
one (n, d) component is D_n^1 applied to the generic element over
Z[q, t], whose coefficients are the unit columns.  A lam with n parts
skips the solve: P_lam = (x_1...x_n)^(lam_n) P_(lam - lam_n 1^n) (SFHP
VI.4), because multiplying by x_1...x_n scales D_n^1 by q, adding 1^n to
every partition keeps the leading term m_lam, and the eigenvalue of lam
differs from that of every partition below it (the proof is in
MacdonaldTable.compute_P).
Each coefficient is summed as one numerator over a running lcm of
denominators, a packed integer decoded once (scalars._qt_fold), and made
canonical once, so integrality is a division test on its denominator, run
once per distinct denominator.

Every q^a t^b value a CoeffField needs, the operator weights and the
eigenvalues alike, is an integer QTPoly table read once by the field's
table reader; a field built without one reads it with QTPoly.substitute.
"""

from itertools import combinations, permutations
from math import gcd, prod

from . import partitions as pt
from .scalars import (BiRatFunc, ExactDivisionError, LaurentPoly, PoleError,
                      QTPoly, _lpoly, _qt_fold, apply_rows, qt_divexact)
from .symfunc import (MonomialExpansion, SymPoly, m_to_monomials,
                      monomials_to_m, sympoly_mul, wheel_collapse)

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
    the ParameterSpec spec it specializes (None for Q(q, t) and Z[q, t]).
    Every q^a t^b value the ring needs is such a table read once.  A ring
    built without a reader (such as Fractions at a rational point) reads
    each table with QTPoly.substitute at (q, t).  Only the operator
    matrices (matrix) and the read wheel tables (wheel_table) are cached on
    the instance, and they live and die with it: share an instance only
    under external serialization, or give each thread its own.  Instances
    are cheap; callers normally create one per computation.  An operator
    matrix is a table {target: {source: value}}, as are the wheel tables of
    an f's partitions put together per key, and scalars.apply_rows, given
    zero, is the one kernel that sums such a table against the
    coefficients of f.
    """

    __slots__ = ("zero", "one", "q", "t", "from_int", "spec", "_read",
                 "_ops", "_wheels")

    def __init__(self, zero, one, q, t, from_int, read=None, spec=None):
        self.zero = zero
        self.one = one
        self.q = q
        self.t = t
        self.from_int = from_int
        self.spec, self._read = spec, read
        self._ops = {}
        self._wheels = {}

    @classmethod
    def generic(cls):
        """Q(q, t)."""
        return cls(BiRatFunc.zero(), BiRatFunc.one(), BiRatFunc.q(),
                   BiRatFunc.t(), BiRatFunc.const, BiRatFunc.from_poly)

    @classmethod
    def laurent(cls, p):
        """Same specialization over Laurent polynomials in u (no fractions).

        Only usable on inputs already cleared of denominators; this is the
        fast lane for the stability and restriction checks.  q and t are
        p.qt_laurent(1, 0) and p.qt_laurent(0, 1), and a table reads as
        p.specialize_poly gives it.  Over Q (phi(N) = 1) q, t and the
        coefficients laurent_clear gives are LaurentPolys of ints over one
        denominator, so the kernels run on plain ints.  A specialized
        table (ints over 1, or CycloNums) is already canonical, so it
        becomes a LaurentPoly as it stands.
        """
        N = p.N
        return cls(LaurentPoly.zero(N), LaurentPoly.one(N),
                   LaurentPoly.monomial(N, *p.qt_laurent(1, 0)),
                   LaurentPoly.monomial(N, *p.qt_laurent(0, 1)),
                   lambda i: LaurentPoly.const(N, i),
                   lambda counts: _lpoly(N, p.specialize_poly(counts)), p)

    def table_reader(self):
        """The map from a QTPoly of integer counts per q^a t^b to its value
        in this ring: the constructor's, or the one default, QTPoly.substitute
        at (q, t) (at a rational point, one integer sum over one
        denominator)."""
        return self._read or (lambda counts: counts.substitute(
            self.q, self.t, self.one))

    def matrix(self, n, d, op):
        """{lam: {nu: <m_lam> op m_nu}} in this ring for op = ("D", rho) or
        ("E", m) on degree d in n variables, nonzero entries only.  Built
        the first time this instance asks for it: one _operator_tables run,
        each count table then read once by table_reader()."""
        rows = self._ops.get((n, d, op))
        if rows is None:
            read = self.table_reader()
            rows = {}
            for lam, counts in _operator_tables(n, d, op).coeffs.items():
                tables = {}
                for (nu, a, b), v in counts.items():
                    tables.setdefault(nu, {})[b, a] = v
                row = {nu: e for nu, table in tables.items()
                       if (e := read(QTPoly(table, _clean=True)))}
                if row:
                    rows[lam] = row
            self._ops[n, d, op] = rows
        return rows

    def wheel_table(self, lam, n, sigma):
        """{key: value}: wheel_collapse(lam, n, sigma) read by
        table_reader(), zero readings dropped.  Built the first time this
        instance asks for it; sigma must be a tuple."""
        table = self._wheels.get((lam, n, sigma))
        if table is None:
            read = self.table_reader()
            table = self._wheels[lam, n, sigma] = {
                key: v for key, counts in wheel_collapse(lam, n, sigma).items()
                if (v := read(counts))}
        return table


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


def _antisymmetrize(n, d, payload):
    """The integer matrix of Op = sum_I A_I(x;t) P_I onto degree d, without
    dividing by a_delta.

    A_I(x;t) = T_{t,I}(a_delta) / a_delta (Macdonald, SFHP VI.3), so
        N = a_delta Op f = sum_w eps(w) x^(w.delta) sum_I t^<w.delta, I> P_I f.
    payload(beta, w.delta) yields (alpha, a, b) when the source has the
    monomial x^alpha and P_I carries it to x^beta with weight t^a q^b; N is
    only collected at the dominant exponents lam + delta, as integer counts
    on (partition nu of alpha, a, b).  N is antisymmetric, so the counts at
    the exponent with its first two entries swapped must be exactly the
    negatives, or ExactDivisionError: a wrong sign or t-weight breaks it.
    Then g = Op f solves N_(lam+delta) = sum_w eps(w) g_sort(lam+delta-w.delta),
    unitriangular in decreasing lex order, by integer additions alone.
    Returns the SymPoly whose coefficient at lam is g_lam's nonzero counts.
    """
    orbit = _delta_orbit(n)
    shapes = {}

    def weights(e):
        acc = {}
        for s, wd in orbit:
            beta = tuple([x - y for x, y in zip(e, wd)])
            if min(beta, default=0) < 0:
                continue
            for alpha, a, b in payload(beta, wd):
                nu = shapes.get(alpha)
                if nu is None:
                    nu = shapes[alpha] = tuple(
                        [x for x in sorted(alpha, reverse=True) if x])
                key = (nu, a, b)
                v = acc.get(key, 0) + s
                if v:
                    acc[key] = v
                else:
                    del acc[key]
        return acc

    g = {}
    for lam in pt.enumerate_partitions(n, d):
        lam = pt.pad(lam, n)
        e = tuple(x + y for x, y in zip(lam, orbit[0][1]))
        val = weights(e)
        if n > 1 and weights((e[1], e[0]) + e[2:]) != {
                key: -v for key, v in val.items()}:
            raise ExactDivisionError("a_delta * Op f is not antisymmetric "
                                     "at x^%r" % (e,))
        for s, wd in orbit[1:]:
            mu = [x - y for x, y in zip(e, wd)]
            if min(mu) < 0:
                continue
            for key, v in g.get(tuple(sorted(mu, reverse=True)), {}).items():
                v = val.get(key, 0) - s * v
                if v:
                    val[key] = v
                else:
                    del val[key]
        g[lam] = val
    return monomials_to_m(MonomialExpansion(n, g), check=False)


def _operator_tables(n, d, op):
    """_antisymmetrize of op = ("D", rho) or ("E", m) on the generic element
    sum_nu m_nu (x) e_nu of degree d, whose support is every monomial of
    degree d: the counts of each source partition nu stay apart."""
    kind, arg = op
    plist = pt.enumerate_partitions(n, d)
    terms = m_to_monomials(SymPoly(n, dict.fromkeys(plist, 1))).terms
    if kind == "D":
        subsets = list(combinations(range(n), arg))

        def payload(beta, wd):
            if beta in terms:
                for I in subsets:
                    yield (beta, sum([wd[i] for i in I]),
                           sum([beta[i] for i in I]))

        return _antisymmetrize(n, d, payload)

    def payload(beta, wd):
        # the q-derivative of x^alpha is [e]_q x^(alpha - e_i)
        for i in range(n):
            e = beta[i] + 1 - arg
            if e > 0:
                alpha = beta[:i] + (e,) + beta[i + 1:]
                if alpha in terms:
                    for j in range(e):
                        yield alpha, wd[i], j

    return _antisymmetrize(n, d + arg - 1, payload)


def _apply(f, op, fld):
    """op f: fld.matrix of each degree of f, applied by scalars.apply_rows
    in fld to f's coefficients of that degree."""
    n = f.n
    parts = {}
    for nu, c in f.coeffs.items():
        parts.setdefault(sum(nu), {})[nu] = c
    out = {}
    for d, part in parts.items():
        out.update(apply_rows(fld.matrix(n, d, op), part, fld.zero))
    return SymPoly(n, out, _clean=True)


def apply_D(f, rho, fld):
    """D_n^rho f = sum_{|I|=rho} A_I(x;t) T_{q,I} f.

    T_{t,I}(a_delta) already carries the t^(rho(rho-1)/2) of A_I.
    """
    if not 0 <= rho <= f.n:
        raise ValueError("need 0 <= rho <= n")
    if rho == 0:
        return f
    return _apply(f, ("D", rho), fld)


def apply_E(f, m, fld):
    """E_m f = sum_i x_i^m A_i(x;t) (T_{q,x_i} - 1)/((q-1) x_i) f.

    The q-derivative of a monomial is [e]_q x^(alpha - e_i), which keeps
    every coefficient polynomial in q; no division by q - 1 happens.
    """
    if m < 0:
        raise ValueError("need m >= 0")
    return _apply(f, ("E", m), fld)


def _eigen_exponents(lam, n):
    """The exponents (lam_i, n-1-i) of the monomials q^(lam_i) t^(n-1-i),
    i < n: distinct, as their t-exponents are."""
    lam = pt.pad(pt.normalize(lam), n)
    return [(lam[i], n - 1 - i) for i in range(n)]


def eigenvalue_D(lam, n, fld=None):
    """Coefficient list of prod_i (1 + X q^(lam_i) t^(n-i)) in X: e_j of the
    monomials, each an integer table read by fld's table reader (the
    QTPolys themselves when fld is None)."""
    coeffs = [QTPoly.one()]
    for a, b in _eigen_exponents(lam, n):
        v = QTPoly.term(1, a, b)
        coeffs = [x + y * v for x, y in
                  zip(coeffs + [QTPoly.zero()], [QTPoly.zero()] + coeffs)]
    return coeffs if fld is None else list(map(fld.table_reader(), coeffs))


def eigenvalue_e1(lam, n, fld=None):
    """The D_n^1 eigenvalue sum_i q^(lam_i) t^(n-i), an integer table read
    by fld's table reader (the QTPoly itself when fld is None)."""
    table = QTPoly(dict.fromkeys(_eigen_exponents(lam, n), 1), _clean=True)
    return table if fld is None else fld.table_reader()(table)


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

    @classmethod
    def matching(cls, table, n):
        """table, or MacdonaldTable(n) when table is None; ValueError when
        table was built for another n."""
        if table is None:
            return cls(n)
        if table.n != n:
            raise ValueError("table was built for n=%d, not n=%d"
                             % (table.n, n))
        return table

    def eps1(self, lam):
        lam = pt.normalize(lam)
        v = self._eps.get(lam)
        if v is None:
            v = self._eps[lam] = eigenvalue_e1(lam, self.n)
        return v

    def component_matrix(self, d):
        """Decreasing-lex partition list of size d and the D_n^1 columns.

        Column nu maps each mu to the QTPoly entry <m_mu> D_n^1 m_nu.  All
        columns come from one apply_D to the generic element
        sum_nu m_nu (x) e_nu, whose coefficient at nu is the unit column
        m_nu, over a fresh field: its one matrix build keys the counts by
        the partition of the source monomial, so columns never mix, and
        the antisymmetry witness checks every column.  D_0^1 is the empty
        sum.
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
        lcm of the u_nu denominators, made canonical once.

        A lam with n parts is read off the smaller P instead, in one step:
        with c = lam_n and e_n = x_1...x_n, P_lam = e_n^c P_(lam - c 1^n)
        (SFHP VI.4), so each m_mu of P_(lam - c 1^n) becomes m_(mu + c 1^n)
        with the same coefficient.  T_{q,x_i}(e_n f) = q e_n T_{q,x_i} f,
        so D_n^1(e_n^c P_mu) = q^c eps1(mu) e_n^c P_mu, and q^c eps1(mu)
        is eps1(lam).  In n variables e_n m_nu = m_(nu + 1^n), and adding
        1^n keeps dominance, so e_n^c P_mu is m_lam plus lower terms.  Over
        Q(q, t) eps1(lam) differs from eps1(nu) for every nu < lam, so
        P_lam is the only such eigenvector.  The smaller P has fewer than n
        parts, so no recursion on lam - 1^n runs |lam| frames deep at n = 1.
        """
        lam = pt.normalize(lam)
        n = self.n
        if pt.length(lam) > n:
            raise ValueError("partition %r does not fit in %d variables"
                             % (lam, n))
        got = self.entries.get(lam)
        if got is not None:
            return got
        if n and len(lam) == n:
            c = lam[-1]
            low = self.compute_P(tuple([x - c for x in lam]))
            result = self.entries[lam] = SymPoly(n, {
                tuple([x + c for x in pt.pad(mu, n)]): coeff
                for mu, coeff in low.coeffs.items()}, _clean=True)
            return result
        plist, cols = self.component_matrix(pt.size(lam))
        eps_lam = self.eps1(lam)
        u = {lam: BiRatFunc.one()}
        merges = {}  # (den, b) -> (den / g, b / g, lcm), g = gcd(den, b)
        start = plist.index(lam)
        for mu in plist[start + 1:]:
            pairs = [(unu, e) for nu, unu in u.items()
                     if (e := cols[nu].get(mu)) is not None]
            if not pairs:
                continue
            num, den = _lcm_sum(pairs, merges)
            diff = eps_lam - self.eps1(mu)
            if diff.is_zero():
                raise ExactDivisionError(
                    "equal D_n^1 eigenvalues for %r and %r over Q(q,t)"
                    % (lam, mu))
            u[mu] = BiRatFunc(num, den * diff)
        result = SymPoly(n, u)
        self.entries[lam] = result
        return result


def _lcm_sum(pairs, merges):
    """(num, den) with num/den = sum of x * e over the (BiRatFunc x, QTPoly
    e) pairs and den the running lcm of the x.den: a new den extends it by
    one gcd, kept in merges under (den, x.den) for the next call.  The
    numerator is one _qt_fold, so over ints one packed sum."""
    steps, den = [], None
    for x, e in pairs:
        b = x.den
        if den is None or b == den:
            den = b
            steps.append((None, (x.num, e)))
        else:
            got = merges.get((den, b))  # theorem pays: +5.6 % without it
            if got is None:
                _, dg, b2 = den.gcd(b)
                got = merges[den, b] = (dg, b2, den * b2)
            dg, b2, den = got
            steps.append((b2, (x.num, e, dg)))
    return _qt_fold(steps), den


def compute_P(lam, n, table=None):
    return MacdonaldTable.matching(table, n).compute_P(lam)


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
    table = MacdonaldTable.matching(table, n)
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
    cells = tuple([QTPoly({(0, 0): 1, (li - j, conj[j - 1] - i + 1): -1},
                          _clean=True)  # leg + 1 > 0: two terms
                   for i, li in enumerate(lam, start=1)
                   for j in range(1, li + 1)])
    return BiRatFunc.from_poly(_qt_fold([(None, cells)]) if cells
                               else QTPoly.one())


def check_integrality(lam, n, table=None):
    """True iff c_lam P_lam has coefficients in Q[q, t] (in lowest terms).

    A stored coefficient num/den is coprime in Z[q, t], so c_lam num/den
    lies in Q[q, t] exactly when the primitive part of den divides c_lam
    (in Q[q, t], so by Gauss's lemma in Z[q, t]); the test never answers
    True wrongly.  c_lam is divided once per distinct den.
    """
    table = MacdonaldTable.matching(table, n)
    c = integral_form_factor(lam).num
    P = table.compute_P(lam)
    try:
        for den in {coeff.den for coeff in P.coeffs.values()}:
            content = gcd(*den.d.values())
            qt_divexact(c, QTPoly({k: v // content
                                   for k, v in den.d.items()}))
    except ExactDivisionError:
        return False
    return True


def specialize_P(lam, n, p, table=None):
    """P_lam with every coefficient pushed into K = Q(zeta_{r-1})(u).

    Raises PoleError naming the offending coefficient when a denominator
    vanishes; by the regularity lemma this cannot happen for admissible
    partitions or admissible ones changed by a single node.
    """
    table = MacdonaldTable.matching(table, n)
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

    Compares the y^l terms, l <= l_max, of sum_l P_(l)(x) c_l y^l and of
    prod_i (t x_i y; q)_inf / (x_i y; q)_inf, with c_m = (t;q)_m/(q;q)_m.
    By the q-binomial series (t z; q)_inf/(z; q)_inf = sum_m c_m z^m, the
    y^l term of the product gives x^alpha the coefficient prod_i c_(alpha_i),
    which depends only on the sorted alpha: it is the sum, over mu |- l
    with at most n parts, of prod_j c_(mu_j) m_mu.
    """
    table = MacdonaldTable.matching(table, n)
    ratios = [qpochhammer_ratio(m) for m in range(l_max + 1)]
    for l in range(l_max + 1):
        rhs = SymPoly(n, {mu: prod((ratios[m] for m in mu),
                                   start=BiRatFunc.one())
                          for mu in pt.enumerate_partitions(n, l)})
        if table.compute_P((l,) if l else ()).scale(ratios[l]) != rhs:
            return False
    return True
