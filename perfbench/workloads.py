"""The four verdict workloads of the wheelmac benchmark.

Each workload has three parts:

* ``make_inputs(seed)`` -- set-up: every random choice, drawn from the seed,
  plus the answers the verdicts are checked against wherever they can be
  derived without the library (admissible counts);
* ``verdicts(inputs)`` -- a generator that does the library work of one
  pass.  It yields ``(key, thunk, counted)`` triples: the runner times each
  ``thunk()`` as one verdict, and ``counted`` says whether that latency
  enters the percentiles.  Work done between yields (fresh tables, kernel
  bases, characters) counts in the pass time but in no verdict;
* ``gate(inputs, results)`` -- after the pass clock stopped, checks every
  verdict against an answer the timed path did not produce, and returns one
  message per wrong verdict.

The library is looked up through its modules at call time, so the traced
run sees every call through the wrappers it installs.
"""

import random
from fractions import Fraction
from itertools import combinations_with_replacement, permutations
from math import gcd

from wheelmac import current_algebra as ca
from wheelmac import macdonald as md
from wheelmac import partitions as pt
from wheelmac import wheel_ideal as wi
from wheelmac.scalars import BiRatFunc, ParameterSpec, PoleError, UniRatFunc
from wheelmac.symfunc import SymPoly

# Exceptions that make a verdict count as failed rather than crash the run.
VERDICT_ERRORS = (md.ExactDivisionError, PoleError, AssertionError)


# --- answers computed without the library ---------------------------------

def partitions_of(d, n):
    """Partitions of d with at most n parts, each padded to n slots."""
    out = []

    def rec(left, slots, cap, prefix):
        if slots == 0:
            if left == 0:
                out.append(tuple(prefix))
            return
        for p in range(min(cap, left), -1, -1):
            if p * slots < left:
                break
            rec(left - p, slots - 1, p, prefix + [p])

    rec(d, n, d, [])
    return out


def admissible_count(k, r, n, d):
    """#{lam : |lam| = d, l(lam) <= n, lam_i - lam_(i+k) >= r}."""
    return sum(1 for lam in partitions_of(d, n)
               if all(lam[i] - lam[i + k] >= r for i in range(n - k)))


def _dominated(mu, lam):
    """mu <= lam in dominance order (equal sizes assumed by the caller)."""
    a = b = 0
    for i in range(max(len(mu), len(lam))):
        a += mu[i] if i < len(mu) else 0
        b += lam[i] if i < len(lam) else 0
        if a > b:
            return False
    return True


class _MonomialValues:
    """m_mu evaluated at rational points by summing over the S_n orbit."""

    def __init__(self):
        self._orbits = {}

    def __call__(self, mu, xs):
        n = len(xs)
        orbit = self._orbits.get((mu, n))
        if orbit is None:
            padded = tuple(mu) + (0,) * (n - len(mu))
            orbit = self._orbits[(mu, n)] = sorted(set(permutations(padded)))
        total = Fraction(0)
        for alpha in orbit:
            term = Fraction(1)
            for x, e in zip(xs, alpha):
                if e:
                    term *= x ** e
            total += term
        return total


def _qt_value(poly, q0, t0):
    """A QTPoly ({(q-exp, t-exp): Fraction}) at the point (q0, t0)."""
    return sum((c * q0 ** a * t0 ** b for (a, b), c in poly.d.items()),
               Fraction(0))


def _distinct_ints(rng, count, lo=2, hi=64):
    """Distinct integers in [lo, hi), as Fractions; with lo >= 2 no
    1 - q^a t^b (a, b >= 0, not both 0) vanishes there."""
    return [Fraction(x) for x in rng.sample(range(lo, hi), count)]


# --- macd: every P_lam of a grid, certified at a numeric point ------------

class Macd:
    """compute_P for n=4, |lam| <= 8 and n=3, |lam| <= 10, one table per n."""

    name = "macd"
    GRID = ((4, 8), (3, 10))

    def make_inputs(self, seed):
        rng = random.Random(seed)
        # close five-bit values: the certificate costs the same for any seed
        q0, t0 = _distinct_ints(rng, 2, 24, 32)
        blocks = [(n, [lam for d in range(dmax + 1)
                       for lam in pt.enumerate_partitions(n, d)])
                  for n, dmax in self.GRID]
        # gate point: distinct x_i, so D_n^1 has no pole there
        xs = {n: _distinct_ints(rng, n) for n, _ in self.GRID}
        return {"q0": q0, "t0": t0, "blocks": blocks, "xs": xs}

    def verdicts(self, inputs):
        q0, t0 = inputs["q0"], inputs["t0"]
        fld = md.CoeffField(Fraction(0), Fraction(1), q0, t0, Fraction)
        for n, lams in inputs["blocks"]:
            table = md.MacdonaldTable(n)
            for lam in lams:
                yield (n, lam), _certified_P(table, lam, fld, q0, t0), True

    def gate(self, inputs, results):
        q0, t0 = inputs["q0"], inputs["t0"]
        mval = _MonomialValues()
        bad = []
        for (n, lam), (P, ok) in results:
            if not ok:
                bad.append("macd n=%d lam=%r: library certificate failed"
                           % (n, lam))
                continue
            why = _check_P(P, lam, n, q0, t0, inputs["xs"][n], mval)
            if why:
                bad.append("macd n=%d lam=%r: %s" % (n, lam, why))
        return bad


def _certified_P(table, lam, fld, q0, t0):
    """The library path: compute_P, then its three certificates."""
    def run():
        P = table.compute_P(lam)
        n = table.n
        one = Fraction(1)
        tri = P.coeffs.get(lam) == BiRatFunc.one() and all(
            mu == lam or (pt.size(mu) == pt.size(lam)
                          and pt.dominance_leq(mu, lam))
            for mu in P.coeffs)
        Pnum = SymPoly(n, {mu: c.num.substitute(q0, t0, one)
                           / c.den.substitute(q0, t0, one)
                           for mu, c in P.coeffs.items()})
        eig = md.apply_D(Pnum, 1, fld) == \
            Pnum.scale(md.eigenvalue_e1(lam, n, fld))
        integral = md.check_integrality(lam, n, table)
        return P, bool(tri and eig and integral)
    return run


def _check_P(P, lam, n, q0, t0, xs, mval):
    """Unitriangularity and D_n^1 P = eps P at (q0, t0, xs), evaluated here.

    D_n^1 f(x) = sum_i prod_(j != i) (t x_i - x_j)/(x_i - x_j) f(.., q x_i, ..).
    """
    if P.coeffs.get(lam) != BiRatFunc.one():
        return "leading coefficient is not 1"
    size = sum(lam)
    for mu in P.coeffs:
        if sum(mu) != size or not _dominated(mu, lam):
            return "support %r outside the dominance ideal" % (mu,)
    coeffs = {mu: _qt_value(c.num, q0, t0) / _qt_value(c.den, q0, t0)
              for mu, c in P.coeffs.items()}

    def value(pt_xs):
        return sum((c * mval(mu, pt_xs) for mu, c in coeffs.items()),
                   Fraction(0))

    lhs = Fraction(0)
    for i in range(n):
        a = Fraction(1)
        for j in range(n):
            if j != i:
                a *= (t0 * xs[i] - xs[j]) / (xs[i] - xs[j])
        shifted = list(xs)
        shifted[i] = q0 * xs[i]
        lhs += a * value(shifted)
    padded = tuple(lam) + (0,) * (n - len(lam))
    eps = sum(q0 ** padded[i] * t0 ** (n - 1 - i) for i in range(n))
    if lhs != eps * value(xs):
        return "D_n^1 eigen equation fails at the gate point"
    return None


# --- theorem: verify_theorem1 on the acceptance grid ----------------------

class Theorem:
    """verify_theorem1, exact mode, (k,r) in the acceptance grid, d <= 8."""

    name = "theorem"
    KR = ((1, 2), (1, 3), (2, 2), (2, 3))
    D_MAX = 8

    def make_inputs(self, seed):
        rng = random.Random(seed)
        order = list(self.KR)
        rng.shuffle(order)
        blocks = []
        for k, r in order:
            n_max = 5 if r == 2 else 4
            comps = [(n, d, admissible_count(k, r, n, d))
                     for n in range(n_max + 1) for d in range(self.D_MAX + 1)]
            blocks.append((k, r, n_max, comps))
        return {"blocks": blocks}

    def verdicts(self, inputs):
        for k, r, n_max, comps in inputs["blocks"]:
            p = ParameterSpec(k, r)
            tables = {}
            for n, d, _ in comps:
                table = tables.get(n)
                if table is None:
                    table = tables[n] = md.MacdonaldTable(n)
                yield (k, r, n, d), _theorem1(k, r, n, d, p, table), n > k

    def gate(self, inputs, results):
        expected = {(k, r, n, d): cnt for k, r, _, comps in inputs["blocks"]
                    for n, d, cnt in comps}
        bad = []
        for key, rep in results:
            cnt = expected[key]
            if not (rep["dim_J"] == cnt and rep["admissible_count"] == cnt
                    and rep["inclusion_ok"] and rep["dims_equal"]):
                bad.append("theorem (k,r,n,d)=%r: dim_J=%s admissible=%d "
                           "inclusion_ok=%s" % (key, rep["dim_J"], cnt,
                                                rep["inclusion_ok"]))
        return bad


def _theorem1(k, r, n, d, p, table):
    return lambda: wi.verify_theorem1(k, r, n, d, p, mode="exact", table=table)


# --- stability: operator images of wheel-ideal elements -------------------

class Stability:
    """D^1, D^2, E_0, E_1, E_2 on random combinations of the kernel basis."""

    name = "stability"
    TUPLES = ((2, 2, 3, 8), (2, 3, 3, 6), (2, 2, 4, 6))  # (k, r, n, d_max)
    COMBOS = 2  # random combinations per non-zero component
    OPS = (("D", 1), ("D", 2), ("E", 0), ("E", 1), ("E", 2))

    def make_inputs(self, seed):
        rng = random.Random(seed)
        comps = []
        for k, r, n, d_max in self.TUPLES:
            for d in range(d_max + 1):
                width = len(partitions_of(d, n))  # bounds the kernel dimension
                coeffs = [[rng.choice((-5, -4, -3, -2, -1, 1, 2, 3, 4, 5))
                           for _ in range(width)] for _ in range(self.COMBOS)]
                comps.append((k, r, n, d, coeffs))
        gate_rng = random.Random(seed ^ 0x5EED)
        points = {(k, r, n): (_distinct_ints(gate_rng, 1)[0],
                              _distinct_ints(gate_rng, n - k))
                  for k, r, n, _ in self.TUPLES}
        return {"comps": comps, "points": points}

    def verdicts(self, inputs):
        for k, r, n, d, coeffs in inputs["comps"]:
            p = ParameterSpec(k, r)
            basis = wi.wheel_kernel_basis(k, r, n, d, p)
            if not basis:
                continue
            fld = md.CoeffField.laurent(p)
            for c, row in enumerate(coeffs):
                f = SymPoly.zero(n)
                for g, a in zip(basis, row):
                    f = f + g.scale(UniRatFunc.const(p.N, a))
                if not wi.satisfies_wheel(f, p):
                    yield (k, r, n, d, c, "input"), _left_ideal(f), True
                    continue
                g = wi.laurent_clear(f, p)
                for op in self.OPS:
                    yield (k, r, n, d, c, op), _stable(g, op, p, fld), True

    def gate(self, inputs, results):
        mval = _MonomialValues()
        bad = []
        for key, (image, ok) in results:
            k, r, n = key[:3]
            if not ok:
                bad.append("stability %r: satisfies_wheel says it left J"
                           % (key,))
                continue
            u0, xs = inputs["points"][(k, r, n)]
            why = _check_wheel_zero(image, k, r, u0, xs, mval)
            if why:
                bad.append("stability %r: %s" % (key, why))
        return bad


def _left_ideal(f):
    return lambda: (f, False)


def _stable(g, op, p, fld):
    kind, arg = op

    def run():
        if kind == "D":
            image = md.apply_D(g, arg, fld)
        else:
            image = md.apply_E(g, arg, fld)
        return image, wi.satisfies_wheel(image, p, fld)
    return run


def _check_wheel_zero(image, k, r, u0, xs, mval):
    """The image at u = u0 vanishes on every wheel x_(i+1) = t^i q^s_i x_1.

    t = u^((r-1)/m), q = zeta_(r-1) u^(-(k+1)/m), m = gcd(k+1, r-1); the
    workload only uses r <= 3, where zeta_(r-1) = +-1 is rational.
    """
    if r > 3:
        raise ValueError("gate needs a rational root of unity (r <= 3)")
    m = gcd(k + 1, r - 1)
    zeta = 1 if r == 2 else -1
    t = u0 ** ((r - 1) // m)
    q = zeta * u0 ** (-((k + 1) // m))
    coeffs = {}
    for mu, c in image.coeffs.items():
        v = Fraction(0)
        for e, a in c.d.items():
            a = a if isinstance(a, Fraction) else a.rational_value()
            v += a * u0 ** e
        coeffs[mu] = v
    x1, free = xs[0], list(xs[1:])
    for sigma in combinations_with_replacement(range(r), k):
        wheel = [x1] + [t ** i * q ** sigma[i - 1] * x1 for i in range(1, k + 1)]
        point = wheel + free
        if sum((c * mval(mu, point) for mu, c in coeffs.items()),
               Fraction(0)):
            return "non-zero on the wheel sigma=%r" % (sigma,)
    return None


# --- dual: W-space dimensions against the character -----------------------

class Dual:
    """W_space_dim against chi_C for every prefix profile, n <= 4, d <= 8."""

    name = "dual"
    KR = ((1, 2), (2, 2), (1, 3))
    N_MAX = 4
    D_MAX = 8

    def make_inputs(self, seed):
        rng = random.Random(seed)
        order = list(self.KR)
        rng.shuffle(order)
        blocks = []
        for k, r in order:
            profiles = [tuple(b) for b in
                        combinations_with_replacement(range(k + 1), r - 1)]
            rng.shuffle(profiles)
            blocks.append((k, r, profiles))
        return {"blocks": blocks}

    def verdicts(self, inputs):
        for k, r, profiles in inputs["blocks"]:
            p = ParameterSpec(k, r)
            for b in profiles:
                chi = ca.chi_C(b, k, r, self.D_MAX, self.N_MAX)
                for n in range(self.N_MAX + 1):
                    for d in range(self.D_MAX + 1):
                        yield ((k, r, b, n, d, chi[(d, n)]),
                               _wdim(b, k, r, n, d, p), n > k)

    def gate(self, inputs, results):
        return ["dual (k,r,b,n,d)=%r: W_space_dim=%d, chi_C coefficient=%d"
                % (key[:5], got, key[5])
                for key, got in results if got != key[5]]


def _wdim(b, k, r, n, d, p):
    return lambda: ca.W_space_dim(b, k, r, n, d, p)


WORKLOADS = {w.name: w for w in (Macd(), Theorem(), Stability(), Dual())}
