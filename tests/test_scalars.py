import os
import random
import subprocess
import sys
from fractions import Fraction
from math import gcd

import pytest

import wheelmac
from wheelmac import scalars
from wheelmac.scalars import (BiRatFunc, CycloNum, ExactDivisionError,
                              LaurentPoly, MixedFieldError, ParameterSpec,
                              PoleError, QTPoly, UniPoly, UniRatFunc,
                              cyclotomic_polynomial, qt_divexact,
                              qt_gcd, render_scalar, sum_of_products)

from oracles import euler_phi, laurent_sum_of_products, unirat_u

q = BiRatFunc.q()
t = BiRatFunc.t()
one = BiRatFunc.one()


def _multiplicative_order(z, bound=None):
    """Smallest e >= 1 with z^e = 1, or None up to the bound."""
    if bound is None:
        bound = 4 * z.N
    acc = z
    one = CycloNum.one(z.N)
    for e in range(1, bound + 1):
        if acc == one:
            return e
        acc = acc * z
    return None


def test_cyclotomic_polynomials():
    assert cyclotomic_polynomial(1) == (-1, 1)
    assert cyclotomic_polynomial(2) == (1, 1)
    assert cyclotomic_polynomial(3) == (1, 1, 1)
    assert cyclotomic_polynomial(4) == (1, 0, 1)
    assert cyclotomic_polynomial(6) == (1, -1, 1)
    assert cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)
    for n in range(1, 30):
        assert len(cyclotomic_polynomial(n)) - 1 == euler_phi(n)


def test_cyclo_arithmetic():
    z = CycloNum.zeta(5)
    assert sum((z ** i for i in range(1, 5)), CycloNum.one(5)) == 0
    assert (1 / z) == z ** 4
    assert _multiplicative_order(z) == 5
    assert (z ** 2 / z ** 2) == 1
    assert _multiplicative_order(CycloNum.zeta(12)) == 12
    # an explicit bound is honoured, 0 included
    for bound, order in ((0, None), (4, None), (5, 5)):
        assert _multiplicative_order(z, bound=bound) == order
    for divide in (CycloNum.zero(5).inverse, lambda: one / BiRatFunc.zero()):
        with pytest.raises(ZeroDivisionError):
            divide()


def test_zeta_table_matches_powers():
    for N in range(1, 13):
        z = CycloNum.zeta(N)
        for e in range(-N, 2 * N + 1):
            assert CycloNum.zeta(N, e) == z ** e, (N, e)


def test_canonical_idempotence():
    x = (one - t) * (one + q) / (one - q * t)
    again = BiRatFunc(x.num, x.den)
    assert again.num == x.num and again.den == x.den
    # denominator sign canonicalization: leading graded-lex coeff positive
    y = one / (q - one)
    assert y.den.d[y.den.leading_key()] > 0
    u = unirat_u(1)
    z = (u + 1) / (u * 2 + 2)
    again = UniRatFunc(z.num, z.den)
    assert again == z
    assert z.den.leading() == CycloNum.one(1)


def test_qt_gcd_random_products():
    rng = random.Random(7)

    def rand_poly(nterms, dmax):
        p = QTPoly.zero()
        for _ in range(nterms):
            p = p + QTPoly.term(rng.randint(-4, 4), rng.randint(0, dmax),
                                rng.randint(0, dmax))
        return p

    for _ in range(60):
        a, b, g = rand_poly(4, 4), rand_poly(4, 4), rand_poly(3, 3)
        if a.is_zero() or b.is_zero() or g.is_zero():
            continue
        f1, f2 = a * g, b * g
        h = qt_gcd(f1, f2)[0]
        assert qt_divexact(f1, h) * h == f1
        assert qt_divexact(f2, h) * h == f2
        assert qt_divexact(g, qt_gcd(h, g)[0]).d.keys() <= {(0, 0)}


@pytest.mark.parametrize("k,r,m,N", [(1, 2, 1, 1), (1, 3, 2, 2), (2, 2, 1, 1),
                                     (2, 3, 1, 2), (3, 3, 2, 2), (2, 4, 3, 3)])
def test_parameter_spec_consistency(k, r, m, N):
    p = ParameterSpec(k, r)
    assert p.m == m and p.N == N
    # t^((k+1)/m) q^((r-1)/m) = omega, and omega has multiplicative order m
    val = p.t_value() ** ((k + 1) // m) * p.q_value() ** ((r - 1) // m)
    e, omega = p.qt_laurent((r - 1) // m, (k + 1) // m)
    omega = CycloNum.one(N) * omega
    assert e == 0 and _multiplicative_order(omega) == m
    assert val == UniRatFunc(UniPoly.const(p.N, 1).scale(omega), _canonical=True)
    # the defining resonance
    assert p.specialize(q ** (r - 1) * t ** (k + 1)) == UniRatFunc.one(N)


def test_specialize_examples():
    p = ParameterSpec(1, 2)
    # q^(r-1) t^(k+1) -> 1
    assert p.specialize(q * t ** 2) == UniRatFunc.one(1)
    # direct substitution of t for r = 2
    u = unirat_u(1)
    assert p.specialize(t) == u
    # (1-t)/(1-q) -> -u^2/(1+u), the canonical form of (1-u)/(1-u^-2)
    assert p.specialize((one - t) / (one - q)) == -(u ** 2) / (u + 1)


def test_specialize_pole():
    p = ParameterSpec(1, 2)
    with pytest.raises(PoleError):
        p.specialize(one / (one - q * t ** 2))


def test_specialize_is_ring_homomorphism():
    rng = random.Random(3)
    p = ParameterSpec(2, 3)

    def rand_birat():
        num = QTPoly.zero()
        for _ in range(3):
            num = num + QTPoly.term(rng.randint(-3, 3), rng.randint(0, 3),
                                    rng.randint(0, 3))
        den = QTPoly.one() + QTPoly.term(1, rng.randint(1, 2), rng.randint(1, 2))
        return BiRatFunc(num, den)

    for _ in range(25):
        a, b = rand_birat(), rand_birat()
        assert p.specialize(a + b) == p.specialize(a) + p.specialize(b)
        assert p.specialize(a * b) == p.specialize(a) * p.specialize(b)


@pytest.mark.parametrize("k,r", [(1, 2), (1, 3), (2, 3), (3, 3), (1, 4),
                                 (2, 4), (1, 5), (2, 5), (3, 4)])
def test_is_resonant_matches_exact_evaluation(k, r):
    # r >= 4 runs over Q(zeta_{r-1}), phi(N) >= 2; qt_laurent is the
    # monomial table the specialization reads, and (0, 1) is 1
    p = ParameterSpec(k, r)
    for a in range(-8, 9):
        for b in range(-8, 9):
            value = p.specialize(BiRatFunc.qt_monomial(a, b))
            assert p.is_resonant(a, b) == (value == UniRatFunc.one(p.N)), (a, b)
            assert p.is_resonant(a, b) == (p.qt_laurent(a, b) == (0, 1)), \
                (a, b)


def test_is_resonant_examples():
    p = ParameterSpec(2, 3)
    assert p.is_resonant(p.r - 1, p.k + 1)
    assert p.is_resonant(0, 0)
    p13 = ParameterSpec(1, 3)
    assert not p13.is_resonant(2, 1)


def test_render_format():
    assert render_scalar((one - q * t) / (q - one)) == "(-q*t + 1)/(q - 1)"
    assert render_scalar(Fraction(5, 6)) == "5/6"
    assert render_scalar(CycloNum.zeta(3)) == "z"
    u = unirat_u(1)
    assert render_scalar(-(u ** 2) / (u + 1)) == "(-u^2)/(u + 1)"
    assert render_scalar((one - t) * (one + q) / (one - q * t)) \
        == "(q*t - q + t - 1)/(q*t - 1)"
    assert render_scalar(q ** 3 - t * 2 + one * Fraction(5, 2)) \
        == "q^3 - 2*t + 5/2"
    assert render_scalar(BiRatFunc.zero()) == "0"
    assert render_scalar(CycloNum.zeta(5) ** 3 - 2) == "z^3 - 2"
    assert render_scalar(Fraction(-22, 7)) == "-22/7"
    p = ParameterSpec(2, 3)
    assert render_scalar(p.specialize((one - t) / (one - q * t))) == "-u^2 + u"
    u3 = unirat_u(3)
    assert render_scalar(u3 ** 2 / (u3 + CycloNum.zeta(3))) == "(u^2)/(u + (z))"


def _specialize_by_products(p, f):
    """One qt_laurent call per term: each q^a t^b as p.qt_laurent(a, b),
    times v."""
    terms = {}
    for (a, b), v in f.d.items():
        e, c = p.qt_laurent(a, b)
        terms[e] = terms[e] + c * v if e in terms else c * v
    return {e: c for e, c in terms.items() if c}


def test_specialize_poly_sums_rationals_over_Q():
    """A rational f = num/den, den an integer, is read as specialize_poly of
    num over den: ints over Q, CycloNums otherwise."""
    rng = random.Random(43)
    for k, r in [(1, 2), (2, 2), (1, 3), (2, 3), (1, 4), (1, 5)]:
        p = ParameterSpec(k, r)  # N = 1, 1, 2, 2, 3, 4
        for _ in range(25):
            f = BiRatFunc.zero()
            for _ in range(rng.randint(0, 8)):
                f = f + BiRatFunc.const(Fraction(
                    rng.randint(-6, 6), rng.randint(1, 4))) \
                    * BiRatFunc.qt_monomial(rng.randint(0, 6), rng.randint(0, 6))
            got = p.specialize_poly(f.num)
            if p.N <= 2:
                assert all(type(c) is int and c for c in got.values())
            else:
                assert all(type(c) is CycloNum for c in got.values())
            assert got == _specialize_by_products(p, f.num), (k, r, f)
            (_, den), = f.den.d.items()
            assert p.specialize(f) == UniRatFunc.from_laurent(p.N, got) / den
    # omega1 = -1 at N = 2: 1 + q t has u-exponents 0 and 0, signs + and -
    assert ParameterSpec(1, 3).specialize_poly(
        QTPoly.one() + QTPoly.term(1, 1, 1)) == {}


def _substitution_mismatches(p, polys, u0=Fraction(7, 3)):
    """The polys whose specialize_poly, evaluated at u = u0, differs from
    substituting t0 = u0^((r-1)/m), q0 = zeta_{r-1} u0^(-(k+1)/m) into
    them, with m and zeta worked out here and not read off p."""
    k, r = p.k, p.r
    m, N = gcd(k + 1, r - 1), r - 1
    t0 = u0 ** ((r - 1) // m)
    q0 = CycloNum.zeta(N) * u0 ** (-((k + 1) // m))
    return [f for f in polys
            if f.substitute(q0, t0, CycloNum.one(N))
            != sum(c * u0 ** e for e, c in p.specialize_poly(f).items())]


def test_specialize_poly_matches_an_independent_substitution(monkeypatch):
    # _specialize_by_products shares qt_laurent with specialize_poly; this
    # oracle evaluates at u0 = 7/3 instead and knows no ParameterSpec table
    rng = random.Random(59)
    polys = [QTPoly({(rng.randint(0, 7), rng.randint(0, 7)):
                     rng.randint(-24, 24) for _ in range(rng.randint(0, 8))})
             for _ in range(30)]
    polys.append(QTPoly.one() - QTPoly.term(1, 6, 2))  # 1 - q^6 t^2: 0 at (1,7)
    for k, r in [(1, 2), (1, 3), (2, 4), (1, 5), (1, 7)]:  # N = 1, 2, 3, 4, 6
        p = ParameterSpec(k, r)
        assert _substitution_mismatches(p, polys) == [], (k, r)
    # a wrong table, omega1 = 1 at N = 2, must be caught
    p = ParameterSpec(1, 3)
    monkeypatch.setattr(p, "_omega_powers", [1, 1])
    assert _substitution_mismatches(p, polys)


def test_unipoly_evaluate_at_a_rational_point():
    # over Q the integer Horner must match Horner over CycloNum
    rng = random.Random(47)
    for N in (1, 2):
        for _ in range(30):
            f = UniPoly(N, [CycloNum.from_rational(
                N, Fraction(rng.randint(-9, 9), rng.randint(1, 6)))
                for _ in range(rng.randint(0, 6))])
            for x in (0, -3, Fraction(5, 2), Fraction(-7, 12)):
                got = f.evaluate(x)
                assert type(got) is CycloNum and got.N == N
                assert got == f.evaluate(CycloNum.from_rational(N, x))
                want = sum(c * Fraction(x) ** i
                           for i, c in enumerate(f.coeffs()))
                assert got == CycloNum.from_rational(N, want)


def test_laurent_matches_unirat():
    p = ParameterSpec(2, 3)
    lq = LaurentPoly.monomial(p.N, *p.qt_laurent(1, 0))
    lt = LaurentPoly.monomial(p.N, *p.qt_laurent(0, 1))
    assert (lq ** 2 * lt ** 3).to_unirat() == p.q_value() ** 2 * p.t_value() ** 3
    a = lq + lt * Fraction(3, 2)
    assert a.to_unirat() == p.q_value() + p.t_value() * Fraction(3, 2)


def test_laurent_unit_monomial_shifts_the_exponents():
    for N, c in [(1, Fraction(3, 2)), (2, Fraction(-4)),
                 (3, CycloNum.zeta(3) * 5)]:
        a = LaurentPoly(N, {-2: c, 0: c * 7, 3: c * c})
        for e in (-3, 0, 4):
            shifted = {x + e: v for x, v in a.d.items()}
            unit = LaurentPoly.monomial(N, e)
            for prod in (a * unit, unit * a):
                assert prod.d == shifted
                assert ([type(v) for v in prod.d.values()]
                        == [type(v) for v in a.d.values()])


def _ref_laurent_mul(a, b, zero):
    out = {}
    for ea, x in a.items():
        for eb, y in b.items():
            out[ea + eb] = out.get(ea + eb, zero) + x * y
    return {e: v for e, v in out.items() if v}


@pytest.mark.parametrize("N", [1, 2, 3, 4])
def test_laurent_poly_contract(N):
    """+, -, * and ** against a schoolbook {exponent: value} reference.
    Over Q the stored form is ints over one positive denominator coprime
    to their content, and d shows Fractions; otherwise CycloNums over 1."""
    rng = random.Random(80 + N)
    zero, unit = ((Fraction(0), Fraction(1)) if N <= 2
                  else (CycloNum.zero(N), CycloNum.one(N)))

    def rand():
        terms = {e: _rand_cyclo(rng, N)
                 for e in rng.sample(range(-4, 5), rng.randint(0, 4))}
        ref = {e: Fraction(v.c[0]) if N <= 2 else v
               for e, v in terms.items() if v}
        return LaurentPoly(N, terms), ref

    def check(f, ref):
        assert f.d == ref
        if N <= 2:
            assert all(type(x) is int and x for x in f.c.values())
            assert type(f.den) is int and f.den > 0
            assert gcd(f.den, *f.c.values()) == 1
            assert all(type(v) is Fraction for v in f.d.values())
        else:
            assert f.den == 1
            assert all(type(v) is CycloNum and v for v in f.c.values())
        assert f == LaurentPoly(N, ref)  # equal values compare equal

    with_den = 0
    for _ in range(60):
        (a, ra), (b, rb) = rand(), rand()
        with_den += a.den != 1
        check(a, ra)
        check(a + b, {e: v for e in {*ra, *rb}
                      if (v := ra.get(e, zero) + rb.get(e, zero))})
        check(a - b, {e: v for e in {*ra, *rb}
                      if (v := ra.get(e, zero) - rb.get(e, zero))})
        check(a * b, _ref_laurent_mul(ra, rb, zero))
        assert a * b == b * a and a + b == b + a
        check(a - a, {})
        s = Fraction(rng.choice([-3, 2, 5]), rng.randint(1, 4))
        check(a * s, {e: v * s for e, v in ra.items()})
        check(s * a, {e: v * s for e, v in ra.items()})
        e, want = rng.randint(0, 3), {0: unit}
        for _ in range(e):
            want = _ref_laurent_mul(want, ra, zero)
        check(a ** e, want)
        if len(ra) == 1:  # a monomial also takes a negative power
            (ea, x), = ra.items()
            e = -rng.randint(1, 3)
            check(a ** e, {ea * e: x ** e})
    if N <= 2:
        assert with_den >= 10


def _one_target(pairs, zero):
    """scalars.apply_rows on one target that sums the pairs (a, b)."""
    return scalars.apply_rows({0: {i: a for i, (a, _) in enumerate(pairs)}},
                              {i: b for i, (_, b) in enumerate(pairs)},
                              zero).get(0, zero)


@pytest.mark.parametrize("N", [1, 2, 3, 4])
def test_sum_of_products_matches_the_plain_sum(N, monkeypatch):
    """The application kernel on one target, its packed int lane (N <= 2)
    and the ring-generic one (CycloNums, N = 3, 4), against sum(a * b):
    unequal denominators, rational b, total cancellation and the empty
    list."""
    rng = random.Random(90 + N)
    zero = LaurentPoly.zero(N)

    def rand():
        return LaurentPoly(N, {e: _rand_cyclo(rng, N) for e in
                               rng.sample(range(-4, 5), rng.randint(1, 4))})

    assert sum_of_products([], zero) == zero
    assert _one_target([], zero) == zero
    products, mul = [], LaurentPoly.__mul__

    def counted(a, b):
        products.append(1)
        return mul(a, b)

    monkeypatch.setattr(LaurentPoly, "__mul__", counted)
    mixed = 0
    for _ in range(40):
        pairs = [(rand(), rng.choice([
            rand(), Fraction(rng.choice([-3, 2, 5]), rng.randint(1, 4))]))
            for _ in range(rng.randint(1, 4))]
        mixed += len({a.den for a, _ in pairs}) > 1
        want = sum((a * b for a, b in pairs), zero)
        del products[:]
        got = _one_target(pairs, zero)
        assert (got.den, got.c) == (want.den, want.c)
        assert not products if N <= 2 else len(products) == len(pairs)
        gone = _one_target(pairs + [(-a, b) for a, b in pairs], zero)
        assert (gone.den, gone.c) == (1, {})
    if N <= 2:
        assert mixed >= 10


def test_sum_of_products_rational_lane_matches_the_plain_sum():
    """Over Q (zero a Fraction): int and Fraction pairs over unequal
    denominators, integral and non-integral totals, total cancellation and
    the empty list, each one Fraction in lowest terms."""
    zero = Fraction(0)

    def check(pairs, want=None):
        got = sum_of_products(pairs, zero)
        assert type(got) is Fraction
        assert got == sum((a * b for a, b in pairs), zero)
        assert gcd(got.numerator, got.denominator) == 1
        if want is not None:
            assert got == want
        return got

    assert check([], zero) == zero
    assert check([(3, 4), (-2, 5)], 2).denominator == 1
    assert check([(Fraction(1, 6), 3), (2, Fraction(3, 10))], Fraction(11, 10))
    assert check([(Fraction(1, 4), Fraction(2, 3)), (Fraction(-5, 6), 1)],
                 Fraction(-2, 3))
    gone = check([(Fraction(1, 6), 4), (-2, Fraction(1, 3))], zero)
    assert (gone.numerator, gone.denominator) == (0, 1)
    rng = random.Random(77)
    seen = set()
    for _ in range(200):
        pairs = [(rng.choice([rng.randint(-9, 9), Fraction(
            rng.randint(-9, 9), rng.randint(1, 12))]),
            rng.choice([rng.randint(-9, 9), Fraction(
                rng.randint(-9, 9), rng.randint(1, 12))]))
            for _ in range(rng.randint(1, 5))]
        seen.add(check(pairs).denominator == 1)
        check(pairs + [(-a, b) for a, b in pairs], zero)
    assert seen == {True, False}


def _scalar_pool(rng):
    """Seeded scalars of every exact type, drawn from few small values so
    that equal ones of different types are common: ints, Fractions,
    CycloNums, QTPolys, UniRatFuncs and BiRatFuncs, constant or not."""
    def frac():
        return Fraction(rng.randint(-2, 2), rng.choice([1, 1, 2]))

    def qt():
        return QTPoly({(rng.randint(0, 1), rng.randint(0, 1)):
                       rng.randint(-2, 2) for _ in range(rng.randint(0, 2))})

    pool = []
    for _ in range(30):
        N = rng.choice([1, 2, 3, 4])
        c = CycloNum.from_rational(N, frac())
        if rng.random() < 0.4:
            c = c + CycloNum.zeta(N, rng.randint(0, N - 1))
        pool += [rng.randint(-2, 2), frac(), c, qt(),
                 BiRatFunc.const(frac()), BiRatFunc.from_poly(qt()),
                 UniRatFunc.const(N, frac()),
                 UniRatFunc(UniPoly.const(N, c), _canonical=True),
                 UniRatFunc.from_laurent(N, {rng.randint(-1, 1): frac() or 1})]
        den = qt()
        if den:
            pool.append(BiRatFunc(qt(), den))
    return pool


def test_equal_scalars_hash_equal():
    # Python's rule: a == b implies hash(a) == hash(b), across the types,
    # so a constant QTPoly, BiRatFunc, UniRatFunc or CycloNum and the int or
    # Fraction it equals are one dict key
    pool = _scalar_pool(random.Random(78))
    kinds = set()
    for a in pool:
        for b in pool:
            try:
                equal = a == b
            except MixedFieldError:  # Q(zeta_N) against another N
                continue
            if equal:
                assert hash(a) == hash(b), (a, b)
                kinds.add((type(a).__name__, type(b).__name__))
    assert {("QTPoly", "int"), ("BiRatFunc", "Fraction"),
            ("BiRatFunc", "QTPoly"), ("CycloNum", "Fraction"),
            ("UniRatFunc", "CycloNum"), ("UniRatFunc", "int")} <= kinds
    assert len({BiRatFunc.one(), 1, QTPoly.one(), Fraction(1)}) == 1
    assert len({UniRatFunc.one(3), CycloNum.one(3), 1}) == 1
    assert {2: "x"}[QTPoly.term(2)] == "x"


def _rand_int(rng, big):
    """A nonzero int of either sign, above 2^64 in absolute value when big."""
    return rng.choice([-1, 1]) * (rng.randint(2 ** 64 + 1, 2 ** 200) if big
                                  else rng.randint(1, 9))


# the coefficient sizes of the kernel test's applications, so that they are
# packed at slot widths of 1, 2, 4, 8 and more than 8 bytes
_KERNEL_SIZES = (2, 2 ** 8, 2 ** 20, 2 ** 50, 2 ** 200)
_KERNEL_SEEN = {"one pair", "den on both sides", "negative exponent",
                "zero sum", "shared source", "missing source", "rational b",
                "zero factor", "width 1", "width 2", "width 4", "width 8",
                "width > 8", "edge +", "edge -"}


def _den(b):
    """The denominator of a LaurentPoly over Q or of a rational."""
    return b.den if type(b) is LaurentPoly else Fraction(b).denominator


def _kernel_failures(N, seed):
    """(failures, seen) of scalars.apply_rows over LaurentPolys with N <= 2
    against oracles.laurent_sum_of_products on each target: seeded
    applications of several targets sharing their sources, and one
    application per slot width whose one value is +-(X/2 - 1), its bound.
    seen names what the cases covered (_KERNEL_SEEN).  It runs no assert,
    so it checks the same under python -O."""
    rng = random.Random(seed)
    zero = LaurentPoly.zero(N)
    failures, seen, widths = [], set(), []
    inner = scalars._slot_bytes

    def recorded(bound):
        if bound:  # 0 when no target has two pairs
            widths.append(inner(bound))
        return inner(bound)

    def check(rows, coeffs):
        want = {}
        for target, row in rows.items():
            pairs = [(a, coeffs[s]) for s, a in row.items() if s in coeffs]
            v = laurent_sum_of_products(pairs) if pairs else zero
            if v.c:
                want[target] = (v.den, v.c)
            found = {"missing source": len(pairs) < len(row),
                     "one pair": len(pairs) == 1,
                     "zero sum": len(pairs) > 1 and not v.c,
                     "negative exponent": min(v.c, default=0) < 0,
                     "rational b": any(type(b) is not LaurentPoly
                                       for _, b in pairs),
                     "zero factor": any(not a or not b for a, b in pairs),
                     "den on both sides": any(
                         a.den > 1 and _den(b) > 1 for a, b in pairs)}
            seen.update(name for name, hit in found.items() if hit)
        del widths[:]
        got = scalars.apply_rows(rows, coeffs, zero)
        if {target: (v.den, v.c) for target, v in got.items()} != want:
            failures.append((rows, coeffs))
        seen.update("width %d" % w if w <= 8 else "width > 8" for w in widths)
        if sum(map(len, rows.values())) > len(set().union(*rows.values())):
            seen.add("shared source")

    def rand(size):
        return LaurentPoly(N, {e: Fraction(
            rng.choice([-1, 1]) * rng.randint(1, size),
            rng.choice([1, 1, 2, 3, 6]))
            for e in rng.sample(range(-7, 8), rng.randint(1, 3))})

    scalars._slot_bytes = recorded
    try:
        for _ in range(150):
            size = rng.choice(_KERNEL_SIZES)
            coeffs = {}
            for s in range(rng.randint(1, 5)):
                coeffs[s] = rng.choice([
                    rand(size), rand(size), zero,
                    Fraction(rng.randint(-size, size), rng.randint(1, 6))])
            rows = {}
            for target in range(rng.randint(1, 5)):
                rows[target] = {s: rng.choice([rand(size)] * 5 + [zero])
                                for s in rng.sample(range(6),
                                                    rng.randint(1, 4))}
            a = rand(size)
            coeffs[6] = coeffs[0]  # a second source of one value: cancels
            rows[5] = {0: a, 6: -a}
            check(rows, coeffs)
        for nb in (1, 2, 4, 8, 9):
            top = 2 ** (8 * nb - 1) - 1  # X/2 - 1, the bound of its target
            for sign in (1, -1):
                check({"edge": {0: LaurentPoly(N, {-2: sign * (top - 1)}),
                                1: LaurentPoly(N, {1: sign})}},
                      {0: LaurentPoly(N, {3: 1}), 1: 1})
                if widths == [nb]:
                    seen.add("edge +" if sign > 0 else "edge -")
    finally:
        scalars._slot_bytes = inner
    return failures, seen


@pytest.mark.parametrize("N", [1, 2])
def test_packed_laurent_sum_matches_the_loop(N):
    """The application kernel's packed Laurent lane (one slot width per
    application, each coefficient of f packed once) against the int-dict
    loop per target (oracles.laurent_sum_of_products), equal in den and c
    (_kernel_failures)."""
    failures, seen = _kernel_failures(N, 400 + N)
    assert not failures
    assert seen == _KERNEL_SEEN


_KERNEL_UNDER_O = """
import sys
sys.path.insert(0, %r)
from test_scalars import _KERNEL_SEEN, _kernel_failures
for N in (1, 2):
    failures, seen = _kernel_failures(N, 400 + N)
    if failures or seen != _KERNEL_SEEN or __debug__:
        raise SystemExit(1)
"""


def test_packed_laurent_sum_matches_the_loop_under_O():
    # the same cases with asserts compiled out: the kernel's exactness
    # does not rest on an assert
    done = _run_under_O(_KERNEL_UNDER_O % os.path.dirname(
        os.path.abspath(__file__)))
    assert done.returncode == 0, done.stderr


@pytest.mark.parametrize("nb", [1, 2, 4, 8, 9, 16])
def test_unpack_reads_every_slot_value_that_fits(nb):
    # the cast decode (nb = 1, 2, 4, 8) and the slice decode (wider) read
    # +-(X/2 - 1) in the lowest, a middle and the top slot; a top value of
    # X/2 or -(X/2) - 1 does not fit and raises OverflowError
    X = 2 ** (8 * nb)
    edge = X // 2 - 1
    for values in ([edge, 0, -edge, 5, edge], [-edge, -1, 0, 0, -edge], [3]):
        total = sum(v * X ** s for s, v in enumerate(values))
        assert scalars._unpack(total, nb, len(values)) == {
            s: v for s, v in enumerate(values) if v}
    for top in (X // 2, -(X // 2) - 1):
        with pytest.raises(OverflowError):
            scalars._unpack(7 + top * X ** 2, nb, 3)


def test_packed_qt_fold_matches_the_loop():
    """_qt_fold, acc = acc * s + prod(factors), against QTPoly products and
    sums: negative and above-2^64 coefficients, zero factors and
    multipliers, many factors in one step and sums that cancel to 0."""
    rng = random.Random(83)

    def rand(big):
        if rng.random() < 0.08:
            return QTPoly.zero()
        return QTPoly({(rng.randint(0, 4), rng.randint(0, 4)):
                       _rand_int(rng, big) for _ in range(rng.randint(1, 6))})

    seen = set()
    for _ in range(200):
        big = rng.random() < 0.3
        steps = [(None if i == 0 or rng.random() < 0.4 else rand(big),
                  tuple(rand(big) for _ in range(rng.randint(1, 4))))
                 for i in range(rng.randint(1, 4))]
        want = None
        for s, fs in steps:
            term = QTPoly.one()
            for f in fs:
                term = term * f
            want = term if want is None else (
                want if s is None else want * s) + term
        assert scalars._qt_fold(steps) == want
        assert scalars._qt_fold(steps + [(None, (-want,))]) == QTPoly.zero()
        polys = [f for s, fs in steps
                 for f in fs + (() if s is None else (s,))]
        seen |= {("big", big and bool(want)), ("zero", not all(polys)),
            ("many factors", max(len(fs) for _, fs in steps) > 2),
            ("negative", min(want.d.values(), default=0) < 0)}
    assert all((flag, True) in seen for flag, _ in seen)


_INEXACT_UNDER_O = """
from wheelmac.scalars import ExactDivisionError, _iz_divexact
try:
    _iz_divexact(%r, %r)
except ExactDivisionError:
    raise SystemExit(0)
raise SystemExit(1)
"""


def _run_under_O(code):
    src = os.path.dirname(os.path.dirname(os.path.abspath(wheelmac.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-O", "-c", code],
                          env=env, capture_output=True, text=True, timeout=60)


@pytest.mark.parametrize("num, den", [
    ([1, 0, 1], [1, 2]),  # (x^2 + 1) / (2x + 1): 1/2 is not an integer
    ([1, 0, 1], [1, 1]),  # (x^2 + 1) / (x + 1): remainder 2
])
def test_inexact_integer_division_raises_under_O(num, den):
    done = _run_under_O(_INEXACT_UNDER_O % (num, den))
    assert done.returncode == 0, done.stderr


_IRRATIONAL_UNDER_O = """
from wheelmac.scalars import CycloNum
try:
    CycloNum.zeta(3).rational_value()
except ValueError:
    raise SystemExit(0)
raise SystemExit(1)
"""


def test_rational_value_refuses_irrational_under_O():
    assert CycloNum.from_rational(3, Fraction(5, 3)).rational_value() == Fraction(5, 3)
    with pytest.raises(ValueError):
        CycloNum.zeta(4).rational_value()
    done = _run_under_O(_IRRATIONAL_UNDER_O)
    assert done.returncode == 0, done.stderr


def test_cyclo_inverse_by_conjugates():
    rng = random.Random(11)
    for N in range(3, 16):
        phi = euler_phi(N)
        for _ in range(6):
            x = CycloNum(N, [Fraction(rng.randint(-9, 9), rng.randint(1, 5))
                             for _ in range(phi)])
            if x:
                assert x * x.inverse() == CycloNum.one(N), (N, x)
    done = _run_under_O(_WRONG_CONJUGATE_UNDER_O)
    assert done.returncode == 0, done.stderr


_NEGATIVE_POWER_UNDER_O = """
from wheelmac.scalars import LaurentPoly, QTPoly
for base in (QTPoly.q(), LaurentPoly(1, {0: 1, 1: 1})):
    try:
        base ** -1
    except ValueError:
        continue
    raise SystemExit(1)
"""


def test_negative_power_of_a_polynomial_raises_under_O():
    done = _run_under_O(_NEGATIVE_POWER_UNDER_O)
    assert done.returncode == 0, done.stderr
    # a monomial and a field element still take negative powers
    z = CycloNum.zeta(3)
    assert LaurentPoly.monomial(3, 2, z) ** -2 == LaurentPoly.monomial(3, -4, z ** -2)
    assert LaurentPoly.monomial(1, 1, 2) ** -1 \
        == LaurentPoly.monomial(1, -1, Fraction(1, 2))
    assert (one + q) ** -1 == one / (one + q)


_WRONG_CONJUGATE_UNDER_O = """
from wheelmac.scalars import CycloNum, ExactDivisionError, _CycloField
rows = _CycloField.get(5).powers
rows[1], rows[2] = rows[2], rows[1]  # zeta -> zeta^2 now reads zeta
try:
    (CycloNum.one(5) + CycloNum(5, [0, 1, 0, 0])).inverse()
except ExactDivisionError:
    raise SystemExit(0)
raise SystemExit(1)
"""


def _inexact_polynomial_divisions():
    """Each call divides by a polynomial that does not divide."""
    q_, t_ = QTPoly.q(), QTPoly.t()
    u = UniPoly.u_power(1, 1)
    u2 = UniPoly.u_power(2, 1)
    # -6u - 6: content 6, negative leading coefficient
    six = UniPoly.const(1, -6) * (u + UniPoly.one(1))
    return [
        lambda: qt_divexact(q_ * q_ + 1, q_ + 1),  # remainder 2
        lambda: qt_divexact(q_, t_),               # negative t-exponent
        lambda: qt_divexact(q_ * t_ + 1, q_ * q_),
        lambda: (u * u + UniPoly.one(1)).divexact(u + UniPoly.one(1)),
        lambda: (u * u + UniPoly.one(1)).divexact(six),  # remainder 2
        lambda: (u * u + UniPoly.const(1, Fraction(1, 2))).divexact(six),
        # (u^3 - u/3 + 1) / (2u^2 - 2): remainder 2u/3 + 1 over Q(zeta_2)
        lambda: (u2 * u2 * u2 - u2.scale(Fraction(1, 3)) + UniPoly.one(2))
        .divexact(UniPoly.const(2, 2) * u2 * u2 - UniPoly.const(2, 2)),
        lambda: u2.divexact(u2 * u2),  # deg a < deg b
    ]


def _non_integral_qtpolys():
    """Each call gives a QTPoly a coefficient that is not an integer."""
    half, q_ = Fraction(1, 2), QTPoly.q()
    return [lambda: QTPoly({(1, 0): 3, (0, 0): half}),
            lambda: QTPoly.term(half, 1, 2),
            lambda: q_.scale(half),
            lambda: q_ + half,
            lambda: half + q_,
            lambda: q_ - half,
            lambda: q_ * half]


def test_inexact_polynomial_division_raises():
    for divide in _inexact_polynomial_divisions():
        with pytest.raises(ExactDivisionError):
            divide()


_INEXACT_POLY_UNDER_O = """
import sys
sys.path.insert(0, %r)
from test_scalars import (ExactDivisionError, _inexact_polynomial_divisions,
                          _non_integral_qtpolys)
for error, calls in [(ExactDivisionError, _inexact_polynomial_divisions()),
                     (ValueError, _non_integral_qtpolys())]:
    for call in calls:
        try:
            call()
        except error:
            continue
        raise SystemExit(1)
"""


def test_inexact_polynomial_division_raises_under_O():
    here = os.path.dirname(os.path.abspath(__file__))
    done = _run_under_O(_INEXACT_POLY_UNDER_O % here)
    assert done.returncode == 0, done.stderr


def _rand_frac(rng):
    return Fraction(rng.randint(-4, 4), rng.randint(1, 3))


def _rand_cyclo(rng, N):
    return CycloNum(N, [_rand_frac(rng) for _ in range(euler_phi(N))])


def _rand_unipoly(rng, N, nonzero=False):
    while True:
        f = UniPoly(N, [_rand_cyclo(rng, N) if rng.random() < 0.6
                        else CycloNum.zero(N) for _ in range(rng.randint(1, 3))])
        if f or not nonzero:
            return f


def _rand_qt_polynomial(rng, nonzero=False):
    """A polynomial in (q, t) with rational coefficients, as a BiRatFunc."""
    while True:
        f = BiRatFunc.zero()
        for _ in range(rng.randint(1, 3)):
            f = f + BiRatFunc.const(_rand_frac(rng)) * BiRatFunc.qt_monomial(
                rng.randint(0, 2), rng.randint(0, 2))
        if f or not nonzero:
            return f


def _cyclo_case(N):
    return (lambda rng: _rand_cyclo(rng, N), CycloNum.one(N), "cyclo", N)


def _unirat_case(N):
    return (lambda rng: UniRatFunc(_rand_unipoly(rng, N),
                                   _rand_unipoly(rng, N, nonzero=True)),
            UniRatFunc.one(N), "u", N)


_BIRAT_CASE = (lambda rng: (_rand_qt_polynomial(rng)
                             / _rand_qt_polynomial(rng, nonzero=True)),
               BiRatFunc.one(), "qt", 1)


def _assert_canonical(x):
    """Coprime num/den, denominator leading coefficient 1 (positive in
    Z[q, t]), zero over 1."""
    if isinstance(x, CycloNum):
        assert len(x.c) == euler_phi(x.N)
        return
    if isinstance(x, UniRatFunc):
        g = x.num.gcd(x.den)[0]
        assert g.degree() == 0 and g.leading() == CycloNum.one(x.N), x
        assert x.den.leading() == CycloNum.one(x.N), x
        if not x:
            assert x.den == UniPoly.one(x.N)
        return
    assert qt_gcd(x.num, x.den)[0] == QTPoly.one(), x
    assert x.den.leading() > 0, x
    assert all(type(v) is int for f in (x.num, x.den) for v in f.d.values())
    if not x:
        assert x.den == QTPoly.one()


@pytest.mark.parametrize("case", [
    _cyclo_case(3), _cyclo_case(5), _cyclo_case(12),
    _unirat_case(1), _unirat_case(2), _unirat_case(3), _BIRAT_CASE,
], ids=["cyclo3", "cyclo5", "cyclo12", "unirat1", "unirat2", "unirat3",
        "birat"])
def test_field_axioms(case):
    rand, one_, kind, N = case
    rng = random.Random(11 * N + len(kind))
    renders = {}
    for _ in range(12):
        a, b, c = rand(rng), rand(rng), rand(rng)
        for x in (a, b, c, a + b, a * b, a - b, -c, b * c + a):
            _assert_canonical(x)
            renders.setdefault(render_scalar(x), set()).add(x)
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a + b == b + a and a * b == b * a
        assert a * (b + c) == a * b + a * c
        assert a - a == 0 and a + 0 == a and a * 1 == a and a * 0 == 0
        assert a ** 0 == one_ and a ** 1 == a and a ** 3 == a * a * a
        if a:
            inv = a.inverse()
            _assert_canonical(inv)
            assert a * inv == one_ and inv * a == 1
            assert a ** -1 == inv and a ** -2 == inv * inv
            assert a ** -3 * a ** 3 == one_
            assert b / a == b * inv and 1 / a == inv
            _assert_canonical(b / a)
    # the rendering is injective: one text, one value
    for text, values in renders.items():
        assert len(values) == 1, (text, values)


def _one_minus(rng):
    return one - BiRatFunc.qt_monomial(rng.randint(0, 3), rng.randint(0, 3))


def _render_corpus():
    """Seeded renderings of BiRatFunc arithmetic, of every P_lam with
    n <= 4 and |lam| <= 6, and of their specializations."""
    from wheelmac import partitions as pt
    from wheelmac.macdonald import MacdonaldTable

    rng = random.Random(2024)
    lines = []
    values = []
    for _ in range(30):
        a = _rand_qt_polynomial(rng) / _rand_qt_polynomial(rng, nonzero=True)
        b = _one_minus(rng) * _one_minus(rng) / (_one_minus(rng) + q * t)
        for x in (a, b, a + b, a - b, a * b, b ** 2, -a * Fraction(3, 2)):
            values.append(x)
        if a:
            values.append(b / a)
    for n in range(1, 5):
        table = MacdonaldTable(n)
        for d in range(7):
            for lam in pt.enumerate_partitions(n, d):
                P = table.compute_P(lam)
                for mu, c in sorted(P.coeffs.items(), reverse=True):
                    lines.append("P %d %s %s %s" % (
                        n, pt.format_partition(lam), pt.format_partition(mu),
                        render_scalar(c)))
                    if n == 4:
                        values.append(c)
    lines.extend("x " + render_scalar(x) for x in values)
    for k, r in ((1, 2), (1, 3), (2, 3), (2, 4), (3, 3)):
        p = ParameterSpec(k, r)
        for x in values[::3]:
            try:
                lines.append("s %d %d %s" % (k, r, render_scalar(p.specialize(x))))
            except PoleError:
                lines.append("s %d %d pole" % (k, r))
    return "\n".join(lines)


_RENDER_CORPUS_SHA256 = (
    "a2168f5195c9168d7080e6e7d3d81fc481876f8acc8bf62ef15a52a417def903")


def test_render_corpus_is_byte_identical():
    """The canonical forms, and so every rendered output, are pinned: a
    change of representation must not change one byte."""
    import hashlib

    text = _render_corpus()
    assert hashlib.sha256(text.encode()).hexdigest() == _RENDER_CORPUS_SHA256


def test_exact_lane():
    assert scalars._exact(3) == 3 and type(scalars._exact(3)) is int
    assert type(scalars._exact(Fraction(6, 2))) is int
    assert scalars._exact(Fraction(1, 2)) == Fraction(1, 2)
    assert type(scalars._exact(True)) is int
    for bad in (0.5, 2.0, "1", None, 1j):
        with pytest.raises(TypeError):
            scalars._exact(bad)


@pytest.mark.parametrize("make", [
    lambda: QTPoly({(0, 0): 0.1}),
    lambda: BiRatFunc.const(0.1),
    lambda: CycloNum.from_rational(3, 0.1),
    lambda: UniRatFunc.const(1, 0.1),
    lambda: LaurentPoly.monomial(1, 0, 0.5),
    lambda: LaurentPoly(2, {1: 0.25}),
], ids=["QTPoly", "BiRatFunc.const", "CycloNum.from_rational",
        "UniRatFunc.const", "LaurentPoly.monomial", "LaurentPoly"])
def test_floats_are_rejected(make):
    with pytest.raises(TypeError):
        make()


def test_qtpoly_refuses_negative_exponents():
    for make in (lambda: QTPoly({(-1, 0): 1}), lambda: QTPoly({(0, -2): 3}),
                 lambda: QTPoly.term(1, -1, 0), lambda: QTPoly.term(2, 0, -1)):
        with pytest.raises(ValueError):
            make()
    assert QTPoly({(1, 2): 3}) == QTPoly.term(3, 1, 2)


def test_qtpoly_refuses_a_non_integral_coefficient():
    """QTPoly is Z[q, t]: a rational that is not an integer is refused with
    ValueError (also under python -O, in the division test's subprocess),
    an integral one is stored as an int, and == with one is False."""
    for make in _non_integral_qtpolys():
        with pytest.raises(ValueError):
            make()
    f = QTPoly({(0, 0): Fraction(4, 2), (1, 0): True})
    assert f.d == {(0, 0): 2, (1, 0): 1} and _all_int(f)
    assert _all_int(QTPoly.q().scale(Fraction(-6, 3)) + Fraction(3))
    assert (QTPoly.one() == Fraction(1, 2)) is False
    assert (Fraction(1, 2) == QTPoly.one()) is False
    assert QTPoly.term(2) == Fraction(2) and QTPoly.zero() == 0


def _all_int(f):
    return all(type(v) is int for v in f.d.values())


def _rand_mixed_qt(rng, nterms=4, dmax=3):
    """A polynomial in (q, t) with integer and half-integer coefficients,
    as a BiRatFunc, so that sums and products often come out integral."""
    f = BiRatFunc.zero()
    for _ in range(nterms):
        c = rng.choice([rng.randint(-5, 5), Fraction(rng.randint(-5, 5), 2)])
        f = f + BiRatFunc.const(c) * BiRatFunc.qt_monomial(
            rng.randint(0, dmax), rng.randint(0, dmax))
    return f


def test_coefficients_stay_in_the_integer_lane():
    rng = random.Random(5)
    half = Fraction(1, 2)
    for _ in range(150):
        a, b = _rand_mixed_qt(rng), _rand_mixed_qt(rng)
        c = BiRatFunc.zero()
        while c.is_zero():
            c = _rand_mixed_qt(rng, nterms=2, dmax=2)
        produced = [a + b, a - b, a * b, (a * 2) * half, a * half,
                    a * Fraction(4, 2), a * -1, -a, a + half + half,
                    (a * c) / c, (c * 2) / c]
        if a and b:
            produced.append(BiRatFunc.from_poly(
                qt_gcd((a * c).num, (b * c).num)[0]))
        if b:
            x = (a * c) / (b * c)
            y = x * b / (a + 1) if a + 1 else x
            produced += [x, y, x + y, x - y, x.inverse() if x else y]
        for z in produced:
            assert _all_int(z.num) and _all_int(z.den), z
        A, C = a.num, c.num
        for f in (A + C, A - C, A * C, -A, A.scale(-3),
                  qt_divexact(A * C, C), qt_divexact(C * 2, C)):
            assert _all_int(f), f
    assert (BiRatFunc.q() * half + half) / (BiRatFunc.q() + 1) == half
    assert (BiRatFunc.q() * 2 + 2) / (BiRatFunc.q() * half + half) == 4


# -- the heuristic gcd against the PRS -------------------------------------

def _planted_factor(rng):
    """One common factor: a product of 1 - q^a t^b, a random integer
    polynomial, an integer content or a monomial."""
    kind = rng.randrange(4)
    if kind == 0:
        f = QTPoly.one()
        for _ in range(rng.randint(1, 3)):
            a, b = rng.randint(0, 3), rng.randint(0, 3)
            f = f * (QTPoly.one() - QTPoly.term(1, a, b if a or b else 1))
        return f
    if kind == 1:
        f = QTPoly.zero()
        while f.is_zero():
            for _ in range(rng.randint(2, 4)):
                f = f + QTPoly.term(rng.randint(-6, 6), rng.randint(0, 3),
                                    rng.randint(0, 3))
        return f
    if kind == 2:
        return QTPoly.term(rng.randint(2, 12))
    return QTPoly.term(rng.choice([-1, 1]), rng.randint(0, 2),
                       rng.randint(0, 2))


def _planted_pairs(seed, count):
    rng = random.Random(seed)
    pairs = []
    while len(pairs) < count:
        g = QTPoly.one()
        for _ in range(rng.randint(1, 3)):
            g = g * _planted_factor(rng)
        a = _planted_factor(rng) * _planted_factor(rng)
        b = _planted_factor(rng) * _planted_factor(rng)
        pairs.append((a * g, b * g))
    return pairs


def _terms(rows):
    return {(a, b): c for a, row in enumerate(rows) for b, c in enumerate(row)
            if c}


def test_heuristic_points_respect_the_certificate_bound():
    for nf, ng in ((1, 1), (7, 300), (10 ** 6, 5)):
        points = list(scalars._heu_points(nf, ng))
        assert len(points) == scalars._HEU_TRIES
        assert points[0] == 2 * min(nf, ng) + 2
        assert points == sorted(set(points))


def _norm(rows):
    return max(abs(c) for row in rows for c in row)


def test_heuristic_gcd_agrees_with_prs(monkeypatch):
    seen = {"heuristic": 0, "fallback": 0}
    heu, points = scalars._heu_gcd, scalars._heu_points
    norms = []

    def recorded(f_norm, g_norm):
        norms.append((f_norm, g_norm))
        return points(f_norm, g_norm)

    def checked(fr, gr):
        del norms[:]
        got = heu(fr, gr)
        # the bivariate points are taken for the norms of these inputs
        assert norms[0] == (_norm(fr), _norm(gr))
        if got is None:
            seen["fallback"] += 1
            return None
        seen["heuristic"] += 1
        want = _terms(scalars._qt_prs_gcd(fr, gr))
        got_terms = _terms(got[0])
        assert got_terms in (want, {k: -c for k, c in want.items()}), (fr, gr)
        return got

    monkeypatch.setattr(scalars, "_heu_gcd", checked)
    monkeypatch.setattr(scalars, "_heu_points", recorded)
    pairs = _planted_pairs(17, 800)
    for f, g in pairs:
        h = qt_gcd(f, g)[0]
        assert qt_divexact(f, h) * h == f and qt_divexact(g, h) * h == g
    # every pair without a monomial reaches the heuristic, and none needs
    # the fallback
    several = sum(len(f.d) > 1 and len(g.d) > 1 for f, g in pairs)
    assert several >= 600
    assert seen == {"heuristic": several, "fallback": 0}, seen


def test_forced_heuristic_failure_reaches_prs(monkeypatch):
    pairs = _planted_pairs(23, 60)
    expected = [qt_gcd(f, g)[0] for f, g in pairs]
    calls = []
    prs = scalars._prs

    def counted(a, b, primitive):
        calls.append(primitive)
        return prs(a, b, primitive)

    monkeypatch.setattr(scalars, "_HEU_TRIES", 0)
    monkeypatch.setattr(scalars, "_prs", counted)
    assert [qt_gcd(f, g)[0] for f, g in pairs] == expected
    assert calls.count(scalars._qt_primitive) >= 20


def test_prs_fallback_keeps_every_content(monkeypatch):
    """A gcd with a Z[t] content, an integer content and a monomial factor,
    found once by the heuristic and once by the PRS alone."""
    q, t, one = QTPoly.q(), QTPoly.t(), QTPoly.one()
    common = (one + t) * q.scale(2)
    f = common * (one - q * t)
    g = common * (one + q)
    want = qt_gcd(f, g)[0]
    assert want == common
    calls = []
    prs = scalars._prs

    def counted(a, b, primitive):
        calls.append(primitive)
        return prs(a, b, primitive)

    monkeypatch.setattr(scalars, "_HEU_TRIES", 0)
    monkeypatch.setattr(scalars, "_prs", counted)
    for a, b, h in ((f, g, want), (g, f, want), (f * t, g * t, want * t)):
        assert qt_gcd(a, b)[0] == h, (a, b)
        assert qt_divexact(a, h) * h == a and qt_divexact(b, h) * h == b
    assert calls.count(scalars._qt_primitive) == 3


def test_planted_wrong_candidate_is_rejected(monkeypatch):
    f = QTPoly.one() - QTPoly.term(1, 1, 2)
    g = (QTPoly.one() + QTPoly.term(3, 2, 0)) * f
    h = (QTPoly.term(1, 0, 1) - QTPoly.term(2, 1, 0)) * f
    # the exact check itself, which returns the quotient
    dense = scalars._to_tq_rows(g.d)
    quot = scalars._tq_quotient(dense, scalars._to_tq_rows(f.d))
    assert _terms(quot) == {(0, 0): 1, (2, 0): 3}
    assert scalars._tq_quotient(dense, [[1], [0, 1]]) is None
    assert scalars._tq_quotient(dense, [[2], [], [0, 0, 1]]) is None
    # a wrong image one level down gives a candidate that must not pass
    univariate = scalars._heu_gcd_univariate

    def wrong_image(a, b):
        image, qa, qb = univariate(a, b)
        return scalars._iz_mul(image, [1, 1]), qa, qb

    fr = scalars._to_tq_rows(g.d)
    gr = scalars._to_tq_rows(h.d)
    heu, rejected = scalars._heu_gcd, []

    def planted(fr, gr):
        with monkeypatch.context() as m:
            m.setattr(scalars, "_heu_gcd_univariate", wrong_image)
            got = heu(fr, gr)
        rejected.append(got is None)
        return got

    monkeypatch.setattr(scalars, "_heu_gcd", planted)
    assert planted(fr, gr) is None
    # qt_gcd falls back to the PRS, whose Z[u] gcds are not planted
    for got in (qt_gcd(g, h), qt_gcd(h, g)):
        assert got[0] == f or got[0] == -f
    assert rejected == [True] * 3
    hh, gq, hq = qt_gcd(g, h)
    assert hh * gq == g and hh * hq == h


@pytest.mark.parametrize("case", [_unirat_case(1), _unirat_case(3),
                                  _BIRAT_CASE], ids=["unirat1", "unirat3",
                                                     "birat"])
def test_coprime_denominator_sums_are_canonical(case):
    """A sum over coprime denominators is built without a gcd; it must equal
    the same numerator and denominator canonicalized from scratch."""
    rand, _, _, N = case
    rng = random.Random(29 + N)
    reached = 0
    for _ in range(1000):
        if reached == 40:
            break
        a, b = rand(rng), rand(rng)
        if not (a and b) or a.den.is_one() or b.den.is_one() \
                or not a.den.gcd(b.den)[0].is_one():
            continue
        reached += 1
        s = a + b
        full = type(s)(a.num * b.den + b.num * a.den, a.den * b.den)
        assert (s.num, s.den) == (full.num, full.den)
        _assert_canonical(s)
    assert reached == 40


def _substitute_per_term(f, q_val, t_val, one):
    """The defining formula, every power recomputed per term."""
    acc = one * 0
    for (a, b), v in f.d.items():
        acc = acc + one * v * q_val ** a * t_val ** b
    return acc


def test_substitute_matches_per_term_formula():
    rng = random.Random(31)
    z = CycloNum.zeta(5)
    u = unirat_u(3)
    points = [
        (Fraction(3, 2), Fraction(-2, 5), Fraction(1)),
        (z ** 2 + 1, 3 * z - z ** 4, CycloNum.one(5)),
        ((u + 1) / (u - 2), u * CycloNum.zeta(3), UniRatFunc.one(3)),
        (Fraction(4), Fraction(-3), Fraction(1)),
        (7, -2, Fraction(1)),
        (Fraction(-7, 3), Fraction(5, -4), Fraction(1)),
        (0, Fraction(-1, 6), Fraction(1)),
        (2, -3, 1),
    ]
    values = [_rand_mixed_qt(rng, nterms=6, dmax=5) for _ in range(25)]
    values += [BiRatFunc.zero(), BiRatFunc.const(Fraction(-5, 3)),
               BiRatFunc.const(Fraction(1, 6)) * BiRatFunc.qt_monomial(4, 0)
               + BiRatFunc.const(Fraction(-3, 4)) * BiRatFunc.qt_monomial(0, 3)
               + BiRatFunc.qt_monomial(2, 2) * 5,
               BiRatFunc.from_poly(QTPoly({(3, 1): 2, (0, 2): -7}))]
    polys = [f for x in values for f in (x.num, x.den)]
    for f in polys:
        for q_val, t_val, one_ in points:
            got = f.substitute(q_val, t_val, one_)
            want = _substitute_per_term(f, q_val, t_val, one_)
            assert got == want and type(got) is type(want)
            assert type(got) is Fraction or type(one_) is not Fraction


def test_qt_laurent_reads_the_table_of_omega1_powers():
    for r in range(2, 8):
        p = ParameterSpec(2, r)
        N = p.N
        for a in range(-2 * N, 2 * N + 1):
            for b in (0, 3):
                e, c = p.qt_laurent(a, b)
                assert e == b * p.t_exp - a * p.q_exp
                # the table holds omega1^a in the coefficients' own ring
                assert c == CycloNum.zeta(N, a)
                assert type(c) is (int if N <= 2 else CycloNum)


# -- the Z[u] lane of UniPoly against a schoolbook reference ---------------

def _ref_coeffs(f):
    """Coefficients as the reference sees them: Fractions over Q, else
    CycloNums."""
    return list(f.coeffs())


def _ref_trim(c):
    c = list(c)
    while c and not c[-1]:
        c.pop()
    return c


def _ref_mul(a, b, zero):
    out = [zero] * (len(a) + len(b) - 1) if a and b else []
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = out[i + j] + x * y
    return _ref_trim(out)


def _ref_divmod(a, b, zero):
    rem = list(a)
    quot = [zero] * max(len(a) - len(b) + 1, 0)
    for i in range(len(a) - len(b), -1, -1):
        c = rem[i + len(b) - 1] / b[-1]
        quot[i] = c
        for j, y in enumerate(b):
            rem[i + j] = rem[i + j] - c * y
    return _ref_trim(quot), _ref_trim(rem)


def _ref_gcd(a, b, zero):
    while b:
        a, b = b, _ref_divmod(a, b, zero)[1]
    return [x / a[-1] for x in a] if a else a


def _lane_poly(rng, N, deg):
    """Denominators, internal zeros, and a nonzero leading coefficient."""
    coeffs = [_rand_cyclo(rng, N) if rng.random() < 0.7 else CycloNum.zero(N)
              for _ in range(deg)]
    lead = CycloNum.zero(N)
    while not lead:
        lead = _rand_cyclo(rng, N)
    return UniPoly(N, coeffs + [lead])


def _lane_pairs(N, seed, count=60):
    """Random pairs, one side often zero, scaled by a negative or
    non-integral content, or sharing a factor; plus the product
    (1 + u)(1 - u), whose middle coefficient cancels to zero."""
    rng = random.Random(seed)
    u, one_ = UniPoly.u_power(N, 1), UniPoly.one(N)
    pairs = [(one_ + u, one_ - u), (UniPoly.zero(N), UniPoly.zero(N))]
    for _ in range(count):
        a = _lane_poly(rng, N, rng.randint(0, 4))
        b = _lane_poly(rng, N, rng.randint(0, 3))
        roll = rng.random()
        if roll < 0.15:
            a = UniPoly.zero(N)
        elif roll < 0.45:
            b = b.scale(rng.choice([-6, -2, 4, Fraction(-9, 2), Fraction(6, 5)]))
        elif roll < 0.7:
            common = _lane_poly(rng, N, rng.randint(1, 2))
            a, b = a * common, b * common
        pairs.append((a, b))
    return pairs


@pytest.mark.parametrize("N", [1, 2, 3, 4])
def test_unipoly_lane_matches_schoolbook_reference(N):
    zero = Fraction(0) if euler_phi(N) == 1 else CycloNum.zero(N)
    inexact = 0
    for a, b in _lane_pairs(N, seed=40 + N):
        ra, rb = _ref_coeffs(a), _ref_coeffs(b)
        for x, y, rx, ry in ((a, b, ra, rb), (b, a, rb, ra)):
            prod = x * y
            assert _ref_coeffs(prod) == _ref_mul(rx, ry, zero)
            assert all(type(c) is Fraction if euler_phi(N) == 1
                       else type(c) is CycloNum and c.N == N
                       for c in prod.coeffs())
            assert _ref_coeffs(x.gcd(y)[0]) == _ref_gcd(rx, ry, zero)
            if not y:
                with pytest.raises(ZeroDivisionError):
                    x.divexact(y)
                continue
            assert _ref_coeffs(prod.divexact(y)) == rx
            quot, rem = _ref_divmod(rx, ry, zero)
            if rem:
                inexact += 1
                with pytest.raises(ExactDivisionError):
                    x.divexact(y)
            else:
                assert _ref_coeffs(x.divexact(y)) == quot
    assert inexact > 20


def test_unipoly_lane_makes_no_cyclonum_products(monkeypatch):
    products, made = [], []
    real_mul, real_init = CycloNum.__mul__, CycloNum.__init__

    def counted(self, other):
        products.append(self.N)
        return real_mul(self, other)

    def constructed(self, N, coeffs):
        made.append(N)
        real_init(self, N, coeffs)

    for N in (1, 2):
        for a, b in _lane_pairs(N, seed=N, count=30):
            terms = {e - 2: c for e, c in enumerate(a.coeffs()) if c}
            monkeypatch.setattr(CycloNum, "__mul__", counted)
            monkeypatch.setattr(CycloNum, "__rmul__", counted)
            monkeypatch.setattr(CycloNum, "__init__", constructed)
            prod = a * b
            a + b, a - b, a.gcd(b), b.gcd(a), a.shift(3)
            a.scale(Fraction(-3, 4)), UniRatFunc.from_laurent(N, terms)
            if b:
                prod.divexact(b)
                if a:
                    prod.divexact(a)
            monkeypatch.undo()
            assert products == [] and made == [], (N, a, b)
    a, b = _lane_pairs(3, seed=3, count=1)[-1]
    monkeypatch.setattr(CycloNum, "__mul__", counted)
    a * b
    assert products, "the phi(N) > 1 path multiplies CycloNums"


def _assert_z_form(f):
    """Over Q the stored form is ints over a positive int denominator
    coprime to their content, with no trailing zero."""
    assert all(type(x) is int for x in f.c) and type(f.den) is int
    assert f.den > 0 and (not f.c or f.c[-1])
    content = 0
    for x in f.c:
        content = gcd(content, x)
    assert gcd(content, f.den) == 1 and (f.c or f.den == 1)


@pytest.mark.parametrize("N", [1, 2])
def test_q_lane_routes_give_one_stored_form(N):
    rng = random.Random(60 + N)
    zero = UniPoly.zero(N)
    for _ in range(40):
        # u does not divide f, so from_laurent keeps it as the numerator
        c = [Fraction(rng.choice([-3, 1, 4]), rng.randint(1, 4))]
        c += [_rand_frac(rng) for _ in range(rng.randint(0, 3))]
        c.append(Fraction(rng.choice([-5, -1, 2, 7]), rng.randint(1, 6)))
        f = UniPoly(N, c)
        h = _lane_poly(rng, N, rng.randint(0, 3))
        s = rng.choice([Fraction(-4, 3), Fraction(6, 5), 3, -1])
        terms = {e - 2: x for e, x in enumerate(c) if x}
        routes = [
            # mixed types, denominators not yet common, trailing zeros
            UniPoly(N, [CycloNum.from_rational(N, x) if i % 2 else
                        Fraction(x.numerator * 6, x.denominator * 6)
                        for i, x in enumerate(c)] + [0, Fraction(0, 5)]),
            UniPoly(N, [x / s for x in c]).scale(s),
            UniPoly(N, c[2:]).shift(2) + UniPoly(N, c[:2]),
            (f + h) - h, f + (h - h), f - zero,
            (f * h).divexact(h), (f * f).divexact(f) * UniPoly.one(N),
            UniRatFunc.from_laurent(N, terms).num,
            LaurentPoly.from_unipoly(f, shift=-3).to_unirat().num,
        ]
        for g in routes + [f]:
            _assert_z_form(g)
            assert g == f and hash(g) == hash(f), (f, g)
            assert g.coeffs() == tuple(_ref_trim(c))
        assert len(set(routes)) == 1
        assert f.shift(2) == UniPoly(N, [0, 0] + c)
        assert hash(f.shift(2)) == hash(UniPoly(N, [0, 0] + c))
        for g in (h - h, f + (-f), f.scale(0), zero.shift(2),
                  (f - f).divexact(h or UniPoly.one(N))):
            _assert_z_form(g)
            assert g == zero and hash(g) == hash(zero) and g.den == 1


@pytest.mark.parametrize("N", [1, 2])
def test_unipoly_gcd_fallback_needs_no_heuristic(N, monkeypatch):
    prs_calls = []
    prs, xi_adic = scalars._prs, scalars._xi_adic

    def counted_prs(a, b, primitive):
        prs_calls.append(primitive)
        return prs(a, b, primitive)

    def wrong_by_one_plus_u(g, xi):
        # the heuristic's candidate, before its certifying division
        return scalars._iz_mul(xi_adic(g, xi), [1, 1])

    pairs = _lane_pairs(N, seed=70 + N)
    monkeypatch.setattr(scalars, "_prs", counted_prs)
    for planted in ({"_HEU_TRIES": 0}, {"_xi_adic": wrong_by_one_plus_u}):
        with monkeypatch.context() as m:
            for name, value in planted.items():
                m.setattr(scalars, name, value)
            del prs_calls[:]
            for a, b in pairs:
                want = _ref_gcd(_ref_coeffs(a), _ref_coeffs(b), Fraction(0))
                assert _ref_coeffs(a.gcd(b)[0]) == want, (planted, a, b)
            assert len(prs_calls) >= 20, planted


def test_unipoly_mixed_orders_raise():
    a = UniPoly(1, [CycloNum.one(1), CycloNum.from_rational(1, 2)])
    b = UniPoly(2, [CycloNum.from_rational(2, 3), CycloNum.one(2)])
    for op in (lambda: a.gcd(b), lambda: b.gcd(a), lambda: a * b,
               lambda: a.divexact(b), lambda: a + b,
               lambda: a.gcd(UniPoly.zero(2)), lambda: a * UniPoly.zero(2),
               lambda: CycloNum.zeta(3) + CycloNum.zeta(4),
               lambda: LaurentPoly.one(1) + LaurentPoly.monomial(3, 0, CycloNum.zeta(3)),
               lambda: LaurentPoly.monomial(3, 0, CycloNum.zeta(3)) - LaurentPoly.one(1),
               lambda: LaurentPoly.zero(1) + LaurentPoly.one(2),
               lambda: LaurentPoly.one(2) * LaurentPoly(1, {0: 1, 1: 1}),
               lambda: LaurentPoly.zero(1) * LaurentPoly.one(3)):
        with pytest.raises(MixedFieldError):
            op()


# -- gcd cofactors ---------------------------------------------------------

def _qt_cofactor_pairs():
    """Seeded QTPoly pairs in every lane: planted common factors (integer
    contents and monomials among them), the numerators of rationals with a
    common factor, monomial operands, negative leading coefficients, gcds
    that run in q and in t, and zeros."""
    rng = random.Random(83)
    q, t, one = QTPoly.q(), QTPoly.t(), QTPoly.one()
    pairs = _planted_pairs(83, 120)
    for _ in range(40):
        common = BiRatFunc.zero()
        while common.is_zero():
            common = _rand_mixed_qt(rng, nterms=2, dmax=2)
        a, b = _rand_mixed_qt(rng), _rand_mixed_qt(rng)
        if a and b:
            pairs.append(((a * common).num, (b * common).num))
    pairs += [
        ((one - q * t).scale(3) * q,
         (one - q * t) * (one + t).scale(-5)),
        (q ** 4 * (one + t), q * (one + t) ** 2 * (q + 2)),  # q-degree > t
        (t ** 4 * (one + q), t * (one + q) ** 2 * (t + 2)),  # t-degree > q
        (QTPoly.term(-4, 2, 1), (one + q) * t * q),
        (QTPoly.term(3, 0, 2), QTPoly.term(-6, 1, 1)),
        (-(q * q + t) * (one + t), (q * q + t) * (one - t) * 3),
        (QTPoly.zero(), (one - q) * -2), ((one + t) * q, QTPoly.zero()),
        (QTPoly.zero(), QTPoly.zero()),
    ]
    return pairs


def _assert_qt_cofactors(f, g):
    h, fh, gh = qt_gcd(f, g)
    assert h * fh == f and h * gh == g, (f, g)
    assert all(_all_int(x) for x in (h, fh, gh)), (f, g)
    if f and g:  # the integer content is in h
        assert gcd(*fh.d.values(), *gh.d.values()) == 1, (f, g)
    if f.is_zero() and g.is_zero():
        assert h.is_zero() and fh.is_zero() and gh.is_zero()
    elif f.is_zero() or g.is_zero():
        # gcd(0, g) = (+-g, 0, +-1)
        x, zero_side, unit = (g, fh, gh) if f.is_zero() else (f, gh, fh)
        assert zero_side.is_zero() and unit in (QTPoly.one(), -QTPoly.one())
        assert h == x.scale(unit.leading())
    if h:
        assert h.leading() > 0
    return h


@pytest.mark.parametrize("tries", [None, 0], ids=["heuristic", "prs"])
def test_qt_gcd_cofactors(tries, monkeypatch):
    """(h, f/h, g/h) multiplies back on both paths, with the same h."""
    pairs = _qt_cofactor_pairs()
    expected = [_assert_qt_cofactors(f, g) for f, g in pairs]
    calls = []
    prs = scalars._prs

    def counted(a, b, primitive):
        calls.append(primitive)
        return prs(a, b, primitive)

    monkeypatch.setattr(scalars, "_prs", counted)
    if tries is not None:
        monkeypatch.setattr(scalars, "_HEU_TRIES", tries)
    for (f, g), want in zip(pairs, expected):
        assert _assert_qt_cofactors(f, g) == want, (f, g)
        assert _assert_qt_cofactors(g, f) == want, (f, g)
    qt_prs = calls.count(scalars._qt_primitive)
    assert qt_prs == 0 if tries is None else qt_prs >= 200


def _unipoly_cofactor_pairs(N):
    """The lane pairs, plus shared powers of u and constant operands."""
    pairs = _lane_pairs(N, seed=90 + N)
    rng = random.Random(91 + N)
    for a, b in pairs[2:22]:
        pairs.append((a.shift(rng.randint(1, 3)), b.shift(rng.randint(1, 3))))
    for a, _ in pairs[2:12]:
        c = UniPoly.const(N, rng.choice([Fraction(-3, 2), 5, -1]))
        pairs += [(c, a), (a.shift(1), c.shift(rng.randint(0, 3)))]
    return pairs


@pytest.mark.parametrize("tries", [None, 0], ids=["heuristic", "prs"])
@pytest.mark.parametrize("N", [1, 2, 3, 4])
def test_unipoly_gcd_cofactors(N, tries, monkeypatch):
    zero = Fraction(0) if euler_phi(N) == 1 else CycloNum.zero(N)
    calls = []
    prs = scalars._prs

    def counted(a, b, primitive):
        calls.append(primitive)
        return prs(a, b, primitive)

    monkeypatch.setattr(scalars, "_prs", counted)
    if tries is not None:
        monkeypatch.setattr(scalars, "_HEU_TRIES", tries)
    for a, b in _unipoly_cofactor_pairs(N):
        for x, y in ((a, b), (b, a)):
            h, xh, yh = x.gcd(y)
            assert h * xh == x and h * yh == y, (x, y)
            assert _ref_coeffs(h) == _ref_gcd(_ref_coeffs(x), _ref_coeffs(y),
                                              zero), (x, y)
            if N <= 2:
                for p in (h, xh, yh):
                    _assert_z_form(p)
            if not x and not y:
                assert not h and not xh and not yh
            elif not x or not y:
                # gcd(0, b) = (b.monic(), 0, lc(b))
                nz, zero_side, unit = (y, xh, yh) if not x else (x, yh, xh)
                assert not zero_side and unit == UniPoly.const(N, nz.leading())
    lane = calls.count(scalars._iz_primitive)
    if N > 2:
        assert calls.count(scalars._monic_row) >= 40
    elif tries is None:
        assert lane == 0
    else:
        assert lane >= 40


def test_cancellation_divides_by_no_gcd(monkeypatch):
    """compute_P over n = 3, |lam| <= 8 and n = 4, |lam| <= 7 and sums of
    UniRatFuncs over denominators with a common factor take every
    quotient from the gcd's cofactors: no qt_divexact, no
    UniPoly.divexact."""
    divisions = []
    real_qt, real_uni = scalars.qt_divexact, UniPoly.divexact

    def counted_qt(f, g):
        divisions.append("qt")
        return real_qt(f, g)

    def counted_uni(self, other):
        divisions.append("uni")
        return real_uni(self, other)

    from wheelmac import partitions as pt
    from wheelmac.macdonald import MacdonaldTable
    rng = random.Random(97)
    sums = []
    for N in (1, 2):
        u, one = UniPoly.u_power(N, 1), UniPoly.one(N)
        while len(sums) < 20 * N:
            common = _lane_poly(rng, N, rng.randint(1, 2))
            a = UniRatFunc(_rand_unipoly(rng, N), common * _lane_poly(rng, N, 1))
            b = UniRatFunc(_rand_unipoly(rng, N), common * (u + one))
            if a and b and not a.den.gcd(b.den)[0].is_one():
                sums.append((a, b, UniRatFunc(a.num * b.den + b.num * a.den,
                                              a.den * b.den)))
    monkeypatch.setattr(scalars, "qt_divexact", counted_qt)
    monkeypatch.setattr(UniPoly, "divexact", counted_uni)
    for n, dmax in ((3, 8), (4, 7)):
        table = MacdonaldTable(n)
        for d in range(dmax + 1):
            for lam in pt.enumerate_partitions(n, d):
                table.compute_P(lam)
    for a, b, want in sums:
        assert a + b == want and b + a == want
    assert divisions == []
