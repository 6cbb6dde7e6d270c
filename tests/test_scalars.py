import os
import random
import subprocess
import sys
from fractions import Fraction

import pytest

import wheelmac
from wheelmac.scalars import (BiRatFunc, CycloNum, LaurentPoly,
                              MixedFieldError, ParameterSpec, PoleError,
                              QTPoly, UniPoly, UniRatFunc,
                              cyclotomic_polynomial, euler_phi,
                              field_arithmetic, parse_scalar, qt_divexact,
                              qt_gcd, render_scalar)

q = BiRatFunc.q()
t = BiRatFunc.t()
one = BiRatFunc.one()


def test_cyclotomic_polynomials():
    assert cyclotomic_polynomial(1) == (-1, 1)
    assert cyclotomic_polynomial(2) == (1, 1)
    assert cyclotomic_polynomial(3) == (1, 1, 1)
    assert cyclotomic_polynomial(4) == (1, 0, 1)
    assert cyclotomic_polynomial(6) == (1, -1, 1)
    assert cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)
    for n in range(1, 30):
        assert len(cyclotomic_polynomial(n)) - 1 == euler_phi(n)


def test_field_arithmetic_examples():
    # rational arithmetic
    assert field_arithmetic(Fraction(1, 2), Fraction(1, 3), "add") == Fraction(5, 6)
    # root-of-unity identity in Q(zeta_3)
    z3 = CycloNum.zeta(3)
    assert field_arithmetic(z3, z3 ** 2, "mul") == CycloNum.one(3)
    # inverse pair in Q(q, t)
    a = (one - t) / (one - q * t)
    b = (one - q * t) / (one - t)
    assert field_arithmetic(a, b, "mul") == one


def test_field_arithmetic_errors():
    with pytest.raises(ZeroDivisionError):
        field_arithmetic(one, BiRatFunc.zero(), "div")
    with pytest.raises(MixedFieldError):
        field_arithmetic(CycloNum.zeta(3), CycloNum.zeta(4), "add")
    with pytest.raises(MixedFieldError):
        field_arithmetic(one, Fraction(1), "add")
    with pytest.raises(ValueError):
        field_arithmetic(one, one, "pow")


def test_cyclo_arithmetic():
    z = CycloNum.zeta(5)
    assert sum((z ** i for i in range(1, 5)), CycloNum.one(5)) == 0
    assert (1 / z) == z ** 4
    assert z.multiplicative_order() == 5
    assert (z ** 2 / z ** 2) == 1
    assert CycloNum.zeta(12).multiplicative_order() == 12
    with pytest.raises(ZeroDivisionError):
        CycloNum.zero(5).inverse()


def test_canonical_idempotence():
    x = (one - t) * (one + q) / (one - q * t)
    again = BiRatFunc(x.num, x.den)
    assert again.num == x.num and again.den == x.den
    # denominator sign canonicalization: leading graded-lex coeff positive
    y = one / (q - one)
    assert y.den.d[y.den.leading_key()] > 0
    u = UniRatFunc.u(1)
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
        h = qt_gcd(f1, f2)
        assert qt_divexact(f1, h) * h == f1
        assert qt_divexact(f2, h) * h == f2
        assert qt_divexact(g, qt_gcd(h, g)).is_constant()


@pytest.mark.parametrize("k,r,m,N", [(1, 2, 1, 1), (1, 3, 2, 2), (2, 2, 1, 1),
                                     (2, 3, 1, 2), (3, 3, 2, 2), (2, 4, 3, 3)])
def test_parameter_spec_consistency(k, r, m, N):
    p = ParameterSpec(k, r)
    assert p.m == m and p.N == N
    # t^((k+1)/m) q^((r-1)/m) = omega, and omega has multiplicative order m
    val = p.t_value() ** ((k + 1) // m) * p.q_value() ** ((r - 1) // m)
    omega = p.omega
    assert omega.multiplicative_order() == m
    assert val == UniRatFunc(UniPoly.const(p.N, 1).scale(omega), _canonical=True)
    # the defining resonance
    assert p.specialize(q ** (r - 1) * t ** (k + 1)) == UniRatFunc.one(N)


def test_specialize_examples():
    p = ParameterSpec(1, 2)
    # q^(r-1) t^(k+1) -> 1
    assert p.specialize(q * t ** 2) == UniRatFunc.one(1)
    # direct substitution of t for r = 2
    u = UniRatFunc.u(1)
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


@pytest.mark.parametrize("k,r", [(1, 2), (1, 3), (2, 3), (3, 3)])
def test_is_resonant_matches_exact_evaluation(k, r):
    p = ParameterSpec(k, r)
    for a in range(-8, 9):
        for b in range(-8, 9):
            value = p.specialize(BiRatFunc.qt_monomial(a, b))
            assert p.is_resonant(a, b) == (value == UniRatFunc.one(p.N)), (a, b)


def test_is_resonant_examples():
    p = ParameterSpec(2, 3)
    assert p.is_resonant(p.r - 1, p.k + 1)
    assert p.is_resonant(0, 0)
    p13 = ParameterSpec(1, 3)
    assert not p13.is_resonant(2, 1)


def test_render_parse_roundtrip():
    samples = [
        ((one - t) * (one + q) / (one - q * t), "qt", 1),
        (q ** 3 - t * 2 + one * Fraction(5, 2), "qt", 1),
        (BiRatFunc.zero(), "qt", 1),
        (CycloNum.zeta(5) ** 3 - 2, "cyclo", 5),
        (Fraction(-22, 7), "rational", 1),
    ]
    p = ParameterSpec(2, 3)
    samples.append((p.specialize((one - t) / (one - q * t)), "u", 2))
    samples.append((UniRatFunc.u(3) ** 2 / (UniRatFunc.u(3) + CycloNum.zeta(3)),
                    "u", 3))
    for value, kind, N in samples:
        text = render_scalar(value)
        back = parse_scalar(text, kind, N)
        assert back == value, (text, value)


def test_render_format():
    assert render_scalar((one - q * t) / (q - one)) == "(-q*t + 1)/(q - 1)"
    assert render_scalar(Fraction(5, 6)) == "5/6"
    assert render_scalar(CycloNum.zeta(3)) == "z"
    u = UniRatFunc.u(1)
    assert render_scalar(-(u ** 2) / (u + 1)) == "(-u^2)/(u + 1)"


def test_laurent_matches_unirat():
    p = ParameterSpec(2, 3)
    lq = LaurentPoly.monomial(p.N, -p.q_exp, p.omega1)
    lt = LaurentPoly.monomial(p.N, p.t_exp)
    assert (lq ** 2 * lt ** 3).to_unirat() == p.q_value() ** 2 * p.t_value() ** 3
    a = lq + lt * Fraction(3, 2)
    assert a.to_unirat() == p.q_value() + p.t_value() * Fraction(3, 2)


_INEXACT_UNDER_O = """
from wheelmac.scalars import ExactDivisionError, _iz_divexact
try:
    _iz_divexact(%r, %r)
except ExactDivisionError:
    raise SystemExit(0)
raise SystemExit(1)
"""


@pytest.mark.parametrize("num, den", [
    ([1, 0, 1], [1, 2]),  # (x^2 + 1) / (2x + 1): 1/2 is not an integer
    ([1, 0, 1], [1, 1]),  # (x^2 + 1) / (x + 1): remainder 2
])
def test_inexact_integer_division_raises_under_O(num, den):
    src = os.path.dirname(os.path.dirname(os.path.abspath(wheelmac.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-O", "-c",
                           _INEXACT_UNDER_O % (num, den)],
                          env=env, capture_output=True, text=True, timeout=60)
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


def _rand_qtpoly(rng, nonzero=False):
    while True:
        f = QTPoly.zero()
        for _ in range(rng.randint(1, 3)):
            f = f + QTPoly.term(_rand_frac(rng), rng.randint(0, 2),
                                rng.randint(0, 2))
        if f or not nonzero:
            return f


def _cyclo_case(N):
    return (lambda rng: _rand_cyclo(rng, N), CycloNum.one(N), "cyclo", N)


def _unirat_case(N):
    return (lambda rng: UniRatFunc(_rand_unipoly(rng, N),
                                   _rand_unipoly(rng, N, nonzero=True)),
            UniRatFunc.one(N), "u", N)


_BIRAT_CASE = (lambda rng: BiRatFunc(_rand_qtpoly(rng),
                                     _rand_qtpoly(rng, nonzero=True)),
               BiRatFunc.one(), "qt", 1)


def _assert_canonical(x):
    """Coprime num/den, denominator leading coefficient 1, zero over 1."""
    if isinstance(x, CycloNum):
        assert len(x.c) == euler_phi(x.N)
        return
    if isinstance(x, UniRatFunc):
        g = x.num.gcd(x.den)
        assert g.degree() == 0 and g.leading() == CycloNum.one(x.N), x
        assert x.den.leading() == CycloNum.one(x.N), x
        if not x:
            assert x.den == UniPoly.one(x.N)
        return
    assert qt_gcd(x.num, x.den) == QTPoly.one(), x
    assert x.den.d[x.den.leading_key()] == 1, x
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
    for _ in range(12):
        a, b, c = rand(rng), rand(rng), rand(rng)
        for x in (a, b, c, a + b, a * b, a - b, -c, b * c + a):
            _assert_canonical(x)
            text = render_scalar(x)
            back = parse_scalar(text, kind, N)
            assert back == x and render_scalar(back) == text, text
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
