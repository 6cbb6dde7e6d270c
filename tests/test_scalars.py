import os
import random
import subprocess
import sys
from fractions import Fraction

import pytest

import wheelmac
from wheelmac import scalars
from wheelmac.scalars import (BiRatFunc, CycloNum, ExactDivisionError,
                              LaurentPoly, MixedFieldError, ParameterSpec,
                              PoleError, QTPoly, UniPoly, UniRatFunc,
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


@pytest.mark.parametrize("kind, N", [("qt", 1), ("u", 2), ("cyclo", 3),
                                     ("rational", 1)])
def test_parse_deep_nesting_is_a_value_error(kind, N):
    # deeper than the interpreter's recursion limit: a ValueError the
    # caller can report, never a RecursionError
    with pytest.raises(ValueError, match="nested too deeply"):
        parse_scalar("(" * 3000 + "1" + ")" * 3000, kind, N)


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


def test_inexact_polynomial_division_raises():
    for divide in _inexact_polynomial_divisions():
        with pytest.raises(ExactDivisionError):
            divide()


_INEXACT_POLY_UNDER_O = """
import sys
sys.path.insert(0, %r)
from test_scalars import ExactDivisionError, _inexact_polynomial_divisions
for divide in _inexact_polynomial_divisions():
    try:
        divide()
    except ExactDivisionError:
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
        a = BiRatFunc(_rand_qtpoly(rng), _rand_qtpoly(rng, nonzero=True))
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


def _stored_exact(f):
    """Every coefficient an int, or a Fraction that is not integral."""
    return all(type(v) is int or (type(v) is Fraction and v.denominator != 1)
               for v in f.d.values())


def _rand_mixed_qtpoly(rng, nterms=4, dmax=3):
    """Integer and half-integer coefficients, so that sums and products
    of Fractions often come out integral."""
    d = {}
    for _ in range(nterms):
        c = rng.choice([rng.randint(-5, 5), Fraction(rng.randint(-5, 5), 2)])
        d[(rng.randint(0, dmax), rng.randint(0, dmax))] = c
    return QTPoly(d)


def test_coefficients_stay_in_the_integer_lane():
    rng = random.Random(5)
    half = Fraction(1, 2)
    for _ in range(150):
        a, b = _rand_mixed_qtpoly(rng), _rand_mixed_qtpoly(rng)
        c = QTPoly.zero()
        while c.is_zero():
            c = _rand_mixed_qtpoly(rng, nterms=2, dmax=2)
        produced = [a + b, a - b, a * b, (a * 2) * half, a.scale(half),
                    a.scale(Fraction(4, 2)), a.scale(-1), -a, a + half + half,
                    qt_divexact(a * c, c), qt_divexact(c * 2, c)]
        if a and b:
            produced.append(qt_gcd(a * c, b * c))
        if b:
            x = BiRatFunc(a * c, b * c)
            y = x * BiRatFunc(b, a + 1) if a + 1 else x
            for z in (x, y, x + y, x - y, x.inverse() if x else y):
                produced += [z.num, z.den]
        for f in produced:
            assert _stored_exact(f), f.d
    assert qt_divexact(QTPoly({(1, 0): half, (0, 0): half}),
                       QTPoly({(1, 0): 1, (0, 0): 1})).d == {(0, 0): half}
    assert qt_divexact(QTPoly({(1, 0): 2, (0, 0): 2}),
                       QTPoly({(1, 0): half, (0, 0): half})).d == {(0, 0): 4}


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
        want = _terms(scalars._tq_primitive_gcd(fr, gr))
        got_terms = _terms(got)
        assert got_terms in (want, {k: -c for k, c in want.items()}), (fr, gr)
        return got

    monkeypatch.setattr(scalars, "_heu_gcd", checked)
    monkeypatch.setattr(scalars, "_heu_points", recorded)
    for f, g in _planted_pairs(17, 800):
        h = qt_gcd(f, g)
        assert qt_divexact(f, h) * h == f and qt_divexact(g, h) * h == g
    # about 65 % of the pairs pass the cheaper steps before the heuristic
    assert seen["heuristic"] >= 500 and seen["fallback"] == 0, seen


def test_forced_heuristic_failure_reaches_prs(monkeypatch):
    pairs = _planted_pairs(23, 60)
    expected = [qt_gcd(f, g) for f, g in pairs]
    calls = []
    prs = scalars._tq_primitive_gcd

    def counted(fr, gr):
        calls.append(1)
        return prs(fr, gr)

    monkeypatch.setattr(scalars, "_HEU_TRIES", 0)
    monkeypatch.setattr(scalars, "_tq_primitive_gcd", counted)
    assert [qt_gcd(f, g) for f, g in pairs] == expected
    assert len(calls) >= 20


def test_planted_wrong_candidate_is_rejected(monkeypatch):
    f = QTPoly.one() - QTPoly.term(1, 1, 2)
    g = (QTPoly.one() + QTPoly.term(3, 2, 0)) * f
    h = (QTPoly.term(1, 0, 1) - QTPoly.term(2, 1, 0)) * f
    # the exact check itself
    dense = scalars._to_tq_rows(g.d)
    assert scalars._tq_divides(dense, scalars._to_tq_rows(f.d))
    assert not scalars._tq_divides(dense, [[1], [0, 1]])
    assert not scalars._tq_divides(dense, [[2], [], [0, 0, 1]])
    # a wrong image one level down gives a candidate that must not pass
    univariate = scalars._heu_gcd_univariate
    monkeypatch.setattr(scalars, "_heu_gcd_univariate",
                        lambda a, b: scalars._iz_mul(univariate(a, b), [1, 1]))
    fr = scalars._to_tq_rows(g.d)
    gr = scalars._to_tq_rows(h.d)
    assert scalars._heu_gcd(fr, gr) is None
    assert qt_gcd(g, h) == f or qt_gcd(g, h) == -f


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
                or not a.den.gcd(b.den).is_one():
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
    u = UniRatFunc.u(3)
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
    polys = [_rand_mixed_qtpoly(rng, nterms=6, dmax=5) for _ in range(25)]
    polys += [QTPoly.zero(), QTPoly.term(Fraction(-5, 3)),
              QTPoly({(4, 0): Fraction(1, 6), (0, 3): Fraction(-3, 4),
                      (2, 2): 5}),
              QTPoly({(3, 1): 2, (0, 2): -7})]
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
                assert c == p.omega1 ** a


# -- the Z[u] lane of UniPoly against a schoolbook reference ---------------

def _ref_coeffs(f):
    """Coefficients as the reference sees them: Fractions over Q, else
    CycloNums."""
    return [c.c[0] for c in f.c] if euler_phi(f.N) == 1 else list(f.c)


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
            assert all(type(c) is CycloNum and c.N == N for c in prod.c)
            assert _ref_coeffs(x.gcd(y)) == _ref_gcd(rx, ry, zero)
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
    products = []
    real = CycloNum.__mul__

    def counted(self, other):
        products.append(self.N)
        return real(self, other)

    monkeypatch.setattr(CycloNum, "__mul__", counted)
    monkeypatch.setattr(CycloNum, "__rmul__", counted)
    for N in (1, 2):
        for a, b in _lane_pairs(N, seed=N, count=30):
            del products[:]
            prod = a * b
            if b:
                prod.divexact(b)
                if a:
                    prod.divexact(a)
            assert products == [], (N, a, b)
    a, b = _lane_pairs(3, seed=3, count=1)[-1]
    a * b
    assert products, "the phi(N) > 1 path multiplies CycloNums"


def test_unipoly_mixed_orders_raise():
    a = UniPoly(1, [CycloNum.one(1), CycloNum.from_rational(1, 2)])
    b = UniPoly(2, [CycloNum.from_rational(2, 3), CycloNum.one(2)])
    for op in (lambda: a.gcd(b), lambda: b.gcd(a), lambda: a * b,
               lambda: a.divexact(b), lambda: a + b,
               lambda: a.gcd(UniPoly.zero(2)), lambda: a * UniPoly.zero(2)):
        with pytest.raises(MixedFieldError):
            op()
