import random
from fractions import Fraction
from itertools import combinations_with_replacement, permutations

import pytest

from wheelmac import partitions as pt
from wheelmac.macdonald import CoeffField
from wheelmac.scalars import CycloNum, LaurentPoly, ParameterSpec, UniRatFunc
from wheelmac.symfunc import (MonomialExpansion, SymPoly, m_to_monomials,
                              monomials_to_m, orbit_of, restrict_derivative,
                              sympoly_mul, wheel_collapse, wheel_substitute)
from wheelmac.wheel_ideal import _wheel_substitute_fld

from oracles import eval_monomial_symmetric, specialized_field, unirat_u


def test_orbit_of_matches_distinct_permutations():
    # the ascending order fixes the dict order of every expansion
    for n in range(7):
        for d in range(7):
            for lam in pt.enumerate_partitions(n, d):
                want = sorted(set(permutations(pt.pad(lam, n))))
                assert orbit_of(lam, n) == want, (lam, n)
    assert orbit_of((2, 0, 0), 3) == orbit_of((2,), 3)
    # 12 * 11 arrangements of (2, 1, 0, ..., 0); n! = 479001600
    assert len(orbit_of((2, 1), 12)) == 132


def test_m_to_monomials_examples():
    f = SymPoly.m((1,), 2)
    assert m_to_monomials(f).terms == {(1, 0): Fraction(1), (0, 1): Fraction(1)}
    f = SymPoly.m((1, 1), 2)
    assert m_to_monomials(f).terms == {(1, 1): Fraction(1)}
    f = SymPoly.m((2, 1), 3)
    assert len(m_to_monomials(f).terms) == 6


def test_monomials_to_m_examples():
    g = MonomialExpansion(2, {(1, 0): Fraction(1), (0, 1): Fraction(1)})
    assert monomials_to_m(g) == SymPoly.m((1,), 2)
    g = MonomialExpansion(2, {(2, 1): Fraction(1), (1, 2): Fraction(1)})
    assert monomials_to_m(g) == SymPoly.m((2, 1), 2)
    g = MonomialExpansion(2, {(2, 0): Fraction(1), (0, 1): Fraction(1)})
    with pytest.raises(ValueError, match="swapping x_1 and x_2"):
        monomials_to_m(g)


def _random_sympoly(rng, n, dmax):
    coeffs = {}
    for _ in range(rng.randint(1, 4)):
        d = rng.randint(0, dmax)
        plist = pt.enumerate_partitions(n, d)
        if plist:
            coeffs[rng.choice(plist)] = Fraction(rng.randint(-5, 5))
    return SymPoly(n, coeffs)


def test_roundtrip_random():
    rng = random.Random(11)
    for _ in range(60):
        n = rng.randint(1, 4)
        f = _random_sympoly(rng, n, 8)
        assert monomials_to_m(m_to_monomials(f)) == f


def test_mul_examples():
    m1 = SymPoly.m((1,), 2)
    assert sympoly_mul(m1, m1) == SymPoly(2, {(2,): Fraction(1),
                                              (1, 1): Fraction(2)})
    f = SymPoly(2, {(2,): Fraction(3), (1, 1): Fraction(-1)})
    assert sympoly_mul(f, SymPoly.m((), 2)) == f
    assert sympoly_mul(m1, SymPoly.m((1, 1), 2)) == SymPoly.m((2, 1), 2)


def test_mul_properties():
    rng = random.Random(23)
    for _ in range(20):
        n = rng.randint(1, 3)
        f, g, h = (_random_sympoly(rng, n, 4) for _ in range(3))
        assert sympoly_mul(f, g) == sympoly_mul(g, f)
        assert sympoly_mul(sympoly_mul(f, g), h) == sympoly_mul(f, sympoly_mul(g, h))
        if f and g:
            deg = lambda x: max(pt.size(lam) for lam in x.coeffs)
            assert deg(sympoly_mul(f, g)) == deg(f) + deg(g)


def test_wheel_substitute_examples():
    K = specialized_field(ParameterSpec(1, 2))
    one = UniRatFunc.one(1)
    u = unirat_u(1)
    f = SymPoly.m((1,), 2, one)
    out = wheel_substitute(f, (0,), K)
    assert out.terms == {(1,): one + u}
    # constants pass through
    const = SymPoly.m((), 2, one * 7)
    assert wheel_substitute(const, (1,), K).terms == {
        (0,): one * 7}
    # the kernel element a*m_(2) + b*m_(11) with a(1+t^2) + b t = 0
    f = SymPoly(2, {(2,): u, (1, 1): -(one + u * u)})
    for sigma in [(0,), (1,)]:
        assert wheel_substitute(f, sigma, K).is_zero()
    assert not wheel_substitute(SymPoly.m((2,), 2, one), (0,), K).is_zero()


def test_wheel_substitute_validation():
    # both entry points share the one collapse and its input checks
    p = ParameterSpec(2, 3)
    fld, K = CoeffField.laurent(p), specialized_field(p)
    for one, subs in [(UniRatFunc.one(2),
                       lambda f, s: wheel_substitute(f, s, K)),
                      (fld.one, lambda f, s: _wheel_substitute_fld(f, s, fld))]:
        f = SymPoly.m((1,), 3, one)
        with pytest.raises(ValueError):
            subs(f, (1, 0))  # not weakly increasing
        with pytest.raises(ValueError):
            subs(f, (0, 5))  # out of range
        with pytest.raises(ValueError):
            subs(f, (0,))  # too short
        with pytest.raises(ValueError):
            subs(SymPoly.m((1,), 2, one), (0, 0))  # too few vars
    # the CoeffField route checks sigma against the field's spec
    p = ParameterSpec(1, 2)
    fld = CoeffField.laurent(p)
    with pytest.raises(ValueError, match="0..r-1"):
        _wheel_substitute_fld(SymPoly.m((1,), 2, fld.one), (7,), fld)


def test_wheel_substitute_linear():
    rng = random.Random(4)
    K = specialized_field(ParameterSpec(1, 3))
    one = UniRatFunc.one(2)
    for sigma in [(0,), (1,), (2,)]:
        f = _random_sympoly(rng, 3, 4).scale(one)
        g = _random_sympoly(rng, 3, 4).scale(one)
        lhs = wheel_substitute(f + g, sigma, K)
        rhs = (wheel_substitute(f, sigma, K)
               + wheel_substitute(g, sigma, K))
        assert lhs.terms == rhs.terms


def _naive_collapse(f, ratios):
    """One product per ratio power per orbit term, zero powers included."""
    k = len(ratios)
    out = {}
    for alpha, c in m_to_monomials(f).terms.items():
        for i in range(k):
            c = c * ratios[i] ** alpha[i + 1]
        key = (sum(alpha[:k + 1]),) + alpha[k + 1:]
        out[key] = out[key] + c if key in out else c
    return MonomialExpansion(f.n - k, out)


def _count_collapse(f, sigma, value):
    """The collapse through wheel_collapse; value turns one key's table of
    orbit counts into a coefficient."""
    out = {}
    for lam, c in f.coeffs.items():
        for key, counts in wheel_collapse(lam, f.n, sigma).items():
            v = c * value(counts)
            out[key] = out[key] + v if key in out else v
    return MonomialExpansion(f.n - len(sigma), out)


def _zeta3_point_field():
    """Q(zeta_3) with u = 7/3 in the (k, r) = (1, 4) specialization, built
    from five arguments and no reader, so it reads every table through
    CoeffField's default reader, QTPoly.substitute's ring lane."""
    p, u0 = ParameterSpec(1, 4), Fraction(7, 3)
    return CoeffField(CycloNum.zero(3), CycloNum.one(3),
                      p.q_value().evaluate(u0), p.t_value().evaluate(u0),
                      lambda i: CycloNum.from_rational(3, i))


def test_collapse_wheel_matches_a_per_term_loop():
    # the integer counts of wheel_collapse against the naive loop on the
    # ratios t^i q^(sigma_i), read through powers of fld.q and fld.t and
    # through each CoeffField's own table reader
    rng = random.Random(61)
    fields = []
    for k, r in [(1, 2), (2, 3), (1, 4), (2, 5)]:  # N = 1, 2, 3, 4
        p = ParameterSpec(k, r)
        fields += [(CoeffField.laurent(p), k, r),
                   (specialized_field(p), k, r)]
    fields.append((_zeta3_point_field(), 1, 4))
    for fld, k, r in fields:
        sigma = [rng.randint(0, r - 1) for _ in range(k)]
        ratios = [fld.t ** i * fld.q ** sigma[i - 1] for i in range(1, k + 1)]
        values = [lambda counts: sum(
            (fld.q ** a * fld.t ** b * v for (a, b), v in counts.d.items()),
            fld.zero), fld.table_reader()]
        for _ in range(4):
            n = rng.randint(k + 1, k + 2)
            g = _random_sympoly(rng, n, 4)
            f = SymPoly(n, {lam: fld.one * c + fld.q * rng.randint(-2, 2)
                            for lam, c in g.coeffs.items()})
            want = _naive_collapse(f, ratios)
            for value in values:
                assert _count_collapse(f, sigma, value) == want, (k, r, sigma)


def test_laurent_reader_gives_the_canonical_laurent_poly():
    # the reader builds the LaurentPoly straight from the specialized int
    # (or CycloNum) map; it must be the one the constructor makes
    cyclo = set()
    for k, r in [(1, 2), (1, 3), (2, 3), (1, 4), (2, 5)]:  # N = 1, 2, 2, 3, 4
        p = ParameterSpec(k, r)
        read = CoeffField.laurent(p).table_reader()
        for sigma in combinations_with_replacement(range(r), k):
            for n in (k + 1, k + 2):
                for d in range(5):
                    for lam in pt.enumerate_partitions(n, d):
                        for table in wheel_collapse(lam, n, sigma).values():
                            v = read(table)
                            assert v == LaurentPoly(p.N, p.specialize_poly(table))
                            cyclo.update(p.N for x in v.c.values()
                                         if isinstance(x, CycloNum))
    assert cyclo == {3, 4}
    # at (k, r) = (1, 3), omega1 = -1: m_1(x, t q x) = (1 + t q) x = 0
    p = ParameterSpec(1, 3)
    fld = CoeffField.laurent(p)
    (table,) = wheel_collapse((1,), 2, (1,)).values()
    assert len(table.d) == 2 and fld.table_reader()(table).c == {}
    assert _wheel_substitute_fld(SymPoly.m((1,), 2, fld.one), (1,), fld).terms == {}


def test_restrict_derivative_examples():
    assert restrict_derivative(SymPoly.m((1, 1), 2), 0).is_zero()
    assert restrict_derivative(SymPoly.m((1, 1), 2), 1) == SymPoly.m((1,), 1)
    assert restrict_derivative(SymPoly.m((2,), 2), 2) == \
        SymPoly(1, {(): Fraction(2)})
    # j = 0 is plain restriction x_n = 0
    f = SymPoly(3, {(2, 1): Fraction(1), (1, 1, 1): Fraction(5)})
    assert restrict_derivative(f, 0) == SymPoly.m((2, 1), 2)


def test_restriction_fixes_macdonald(tables):
    # P_lam(x_1..x_{n-1}, 0) = P_lam(x_1..x_{n-1}) when the shape fits
    table3, table2 = tables(3), tables(2)
    for lam in [(1,), (2,), (1, 1), (2, 1), (3, 1)]:
        f = table3.compute_P(lam)
        from wheelmac.scalars import BiRatFunc
        restricted = restrict_derivative(f, 0, BiRatFunc.one())
        assert restricted == table2.compute_P(lam), lam


def test_eval_monomial_symmetric():
    one = Fraction(1)
    vals = [Fraction(2), Fraction(3)]
    assert eval_monomial_symmetric((1,), vals, one) == 5
    assert eval_monomial_symmetric((1, 1), vals, one) == 6
    assert eval_monomial_symmetric((2, 1), vals, one) == 4 * 3 + 9 * 2
    assert eval_monomial_symmetric((1, 1, 1), vals, one) == 0
