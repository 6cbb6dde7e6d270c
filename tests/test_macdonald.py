import os
import random
import re
import subprocess
import sys
from fractions import Fraction
from functools import reduce
from itertools import combinations
from math import gcd
from operator import mul

import pytest

import wheelmac
from wheelmac import cli
from wheelmac import macdonald as md
from wheelmac import partitions as pt
from wheelmac import scalars
from wheelmac.macdonald import (CoeffField, ExactDivisionError, MacdonaldTable,
                                apply_D, apply_E,
                                cauchy_row_check, check_integrality,
                                eigenvalue_D, eigenvalue_e1,
                                integral_form_factor, pieri_failures,
                                psi_dblprime, psi_prime, qpochhammer_ratio,
                                specialize_P, verify_pieri)
from wheelmac.scalars import (BiRatFunc, CycloNum, LaurentPoly, ParameterSpec,
                              QTPoly, UniRatFunc)
from wheelmac.symfunc import SymPoly, restrict_derivative, sympoly_mul
from wheelmac.wheel_ideal import basis_I, wheel_kernel_basis

from oracles import (doubled_coefficient, eval_monomial_symmetric, lcm_sum,
                     poly_field, recursion_P, scalar_product_P, unirat_u)
from test_symfunc import _zeta3_point_field

q = BiRatFunc.q()
t = BiRatFunc.t()
one = BiRatFunc.one()


def test_apply_D_examples():
    fldp = poly_field()
    # D_n^0 is the identity
    f = SymPoly(2, {(2,): QTPoly.term(3), (1, 1): QTPoly.q()})
    assert apply_D(f, 0, fldp) == f
    # single variable: D_1^1 m_(d) = q^d m_(d)
    out = apply_D(SymPoly.m((3,), 1, QTPoly.one()), 1, fldp)
    assert out == SymPoly(1, {(3,): QTPoly.term(1, 3, 0)})
    # n = 2: D_2^1 m_(1,1) = (qt + q) m_(1,1)
    out = apply_D(SymPoly.m((1, 1), 2, QTPoly.one()), 1, fldp)
    assert out == SymPoly(2, {(1, 1): QTPoly({(1, 1): 1, (1, 0): 1})})


def _evaluate(f, xs):
    return sum((c * eval_monomial_symmetric(lam, xs) for lam, c in
                f.coeffs.items()), Fraction(0))


def _A(I, xs, t0):
    """A_I(x;t) = t^(r(r-1)/2) prod_{i in I, j notin I} (t x_i - x_j)/(x_i - x_j)."""
    out = t0 ** (len(I) * (len(I) - 1) // 2)
    for i in I:
        for j in range(len(xs)):
            if j not in I:
                out *= (t0 * xs[i] - xs[j]) / (xs[i] - xs[j])
    return out


def _shifted(xs, I, q0):
    return [q0 * x if i in I else x for i, x in enumerate(xs)]


def _defining_D(f, rho, xs, q0, t0):
    """D_n^rho f at xs from its defining sum, in Fractions."""
    return sum((_A(I, xs, t0) * _evaluate(f, _shifted(xs, I, q0))
                for I in combinations(range(len(xs)), rho)), Fraction(0))


def _defining_E(f, m, xs, q0, t0):
    """E_m f at xs from its defining sum, in Fractions."""
    fx = _evaluate(f, xs)
    return sum((xs[i] ** m * _A((i,), xs, t0)
                * (_evaluate(f, _shifted(xs, (i,), q0)) - fx)
                / ((q0 - 1) * xs[i]) for i in range(len(xs))), Fraction(0))


def _supports(rng, n):
    """Partition supports for an f in n variables: every partition of two
    degrees, a single m_nu, and a random half of three degrees with gaps."""
    two = [lam for d in rng.sample(range(6), 2)
           for lam in pt.enumerate_partitions(n, d)]
    single = [rng.choice(pt.enumerate_partitions(n, rng.randint(1, 5)))]
    gapped = [lam for d in rng.sample([0, 2, 3, 5, 6], 3)
              for lam in pt.enumerate_partitions(n, d)]
    return [two, single, rng.sample(gapped, max(1, len(gapped) // 2))]


def test_operators_match_point_evaluation():
    # oracle: the defining sums of rational functions, evaluated in Fractions
    # at distinct positive integer x and rational (q, t), with no operator
    # code; f on full degrees, on one m_nu and on a subset with degree gaps,
    # so a restriction of an operator matrix to f's support is checked too
    rng = random.Random(23)
    for n in range(1, 6):
        for _ in range(2):
            q0 = Fraction(2 * rng.randint(1, 4) + 1, 2)
            t0 = Fraction(-rng.randint(2, 7), rng.randint(1, 3))
            xs = [Fraction(x) for x in rng.sample(range(1, 10), n)]
            fld = CoeffField(Fraction(0), Fraction(1), q0, t0, Fraction)
            for support in _supports(rng, n):
                f = SymPoly(n, {lam: Fraction(rng.randint(1, 5),
                                              rng.randint(1, 3))
                                for lam in support})
                for rho in range(n + 1):
                    assert _evaluate(apply_D(f, rho, fld), xs) == \
                        _defining_D(f, rho, xs, q0, t0), (n, rho, support)
                for m in range(3):
                    assert _evaluate(apply_E(f, m, fld), xs) == \
                        _defining_E(f, m, xs, q0, t0), (n, m, support)


def test_a_field_builds_each_operator_matrix_once(monkeypatch):
    builds = []
    real = md._operator_tables

    def counted(n, d, op):
        builds.append((n, d, op))
        return real(n, d, op)

    monkeypatch.setattr(md, "_operator_tables", counted)
    fld = poly_field()
    plist = pt.enumerate_partitions(3, 3) + pt.enumerate_partitions(3, 5)
    f = SymPoly(3, {lam: QTPoly.term(i + 1) for i, lam in enumerate(plist)})
    g = SymPoly(3, {(2, 1): QTPoly.q()})
    ops = [(apply_D, 1), (apply_D, 2), (apply_D, 3),
           (apply_E, 0), (apply_E, 1), (apply_E, 2)]
    first = [op(f, arg, fld) for op, arg in ops]
    for h in (g, f, g):
        for op, arg in ops:
            op(h, arg, fld)
    # one build per (degree, operator), whatever the support of the input
    assert len(builds) == len(set(builds)) == 2 * len(ops)
    assert {(n, d) for n, d, _ in builds} == {(3, 3), (3, 5)}
    assert [op(f, arg, fld) for op, arg in ops] == first
    # a fresh field builds its own matrices, with equal results
    del builds[:]
    fresh = poly_field()
    assert [op(f, arg, fresh) for op, arg in ops] == first
    assert len(builds) == 2 * len(ops)


def test_fields_at_two_points_keep_their_own_matrices():
    # a matrix cached anywhere but on its field would give the second point
    # the first point's entries; alternate the fields to catch it
    rng = random.Random(29)
    xs = [Fraction(x) for x in (2, 5, 7)]
    fields = [CoeffField(Fraction(0), Fraction(1), Fraction(3, 2),
                         Fraction(-2), Fraction),
              CoeffField(Fraction(0), Fraction(1), Fraction(5),
                         Fraction(1, 3), Fraction)]
    f = SymPoly(3, {lam: Fraction(rng.randint(1, 9), rng.randint(1, 4))
                    for d in (2, 4) for lam in pt.enumerate_partitions(3, d)})
    for fld in fields + fields:
        for rho in range(1, 4):
            assert _evaluate(apply_D(f, rho, fld), xs) == \
                _defining_D(f, rho, xs, fld.q, fld.t), (fld.q, rho)
        for m in range(3):
            assert _evaluate(apply_E(f, m, fld), xs) == \
                _defining_E(f, m, xs, fld.q, fld.t), (fld.q, m)
    a, b = (fld.matrix(3, 4, ("D", 1)) for fld in fields)
    assert a.keys() == b.keys()
    assert all(a[lam][nu] != b[lam][nu] for lam in a for nu in a[lam])


def _plant_wrong_sign(n):
    """The a_delta table for n with the sign of one transposition flipped."""
    orbit = list(md._delta_orbit(n))
    s, wd = orbit[1]
    orbit[1] = (-s, wd)
    return orbit


def _plant_wrong_weight(n):
    """The a_delta table for n with the last two entries of one w.delta
    exchanged, which changes its t-weights but not its sign."""
    orbit = list(md._delta_orbit(n))
    s, wd = orbit[3]
    orbit[3] = (s, wd[:-2] + (wd[-1], wd[-2]))
    return orbit


@pytest.mark.parametrize("plant", [_plant_wrong_sign, _plant_wrong_weight])
def test_antisymmetry_witness_catches_a_wrong_table(plant, monkeypatch):
    warm = poly_field()
    f = SymPoly(3, {lam: QTPoly.one() for lam in pt.enumerate_partitions(3, 4)})
    want = apply_D(f, 1, warm), apply_E(f, 1, warm)
    monkeypatch.setitem(md._DELTA_ORBITS, 3, plant(3))
    # a fresh field builds its matrices on the planted table, and a failed
    # build leaves nothing behind, so it raises again
    fldp = poly_field()
    for _ in range(2):
        with pytest.raises(ExactDivisionError):
            apply_D(f, 1, fldp)
        with pytest.raises(ExactDivisionError):
            apply_E(f, 1, fldp)
    with pytest.raises(ExactDivisionError):
        MacdonaldTable(3).component_matrix(4)
    # matrices built before the plant stay on their field
    assert (apply_D(f, 1, warm), apply_E(f, 1, warm)) == want


_WITNESS_UNDER_O = """
from wheelmac import macdonald as md, partitions as pt
from wheelmac.scalars import QTPoly
from wheelmac.symfunc import SymPoly
from oracles import poly_field
orbit = list(md._delta_orbit(3))
s, wd = orbit[1]
orbit[1] = (-s, wd)
md._DELTA_ORBITS[3] = orbit
f = SymPoly(3, {lam: QTPoly.one() for lam in pt.enumerate_partitions(3, 4)})
try:
    %s
except md.ExactDivisionError:
    raise SystemExit(0)
raise SystemExit(1)
"""


def _run_under_O(call):
    src = os.path.dirname(os.path.dirname(os.path.abspath(wheelmac.__file__)))
    tests = os.path.dirname(os.path.abspath(__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, tests, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-O", "-c",
                           _WITNESS_UNDER_O % call],
                          env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr


def test_antisymmetry_witness_survives_O():
    _run_under_O("md.apply_D(f, 1, poly_field())")


def test_antisymmetry_witness_survives_O_in_apply_E():
    _run_under_O("md.apply_E(f, 1, poly_field())")


def test_antisymmetry_witness_survives_O_in_compute_P():
    _run_under_O("md.MacdonaldTable(3).compute_P((4,))")


def test_eigenvalue_examples():
    # empty partition: prod (1 + X t^(n-i))
    coeffs = eigenvalue_D((), 2)
    assert coeffs[0] == QTPoly.one()
    assert coeffs[1] == QTPoly.t() + QTPoly.one()
    assert coeffs[2] == QTPoly.t()
    # lam = (1,0): (1 + Xqt)(1 + X)
    coeffs = eigenvalue_D((1,), 2)
    assert coeffs[1] == QTPoly({(1, 1): 1, (0, 0): 1})
    assert coeffs[2] == QTPoly({(1, 1): 1})
    # lam = (2,0): (1 + Xq^2 t)(1 + X)
    coeffs = eigenvalue_D((2,), 2)
    assert coeffs[1] == QTPoly({(2, 1): 1, (0, 0): 1})
    assert coeffs[2] == QTPoly({(2, 1): 1})


def test_eigenvalues_are_tables_read_through_each_field():
    # e_j of the monomials q^(lam_i) t^(n-1-i), and their sum, read by each
    # field's table reader, against one product of powers of fld.q and
    # fld.t per subset I, summed in the ring
    fields = [None, CoeffField.generic()]
    fields += [CoeffField.laurent(ParameterSpec(k, r))
               for k, r in [(1, 2), (2, 3), (2, 4)]]
    fields += [CoeffField(Fraction(0), Fraction(1), Fraction(27),
                          Fraction(25), Fraction),
               CoeffField(Fraction(0), Fraction(1), Fraction(5, 2),
                          Fraction(-3), Fraction),
               _zeta3_point_field()]
    for fld in fields:
        ring = fld or poly_field()
        for n in range(5):
            for d in range(4):
                for lam in pt.enumerate_partitions(n, d):
                    mono = [ring.q ** e * ring.t ** (n - 1 - i)
                            for i, e in enumerate(pt.pad(lam, n))]
                    want = [sum((reduce(mul, [mono[i] for i in I], ring.one)
                                 for I in combinations(range(n), j)),
                                ring.zero) for j in range(n + 1)]
                    assert eigenvalue_D(lam, n, fld) == want, (fld, lam, n)
                    assert eigenvalue_e1(lam, n, fld) == (
                        want[1] if n else ring.zero), (fld, lam, n)
        assert eigenvalue_D((), 0, fld) == [ring.one]
        assert eigenvalue_e1((), 0, fld) == ring.zero
        for eigenvalue in (eigenvalue_D, eigenvalue_e1):
            with pytest.raises(ValueError):
                eigenvalue((2, 1, 1), 2, fld)


def test_compute_P_examples(tables):
    table = tables(2)
    assert table.compute_P((1,)) == SymPoly.m((1,), 2, one)
    assert table.compute_P((1, 1)) == SymPoly.m((1, 1), 2, one)
    P2 = table.compute_P((2,))
    c = (one - t) * (one + q) / (one - q * t)
    assert P2 == SymPoly(2, {(2,): one, (1, 1): c})


def test_compute_P_eigen_equation(tables):
    # independent oracle for the (2) coefficient: the full D_2(X) equation
    table = tables(2)
    fld = CoeffField.generic()
    for lam in [(2,), (2, 1), (3, 1)]:
        P = table.compute_P(lam)
        evs = eigenvalue_D(lam, 2)
        for rho in range(3):
            assert apply_D(P, rho, fld) == P.scale(BiRatFunc.from_poly(evs[rho]))


def _norm_closed_form(lam):
    """<P_lam, P_lam> = prod over the cells s of lam of
    (1 - q^(a(s)+1) t^l(s)) / (1 - q^a(s) t^(l(s)+1)), SFHP VI (6.19)."""
    conj = pt.conjugate(lam)
    out = one
    for i, row in enumerate(lam):
        for j in range(row):
            a, l = row - j - 1, conj[j] - i - 1
            out = out * (one - BiRatFunc.qt_monomial(a + 1, l)) \
                / (one - BiRatFunc.qt_monomial(a, l + 1))
    return out


def test_compute_P_matches_the_scalar_product_oracle(tables):
    # P_lam by Gram-Schmidt, with no operator: a t-weight convention shared
    # by D_n^1 and its eigenvalues changes compute_P but not this
    for d in range(1, 7):
        for lam, (P, norm) in scalar_product_P(d).items():
            assert norm == _norm_closed_form(lam), lam
            for n in range(len(lam), d + 1):
                want = {mu: c for mu, c in P.items() if len(mu) <= n}
                assert tables(n).compute_P(lam).coeffs == want, (lam, n)


def test_compute_P_with_n_parts_matches_the_recursion():
    # P_lam with l(lam) = n is read off P_(lam - lam_n 1^n); the triangular
    # solve it skips (oracles.recursion_P) must give the same coefficients,
    # canonical num and den alike, in the same order
    cases = [(n, lam) for n, dmax in ((1, 9), (2, 9), (3, 9), (4, 8))
             for d in range(n, dmax + 1)
             for lam in pt.enumerate_partitions(n, d) if len(lam) == n]
    cases += [(5, (3, 2, 2, 1, 1)), (5, (3, 3, 2, 2, 2))]
    assert {lam[-1] for n, lam in cases if n > 1} >= {1, 2, 3}
    tables = {n: MacdonaldTable(n) for n in range(1, 6)}
    for n, lam in cases:
        got = tables[n].compute_P(lam)
        want = recursion_P(MacdonaldTable(n), lam)
        assert [(mu, c.num, c.den) for mu, c in got.coeffs.items()] == \
            [(mu, c.num, c.den) for mu, c in want.coeffs.items()], (n, lam)


def test_compute_P_reads_n_parts_off_the_smaller_P_in_one_step():
    # one step, not one frame per column: n = 1 at |lam| = 1500
    assert MacdonaldTable(1).compute_P((1500,)) == \
        SymPoly.m((1500,), 1, one)
    # (4, 4, 2) is x_1 x_2 x_3 squared times P_(2, 2): only the degree-4
    # component is built, and no degree-10 matrix
    table = MacdonaldTable(3)
    P = table.compute_P((4, 4, 2))
    assert list(table._matrices) == [4]
    assert P.coeffs.keys() == {(4, 4, 2), (4, 3, 3)}


def test_operator_commutativity():
    rng = random.Random(9)
    fldp = poly_field()
    for _ in range(5):
        n = 3
        d = rng.randint(1, 4)
        coeffs = {lam: QTPoly.term(rng.randint(-3, 3))
                  for lam in pt.enumerate_partitions(n, d)}
        f = SymPoly(n, coeffs)
        d1d2 = apply_D(apply_D(f, 2, fldp), 1, fldp)
        d2d1 = apply_D(apply_D(f, 1, fldp), 2, fldp)
        assert d1d2 == d2d1


def test_operator_linearity():
    rng = random.Random(13)
    fldp = poly_field()
    for _ in range(5):
        d = rng.randint(1, 4)
        plist = pt.enumerate_partitions(3, d)
        f = SymPoly(3, {lam: QTPoly.term(rng.randint(-3, 3)) for lam in plist})
        g = SymPoly(3, {lam: QTPoly.term(rng.randint(-3, 3)) for lam in plist})
        for rho in (1, 2):
            assert apply_D(f + g, rho, fldp) == \
                apply_D(f, rho, fldp) + apply_D(g, rho, fldp)
        for m in (0, 1, 2):
            assert apply_E(f + g, m, fldp) == \
                apply_E(f, m, fldp) + apply_E(g, m, fldp)


def test_triangularity_of_D1():
    fldp = poly_field()
    for n, d in [(3, 4), (4, 5)]:
        for nu in pt.enumerate_partitions(n, d):
            image = apply_D(SymPoly.m(nu, n, QTPoly.one()), 1, fldp)
            for mu in image.coeffs:
                assert pt.dominance_leq(mu, nu), (mu, nu)


def test_diagonal_entry_is_eigenvalue():
    fldp = poly_field()
    for n, d in [(3, 3), (4, 4)]:
        for nu in pt.enumerate_partitions(n, d):
            image = apply_D(SymPoly.m(nu, n, QTPoly.one()), 1, fldp)
            assert image.coeffs[nu] == eigenvalue_e1(nu, n)


def test_component_matrix_matches_the_defining_sum():
    # oracle: D_n^1 m_nu from its defining sum at one rational point per
    # (n, d), against sum_mu <m_mu> D_n^1 m_nu m_mu at the same point; the
    # per-column images of apply_D would read the very matrix under test
    rng = random.Random(31)
    grid = [(n, d) for n in range(1, 6) for d in range(9)] + [(6, 10), (7, 8)]
    for n, d in grid:
        plist, cols = MacdonaldTable(n).component_matrix(d)
        assert plist == pt.enumerate_partitions(n, d)
        assert list(cols) == plist, (n, d)
        q0 = Fraction(rng.randint(2, 9), rng.randint(1, 4))
        t0 = Fraction(-rng.randint(2, 9), rng.randint(1, 4))
        xs = [Fraction(x) for x in rng.sample(range(1, 12), n)]
        m_at = {mu: eval_monomial_symmetric(mu, xs) for mu in plist}
        A = [_A((i,), xs, t0) for i in range(n)]
        for nu in plist:
            assert all(pt.dominance_leq(mu, nu) for mu in cols[nu]), (n, nu)
            got = sum((c.substitute(q0, t0, Fraction(1)) * m_at[mu]
                       for mu, c in cols[nu].items()), Fraction(0))
            want = sum((A[i] * eval_monomial_symmetric(
                nu, _shifted(xs, (i,), q0)) for i in range(n)), Fraction(0))
            assert got == want, (n, d, nu)


def _per_weight_field(fld):
    """fld with a reference reader: each weight v q^a t^b of a table read
    on its own, as from_int(v) * q**a * t**b."""
    return CoeffField(fld.zero, fld.one, fld.q, fld.t, fld.from_int,
                      lambda counts: sum((fld.from_int(v) * fld.q ** a
                                          * fld.t ** b for (a, b), v in
                                          counts.d.items()), fld.zero))


def _plain_apply_rows(rows, coeffs, zero):
    """scalars.apply_rows as plain sums of products, one per target."""
    return {target: v for target, row in rows.items() if (v := sum(
        (a * coeffs[s] for s, a in row.items() if s in coeffs), zero))}


def test_operators_match_a_per_weight_reference(monkeypatch):
    # each field's table reader and application kernel against reading every
    # weight on its own and summing the products plainly; the Laurent
    # fields cover N = 1, 2 (omega1 = -1) and 3, with coefficients over
    # unequal denominators
    rng = random.Random(47)

    def rand_frac():
        return Fraction(rng.randint(-6, 6), rng.randint(1, 4))

    fields = [(CoeffField.laurent(ParameterSpec(k, r)), lambda fld: sum(
        (LaurentPoly.monomial(fld.spec.N, e, rand_frac())
         for e in rng.sample(range(-3, 4), 2)), fld.zero))
        for k, r in [(1, 2), (1, 3), (2, 3), (2, 4)]]
    # the Fraction fields read each table through QTPoly.substitute and sum
    # through the kernel's rational lane: the macd certificate's at an
    # integer point and one at (5/2, -3)
    fields.append((CoeffField(Fraction(0), Fraction(1), Fraction(27),
                              Fraction(25), Fraction), lambda fld: rand_frac()))
    fields.append((CoeffField(Fraction(0), Fraction(1), Fraction(5, 2),
                              Fraction(-3), Fraction), lambda fld: rand_frac()))
    fields.append((CoeffField.generic(), lambda fld: BiRatFunc.const(
        rand_frac()) + fld.q * rand_frac() / (fld.one - fld.t)))
    fields.append((_zeta3_point_field(),
                   lambda fld: CycloNum.zeta(3) * rand_frac() + rand_frac()))
    for fld, coeff in fields:
        ref = _per_weight_field(fld)
        for n in (1, 2, 3):
            f = SymPoly(n, {lam: coeff(fld) for d in (2, 3)
                            for lam in pt.enumerate_partitions(n, d)})
            ops = [(apply_D, rho) for rho in range(1, n + 1)] + \
                  [(apply_E, m) for m in range(3)]
            got = [op(f, arg, fld) for op, arg in ops]
            with monkeypatch.context() as mp:
                mp.setattr(md, "apply_rows", _plain_apply_rows)
                want = [op(f, arg, ref) for op, arg in ops]
            assert got == want, (fld.zero, n)
    table = QTPoly({(2, 1): 3, (0, 4): -1})
    assert poly_field().table_reader()(table) is table
    assert CoeffField.generic().table_reader()(table) == \
        BiRatFunc.from_poly(table)


def test_component_matrix_applies_D_once_per_component(monkeypatch):
    calls = []

    def counted(f, rho, fld):
        calls.append((f.n, rho))
        return apply_D(f, rho, fld)

    monkeypatch.setattr(md, "apply_D", counted)
    for n in (2, 3, 4):
        table = MacdonaldTable(n)
        for d in range(7):
            table.component_matrix(d)
            for lam in pt.enumerate_partitions(n, d):
                table.compute_P(lam)
            table.component_matrix(d)
        assert calls == [(n, 1)] * 7, n
        del calls[:]


def test_P_of_the_empty_partition_in_no_variables():
    p = ParameterSpec(1, 2)
    m0 = SymPoly.m((), 0, UniRatFunc.one(p.N))
    assert MacdonaldTable(0).component_matrix(0) == ([()], {(): {}})
    assert md.compute_P((), 0) == SymPoly.m((), 0, one)
    assert specialize_P((), 0, p) == m0
    assert basis_I(1, 2, 0, 0) == wheel_kernel_basis(1, 2, 0, 0) == [m0]


def test_apply_E_examples():
    fldp = poly_field()
    # E_m kills constants, in no variables too
    for n in (0, 2):
        const = SymPoly.m((), n, QTPoly.term(5))
        for m in range(3):
            assert apply_E(const, m, fldp).is_zero()
    # n = 1: E_0 m_(d) = [d]_q m_(d-1)
    out = apply_E(SymPoly.m((3,), 1, QTPoly.one()), 0, fldp)
    assert out == SymPoly(1, {(2,): QTPoly({(0, 0): 1, (1, 0): 1, (2, 0): 1})})


def test_E1_relation_to_D1():
    # (q - 1) E_1 = D_n^1 - (1 - t^n)/(1 - t), as operators
    rng = random.Random(17)
    fld = CoeffField.generic()
    for n in (2, 3):
        scalar = (one - t ** n) / (one - t)
        for _ in range(4):
            d = rng.randint(1, 4)
            f = SymPoly(n, {lam: BiRatFunc.const(rng.randint(-3, 3))
                            for lam in pt.enumerate_partitions(n, d)})
            lhs = apply_E(f, 1, fld).scale(q - one)
            rhs = apply_D(f, 1, fld) - f.scale(scalar)
            assert lhs == rhs


def test_psi_prime_examples():
    assert psi_prime((), 1) == one
    assert psi_prime((1, 1), 2).is_zero()
    assert psi_prime((1,), 2) == (one - q) * (one + t) / (one - q * t)


def test_psi_prime_vanishing_classification():
    # zero exactly when the new shape is not a partition
    for lam in [(2, 2), (3, 1, 1), (2, 2, 1)]:
        for j in range(1, pt.length(lam) + 2):
            prev = lam[j - 2] if j >= 2 else None
            cur = lam[j - 1] if j <= len(lam) else 0
            assert psi_prime(lam, j).is_zero() == (j >= 2 and prev == cur)


def test_psi_dblprime_example(tables):
    assert psi_dblprime((1,), 1, 2) == one + t
    # cross-check via E_0 P_(1) = psi'' P_()
    table = tables(2)
    fld = CoeffField.generic()
    out = apply_E(table.compute_P((1,)), 0, fld)
    assert out == SymPoly.m((), 2, one + t)


@pytest.mark.parametrize("lam,n", [((), 2), ((1,), 2), ((2, 1), 3)])
def test_verify_pieri_examples(lam, n, tables):
    assert verify_pieri(lam, n, tables(n))


def test_pieri_sees_a_planted_coefficient():
    # P_21 with its m_111 coefficient doubled breaks all three identities
    table = doubled_coefficient(MacdonaldTable(3), (2, 1), (1, 1, 1))
    assert pieri_failures((2, 1), 3, table) == ["e1", "E0", "E2"]


def test_integral_form_is_the_product_of_its_cells():
    # the packed product against one BiRatFunc factor per cell
    for d in range(10):
        for lam in pt.enumerate_partitions(4, d):
            want = one
            conj = pt.conjugate(lam)
            for i, li in enumerate(lam, start=1):
                for j in range(1, li + 1):
                    want = want * (one - BiRatFunc.qt_monomial(
                        li - j, conj[j - 1] - i + 1))
            assert integral_form_factor(lam) == want


def test_integral_form_examples():
    assert integral_form_factor(()) == one
    assert integral_form_factor((1,)) == one - t
    assert integral_form_factor((2,)) == (one - q * t) * (one - t)


def test_check_integrality_examples(tables):
    assert check_integrality((1,), 2, tables(2))
    assert check_integrality((2,), 2, tables(2))
    # c_(2) P_(2) = (1-qt)(1-t) m_(2) + (1-t)^2 (1+q) m_(1,1)
    c = integral_form_factor((2,))
    P = tables(2).compute_P((2,))
    f = P.scale(c)
    assert f.coeffs[(2,)] == (one - q * t) * (one - t)
    assert f.coeffs[(1, 1)] == (one - t) ** 2 * (one + q)
    assert check_integrality((2, 1), 3, tables(3))


def test_check_integrality_on_planted_coefficients():
    # c_(2) = (1 - qt)(1 - t) in 2 variables
    num = BiRatFunc.from_poly(QTPoly.q() + 5)
    for coeff, want in [(num / (one - q * q), False),
                        (num / (one - t), True),
                        (num / ((one - t) * (one - q * t)), True),
                        (num / ((one - t) ** 2), False),
                        (num * Fraction(1, 3), True),
                        (num / ((one - t) * 3), True),
                        (num / ((one - q * q) * 3), False)]:
        table = MacdonaldTable(2)
        table.entries[(2,)] = SymPoly(2, {(2,): one, (1, 1): coeff})
        assert check_integrality((2,), 2, table) is want, coeff


def test_check_integrality_divides_once_per_denominator(tables, monkeypatch):
    calls = []
    real = md.qt_divexact

    def counted(f, g):
        calls.append(g)
        return real(f, g)

    monkeypatch.setattr(md, "qt_divexact", counted)
    shared = 0
    for n, lam in [(3, (3, 2, 1)), (4, (4, 2)), (4, (2, 2, 1, 1)), (3, (4, 1))]:
        dens = [c.den for c in tables(n).compute_P(lam).coeffs.values()]
        del calls[:]
        assert check_integrality(lam, n, tables(n))
        assert len(calls) == len(set(calls)) and set(calls) == set(dens)
        shared += len(dens) - len(set(dens))
    assert shared
    # one bad denominator on two coefficients still fails
    num = BiRatFunc.from_poly(QTPoly.q() + 5)
    bad = num / (one - q * q)
    table = MacdonaldTable(2)
    table.entries[(2,)] = SymPoly(2, {(2,): bad, (1, 1): bad * 3})
    del calls[:]
    assert check_integrality((2,), 2, table) is False
    assert calls == [bad.den]


def test_check_integrality_matches_the_product_definition(tables):
    """The division test against (c_lam * coeff).is_polynomial(), on every
    P_lam with n <= 4 and |lam| <= 6 and on copies whose coefficients are
    divided by a seeded 1 - q^a t^b."""
    rng = random.Random(17)
    seen = set()
    for n in range(1, 5):
        for d in range(7):
            for lam in pt.enumerate_partitions(n, d):
                c = integral_form_factor(lam)
                P = tables(n).compute_P(lam)
                a, b = rng.randint(0, 2), rng.randint(0, 3)
                bumped = P.scale(one / (one - BiRatFunc.qt_monomial(a, b))) \
                    if a + b else P
                for f in (P, bumped):
                    table = MacdonaldTable(n)
                    table.entries[lam] = f
                    want = all((c * coeff).is_polynomial()
                               for coeff in f.coeffs.values())
                    assert check_integrality(lam, n, table) is want
                    seen.add(want)
    assert seen == {True, False}


def test_check_integrality_takes_no_gcd(tables, monkeypatch):
    lams = [(3, 2, 1), (4, 2), (2, 2, 1, 1)]
    for lam in lams:
        tables(4).compute_P(lam)
    calls = []
    real = scalars.qt_gcd

    def counted(f, g):
        calls.append(1)
        return real(f, g)

    monkeypatch.setattr(scalars, "qt_gcd", counted)
    for lam in lams:
        assert check_integrality(lam, 4, tables(4))
    assert not calls


def _compute_P_per_term(table, lam):
    """The defining back-substitution, one canonical BiRatFunc per step."""
    plist, cols = table.component_matrix(pt.size(lam))
    eps_lam = table.eps1(lam)
    u = {lam: one}
    for mu in plist[plist.index(lam) + 1:]:
        acc = BiRatFunc.zero()
        for nu, unu in u.items():
            entry = cols[nu].get(mu)
            if entry is not None:
                acc = acc + unu * entry
        if acc:
            u[mu] = acc / BiRatFunc.from_poly(eps_lam - table.eps1(mu))
    return u


def test_compute_P_matches_per_term_accumulation():
    table = MacdonaldTable(3)
    for d in range(9):
        for lam in pt.enumerate_partitions(3, d):
            got = table.compute_P(lam).coeffs
            want = _compute_P_per_term(table, lam)
            assert got.keys() == want.keys()
            for mu, c in want.items():
                assert (got[mu].num, got[mu].den) == (c.num, c.den)


def _counted_gcds(monkeypatch):
    calls = []
    real = scalars.qt_gcd

    def counted(f, g):
        calls.append((f, g))
        return real(f, g)

    monkeypatch.setattr(scalars, "qt_gcd", counted)
    return calls


def test_lcm_sum_matches_the_loop(monkeypatch):
    """compute_P's numerator, one _qt_fold, against the QTPoly products and
    sums it replaced (oracles.lcm_sum): equal num and den and the same
    qt_gcd calls, on seeded pairs whose denominators share factors of
    1 - q^a t^b, with negative and above-2^64 coefficients, numerators that
    cancel, and denominators with an integer content."""
    rng = random.Random(29)
    factors = [QTPoly({(0, 0): 1, (a, b): -1})
               for a, b in [(1, 0), (0, 1), (1, 1), (2, 1), (1, 2)]]

    def rand(big):
        d = {(rng.randint(0, 3), rng.randint(0, 3)):
             rng.choice([-1, 1]) * rng.randint(1, 2 ** 70 if big else 9)
             for _ in range(rng.randint(1, 5))}
        return QTPoly(d)

    calls = _counted_gcds(monkeypatch)
    seen = set()
    for _ in range(120):
        big, pairs = rng.random() < 0.3, []
        for _ in range(rng.randint(1, 6)):
            den = QTPoly.one()
            for f in rng.sample(factors, rng.randint(0, 3)):
                den = den * f
            x = BiRatFunc(rand(big), den)
            if rng.random() < 0.05:
                x = x + BiRatFunc.const(Fraction(1, 2)) \
                    * BiRatFunc.qt_monomial(4, 4)
            pairs.append((x, rand(big)))
        if rng.random() < 0.2:  # the second half cancels the first
            pairs += [(-x, e) for x, e in pairs]
        del calls[:]
        got = md._lcm_sum(pairs, {})
        packed_calls = calls[:]
        del calls[:]
        want = lcm_sum(pairs, {})
        assert got == want and packed_calls == calls
        seen |= {("cancel", not want[0]), ("merge", bool(calls)),
                 ("content", any(gcd(*x.den.d.values()) > 1
                                 for x, _ in pairs))}
    assert seen >= {("cancel", True), ("merge", True), ("content", True)}


def test_compute_P_matches_the_loop(monkeypatch):
    """Every P_lam with n <= 4 and |lam| <= 7 (n = 4 at |lam| <= 6) through
    the packed numerator equals, by repr, the one through oracles.lcm_sum,
    with the same qt_gcd calls; so does a table whose D_n^1 columns carry
    a planted factor 2."""
    calls, packed = _counted_gcds(monkeypatch), md._lcm_sum

    def run(fold, planted):
        monkeypatch.setattr(md, "_lcm_sum", fold)
        del calls[:]
        out = []
        for n, dmax in ((2, 7), (3, 7), (4, 6)):
            table = MacdonaldTable(n)
            for d in range(dmax + 1):
                if planted and d:
                    plist, cols = table.component_matrix(d)
                    cols[plist[0]] = {mu: e * 2
                                      for mu, e in cols[plist[0]].items()}
                for lam in pt.enumerate_partitions(n, d):
                    out.append(repr(table.compute_P(lam)))
        return out, len(calls)

    for planted in (False, True):
        assert run(packed, planted) == run(lcm_sum, planted)
    assert run(packed, True)[0] != run(packed, False)[0]


def test_compute_P_refuses_equal_eigenvalues():
    table = MacdonaldTable(2)
    table._eps[(1, 1)] = table.eps1((2,))
    with pytest.raises(ExactDivisionError, match="equal D_n"):
        table.compute_P((2,))


# (call, expected): a regex for the ValueError the call raises (for the
# command line, for its usage error, exit code 2), or the value it returns
_INPUT_CHECKS = {
    "apply_D-rho": (lambda: apply_D(SymPoly.m((1,), 2, one), 3,
                                    CoeffField.generic()),
                    r"need 0 <= rho <= n"),
    "apply_E-m": (lambda: apply_E(SymPoly.m((1,), 2, one), -1,
                                  CoeffField.generic()),
                  r"need m >= 0"),
    "compute_P-parts": (lambda: md.compute_P((1, 1, 1), 2),
                        r"\(1, 1, 1\) does not fit in 2 variables"),
    "psi_prime-row": (lambda: psi_prime((2, 1), 4),
                      r"need 1 <= j <= l\(lam\)\+1"),
    "psi_dblprime-row": (lambda: psi_dblprime((2, 1), 3, 3),
                         r"need 1 <= j <= l\(lam\)$"),
    "psi_dblprime-parts": (lambda: psi_dblprime((1, 1, 1), 1, 2),
                           r"does not fit in 2 variables"),
    "pieri_failures-parts": (lambda: pieri_failures((1, 1, 1), 2),
                             r"partition does not fit"),
    "SymPoly-parts": (lambda: SymPoly(2, {(1, 1, 1): one}),
                      r"\(1, 1, 1\) needs more than 2 variables"),
    "SymPoly-add": (lambda: SymPoly.m((1,), 2) + SymPoly.m((1,), 3),
                    r"variable counts differ"),
    "sympoly_mul-n": (lambda: sympoly_mul(SymPoly.m((1,), 2),
                                          SymPoly.m((1,), 3)),
                      r"variable counts differ: 2 vs 3"),
    "restrict_derivative-n": (
        lambda: restrict_derivative(SymPoly.m((1,), 1), 0),
        r"need at least two variables"),
    "CycloNum-coefficients": (lambda: CycloNum(3, [1]),
                              r"need exactly phi\(N\)=2 coefficients"),
    "pad-zeros": (lambda: pt.pad((2, 0, 0), 1), (2,)),
    "pad-parts": (lambda: pt.pad((2, 0, 1), 2),
                  r"\(2, 0, 1\) has more than 2 parts"),
    "cli-generic-sigma": (
        lambda: cli.run(["current", "relation", "--k", "1", "--r", "2",
                         "--d", "2", "--field", "generic"]),
        r"--field generic needs --sigma"),
}


@pytest.mark.parametrize("case", sorted(_INPUT_CHECKS))
def test_public_input_checks(case, capsys):
    call, expected = _INPUT_CHECKS[case]
    if not isinstance(expected, str):
        assert call() == expected
        return
    with pytest.raises((ValueError, SystemExit)) as exc:
        call()
    if exc.type is SystemExit:
        assert exc.value.code == 2
        message = capsys.readouterr().err
    else:
        message = str(exc.value)
    assert re.search(expected, message, re.M), message


def test_specialize_P_examples(tables):
    p = ParameterSpec(1, 2)
    sp = specialize_P((1,), 2, p, tables(2))
    assert sp == SymPoly.m((1,), 2, UniRatFunc.one(1))
    sp = specialize_P((2,), 2, p, tables(2))
    u = unirat_u(1)
    assert sp.coeffs[(1, 1)] == -(u * u + 1) / u
    # (1,3), n=3, lam=(3,0,0): admissible, no pole
    specialize_P((3,), 3, ParameterSpec(1, 3), tables(3))


def test_cauchy_examples(tables):
    assert qpochhammer_ratio(0) == one
    assert qpochhammer_ratio(1) == (one - t) / (one - q)
    assert cauchy_row_check(2, 3, tables(2))
    assert cauchy_row_check(3, 4, tables(3))


def test_cauchy_sees_a_planted_coefficient():
    # the y^2 term reads P_(2), here with its m_11 coefficient doubled
    table = doubled_coefficient(MacdonaldTable(3), (2,), (1, 1))
    assert not cauchy_row_check(3, 3, table)


def test_equal_eigenvalue_guard():
    table = MacdonaldTable(2)
    plist, cols = table.component_matrix(2)
    assert plist == [(2,), (1, 1)]
    # eigenvalues must be distinct over Q(q,t) on the component
    assert table.eps1((2,)) != table.eps1((1, 1))


def test_every_qtpoly_built_stores_ints(monkeypatch, capsys):
    """QTPoly is Z[q, t], and the _clean=True paths skip the constructor's
    check: every QTPoly built while the macd commands and verify_theorem1
    run on a small grid must store only ints."""
    from wheelmac.cli import run
    from wheelmac.wheel_ideal import verify_theorem1

    built, bad = [0], []
    init = QTPoly.__init__

    def recorded(self, d=None, _clean=False):
        init(self, d, _clean)
        built[0] += 1
        if not all(type(v) is int for v in self.d.values()):
            bad.append(self.d)

    monkeypatch.setattr(QTPoly, "__init__", recorded)
    for argv in ("macd compute --n 3 --lambda 3,1", "macd pieri --n 3 --lambda 2,1",
                 "macd cauchy --n 2 --l-max 3",
                 "macd integrality --n 3 --lambda 2,2"):
        assert run(argv.split()) == 0, argv
    capsys.readouterr()
    checked = 0
    tables = {n: MacdonaldTable(n) for n in (2, 3)}
    for k, r in ((1, 2), (2, 2), (1, 3), (2, 3)):
        for n, table in tables.items():
            for d in range(9):
                got = verify_theorem1(k, r, n, d, table=table)
                assert got["dims_equal"] and got["inclusion_ok"], (k, r, n, d)
                checked += got["admissible_count"]
    assert checked == 139
    assert built[0] > 4000 and bad == []
