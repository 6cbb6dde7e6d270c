import os
import random
import subprocess
import sys
from fractions import Fraction
from math import comb

import pytest

import wheelmac
from wheelmac import linalg
from wheelmac import macdonald as md
from wheelmac import partitions as pt
from wheelmac import wheel_ideal
from wheelmac.linalg import EchelonBasis, rank_kernel_poly
from wheelmac.macdonald import (CoeffField, MacdonaldTable, cauchy_row_check,
                                check_integrality, compute_P, pieri_failures,
                                specialize_P)
from wheelmac.scalars import (CycloNum, ExactDivisionError, ParameterSpec,
                              PoleError, UniPoly, UniRatFunc)
from wheelmac.symfunc import SymPoly, wheel_substitute
from wheelmac.wheel_ideal import (_rotation_classes, _wheel_substitute_fld,
                                  basis_I, constraint_rows, dim_J,
                                  laurent_clear, satisfies_wheel,
                                  verify_rho_inclusion,
                                  verify_stability, verify_theorem1,
                                  wheel_kernel_basis, wheel_substitutions)

from oracles import (doubled_coefficient, eager_rank_kernel, euler_phi,
                     fraction_det, rational_value, specialized_field,
                     unirat_u)
from test_symfunc import _naive_collapse


def test_a_parameter_spec_for_another_k_r_is_refused():
    # with the spec of (1, 3), dim_J(1, 2, 3, 6) read 0 where the true
    # dimension and the admissible count are 1
    right, wrong = ParameterSpec(1, 2), ParameterSpec(1, 3)
    assert ParameterSpec.matching(right, 1, 2) is right
    assert dim_J(1, 2, 3, 6, right) == 1 == pt.count_admissible(1, 2, 3, 6)
    calls = [lambda: dim_J(1, 2, 3, 6, wrong),
             lambda: verify_theorem1(1, 2, 3, 6, wrong),
             lambda: list(constraint_rows(1, 2, 3, 6, wrong)),
             lambda: wheel_kernel_basis(1, 2, 3, 6, wrong),
             lambda: basis_I(1, 2, 3, 6, wrong),
             lambda: verify_rho_inclusion((4, 2), 1, 2, 3, 1, wrong)]
    for call in calls:
        with pytest.raises(ValueError,
                           match=r"k=1, r=3\) does not match \(k=1, r=2\)"):
            call()


def test_a_table_for_another_n_is_refused():
    # with MacdonaldTable(2), verify_theorem1(1, 2, 3, 6) reported the
    # admissible 4,2 as a witness failure, and specialize_P((3, 1), 3, ...)
    # returned 2 of the 3 terms of P_31
    p = ParameterSpec(1, 2)
    right, wrong = MacdonaldTable(3), MacdonaldTable(2)
    assert MacdonaldTable.matching(right, 3) is right
    assert MacdonaldTable.matching(None, 3).n == 3
    assert verify_theorem1(1, 2, 3, 6, p, table=right)["inclusion_ok"]
    calls = [lambda: compute_P((3, 1), 3, wrong),
             lambda: pieri_failures((3, 1), 3, wrong),
             lambda: check_integrality((3, 1), 3, wrong),
             lambda: specialize_P((3, 1), 3, p, wrong),
             lambda: cauchy_row_check(3, 2, wrong),
             lambda: basis_I(1, 2, 3, 6, p, wrong),
             lambda: verify_theorem1(1, 2, 3, 6, p, table=wrong),
             lambda: verify_rho_inclusion((4, 2), 1, 2, 3, 1, p, wrong)]
    for call in calls:
        with pytest.raises(ValueError,
                           match="table was built for n=2, not n=3"):
            call()


def test_wheel_substitutions_examples():
    assert wheel_substitutions(2, 2) == [(0, 0), (0, 1), (1, 1)]
    assert wheel_substitutions(1, 3) == [(0,), (1,), (2,)]
    assert wheel_substitutions(1, 2) == [(0,), (1,)]
    for k, r in [(1, 4), (2, 3), (3, 2), (3, 3)]:
        assert len(wheel_substitutions(k, r)) == comb(k + r - 1, k)


def test_cumulative_vs_increment_form():
    # sigma weakly increasing in [0, r-1] <=> increments s_1..s_{k+1} >= 0
    # with total r-1 (the last increment being r-1 - sigma_k)
    for k, r in [(1, 2), (2, 3), (3, 4)]:
        from_increments = set()
        for sigma in wheel_substitutions(k, r):
            inc = (sigma[0],) + tuple(sigma[i] - sigma[i - 1]
                                      for i in range(1, k)) \
                + (r - 1 - sigma[-1],)
            assert all(s >= 0 for s in inc) and sum(inc) == r - 1
            cumulative = tuple(sum(inc[: i + 1]) for i in range(k))
            from_increments.add(cumulative)
        assert from_increments == set(wheel_substitutions(k, r))


def _per_term(f, sigma, fld):
    """The naive per-term collapse on the ratios t^i q^(sigma_i)."""
    return _naive_collapse(f, [fld.t ** i * fld.q ** s
                               for i, s in enumerate(sigma, 1)])


def test_substitution_entry_points_agree():
    # symfunc.wheel_substitute on a fresh field each time reads its tables
    # anew, the CoeffField variant on the shared fld keeps them; over K
    # both must give the per-term collapse
    rng = random.Random(31)
    for k, r in [(1, 2), (1, 3), (2, 2), (2, 3)]:
        p = ParameterSpec(k, r)
        fld = specialized_field(p)
        u = unirat_u(p.N)
        for sigma in wheel_substitutions(k, r):
            for _ in range(3):
                n = rng.randint(k + 1, k + 2)
                coeffs = {}
                for _ in range(rng.randint(1, 4)):
                    plist = pt.enumerate_partitions(n, rng.randint(0, 4))
                    coeffs[rng.choice(plist)] = \
                        u ** rng.randint(0, 3) * rng.randint(-5, 5)
                f = SymPoly(n, coeffs)
                want = _per_term(f, sigma, fld)
                got = wheel_substitute(f, sigma, specialized_field(p))
                assert got == want, (k, r, sigma, f)
                assert _wheel_substitute_fld(f, sigma, fld) == want, \
                    (k, r, sigma, f)


def test_substitution_entry_points_agree_on_fractions():
    # coefficients with denominators that are not powers of u, and r = 4,
    # where N = 3 and the coefficients are genuine cyclotomic numbers
    rng = random.Random(37)
    for k, r in [(1, 2), (2, 3), (1, 4), (2, 4)]:
        p = ParameterSpec(k, r)
        fld = specialized_field(p)
        u = unirat_u(p.N)
        dens = [u + 1, u * u + 3, u ** 3 - 2 * u + 5]
        for sigma in wheel_substitutions(k, r):
            for _ in range(3):
                n = rng.randint(k + 1, k + 2)
                coeffs = {}
                for _ in range(rng.randint(1, 4)):
                    plist = pt.enumerate_partitions(n, rng.randint(0, 4))
                    c = u ** rng.randint(-2, 3) * rng.randint(-5, 5) \
                        * CycloNum.zeta(p.N, rng.randint(0, 2)) \
                        / rng.choice(dens)
                    coeffs[rng.choice(plist)] = c
                f = SymPoly(n, coeffs)
                want = _per_term(f, sigma, fld)
                got = wheel_substitute(f, sigma, specialized_field(p))
                assert got == want, (k, r, sigma, f)
                assert _wheel_substitute_fld(f, sigma, fld) == want, \
                    (k, r, sigma, f)


def test_wheel_substitute_of_a_monomial_needs_no_gcd(monkeypatch):
    # each m_lam collapses over Laurent monomials and is converted once
    calls = []
    gcd = UniPoly.gcd

    def counting_gcd(a, b):
        calls.append(1)
        return gcd(a, b)

    monkeypatch.setattr(UniPoly, "gcd", counting_gcd)
    for k, r in [(1, 2), (2, 3), (1, 4)]:
        K = specialized_field(ParameterSpec(k, r))
        for n in (k + 1, k + 2):
            for lam in pt.enumerate_partitions(n, 5):
                for sigma in wheel_substitutions(k, r):
                    wheel_substitute(SymPoly.m(lam, n, K.one), sigma, K)
    assert not calls


def test_unknown_mode_is_rejected():
    # the exact dim_J is the only one verify_theorem1 runs
    for mode in ("probe", "prob", "Exact"):
        with pytest.raises(ValueError,
                           match="mode must be one of 'exact', got"):
            verify_theorem1(1, 2, 3, 2, mode=mode)


def test_satisfies_wheel_examples():
    p = ParameterSpec(1, 2)
    one = UniRatFunc.one(1)
    u = unirat_u(1)
    assert satisfies_wheel(SymPoly.zero(2), p)
    f = SymPoly(2, {(2,): u, (1, 1): -(one + u * u)})
    assert satisfies_wheel(f, p)
    assert not satisfies_wheel(SymPoly.m((2,), 2, one), p)


def test_satisfies_wheel_ignores_a_nonzero_scalar(tables):
    # the default route clears denominators first; dividing by 1 + u must
    # not move a specialized P_lam in or out of the ideal
    verdicts = set()
    for k, r, n in [(1, 2, 2), (1, 3, 3)]:
        p = ParameterSpec(k, r)
        scale = UniRatFunc.one(p.N) / (unirat_u(p.N) + 1)
        for d in range(1, 5):
            for lam in pt.enumerate_partitions(n, d):
                try:
                    f = specialize_P(lam, n, p, tables(n))
                except PoleError:
                    continue
                verdict = satisfies_wheel(f, p)
                assert satisfies_wheel(f.scale(scale), p) == verdict, lam
                if pt.is_admissible(lam, k, r, n):
                    assert verdict, lam
                verdicts.add(verdict)
    assert verdicts == {True, False}
    with pytest.raises(ValueError):
        satisfies_wheel(SymPoly.zero(1), ParameterSpec(1, 2))


def test_dim_J_examples():
    # n <= k: no constraints at all
    assert dim_J(2, 3, 2, 4) == len(pt.enumerate_partitions(2, 4))
    assert dim_J(1, 2, 2, 2) == 1
    assert dim_J(1, 2, 2, 1) == 0
    # ... and no wheel to build rows from: constraint_rows refuses such a
    # component
    with pytest.raises(ValueError, match=r"k\+1=2 variables"):
        list(constraint_rows(1, 2, 1, 2, ParameterSpec(1, 2)))


def _reference_rows(k, r, n, d, p):
    """{(sigma, free monomial): row} for every sigma, by the wheel
    substituted into each m_lam over its whole n-variable orbit, over K:
    one row per free monomial, so each distinct row once per permutation
    of the free exponents."""
    plist = pt.enumerate_partitions(n, d)
    K = specialized_field(p)
    one = K.one
    rows = {}
    for sigma in wheel_substitutions(k, r):
        for i, lam in enumerate(plist):
            image = wheel_substitute(SymPoly.m(lam, n, one), sigma, K)
            for mono, c in image.terms.items():
                rows.setdefault((sigma, mono), [one - one] * len(plist))[i] = c
    return rows


# (k, r) -> largest n of the constraint-row reference grid (d <= 6)
_REFERENCE_GRID = {(1, 2): 5, (2, 2): 5, (3, 2): 5, (1, 3): 5, (2, 3): 5,
                   (1, 4): 4, (2, 4): 4}


def test_constraint_rows_match_the_per_monomial_substitution():
    # the row of (sigma, (dd,) + nu) is the reference row of every
    # permutation of the free exponents nu, and nothing else is yielded;
    # the degree-0 relation is 1 for every sigma, so each sigma's degree-0
    # reference row is the first sigma's row
    for (k, r), n_max in _REFERENCE_GRID.items():
        p = ParameterSpec(k, r)
        first = wheel_substitutions(k, r)[0]
        for n in range(k + 1, n_max + 1):
            for d in range(7):
                ref = _reference_rows(k, r, n, d, p)
                got = dict(constraint_rows(k, r, n, d, p))
                for (sigma, mono), row in ref.items():
                    free = tuple(sorted(mono[1:], reverse=True))
                    label = sigma if mono[0] else first
                    assert got[(label, mono[:1] + free)] == row, \
                        (k, r, n, d, sigma, mono)
                distinct = {(sigma if mono[0] else first, mono[0],
                             *sorted(mono[1:])) for sigma, mono in ref}
                assert len(got) == len(distinct), (k, r, n, d)


def test_constraint_rows_yield_each_row_once():
    # one row per filler, not one per permuted free monomial: no sigma
    # repeats a row or a provenance.  Nor do the class representatives
    # that the ranks use repeat a row between them, so the degree-0 rows
    # (the relation 1 times a filler) come once, not once per sigma; the
    # rotation copies of a sigma may (a relation c^dd times its
    # representative's, with c^dd = 1)
    checked = 0
    for (k, r), n_max in _REFERENCE_GRID.items():
        p = ParameterSpec(k, r)
        for n in range(k + 1, n_max + 1):
            for d in range(7):
                seen = {}
                for (sigma, key), row in constraint_rows(k, r, n, d, p):
                    seen.setdefault(sigma, []).append((key, tuple(row)))
                for sigma, items in seen.items():
                    keys = [key for key, _ in items]
                    rows = [row for _, row in items]
                    assert len(set(keys)) == len(keys), (k, r, n, d, sigma)
                    assert len(set(rows)) == len(rows), (k, r, n, d, sigma)
                    checked += len(rows)
                reps = [tuple(row) for _, row in constraint_rows(
                    k, r, n, d, p, sigmas=_rotation_classes(k, r))]
                assert len(set(reps)) == len(reps), (k, r, n, d)
    assert checked


def test_dim_J_oracle_small():
    # independent oracle for (1,2,2,2): solve the single constraint
    # a(1 + t^2) + b t = 0 on a m_(2) + b m_(11) by hand
    p = ParameterSpec(1, 2)
    one = UniRatFunc.one(1)
    u = unirat_u(1)
    coeff_m2 = one + u * u   # m_(2)(x, tx) / x^2
    coeff_m11 = u            # m_(11)(x, tx) / x^2
    kernel = SymPoly(2, {(2,): coeff_m11, (1, 1): -coeff_m2})
    assert satisfies_wheel(kernel, p)
    assert dim_J(1, 2, 2, 2, p) == 1


def test_dim_J_row_order_and_rotation_dedup_invariance():
    # the sigma family is closed under wheel rotation; dropping rotation
    # copies or reordering rows must not change the kernel
    k, r, n, d = 2, 3, 3, 4
    p = ParameterSpec(k, r)
    plist = pt.enumerate_partitions(n, d)
    rows = [row for _, row in constraint_rows(k, r, n, d, p)]
    one = UniRatFunc.one(p.N)
    dim_all = len(plist) - _field_rank(rows, len(plist))
    dim_rev = len(plist) - _field_rank(list(reversed(rows)), len(plist))
    assert dim_all == dim_rev == dim_J(k, r, n, d, p)
    reps = _rotation_representatives(k, r)
    assert len(reps) < len(wheel_substitutions(k, r))
    rows_dedup = [row for key, row in constraint_rows(k, r, n, d, p)
                  if key[0] in reps]
    assert len(plist) - _field_rank(rows_dedup, len(plist)) == dim_all


def _field_rank(rows, ncols):
    ech = EchelonBasis(ncols)
    for row in rows:
        ech.add(row)
    return ech.rank


def test_echelon_basis_spans_the_rows_it_was_fed():
    # EchelonBasis keeps echelon rows, not reduced ones: reducing in
    # insertion order must still clear every pivot, so each rejected row
    # and each combination of the fed rows reduces to zero, and the kept
    # rows are independent on their pivot columns
    rng = random.Random(39)
    for _ in range(60):
        ncols = rng.randint(1, 6)
        rows = [[Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                 for _ in range(ncols)] for _ in range(rng.randint(1, ncols))]
        for _ in range(rng.randint(1, 4)):
            weights = [rng.randint(-2, 2) for _ in rows]
            rows.insert(rng.randint(0, len(rows)),
                        [sum(w * row[j] for w, row in zip(weights, rows))
                         for j in range(ncols)])
        ech = EchelonBasis(ncols)
        kept, rejected = [], []
        for row in rows:
            (kept if ech.add(row) else rejected).append(row)
        assert ech.rank == len(kept)
        weights = [rng.randint(-3, 3) for _ in rows]
        combo = [sum(w * row[j] for w, row in zip(weights, rows))
                 for j in range(ncols)]
        for row in rejected + [combo]:
            assert not any(ech.reduce(row)), row
        cols = sorted(ech.pivots)
        assert fraction_det([[row[c] for c in cols] for row in kept]) != 0


def _rotation_class(k, r, sigma):
    """The least rotation of the increment cycle of sigma."""
    inc = (sigma[0],) + tuple(sigma[i] - sigma[i - 1] for i in range(1, k)) \
        + (r - 1 - sigma[-1],)
    return min(inc[i:] + inc[:i] for i in range(k + 1))


def _rotation_representatives(k, r):
    """One cumulative sequence per rotation class of the increment cycle."""
    reps = set()
    chosen = set()
    for sigma in wheel_substitutions(k, r):
        cyc = _rotation_class(k, r, sigma)
        if cyc not in chosen:
            chosen.add(cyc)
            reps.add(sigma)
    return reps


def test_rotation_classes_match_the_oracle():
    for k in range(1, 4):
        for r in range(2, 6):
            reps = _rotation_representatives(k, r)
            assert _rotation_classes(k, r) == \
                [s for s in wheel_substitutions(k, r) if s in reps], (k, r)


def _every_sigma(f, p):
    """The wheel condition checked on every sigma, not one per class."""
    fld = CoeffField.laurent(p)
    g = laurent_clear(f, p)
    return all(_wheel_substitute_fld(g, sigma, fld).is_zero()
               for sigma in wheel_substitutions(p.k, p.r))


def _planted(k, r, n, d, p, rep):
    """An f on (n, d) in the kernel of the rows of every class but rep's
    that does not vanish on the wheel rep."""
    plist = pt.enumerate_partitions(n, d)
    cls = _rotation_class(k, r, rep)
    rows = [row for key, row in constraint_rows(k, r, n, d, p)
            if _rotation_class(k, r, key[0]) != cls]
    fld = CoeffField.laurent(p)
    _, vecs = rank_kernel_poly(rows, len(plist), p.N)
    for vec in vecs:
        f = SymPoly(n, {lam: UniRatFunc(x, _canonical=True)
                        for lam, x in zip(plist, vec)})
        if not _wheel_substitute_fld(laurent_clear(f, p), rep,
                                     fld).is_zero():
            return f
    raise AssertionError("no planted f on %r" % ((k, r, n, d, rep),))


# (k, r) -> components with kernel elements, and one on which every rotation
# class cuts out more than the others together
_ROTATION_GRID = {
    (1, 3): ([(2, 5), (3, 9)], (2, 4)),
    (2, 3): ([(3, 5), (4, 7)], (3, 3)),
    (1, 4): ([(2, 6), (2, 8)], (2, 4)),
    (2, 4): ([(3, 5)], (3, 6)),
    (3, 3): ([(4, 5), (5, 7)], (4, 4)),
}


def test_one_wheel_per_rotation_class_gives_the_same_verdict():
    rng = random.Random(53)
    for (k, r), (comps, planted_at) in _ROTATION_GRID.items():
        p = ParameterSpec(k, r)
        cases = []
        for n, d in comps:
            basis = wheel_kernel_basis(k, r, n, d, p)
            assert basis
            plist = pt.enumerate_partitions(n, d)
            for _ in range(3):
                f = SymPoly.zero(n)
                for g in basis:
                    f = f + g.scale(UniRatFunc.const(p.N, rng.randint(-4, 4)))
                cases.append((f, True))
                bump = SymPoly.m(rng.choice(plist), n, UniRatFunc.one(p.N))
                cases.append((f + bump.scale(rng.choice([1, -2, 3])), None))
        # vanishes on every class but one: a check that drops it says True
        for rep in sorted(_rotation_representatives(k, r)):
            cases.append((_planted(k, r, *planted_at, p, rep), False))
        for f, expected in cases:
            verdict = satisfies_wheel(f, p)
            assert verdict == _every_sigma(f, p), (k, r, f)
            assert expected is None or verdict == expected, (k, r, f)
        assert not all(satisfies_wheel(f, p) for f, _ in cases)


def test_satisfies_wheel_substitutes_once_per_class(monkeypatch):
    calls = []
    inner = wheel_ideal._wheel_substitute_fld

    def counting(f, sigma, fld):
        calls.append(sigma)
        return inner(f, sigma, fld)

    monkeypatch.setattr(wheel_ideal, "_wheel_substitute_fld", counting)
    for (k, r), (comps, _) in _ROTATION_GRID.items():
        p = ParameterSpec(k, r)
        n, d = comps[0]
        member = wheel_kernel_basis(k, r, n, d, p)[0]
        del calls[:]
        assert satisfies_wheel(member, p)
        assert sorted(calls) == sorted(_rotation_representatives(k, r))


# (k, r) of the rotation-class rank grid; components n <= 4, d <= 7
_RANK_KR = [(1, 2), (2, 2), (1, 3), (2, 3), (1, 4)]


def _rank_components(k):
    return [(n, d) for n in range(k + 1, 5) for d in range(8)]


def _every_sigma_ranks(k, r, n, d, p):
    """Exact dim and kernel basis from the rows of every sigma
    (constraint_rows with sigmas=None), ranked here."""
    plist = pt.enumerate_partitions(n, d)
    rows = [row for _, row in constraint_rows(k, r, n, d, p)]
    rank, vecs = rank_kernel_poly(rows, len(plist), p.N)
    basis = [SymPoly(n, {lam: UniRatFunc(x, _canonical=True)
                         for lam, x in zip(plist, vec)}) for vec in vecs]
    return len(plist) - rank, basis


def test_ranks_over_rotation_classes_match_every_sigma():
    for k, r in _RANK_KR:
        p = ParameterSpec(k, r)
        for n, d in _rank_components(k):
            exact, basis = _every_sigma_ranks(k, r, n, d, p)
            assert dim_J(k, r, n, d, p) == exact, (k, r, n, d)
            assert wheel_kernel_basis(k, r, n, d, p) == basis, (k, r, n, d)


def test_a_class_list_missing_a_class_changes_dim_J(monkeypatch):
    # the equivalence above has teeth: ranking all classes but the last
    # loses rows that no other class spans
    reference = {(k, r, n, d): _every_sigma_ranks(k, r, n, d,
                                                  ParameterSpec(k, r))[0]
                 for k, r in [(1, 3), (2, 3)] for n, d in _rank_components(k)}
    inner = wheel_ideal._rotation_classes
    monkeypatch.setattr(wheel_ideal, "_rotation_classes",
                        lambda k, r: inner(k, r)[:-1])
    differ = [key for key, dim in reference.items()
              if dim_J(*key, ParameterSpec(*key[:2])) != dim]
    assert differ
    assert dim_J(1, 3, 2, 4) != reference[(1, 3, 2, 4)]


def test_ranks_substitute_one_sigma_per_class(monkeypatch):
    # every rank reads its wheel rows through the one relation reader
    calls = []
    inner = wheel_ideal.relation_generic

    def counting(d, sigma, k, r, p=None):
        calls.append(tuple(sigma))
        return inner(d, sigma, k, r, p)

    monkeypatch.setattr(wheel_ideal, "relation_generic", counting)
    for k, r in _RANK_KR:
        p = ParameterSpec(k, r)
        n, d = k + 2, 4
        for rank in (lambda: dim_J(k, r, n, d, p),
                     lambda: wheel_kernel_basis(k, r, n, d, p)):
            del calls[:]
            rank()
            assert set(calls) == set(_rotation_classes(k, r)), (k, r)


def test_satisfies_wheel_needs_the_resonance():
    # at (k, r) = (1, 3) the field has t^3 q^2 = u, not 1
    f = SymPoly.zero(3)
    with pytest.raises(ValueError, match="t\\^3 q\\^2"):
        satisfies_wheel(f, ParameterSpec(2, 3),
                        CoeffField.laurent(ParameterSpec(1, 3)))


_RESONANCE_UNDER_O = """
from wheelmac.macdonald import CoeffField
from wheelmac.scalars import ParameterSpec
from wheelmac.symfunc import SymPoly
from wheelmac.wheel_ideal import satisfies_wheel
try:
    satisfies_wheel(SymPoly.zero(3), ParameterSpec(2, 3),
                    CoeffField.laurent(ParameterSpec(1, 3)))
except ValueError:
    raise SystemExit(0)
raise SystemExit(1)
"""


def _run_under_O(code):
    src = os.path.dirname(os.path.dirname(os.path.abspath(wheelmac.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-O", "-c", code],
                          env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr


def test_resonance_guard_survives_python_O():
    _run_under_O(_RESONANCE_UNDER_O)


# row 1 times 1 + u is row 2, so the rank is 1; shifting the numerator of
# 1/(1 + u) as if 1 + u were a power of u would give [u, 1] and rank 2
_UPOWER_ROWS = """
from wheelmac.linalg import rank_kernel_poly
from wheelmac.scalars import ExactDivisionError, UniRatFunc
one, u = UniRatFunc.one(1), UniRatFunc.from_laurent(1, {1: 1})
try:
    rank_kernel_poly([[one, one / (one + u)], [one + u, one]], 2, 1)
except ExactDivisionError:
    raise SystemExit(0)
raise SystemExit(1)
"""


def test_a_denominator_that_is_no_u_power_is_refused():
    # rank_kernel_poly clears each row by one u-shift; a planted 1 + u
    # denominator, read before full rank, raises instead of giving a wrong
    # rank, also under -O
    one, u = UniRatFunc.one(1), unirat_u(1)
    assert rank_kernel_poly([[one, one / (u * u)], [u, one / u]], 2,
                            1)[0] == 1
    with pytest.raises(ExactDivisionError, match="not a power of u"):
        rank_kernel_poly([[one, one / (one + u)], [one + u, one]], 2, 1)
    _run_under_O(_UPOWER_ROWS)


# the rows reach full rank at the second, so none is cleared; the 1 + u
# denominator of the first is refused as it is read, not shifted away
_READ_ROW_UNDER_O = """
from wheelmac.linalg import rank_kernel_poly
from wheelmac.scalars import ExactDivisionError, UniRatFunc
one, u = UniRatFunc.one(1), UniRatFunc.from_laurent(1, {1: 1})
try:
    rank_kernel_poly([[one, one / (one + u)], [one - one, one]], 2, 1)
except ExactDivisionError:
    raise SystemExit(0)
raise SystemExit(1)
"""


def test_a_row_read_before_the_exit_has_its_denominators_checked():
    one, u = UniRatFunc.one(1), unirat_u(1)
    assert rank_kernel_poly([[one, one / (u * u)], [one - one, one]], 2,
                            1) == (2, [])
    with pytest.raises(ExactDivisionError, match="not a power of u"):
        rank_kernel_poly([[one, one / (one + u)], [one - one, one]], 2, 1)
    _run_under_O(_READ_ROW_UNDER_O)


def test_r2_wheel_reduces_to_single_locus():
    # for r = 2 every substitution cuts out the same locus as sigma = 0
    for k, n, d in [(1, 2, 3), (1, 3, 4), (2, 3, 4)]:
        p = ParameterSpec(k, 2)
        plist = pt.enumerate_partitions(n, d)
        rows0 = [row for key, row in constraint_rows(k, 2, n, d, p)
                 if key[0] == (0,) * k]
        dim0 = len(plist) - _field_rank(rows0, len(plist))
        assert dim0 == dim_J(k, 2, n, d, p)


def test_kernel_basis_is_homogeneous_and_in_J():
    p = ParameterSpec(1, 3)
    for d in (3, 4, 5):
        for f in wheel_kernel_basis(1, 3, 3, d, p):
            assert satisfies_wheel(f, p)
            assert {pt.size(lam) for lam in f.coeffs} == {d}


def _random_rank_deficient(rng, N, nrows, ncols, rank):
    """nrows UniPoly rows, each a combination of `rank` random rows."""
    phi = euler_phi(N)

    def poly(deg):
        return UniPoly(N, [CycloNum(N, [Fraction(rng.randint(-3, 3))
                                        for _ in range(phi)])
                           for _ in range(deg + 1)])

    base = [[poly(rng.randint(0, 2)) if rng.random() < 0.7
             else UniPoly.zero(N) for _ in range(ncols)] for _ in range(rank)]
    rows = []
    for _ in range(nrows):
        mult = [poly(rng.randint(0, 1)) for _ in range(rank)]
        rows.append([sum((m * b[j] for m, b in zip(mult, base)),
                         UniPoly.zero(N)) for j in range(ncols)])
    return rows


def _strip_entry_by_entry(row):
    """The reference row gcd: one gcd per entry, or the entry itself when
    it is the only one."""
    nz = [x for x in row if x]
    g = nz[0] if nz else None
    for x in nz[1:]:
        g = g.gcd(x)[0]
    if g is None or (g.degree() == 0 and not g.trailing_order()):
        return row
    return [x.divexact(g) if x else x for x in row]


def test_strip_row_gcd_matches_entry_by_entry():
    rng = random.Random(59)
    for N in (1, 2, 3):
        u, one, zero = UniPoly.u_power(N, 1), UniPoly.one(N), UniPoly.zero(N)
        h = u * u + UniPoly.const(N, 3)
        # h divides every entry and is their gcd
        planted = [h * (u - one), zero, h * (u + one), -h]
        rows = [planted, [zero, h], [zero, zero], [one, u], [u * h, u * u]]
        for _ in range(30):
            common = _random_rank_deficient(rng, N, 1, 1, 1)[0][0] or one
            rows.append([common * x for x in
                         _random_rank_deficient(rng, N, 1, 5, 1)[0]])
        for row in rows:
            assert linalg._strip_row_gcd(row) == _strip_entry_by_entry(row), \
                (N, row)


def _rational_kernel_from_triangular(tri, ncols, N):
    """Back-substitution over UniRatFunc, cleared by the lcm of the
    denominators and stripped of the row gcd: the reference normalization."""
    one = UniRatFunc.one(N)
    zero = one - one
    pivset = {c for c, _ in tri}
    basis = []
    for fc in (c for c in range(ncols) if c not in pivset):
        vec = [zero] * ncols
        vec[fc] = one
        for col, row in reversed(tri):
            acc = zero
            for j in range(col + 1, ncols):
                if row[j] and vec[j]:
                    acc = acc + UniRatFunc(row[j], _canonical=True) * vec[j]
            if acc:
                vec[col] = -acc / UniRatFunc(row[col], _canonical=True)
        basis.append(linalg._strip_row_gcd(
            linalg._clear_denominators(vec, N)))
    return basis


def _ratfunc_rows(rows):
    """UniPoly rows as the UniRatFunc rows rank_kernel_poly reads."""
    return [[UniRatFunc(x, _canonical=True) for x in row] for row in rows]


def test_rank_kernel_poly_vectors_are_primitive_with_a_monic_free_entry():
    rng = random.Random(53)
    for N in (1, 2, 3, 4):
        for _ in range(6):
            ncols = rng.randint(3, 6)
            rows = _random_rank_deficient(rng, N, rng.randint(2, 7), ncols,
                                          rng.randint(1, ncols - 1))
            ech = EchelonBasis(ncols)
            for row in rows:
                ech.add([UniRatFunc(x, _canonical=True) for x in row])
            rank, kernel = rank_kernel_poly(_ratfunc_rows(rows), ncols, N)
            assert rank == ech.rank and len(kernel) == ncols - rank
            free = set()
            for vec in kernel:
                for row in rows:
                    assert sum((a * b for a, b in zip(row, vec)),
                               UniPoly.zero(N)).is_zero()
                g = UniPoly.zero(N)
                for x in vec:
                    g = g.gcd(x)[0]
                assert g.is_one(), vec
                # the free coordinate is the last nonzero entry
                fc = max(j for j, x in enumerate(vec) if x)
                assert vec[fc].leading() == 1
                free.add(fc)
            assert len(free) == len(kernel)
            tri = linalg._triangularize_poly(rows, ncols)
            assert linalg._poly_kernel_from_triangular(tri, ncols, N) == \
                _rational_kernel_from_triangular(tri, ncols, N)
    # no nonzero row: rank 0 and the unit vectors, none when ncols is 0
    for N in (1, 3):
        one, zero = UniPoly.one(N), UniPoly.zero(N)
        units = [[one if j == c else zero for j in range(3)] for c in range(3)]
        assert rank_kernel_poly([], 3, N) == (0, units)
        assert rank_kernel_poly(_ratfunc_rows([[zero] * 3] * 2), 3, N) \
            == (0, units)
        assert rank_kernel_poly([], 0, N) == (0, [])


def test_wheel_kernel_basis_matches_the_rational_back_substitution(
        monkeypatch):
    # the kernel vectors are a library result (and the stability
    # benchmark's input): the fraction-free route must give the same ones
    cases = [(1, 2, 3, 4), (2, 3, 4, 6), (1, 4, 3, 5), (1, 2, 3, 8),
             (2, 3, 4, 8), (1, 4, 2, 6), (1, 5, 2, 8)]  # N = 1, 2, 3, 4
    got = [wheel_kernel_basis(*case) for case in cases]
    assert sum(map(len, got)) == 10
    monkeypatch.setattr(linalg, "_poly_kernel_from_triangular",
                        _rational_kernel_from_triangular)
    assert got == [wheel_kernel_basis(*case) for case in cases]


# (k, r) of the theorem grid -> its largest n (d <= 8)
_THEOREM_GRID = {(1, 2): 5, (2, 2): 5, (1, 3): 4, (2, 3): 4}


def _zero_J_components():
    """(k, r, n, d) of the theorem grid with n > k and no admissible
    partition: J = 0 there, so the wheel rows have full column rank."""
    return [(k, r, n, d) for (k, r), n_max in _THEOREM_GRID.items()
            for n in range(k + 1, n_max + 1) for d in range(9)
            if not pt.count_admissible(k, r, n, d)]


def _class_rows(k, r, n, d, p):
    """The rows dim_J ranks: one sigma per rotation class."""
    return [row for _, row in constraint_rows(
        k, r, n, d, p, sigmas=_rotation_classes(k, r))]


def _value(x, u0):
    """The UniRatFunc x over Q at the rational u0, as a Fraction."""
    return rational_value(x.num, u0) / rational_value(x.den, u0)


def _count_elimination(monkeypatch):
    """What rank_kernel_poly's phases see: whether each EchelonBasis.add
    grew the rank, the rows of each triangularization and each kernel."""
    seen = {"add": [], "tri": [], "kernel": []}
    add, tri = linalg.EchelonBasis.add, linalg._triangularize_poly
    back = linalg._poly_kernel_from_triangular

    def counted_add(self, row):
        seen["add"].append(add(self, row))
        return seen["add"][-1]

    def counted_tri(rows, ncols):
        seen["tri"].append([tuple(row) for row in rows])
        return tri(rows, ncols)

    def counted_back(rows, ncols, N):
        seen["kernel"].append(back(rows, ncols, N))
        return seen["kernel"][-1]

    monkeypatch.setattr(linalg.EchelonBasis, "add", counted_add)
    monkeypatch.setattr(linalg, "_triangularize_poly", counted_tri)
    monkeypatch.setattr(linalg, "_poly_kernel_from_triangular", counted_back)
    return seen


def test_full_rank_ends_at_a_nonzero_minor(monkeypatch):
    # where J = 0 the rows taken at the probe point reach rank ncols, and
    # they have a nonzero ncols-minor there (a Fraction determinant, no
    # library arithmetic): that proves the rank, and no exact elimination
    # runs.  On some component the exit leaves rows unevaluated
    seen = _count_elimination(monkeypatch)
    components = _zero_J_components()
    assert len(components) == 70
    short = []
    for k, r, n, d in components:
        p = ParameterSpec(k, r)
        ncols = len(pt.enumerate_partitions(n, d))
        rows = _class_rows(k, r, n, d, p)
        distinct = list(dict.fromkeys(tuple(row) for row in rows if any(row)))
        del seen["add"][:]
        assert rank_kernel_poly(rows, ncols, p.N) == (ncols, []), (k, r, n, d)
        grew = seen["add"]
        assert sum(grew) == ncols and grew[-1], (k, r, n, d)
        chosen = [row for row, g in zip(distinct, grew) if g]
        minor = [[_value(x, linalg._PROBE_POINT) for x in row]
                 for row in chosen]
        assert fraction_det(minor) != 0, (k, r, n, d)
        if len(grew) < len(distinct):
            short.append((k, r, n, d))
    assert not seen["tri"] and not seen["kernel"]
    assert short


# (k, r, n, d_max) of the stability benchmark's kernel bases
_STABILITY_TUPLES = [(2, 2, 3, 8), (2, 3, 3, 6), (2, 2, 4, 6)]


def test_lazy_ranks_match_the_eager_reference():
    # rows read as they are built, entries read once at u0, against every
    # row cleared and deduplicated before any is read: the same rank and
    # kernel, so the same dim_J and wheel_kernel_basis
    comps = {(k, r, n, d) for (k, r), n_max in _THEOREM_GRID.items()
             for n in range(k + 1, n_max + 1) for d in range(9)}
    stability = {(k, r, n, d) for k, r, n, d_max in _STABILITY_TUPLES
                 for d in range(d_max + 1)}
    for k, r, n, d in sorted(comps | stability):
        p = ParameterSpec(k, r)
        plist = pt.enumerate_partitions(n, d)
        rows = _class_rows(k, r, n, d, p)
        rank, kernel = eager_rank_kernel(rows, len(plist), p.N)
        assert rank_kernel_poly(iter(rows), len(plist), p.N) \
            == (rank, kernel), (k, r, n, d)
        assert dim_J(k, r, n, d, p) == len(kernel), (k, r, n, d)
        if (k, r, n, d) in stability:
            assert wheel_kernel_basis(k, r, n, d, p) == [
                SymPoly(n, {lam: UniRatFunc(x, _canonical=True)
                            for lam, x in zip(plist, vec) if x})
                for vec in kernel], (k, r, n, d)


def test_full_rank_leaves_the_rest_of_the_rows_unbuilt(monkeypatch):
    # where J = 0 no row is cleared, and dim_J stops drawing rows from
    # constraint_rows at the exit: on some component before the last
    def refuse(row, N):
        raise AssertionError("a row was cleared at full rank")

    drawn, inner = [], wheel_ideal.constraint_rows

    def counting(*args, **kwargs):
        for item in inner(*args, **kwargs):
            drawn.append(item)
            yield item

    monkeypatch.setattr(linalg, "_clear_upower_row", refuse)
    monkeypatch.setattr(wheel_ideal, "constraint_rows", counting)
    short = []
    for k, r, n, d in _zero_J_components():
        p = ParameterSpec(k, r)
        del drawn[:]
        assert dim_J(k, r, n, d, p) == 0, (k, r, n, d)
        held = len(list(inner(k, r, n, d, p,
                              sigmas=_rotation_classes(k, r))))
        assert len(drawn) <= held
        if len(drawn) < held:
            short.append((k, r, n, d))
    assert short


def test_a_row_that_vanishes_at_the_probe_point_takes_the_exact_path(
        monkeypatch):
    # e_c (u - u0) completes a one-dimensional kernel to full rank over
    # Q[u] but is zero at u0, so the numeric rank stops at ncols - 1 and
    # the exit must not fire: the certificate finds the row, and the
    # second round proves the kernel empty
    k, r, n, d = 1, 2, 3, 6
    p = ParameterSpec(k, r)
    ncols = len(pt.enumerate_partitions(n, d))
    rows = _class_rows(k, r, n, d, p)
    rank, kernel = rank_kernel_poly(rows, ncols, p.N)
    assert (rank, len(kernel)) == (ncols - 1, 1)
    col = next(c for c, x in enumerate(kernel[0]) if x)
    offender = [UniPoly.zero(p.N)] * ncols
    offender[col] = UniPoly(p.N, [-linalg._PROBE_POINT, 1])
    seen = _count_elimination(monkeypatch)
    assert rank_kernel_poly(rows + _ratfunc_rows([offender]), ncols, p.N) \
        == (ncols, [])
    assert sum(seen["add"]) == ncols - 1
    assert seen["kernel"] == [kernel, []]
    first, second = seen["tri"]
    assert second == first + [tuple(offender)]


# J = 0 on the grid without the exact elimination, under -O
_FULL_RANK_UNDER_O = """
from wheelmac import linalg, partitions as pt
from wheelmac.wheel_ideal import dim_J

def refuse(rows, ncols):
    raise SystemExit("the exact elimination ran at full rank")

linalg._triangularize_poly = refuse
for k, r, n_max in [(1, 2, 5), (2, 2, 5), (1, 3, 4), (2, 3, 4)]:
    for n in range(k + 1, n_max + 1):
        for d in range(9):
            if not pt.count_admissible(k, r, n, d) and dim_J(k, r, n, d):
                raise SystemExit("dim_J(%d, %d, %d, %d) != 0" % (k, r, n, d))
"""


def test_a_row_after_the_full_rank_exit_is_never_read():
    # the rows of (1, 2, 3, 3) fill all three columns; a fourth row with a
    # 1 + u denominator cannot change the rank, and it is not read
    k, r, n, d = 1, 2, 3, 3
    p = ParameterSpec(k, r)
    one, u = UniRatFunc.one(1), unirat_u(1)
    rows = [row for _, row in constraint_rows(
        k, r, n, d, p, sigmas=_rotation_classes(k, r))]
    assert len(pt.enumerate_partitions(n, d)) == 3
    assert rank_kernel_poly(rows, 3, p.N) == (3, [])
    assert rank_kernel_poly(
        rows + [[one / (one + u), one - one, one - one]], 3, p.N) == (3, [])
    _run_under_O(_FULL_RANK_UNDER_O)


def test_basis_I_examples(tables):
    p = ParameterSpec(1, 2)
    out = basis_I(1, 2, 2, 2, p, tables(2))
    assert len(out) == 1
    u = unirat_u(1)
    assert out[0].coeffs[(1, 1)] == -(u * u + 1) / u
    assert basis_I(1, 2, 2, 1, p, tables(2)) == []
    # n = 1: P_(d) = m_(d)
    out = basis_I(1, 2, 1, 5, p, tables(1))
    assert out == [SymPoly.m((5,), 1, UniRatFunc.one(1))]


def test_verify_theorem1_examples(tables):
    rep = verify_theorem1(1, 2, 2, 2, table=tables(2))
    assert rep["inclusion_ok"] and rep["dims_equal"]
    assert rep["dim_J"] == rep["admissible_count"] == 1
    rep = verify_theorem1(1, 2, 1, 3, table=tables(1))
    assert rep["inclusion_ok"] and rep["dims_equal"]
    rep = verify_theorem1(1, 3, 3, 4, table=tables(3))
    assert rep["inclusion_ok"] and rep["dims_equal"]
    # P_42 with its m_33 coefficient doubled is no wheel witness, while
    # dim_J still counts the admissible labels
    p = ParameterSpec(1, 2)
    table = doubled_coefficient(MacdonaldTable(3), (4, 2), (3, 3))
    rep = verify_theorem1(1, 2, 3, 6, p, table=table)
    assert not rep["inclusion_ok"] and rep["dims_equal"]
    assert rep["witness_failures"] == ["4,2"]


def test_stability_examples(tables):
    p = ParameterSpec(1, 2)
    assert verify_stability(SymPoly.zero(2), p)
    kernel = wheel_kernel_basis(1, 2, 2, 2, p)[0]
    assert verify_stability(kernel, p)
    with pytest.raises(ValueError):
        verify_stability(SymPoly.m((2,), 2, UniRatFunc.one(1)), p)


def test_stability_random_combination(tables):
    rng = random.Random(31)
    p = ParameterSpec(1, 3)
    basis = basis_I(1, 3, 2, 5, p, tables(2))
    assert len(basis) == 2
    f = SymPoly.zero(2)
    for g in basis:
        f = f + g.scale(UniRatFunc.const(p.N, rng.randint(-4, 4)))
    assert verify_stability(f, p)


def test_stability_on_one_field_builds_each_matrix_once(monkeypatch):
    """verify_stability with a shared CoeffField.laurent (the input already
    cleared, as satisfies_wheel takes it) answers as a fresh field per
    call does, and builds each (n, d, operator) matrix once in all."""
    builds = []
    real = md._operator_tables

    def counted(n, d, op):
        builds.append((n, d, op))
        return real(n, d, op)

    monkeypatch.setattr(md, "_operator_tables", counted)
    rng = random.Random(5)
    p = ParameterSpec(2, 2)
    basis = wheel_kernel_basis(2, 2, 4, 8, p)
    combos = [sum((g.scale(UniRatFunc.const(p.N, rng.randint(1, 5)))
                   for g in basis), SymPoly.zero(4)) for _ in range(3)]
    fresh = [verify_stability(f, p) for f in combos]
    assert fresh == [True] * 3 and len(builds) == 3 * len(set(builds))
    del builds[:]
    fld = CoeffField.laurent(p)
    assert [verify_stability(laurent_clear(f, p), p, fld=fld)
            for f in combos] == fresh
    assert len(builds) == len(set(builds)) > 0
    with pytest.raises(ValueError):
        verify_stability(SymPoly.m((8,), 4, fld.one), p, fld=fld)


def test_a_reused_field_still_rejects_a_non_member():
    # the wheel tables a field keeps from the members of one (n, d) must
    # not turn a later non-member of that (n, d) into a member
    for k, r, n, d in [(1, 2, 3, 6), (2, 2, 4, 6), (2, 3, 3, 6)]:
        p = ParameterSpec(k, r)
        fld = CoeffField.laurent(p)
        basis = [laurent_clear(g, p)
                 for g in wheel_kernel_basis(k, r, n, d, p)]
        assert basis and all(satisfies_wheel(g, p, fld) for g in basis)
        outside = SymPoly.m((d,), n, fld.one)
        assert not satisfies_wheel(outside, p, CoeffField.laurent(p))
        assert not satisfies_wheel(outside, p, fld)
        assert not satisfies_wheel(basis[0] + outside, p, fld)
        assert satisfies_wheel(basis[-1], p, fld)


def test_stability_sees_a_planted_operator_matrix_entry():
    # verify_stability on a field whose operator matrix was already built:
    # one entry planted wrong (one more m_lam in the image of m_nu, with
    # m_lam outside J) makes the image leave J, and the verdict False
    p = ParameterSpec(2, 2)
    n, d = 4, 8
    fld = CoeffField.laurent(p)
    f = laurent_clear(wheel_kernel_basis(2, 2, n, d, p)[0], p)
    assert verify_stability(f, p, fld=fld)
    lam, nu = (d,), next(iter(f.coeffs))
    assert not satisfies_wheel(SymPoly.m(lam, n, fld.one), p, fld)
    for op in [("D", 1), ("E", 1)]:  # E_1 keeps the degree too
        planted = CoeffField.laurent(p)
        assert verify_stability(f, p, [op], fld=planted)
        row = planted.matrix(n, d, op).setdefault(lam, {})
        row[nu] = row.get(nu, planted.zero) + planted.one
        assert not verify_stability(f, p, [op], fld=planted), op


@pytest.mark.parametrize("k, r, n, d", [(1, 5, 2, 8), (2, 4, 3, 6)])
def test_stability_over_a_cyclotomic_field(k, r, n, d):
    """apply_D, apply_E and the wheel collapse over Laurent coefficients
    in Q(zeta_N) with phi(N) = 2, where they are CycloNums, not ints."""
    p = ParameterSpec(k, r)
    assert euler_phi(p.N) == 2
    basis = wheel_kernel_basis(k, r, n, d, p)
    assert basis
    rng = random.Random(10 * k + r)
    f = SymPoly.zero(n)
    for g in basis:
        f = f + g.scale(UniRatFunc.const(p.N, rng.choice([-3, -1, 2, 5])))
    cleared = laurent_clear(f, p)
    assert all(type(x) is CycloNum for c in cleared.coeffs.values()
               for x in c.c.values())
    assert verify_stability(f, p)
    assert not satisfies_wheel(SymPoly.m((d,), n, UniRatFunc.one(p.N)), p)


def test_rho_inclusion_examples(tables):
    p = ParameterSpec(1, 2)
    # j = 0 reduces to P in one fewer variable, wheel-satisfying
    assert verify_rho_inclusion((4, 2), 1, 2, 3, 0, p, tables(3))
    assert verify_rho_inclusion((4, 2), 1, 2, 3, 2, p, tables(3))
    with pytest.raises(ValueError):
        verify_rho_inclusion((2,), 1, 2, 2, 1, p, tables(2))


def test_rho_inclusion_sees_a_planted_coefficient():
    # P_42 with its m_33 coefficient doubled leaves J already at j = 0
    p = ParameterSpec(1, 2)
    table = doubled_coefficient(MacdonaldTable(3), (4, 2), (3, 3))
    assert not verify_rho_inclusion((4, 2), 1, 2, 3, 0, p, table)
    assert not verify_rho_inclusion((4, 2), 1, 2, 3, 2, p, table)


def test_laurent_clear_preserves_wheel_membership(tables):
    p = ParameterSpec(1, 2)
    fld = CoeffField.laurent(p)
    f = basis_I(1, 2, 2, 4, p, tables(2))[0]
    g = laurent_clear(f, p)
    assert satisfies_wheel(f, p) == satisfies_wheel(g, p, fld) == True  # noqa: E712
