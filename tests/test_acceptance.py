"""Acceptance suite: one test per claimed property, at full stated scale.

Every check is exact (no tolerances: equality in Q(q,t), Q(zeta)(u) or Z).
Each test prints a single PASS/FAIL line; run with -s (or read the captured
output) to see them.  The shared Macdonald tables make the whole module run
in minutes.
"""

import random
from fractions import Fraction
from itertools import combinations_with_replacement

from wheelmac import partitions as pt
from wheelmac.current_algebra import (chi_C, ideal_rows, quotient_dim,
                                      reduce_to_admissible, relation_generic,
                                      verify_prop302, verify_recursion)
from wheelmac.linalg import EchelonBasis
from wheelmac.macdonald import (CoeffField, apply_D, apply_E, cauchy_row_check,
                                check_integrality, eigenvalue_D,
                                pieri_failures, psi_prime, specialize_P)
from wheelmac.scalars import (BiRatFunc, ParameterSpec, QTPoly, UniRatFunc,
                              qt_divexact, qt_gcd)
from wheelmac.symfunc import SymPoly
from wheelmac.wheel_ideal import (_wheel_substitute_fld, laurent_clear,
                                  verify_rho_inclusion, verify_theorem1,
                                  wheel_kernel_basis, wheel_substitutions)

from oracles import poly_field
from test_wheel_ideal import _reference_rows

KR_GRID = [(1, 2), (1, 3), (2, 2), (2, 3)]


def _report(num, ok, text):
    print("criterion %2d: %s  %s" % (num, "PASS" if ok else "FAIL", text))
    assert ok, "criterion %d failed: %s" % (num, text)


def _cleared_poly(P):
    """Scale P_lam by its coefficient lcm: an exact Q[q,t] representative."""
    den = QTPoly.one()
    for c in P.coeffs.values():
        g = qt_gcd(den, c.den)[0]
        den = qt_divexact(den, g) * c.den
    out = {}
    for lam, c in P.coeffs.items():
        v = c * BiRatFunc.from_poly(den)
        assert v.is_polynomial()
        out[lam] = v.num
    return SymPoly(P.n, out)


def test_criterion_1_defining_properties(tables):
    """Unitriangularity and the full D_n(X) eigenvalue equation."""
    fldp = poly_field()
    ok = True
    for n in range(1, 5):
        table = tables(n)
        for d in range(7):
            for lam in pt.enumerate_partitions(n, d):
                P = table.compute_P(lam)
                if P.coeffs[lam] != BiRatFunc.one():
                    ok = False
                for mu in P.coeffs:
                    if mu != lam and not pt.dominance_leq(mu, lam):
                        ok = False
                F = _cleared_poly(P)
                evs = eigenvalue_D(lam, n)
                for rho in range(n + 1):
                    if apply_D(F, rho, fldp) != F.scale(evs[rho]):
                        ok = False
    _report(1, ok, "defining properties: unitriangular and "
                   "D_n(X) P = prod(1 + X q^lam_i t^(n-i)) P, n<=4, |lam|<=6")


def test_criterion_2_pieri_identities(tables):
    """The e_1, E_0 and E_2 expansions, including zero-coefficient absence."""
    ok = True
    for n in range(1, 5):
        table = tables(n)
        for d in range(6):
            for lam in pt.enumerate_partitions(n, d):
                if pieri_failures(lam, n, table):
                    ok = False
                # the undefined-shape term is absent because psi' vanishes
                for j in range(2, pt.length(lam) + 2):
                    cur = lam[j - 1] if j <= len(lam) else 0
                    if lam[j - 2] == cur and not psi_prime(lam, j).is_zero():
                        ok = False
    _report(2, ok, "Pieri/lowering identities e1, E0, E2 exact, "
                   "|lam|<=5, n<=4, absent terms have psi'=0")


def test_criterion_3_integrality(tables):
    ok = True
    for n in range(1, 5):
        table = tables(n)
        for d in range(7):
            for lam in pt.enumerate_partitions(n, d):
                if not check_integrality(lam, n, table):
                    ok = False
    _report(3, ok, "c_lam P_lam has polynomial coefficients, |lam|<=6, n<=4")


def test_criterion_4_cauchy(tables):
    ok = all(cauchy_row_check(n, 6, tables(n)) for n in range(1, 4))
    _report(4, ok, "row Cauchy identity through y-degree 6, n<=3")


def test_criterion_5_regularity(tables):
    ok = True
    for (k, r) in KR_GRID + [(3, 3)]:
        for n in range(1, 6):
            for d in range(13):
                for lam in pt.enumerate_admissible(k, r, n, d):
                    if not pt.check_lemma21(lam, k, r, n):
                        ok = False
    checked = 0
    for (k, r) in KR_GRID + [(3, 3)]:
        p = ParameterSpec(k, r)
        for n in range(1, 5):
            cases = set()
            for d in range(9):
                for lam in pt.enumerate_admissible(k, r, n, d):
                    cases.add(lam)
                    for j in pt.addable_rows(lam):
                        mu = pt.add_node(lam, j)
                        if pt.length(mu) <= n:
                            cases.add(mu)
                    for j in pt.removable_rows(lam):
                        cases.add(pt.remove_node(lam, j))
            for mu in cases:
                specialize_P(mu, n, p, tables(n))  # PoleError would fail us
                checked += 1
    _report(5, ok and checked > 0,
            "non-resonance for admissible lam (n<=5, |lam|<=12) and "
            "pole-free specialization for admissible +- node (n<=4, |lam|<=8)")


def _criterion6_tuples():
    for (k, r) in KR_GRID:
        n_top = 5 if r == 2 else 4
        for n in range(n_top + 1):
            for d in range(9):
                yield k, r, n, d


def test_criterion_6_theorem1(tables):
    ok = True
    for k, r, n, d in _criterion6_tuples():
        p = ParameterSpec(k, r)
        rep = verify_theorem1(k, r, n, d, p, table=tables(n))
        if not (rep["inclusion_ok"] and rep["dims_equal"]):
            ok = False
            print("  component failure:", rep)
    _report(6, ok, "Theorem: admissible specialized P satisfy the wheel and "
                   "dim J = #admissible on the whole grid, exact mode")


def test_criterion_7_stability():
    """Operator stability of the wheel ideal on random combinations.

    Per tuple the operator images of the kernel basis vectors and their
    wheel substitutions are computed once, exactly; the twenty random
    combinations are then assembled from them by linearity (the operators
    are linear; see test_operator_linearity), so each combination's image
    substitution is an exact Laurent-coefficient computation.
    """
    rng = random.Random(2024)
    ok = True
    checked_tuples = 0
    for k, r, n, d in _criterion6_tuples():
        if n <= k:
            continue
        p = ParameterSpec(k, r)
        basis = wheel_kernel_basis(k, r, n, d, p)
        if not basis:
            continue
        checked_tuples += 1
        fld = CoeffField.laurent(p)
        cleared = [laurent_clear(f, p) for f in basis]
        ops = [("D", 1), ("D", 2), ("E", 0), ("E", 1), ("E", 2)]
        ops = [(kind, a) for kind, a in ops if not (kind == "D" and a > n)]
        subs = wheel_substitutions(k, r)
        images = []
        for f in cleared:
            per_op = []
            for kind, a in ops:
                img = apply_D(f, a, fld) if kind == "D" else apply_E(f, a, fld)
                per_op.append([_wheel_substitute_fld(img, s, fld)
                               for s in subs])
            images.append(per_op)
        for _ in range(20):
            coeffs = [rng.randint(-5, 5) for _ in basis]
            if not any(coeffs):
                coeffs[0] = 1
            for oi in range(len(ops)):
                for si in range(len(subs)):
                    acc = None
                    for i, c in enumerate(coeffs):
                        if c:
                            term = images[i][oi][si].scale(fld.from_int(c))
                            acc = term if acc is None else acc + term
                    if acc is not None and not acc.is_zero():
                        ok = False
    _report(7, ok and checked_tuples > 0,
            "wheel ideal stable under D^1, D^2, E0, E1, E2 on 20 random "
            "combinations per tuple (%d non-trivial tuples)" % checked_tuples)


def test_criterion_8_restriction_derivative(tables):
    ok = True
    checked = 0
    for (k, r) in [(1, 2), (1, 3)]:
        p = ParameterSpec(k, r)
        n = k + 2
        for d in range(7):
            for lam in pt.enumerate_admissible(k, r, n, d):
                checked += 1
                if not verify_rho_inclusion(lam, k, r, n, 2, p, tables(n)):
                    ok = False
    _report(8, ok and checked > 0,
            "restricted derivatives rho(d^j P/dx_n^j) stay in the wheel "
            "ideal, j<=2, n=k+2 (%d admissible cases)" % checked)


def test_criterion_9_dual_quotient():
    ok = True
    for k, r, n, d in _criterion6_tuples():
        if quotient_dim(k, r, n, d) != pt.count_admissible(k, r, n, d):
            ok = False
    # reduction terminates and is certified by rank membership
    rng = random.Random(5)
    for (k, r) in KR_GRID:
        for n in range(k + 1, 5):
            for d in range(9):
                plist = pt.enumerate_partitions(n, d)
                index = {lam: i for i, lam in enumerate(plist)}
                ech = EchelonBasis(len(plist))
                for row in ideal_rows(k, r, n, d):
                    ech.add(row)
                cases = plist if len(plist) <= 6 else rng.sample(plist, 6)
                for lam in cases:
                    out = reduce_to_admissible(pt.pad(lam, n), k, r)
                    if not all(pt.is_admissible(key, k, r, n)
                               for key in out.terms):
                        ok = False
                    vec = [Fraction(0)] * len(plist)
                    vec[index[lam]] += 1
                    for key, c in out.terms.items():
                        vec[index[pt.normalize(key)]] -= c
                    if any(ech.reduce(vec)):
                        ok = False
    _report(9, ok, "quotient dims equal admissible counts at the root of "
                   "unity; admissible reduction certified by rank membership")


def test_criterion_10_characters():
    ok = True
    for k in (1, 2):
        for r in (2, 3):
            for b in combinations_with_replacement(range(k + 1), r - 1):
                if b[0] >= 1 and not verify_recursion(b, k, r, 8, 8):
                    ok = False
    for (k, r) in [(1, 2), (2, 2), (1, 3)]:
        p = ParameterSpec(k, r)
        for b in combinations_with_replacement(range(k + 1), r - 1):
            if not verify_prop302(b, k, r, 8, 4, p):
                ok = False
        # base case b=(k,...,k) restates the dimension corollary
        chi = chi_C((k,) * (r - 1), k, r, 8, 4)
        for n in range(5):
            for d in range(9):
                if chi.coeffs.get((d, n), 0) != pt.count_admissible(k, r, n, d):
                    ok = False
    _report(10, ok, "character recursion (k<=2, r<=3, truncation 8) and "
                    "W-space dims match chi^C for all prefix profiles")


def test_criterion_11_duality():
    ok = True
    for (k, r) in KR_GRID:
        if k > 2 or r > 3:
            continue
        p = ParameterSpec(k, r)
        zero = UniRatFunc.zero(p.N)
        for d in range(7):
            plist = pt.enumerate_partitions(k + 1, d)
            # the wheel rows by the per-m_lam substitution, not by the
            # relation reader that relation_generic and constraint_rows share
            rows = _reference_rows(k, r, k + 1, d, p)
            for sigma in wheel_substitutions(k, r):
                rel = relation_generic(d, sigma, k, r, p)
                vec = [rel.terms.get(pt.pad(lam, k + 1), zero)
                       for lam in plist]
                row = rows.get((sigma, (d,)), [zero] * len(plist))
                if row != vec:
                    ok = False
    _report(11, ok, "current relations and wheel constraint rows agree "
                    "under the pairing, k<=2, r<=3, d<=6")
