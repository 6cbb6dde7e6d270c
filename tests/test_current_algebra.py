import gc
import random
from fractions import Fraction
from itertools import combinations_with_replacement

import pytest

from wheelmac import current_algebra as ca
from wheelmac import linalg, wheel_ideal
from wheelmac import partitions as pt
from wheelmac.current_algebra import (K_d_nu, W_space_dim, chi_C,
                                      enumerate_C_sequences, ideal_rows,
                                      quotient_dim, reduce_to_admissible,
                                      relation_generic, relation_rootofunity,
                                      residue_profiles, verify_prop302,
                                      verify_recursion)
from wheelmac.linalg import EchelonBasis, _clear_upower_row
from wheelmac.scalars import CycloNum, ParameterSpec, UniPoly, UniRatFunc
from wheelmac.symfunc import MonomialExpansion
from wheelmac.wheel_ideal import (_rotation_classes, constraint_rows, dim_J,
                                  wheel_substitutions)

from oracles import (eager_rank_kernel, eval_monomial_symmetric,
                     every_sigma_rows, unirat_u)
from test_wheel_ideal import _reference_rows


def _in_row_span(rows, ncols, vector):
    """True iff vector is a linear combination of the given rows."""
    ech = EchelonBasis(ncols)
    for row in rows:
        ech.add(row)
    return not any(ech.reduce(vector))


def test_residue_profiles():
    assert residue_profiles(1, 2) == [(2,)]
    assert sorted(residue_profiles(1, 3)) == [(0, 2), (1, 1), (2, 0)]
    assert all(sum(nu) == 3 for nu in residue_profiles(2, 4))


def test_relation_rootofunity_examples():
    rel = relation_rootofunity(0, (2,), 1, 2)
    assert rel.terms == {(0, 0): Fraction(1)}
    rel = relation_rootofunity(1, (2,), 1, 2)
    assert rel.terms == {(1, 0): Fraction(2)}
    rel = relation_rootofunity(2, (2,), 1, 2)
    assert rel.terms == {(1, 1): Fraction(1), (2, 0): Fraction(2)}
    # empty support yields the zero vector
    assert relation_rootofunity(1, (0, 2), 1, 3).is_zero()


def test_relation_rootofunity_rejects_bad_profiles():
    # (3, -1) has the right length and sum but is no residue profile
    for nu in [(3, -1), (2,), (2, 1), (1, 1, 0)]:
        with pytest.raises(ValueError, match="non-negative"):
            relation_rootofunity(2, nu, 1, 3)


def test_relation_positivity_and_integrality():
    for k, r in [(1, 2), (1, 3), (2, 3), (2, 4)]:
        for d in range(9):
            for nu in residue_profiles(k, r):
                rel = relation_rootofunity(d, nu, k, r)
                for c in rel.terms.values():
                    assert c.denominator == 1 and c > 0


def test_minimal_element_uniqueness():
    # every non-empty K_d(nu) has a unique spread <= r-1 element, lex-minimal
    for k in (1, 2, 3):
        for r in (2, 3, 4):
            for d in range(13):
                for nu in residue_profiles(k, r):
                    K = K_d_nu(d, nu, k, r)
                    if not K:
                        continue
                    tight = [mu for mu in K if mu[0] - mu[k] <= r - 1]
                    assert len(tight) == 1
                    assert tight[0] == min(K)


def test_relation_generic_examples():
    p = ParameterSpec(1, 2)
    one = UniRatFunc.one(1)
    u = unirat_u(1)
    rel = relation_generic(0, (0,), 1, 2, p)
    assert rel.terms == {(0, 0): one}
    rel = relation_generic(1, (0,), 1, 2, p)
    assert rel.terms == {(1, 0): one + u}
    rel = relation_generic(2, (0,), 1, 2, p)
    assert rel.terms == {(2, 0): one + u * u, (1, 1): u}
    # sigma is a cumulative wheel sequence: length k, weakly increasing
    # within 0..r-1, as wheel_substitute requires
    for sigma, k, r in (((5,), 1, 2), ((1, 0), 2, 3), ((1,), 2, 3)):
        with pytest.raises(ValueError, match="sigma"):
            relation_generic(2, sigma, k, r)


def test_relation_generic_is_kept_on_its_parameter_spec():
    # the first call with a given (d, sigma) builds the relation and p keeps
    # it: a second call with the same p returns that object, a fresh p
    # builds its own
    p = ParameterSpec(2, 3)
    rel = relation_generic(4, (0, 1), 2, 3, p)
    assert relation_generic(4, [0, 1], 2, 3, p) is rel
    assert relation_generic(4, (0, 1), 2, 3, ParameterSpec(2, 3)) is not rel


def test_a_reused_parameter_spec_gives_the_fresh_relations():
    # p warmed with every (d, sigma) and asked again in the reverse order
    # returns what a fresh ParameterSpec builds
    for k in range(1, 4):
        for r in range(2, 5):
            keys = [(d, sigma) for d in range(9)
                    for sigma in wheel_substitutions(k, r)]
            p = ParameterSpec(k, r)
            for d, sigma in keys:
                relation_generic(d, sigma, k, r, p)
            for d, sigma in reversed(keys):
                fresh = relation_generic(d, sigma, k, r, ParameterSpec(k, r))
                assert relation_generic(d, sigma, k, r, p) == fresh, \
                    (k, r, d, sigma)


def test_a_warmed_parameter_spec_still_checks_its_arguments():
    # the checks run before the lookup, so a kept (d, sigma) does not let
    # a bad sigma or another (k, r) through
    p = ParameterSpec(1, 2)
    relation_generic(2, (1,), 1, 2, p)
    with pytest.raises(ValueError, match="sigma"):
        relation_generic(2, (5,), 1, 2, p)
    with pytest.raises(ValueError, match="does not match"):
        relation_generic(2, (1,), 1, 3, p)


def test_verify_prop302_reads_each_relation_table_once(monkeypatch):
    # one p across every (n, d) component: each wheel_collapse table a
    # relation reads is built once in the run
    calls = []
    inner = wheel_ideal.wheel_collapse

    def counting(lam, n, sigma):
        calls.append((lam, n, tuple(sigma)))
        return inner(lam, n, sigma)

    monkeypatch.setattr(wheel_ideal, "wheel_collapse", counting)
    for b, k, r in [((1,), 1, 2), ((0, 1), 1, 3)]:
        del calls[:]
        assert verify_prop302(b, k, r, 8, 4, ParameterSpec(k, r))
        assert calls and len(calls) == len(set(calls)), (b, k, r)


def test_duality_with_wheel_rows():
    # the sigma-relation coefficients are exactly the wheel constraint row
    # on the n = k+1 component (single free monomial x_1^d), computed by
    # the per-m_lam substitution of the reference; the degree-0 relation,
    # 1 for every sigma, is yielded once, under the first sigma.
    # constraint_rows yields the rows of the rotation-class representatives
    for k, r in [(1, 2), (1, 3), (2, 2), (2, 3), (3, 2), (1, 4), (2, 4)]:
        p = ParameterSpec(k, r)
        zero = UniRatFunc.zero(p.N)
        sigmas = wheel_substitutions(k, r)
        reps = _rotation_classes(k, r)
        for d in range(7):
            plist = pt.enumerate_partitions(k + 1, d)
            ref = _reference_rows(k, r, k + 1, d, p)
            every = dict(every_sigma_rows(k, r, k + 1, d, p))
            got = dict(constraint_rows(k, r, k + 1, d, p))
            for sigma in sigmas:
                rel = relation_generic(d, sigma, k, r, p)
                vec = [rel.terms.get(pt.pad(lam, k + 1), zero)
                       for lam in plist]
                row = ref.get((sigma, (d,)), [zero] * len(plist))
                assert row == vec, (k, r, d, sigma)
                for rows, kept in ((every, sigmas), (got, reps)):
                    if sigma in kept and (d or sigma == sigmas[0]):
                        assert rows.get((sigma, (d,)),
                                        [zero] * len(plist)) == vec
                    else:
                        assert (sigma, (d,)) not in rows, (k, r, sigma)


def test_duality_with_wheel_rows_every_n():
    # beyond n = k+1 the rows of every sigma (relation times filler) are
    # the wheel rows (sigma, free monomial) of the per-m_lam substitution,
    # without the copies for permuted free monomials; cleared, they are
    # what rank_kernel_poly sees.  The generic ideal rows are those of the
    # rotation-class representatives
    for k, r in [(1, 2), (1, 3), (2, 2), (2, 3), (1, 4)]:
        p = ParameterSpec(k, r)
        for n in range(k + 1, (5 if r == 2 else 4) + 1):
            for d in range(7):
                wheel = {tuple(row) for row
                         in _reference_rows(k, r, n, d, p).values()}
                ideal = {tuple(row) for _, row in
                         every_sigma_rows(k, r, n, d, p)}
                assert wheel == ideal, (k, r, n, d)
                assert ideal_rows(k, r, n, d, p, field="generic") == [
                    row for _, row in constraint_rows(k, r, n, d, p)]
                assert {tuple(_clear_upower_row(row, p.N)) for row in wheel} \
                    == {tuple(_clear_upower_row(row, p.N)) for row in ideal}


def _dot(row, vec):
    acc = None
    for a, b in zip(row, vec):
        if a and b:
            acc = a * b if acc is None else acc + a * b
    return acc


def test_rank_kernel_poly_certifies_each_distinct_row_once(monkeypatch):
    # wheel and ideal rows with repeated copies interleaved (and
    # u-multiples, which are distinct rows): the numeric selection sees
    # each distinct nonzero row once, and rank and kernel are those of the
    # first occurrences.  A row that vanishes at the first probe point but
    # is not in the span of the others fails the first certificate, so the
    # offender loop runs.
    adds, rounds = [], []
    add, tri = linalg.EchelonBasis.add, linalg._triangularize_poly
    monkeypatch.setattr(linalg.EchelonBasis, "add",
                        lambda self, row: adds.append(1) or add(self, row))
    monkeypatch.setattr(linalg, "_triangularize_poly",
                        lambda rows, ncols: rounds.append(1) or tri(rows, ncols))
    rng = random.Random(23)
    for k, r, n, d in [(1, 2, 3, 7), (2, 2, 4, 6), (2, 3, 4, 7), (1, 4, 2, 6)]:
        p = ParameterSpec(k, r)
        N = p.N
        ncols = len(pt.enumerate_partitions(n, d))
        u = unirat_u(N)
        rows = [row for _, row in constraint_rows(k, r, n, d, p)]
        rows += ideal_rows(k, r, n, d, p, field="generic")
        base_rank, base_kernel = linalg.rank_kernel_poly(rows, ncols, N)
        assert base_kernel, (k, r, n, d)
        # e_c times (u - u0) is zero at u0 and pairs nonzero with the kernel
        col = next(c for c, x in enumerate(base_kernel[0]) if x)
        u0 = linalg._PROBE_POINT
        offender = [UniRatFunc.zero(N)] * ncols
        offender[col] = UniRatFunc(UniPoly(N, [CycloNum.from_rational(N, -u0),
                                               CycloNum.one(N)]))
        for extra, want_rank in (([], base_rank), ([offender], base_rank + 1)):
            pool = rows + extra + [[x * u for x in row]
                                   for row in rng.sample(rows, 3)]
            mixed = list(pool)
            for _ in range(2 * len(pool)):
                mixed.insert(rng.randrange(len(mixed) + 1), rng.choice(pool))
            first = [list(row) for row
                     in dict.fromkeys(tuple(row) for row in mixed if any(row))]
            del adds[:], rounds[:]
            rank, kernel = linalg.rank_kernel_poly(mixed, ncols, N)
            assert len(adds) == len(first), (k, r, n, d)
            assert (len(rounds) > 1) == bool(extra), (k, r, n, d)
            assert rank == want_rank and rank + len(kernel) == ncols
            for row in first:
                for vec in kernel:
                    acc = _dot(_clear_upower_row(row, N), vec)
                    assert acc is None or acc.is_zero(), (k, r, n, d)
            assert linalg.rank_kernel_poly(first, ncols, N) == (rank, kernel)


def test_unknown_field_is_rejected():
    for call in (lambda: ideal_rows(1, 2, 3, 2, field="generik"),
                 lambda: ideal_rows(1, 2, 1, 2, field="generik")):
        with pytest.raises(ValueError, match="'rootofunity', 'generic'"):
            call()


def _relation_unirat(d, sigma, k, r, p):
    """m_mu(1, c_1, ..., c_k) summed in UniRatFunc, c_i = t^i q^(sigma_i)."""
    one = UniRatFunc.one(p.N)
    values = [one] + [p.t_value() ** i * p.q_value() ** sigma[i - 1]
                      for i in range(1, k + 1)]
    out = {}
    for mu in pt.enumerate_partitions(k + 1, d):
        c = eval_monomial_symmetric(mu, values, one)
        if c:
            out[pt.pad(mu, k + 1)] = c
    return out


def test_relation_generic_matches_unirat_evaluation():
    for k, r in [(1, 2), (1, 3), (2, 2), (2, 3), (1, 4), (2, 4)]:
        p = ParameterSpec(k, r)
        for d in range(8):
            for sigma in wheel_substitutions(k, r):
                got = relation_generic(d, sigma, k, r, p).terms
                want = _relation_unirat(d, sigma, k, r, p)
                assert got == want, (k, r, d, sigma)


def test_quotient_dim_generic_with_cyclotomic_coefficients():
    # r = 4: N = 3, the relation coefficients live in Q(zeta_3)[u, 1/u]
    p = ParameterSpec(1, 4)
    for n in range(5):
        for d in range(9):
            assert dim_J(1, 4, n, d, p) == \
                pt.count_admissible(1, 4, n, d), (n, d)


def test_quotient_dim_examples():
    assert quotient_dim(1, 2, 2, 2) == 1
    assert quotient_dim(1, 2, 2, 1) == 0
    assert quotient_dim(1, 2, 1, 4) == 1  # n <= k: free
    p = ParameterSpec(1, 2)
    assert dim_J(1, 2, 2, 2, p) == 1


def test_quotient_dim_spanning_bound():
    for (k, r) in [(1, 2), (1, 3), (2, 3)]:
        for n in range(1, 4):
            for d in range(7):
                qd = quotient_dim(k, r, n, d)
                assert qd <= len(pt.enumerate_partitions(n, d))
                assert qd == pt.count_admissible(k, r, n, d)


def test_reduce_examples():
    out = reduce_to_admissible((3, 1), 1, 2)
    assert out.terms == {(3, 1): Fraction(1)}
    out = reduce_to_admissible((1, 1), 1, 2)
    assert out.terms == {(2, 0): Fraction(-2)}
    out = reduce_to_admissible((2, 2), 1, 2)
    assert out.terms == {(3, 1): Fraction(-2), (4, 0): Fraction(-2)}


def test_reduce_soundness_by_rank_membership():
    # e_lam - reduce(e_lam) must lie in the span of the ideal rows
    rng = random.Random(2)
    for (k, r) in [(1, 2), (1, 3), (2, 2), (2, 3)]:
        for n in range(k + 1, 5):
            for d in range(7):
                plist = pt.enumerate_partitions(n, d)
                index = {lam: i for i, lam in enumerate(plist)}
                rows = ideal_rows(k, r, n, d)
                cases = plist if len(plist) <= 6 else rng.sample(plist, 6)
                for lam in cases:
                    out = reduce_to_admissible(pt.pad(lam, n), k, r)
                    assert all(pt.is_admissible(key, k, r, n)
                               for key in out.terms)
                    vec = [Fraction(0)] * len(plist)
                    vec[index[lam]] += 1
                    for key, c in out.terms.items():
                        vec[index[pt.normalize(key)]] -= c
                    if any(vec):
                        assert _in_row_span(rows, len(plist), vec), (k, r, lam)


def test_enumerate_sequences_examples():
    assert enumerate_C_sequences((1,), 1, 2, 0, 0) == [()]
    assert enumerate_C_sequences((1,), 1, 2, 2, 2) == [(1, 0, 1)]
    assert enumerate_C_sequences((0,), 1, 2, 1, 0) == []
    # b = 0 prefix forces the support past the prefix window
    for seq in enumerate_C_sequences((0, 0), 1, 3, 2, 6):
        assert len(seq) > 2 and seq[0] == seq[1] == 0 if seq else True


def _C_sequences_by_definition(b, k, r, n, d):
    """The count vectors a of the n-element multisets of 0..d summing to d
    whose windows a_i + ... + a_{i+r-1} stay within k and whose prefix
    sums a_0 + ... + a_j stay within b_j for j <= r-2, sorted."""
    out = []
    for parts in combinations_with_replacement(range(d + 1), n):
        if sum(parts) != d:
            continue
        a = [parts.count(v) for v in range(max(parts, default=-1) + 1)]
        if all(sum(a[i:i + r]) <= k for i in range(len(a))) and \
                all(sum(a[:j + 1]) <= b[j] for j in range(r - 1)):
            out.append(tuple(a))
    return sorted(out)


def test_enumerate_sequences_match_the_definition():
    # built from the window and prefix sums alone, with no admissible
    # partition and no _prefix_ok; the order is part of the contract
    cases = 0
    for k in (1, 2, 3):
        for r in (2, 3, 4, 5):
            for b in combinations_with_replacement(range(k + 1), r - 1):
                for n in range(6):
                    for d in range(9):
                        assert enumerate_C_sequences(b, k, r, n, d) == \
                            _C_sequences_by_definition(b, k, r, n, d), \
                            (b, k, r, n, d)
                        cases += 1
    assert cases == 117 * 6 * 9


def test_enumerate_sequences_leaves_no_reference_cycle():
    gc.collect()
    gc.disable()
    try:
        for d in range(10):
            enumerate_C_sequences((1, 2), 2, 3, 4, d)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_a_parameter_spec_for_another_k_r_is_refused():
    wrong = ParameterSpec(1, 3)
    calls = [lambda: relation_generic(2, (1,), 1, 2, wrong),
             lambda: ideal_rows(1, 2, 3, 4, wrong, field="generic"),
             lambda: dim_J(1, 2, 3, 4, wrong),
             lambda: W_space_dim((1,), 1, 2, 3, 4, wrong),
             lambda: verify_prop302((1,), 1, 2, p=wrong)]
    for call in calls:
        with pytest.raises(ValueError, match="does not match"):
            call()


def test_chi_examples():
    chi = chi_C((1,), 1, 2, 6, 6)
    assert chi[(0, 0)] == 1
    for d in range(7):
        assert chi[(d, 1)] == 1
    chi0 = chi_C((0,), 1, 2, 4, 4)
    assert chi0[(0, 1)] == 0
    with pytest.raises(KeyError):
        chi[(7, 0)]


def test_recursion_examples(monkeypatch):
    assert verify_recursion((1,), 1, 2, 6, 6)
    assert verify_recursion((1, 2), 2, 3, 6, 6)
    with pytest.raises(ValueError, match="b_0 >= 1"):
        verify_recursion((0,), 1, 2)
    for b in [(1, 0), (-1, 1), (1, 3), (1,)]:
        with pytest.raises(ValueError, match="weakly increasing"):
            chi_C(b, 2, 3, 2, 2)
    # chi_C one too large at (d, n) = (3, 2) breaks the recursion
    inner = ca.chi_C

    def off_by_one(b, k, r, d_max, n_max):
        chi = inner(b, k, r, d_max, n_max)
        chi.coeffs[(3, 2)] = chi[(3, 2)] + 1
        return chi

    monkeypatch.setattr(ca, "chi_C", off_by_one)
    assert not verify_recursion((1,), 1, 2, 5, 3)


def test_recursion_grid():
    for k in (1, 2, 3):
        for r in (2, 3, 4, 5):
            for b in combinations_with_replacement(range(k + 1), r - 1):
                if b[0] >= 1:
                    assert verify_recursion(b, k, r, 8, 8), (k, r, b)


def test_W_space_examples():
    p = ParameterSpec(1, 2)
    assert W_space_dim((0,), 1, 2, 1, 0, p) == 0
    assert W_space_dim((1,), 1, 2, 2, 2, p) == 1
    # b = (k,...,k): the prefix bounds add nothing beyond the relations
    for n in range(4):
        for d in range(5):
            assert W_space_dim((1,), 1, 2, n, d, p) == \
                pt.count_admissible(1, 2, n, d)


def test_W_space_monotone_in_b():
    p = ParameterSpec(2, 2)
    for n in range(4):
        for d in range(5):
            dims = [W_space_dim((b0,), 2, 2, n, d, p) for b0 in (0, 1, 2)]
            assert dims[0] <= dims[1] <= dims[2]
    # per-coordinate for a two-entry profile
    p13 = ParameterSpec(1, 3)
    for n in range(3):
        for d in range(5):
            assert W_space_dim((0, 0), 1, 3, n, d, p13) \
                <= W_space_dim((0, 1), 1, 3, n, d, p13) \
                <= W_space_dim((1, 1), 1, 3, n, d, p13)


def test_generic_ranks_over_rotation_classes_match_every_sigma():
    # the reference ranks the relations of every sigma (every_sigma_rows),
    # deleting the prefix-violating columns itself
    for k, r in [(1, 2), (2, 2), (1, 3), (2, 3), (1, 4)]:
        p = ParameterSpec(k, r)
        for n in range(5):
            for d in range(8):
                plist = [pt.pad(lam, n) for lam in pt.enumerate_partitions(n, d)]
                rows = [row for _, row in every_sigma_rows(k, r, n, d, p)]
                full = len(plist) - linalg.rank_kernel_poly(
                    rows, len(plist), p.N)[0]
                assert dim_J(k, r, n, d, p) == full, (k, r, n, d)
                for b in combinations_with_replacement(range(k + 1), r - 1):
                    keep = [i for i, lam in enumerate(plist)
                            if all(sum(lam.count(v) for v in range(a + 1))
                                   <= b[a] for a in range(r - 1))]
                    proj = [[row[i] for i in keep] for row in rows]
                    ref = len(keep) - linalg.rank_kernel_poly(
                        proj, len(keep), p.N)[0]
                    assert W_space_dim(b, k, r, n, d, p) == ref, \
                        (k, r, b, n, d)


def test_W_space_dim_matches_the_eager_reference():
    # the dual benchmark's grid: the prefix-bound columns kept, the rows of
    # one sigma per class cleared and deduplicated before any is read
    for k, r in [(1, 2), (2, 2), (1, 3)]:
        p = ParameterSpec(k, r)
        for n in range(5):
            for d in range(9):
                plist = [pt.pad(lam, n) for lam in pt.enumerate_partitions(n, d)]
                rows = ideal_rows(k, r, n, d, p, "generic")
                for b in combinations_with_replacement(range(k + 1), r - 1):
                    keep = [i for i, lam in enumerate(plist)
                            if all(sum(lam.count(v) for v in range(a + 1))
                                   <= b[a] for a in range(r - 1))]
                    proj = [[row[i] for i in keep] for row in rows]
                    rank, _ = eager_rank_kernel(proj, len(keep), p.N)
                    assert W_space_dim(b, k, r, n, d, p) \
                        == len(keep) - rank, (k, r, b, n, d)


class _Unread:
    """A row that fails the test when any of its entries is read."""

    def __getitem__(self, i):
        raise AssertionError("a row after the full rank was read")


def test_W_space_dim_reads_no_row_after_the_full_rank(monkeypatch):
    # on this dual component the projected rows reach full rank at the
    # 19th of 25; the six after it are poisoned and must not be indexed
    k, r, b, n, d = 1, 2, (1,), 4, 8
    p = ParameterSpec(k, r)
    rows = ideal_rows(k, r, n, d, p, "generic")
    keep = [i for i, lam in enumerate(pt.enumerate_partitions(n, d))
            if pt.pad(lam, n).count(0) <= b[0]]
    proj = [[row[i] for i in keep] for row in rows]
    assert (len(keep), len(rows)) == (10, 25)
    assert linalg.rank_kernel_poly(proj[:18], 10, p.N)[0] == 9
    assert linalg.rank_kernel_poly(proj[:19], 10, p.N) == (10, [])
    poisoned = rows[:19] + [_Unread()] * 6
    monkeypatch.setattr(ca, "ideal_rows", lambda *args: poisoned)
    assert W_space_dim(b, k, r, n, d, p) == 0


def test_generic_ranks_take_one_relation_per_class(monkeypatch):
    # W_space_dim and dim_J both read their rows
    # through constraint_rows and the one relation reader
    calls = []
    inner = wheel_ideal.relation_generic

    def counting(d, sigma, k, r, p=None):
        calls.append(tuple(sigma))
        return inner(d, sigma, k, r, p)

    monkeypatch.setattr(wheel_ideal, "relation_generic", counting)
    for k, r in [(1, 2), (2, 2), (1, 3), (2, 3), (1, 4)]:
        p = ParameterSpec(k, r)
        for rank in (lambda: dim_J(k, r, k + 2, 6, p),
                     lambda: W_space_dim((k,) * (r - 1), k, r, k + 2, 6, p)):
            del calls[:]
            rank()
            assert set(calls) == set(_rotation_classes(k, r)), (k, r)


@pytest.mark.xfail(strict=True, reason="W_space_dim ranks the generic "
                   "relation rows and undercounts at (k, r) = (2, 3), where "
                   "chi_C gives 1; ROADMAP item 2")
def test_W_space_dim_matches_chi_C_at_2_3():
    p = ParameterSpec(2, 3)
    assert W_space_dim((2, 2), 2, 3, 3, 3, p) == 1
    assert W_space_dim((1, 1), 2, 3, 3, 5, p) == 1


def test_prop302_examples():
    p = ParameterSpec(1, 2)
    assert verify_prop302((1,), 1, 2, 5, 3, p)
    assert verify_prop302((0,), 1, 2, 5, 3, p)
    assert verify_prop302((0, 1), 1, 3, 5, 3, ParameterSpec(1, 3))


def test_prop302_sees_a_character_off_by_one(monkeypatch):
    p = ParameterSpec(1, 2)
    inner = ca.chi_C

    def off_by_one(b, k, r, d_max, n_max):
        chi = inner(b, k, r, d_max, n_max)
        chi.coeffs[(3, 2)] = chi[(3, 2)] + 1
        return chi

    monkeypatch.setattr(ca, "chi_C", off_by_one)
    assert not verify_prop302((1,), 1, 2, 5, 3, p)


def test_current_vector_semantics():
    # current vectors are MonomialExpansions keyed by padded partitions
    v = MonomialExpansion(2, {(1, 1): Fraction(1)})
    w = MonomialExpansion(2, {(1, 1): Fraction(-1), (2, 0): Fraction(3)})
    assert (v + w).terms == {(2, 0): Fraction(3)}
    assert v.scale(Fraction(2)).terms == {(1, 1): Fraction(2)}
    assert (v + v.scale(-1)).is_zero() and v + w != v
    # zero parts are honest generators: (2,0) != (2,) as monomials
    rel = relation_rootofunity(2, (2,), 1, 2)
    assert isinstance(rel, MonomialExpansion) and rel.n == 2
    assert (2, 0) in rel.terms and (2,) not in rel.terms
