"""A closed-form oracle for the r = 2 counts: the Andrews-Gordon identity.

With multiplicities f_j, (k, 2)-admissibility of a partition with n parts
(zeros included) is f_j + f_{j+1} <= k, and the prefix bound b = (b_0) of
chi_C is f_0 <= b_0.  Adding 1 to every part gives the partitions of
d + n into n positive parts with f_j + f_{j+1} <= k and f_1 <= i - 1,
i = b_0 + 1, whose generating function is Andrews' refinement of the
Andrews-Gordon identity (Andrews, PNAS 71, 1974; The Theory of
Partitions, ch. 7):

    sum_{N_1 >= ... >= N_k >= 0} z^(N_1+...+N_k)
        v^(N_1^2+...+N_k^2 + N_i+...+N_k) / prod_j (v;v)_(N_j - N_(j+1)),

with N_(k+1) = 0.  Replacing z by z / v counts v^d z^n.  Everything below
is exact integer series arithmetic; nothing here enumerates partitions.
"""

from itertools import combinations_with_replacement

from wheelmac import partitions as pt
from wheelmac.current_algebra import chi_C


def _inverse_q_pochhammer(m, d_max):
    """Coefficients of 1 / (v; v)_m through v^d_max: partitions into parts
    of size at most m."""
    series = [1] + [0] * d_max
    for part in range(1, m + 1):
        for d in range(part, d_max + 1):
            series[d] += series[d - part]
    return series


def _andrews_gordon(k, i, d_max, n_max, plant=False):
    """{(d, n): coefficient of v^d z^n} of the sum above with z -> z / v.

    plant adds a spurious v^1 to every term with N_2 > 0: a wrong formula
    the comparison below must catch."""
    inverse = [_inverse_q_pochhammer(m, d_max) for m in range(n_max + 1)]
    out = {}
    for n in range(n_max + 1):
        # N_1 >= ... >= N_k >= 0 with sum n, as a weakly decreasing tuple
        for Ns in combinations_with_replacement(range(n, -1, -1), k):
            if sum(Ns) != n:
                continue
            e = sum(x * x - x for x in Ns) + sum(Ns[i - 1:])
            if plant and k > 1 and Ns[1] > 0:
                e += 1
            if e > d_max:
                continue
            series = [0] * (d_max + 1)
            series[e] = 1
            for a, b in zip(Ns, Ns[1:] + (0,)):
                factor = inverse[a - b]
                series = [sum(series[j] * factor[d - j] for j in range(d + 1))
                          for d in range(d_max + 1)]
            for d, c in enumerate(series):
                if c:
                    out[d, n] = out.get((d, n), 0) + c
    return out


def _mismatches(k, i, d_max, n_max, want, plant=False):
    got = _andrews_gordon(k, i, d_max, n_max, plant)
    return [(d, n) for n in range(n_max + 1) for d in range(d_max + 1)
            if got.get((d, n), 0) != want(d, n)]


def test_admissible_counts_match_andrews_gordon():
    # no prefix bound: i = k + 1; 4 * 8 * 15 = 480 counts
    for k in range(1, 5):
        counts = {(d, n): pt.count_admissible(k, 2, n, d)
                  for n in range(8) for d in range(15)}
        assert not _mismatches(k, k + 1, 14, 7, lambda d, n: counts[d, n])


def test_chi_C_matches_andrews_gordon_for_every_prefix_bound():
    # b = (b_0), i = b_0 + 1, for every 0 <= b_0 <= k <= 4
    for k in range(1, 5):
        for b0 in range(k + 1):
            chi = chi_C((b0,), k, 2, 12, 7)
            assert not _mismatches(k, b0 + 1, 12, 7,
                                   lambda d, n: chi[(d, n)]), (k, b0)


def test_a_planted_extra_power_of_v_is_caught():
    # the identity with v^1 more on every term with N_2 > 0
    wrong = 0
    for k in range(2, 5):
        counts = {(d, n): pt.count_admissible(k, 2, n, d)
                  for n in range(8) for d in range(15)}
        wrong += len(_mismatches(k, k + 1, 14, 7,
                                 lambda d, n: counts[d, n], plant=True))
    assert wrong > 0
