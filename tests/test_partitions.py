import gc
import random

import pytest

from wheelmac import partitions as pt


def test_conjugate_examples():
    assert pt.conjugate((3, 1)) == (2, 1, 1)
    assert pt.conjugate(()) == ()
    assert pt.conjugate((2, 2)) == (2, 2)


def test_conjugate_involution_random():
    rng = random.Random(0)
    for _ in range(1000):
        parts = sorted((rng.randint(0, 8) for _ in range(rng.randint(0, 6))),
                       reverse=True)
        lam = pt.normalize(parts)
        assert pt.conjugate(pt.conjugate(lam)) == lam
        assert pt.size(pt.conjugate(lam)) == pt.size(lam)


def test_dominance():
    assert pt.dominance_leq((1, 1), (2, 0))
    assert not pt.dominance_leq((2, 0), (1, 1))
    assert pt.dominance_leq((2, 1, 1), (3, 1))
    with pytest.raises(ValueError):
        pt.dominance_leq((2,), (1, 1, 1))


def test_add_remove_node():
    assert pt.add_node((2, 1), 1) == (3, 1)
    assert pt.add_node((2, 2), 1) == (3, 2)
    with pytest.raises(ValueError):
        pt.add_node((2, 2), 2)
    assert pt.remove_node((2, 1), 2) == (2,)
    with pytest.raises(ValueError):
        pt.remove_node((2, 2), 1)
    with pytest.raises(ValueError):
        pt.remove_node((2,), 2)


def test_addable_and_removable_rows():
    assert pt.addable_rows(()) == [1]
    assert pt.removable_rows(()) == []
    assert pt.addable_rows((2, 2, 1)) == [1, 3, 4]
    assert pt.removable_rows((2, 2, 1)) == [2, 3]
    for j in (0, -1, 5):
        with pytest.raises(ValueError):
            pt.add_node((2, 2, 1), j)
    # a row is addable (removable) exactly when one more (one less) node
    # there leaves the parts weakly decreasing
    for d in range(7):
        for lam in pt.enumerate_partitions(d, d):
            for j in range(1, len(lam) + 3):
                parts = list(lam) + [0, 0]
                parts[j - 1] += 1
                assert (j in pt.addable_rows(lam)) == (parts == sorted(
                    parts, reverse=True)), (lam, j)
            for j in range(1, len(lam) + 1):
                parts = list(lam)
                parts[j - 1] -= 1
                assert (j in pt.removable_rows(lam)) == (parts == sorted(
                    parts, reverse=True)), (lam, j)


def test_add_remove_inverse():
    rng = random.Random(5)
    for _ in range(200):
        lam = pt.normalize(sorted((rng.randint(0, 6) for _ in range(4)),
                                  reverse=True))
        for j in range(1, len(lam) + 2):
            try:
                mu = pt.add_node(lam, j)
            except ValueError:
                continue
            assert pt.remove_node(mu, j) == lam


def test_is_admissible():
    assert pt.is_admissible((2, 0), 1, 2, 2)
    assert not pt.is_admissible((1, 1), 1, 2, 2)
    assert pt.is_admissible((6, 3, 3, 0), 2, 3, 4)


def test_enumerate_partitions():
    assert pt.enumerate_partitions(2, 2) == [(2,), (1, 1)]
    assert pt.enumerate_partitions(1, 5) == [(5,)]
    assert pt.enumerate_partitions(3, 3) == [(3,), (2, 1), (1, 1, 1)]
    assert pt.enumerate_partitions(3, 0) == [()]
    assert pt.enumerate_partitions(0, 1) == []
    # decreasing lexicographic on padded tuples
    for n, d in [(4, 6), (5, 8)]:
        plist = [pt.pad(x, n) for x in pt.enumerate_partitions(n, d)]
        assert plist == sorted(plist, reverse=True)


def test_enumerate_partitions_leaves_no_reference_cycle():
    gc.collect()
    gc.disable()
    try:
        for d in range(10):
            pt.enumerate_partitions(4, d)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_enumerate_admissible():
    assert pt.enumerate_admissible(1, 2, 2, 2) == [(2,)]
    assert pt.enumerate_admissible(1, 2, 2, 1) == []
    assert pt.enumerate_admissible(1, 2, 1, 0) == [()]
    for d in range(1, 6):
        # no constraint when n <= k
        assert pt.enumerate_admissible(1, 2, 1, d) == [(d,)]


def test_admissible_count_monotonicity():
    # a (k,r)-admissible partition is (k+1,r)- and (k,r-1)-admissible, so
    # the counts grow with k and shrink with r
    for n in range(1, 5):
        for d in range(9):
            for r in (2, 3):
                counts = [pt.count_admissible(k, r, n, d) for k in (1, 2, 3)]
                assert counts[0] <= counts[1] <= counts[2]
            for k in (1, 2):
                cr = [pt.count_admissible(k, r, n, d) for r in (2, 3, 4)]
                assert cr[0] >= cr[1] >= cr[2]


def test_lemma21_examples():
    assert pt.check_lemma21((2, 0), 1, 2, 2)
    assert pt.check_lemma21((4, 2, 0), 1, 2, 3)
    # a non-admissible lam fails it: (1, 1) breaks the (1, 2) window
    assert not pt.is_admissible((1, 1), 1, 2, 2)
    assert not pt.check_lemma21((1, 1), 1, 2, 2)


def test_lemma21_admissible_grid_small():
    for (k, r) in [(1, 2), (1, 3), (2, 2), (2, 3), (3, 3)]:
        for n in range(1, 5):
            for d in range(9):
                for lam in pt.enumerate_admissible(k, r, n, d):
                    assert pt.check_lemma21(lam, k, r, n), (k, r, n, lam)


def test_partition_wire_format():
    assert pt.parse_partition("3,1,0") == (3, 1)
    assert pt.parse_partition("") == ()
    assert pt.format_partition((3, 1), 3) == "3,1,0"
    assert pt.format_partition(()) == ""
    with pytest.raises(ValueError):
        pt.parse_partition("1,2")
