from collections import Counter
from math import factorial

import pytest
from hypothesis import given
from hypothesis import strategies as st

from oracles import bounded_partitions_recursive, count_syt, dim_branching, dim_hook_product
from permfix.partitions import (
    Partition,
    all_partitions,
    bounded_partitions,
    conjugate,
    dim,
    frobenius,
    partition_tuples,
    partitions_with_large_first_row,
    stratum_sizes,
)
from strategies import partitions

PARTITION_COUNTS = [1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42]


def test_partition_rejects_bad_parts():
    with pytest.raises(ValueError):
        Partition((1, 2))
    with pytest.raises(ValueError):
        Partition((2, 0))
    with pytest.raises(ValueError):
        Partition((2, -1))


def test_partition_is_hashable_and_tuple_like():
    lam = Partition((3, 1))
    assert lam == (3, 1)
    assert hash(lam) == hash((3, 1))
    assert lam.n == 4


@given(partitions())
def test_conjugate_is_an_involution(lam):
    assert conjugate(conjugate(lam)) == lam


def test_conjugate_examples():
    assert conjugate((5,)) == (1, 1, 1, 1, 1)
    assert conjugate((2, 1)) == (2, 1)
    assert conjugate((3, 1)) == (2, 1, 1)


def test_frobenius_examples():
    assert frobenius((1,)) == ([0], [0])
    assert frobenius((6,)) == ([5], [0])
    assert frobenius((3, 2)) == ([2, 0], [1, 0])


@given(partitions(min_n=1))
def test_frobenius_coordinates_recover_size(lam):
    arms, legs = frobenius(lam)
    assert len(arms) == len(legs) == lam.diagonal_size()
    assert all(arms[j] > arms[j + 1] for j in range(len(arms) - 1))
    assert all(legs[j] > legs[j + 1] for j in range(len(legs) - 1))
    assert sum(a + b + 1 for a, b in zip(arms, legs)) == lam.n


def test_dim_examples():
    assert dim(()) == 1
    assert dim((2, 1)) == 2
    for n in range(6, 10):
        assert dim((n,)) == 1
        assert dim((n - 1, 1)) == n - 1


def test_dim_matches_explicit_enumeration_small():
    for n in range(1, 8):
        for lam in all_partitions(n):
            assert dim(lam) == count_syt(tuple(lam))


def test_dim_matches_branching_recursion():
    for n in range(0, 10):
        for lam in all_partitions(n):
            assert dim(lam) == dim_branching(tuple(lam))


def test_dim_squares_sum_to_factorial():
    for n in range(0, 11):
        assert sum(dim(lam) ** 2 for lam in all_partitions(n)) == factorial(n)


@given(partitions(max_n=10))
def test_dim_is_conjugation_invariant(lam):
    assert dim(lam) == dim(conjugate(lam))


def test_dim_matches_hook_product_every_shape_small():
    for n in range(0, 15):
        for lam in all_partitions(n):
            assert dim(lam) == dim_hook_product(lam), lam


@pytest.mark.parametrize("n", [50, 300, 2000])
def test_dim_matches_hook_product_long_first_row(n):
    for lam in partitions_with_large_first_row(n, 6):
        assert dim(lam) == dim_hook_product(lam), lam


@pytest.mark.parametrize(
    "lam",
    [(1,) * 200, (2,) * 100, (3,) * 40 + (1,) * 80, (5, 5, 2), (7, 7, 7, 7)],
)
def test_dim_matches_hook_product_equal_first_rows(lam):
    assert dim(lam) == dim_hook_product(lam)


def test_dim_near_one_row_at_a_million():
    n = 10**6
    assert dim((n - 1, 1)) == n - 1
    assert dim((n - 2, 2)) == n * (n - 3) // 2
    assert dim((n - 2, 1, 1)) == (n - 1) * (n - 2) // 2


def test_all_partitions_counts():
    for n, p_n in enumerate(PARTITION_COUNTS):
        assert len(list(all_partitions(n))) == p_n


def test_all_partitions_reverse_lexicographic():
    for n in range(1, 9):
        seq = [tuple(lam) for lam in all_partitions(n)]
        assert seq[0] == (n,)
        assert all(seq[i] > seq[i + 1] for i in range(len(seq) - 1))
        assert all(sum(lam) == n for lam in seq)


def test_large_first_row_examples():
    assert [tuple(p) for p in partitions_with_large_first_row(5, 0)] == [(5,)]
    assert [tuple(p) for p in partitions_with_large_first_row(5, 1)] == [(5,), (4, 1)]
    assert [tuple(p) for p in partitions_with_large_first_row(6, 2)] == [
        (6,),
        (5, 1),
        (4, 2),
        (4, 1, 1),
    ]


@given(st.integers(min_value=0, max_value=11), st.integers(min_value=0, max_value=11))
def test_large_first_row_is_the_right_stratum(n, t_max):
    got = set(partitions_with_large_first_row(n, t_max))
    expected = {lam for lam in all_partitions(n) if not lam or lam[0] >= n - t_max}
    assert got == expected
    assert all(lam[0] >= n - t_max for lam in got if lam)


def test_strata_cover_all_partitions():
    for n in range(1, 10):
        assert set(partitions_with_large_first_row(n, n)) == set(all_partitions(n))


def test_bounded_partitions_respects_cap():
    for cap in range(1, 6):
        for lam in bounded_partitions(6, cap):
            assert all(p <= cap for p in lam)


def test_stratum_sizes_count_the_large_first_row_shapes():
    for n in range(0, 13):
        for t_max in range(-1, n + 2):
            firsts = Counter(lam[0] if lam else 0 for lam in partitions_with_large_first_row(n, t_max))
            assert list(stratum_sizes(n, t_max)) == [firsts[n - t] for t in range(len(firsts))]
    assert sum(stratum_sizes(10**6, 40)) == 215308


@pytest.mark.parametrize("n", range(0, 26))
def test_iterative_enumerator_equals_the_recursive_one(n):
    for cap in range(0, n + 2):
        expected = list(bounded_partitions_recursive(n, cap))
        assert list(partition_tuples(n, cap)) == expected
        assert list(bounded_partitions(n, cap)) == expected
    # A first-part floor cuts the full list short at the same place.
    everything = list(bounded_partitions_recursive(n, n))
    for first_min in range(0, n + 2):
        expected = [lam for lam in everything if sum(lam[:1]) >= first_min]
        assert list(partition_tuples(n, n, first_min)) == expected
        assert list(partitions_with_large_first_row(n, n - first_min)) == expected


def test_enumerator_yields_plain_tuples_and_wrappers_yield_partitions():
    assert all(type(lam) is tuple for lam in partition_tuples(7, 7))
    for shapes in (all_partitions(7), bounded_partitions(7, 3), partitions_with_large_first_row(7, 3)):
        assert all(type(lam) is Partition for lam in shapes)
