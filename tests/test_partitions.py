from collections import Counter
from math import factorial

import pytest
from hypothesis import given
from hypothesis import strategies as st

from oracles import (
    bounded_partitions_recursive,
    count_syt,
    dim_branching,
    dim_first_row_cancelled,
    dim_hook_product,
    stratum_sizes,
)
from permfix.partitions import (
    Partition,
    all_partitions,
    conjugate,
    dim,
    large_first_row_tuples,
    partition_tuples,
    partitions_with_large_first_row,
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
    # f^lam = sum over the corners of f^(lam - corner), every shape of n <= 20.
    for n in range(0, 21):
        for lam in partition_tuples(n, n):
            assert dim(lam) == dim_branching(lam)


@pytest.mark.parametrize("n, t_max", [(1000, 12), (10**6, 8)])
def test_dim_matches_the_first_row_cancelled_formula_at_large_n(n, t_max):
    for lam in large_first_row_tuples(n, t_max):
        assert dim(lam) == dim_first_row_cancelled(lam), lam


@pytest.mark.parametrize("lam", [(1, 2), (2, 0), (2, -1), (0,), (2.5, 1), (3, "1"), (2, 2, 3, 1)])
def test_dim_rejects_what_is_not_a_partition(lam):
    with pytest.raises(ValueError):
        dim(lam)


def test_dim_keeps_no_memo():
    assert not hasattr(dim, "cache_info")


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


def test_partition_tuples_respects_cap():
    for cap in range(1, 6):
        for lam in partition_tuples(6, cap):
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
    # The strata of at most t_max cells under the first row are a head of
    # the full list, in its order, as plain tuples.
    everything = list(bounded_partitions_recursive(n, n))
    for t_max in range(-1, n + 2):
        expected = [lam for lam in everything if sum(lam[:1]) >= n - t_max]
        strata = list(large_first_row_tuples(n, t_max))
        assert strata == expected
        assert all(type(lam) is tuple for lam in strata)
        assert list(partitions_with_large_first_row(n, t_max)) == expected


def test_enumerator_yields_plain_tuples_and_wrappers_yield_partitions():
    assert all(type(lam) is tuple for lam in partition_tuples(7, 3))
    for shapes in (all_partitions(7), partitions_with_large_first_row(7, 3)):
        assert all(type(lam) is Partition for lam in shapes)
