from math import comb

import pytest
from hypothesis import given
from hypothesis import strategies as st

from oracles import count_syt, skew_count_by_corner_peeling
from permfix.errors import FirstRowGuardError
from permfix.partitions import Partition, all_partitions, dim
from permfix.tableaux import one_row_counts, row_terms, skew_syt_count, skew_syt_large_first_row
from strategies import partitions


def inner_shapes(outer):
    """Every partition contained in outer."""
    outer = tuple(outer)
    if not outer:
        yield ()
        return
    for first in range(outer[0] + 1):
        for rest in inner_shapes(tuple(min(p, first) for p in outer[1:])):
            candidate = (first, *rest) if first else ()
            yield tuple(p for p in candidate if p)


def test_single_row_strips_count_one():
    for n in range(1, 9):
        for a in range(0, n + 1):
            assert skew_syt_count((n,), (n - a,) if n - a else ()) == 1


def test_small_examples():
    assert skew_syt_count((3, 1), (2,)) == 2
    assert skew_syt_count((1, 1), (2,)) == 0
    assert skew_syt_count((2, 2), (2, 2)) == 1


def test_whole_shape_reduces_to_dim():
    for n in range(0, 10):
        for lam in all_partitions(n):
            assert skew_syt_count(lam) == dim(lam)
    # Eleven rows of this shape of 100210 cells have m_i <= n; n!/m_i! is a short perm.
    lam = (100000,) + tuple(range(20, 0, -1))
    assert skew_syt_count(lam) == dim(lam)


def test_matches_explicit_enumeration():
    for n in range(1, 7):
        for outer in all_partitions(n):
            for inner in inner_shapes(outer):
                assert skew_syt_count(outer, inner) == count_syt(tuple(outer), inner)


def test_branching_consistency():
    for n in range(1, 9):
        for outer in all_partitions(n):
            for inner in inner_shapes(outer):
                if outer == Partition(inner):
                    continue
                total = 0
                for i in range(len(outer)):
                    if i + 1 < len(outer) and outer[i] == outer[i + 1]:
                        continue
                    smaller = list(outer)
                    smaller[i] -= 1
                    smaller = tuple(p for p in smaller if p)
                    if Partition(smaller).contains(inner):
                        total += skew_syt_count(smaller, inner)
                assert total == skew_syt_count(outer, inner)


@pytest.mark.parametrize("n", range(15))
def test_row_terms_give_corner_peeling_for_every_shape_and_a(n):
    for lam in map(tuple, all_partitions(n)):
        f = dim(lam)
        terms = row_terms(lam, f, n)
        pairs = list(zip(terms[::2], terms[1::2]))
        expected = [skew_count_by_corner_peeling(lam, (n - a,) if a < n else ()) for a in range(n + 1)]
        sums = [0] * (n + 1)
        for m, c in pairs:
            sums[m] += c
        assert one_row_counts(sums) == expected
        # A lower a_max keeps the rows up to it, and their sum is the count at a.
        for a in range(n + 1):
            kept = [(m, c) for m, c in pairs if m <= a]
            assert row_terms(lam, f, a) == tuple(x for pair in kept for x in pair)
            assert sum(comb(a, m) * c for m, c in kept) == expected[a]


def test_the_empty_shape_has_one_term_and_a_wrong_dim_raises():
    assert row_terms((), 1, 0) == (0, 1)
    assert skew_syt_count(()) == 1
    # Row 2 of (2, 2) has m_2 = 3, beta_2 = 2; its kappa, (3,), has dim 2 * 2! / (4!/3!) = 1.
    assert row_terms((2, 2), 2, 3) == (2, 1, 3, -1)
    with pytest.raises(ArithmeticError, match="not an integer"):
        row_terms((2, 2), 3, 3)


def test_skew_counts_agree_with_corner_peeling_for_every_inner_shape():
    # Inner shapes of two rows or more take Aitken's whole determinant.
    for n in range(0, 10):
        for outer in map(tuple, all_partitions(n)):
            for inner in inner_shapes(outer):
                assert skew_syt_count(outer, inner) == skew_count_by_corner_peeling(outer, inner)


def test_large_first_row_examples():
    for n in range(3, 9):
        assert skew_syt_large_first_row((n - 1, 1), 1) == 1
        assert skew_syt_large_first_row((n,), 3) == 1
    assert skew_syt_large_first_row((6, 2), 3) == 3


def test_large_first_row_matches_skew_count():
    for n in range(1, 10):
        for lam in all_partitions(n):
            second = lam[1] if len(lam) > 1 else 0
            for a in range(0, n - second + 1):
                inner = (n - a,) if n - a else ()
                assert skew_syt_large_first_row(lam, a) == skew_syt_count(lam, inner)


def test_large_first_row_guard():
    with pytest.raises(FirstRowGuardError):
        skew_syt_large_first_row((3, 3), 4)
    with pytest.raises(FirstRowGuardError):
        skew_syt_large_first_row((4, 1), 6)


@given(partitions(max_n=10), st.integers(min_value=0, max_value=12))
def test_single_row_inner_never_negative(lam, a):
    inner = (lam.n - a,) if lam.n - a > 0 else ()
    assert skew_syt_count(lam, inner) >= 0
