import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from oracles import count_syt, skew_count_by_corner_peeling, skew_syt_count_determinant
from permfix.errors import FirstRowGuardError
from permfix.partitions import Partition, all_partitions, dim, partition_tuples
from permfix.tableaux import (
    lattice_walk,
    plan_walk,
    single_row_sums,
    skew_syt_count,
    skew_syt_large_first_row,
)
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


def test_lattice_walk_levels_are_weighted_skew_counts_on_the_shapes_over_the_floor():
    for n in range(1, 8):
        for m in range(n + 1):
            for floor in all_partitions(m):
                top = {tuple(lam): j + 1 for j, lam in enumerate(all_partitions(n)) if lam.contains(floor)}
                levels = list(lattice_walk(top, tuple(floor)))
                assert len(levels) == n - m + 1
                for size, level in zip(range(n, m - 1, -1), levels):
                    assert all(Partition(mu).contains(floor) for mu in level)
                    expected = {
                        tuple(mu): sum(w * skew_count_by_corner_peeling(lam, tuple(mu)) for lam, w in top.items())
                        for mu in all_partitions(size)
                        if mu.contains(floor)
                    }
                    assert {mu: level.get(mu, 0) for mu in expected} == expected


@pytest.mark.parametrize("n", range(15))
def test_plan_sums_equal_the_lattice_walk_on_signed_weights(n):
    # The plan's first walk and its replays on fresh weights, against
    # lattice_walk's one-row sums; the weights include zeros and negatives.
    rng = random.Random(n)
    for a_max in range(n + 1):
        shapes = list(partition_tuples(n, n, n - a_max))
        top = [rng.choice((0, 0, 1, -1, 7, -10**30)) * rng.randrange(1, 100) for _ in shapes]
        plan, sums = plan_walk(shapes, top, n, a_max)
        assert sums == single_row_sums(dict(zip(shapes, top)), n, a_max)
        for _ in range(3):
            top = [rng.randrange(-10**20, 10**20) * rng.randrange(2) for _ in shapes]
            assert plan.single_row_sums(top) == single_row_sums(dict(zip(shapes, top)), n, a_max)


def test_determinant_agrees_with_branching():
    for n in range(0, 10):
        for outer in all_partitions(n):
            for inner in inner_shapes(outer):
                assert skew_syt_count_determinant(outer, inner) == skew_syt_count(
                    outer, inner
                )


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
