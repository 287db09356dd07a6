import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from oracles import count_syt, skew_count_by_corner_peeling, skew_syt_count_determinant
from permfix.errors import FirstRowGuardError
from permfix.partitions import Partition, all_partitions, dim, large_first_row_tuples
from permfix import tableaux
from permfix.tableaux import LatticePlan, skew_syt_count, skew_syt_large_first_row
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


def _targets(floor: tuple, height: int) -> list[tuple]:
    """Each level's target, top first: floor with the level's extra cells added to its first row."""
    row, rest = (floor[0], floor[1:]) if floor else (0, ())
    return [((row + extra,) if row + extra else ()) + rest for extra in range(height, -1, -1)]


def _expected_sums(top: dict, floor: tuple) -> list[int]:
    height = sum(next(iter(top))) - sum(floor)
    return [sum(w * skew_count_by_corner_peeling(lam, target) for lam, w in top.items())
            for target in _targets(floor, height)]


def test_plan_sums_are_weighted_skew_counts_at_every_target_over_every_floor():
    for n in range(1, 8):
        for m in range(n + 1):
            for floor in map(tuple, all_partitions(m)):
                shapes = [tuple(lam) for lam in all_partitions(n) if lam.contains(floor)]
                top = {lam: j + 1 for j, lam in enumerate(shapes)}
                plan = LatticePlan(shapes, floor)
                assert plan.sums(list(top.values())) == _expected_sums(top, floor)
                # Every shape of a level size that contains floor lies under this top,
                # and the levels hold those shapes alone.
                assert [size for _, _, size in plan.levels] == [
                    sum(mu.contains(floor) for mu in all_partitions(s)) for s in range(n - 1, m - 1, -1)
                ]
                # One-shape tops, where a level may lack its target.
                for lam in shapes:
                    assert LatticePlan([lam], floor).sums([1]) == _expected_sums({lam: 1}, floor)


@pytest.mark.parametrize("n", range(15))
def test_plan_sums_on_the_engine_tops_equal_corner_peeling_on_signed_weights(n):
    # The engine's tops: every shape of n with first part >= n - a_max,
    # over the floor (n - a_max). The weights include zeros and -10^30,
    # and one plan serves several sets of weights.
    rng = random.Random(n)
    for a_max in range(n + 1):
        shapes = list(large_first_row_tuples(n, a_max))
        floor = (n - a_max,) if a_max < n else ()
        assert _targets(floor, a_max) == [(n - a,) if a < n else () for a in range(a_max + 1)]
        plan = LatticePlan(shapes, floor)
        for _ in range(3):
            top = [rng.choice((0, 0, 1, -1, 7, -10**30)) * rng.randrange(1, 100) for _ in shapes]
            assert plan.sums(top) == _expected_sums(dict(zip(shapes, top)), floor)


def test_levels_wider_than_the_top_get_indices_as_wide_as_their_own_size(monkeypatch):
    plan = LatticePlan([(4, 3, 2, 1)], ())
    assert plan.sums([1]) == _expected_sums({(4, 3, 2, 1): 1}, ())
    assert plan.sums([1])[-1] == dim((4, 3, 2, 1))
    assert max(size for _, _, size in plan.levels) > 1
    # With 1-byte indices up to 2^8 shapes, a one-shape top whose levels
    # reach past 2^8 shapes needs wider indices below; the bottom target
    # of the empty floor reads the dimension.
    monkeypatch.setattr(tableaux, "_typecode", lambda size: "B" if size <= 1 << 8 else "H")
    staircase = tuple(range(9, 0, -1))
    plan = LatticePlan([staircase], ())
    sizes = [1] + [size for _, _, size in plan.levels]
    assert max(sizes) > 1 << 8
    assert plan.sums([1])[-1] == dim(staircase)
    for (parents, children, _), above, below in zip(plan.levels, sizes, sizes[1:]):
        assert (parents.typecode, children.typecode) == (
            "B" if above <= 1 << 8 else "H", "B" if below <= 1 << 8 else "H")


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
