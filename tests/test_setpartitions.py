from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from oracles import set_partitions
from permfix.setpartitions import (
    bell,
    occupancy_probability,
    poisson_moment,
    stirling,
    stirling_columns,
    stirling_row,
)
from permfix.verify import GATES


def test_stirling_base_cases():
    assert stirling(0, 0) == 1
    assert stirling(2, 2) == 1
    assert stirling(4, 2) == 7
    for r in range(1, 10):
        assert stirling(r, 0) == 0
        assert stirling(r, 1) == 1
        assert stirling(r, r) == 1
    assert stirling(3, 5) == 0


@given(st.integers(min_value=1, max_value=40), st.integers(min_value=1, max_value=40))
def test_stirling_recurrence(r, a):
    assert stirling(r, a) == a * stirling(r - 1, a) + stirling(r - 1, a - 1)


def test_stirling_matches_enumeration():
    for r in range(0, 11):
        blocks = {}
        for sp in set_partitions(tuple(range(r))):
            blocks[len(sp)] = blocks.get(len(sp), 0) + 1
        for a in range(0, r + 1):
            assert stirling(r, a) == blocks.get(a, 0)
        assert bell(r) == sum(blocks.values())


def test_bell_examples():
    assert bell(0) == 1
    assert bell(3) == 5
    assert bell(4) == 15


def test_poisson_unit_moments_are_bell():
    assert GATES["poisson-unit-moments-are-bell"].run({"rs": range(21)}).passed


def test_poisson_moment_examples():
    assert poisson_moment(1, Fraction(7, 3)) == Fraction(7, 3)
    assert poisson_moment(2, Fraction(1, 2)) == Fraction(3, 4)
    assert 2 ** 2 * poisson_moment(2, Fraction(1, 2)) == 3


def test_poisson_moment_accepts_floats():
    assert poisson_moment(2, 0.5) == pytest.approx(0.75)


def test_occupancy_examples():
    assert occupancy_probability(1, 1, 5) == 1
    assert occupancy_probability(2, 2, 2) == Fraction(1, 2)
    assert occupancy_probability(1, 2, 2) == Fraction(1, 2)
    assert occupancy_probability(3, 2, 7) == 0
    assert occupancy_probability(-1, 2, 7) == 0


def test_occupancy_normalization():
    assert GATES["occupancy-normalization"].run({"ns": range(1, 13), "rs": range(13)}).passed


def test_occupancy_by_direct_enumeration():
    for r in range(0, 5):
        for n in range(1, 5):
            counts = {}
            total = n ** r
            for code in range(total):
                cells = set()
                rem = code
                for _ in range(r):
                    cells.add(rem % n)
                    rem //= n
                a = len(cells)
                counts[a] = counts.get(a, 0) + 1
            for a, c in counts.items():
                assert occupancy_probability(a, r, n) == Fraction(c, total)


def test_stirling_row_shape():
    assert stirling_row(4) == (0, 1, 7, 6, 1)


@pytest.mark.parametrize("r", range(41))
def test_stirling_columns_equal_the_table_row(r):
    row = list(stirling_row(r))
    for a_max in range(r + 3):
        assert stirling_columns(r, a_max) == (row + [0, 0])[: a_max + 1]
