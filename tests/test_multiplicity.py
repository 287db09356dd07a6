import pytest
from hypothesis import given
from hypothesis import strategies as st

from permfix.errors import EnumerationLimitError, FirstRowGuardError
from permfix.laws import bell, stirling
from permfix.multiplicity import (
    mult_large_first_row,
    mult_oracle,
    mult_skew,
    mult_updown,
)
from permfix.partitions import all_partitions
from strategies import partitions


def test_first_power_table():
    for n in range(2, 10):
        assert mult_skew((n,), 1) == 1
        assert mult_skew((n - 1, 1), 1) == 1
        for lam in all_partitions(n):
            if tuple(lam) not in {(n,), (n - 1, 1)}:
                assert mult_skew(lam, 1) == 0


def test_second_power_table():
    for n in range(5, 10):
        assert mult_skew((n,), 2) == 2
        assert mult_skew((n - 1, 1), 2) == 3
        assert mult_skew((n - 2, 2), 2) == 1
        assert mult_skew((n - 2, 1, 1), 2) == 1


def test_zeroth_power_is_trivial():
    for n in range(1, 8):
        for lam in all_partitions(n):
            expected = 1 if lam == (n,) else 0
            assert mult_skew(lam, 0) == expected
            assert mult_updown(lam, 0) == expected


def test_two_cell_column_against_stirling():
    for r in range(0, 9):
        assert mult_skew((2,), r) == stirling(r, 0) + stirling(r, 1) + stirling(r, 2)


def test_updown_examples():
    assert mult_updown((6,), 0) == 1
    assert mult_updown((5, 1), 1) == 1
    assert mult_updown((4, 1, 1), 2) == 1


def test_skew_and_updown_agree_medium():
    for n in range(7, 9):
        for lam in all_partitions(n):
            for r in range(0, 7):
                assert mult_skew(lam, r) == mult_updown(lam, r), (tuple(lam), r)


def test_first_row_formula_on_its_domain():
    for n in range(1, 9):
        for lam in all_partitions(n):
            second = lam[1] if len(lam) > 1 else 0
            for r in range(1, n - second + 1):
                assert mult_large_first_row(lam, r) == mult_skew(lam, r)


def test_first_row_formula_on_one_row_is_bell():
    for n in range(2, 9):
        for r in range(1, n + 1):
            assert mult_large_first_row((n,), r) == bell(r)


def test_first_row_guard():
    with pytest.raises(FirstRowGuardError):
        mult_large_first_row((3, 3), 4)
    with pytest.raises(FirstRowGuardError):
        mult_large_first_row((4, 1), 0)


def test_oracle_examples():
    assert mult_oracle((3,), 2) == 2
    assert mult_oracle((2, 1), 2) == 3
    assert mult_oracle((1, 1, 1), 2) == 1


def test_oracle_size_limit():
    with pytest.raises(EnumerationLimitError):
        mult_oracle((8,), 1)


@given(partitions(min_n=1, max_n=10), st.integers(min_value=0, max_value=6))
def test_support_is_the_large_first_row_stratum(lam, r):
    value = mult_skew(lam, r)
    assert value >= 0
    if lam[0] < lam.n - r:
        assert value == 0
    elif r >= 1:
        assert value >= 1
