"""The factorial-moment engine against the per-order shape sums it replaced."""
from fractions import Fraction

import mpmath
import pytest
from mpmath import mp
from oracles import per_order_moment

from permfix.characters import CycleType, char_ratio_icycle, character
from permfix.moments import (
    _ratio_power,
    commutator_fixed_moments,
    commutator_random_moments,
    cutoff_steps,
    icycle_walk_moments,
    icycle_walk_moments_exact,
    moment_commutator_fixed,
    moment_commutator_random,
    moment_icycle_walk,
    moment_icycle_walk_exact,
)
from permfix.partitions import all_partitions, dim


@pytest.mark.parametrize("n", range(1, 13))
def test_commutator_random_engine_equals_per_order_sums(n):
    expected = [per_order_moment(n, r, lambda lam: Fraction(1, dim(lam))) for r in range(9)]
    assert commutator_random_moments(n, 8) == expected
    assert [moment_commutator_random(n, r) for r in range(9)] == expected


@pytest.mark.parametrize("n", range(1, 9))
def test_commutator_fixed_engine_equals_per_order_sums_on_every_class(n):
    for parts in all_partitions(n):
        x = CycleType(parts)

        def weight(lam):
            return Fraction(character(lam, x) ** 2, dim(lam))

        expected = [per_order_moment(n, r, weight) for r in range(7)]
        assert commutator_fixed_moments(n, x, 6) == expected
        assert [moment_commutator_fixed(n, x, r) for r in range(7)] == expected


@pytest.mark.parametrize("i", (2, 3))
@pytest.mark.parametrize("n", range(3, 9))
def test_exact_walk_engine_equals_per_order_sums(n, i):
    for k in range(7):

        def weight(lam):
            return dim(lam) * char_ratio_icycle(lam, i) ** k

        expected = [per_order_moment(n, r, weight) for r in range(7)]
        assert icycle_walk_moments_exact(n, i, k, 6) == expected
        assert [moment_icycle_walk_exact(n, i, k, r) for r in range(7)] == expected


@pytest.mark.parametrize("c", (-0.5, 0.0, 1.0))
@pytest.mark.parametrize("i", (2, 3))
@pytest.mark.parametrize("n", (500, 2000))
def test_float_walk_engine_equals_per_order_sums_at_128_bits(n, i, c):
    # Both sides share the shape weight; what differs is the summation
    # order, which the 40 guard bits must hide after rounding.
    k = cutoff_steps(n, i, c)

    def weight(lam):
        return mpmath.mpf(dim(lam)) * _ratio_power(char_ratio_icycle(lam, i), k)

    engine = icycle_walk_moments(n, i, k, 3)
    for r in range(4):
        with mp.workprec(128 + 40):
            guarded = per_order_moment(n, r, weight, mpmath.fsum)
        with mp.workprec(128):
            expected = +guarded
        assert engine[r] == expected
        assert moment_icycle_walk(n, i, k, r) == expected
