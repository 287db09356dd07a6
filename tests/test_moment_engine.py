"""The factorial-moment engine against the shape sums it replaced.

per_order_moment is the per-order sum the engine replaced first;
factorial_moments_by_skew_counts is its former per-(shape, a) route to
the factorial moments, which the lattice pass replaced.
"""
from fractions import Fraction

import mpmath
import pytest
from mpmath import mp
from oracles import factorial_moments_by_skew_counts, per_order_moment

from permfix.characters import CycleType, char_ratio_icycle, character
from permfix.moments import (
    _factorial_moments,
    _ratio_power,
    commutator_fixed_moments,
    commutator_random_moments,
    cutoff_steps,
    icycle_walk_moments,
    icycle_walk_moments_exact,
    moment_commutator_fixed,
    moment_commutator_random,
    moment_icycle_walk,
)
from permfix.partitions import all_partitions, dim, stratum_sizes
from permfix.setpartitions import stirling_row


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


@pytest.mark.parametrize("precision_bits", (53, 64, 256))
@pytest.mark.parametrize("c", (-0.5, 0.0, 1.0))
@pytest.mark.parametrize("i", (2, 3))
@pytest.mark.parametrize("n", (500, 2000))
def test_float_walk_engine_equals_per_order_sums_at_other_precisions(n, i, c, precision_bits):
    # As at 128 bits: the engine rounds once per moment at precision + 40
    # bits, the per-order route sums rounded products with fsum there.
    k = cutoff_steps(n, i, c)

    def weight(lam):
        return mpmath.mpf(dim(lam)) * _ratio_power(char_ratio_icycle(lam, i), k)

    engine = icycle_walk_moments(n, i, k, 3, precision_bits=precision_bits)
    for r in range(4):
        with mp.workprec(precision_bits + 40):
            guarded = per_order_moment(n, r, weight, mpmath.fsum)
        with mp.workprec(precision_bits):
            expected = +guarded
        assert engine[r] == expected


def _both_random(lam):
    return Fraction(1, dim(lam))


@pytest.mark.parametrize("n", range(0, 15))
def test_lattice_pass_equals_skew_count_route_for_both_random_weights(n):
    expected = factorial_moments_by_skew_counts(n, n, _both_random)
    # Every a_max, since the pass drops the shapes too short for (n - a_max).
    for a_max in range(n + 1):
        assert _factorial_moments(n, a_max, _both_random) == expected[: a_max + 1]


@pytest.mark.parametrize("i", (2, 3))
@pytest.mark.parametrize("n", range(3, 15))
def test_lattice_pass_equals_skew_count_route_for_exact_walk_weights(n, i):
    for k in range(7):

        def weight(lam):
            return dim(lam) * char_ratio_icycle(lam, i) ** k

        assert _factorial_moments(n, n, weight) == factorial_moments_by_skew_counts(n, n, weight)


@pytest.mark.parametrize("n", range(1, 11))
def test_lattice_pass_equals_skew_count_route_on_every_class(n):
    for parts in all_partitions(n):
        x = CycleType(parts)

        def weight(lam):
            return Fraction(character(lam, x) ** 2, dim(lam))

        assert _factorial_moments(n, n, weight) == factorial_moments_by_skew_counts(n, n, weight)


@pytest.mark.parametrize("c", (-0.5, 0.0, 1.0))
@pytest.mark.parametrize("i", (2, 3))
@pytest.mark.parametrize("n", (500, 2000, 16000))
def test_float_walk_lattice_pass_equals_fsum_route_at_128_bits(n, i, c):
    # The C11 grid (n = 500, 2000) and the exact-large-n benchmark's range
    # (n up to 16000). The pass sums exactly and rounds once; the former
    # route rounded every product and summed with fsum.
    k = cutoff_steps(n, i, c)

    def weight(lam):
        return mpmath.mpf(dim(lam)) * _ratio_power(char_ratio_icycle(lam, i), k)

    with mp.workprec(128 + 40):
        factorial_moments = factorial_moments_by_skew_counts(n, 3, weight, mpmath.fsum)
        guarded = [
            mpmath.fsum([s * f for s, f in zip(stirling_row(r), factorial_moments)])
            for r in range(4)
        ]
    with mp.workprec(128):
        expected = [+v for v in guarded]
    assert icycle_walk_moments(n, i, k, 3) == expected


@pytest.mark.parametrize("n", range(0, 21))
def test_engine_weighs_each_shape_of_its_strata_once(n):
    for a_max in range(n + 1):
        seen = []

        def weight(lam):
            seen.append(lam)
            return _both_random(lam)

        _factorial_moments(n, a_max, weight)
        assert len(seen) == len(set(seen)) == sum(stratum_sizes(n, a_max))


def test_empty_shape_carries_the_zeroth_factorial_moment():
    # At n = 0 the one-row shape (n - 0) is the empty shape, not (0,).
    assert commutator_fixed_moments(0, (), 3) == [1, 0, 0, 0]


@pytest.mark.parametrize("k, top", ((10**9, 2), (10**9 + 1, 0)))
def test_float_walk_far_past_mixing_reaches_the_alternating_law(k, top):
    # Here ratio^k spans about 10^8 binades, so all but the sign-like weights
    # fall below the engine's 3p-bit floor. After that many transpositions
    # the walk is uniform on A_12 or on its odd coset: F_a = 1 for a <= 10,
    # and F_11 = F_12 = 12! * P(identity) = 2 or 0.
    n, i = 12, 2

    def weight(lam):
        return mpmath.mpf(dim(lam)) * _ratio_power(char_ratio_icycle(lam, i), k)

    with mp.workprec(128 + 40):
        factorial_moments = _factorial_moments(n, n, weight)
    assert factorial_moments == [1] * 11 + [top, top]
