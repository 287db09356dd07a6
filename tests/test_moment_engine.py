"""The factorial-moment engine against the shape sums it replaced.

per_order_moment is the per-order sum the engine replaced first;
factorial_moments_by_skew_counts is its former per-(shape, a) route to
the factorial moments, which the sums of Aitken's row terms replaced.
Both take Fraction weights of the shape alone, while the engine's weights
take the shape and its dim and give a rational as an integer (numerator,
denominator) pair.
"""
import tracemalloc
from fractions import Fraction
from math import comb

import mpmath
import pytest
from mpmath import mp
from oracles import (
    character_recursive,
    factorial_moments_by_skew_counts,
    moments_by_fraction_weights,
    per_order_moment,
    stratum_sizes,
)
from test_acceptance import TIER1

from permfix import limits, moments
from permfix.characters import CycleType, char_ratio_icycle, character
from permfix.errors import ValidationError
from permfix.laws import stirling_row
from permfix.limits import MAX_ORDER
from permfix.moments import (
    _factorial_moments,
    _moments,
    _ratio_power,
    _walk_weight,
    commutator_fixed_moments,
    commutator_random_moments,
    cutoff_steps,
    icycle_walk_moments,
    icycle_walk_moments_exact,
    moment_commutator_fixed,
    moment_commutator_random,
    moment_icycle_walk,
    uniform_moments,
    walk_exact_distribution,
)
from permfix.partitions import all_partitions, dim, large_first_row_tuples, partition_tuples


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


def _both_random(lam, f):
    return (1, f)


def _both_random_fraction(lam):
    return Fraction(1, dim(lam))


@pytest.mark.parametrize("n", range(0, 15))
def test_row_expansion_equals_skew_count_route_for_both_random_weights(n):
    expected = factorial_moments_by_skew_counts(n, n, _both_random_fraction)
    # Every a_max, since the engine drops the shapes too short for (n - a_max).
    for a_max in range(n + 1):
        assert _factorial_moments(n, a_max, _both_random) == expected[: a_max + 1]


@pytest.mark.parametrize("i", (2, 3))
@pytest.mark.parametrize("n", range(3, 15))
def test_row_expansion_equals_skew_count_route_for_exact_walk_weights(n, i):
    for k in range(7):

        def weight(lam):
            return dim(lam) * char_ratio_icycle(lam, i) ** k

        expected = factorial_moments_by_skew_counts(n, n, weight)
        assert _factorial_moments(n, n, lambda lam, f: _walk_weight(lam, f, i, k)) == expected


@pytest.mark.parametrize("n", range(1, 11))
def test_row_expansion_equals_skew_count_route_on_every_class(n):
    for parts in all_partitions(n):
        x = CycleType(parts)

        def weight(lam):
            return Fraction(character(lam, x) ** 2, dim(lam))

        expected = factorial_moments_by_skew_counts(n, n, weight)
        assert _factorial_moments(n, n, lambda lam, f: (character(lam, x) ** 2, f)) == expected


@pytest.mark.parametrize("n", range(1, 11))
def test_commutator_engines_equal_the_fraction_weight_oracle(n):
    assert commutator_random_moments(n, n) == moments_by_fraction_weights(n, n, _both_random_fraction)
    # Every class at one n repeats the engine's key, so all but the first
    # run on its latest table.
    for parts in all_partitions(n):
        x = CycleType(parts)

        def weight(lam):
            return Fraction(character(lam, x) ** 2, dim(lam))

        assert commutator_fixed_moments(n, x, n) == moments_by_fraction_weights(n, n, weight)


@pytest.mark.parametrize("i", (2, 3))
@pytest.mark.parametrize("n", range(3, 11))
def test_exact_walk_engine_equals_the_fraction_weight_oracle(n, i):
    for k in range(7):

        def weight(lam):
            return dim(lam) * char_ratio_icycle(lam, i) ** k

        assert icycle_walk_moments_exact(n, i, k, n) == moments_by_fraction_weights(n, n, weight)


def test_engine_holds_one_table_for_its_latest_key_and_builds_none_past_the_shape_cap(monkeypatch):
    # Each table is admitted once, so the admissions count the builds. The
    # engine reads limits.engine_shapes off the module; character, which
    # the oracle below calls, holds its own reference and is not counted.
    built = []
    engine_shapes = limits.engine_shapes

    def shapes(n, t_max, request):
        built.append((n, t_max))
        return engine_shapes(n, t_max, request)

    monkeypatch.setattr(limits, "engine_shapes", shapes)
    moments._engine_table.cache_clear()
    first = commutator_fixed_moments(9, (3, 3, 2, 1), 9)
    # The same key, with other weights: the table serves them.
    assert commutator_fixed_moments(9, (5, 4), 9) == moments_by_fraction_weights(
        9, 9, lambda lam: Fraction(character(lam, (5, 4)) ** 2, dim(lam)))
    assert commutator_fixed_moments(9, (3, 3, 2, 1), 9) == first
    assert built == [(9, 9)]
    # A new key (here a lower order) builds again and replaces the table.
    assert commutator_fixed_moments(9, (3, 3, 2, 1), 4) == first[:5]
    commutator_fixed_moments(9, (5, 4), 4)
    assert built == [(9, 9), (9, 4)]
    assert moments._engine_table.cache_info().currsize == 1
    # Past the cap the engine enumerates cap + 1 shapes and stops: it
    # computes no row terms, and keeps the table it held.
    def refused(*args):
        raise AssertionError("row terms computed past the shape cap")

    monkeypatch.setattr(moments, "row_terms", refused)
    with pytest.raises(ValidationError, match="shapes accepted"):
        _moments(10**6, 40, _both_random)
    assert built == [(9, 9), (9, 4), (10**6, 40)]
    assert commutator_fixed_moments(9, (3, 3, 2, 1), 4) == first[:5]
    assert len(built) == 3 and moments._engine_table.cache_info().currsize == 1


def test_a_new_engine_key_peaks_no_higher_than_the_first_table():
    # The held table is dropped before a new key's table is built. Held
    # through the build, it took the second call's traced peak from 2.2 MB
    # to 4.1 MB here, and from 19.7 MB to 30.5 MB for
    # commutator_random_moments at (40, 40) then (40, 39).
    moments._engine_table.cache_clear()
    tracemalloc.start()
    try:
        _moments(30, 30, lambda lam, f: (1, 1))
        first = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        _moments(30, 29, lambda lam, f: (1, 1))
        second = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert second <= first + 2**20, (first, second)


def test_a_zero_character_shape_weighs_zero_over_one_and_the_moments_stay():
    x = CycleType((2,) * 5)
    weight = moments._commutator_fixed_weight(x, 10)
    zeros = [lam for lam in partition_tuples(10, 10) if character(lam, x) == 0]
    assert len(zeros) == 6
    assert all(weight(lam, dim(lam)) == (0, 1) for lam in zeros)
    # The same moments as the weight that keeps every dim in the denominator.
    assert commutator_fixed_moments(10, x, 10) == _moments(
        10, 10, lambda lam, f: (character(lam, x) ** 2, f))


def _poisson_one_plus_twice_poisson_half(r_max: int) -> list[Fraction]:
    """Moments r = 0..r_max of Y + 2Z, with Y ~ Poisson(1) and Z ~ Poisson(1/2) independent."""
    rows = [stirling_row(r) for r in range(r_max + 1)]
    y = [sum(row) for row in rows]
    z = [sum(Fraction(s, 2 ** a) for a, s in enumerate(row)) for row in rows]
    return [sum(comb(r, j) * y[j] * 2 ** (r - j) * z[r - j] for j in range(r + 1))
            for r in range(r_max + 1)]


@pytest.mark.parametrize("n, r_max, equal", [(40, 20, True), (41, 20, True), (1000, 31, True),
                                             (10**6, 12, True), (40, 21, False)])
def test_unit_weight_moments_are_those_of_poisson_one_plus_twice_poisson_half(n, r_max, equal):
    # With weight 1, F_a sums f^{lam/(n-a)} over every shape, and the
    # moments are those of Y + 2Z exactly while 2 r_max <= n, and not past it.
    values = _moments(n, r_max, lambda lam, f: (1, 1))
    assert (values == _poisson_one_plus_twice_poisson_half(r_max)) == equal


@pytest.mark.parametrize("c", (-0.5, 0.0, 1.0))
@pytest.mark.parametrize("i", (2, 3))
@pytest.mark.parametrize("n", (500, 2000, 16000))
def test_float_walk_row_expansion_equals_fsum_route_at_128_bits(n, i, c):
    # The C11 grid (n = 500, 2000) and the exact-large-n benchmark's range
    # (n up to 16000). The engine sums exactly and rounds once; the former
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

        def weight(lam, f):
            seen.append(lam)
            return _both_random(lam, f)

        _factorial_moments(n, a_max, weight)
        assert len(seen) == len(set(seen)) == sum(stratum_sizes(n, a_max))


@pytest.mark.parametrize("n, r_max", [(10**6, 40), (5, MAX_ORDER + 1)],
                         ids=["beyond-the-shape-cap", "beyond-the-order-bound"])
def test_engine_refuses_work_beyond_its_bounds_before_weighing_a_shape(n, r_max):
    weighed = []

    def weight(lam, f):
        weighed.append(lam)
        return _both_random(lam, f)

    with pytest.raises(ValidationError, match="accepted"):
        _moments(n, r_max, weight)
    assert weighed == []


def test_engine_shape_cap_counts_the_shapes_it_visits(monkeypatch):
    # The cap is compared with the engine's own enumeration; stratum_sizes
    # counts the same shapes independently, from partition numbers.
    for n in range(13):
        for a in range(n + 1):
            visited = sum(stratum_sizes(n, a))
            monkeypatch.setattr(limits, "MAX_ENGINE_SHAPES", visited)
            assert len(_moments(n, a, _both_random)) == a + 1
            monkeypatch.setattr(limits, "MAX_ENGINE_SHAPES", visited - 1)
            with pytest.raises(ValidationError, match=f"more than the {visited - 1} shapes"):
                _moments(n, a, _both_random)


def test_uniform_moments_refuse_orders_beyond_the_bound():
    assert len(uniform_moments(5, MAX_ORDER)) == MAX_ORDER + 1
    with pytest.raises(ValidationError, match=f"above the {MAX_ORDER} accepted"):
        uniform_moments(5, MAX_ORDER + 1)


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

    def weight(lam, f):
        return mpmath.mpf(f) * _ratio_power(char_ratio_icycle(lam, i), k)

    with mp.workprec(128 + 40):
        factorial_moments = _factorial_moments(n, n, weight)
    assert factorial_moments == [1] * 11 + [top, top]


@pytest.mark.parametrize("precision_bits", (53, 168))
@pytest.mark.parametrize("k", (0, 1, 17, 77443, 10**9))
def test_ratio_power_is_within_one_rounding_of_a_512_bit_reference(k, precision_bits):
    ratios = [Fraction(1999, 2000), Fraction(-3, 7), Fraction(1, 3), Fraction(-1), Fraction(0),
              char_ratio_icycle((1998, 2), 2), char_ratio_icycle((1997, 1, 1, 1), 3)]
    for ratio in ratios:
        with mp.workprec(precision_bits):
            value = _ratio_power(ratio, k)
        with mp.workprec(512):
            reference = (mpmath.mpf(ratio.numerator) / ratio.denominator) ** k
            assert abs(value - reference) <= abs(reference) * mpmath.mpf(2) ** -precision_bits, ratio
        assert (value < 0) == (ratio < 0 and k % 2 == 1), ratio


def _oracle_characters(monkeypatch) -> list:
    """Serve the engines characters from the recursive oracle, which shares
    no code with characters.py, recording each (class, below) asked for."""
    asked = []

    def class_column(mu, below):
        asked.append((mu, below))
        n = sum(mu)
        return {lam: value for lam in large_first_row_tuples(n, below)
                if (value := character_recursive(lam, tuple(mu)))}

    monkeypatch.setattr(moments, "class_column", class_column)
    monkeypatch.setattr(moments, "build_class_column", class_column)
    return asked


@pytest.mark.parametrize("n, classes", [(n, None) for n in range(1, 10)]
                         # 14 of the 16 points fixed, on both sides of 2 r = n.
                         + [pytest.param(16, [(2,) + (1,) * 14], id="16-2,1^14")])
def test_fixed_x_sweeps_equal_oracle_characters(monkeypatch, n, classes):
    # Each class (every class of n by default) at every order, so the
    # sweeps read the column (2 r >= n) and the polynomial (2 r < n).
    classes = [CycleType(parts) for parts in classes or all_partitions(n)]
    swept = {(x, r): commutator_fixed_moments(n, x, r) for r in range(n + 1) for x in classes}
    asked = _oracle_characters(monkeypatch)
    assert [commutator_fixed_moments(n, x, r) for x, r in swept] == list(swept.values())
    # The class is resolved once per sweep.
    assert asked == [(x, r) for x, r in swept]


def test_class_inversion_is_unchanged_on_the_c08_grid(monkeypatch):
    points = dict(TIER1)["walk-moments-vs-class-inversion"][1]["points"]
    laws = {point: walk_exact_distribution(*point) for point in points}
    asked = _oracle_characters(monkeypatch)
    assert [walk_exact_distribution(*point) for point in laws] == list(laws.values())
    assert asked == [(mu, n) for n, _, _ in laws for mu in partition_tuples(n, n)]
