from fractions import Fraction
from math import comb

import mpmath

import pytest
from hypothesis import given
from hypothesis import strategies as st

from oracles import derangement_law, set_partitions
from permfix.limits import MAX_DIST_K
from permfix.errors import ValidationError
from permfix.laws import (
    bell,
    from_factorial_moments,
    moment,
    moment_z_score,
    occupancy_probability,
    poisson_moment,
    stirling,
    stirling_columns,
    stirling_row,
    tv_to_poisson,
)
from permfix.moments import (
    commutator_distribution,
    enumerate_commutator_distribution,
    icycle_walk_distribution,
    moment_commutator_fixed_closed,
    uniform_fixed_distribution_exact,
    walk_exact_distribution,
)
from permfix.partitions import all_partitions
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


def test_the_law_from_unit_factorial_moments_is_the_derangement_law():
    for n in range(1, 201):
        assert from_factorial_moments([1] * (n + 1)) == derangement_law(n), n


@pytest.mark.parametrize("n", range(0, 9))
def test_laws_from_the_engines_factorial_moments_equal_enumeration(n):
    # The both-random enumeration stops at n = 6, the fixed-x one at n = 7
    # and the class inversion at n = 8.
    if n <= 6:
        assert commutator_distribution(n) == enumerate_commutator_distribution(n)
    if 1 <= n <= 7:
        for x in all_partitions(n):
            assert commutator_distribution(n, x) == enumerate_commutator_distribution(n, x), x
    for i in range(2, n + 1):
        for k in [*range(13)] + ([MAX_DIST_K] if n == 8 else []):
            assert icycle_walk_distribution(n, i, k) == walk_exact_distribution(n, i, k), (i, k)


def test_empirical_law_moments_are_exact_fractions():
    law = {0: Fraction(1, 4), 1: Fraction(2, 4), 3: Fraction(1, 4)}
    assert moment(law, 1) == Fraction(5, 4)
    assert moment(law, 2) == Fraction(11, 4)


def test_tv_to_poisson_edges():
    assert tv_to_poisson({0: Fraction(1)}, 0.0) == 0.0
    near = tv_to_poisson(
        {j: Fraction(2, 3) if j == 0 else Fraction(1, 3) for j in (0, 1)}, 0.0
    )
    assert near == pytest.approx(1 / 3)


def test_tv_to_poisson_uniform_n6():
    dist = uniform_fixed_distribution_exact(6)
    tv = tv_to_poisson(dist, 1.0)
    assert 0 < tv < 0.02


def test_tv_to_poisson_rejects_negative_mean():
    with pytest.raises(ValidationError):
        tv_to_poisson({0: Fraction(1)}, -1.0)


def test_moment_z_score_keeps_a_variance_far_below_the_squared_moment():
    # With x a transposition the commutator is x times a uniform
    # transposition: the identity, a 3-cycle or two 2-cycles. At n = 10^6
    # Var fix^r is below 10^-16 of (E fix^r)^2, under a double's last bit.
    n = 10 ** 6
    pairs = comb(n, 2)
    law = {n: Fraction(1, pairs), n - 3: Fraction(2 * (n - 2), pairs),
           n - 4: Fraction(comb(n - 2, 2), pairs)}
    x = (2,) + (1,) * (n - 2)
    assert [moment(law, r) for r in (1, 2)] == [moment_commutator_fixed_closed(n, x, r)
                                                for r in (1, 2)]
    samples, empirical = 200, {n - 4: Fraction(1)}
    for r in (1, 2):
        exact_r, exact_2r = moment(law, r), moment(law, 2 * r)
        with mpmath.workprec(200):
            gap, variance = _mpf(moment(empirical, r) - exact_r), _mpf(exact_2r - exact_r ** 2)
            z = float(gap / mpmath.sqrt(variance / samples))
        assert -1 < z < 0
        z_score = moment_z_score(empirical, samples, r, exact_r, exact_2r)
        assert z_score == pytest.approx(z, rel=1e-12)
        # mpmath moments are read exactly from their binary values.
        with mpmath.workprec(128):
            reals = _mpf(exact_r), _mpf(exact_2r)
        assert moment_z_score(empirical, samples, r, *reals) == pytest.approx(z, rel=1e-6)


def _mpf(q: Fraction) -> mpmath.mpf:
    return mpmath.mpf(q.numerator) / q.denominator
