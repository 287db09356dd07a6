import tracemalloc
from fractions import Fraction
from itertools import permutations

import mpmath
import pytest
from mpmath import mp

from oracles import icycle_walk_laws_by_convolution
from permfix import characters, moments
from permfix.characters import CycleType
from permfix.errors import EnumerationLimitError, SizeMismatchError, ValidationError
from permfix.moments import (
    commutator_fixed_moments,
    commutator_fixed_report,
    commutator_random_report,
    cutoff_steps,
    icycle_walk_moments_exact,
    icycle_walk_report,
    moment_commutator_fixed,
    moment_commutator_fixed_closed,
    moment_commutator_random,
    moment_icycle_walk,
    uniform_fixed_distribution_exact,
    uniform_moments,
    walk_exact_distribution,
    walk_term_at_cutoff,
)
from permfix.multiplicity import mult_skew
from permfix.partitions import all_partitions, dim
from permfix.laws import bell, moment, poisson_moment
from permfix.verify import GATES


def test_commutator_random_tiny_group():
    assert moment_commutator_random(2, 2) == 4
    assert moment_commutator_random(2, 1) == 2


def test_commutator_random_mean():
    for n in range(2, 13):
        assert moment_commutator_random(n, 1) == 1 + Fraction(1, n - 1)


def test_commutator_random_zeroth_moment():
    for n in range(1, 6):
        assert moment_commutator_random(n, 0) == 1


def test_commutator_random_against_direct_enumeration_s4():
    perms = list(permutations(range(4)))
    for r in range(1, 4):
        total = 0
        for g in perms:
            for x in perms:
                fix = sum(1 for j in range(4) if g[x[j]] == x[g[j]])
                total += fix ** r
        assert moment_commutator_random(4, r) == Fraction(total, len(perms) ** 2)


def test_commutator_random_truncation_matches_full_sum():
    for n in range(1, 8):
        for r in range(0, 5):
            full = sum(
                Fraction(mult_skew(lam, r), dim(lam)) for lam in all_partitions(n)
            )
            assert moment_commutator_random(n, r) == full


def test_commutator_random_bell_bound_on_valid_domain():
    bell_points = [(n, r) for n in range(1, 21) for r in range(min(n, 6) + 1)]
    passed, detail = GATES["commutator-random-vs-enumeration"].check(
        ns=(), rs=(), bell_points=bell_points
    )
    assert passed, detail


def test_commutator_fixed_identity_gives_powers():
    for n in range(2, 7):
        identity = (1,) * n
        for r in range(0, 4):
            assert moment_commutator_fixed(n, identity, r) == n ** r


def test_commutator_fixed_mean_examples():
    assert moment_commutator_fixed(5, (5,), 1) == Fraction(5, 4)
    assert moment_commutator_fixed(6, (2, 2, 2), 1) == 1 + Fraction(1, 5)


def test_closed_forms_match_engine_on_all_classes():
    for n in range(4, 10):
        for x_parts in all_partitions(n):
            x = CycleType(x_parts)
            assert moment_commutator_fixed_closed(n, x, 1) == moment_commutator_fixed(n, x, 1)
            assert moment_commutator_fixed_closed(n, x, 2) == moment_commutator_fixed(n, x, 2)


@pytest.mark.parametrize(
    "x", [(2,) * 500000, (3,) * 333333 + (1,)], ids=("2^500000", "3^333333,1")
)
def test_closed_forms_match_engine_at_a_million_points(x):
    n = 10**6
    values = commutator_fixed_moments(n, x, 2)
    assert values[1:] == [moment_commutator_fixed_closed(n, x, r) for r in (1, 2)]


def test_commutator_fixed_memory_does_not_grow_with_the_cycle_count():
    # Murnaghan-Nakayama keyed its memo by every suffix of the 5000 cycles,
    # which peaked at about 106 MB traced for this call.
    characters.class_column.cache_clear()
    tracemalloc.start()
    try:
        commutator_fixed_moments(10000, (2,) * 5000, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 16 * 2**20


def test_commutator_fixed_polynomial_memory_stays_small_at_a_deep_below():
    # The polynomial route holds its levels of at most 20 cells and nothing
    # per swept shape (2714 here); a per-shape strip memo peaked near 14 MB.
    characters.class_column.cache_clear()
    moments._engine_table.cache_clear()
    tracemalloc.start()
    try:
        commutator_fixed_moments(200, (2,) * 100, 20)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 6 * 2**20


def test_closed_form_identity_class_second_moment():
    for n in range(4, 8):
        assert moment_commutator_fixed_closed(n, (1,) * n, 2) == n ** 2


def test_closed_form_rejects_other_orders():
    with pytest.raises(ValidationError):
        moment_commutator_fixed_closed(5, (5,), 3)


def test_commutator_fixed_size_mismatch():
    with pytest.raises(SizeMismatchError):
        moment_commutator_fixed(5, (4,), 1)


def test_ncycle_moments_between_bell_and_random():
    for n in range(4, 40):
        for r in range(1, min(n, 4) + 1):
            fixed = moment_commutator_fixed(n, (n,), r)
            both = moment_commutator_random(n, r)
            assert bell(r) <= fixed <= both


def test_rectangular_class_trend_toward_bell():
    # All-k-cycle classes: the gap to the Bell number shrinks along n.
    for k in (3, 4):
        gaps = []
        for n in range(2 * k, 6 * k + 1, k):
            x = (k,) * (n // k)
            gaps.append(moment_commutator_fixed(n, x, 2) - bell(2))
        assert all(g > 0 for g in gaps)
        assert all(gaps[j] > gaps[j + 1] for j in range(len(gaps) - 1))


def test_half_mean_trend_for_two_cycles():
    target = 2 ** 2 * poisson_moment(2, Fraction(1, 2))
    gaps = []
    for n in range(6, 25, 2):
        x = (2,) * (n // 2)
        gaps.append(abs(moment_commutator_fixed(n, x, 2) - target))
    assert all(gaps[j] > gaps[j + 1] for j in range(len(gaps) - 1))


def test_uniform_moments_equal_those_of_the_derangement_law():
    for n in range(1, 25):
        law = uniform_fixed_distribution_exact(n)
        assert uniform_moments(n, 2 * n + 2) == [moment(law, r) for r in range(2 * n + 3)]


def test_walk_zero_steps_is_identity():
    for n in (5, 10, 100):
        assert icycle_walk_moments_exact(n, 2, 0, 1)[1] == n
        assert icycle_walk_moments_exact(n, 2, 0, 2)[2] == n ** 2


def test_walk_one_transposition_mean():
    for n in (3, 10, 47, 1000):
        assert icycle_walk_moments_exact(n, 2, 1, 1)[1] == n - 2


def test_walk_zeroth_moment_is_one():
    assert icycle_walk_moments_exact(6, 3, 4, 0)[0] == 1


def test_walk_exact_distribution_point_mass_at_start():
    dist = walk_exact_distribution(5, 2, 0)
    assert dist == {5: Fraction(1)}


def test_walk_exact_distribution_one_transposition():
    assert walk_exact_distribution(3, 2, 1) == {1: Fraction(1)}
    dist = walk_exact_distribution(6, 2, 1)
    assert dist == {4: Fraction(1)}


@pytest.mark.parametrize("n", range(2, 7))
def test_walk_exact_distribution_equals_convolution_over_the_group(n):
    for i in range(2, n + 1):
        laws = icycle_walk_laws_by_convolution(n, i, 4)
        for k, law in enumerate(laws):
            assert walk_exact_distribution(n, i, k) == law, (n, i, k)


def _walk_check(ns, ks, rs):
    points = [(n, i, k) for n in ns for i in (2, 3) for k in ks]
    passed, detail = GATES["walk-moments-vs-class-inversion"].check(points=points, rs=rs)
    assert passed, detail


def test_walk_exact_distribution_normalizes():
    _walk_check((4, 5, 6), (2, 3, 5), range(1))


def test_walk_moments_match_distribution():
    _walk_check((4, 5, 6), range(11), range(4))


def test_walk_moments_match_distribution_at_limit_size():
    _walk_check((8,), (0, 7, 20), range(4))


def test_walk_enumeration_limit():
    with pytest.raises(EnumerationLimitError):
        walk_exact_distribution(9, 2, 1)


def test_walk_float_path_matches_exact():
    for n, i, k, r in ((6, 2, 5, 2), (7, 3, 9, 3), (12, 2, 14, 2)):
        exact = icycle_walk_moments_exact(n, i, k, r)[r]
        approx = moment_icycle_walk(n, i, k, r, precision_bits=160)
        with mp.workprec(200):
            gap = abs(approx - mpmath.mpf(exact.numerator) / exact.denominator)
            assert gap < mpmath.mpf(10) ** (-30)


def test_walk_float_path_is_deterministic():
    a = moment_icycle_walk(200, 2, 500, 2)
    b = moment_icycle_walk(200, 2, 500, 2)
    assert mpmath.nstr(a, 30) == mpmath.nstr(b, 30)


def test_walk_validates_inputs():
    with pytest.raises(ValidationError):
        icycle_walk_moments_exact(4, 5, 1, 1)
    with pytest.raises(ValidationError):
        icycle_walk_moments_exact(4, 1, 1, 1)
    with pytest.raises(ValidationError):
        icycle_walk_moments_exact(4, 2, -1, 1)


def test_cutoff_steps_rounding():
    # 2000*log(2000)/2 = 7600.90..., plus c*n
    assert cutoff_steps(2000, 2, 0.0) == 7601
    assert cutoff_steps(100, 2, 1.0) == round(100 * mpmath.log(100) / 2 + 100)


def test_walk_cutoff_report_near_poisson():
    report = icycle_walk_report(400, 2, cutoff_steps(400, 2, 0.0), 2, c=0.0)
    assert report["params"]["k"] == cutoff_steps(400, 2, 0.0)
    first, second = report["table"]
    # The Poisson mean is the reference's first moment.
    assert float(first["poisson_reference"]) == pytest.approx(2.0)
    assert abs(float(first["difference"])) < 0.1
    assert float(second["poisson_reference"]) == pytest.approx(float(poisson_moment(2, 2.0)))


def test_walk_cutoff_large_c_approaches_unit_mean():
    (row,) = icycle_walk_report(200, 2, cutoff_steps(200, 2, 8.0), 1, c=8.0)["table"]
    assert float(row["poisson_reference"]) == pytest.approx(1.0, abs=1e-6)
    assert abs(float(row["moment"]) - 1.0) < 0.05


def test_walk_term_trivial_shape():
    term, limit = walk_term_at_cutoff((300,), 2, 0.0, 300)
    assert float(term) == pytest.approx(1.0)
    assert float(limit) == pytest.approx(1.0)


def test_walk_term_standard_and_two_row_limits():
    n = 400
    term, limit = walk_term_at_cutoff((n - 1, 1), 2, 0.0, n)
    assert float(limit) == pytest.approx(1.0)
    assert abs(float(term) - 1.0) < 0.1
    term, limit = walk_term_at_cutoff((n - 2, 2), 2, 0.0, n)
    assert float(limit) == pytest.approx(0.5)
    assert abs(float(term) - 0.5) < 0.1


def test_walk_term_validates_size():
    with pytest.raises(SizeMismatchError):
        walk_term_at_cutoff((9, 1), 2, 0.0, 11)


def test_reports_carry_reference_moments():
    table = commutator_random_report(6, 3)["table"]
    assert table[0]["moment"] == 1 + Fraction(1, 5)
    assert [row["poisson_reference"] for row in table] == [1, 2, 5]
    assert all(row["difference"] == row["moment"] - row["poisson_reference"] for row in table)
    fixed = commutator_fixed_report(6, (6,), 2)["table"]
    assert fixed[0]["moment"] == moment_commutator_fixed(6, (6,), 1)
    walk = icycle_walk_report(30, 2, 10, 2, c=0.0)["table"]
    assert [row["r"] for row in walk] == [1, 2]
    assert float(walk[0]["poisson_reference"]) == pytest.approx(2.0)


def test_commutator_moment_against_group_identity():
    # Independent route: average fix^r of g^-1 x^-1 g x over g by enumeration,
    # then average over class representatives weighted by class size.
    n = 4
    perms = list(permutations(range(n)))
    for r in (1, 2):
        total = Fraction(0)
        for x_parts in all_partitions(n):
            x = CycleType(x_parts)
            from permfix.characters import perm_from_cycle_type

            xp = perm_from_cycle_type(x)
            inner = sum(
                sum(1 for j in range(n) if g[xp[j]] == xp[g[j]]) ** r for g in perms
            )
            total += Fraction(x.class_size() * inner, len(perms) ** 2)
        assert total == moment_commutator_random(n, r)


def test_walk_cutoff_moments_at_a_million():
    report = icycle_walk_report(10**6, 2, cutoff_steps(10**6, 2, 0.0), 3, c=0.0)
    assert report["params"]["k"] == 6907755
    for row, target in zip(report["table"], (2, 6, 22), strict=True):
        assert abs(row["moment"] - target) < 1e-3 * target
