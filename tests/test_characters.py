from fractions import Fraction

import pytest
from hypothesis import given

from oracles import brute_character_table, character_recursive
from permfix.characters import (
    CycleType,
    char_near_one_row,
    char_ratio_icycle,
    character,
    perm_cycle_type,
    verify_ratio_asymptotics,
)
from permfix.errors import SizeMismatchError, ValidationError
from permfix.partitions import Partition, all_partitions, dim
from strategies import partitions


def classes_of(n):
    return [CycleType(mu) for mu in all_partitions(n)]


def test_cycle_type_statistics():
    ct = CycleType((1, 2, 2, 3, 1, 1))
    assert tuple(ct) == (3, 2, 2, 1, 1, 1)
    assert ct.n == 10
    assert ct.n_1 == 3
    assert ct.n_2 == 2
    assert ct.centralizer_order() == 3 * (2 ** 2 * 2) * (1 ** 3 * 6)


def test_class_sizes_sum_to_group_order():
    from math import factorial

    for n in range(1, 8):
        assert sum(ct.class_size() for ct in classes_of(n)) == factorial(n)


def test_trivial_character_is_one():
    for n in range(1, 8):
        for mu in classes_of(n):
            assert character((n,), mu) == 1


def test_standard_character_counts_fixed_points():
    for n in range(2, 8):
        for mu in classes_of(n):
            assert character((n - 1, 1), mu) == mu.n_1 - 1


def test_small_value_example():
    assert character((2, 1), (3,)) == -1


def test_identity_column_is_dimension():
    for n in range(1, 10):
        identity = CycleType((1,) * n)
        for lam in all_partitions(n):
            assert character(lam, identity) == dim(lam)


def test_matches_brute_force_table():
    for n in range(1, 7):
        table = brute_character_table(n)
        for lam in all_partitions(n):
            for mu, value in table[tuple(lam)].items():
                assert character(lam, mu) == value


def test_second_orthogonality():
    for n in range(1, 8):
        for mu in classes_of(n):
            square_sum = sum(character(lam, mu) ** 2 for lam in all_partitions(n))
            assert square_sum == mu.centralizer_order()


def test_matches_recursive_murnaghan_nakayama():
    for n in range(1, 11):
        for lam in all_partitions(n):
            for mu in classes_of(n):
                assert character(lam, mu) == character_recursive(tuple(lam), tuple(mu))


def test_many_cycle_classes_match_closed_forms():
    n = 3000
    for x in (CycleType((2,) * 1500), CycleType((3,) * 999 + (1,) * 3)):
        assert character((n,), x) == 1
        for lam in ((n - 1, 1), (n - 2, 2), (n - 2, 1, 1)):
            assert character(lam, x) == char_near_one_row(lam, x)


def test_size_mismatch_raises():
    with pytest.raises(SizeMismatchError):
        character((3, 1), (3,))


def test_near_one_row_closed_forms():
    for n in range(4, 10):
        shapes = [Partition((n - 1, 1)), Partition((n - 2, 2)), Partition((n - 2, 1, 1))]
        for mu in classes_of(n):
            for lam in shapes:
                assert char_near_one_row(lam, mu) == character(lam, mu)


def test_near_one_row_at_identity():
    from math import comb

    n = 7
    identity = CycleType((1,) * n)
    assert char_near_one_row((n - 2, 2), identity) == comb(n - 1, 2) - 1


def test_near_one_row_on_rectangular_classes():
    # Fixed-point-free classes without 2-cycles: the binomial term is the
    # polynomial m(m-1)/2 at m = -1, forced by agreement with the brute table.
    for k in (3, 4):
        for n in (2 * k, 3 * k):
            x = CycleType((k,) * (n // k))
            assert char_near_one_row((n - 1, 1), x) == -1
            assert char_near_one_row((n - 2, 1, 1), x) == 1
            assert char_near_one_row((n - 2, 2), x) == 0
            assert character((n - 2, 1, 1), x) == 1
            assert character((n - 2, 2), x) == 0


def test_near_one_row_rejects_other_shapes():
    with pytest.raises(ValidationError):
        char_near_one_row((3, 3), (2, 2, 1, 1))
    with pytest.raises(ValidationError):
        char_near_one_row((1, 1, 1), (1, 1, 1))


def test_ratio_trivial_shape():
    for n in range(2, 9):
        for i in range(2, n + 1):
            assert char_ratio_icycle((n,), i) == 1


def test_ratio_standard_shape():
    for n in range(3, 12):
        for i in range(2, n):
            assert char_ratio_icycle((n - 1, 1), i) == Fraction(n - i - 1, n - 1)


def test_ratio_hooks_on_full_cycle():
    for n in range(2, 9):
        for j in range(n):
            lam = Partition((n - j, *(1,) * j))
            expected = Fraction((-1) ** j, dim(lam))
            assert char_ratio_icycle(lam, n) == expected


def test_full_cycle_character_supported_on_hooks():
    for n in range(2, 10):
        hooks = {Partition((n - j, *(1,) * j)) for j in range(n)}
        for lam in all_partitions(n):
            value = character(lam, (n,))
            if lam in hooks:
                assert abs(value) == 1
            else:
                assert value == 0


@given(partitions(min_n=2, max_n=9))
def test_ratio_bounded_by_one(lam):
    for i in range(2, lam.n + 1):
        assert abs(char_ratio_icycle(lam, i)) <= 1


def test_ratio_consistent_with_character():
    for n in range(2, 9):
        for lam in all_partitions(n):
            for i in range(2, n + 1):
                mu = CycleType((i,) + (1,) * (n - i))
                assert char_ratio_icycle(lam, i) == Fraction(character(lam, mu), dim(lam))


def test_ratio_rejects_bad_cycle_length():
    with pytest.raises(ValidationError):
        char_ratio_icycle((4, 1), 1)
    with pytest.raises(ValidationError):
        char_ratio_icycle((4, 1), 6)


def test_perm_cycle_type():
    assert perm_cycle_type((1, 2, 0, 3, 5, 4)) == CycleType((3, 2, 1))
    assert perm_cycle_type(tuple(range(4))) == CycleType((1, 1, 1, 1))


def test_ratio_asymptotics_trivial_stratum():
    report = verify_ratio_asymptotics(2, 0, [50, 100])
    assert all(row.max_scaled_error == 0 for row in report.rows)


def test_ratio_asymptotics_standard_stratum():
    report = verify_ratio_asymptotics(2, 1, [50, 100, 200, 400])
    for row in report.rows:
        assert row.max_scaled_error == Fraction(2 * row.n, row.n - 1)
    errors = [row.max_scaled_error for row in report.rows]
    assert all(errors[j] > errors[j + 1] for j in range(len(errors) - 1))


def test_ratio_asymptotics_deeper_stratum_is_finite():
    report = verify_ratio_asymptotics(3, 2, [50, 100, 200])
    assert all(row.max_scaled_error < 100 for row in report.rows)


def test_ratio_asymptotics_validates_inputs():
    with pytest.raises(ValidationError):
        verify_ratio_asymptotics(2, 3, [4])
