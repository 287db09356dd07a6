import random
import time
from fractions import Fraction

import pytest
from hypothesis import given

from oracles import brute_character_table, char_near_one_row, character_recursive
from permfix.characters import (
    CycleType,
    char_ratio_icycle,
    character,
    class_column,
    perm_cycle_type,
    verify_ratio_asymptotics,
)
from permfix.errors import SizeMismatchError, ValidationError
from permfix.limits import MAX_ENGINE_SHAPES
from permfix.partitions import Partition, all_partitions, dim, large_first_row_tuples
from permfix.verify import GATES
from strategies import partitions


def classes_of(n):
    return [CycleType(mu) for mu in all_partitions(n)]


def test_cycle_type_of_size_checks_the_size_it_is_given():
    assert CycleType.of_size((1, 3, 2), 6) == CycleType((3, 2, 1))
    with pytest.raises(SizeMismatchError) as excinfo:
        CycleType.of_size((2, 3), 6)
    assert str(excinfo.value) == "cycle type CycleType(3, 2) has size 5, expected 6"


def test_cycle_type_is_a_partition():
    ct = CycleType((1, 3, 2, 2))
    assert isinstance(ct, Partition)
    assert repr(ct) == "CycleType(3, 2, 2, 1)"
    assert tuple(ct) == (3, 2, 2, 1)
    assert CycleType(ct) is ct
    for bad in ((2, 0, 1), (2, -1), (2.0, 1), ("2",), ("2", 1), (None, 1)):
        with pytest.raises(ValueError):
            CycleType(bad)
    with pytest.raises(SizeMismatchError):
        CycleType.of_size((3, 1), 5)


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


@pytest.mark.parametrize("n", range(11))
def test_class_column_matches_recursive_murnaghan_nakayama_at_every_below(n):
    # Both routes: the column when 2 below >= n, the polynomial otherwise.
    # class_column is truncated at every below, whichever route it takes.
    for mu in classes_of(n):
        for below in range(n + 1):
            column = class_column(mu, below)
            assert 0 not in column.values()
            for lam in large_first_row_tuples(n, below):
                expected = character_recursive(lam, tuple(mu))
                assert column.get(lam, 0) == expected, (lam, mu, below)
            assert set(column) <= set(large_first_row_tuples(n, below))


def test_character_polynomial_on_long_first_rows_up_to_n_300():
    rng = random.Random(2009)
    for n in (20, 58, 150, 300):
        classes = [perm_cycle_type(rng.sample(range(n), n)) for _ in range(3)]
        classes.append(CycleType((2,) * (n // 2)))
        for mu in classes:
            for s in range(7):
                shapes = list(all_partitions(s))
                for nu in rng.sample(shapes, min(4, len(shapes))):
                    lam = (n - s, *nu)
                    expected = character_recursive(lam, tuple(mu))
                    assert class_column(mu, 6).get(lam, 0) == character(lam, mu) == expected


def test_characters_never_reach_the_recursive_murnaghan_nakayama(monkeypatch):
    # _char is the gates' oracle: the engine, the class inversion and
    # character all run on the forward kernel.
    from permfix import characters, moments

    def refuse(*args):
        raise AssertionError("_char called")

    monkeypatch.setattr(characters, "_char", refuse)
    for n in range(2, 9):
        for mu in classes_of(n):
            for r in range(n + 1):
                moments.commutator_fixed_moments(n, mu, r)
            for lam in all_partitions(n):
                assert character(lam, mu) == character_recursive(tuple(lam), tuple(mu))
        moments.walk_exact_distribution(n, 2, 3)


def test_character_refuses_shapes_past_the_engine_cap_before_any_work():
    start = time.perf_counter()
    with pytest.raises(ValidationError, match=f"more than the {MAX_ENGINE_SHAPES} shapes accepted"):
        character((45, 30, 25), (5,) * 20)
    assert time.perf_counter() - start < 1


def test_class_column_of_many_short_cycles():
    # Second orthogonality at n = 40, where the column sums 24842 squares.
    mu = CycleType((2,) * 20)
    assert sum(v * v for v in class_column(mu, 40).values()) == mu.centralizer_order()
    assert class_column(mu, 40)[(40,)] == 1


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
    result = GATES["single-cycle-hook-support"].run({"ns": range(2, 10)})
    assert result.passed, result.detail


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
    errors = verify_ratio_asymptotics(2, 0, [50, 100])
    assert errors == [0, 0]


def test_ratio_asymptotics_standard_stratum():
    ns = [50, 100, 200, 400]
    errors = verify_ratio_asymptotics(2, 1, ns)
    assert errors == [Fraction(2 * n, n - 1) for n in ns]
    assert all(errors[j] > errors[j + 1] for j in range(len(errors) - 1))


def test_ratio_asymptotics_deeper_stratum_is_finite():
    errors = verify_ratio_asymptotics(3, 2, [50, 100, 200])
    assert len(errors) == 3 and all(error < 100 for error in errors)


def test_ratio_asymptotics_validates_inputs():
    with pytest.raises(ValidationError):
        verify_ratio_asymptotics(2, 3, [4])
