"""Stirling numbers of the second kind, Bell numbers, and Poisson moments.

The triangular Stirling table is built once by the standard recurrence
and grown on demand; every moment formula in this package consumes whole
rows of it. The multiplicities need only the first few columns of a row,
which stirling_columns computes without growing the table. Poisson
moments accept exact rationals or high-precision reals through the same
code path.
"""
from __future__ import annotations

from fractions import Fraction
from math import comb, factorial, perm

_rows: list[list[int]] = [[1]]


def _ensure(r: int) -> None:
    while len(_rows) <= r:
        prev = _rows[-1]
        k = len(_rows)
        row = [0] * (k + 1)
        for a in range(1, k + 1):
            row[a] = a * (prev[a] if a < k else 0) + prev[a - 1]
        _rows.append(row)


def stirling(r: int, a: int) -> int:
    """Number of set partitions of an r-set into exactly a blocks."""
    if r < 0 or a < 0:
        raise ValueError("r and a must be nonnegative")
    if a > r:
        return 0
    _ensure(r)
    return _rows[r][a]


def stirling_row(r: int) -> tuple[int, ...]:
    """The row S(r, 0..r)."""
    if r < 0:
        raise ValueError("r must be nonnegative")
    _ensure(r)
    return tuple(_rows[r])


def stirling_columns(r: int, a_max: int) -> list[int]:
    """S(r, a) for a = 0..a_max, from a! S(r, a) = sum_j (-1)^(a-j) C(a, j) j^r.

    The table holds every row up to the largest r asked for, which grows
    as about r^3 log r bits; this takes a_max + 1 powers and keeps nothing.
    """
    if r < 0 or a_max < 0:
        raise ValueError("r and a_max must be nonnegative")
    powers = [j ** r for j in range(a_max + 1)]
    return [
        sum((-1) ** (a - j) * comb(a, j) * powers[j] for j in range(a + 1)) // factorial(a)
        for a in range(a_max + 1)
    ]


def bell(r: int) -> int:
    """Total number of set partitions of an r-set."""
    return sum(stirling_row(r))


def poisson_moment(r: int, mean):
    """rth moment of a Poisson variable with the given mean.

    The mean may be an int, Fraction, float, or mpmath real; the result
    has the same kind.
    """
    if r < 0:
        raise ValueError("r must be nonnegative")
    row = stirling_row(r)
    total = row[0] * mean ** 0
    for a in range(1, r + 1):
        total += row[a] * mean ** a
    return total


def occupancy_probability(a: int, r: int, n: int) -> Fraction:
    """Chance that dropping r balls into n cells occupies exactly a cells."""
    if n < 1 or r < 0:
        raise ValueError("need n >= 1 and r >= 0")
    if a < 0 or a > min(r, n):
        return Fraction(0)
    return Fraction(perm(n, a) * stirling(r, a), n ** r)
