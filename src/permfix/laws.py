"""The law of a fixed-point count X, {j: P(X = j)}, and what is read off it.

The engine returns the factorial moments F_a = E[X (X - 1) ... (X - a + 1)];
moments takes them to moments by the one Stirling combination
E[X^r] = sum_a S(r, a) F_a (Poisson moments are the case F_a = mean^a),
and from_factorial_moments takes all of them to the law. The Stirling
table is built by the standard recurrence and grown on demand;
stirling_columns gives the first columns of a row without growing it.
The readers of Monte Carlo laws sit here too. No numpy, no engine.
"""
from __future__ import annotations

from fractions import Fraction
from math import comb, exp, factorial, lcm, perm, sqrt
from operator import mul

import mpmath
from mpmath.libmp import to_rational

from .errors import ValidationError

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


def moments(factorial_moments, r_max: int) -> list:
    """Moments r = 0..r_max, sum_a S(r, a) * F_a, from the factorial moments
    F_a (those past the list are 0), summed from a = 0 in the type of the
    F_a: exact for ints and Fractions, rounded term by term for reals."""
    if r_max < 0:
        raise ValueError("r must be nonnegative")
    _ensure(r_max)
    return [sum(map(mul, _rows[r], factorial_moments)) for r in range(r_max + 1)]


def poisson_moment(r: int, mean):
    """rth moment of a Poisson variable of the given mean (an int, Fraction,
    float or mpmath real; the result has the same kind), from F_a = mean^a."""
    return moments([mean ** a for a in range(r + 1)], r)[r]


def occupancy_probability(a: int, r: int, n: int) -> Fraction:
    """Chance that dropping r balls into n cells occupies exactly a cells."""
    if n < 1 or r < 0:
        raise ValueError("need n >= 1 and r >= 0")
    if a < 0 or a > min(r, n):
        return Fraction(0)
    return Fraction(perm(n, a) * stirling(r, a), n ** r)


def from_factorial_moments(factorial_moments) -> dict[int, Fraction]:
    """The law of a count on 0..m from its F_0..F_m (ints or Fractions), by
    Jordan's formula P(j) = sum_{a >= j} (-1)^(a - j) C(a, j) F_a / a!, each
    an integer sum over one denominator. Values of probability 0 are left out."""
    fs = [Fraction(f) for f in factorial_moments]
    m = len(fs) - 1
    denominator = lcm(*(f.denominator for f in fs)) * factorial(m)
    scaled = [f.numerator * (denominator // f.denominator // factorial(a))
              for a, f in enumerate(fs)]
    totals = [sum((-1) ** (a - j) * comb(a, j) * scaled[a] for a in range(j, m + 1))
              for j in range(m + 1)]
    return {j: Fraction(total, denominator) for j, total in enumerate(totals) if total}


def moment(law: dict, r: int) -> Fraction:
    """E[X^r] of a law {j: P(X = j)} with exact probabilities."""
    return sum((Fraction(p) * j ** r for j, p in law.items()), Fraction(0))


def tv_to_poisson(law: dict, lam: float) -> float:
    """Total variation distance from a law to a Poisson law with the given mean.

    Poisson mass beyond the largest support point of the law is folded
    into the distance, so the result lives in [0, 1].
    """
    if lam < 0:
        raise ValidationError("mean must be nonnegative")
    probs = {j: float(p) for j, p in law.items()}
    top = max(probs) if probs else 0
    acc = covered = 0.0
    pmf = exp(-lam)
    for j in range(top + 1):
        if j > 0:
            pmf *= lam / j
        acc += abs(probs.get(j, 0.0) - pmf)
        covered += pmf
    return 0.5 * (acc + max(0.0, 1.0 - covered))


def moment_z_score(law: dict, samples: int, r: int, exact_r, exact_2r) -> float:
    """z of the rth moment of a law of samples draws against its exact value
    exact_r, exact_2r being E[X^2r]. The gap and the variance are exact (an
    mpmath real by its binary value) and z^2 is rounded once: in doubles,
    E[X^2r] - E[X^r]^2 cancels to nothing once far below E[X^r]^2."""
    exact_r, exact_2r = (Fraction(*to_rational(v._mpf_)) if isinstance(v, mpmath.mpf)
                         else Fraction(v) for v in (exact_r, exact_2r))
    gap = moment(law, r) - exact_r
    variance = exact_2r - exact_r ** 2
    if variance <= 0:
        return 0.0 if gap == 0 else float("inf")
    z = sqrt(gap * gap * samples / variance)
    return z if gap >= 0 else -z
