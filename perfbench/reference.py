"""Reference values computed without permfix.

Everything the benchmark checks an output against comes from here, and
this module never imports the package under test:

* the first two moments of each model in closed form, from the
  characters of the four shapes (n), (n-1,1), (n-2,2) and (n-2,1,1);
* Poisson moments, derangement laws, partition counts and centralizer
  orders;
* exact fixed-point laws by brute force: the commutator by enumerating
  S_n, the i-cycle walk by running its Markov chain over S_n, lumped by
  cycle type;
* the law rebuilt from moments r = 0..n by exact inclusion-exclusion;
* a chi-square goodness-of-fit p-value.
"""
from __future__ import annotations

from decimal import Decimal, localcontext
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, permutations
from math import comb, factorial, log

import mpmath
import numpy as np

# Decimal digits for the walk closed forms; the engines print 128-bit
# values, so 100 digits leave the rounding to 128 bits unambiguous.
WALK_DIGITS = 100


def partitions(n: int, cap: int | None = None):
    """Partitions of n as weakly decreasing tuples."""
    cap = n if cap is None else cap
    if n == 0:
        yield ()
        return
    for first in range(min(n, cap), 0, -1):
        for rest in partitions(n - first, first):
            yield (first, *rest)


def partition_count(n: int) -> int:
    ways = [1] + [0] * n
    for part in range(1, n + 1):
        for total in range(part, n + 1):
            ways[total] += ways[total - part]
    return ways[n]


def centralizer_order(cycles: dict[int, int]) -> int:
    order = 1
    for length, count in cycles.items():
        order *= length ** count * factorial(count)
    return order


@lru_cache(maxsize=None)
def stirling2_row(r: int) -> tuple[int, ...]:
    """S(r, a) for a = 0..r: set partitions of r items into a blocks."""
    if r == 0:
        return (1,)
    prev = stirling2_row(r - 1) + (0,)
    return tuple((a * prev[a] if a else 0) + (prev[a - 1] if a else 0) for a in range(r + 1))


@lru_cache(maxsize=None)
def stirling1_row(a: int) -> tuple[int, ...]:
    """Signed s(a, r) for r = 0..a, the coefficients of x(x-1)...(x-a+1)."""
    if a == 0:
        return (1,)
    prev = stirling1_row(a - 1) + (0,)
    return tuple((prev[r - 1] if r else 0) - (a - 1) * prev[r] for r in range(a + 1))


def poisson_moment(r: int, mean):
    return sum(s * mean ** a for a, s in enumerate(stirling2_row(r)))


def cutoff_steps(n: int, i: int, c: float) -> int:
    """The paper's step count n log(n) / i + c n, rounded to the nearest integer."""
    return round(n * log(n) / i + c * n)


def _near_row_terms(n: int):
    """(m_1, m_2, dim, character) for the shapes (n), (n-1,1), (n-2,2), (n-2,1,1).

    m_r is the multiplicity of the shape in the r-th tensor power of the
    permutation representation; the character is a function of the number
    of fixed points f and of 2-cycles t of the class.
    """
    if n < 4:
        raise ValueError("the second-moment closed forms need n >= 4")
    return (
        (1, 2, 1, lambda f, t: 1),
        (1, 3, n - 1, lambda f, t: f - 1),
        (0, 1, n * (n - 3) // 2, lambda f, t: f * (f - 3) // 2 + t),
        (0, 1, (n - 1) * (n - 2) // 2, lambda f, t: (f - 1) * (f - 2) // 2 - t),
    )


def commutator_random_moments12(n: int) -> tuple[Fraction, Fraction]:
    """E[X] and E[X^2] for the commutator of two uniform factors: sum of m_r / dim."""
    terms = _near_row_terms(n)
    return tuple(sum(Fraction(m[r], d) for *m, d, _ in terms) for r in (0, 1))


def commutator_fixed_moments12(n: int, cycles: dict[int, int]) -> tuple[Fraction, Fraction]:
    """E[X] and E[X^2] with one factor in the class x: sum of m_r chi(x)^2 / dim."""
    f, t = cycles.get(1, 0), cycles.get(2, 0)
    terms = _near_row_terms(n)
    return tuple(sum(Fraction(m[r] * chi(f, t) ** 2, d) for *m, d, chi in terms) for r in (0, 1))


def walk_moments12(n: int, i: int, k: int) -> tuple[Fraction, Fraction]:
    """E[X] and E[X^2] after k uniform i-cycles: sum of m_r dim (chi(i-cycle) / dim)^k.

    The powers are taken in WALK_DIGITS-digit decimal arithmetic, so the
    values are exact to far below the 128-bit precision they are compared at.
    """
    f, t = n - i, 1 if i == 2 else 0
    out = []
    with localcontext() as ctx:
        ctx.prec = WALK_DIGITS
        for r in (0, 1):
            total = Decimal(0)
            for *m, d, chi in _near_row_terms(n):
                if m[r]:
                    total += m[r] * d * (Decimal(chi(f, t)) / d) ** k
            out.append(Fraction(total))
    return tuple(out)


def walk_poisson_mean(i: int, c: float) -> Fraction:
    """1 + exp(-i c), the mean of the walk's Poisson limit at the cutoff."""
    with localcontext() as ctx:
        ctx.prec = WALK_DIGITS
        return 1 + Fraction((-i * Decimal(c)).exp())


def uniform_law(n: int) -> dict[int, Fraction]:
    """Fixed points of a uniform permutation: C(n, j) D(n - j) / n!."""
    derangements = [1, 0]
    for m in range(2, n + 1):
        derangements.append((m - 1) * (derangements[-1] + derangements[-2]))
    return {j: Fraction(comb(n, j) * derangements[n - j], factorial(n)) for j in range(n + 1)
            if derangements[n - j]}


def _class_perm(cycles: dict[int, int]) -> np.ndarray:
    """A permutation of the class, cycles laid out one after another."""
    out, start = [], 0
    for length, count in sorted(cycles.items()):
        for _ in range(count):
            out.extend(range(start + 1, start + length))
            out.append(start)
            start += length
    return np.array(out)


def commutator_law(n: int, cycles: dict[int, int] | None = None) -> dict[int, Fraction]:
    """Law of fix(g^-1 x^-1 g x) by enumerating every g, and every x unless x is given.

    g^-1 x^-1 g x fixes j exactly when g(x(j)) = x(g(j)).
    """
    group = np.array(list(permutations(range(n))))
    xs = group if cycles is None else [_class_perm(cycles)]
    counts = np.zeros(n + 1, dtype=np.int64)
    for x in xs:
        counts += np.bincount((group[:, x] == x[group]).sum(axis=1), minlength=n + 1)
    total = len(group) * len(xs)
    return {j: Fraction(int(c), total) for j, c in enumerate(counts) if c}


def _cycle_counts_of_rows(perms: np.ndarray) -> np.ndarray:
    """Row-wise number of cycles of each length 1..n."""
    count, n = perms.shape
    length = np.zeros((count, n), dtype=np.int64)
    image = perms.copy()
    points = np.arange(n)
    for step in range(1, n + 1):
        length[(image == points) & (length == 0)] = step
        image = np.take_along_axis(perms, image, axis=1)
    return np.stack([(length == m).sum(axis=1) // m for m in range(1, n + 1)], axis=1)


@lru_cache(maxsize=None)
def _walk_chain(n: int, i: int):
    """Transition counts of the i-cycle walk between cycle types of S_n.

    Row mu lists (nu, count): of all i-cycles c, count of them give c . s
    a cycle type nu, for one fixed s of type mu. The step law is invariant
    under conjugation, so the chain over S_n started at the identity stays
    constant on classes and this lumped chain carries the same law.
    """
    cycles = []
    for support in combinations(range(n), i):
        for rest in permutations(support[1:]):
            order = (support[0], *rest)
            perm = np.arange(n)
            perm[list(order)] = order[1:] + order[:1]
            cycles.append(perm)
    cycles = np.array(cycles)
    types = [tuple(_multiplicities(p, n)) for p in partitions(n)]
    index = {t: s for s, t in enumerate(types)}
    transitions = []
    for counts in types:
        sigma = _class_perm({m + 1: c for m, c in enumerate(counts) if c})
        products = cycles[:, sigma]  # (c . sigma)(j) = c(sigma(j))
        found, freq = np.unique(_cycle_counts_of_rows(products), axis=0, return_counts=True)
        transitions.append([(index[tuple(int(v) for v in row)], int(f)) for row, f in zip(found, freq)])
    fixed = [counts[0] for counts in types]
    return len(cycles), index[tuple(_multiplicities((1,) * n, n))], transitions, fixed


def _multiplicities(parts, n: int) -> list[int]:
    counts = [0] * n
    for p in parts:
        counts[p - 1] += 1
    return counts


def walk_law(n: int, i: int, k: int) -> dict[int, Fraction]:
    """Exact fixed-point law after k uniform i-cycles, by the lumped Markov chain."""
    total, start, transitions, fixed = _walk_chain(n, i)
    weights = [0] * len(transitions)
    weights[start] = 1
    for _ in range(k):
        nxt = [0] * len(weights)
        for mu, w in enumerate(weights):
            if w:
                for nu, c in transitions[mu]:
                    nxt[nu] += w * c
        weights = nxt
    law: dict[int, Fraction] = {}
    for mu, w in enumerate(weights):
        if w:
            law[fixed[mu]] = law.get(fixed[mu], 0) + Fraction(w, total ** k)
    return dict(sorted(law.items()))


def law_moment(law: dict[int, Fraction], r: int) -> Fraction:
    return sum((p * j ** r for j, p in law.items()), Fraction(0))


def law_from_moments(moments: list[Fraction], n: int) -> dict[int, Fraction]:
    """The law on 0..n with moments 1, m_1, ..., m_n, by inclusion-exclusion.

    Factorial moments F_a = sum_r s(a, r) m_r, then
    P(X = j) = sum_{a >= j} (-1)^(a - j) C(a, j) F_a / a!.
    """
    m = [Fraction(1)] + [Fraction(v) for v in moments[:n]]
    falling = [sum(s * m[r] for r, s in enumerate(stirling1_row(a))) for a in range(n + 1)]
    return {
        j: sum((-1) ** (a - j) * comb(a, j) * falling[a] / factorial(a) for a in range(j, n + 1))
        for j in range(n + 1)
    }


def to_binary(q: Fraction, bits: int = 128) -> tuple[int, int]:
    """q rounded to the nearest bits-bit binary float, ties to even, as (mantissa, exponent)."""
    if q == 0:
        return (0, 0)
    sign, q = (-1 if q < 0 else 1), abs(q)
    a, b = q.numerator, q.denominator
    exp = a.bit_length() - b.bit_length() - bits

    def scaled(e):
        return (a << -e, b) if e < 0 else (a, b << e)

    num, den = scaled(exp)
    if num >= den << bits:
        exp += 1
        num, den = scaled(exp)
    mantissa, rem = divmod(num, den)
    if 2 * rem > den or (2 * rem == den and mantissa & 1):
        mantissa += 1
    if mantissa == 1 << bits:
        mantissa, exp = mantissa >> 1, exp + 1
    return (sign * mantissa, exp)


def chi_square(observed: dict[int, int], law: dict[int, Fraction], samples: int):
    """Chi-square statistic, degrees of freedom and p-value of a histogram against a law.

    Neighbouring values are pooled until each bin expects at least 5
    counts. A count at a value of zero probability gives p = 0.
    """
    if any(j not in law for j, c in observed.items() if c):
        return float("inf"), 0, 0.0
    bins, expected, seen = [], 0.0, 0
    for j in sorted(law):
        expected += float(law[j]) * samples
        seen += observed.get(j, 0)
        if expected >= 5:
            bins.append((expected, seen))
            expected, seen = 0.0, 0
    if bins and expected:
        last_e, last_o = bins.pop()
        bins.append((last_e + expected, last_o + seen))
    stat = sum((o - e) ** 2 / e for e, o in bins)
    df = len(bins) - 1
    if df < 1:
        return stat, df, 1.0
    p = float(mpmath.gammainc(df / 2, stat / 2, mpmath.inf, regularized=True))
    return stat, df, p
