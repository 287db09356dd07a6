"""Brute-force oracles used only by the test suite.

Everything here is deliberately independent of the package's production
algorithms: tableaux are enumerated cell by cell, characters come from
permutation-module fixed-point counts plus exact Gram-Schmidt, and the
longest increasing subsequence uses dynamic programming. Nine exceptions
keep a production path's former form as the reference for its
replacement: bounded_partitions_recursive, the recursive shape
enumerator; per_order_moment, the moment engines' per-order shape sum;
factorial_moments_by_skew_counts, the engine's former per-shape route to
the factorial moments, with its skew counts from the memoized
corner-peeling recursion skew_count_by_corner_peeling; dim_hook_product,
the uncancelled hook length formula; dim_first_row_cancelled, the hook
length formula over the conjugate's columns with the first row's trailing
hooks cancelled against n!; char_ratio_by_strip_removal, the i-cycle
ratio from one border strip removal and the dimensions of the shapes it
leaves; character_recursive, the
Murnaghan-Nakayama recursion with one call per cycle;
char_near_one_row, the closed forms that character polynomials replaced
for the three shapes nearest one row; and
two_shuffle_commutator_fix_counts, the both-random commutator kernel
that shuffled x as well as g before x was drawn by its cycle type.
Corner peeling and the cell-by-cell enumeration count_syt check the
package's skew counts, Aitken's row expansion and determinant alike.
icycle_walk_laws_by_convolution is an independent route to the walk's
fixed-point law, by convolving the uniform i-cycle law over all of S_n. stratum_sizes counts the shapes of
each first part from partition numbers, not by enumerating them, as an
independent check on the engine's enumeration and its shape cap. The
scalar samplers draw one permutation at a time with plain Python loops,
as references for the vectorized kernels.
The top-to-random sampler performs the shuffles and RSK insertion, to
check the package's exact shape law against sampled frequencies.
"""
from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, permutations, product
from math import comb, factorial, perm, prod, sqrt
from typing import Iterator

import numpy as np

from permfix.characters import CycleType, commutator_perm, compose, perm_cycle_type
from permfix.errors import EnumerationLimitError, SizeMismatchError, ValidationError
from permfix.laws import stirling_row
from permfix.multiplicity import exact_shape_distribution, mult_skew
from permfix.partitions import (
    Partition,
    all_partitions,
    partitions_with_large_first_row,
)


def syt_fillings(outer, inner=()) -> list[tuple[tuple[int, ...], ...]]:
    """All standard fillings of the skew cells, enumerated cell by cell."""
    outer = tuple(outer)
    inner = tuple(inner) + (0,) * (len(outer) - len(inner))
    cells = [
        (i, j) for i in range(len(outer)) for j in range(inner[i], outer[i])
    ]
    size = len(cells)
    fillings = []
    grid: dict[tuple[int, int], int] = {}

    def ready(cell) -> bool:
        i, j = cell
        left_ok = j == inner[i] or (i, j - 1) in grid
        up_ok = i == 0 or j < inner[i - 1] or (i - 1, j) in grid
        return left_ok and up_ok

    def place(value: int) -> None:
        if value > size:
            rows = []
            for i in range(len(outer)):
                rows.append(
                    tuple(grid[(i, j)] for j in range(inner[i], outer[i]))
                )
            fillings.append(tuple(rows))
            return
        for cell in cells:
            if cell not in grid and ready(cell):
                grid[cell] = value
                place(value + 1)
                del grid[cell]

    place(1)
    return fillings


def count_syt(outer, inner=()) -> int:
    return len(syt_fillings(outer, inner))


@lru_cache(maxsize=None)
def dim_branching(parts: tuple) -> int:
    """Dimension by corner-peeling recursion, no hook formula."""
    if sum(parts) == 0:
        return 1
    total = 0
    for i in range(len(parts)):
        if i + 1 == len(parts) or parts[i] > parts[i + 1]:
            if parts[i] == 1:
                smaller = parts[:i] + parts[i + 1:]
            else:
                smaller = parts[:i] + (parts[i] - 1,) + parts[i + 1:]
            total += dim_branching(smaller)
    return total


def hook_lengths(lam) -> list[int]:
    """Hook lengths of every cell, row-major order."""
    lam = Partition(lam)
    conj = lam.conjugate()
    hooks = []
    for i, p in enumerate(lam):
        for j in range(p):
            hooks.append(p + conj[j] - i - j - 1)
    return hooks


def dim_hook_product(lam) -> int:
    """Dimension as n! over the product of every hook length, nothing cancelled."""
    lam = Partition(lam)
    product = 1
    for h in hook_lengths(lam):
        product *= h
    q, rem = divmod(factorial(lam.n), product)
    assert rem == 0, f"hook product does not divide {lam.n}! for {lam!r}"
    return q


def dim_first_row_cancelled(lam) -> int:
    """Dimension as perm(n, n - lam_1 + lam_2) over the hooks of the first row's
    first lam_2 cells, read off the conjugate of the shape below it, and that shape's hooks."""
    lam = Partition(lam)
    if not lam:
        return 1
    bar = lam.first_row_removed()
    first, n = lam[0], lam.n
    product = prod(first - j + col for j, col in enumerate(bar.conjugate()))
    product *= prod(hook_lengths(bar))
    q, rem = divmod(perm(n, n - first + (bar[0] if bar else 0)), product)
    assert rem == 0, f"hook product does not divide {n}! for {lam!r}"
    return q


def _beta_strip_removals(parts: tuple, size: int) -> list[tuple[tuple, int]]:
    """Shapes and heights left by removing one border strip, read off beta sets."""
    length = len(parts)
    beta = [parts[j] + (length - 1 - j) for j in range(length)]
    occupied = set(beta)
    results = []
    for b in beta:
        nb = b - size
        if nb < 0 or nb in occupied:
            continue
        height = sum(1 for x in beta if nb < x < b)
        new = sorted((occupied - {b}) | {nb}, reverse=True)
        shape = tuple(new[j] - (length - 1 - j) for j in range(length))
        while shape and shape[-1] == 0:
            shape = shape[:-1]
        results.append((shape, height))
    return results


def char_ratio_by_strip_removal(lam, i: int) -> Fraction:
    """chi^lam / f^lam on an i-cycle: the signed dimensions of the shapes left by
    removing one border strip of i cells, over the dimension of lam."""
    numerator = 0
    for shape, height in _beta_strip_removals(tuple(lam), i):
        numerator += (-1) ** height * dim_first_row_cancelled(shape)
    return Fraction(numerator, dim_first_row_cancelled(lam))


@lru_cache(maxsize=None)
def character_recursive(parts: tuple, cycles: tuple) -> int:
    """Murnaghan-Nakayama value, one recursive call per cycle, cycles largest first."""
    if not cycles:
        return 1
    total = 0
    for shape, height in _beta_strip_removals(parts, cycles[0]):
        value = character_recursive(shape, cycles[1:])
        total += -value if height % 2 else value
    return total


def _choose2(m: int) -> int:
    """m(m-1)/2, defined for every integer so n_1 = 0 classes work."""
    return m * (m - 1) // 2


def char_near_one_row(lam, mu) -> int:
    """Closed-form character for the three shapes closest to a single row.

    Covers first part n-1 with one extra cell, and first part n-2 with
    either a row or a column pair below; values depend only on the fixed
    point and 2-cycle counts of the class.
    """
    lam = Partition(lam)
    mu = CycleType(mu)
    n = mu.n
    if lam.n != n:
        raise SizeMismatchError(f"|{lam!r}| = {lam.n} but |{mu!r}| = {n}")
    n1, n2 = mu.n_1, mu.n_2
    if n >= 2 and lam == (n - 1, 1):
        return n1 - 1
    if n >= 4 and lam == (n - 2, 2):
        return _choose2(n1 - 1) + n2 - 1
    if n >= 4 and lam == (n - 2, 1, 1):
        return _choose2(n1 - 1) - n2
    raise ValidationError(f"no closed form for {lam!r} at n = {n}")


def set_partitions(items: tuple):
    """All set partitions of the items, as tuples of frozensets."""
    if not items:
        yield ()
        return
    first, rest = items[0], items[1:]
    for k in range(len(rest) + 1):
        for extra in combinations(rest, k):
            block = frozenset((first, *extra))
            remaining = tuple(x for x in rest if x not in extra)
            for tail in set_partitions(remaining):
                yield (block, *tail)


def lis_length(word) -> int:
    best = []
    lengths = [1] * len(word)
    for idx in range(len(word)):
        for prev in range(idx):
            if word[prev] < word[idx]:
                lengths[idx] = max(lengths[idx], lengths[prev] + 1)
    return max(lengths, default=0)


def _tabloids(n: int, shape: tuple[int, ...]):
    """Ordered block decompositions of 0..n-1 with the given block sizes."""
    def rec(available: tuple[int, ...], sizes: tuple[int, ...]):
        if not sizes:
            yield ()
            return
        head, *tail = sizes
        for block in combinations(available, head):
            remaining = tuple(v for v in available if v not in block)
            for rest in rec(remaining, tuple(tail)):
                yield (frozenset(block), *rest)

    yield from rec(tuple(range(n)), shape)


def brute_character_table(n: int) -> dict[tuple, dict[CycleType, int]]:
    """Exact character table from permutation-module fixed points.

    Row fixed-point counts of the block-permutation action give the
    permutation characters; peeling previously extracted irreducibles by
    exact inner products leaves the irreducible rows. Shapes are
    processed largest-first, which is compatible with the unitriangular
    transition between the two bases.
    """
    if n > 6:
        raise ValueError("brute table limited to n <= 6")
    reps: dict[CycleType, tuple[int, ...]] = {}
    for g in permutations(range(n)):
        reps.setdefault(perm_cycle_type(g), g)
    classes = sorted(reps, reverse=True)
    class_sizes = {ct: ct.class_size() for ct in classes}

    def inner(u: dict, v: dict) -> Fraction:
        total = sum(class_sizes[ct] * u[ct] * v[ct] for ct in classes)
        return Fraction(total, factorial(n))

    table: dict[tuple, dict[CycleType, int]] = {}
    for lam in all_partitions(n):
        shape = tuple(lam)
        eta = {}
        for ct in classes:
            g = reps[ct]
            eta[ct] = sum(
                1
                for tabloid in _tabloids(n, shape)
                if all({g[v] for v in block} == set(block) for block in tabloid)
            )
        row = {ct: Fraction(eta[ct]) for ct in classes}
        for done in table.values():
            coeff = inner(row, done)
            if coeff:
                for ct in classes:
                    row[ct] -= coeff * done[ct]
        assert inner(row, row) == 1, f"row for {shape} is not irreducible"
        table[shape] = {ct: int(row[ct]) for ct in classes}
    return table


def enumerate_perms(n: int):
    return permutations(range(n))


def uniform_fixed_histogram_by_enumeration(n: int) -> dict[int, Fraction]:
    counts: dict[int, int] = {}
    for g in permutations(range(n)):
        fix = sum(1 for j, v in enumerate(g) if j == v)
        counts[fix] = counts.get(fix, 0) + 1
    return {j: Fraction(c, factorial(n)) for j, c in sorted(counts.items())}


def derangement_law(n: int) -> dict[int, Fraction]:
    """The fixed-point law of a uniform permutation of n points, by counting:
    C(n, j) * D(n - j) / n!, with D(m) = m * D(m - 1) + (-1)^m the
    derangement counts. Values of probability 0 (only j = n - 1) are left out."""
    derangements = [1]
    for m in range(1, n + 1):
        derangements.append(m * derangements[-1] + (-1) ** m)
    return {
        j: Fraction(comb(n, j) * derangements[n - j], factorial(n))
        for j in range(n + 1)
        if j != n - 1
    }


def empirical_law(dist) -> dict[int, Fraction]:
    """The law {j: count / samples} of a sampler's histogram."""
    return {j: Fraction(c, dist.samples) for j, c in dist.histogram.items()}


def stick_breaking_ones_laws(n_max: int) -> list[dict[int, Fraction]]:
    """For each n <= n_max, the law of how many draws equal 1 when n is cut
    by draws uniform on 1..left, left being what earlier draws left over,
    until nothing is left: a recursion over left, with no permutations."""
    laws = [{0: Fraction(1)}]
    for left in range(1, n_max + 1):
        law: dict[int, Fraction] = {}
        for length in range(1, left + 1):
            for j, p in laws[left - length].items():
                key = j + (length == 1)
                law[key] = law.get(key, Fraction(0)) + p / left
        laws.append(dict(sorted(law.items())))
    return laws


def icycle_walk_laws_by_convolution(n: int, i: int, k_max: int) -> list[dict[int, Fraction]]:
    """Fixed-point laws of the product of k uniform i-cycles, for k = 0..k_max.

    counts[sigma] is the number of k-tuples of i-cycles whose product is
    sigma, convolved one factor at a time over all n! permutations; each
    i-cycle moves the counts along its own table sigma -> c o sigma.
    """
    perms = list(permutations(range(n)))
    index = {p: j for j, p in enumerate(perms)}
    cycles = []
    for support in combinations(range(n), i):
        for rest in permutations(support[1:]):
            order = (support[0], *rest)
            cycle = list(range(n))
            for a, b in zip(order, order[1:] + order[:1]):
                cycle[a] = b
            cycles.append(tuple(cycle))
    steps = [np.array([index[compose(c, p)] for p in perms]) for c in cycles]
    fixed = np.array([sum(j == v for j, v in enumerate(p)) for p in perms])
    counts = np.zeros(len(perms), dtype=np.int64)
    counts[index[tuple(range(n))]] = 1
    laws = []
    for k in range(k_max + 1):
        if k:
            moved = np.zeros_like(counts)
            for step in steps:
                moved[step] += counts
            counts = moved
        by_fixed = np.zeros(n + 1, dtype=np.int64)
        np.add.at(by_fixed, fixed, counts)
        laws.append({j: Fraction(int(c), len(cycles) ** k) for j, c in enumerate(by_fixed) if c})
    return laws


def bounded_partitions_recursive(n: int, cap: int):
    """Partitions of n with parts <= cap, largest first, by recursion on the first part.

    This is the enumerator the package used before its iterative pass
    (partitions.partition_tuples).
    """
    if n == 0:
        yield ()
        return
    for first in range(min(n, cap), 0, -1):
        for rest in bounded_partitions_recursive(n - first, first):
            yield (first, *rest)


def stratum_sizes(n: int, t_max: int) -> Iterator[int]:
    """How many shapes partitions_with_large_first_row(n, t_max) yields with
    first part n - t, for t = 0, 1, ...: the partitions of t into parts of at
    most n - t, counted in O(t) additions each, not enumerated."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    rows: list[list[int]] = []  # rows[m][c]: partitions of m into parts <= c, c <= m
    for t in range(min(t_max, max(n - 1, 0)) + 1):
        row = [int(t == 0)]
        for c in range(1, t + 1):
            row.append(row[c - 1] + rows[t - c][min(c, t - c)])
        rows.append(row)
        yield row[min(n - t, t)]


def per_order_moment(n: int, r: int, weight, total=sum):
    """The rth moment as its own shape sum: total of weight(lam) * mult_skew(lam, r).

    This is the per-order sum the moment engines ran before one engine
    shared factorial moments across orders: it enumerates the shapes with
    first part at least n - r again for every r and takes each
    multiplicity whole. For the walk's float path, call it inside
    workprec(precision + 40) with total=mpmath.fsum and round the result.
    """
    terms = []
    for lam in partitions_with_large_first_row(n, min(r, n)):
        m = mult_skew(lam, r)
        if m:
            terms.append(weight(lam) * m)
    return total(terms)


@lru_cache(maxsize=None)
def skew_count_by_corner_peeling(outer: tuple, inner: tuple) -> int:
    """f^{outer/inner}: the sum of the counts left after removing each corner of outer."""
    if not Partition.contains(outer, inner):
        return 0
    if sum(outer) == sum(inner):
        return 1
    total = 0
    for i, p in enumerate(outer):
        if i + 1 == len(outer) or p > outer[i + 1]:
            smaller = outer[:i] + (p - 1,) + outer[i + 1:] if p > 1 else outer[:i]
            total += skew_count_by_corner_peeling(smaller, inner)
    return total


def factorial_moments_by_skew_counts(n: int, a_max: int, weight, total=sum) -> list:
    """F_a = total of weight(lam) * f^{lam/(n-a)}, for a = 0..a_max.

    This is the route the moment engine took before it summed Aitken's
    row terms: one product per (shape, a), each skew count a
    corner-peeling memo lookup.
    For the walk's float path, call it inside workprec(precision + 40) with
    total=mpmath.fsum.
    """
    terms: list[list] = [[] for _ in range(a_max + 1)]
    for lam in partitions_with_large_first_row(n, a_max):
        w = weight(lam)
        for a in range(n - lam[0] if lam else 0, a_max + 1):
            terms[a].append(w * skew_count_by_corner_peeling(tuple(lam), (n - a,) if a < n else ()))
    return [total(t) for t in terms]


def moments_by_fraction_weights(n: int, r_max: int, weight) -> list[Fraction]:
    """Moments r = 0..r_max as sum_a S(r, a) * F_a, on Fraction weights.

    The engine's weights are integer pairs over a common denominator; this
    is the same combination with each weight a Fraction and each F_a a
    sum of Fraction products (factorial_moments_by_skew_counts).
    """
    factorial_moments = factorial_moments_by_skew_counts(n, min(r_max, n), weight)
    return [sum((s * f for s, f in zip(stirling_row(r), factorial_moments)), Fraction(0))
            for r in range(r_max + 1)]


# Scalar samplers: one permutation at a time, as references for the
# vectorized kernels of permfix.simulate.


def make_rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))


def identity_perm(n: int) -> tuple[int, ...]:
    return tuple(range(n))


def fixed_point_count(p) -> int:
    return sum(1 for j, v in enumerate(p) if j == v)


def sample_uniform(n: int, rng: np.random.Generator) -> tuple[int, ...]:
    """Uniform permutation via the generator's unbiased shuffle."""
    if n < 1:
        raise ValidationError("n must be positive")
    return tuple(int(v) for v in rng.permutation(n))


def sample_commutator(n: int, rng: np.random.Generator, x=None) -> tuple[int, ...]:
    """Commutator of a uniform g with x (uniform too when absent)."""
    g = sample_uniform(n, rng)
    if x is None:
        x = sample_uniform(n, rng)
    elif len(x) != n:
        raise SizeMismatchError(f"fixed factor has size {len(x)}, expected {n}")
    return commutator_perm(g, x)


def two_shuffle_commutator_fix_counts(n: int, count: int, rng: np.random.Generator) -> np.ndarray:
    """Fixed points of count commutators of two uniform permutations, each
    a shuffle of n points: g from rng and x from a child jumped from rng,
    as permfix.simulate drew them at stream versions 4 and 5, in rows of
    about 2^16 entries."""
    x_rng = np.random.Generator(rng.bit_generator.jumped())
    rows = max(1, (1 << 16) // n)
    fix = np.empty(count, dtype=np.int64)
    for start in range(0, count, rows):
        points = np.tile(np.arange(n), (min(rows, count - start), 1))
        g = rng.permuted(points, axis=1)
        x = x_rng.permuted(points, axis=1)
        same = np.take_along_axis(g, x, axis=1) == np.take_along_axis(x, g, axis=1)
        fix[start : start + len(same)] = same.sum(axis=1)
    return fix


def sample_icycle(n: int, i: int, rng: np.random.Generator) -> tuple[int, ...]:
    """Uniform i-cycle, sampled as an ordered tuple of distinct points.

    Each cycle arises from exactly i ordered tuples, so the outcome is
    uniform over all i-cycles.
    """
    if not 2 <= i <= n:
        raise ValidationError(f"need 2 <= i <= {n}, got i = {i}")
    pool = list(range(n))
    for j in range(i):
        pick = j + int(rng.integers(0, n - j))
        pool[j], pool[pick] = pool[pick], pool[j]
    points = pool[:i]
    out = list(range(n))
    for j in range(i):
        out[points[j]] = points[(j + 1) % i]
    return tuple(out)


def sample_icycle_walk(n: int, i: int, k: int, rng: np.random.Generator) -> tuple[int, ...]:
    """Product of k independent uniform i-cycles applied to the identity."""
    if k < 0:
        raise ValidationError("k must be nonnegative")
    g = identity_perm(n)
    for _ in range(k):
        g = compose(sample_icycle(n, i, rng), g)
    return g


# Top-to-random shuffles and RSK shapes


def rsk_shape(word) -> Partition:
    """Common shape of the RSK insertion pair of a sequence of distinct values."""
    rows: list[list[int]] = []
    for value in word:
        for row in rows:
            idx = bisect_left(row, value)
            if idx == len(row):
                row.append(value)
                value = None
                break
            row[idx], value = value, row[idx]
        if value is not None:
            rows.append([value])
    return Partition(tuple(len(row) for row in rows))


def top_to_random_step(deck: tuple[int, ...], position: int) -> tuple[int, ...]:
    """Remove the top card and insert it at the given position (0 = back on top)."""
    rest = deck[1:]
    return rest[:position] + (deck[0],) + rest[position:]


@lru_cache(maxsize=None)
def _deck_after(n: int, positions: tuple[int, ...]) -> tuple[int, ...]:
    deck = identity_perm(n)
    for pos in positions:
        deck = top_to_random_step(deck, pos)
    return deck


@lru_cache(maxsize=None)
def _shape_index_table(n: int, r: int) -> tuple[tuple[Partition, ...], np.ndarray]:
    """RSK shape of the deck after every insertion sequence of length r."""
    shapes = tuple(all_partitions(n))
    index = {shape: s for s, shape in enumerate(shapes)}
    table = np.empty(n ** r, dtype=np.int64)
    shape_of_deck: dict[tuple[int, ...], int] = {}
    for code, seq in enumerate(product(range(n), repeat=r)):
        deck = _deck_after(n, seq)
        s = shape_of_deck.get(deck)
        if s is None:
            s = index[rsk_shape(deck)]
            shape_of_deck[deck] = s
        table[code] = s
    return shapes, table


@dataclass(frozen=True)
class ShapeCheckRow:
    shape: Partition
    probability: Fraction
    expected: float
    observed: int
    z: float | None


@dataclass(frozen=True)
class ShapeCheckReport:
    n: int
    r: int
    samples: int
    seed: int
    chi_square: float
    rows: tuple[ShapeCheckRow, ...]


def top_to_random_shape_check(n: int, r: int, samples: int, seed: int) -> ShapeCheckReport:
    """Sampled shape frequencies against the exact law, with z and chi-square.

    Insertion positions are drawn uniformly per shuffle; decks for every
    position sequence are tabulated once by actually performing the
    shuffles, so sampling reduces to indexing that table.
    """
    if n > 8 or r > 6:
        raise EnumerationLimitError("shape check limited to n <= 8 and r <= 6")
    exact = exact_shape_distribution(n, r)
    shapes, table = _shape_index_table(n, r)
    rng = make_rng(seed)
    draws = rng.integers(0, n, size=(samples, max(r, 1)))
    if r == 0:
        codes = np.zeros(samples, dtype=np.int64)
    else:
        weights = n ** np.arange(r - 1, -1, -1, dtype=np.int64)
        codes = draws[:, :r] @ weights
    observed = np.bincount(table[codes], minlength=len(shapes))
    return _assemble_shape_report(n, r, samples, seed, exact, shapes, observed)


def _assemble_shape_report(n, r, samples, seed, exact, shapes, observed):
    rows = []
    chi_sq = 0.0
    for s, shape in enumerate(shapes):
        p = exact[shape]
        exp = float(p) * samples
        obs = int(observed[s])
        if 0 < p < 1:
            z = (obs - exp) / sqrt(float(p) * (1 - float(p)) * samples)
        else:
            z = None
        if p > 0:
            chi_sq += (obs - exp) ** 2 / exp
        rows.append(
            ShapeCheckRow(shape=shape, probability=p, expected=exp, observed=obs, z=z)
        )
    return ShapeCheckReport(
        n=n, r=r, samples=samples, seed=seed, chi_square=chi_sq, rows=tuple(rows)
    )
