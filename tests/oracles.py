"""Brute-force oracles used only by the test suite.

Everything here is deliberately independent of the package's production
algorithms: tableaux are enumerated cell by cell, characters come from
permutation-module fixed-point counts plus exact Gram-Schmidt, and the
longest increasing subsequence uses dynamic programming. Four exceptions
keep a production path's former form as the reference for its
replacement: per_order_moment, the moment engines' per-order shape sum;
factorial_moments_by_skew_counts, the engine's former per-shape route to
the factorial moments; dim_hook_product, the uncancelled hook length
formula; and character_recursive, the Murnaghan-Nakayama recursion with
one call per cycle. skew_syt_count_determinant is an independent
determinant evaluation of the skew tableau counts. The scalar samplers
draw one permutation at a time with plain Python loops, as references for
the vectorized kernels.
"""
from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import combinations, permutations
from math import factorial

import numpy as np

from permfix.characters import CycleType, perm_cycle_type
from permfix.errors import SizeMismatchError, ValidationError
from permfix.multiplicity import mult_skew
from permfix.partitions import (
    Partition,
    all_partitions,
    hook_lengths,
    partitions_with_large_first_row,
)
from permfix.simulate import commutator_perm, compose, identity_perm
from permfix.tableaux import skew_syt_count


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


def dim_hook_product(lam) -> int:
    """Dimension as n! over the product of every hook length, nothing cancelled."""
    lam = Partition(lam)
    product = 1
    for h in hook_lengths(lam):
        product *= h
    q, rem = divmod(factorial(lam.n), product)
    assert rem == 0, f"hook product does not divide {lam.n}! for {lam!r}"
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


def factorial_moments_by_skew_counts(n: int, a_max: int, weight, total=sum) -> list:
    """F_a = total of weight(lam) * skew_syt_count(lam, (n - a)), for a = 0..a_max.

    This is the route the moment engine took before its lattice pass: one
    product per (shape, a), each skew count a corner-peeling memo lookup.
    For the walk's float path, call it inside workprec(precision + 40) with
    total=mpmath.fsum.
    """
    terms: list[list] = [[] for _ in range(a_max + 1)]
    for lam in partitions_with_large_first_row(n, a_max):
        w = weight(lam)
        for a in range(n - lam[0] if lam else 0, a_max + 1):
            terms[a].append(w * skew_syt_count(lam, (n - a,) if a < n else ()))
    return [total(t) for t in terms]


def _det_fraction(matrix: list[list[Fraction]]) -> Fraction:
    m = [row[:] for row in matrix]
    size = len(m)
    det = Fraction(1)
    for col in range(size):
        pivot = next((r for r in range(col, size) if m[r][col] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            m[col], m[pivot] = m[pivot], m[col]
            det = -det
        det *= m[col][col]
        inv = 1 / m[col][col]
        for r in range(col + 1, size):
            if m[r][col] != 0:
                factor = m[r][col] * inv
                for c in range(col, size):
                    m[r][c] -= factor * m[col][c]
    return det


def skew_syt_count_determinant(outer, inner=()) -> int:
    """Independent determinant evaluation of the same skew count.

    The entry at (i, j) is 1/((outer_i - i) - (inner_j - j))!, with
    reciprocal factorials of negative integers read as zero.
    """
    outer = Partition(outer)
    inner = tuple(Partition(inner))
    size = outer.n - sum(inner)
    ell = len(outer)
    if ell == 0:
        return 1
    padded = inner + (0,) * (ell - len(inner))
    matrix = []
    for i in range(ell):
        row = []
        for j in range(ell):
            e = (outer[i] - (i + 1)) - (padded[j] - (j + 1))
            row.append(Fraction(1, factorial(e)) if e >= 0 else Fraction(0))
        matrix.append(row)
    value = factorial(size) * _det_fraction(matrix)
    if value.denominator != 1:
        raise ArithmeticError(f"determinant count is not integral for {outer}/{inner}")
    return int(value)


# Scalar samplers: one permutation at a time, as references for the
# vectorized kernels of permfix.simulate.


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
