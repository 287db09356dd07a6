"""Random permutation sampling, RSK shapes, and small-n exhaustive oracles.

Randomness contract: every sampler draws from a numpy PCG64 generator.
A run is identified by a 64-bit master seed; worker streams are derived
with SeedSequence(seed).spawn, so chunked or threaded runs produce the
same histogram as a sequential run with the same seed and chunking.

Permutations are tuples in one-line form over 0..n-1. compose(p, q)
applies q first.
"""
from __future__ import annotations

from bisect import bisect_left
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from itertools import permutations, product
from math import comb, exp, factorial, sqrt

import numpy as np

from .characters import CycleType
from .errors import EnumerationLimitError, SizeMismatchError, ValidationError
from .multiplicity import mult_skew
from .partitions import Partition, all_partitions, dim

_CHUNK = 1 << 17


def make_rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))


def spawn_rngs(seed: int, count: int) -> list[np.random.Generator]:
    """Independent per-worker generators derived from the master seed."""
    return [
        np.random.Generator(np.random.PCG64(s))
        for s in np.random.SeedSequence(seed).spawn(count)
    ]


def identity_perm(n: int) -> tuple[int, ...]:
    return tuple(range(n))


def compose(p, q) -> tuple[int, ...]:
    """The permutation applying q first and then p."""
    return tuple(p[q[j]] for j in range(len(p)))


def inverse(p) -> tuple[int, ...]:
    out = [0] * len(p)
    for j, v in enumerate(p):
        out[v] = j
    return tuple(out)


def fixed_point_count(p) -> int:
    return sum(1 for j, v in enumerate(p) if j == v)


def commutator_perm(g, x) -> tuple[int, ...]:
    """g^-1 x^-1 g x in one-line form."""
    return compose(compose(inverse(g), inverse(x)), compose(g, x))


def perm_from_cycle_type(ct) -> tuple[int, ...]:
    """Canonical representative: cycles laid out consecutively on 0..n-1."""
    ct = CycleType(ct)
    out = []
    start = 0
    for length in ct:
        out.extend(list(range(start + 1, start + length)) + [start])
        start += length
    return tuple(out)


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


# ---------------------------------------------------------------------------
# Empirical distributions and batched Monte Carlo drivers


@dataclass
class EmpiricalDistribution:
    """Integer histogram of fixed-point counts from one seeded run."""

    model: str
    params: dict
    seed: int
    samples: int
    histogram: dict[int, int] = field(default_factory=dict)

    def moment(self, r: int) -> Fraction:
        total = sum(count * j ** r for j, count in self.histogram.items())
        return Fraction(total, self.samples)

    @property
    def mean(self) -> Fraction:
        return self.moment(1)


def _batch_uniform_rows(n: int, count: int, rng: np.random.Generator) -> np.ndarray:
    rows = np.tile(np.arange(n), (count, 1))
    return rng.permuted(rows, axis=1)


def _uniform_fix_counts(n, count, rng, params) -> np.ndarray:
    g = _batch_uniform_rows(n, count, rng)
    return (g == np.arange(n)).sum(axis=1)


def _commutator_fix_counts(n, count, rng, params) -> np.ndarray:
    # fix(g^-1 x^-1 g x) counts the points where g.x and x.g agree.
    g = _batch_uniform_rows(n, count, rng)
    x_row = params.get("x_row")
    if x_row is None:
        x = _batch_uniform_rows(n, count, rng)
    else:
        x = np.tile(x_row, (count, 1))
    gx = np.take_along_axis(g, x, axis=1)
    xg = np.take_along_axis(x, g, axis=1)
    return (gx == xg).sum(axis=1)


def _distinct_tuples(n, i, count, rng, dtype) -> np.ndarray:
    """Uniform ordered i-tuples of distinct points, by vectorized rejection."""
    points = rng.integers(0, n, size=(count, i), dtype=dtype)
    while True:
        clash = np.zeros(count, dtype=bool)
        for a in range(i):
            for b in range(a + 1, i):
                clash |= points[:, a] == points[:, b]
        bad = int(clash.sum())
        if not bad:
            return points
        points[clash] = rng.integers(0, n, size=(bad, i), dtype=dtype)


def _walk_fix_counts(n, count, rng, params) -> np.ndarray:
    # Track the inverse one-line form: left-multiplying by the cycle
    # p_1 -> ... -> p_i only moves the i entries at those values, so one
    # step costs O(i) per sample instead of O(n). Fixed points agree
    # with those of the permutation itself.
    i, k = params["i"], params["k"]
    dtype = np.int16 if n < 2 ** 15 else np.int64
    h = np.tile(np.arange(n, dtype=dtype), (count, 1))
    rows = np.arange(count)[:, None]
    for _ in range(k):
        points = _distinct_tuples(n, i, count, rng, dtype)
        moved = h[rows, points]
        h[rows, np.roll(points, -1, axis=1)] = moved
    return (h == np.arange(n, dtype=dtype)).sum(axis=1)


_KERNELS = {
    "uniform": _uniform_fix_counts,
    "commutator": _commutator_fix_counts,
    "walk": _walk_fix_counts,
}


def fixed_point_histogram(
    model: str,
    n: int,
    samples: int,
    seed: int,
    *,
    i: int | None = None,
    k: int | None = None,
    x=None,
    threads: int = 1,
) -> EmpiricalDistribution:
    """Seeded histogram of fixed-point counts for one model.

    Work is split into fixed-size chunks, one spawned stream per chunk;
    merging integer histograms is order-independent, so the result
    depends only on the seed and the parameters.
    """
    if model not in _KERNELS:
        raise ValidationError(f"unknown model {model!r}")
    if n < 1 or samples < 1:
        raise ValidationError("need n >= 1 and samples >= 1")
    params: dict = {}
    report_params: dict = {"n": n}
    if model == "walk":
        if i is None or k is None:
            raise ValidationError("walk model needs i and k")
        if not 2 <= i <= n:
            raise ValidationError(f"need 2 <= i <= {n}, got i = {i}")
        if k < 0:
            raise ValidationError("k must be nonnegative")
        params.update(i=i, k=k)
        report_params.update(i=i, k=k)
    elif model == "commutator" and x is not None:
        x = CycleType(x)
        if x.n != n:
            raise SizeMismatchError(f"cycle type {x!r} has size {x.n}, expected {n}")
        params["x_row"] = np.array(perm_from_cycle_type(x))
        report_params["x"] = tuple(x)

    kernel = _KERNELS[model]
    sizes = [_CHUNK] * (samples // _CHUNK)
    if samples % _CHUNK:
        sizes.append(samples % _CHUNK)
    rngs = spawn_rngs(seed, len(sizes))

    def run_chunk(args) -> Counter:
        size, rng = args
        counts = kernel(n, size, rng, params)
        values, freq = np.unique(counts, return_counts=True)
        return Counter({int(v): int(f) for v, f in zip(values, freq)})

    merged: Counter = Counter()
    with ThreadPoolExecutor(max_workers=max(1, threads)) as pool:
        for part in pool.map(run_chunk, zip(sizes, rngs)):
            merged.update(part)
    return EmpiricalDistribution(
        model=model,
        params=report_params,
        seed=seed,
        samples=samples,
        histogram=dict(sorted(merged.items())),
    )


# ---------------------------------------------------------------------------
# Top-to-random shuffles and RSK shape statistics


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


def exact_shape_distribution(n: int, r: int) -> dict[Partition, Fraction]:
    """Law of the RSK shape after r top-to-random shuffles of a sorted deck."""
    if n < 1 or r < 0:
        raise ValidationError("need n >= 1 and r >= 0")
    return {
        lam: Fraction(mult_skew(lam, r) * dim(lam), n ** r)
        for lam in all_partitions(n)
    }


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


# ---------------------------------------------------------------------------
# Exhaustive oracles


def enumerate_commutator_distribution(n: int, x=None) -> dict[int, Fraction]:
    """Exact fixed-point law of the commutator by full enumeration.

    With x given, g runs over the whole group; with x absent both factors
    do. fix(g^-1 x^-1 g x) equals the number of points where g.x and x.g
    agree, so no inverses are formed in the inner loop.
    """
    if x is not None:
        x = CycleType(x)
        if x.n != n:
            raise SizeMismatchError(f"cycle type {x!r} has size {x.n}, expected {n}")
        if n > 7:
            raise EnumerationLimitError("fixed-x enumeration limited to n <= 7")
        xp = perm_from_cycle_type(x)
        counts: Counter = Counter()
        for g in permutations(range(n)):
            fix = sum(1 for j in range(n) if g[xp[j]] == xp[g[j]])
            counts[fix] += 1
        denom = factorial(n)
    else:
        if n > 6:
            raise EnumerationLimitError("both-random enumeration limited to n <= 6")
        perms = list(permutations(range(n)))
        counts = Counter()
        for g in perms:
            for xq in perms:
                fix = sum(1 for j in range(n) if g[xq[j]] == xq[g[j]])
                counts[fix] += 1
        denom = factorial(n) ** 2
    return {j: Fraction(c, denom) for j, c in sorted(counts.items())}


def _subfactorial(m: int) -> int:
    d = 1
    for j in range(1, m + 1):
        d = j * d + (-1) ** j
    return d


def uniform_fixed_distribution_exact(n: int) -> dict[int, Fraction]:
    """Exact fixed-point law of a uniform permutation (derangement counts)."""
    if n < 1:
        raise ValidationError("n must be positive")
    return {
        j: Fraction(comb(n, j) * _subfactorial(n - j), factorial(n))
        for j in range(n + 1)
        if j != n - 1
    }


def exact_moment(distribution: dict[int, Fraction], r: int) -> Fraction:
    return sum((Fraction(p) * j ** r for j, p in distribution.items()), Fraction(0))


def tv_to_poisson(dist, lam: float) -> float:
    """Total variation distance to a Poisson law with the given mean.

    Poisson mass beyond the largest support point of dist is folded into
    the distance, so the result lives in [0, 1].
    """
    if lam < 0:
        raise ValidationError("mean must be nonnegative")
    if isinstance(dist, EmpiricalDistribution):
        probs = {j: c / dist.samples for j, c in dist.histogram.items()}
    else:
        probs = {j: float(p) for j, p in dist.items()}
    top = max(probs) if probs else 0
    acc = 0.0
    covered = 0.0
    pmf = exp(-lam)
    for j in range(top + 1):
        if j > 0:
            pmf *= lam / j
        acc += abs(probs.get(j, 0.0) - pmf)
        covered += pmf
    return 0.5 * (acc + max(0.0, 1.0 - covered))


def moment_z_score(
    empirical: EmpiricalDistribution, r: int, exact_r, exact_2r
) -> float:
    """Standardized deviation of the empirical rth moment from its exact value."""
    variance = float(exact_2r) - float(exact_r) ** 2
    if variance <= 0:
        return 0.0 if empirical.moment(r) == exact_r else float("inf")
    sigma = sqrt(variance / empirical.samples)
    return (float(empirical.moment(r)) - float(exact_r)) / sigma
