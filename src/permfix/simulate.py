"""Random permutation sampling, RSK shapes, and small-n exhaustive oracles.

Randomness contract: every sampler draws from a numpy PCG64 generator.
A run is identified by a 64-bit master seed; one stream per chunk is
derived with SeedSequence(seed).spawn, so threaded runs produce the same
histogram as a sequential run with the same seed and stream version.

Permutations are tuples in one-line form over 0..n-1. compose(p, q)
applies q first.
"""
from __future__ import annotations

from bisect import bisect_left
from collections import Counter, deque
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

# Version of the seeded sample streams: a histogram is reproducible from
# its seed and parameters at one stream version. Version 2 sizes chunks
# from n, which changes the histograms of n > 128 only.
STREAM_VERSION = 2

# A chunk of samples holds min(2^17, 2^24 // n) rows, so every n <= 128
# keeps the 2^17-row chunks of version 1 and a chunk's point arrays stay
# near 2^24 entries. Kernels shuffle and compare _SUB_CELLS entries at a
# time; that size changes no result.
_CHUNK_ROWS = 1 << 17
_CHUNK_CELLS = 1 << 24
_SUB_CELLS = 1 << 16


def _chunk_rows(n: int) -> int:
    return max(1, min(_CHUNK_ROWS, _CHUNK_CELLS // n))


def make_rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))


def spawn_rngs(root: np.random.SeedSequence, count: int) -> list[np.random.Generator]:
    """The next count generators spawned from root.

    Successive calls continue where the last one stopped, so spawning one
    at a time gives the same streams as spawning all at once.
    """
    return [np.random.Generator(np.random.PCG64(s)) for s in root.spawn(count)]


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
    stream_version: int = STREAM_VERSION

    def moment(self, r: int) -> Fraction:
        total = sum(count * j ** r for j, count in self.histogram.items())
        return Fraction(total, self.samples)

    @property
    def mean(self) -> Fraction:
        return self.moment(1)


def _point_dtype(n: int):
    """The narrowest signed integer dtype that holds the points 0..n-1."""
    for dtype in (np.int8, np.int16, np.int32):
        if n <= np.iinfo(dtype).max + 1:
            return dtype
    return np.int64


def _sub_rows(n: int) -> int:
    return max(1, _SUB_CELLS // n)


def _shuffled_batches(n, count, rng):
    """(start, rows): count uniform permutations of 0..n-1, one per row,
    in consecutive int64 sub-batches that share one buffer.

    numpy shuffles int64 rows faster than narrow ones, and shuffling
    consecutive sub-batches from one generator draws the same rows as one
    shuffle of all of them, so the sub-batch size changes no result.
    """
    buf = np.empty((min(count, _sub_rows(n)), n), dtype=np.int64)
    for start in range(0, count, len(buf)):
        rows = buf[: count - start]
        rows[:] = np.arange(n)
        rng.permuted(rows, axis=1, out=rows)
        yield start, rows


def _uniform_fix_counts(n, count, rng, params) -> np.ndarray:
    fix = np.empty(count, dtype=np.int64)
    for start, g in _shuffled_batches(n, count, rng):
        fix[start : start + len(g)] = (g == np.arange(n)).sum(axis=1)
    return fix


def _shuffled_rows(n, count, rng) -> np.ndarray:
    out = np.empty((count, n), dtype=_point_dtype(n))
    for start, rows in _shuffled_batches(n, count, rng):
        out[start : start + len(rows)] = rows
    return out


def _commutator_fix_counts(n, count, rng, params) -> np.ndarray:
    # fix(g^-1 x^-1 g x) counts the points where g.x and x.g agree. All g
    # rows are drawn before any x row, as in stream version 1.
    g = _shuffled_rows(n, count, rng)
    x_row = params.get("x_row")
    x = _shuffled_rows(n, count, rng) if x_row is None else None
    fix = np.empty(count, dtype=np.int64)
    step = _sub_rows(n)
    for start in range(0, count, step):
        gs = g[start : start + step]
        if x is None:
            gx, xg = gs[:, x_row], x_row[gs]
        else:
            xs = x[start : start + step]
            gx = np.take_along_axis(gs, xs, axis=1)
            xg = np.take_along_axis(xs, gs, axis=1)
        fix[start : start + len(gs)] = (gx == xg).sum(axis=1)
    return fix


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
    # The draw dtype stays as in stream version 1: rng.integers draws
    # depend on it.
    i, k = params["i"], params["k"]
    dtype = np.int16 if n < 2 ** 15 else np.int64
    h = np.tile(np.arange(n, dtype=_point_dtype(n)), (count, 1))
    flat = h.reshape(-1)
    offsets = np.arange(0, count * n, n)[:, None]
    for _ in range(k):
        cells = offsets + _distinct_tuples(n, i, count, rng, dtype)
        flat[np.roll(cells, -1, axis=1)] = flat[cells]
    return (h == np.arange(n, dtype=h.dtype)).sum(axis=1)


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

    Work is split into chunks of _chunk_rows(n) samples, one spawned
    stream per chunk; merging integer histograms is order-independent, so
    the result depends only on the seed, the parameters and the stream
    version, not on the thread count.
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
        params["x_row"] = np.array(perm_from_cycle_type(x), dtype=_point_dtype(n))
        report_params["x"] = tuple(x)

    kernel = _KERNELS[model]
    rows = _chunk_rows(n)
    root = np.random.SeedSequence(seed)

    def run_chunk(size, rng) -> Counter:
        counts = kernel(n, size, rng, params)
        values, freq = np.unique(counts, return_counts=True)
        return Counter({int(v): int(f) for v, f in zip(values, freq)})

    # Streams are spawned and chunks submitted as workers free up, so at
    # most threads + 1 chunks are pending, however many there are.
    threads = max(1, threads)
    merged: Counter = Counter()
    pending: deque = deque()
    with ThreadPoolExecutor(max_workers=threads) as pool:
        for start in range(0, samples, rows):
            (rng,) = spawn_rngs(root, 1)
            pending.append(pool.submit(run_chunk, min(rows, samples - start), rng))
            if len(pending) > threads:
                merged.update(pending.popleft().result())
        for future in pending:
            merged.update(future.result())
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
