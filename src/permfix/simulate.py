"""Random permutation sampling, the top-to-random shape law, and small-n
exhaustive oracles.

Randomness contract: every sampler draws from a numpy PCG64 generator.
A run is identified by a 64-bit master seed; one stream per chunk is
derived with SeedSequence(seed).spawn, so threaded runs produce the same
histogram as a sequential run with the same seed and stream version;
a random x factor comes from the chunk's generator jumped ahead.

The uniform model builds no permutations: it draws each sample's cycle
lengths (the Feller coupling), so a sample costs about H_n bounded
integers. Only the commutator shuffles rows of n points.

Permutations are tuples in one-line form over 0..n-1. compose(p, q)
applies q first.
"""
from __future__ import annotations

from collections import Counter, deque
from concurrent.futures import Future, ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass
from fractions import Fraction
from itertools import permutations
from math import comb, exp, factorial, sqrt

import numpy as np

from .characters import CycleType
from .errors import EnumerationLimitError, SizeMismatchError, ValidationError
from .multiplicity import mult_skew
from .partitions import Partition, all_partitions, dim

# Version of the seeded sample streams: a histogram is reproducible from
# its seed and parameters at one stream version. Version 2 sizes chunks
# from n, which changes the histograms of n > 128 only. Version 3 draws
# the walk's i-cycles without rejection, which changes every walk
# histogram and no other. Version 4 draws a random x factor from a child
# of the chunk's generator, which changes only both-random commutators.
# Version 5 draws uniform samples by cycle lengths instead of shuffling
# them, which changes every uniform histogram and no other.
STREAM_VERSION = 5

# A chunk of samples holds min(2^17, 2^24 // n) rows, so every n <= 128
# keeps the 2^17-row chunks of version 1; only the walk holds a chunk's
# points, near 2^24 entries. The commutator kernel shuffles and compares
# _SUB_CELLS entries at a time; that size changes no result.
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


# ---------------------------------------------------------------------------
# Empirical distributions and batched Monte Carlo drivers


@dataclass
class EmpiricalDistribution:
    """Integer histogram of fixed-point counts from one seeded run."""

    samples: int
    histogram: dict[int, int]
    stream_version: int = STREAM_VERSION

    def moment(self, r: int) -> Fraction:
        total = sum(count * j ** r for j, count in self.histogram.items())
        return Fraction(total, self.samples)


def _point_dtype(n: int):
    """The narrowest signed integer dtype that holds the points 0..n-1."""
    for dtype in (np.int8, np.int16, np.int32):
        if n <= np.iinfo(dtype).max + 1:
            return dtype
    return np.int64


def _shuffled(rows, rng) -> np.ndarray:
    rows[:] = np.arange(rows.shape[1])
    return rng.permuted(rows, axis=1, out=rows)


def _uniform_fix_counts(n, count, rng, params) -> np.ndarray:
    """Fixed points of count uniform permutations, from their cycle lengths.

    The cycle through the lowest unplaced point of a uniform permutation
    of `left` points has a length uniform on 1..left, and the other points
    form a uniform permutation of left - length points; a fixed point is a
    cycle of length 1. Each pass draws one length for every live sample
    and drops the samples with no points left: a sample takes one draw per
    cycle, about H_n = 1 + 1/2 + ... + 1/n, and no row of n points is built.
    """
    fix = np.zeros(count, dtype=np.int64)
    rows = np.arange(count)
    left = np.full(count, n, dtype=np.int64)
    while rows.size:
        length = rng.integers(1, left, endpoint=True)
        fix[rows] += length == 1
        left -= length
        live = left > 0
        rows, left = rows[live], left[live]
    return fix


def _shuffle_fix_counts(n, count, rng, params) -> np.ndarray:
    """Fixed points of count commutators g^-1 x^-1 g x of a uniform g: the
    points where g.x and x.g agree, x being the row params["x"], or uniform
    where that is None. g and x are each shuffled from one generator (x from
    a child jumped from rng) in int64 sub-batches, numpy's fast path; those
    draw what one shuffle of all rows would, so the sub-batch size changes
    no result.
    """
    dtype, x_row = _point_dtype(n), params["x"]
    g = np.empty((min(count, max(1, _SUB_CELLS // n)), n), dtype=np.int64)
    if x_row is None:
        x_rng = np.random.Generator(rng.bit_generator.jumped())
        x = np.empty_like(g)
    fix = np.empty(count, dtype=np.int64)
    for start in range(0, count, len(g)):
        gs = _shuffled(g[: count - start], rng)
        if x_row is None:
            xs = _shuffled(x[: count - start], x_rng)
            # Flat gathers from narrow copies beat take_along_axis.
            cells = np.arange(0, xs.size, n)[:, None]
            narrow_g, narrow_x = gs.astype(dtype).ravel(), xs.astype(dtype).ravel()
            same = narrow_g[xs + cells] == narrow_x[gs + cells]
        else:
            same = gs.astype(dtype)[:, x_row] == x_row[gs]
        fix[start : start + len(gs)] = same.sum(axis=1)
    return fix


def _distinct_tuples(n, i, count, rng, dtype) -> np.ndarray:
    """Uniform ordered i-tuples of distinct points, as an (i, count) array.

    Column c is a partial Fisher-Yates shuffle of 0..n-1: swap j exchanges
    positions j and t_j, with t_j uniform on j..n-1, and point j is the
    value that swaps 0..j-1 left at position t_j. Tracing that position
    back through swaps m = j-1, ..., 0 turns it into m where it equals
    t_m (it stays above m, so it never equals m itself); the position
    reached is the value. Pass m applies swap m to every row j > m at
    once, while row m still holds t_m. No draw is rejected: the tuples
    take exactly i * count integers.
    """
    points = np.empty((i, count), dtype=dtype)
    for j in range(i):
        points[j] = rng.integers(j, n, size=count, dtype=dtype)
    for m in range(i - 2, -1, -1):
        later = points[m + 1 :]
        later -= (later - m) * (later == points[m])
    return points


def _walk_fix_counts(n, count, rng, params) -> np.ndarray:
    # Track the inverse one-line form: left-multiplying by the cycle
    # p_1 -> ... -> p_i only moves the i entries at those values, so one
    # step costs O(i) per sample instead of O(n), plus the O(i^2) draw.
    # Fixed points agree with those of the permutation itself.
    # rng.integers draws depend on their dtype, so the int16 draws below
    # 2^15 points are part of the stream version.
    i, k = params["i"], params["k"]
    dtype = np.int16 if n < 2 ** 15 else np.int64
    h = np.tile(np.arange(n, dtype=_point_dtype(n)), (count, 1))
    flat = h.reshape(-1)
    offsets = np.arange(0, count * n, n)
    for _ in range(k):
        cells = offsets + _distinct_tuples(n, i, count, rng, dtype)
        moved = flat[cells]
        flat[cells[1:]] = moved[:-1]
        flat[cells[0]] = moved[-1]
    return (h == np.arange(n, dtype=h.dtype)).sum(axis=1)


_KERNELS = {
    "uniform": _uniform_fix_counts,
    "commutator": _shuffle_fix_counts,
    "walk": _walk_fix_counts,
}


def _run_inline(fn, *args) -> Future:
    """ThreadPoolExecutor.submit on the calling thread: a done Future holding fn(*args)."""
    future: Future = Future()
    future.set_result(fn(*args))
    return future


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
    if model == "walk":
        if i is None or k is None:
            raise ValidationError("walk model needs i and k")
        if not 2 <= i <= n:
            raise ValidationError(f"need 2 <= i <= {n}, got i = {i}")
        if k < 0:
            raise ValidationError("k must be nonnegative")
        params.update(i=i, k=k)
    elif model == "commutator":
        params["x"] = x
        if x is not None:
            x = CycleType(x)
            if x.n != n:
                raise SizeMismatchError(f"cycle type {x!r} has size {x.n}, expected {n}")
            params["x"] = np.array(perm_from_cycle_type(x), dtype=_point_dtype(n))

    kernel = _KERNELS[model]
    rows = _chunk_rows(n)
    root = np.random.SeedSequence(seed)

    def run_chunk(size, rng) -> Counter:
        counts = kernel(n, size, rng, params)
        values, freq = np.unique(counts, return_counts=True)
        return Counter({int(v): int(f) for v, f in zip(values, freq)})

    # Streams are spawned and chunks submitted as workers free up, so at
    # most threads + 1 chunks are pending, however many there are. One
    # thread runs each chunk as it is submitted: a pool would only hand
    # every chunk to its one worker and back.
    threads = max(1, threads)
    merged: Counter = Counter()
    pending: deque = deque()
    with ThreadPoolExecutor(max_workers=threads) if threads > 1 else nullcontext() as pool:
        submit = pool.submit if pool else _run_inline
        for start in range(0, samples, rows):
            (rng,) = spawn_rngs(root, 1)
            pending.append(submit(run_chunk, min(rows, samples - start), rng))
            if len(pending) > threads:
                merged.update(pending.popleft().result())
        for future in pending:
            merged.update(future.result())
    return EmpiricalDistribution(samples, dict(sorted(merged.items())))


# ---------------------------------------------------------------------------
# The RSK shape law of top-to-random shuffles


def exact_shape_distribution(n: int, r: int) -> dict[Partition, Fraction]:
    """Law of the RSK shape after r top-to-random shuffles of a sorted deck."""
    if n < 1 or r < 0:
        raise ValidationError("need n >= 1 and r >= 0")
    return {
        lam: Fraction(mult_skew(lam, r) * dim(lam), n ** r)
        for lam in all_partitions(n)
    }


# ---------------------------------------------------------------------------
# Exhaustive oracles


def enumerate_commutator_distribution(n: int, x=None) -> dict[int, Fraction]:
    """Exact fixed-point law of the commutator by full enumeration.

    With x given, g runs over the whole group; fix(g^-1 x^-1 g x) equals
    the number of points where g.x and x.g agree, so no inverses are formed
    in the inner loop. With x absent the law is the average of the fixed-x
    laws over the classes C, weighted by |C| / n!.
    """
    if x is None:
        if n > 6:
            raise EnumerationLimitError("both-random enumeration limited to n <= 6")
        law: Counter = Counter()
        for parts in all_partitions(n):
            size = CycleType(parts).class_size()
            for j, p in enumerate_commutator_distribution(n, parts).items():
                law[j] += p * size / factorial(n)
        return dict(sorted(law.items()))
    x = CycleType(x)
    if x.n != n:
        raise SizeMismatchError(f"cycle type {x!r} has size {x.n}, expected {n}")
    if n > 7:
        raise EnumerationLimitError("fixed-x enumeration limited to n <= 7")
    xp = perm_from_cycle_type(x)
    counts = Counter(
        sum(1 for j in range(n) if g[xp[j]] == xp[g[j]]) for g in permutations(range(n))
    )
    return {j: Fraction(c, factorial(n)) for j, c in sorted(counts.items())}


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
