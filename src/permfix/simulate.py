"""Seeded Monte Carlo sampling of fixed-point counts: the one module of
the package that needs numpy, so only `permfix simulate` loads it. Import
the sampler names from permfix.simulate.

Randomness contract: every sampler draws from a numpy PCG64 generator.
A run is identified by a 64-bit master seed; one stream per chunk is
derived with SeedSequence(seed).spawn, so threaded runs produce the same
histogram as a sequential run with the same seed and stream version;
the class of a random x factor comes from the chunk's generator jumped
ahead.

The uniform model builds no permutations: it draws each sample's cycle
lengths (the Feller coupling), so a sample costs about H_n bounded
integers. The commutator shuffles one row of n points per sample, its
g; a random x enters only through its cycle type, drawn the same way.

What reads its histograms (moments, total-variation distances and
moment z-scores) is permfix.laws.
"""
from __future__ import annotations

import os
from collections import Counter, deque
from concurrent.futures import Future, ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass

import numpy as np

from .characters import CycleType, perm_from_cycle_type
from .errors import ValidationError
from .limits import check_row_points
from .moments import _validate_walk
# perfbench/trace.py reads the uniform law under this name.
from .moments import uniform_fixed_distribution_exact  # noqa: F401

# Version of the seeded sample streams: a histogram is reproducible from
# its seed and parameters at one stream version. Version 2 sizes chunks
# from n, which changes the histograms of n > 128 only. Version 3 draws
# the walk's i-cycles without rejection, which changes every walk
# histogram and no other. Version 4 draws a random x factor from a child
# of the chunk's generator, which changes only both-random commutators.
# Version 5 draws uniform samples by cycle lengths instead of shuffling
# them, which changes every uniform histogram and no other. Version 6
# draws a random x factor as the canonical permutation of a uniform cycle
# type and gives uniform chunks 2^17 rows at every n, which changes the
# both-random commutator histograms and the uniform ones of n > 128 only.
STREAM_VERSION = 6

# A uniform chunk holds _CHUNK_ROWS samples, a few int64 entries each
# whatever n is. The row kernels hold min(2^17, 2^24 // n) rows, so every
# n <= 128 keeps the 2^17-row chunks of version 1; only the walk holds a
# chunk's points, near 2^24 entries. The commutator kernel shuffles and
# compares _SUB_CELLS entries at a time, a size that changes no result,
# and draws random x classes _CLASS_CELLS entries at a time, a size that
# is part of the stream version.
_CHUNK_ROWS = 1 << 17
_CHUNK_CELLS = 1 << 24
_SUB_CELLS = 1 << 16
_CLASS_CELLS = 1 << 20


def _chunk_rows(n: int) -> int:
    return max(1, min(_CHUNK_ROWS, _CHUNK_CELLS // n))


def _uniform_chunk_rows(n: int) -> int:
    return _CHUNK_ROWS


def spawn_rngs(root: np.random.SeedSequence, count: int) -> list[np.random.Generator]:
    """The next count generators spawned from root.

    Successive calls continue where the last one stopped, so spawning one
    at a time gives the same streams as spawning all at once.
    """
    return [np.random.Generator(np.random.PCG64(s)) for s in root.spawn(count)]


@dataclass
class EmpiricalDistribution:
    """Integer histogram of fixed-point counts from one seeded run."""

    samples: int
    histogram: dict[int, int]
    stream_version: int = STREAM_VERSION


def _point_dtype(n: int):
    """The narrowest signed integer dtype that holds the points 0..n-1."""
    for dtype in (np.int8, np.int16, np.int32):
        if n <= np.iinfo(dtype).max + 1:
            return dtype
    return np.int64


def _shuffled(rows, rng) -> np.ndarray:
    rows[:] = np.arange(rows.shape[1])
    return rng.permuted(rows, axis=1, out=rows)


def _feller_passes(n, keys, rng, visit) -> None:
    """The Feller coupling of one uniform permutation of n points per key.

    The cycle through the lowest unplaced point of a uniform permutation
    of m points has a length uniform on 1..m, and the other points form a
    uniform permutation of m - length points. Each pass draws one length
    for every live sample, calls visit(keys, left, length) on them, left
    being the points that remain after the cycle, and drops the samples
    with none left: a sample takes one draw per cycle, about
    H_n = 1 + 1/2 + ... + 1/n. (A callback, not a generator: a loop over
    a generator would hold one pass's arrays while the next is drawn.)
    """
    left = np.full(len(keys), n, dtype=np.int64)
    while left.size:
        length = rng.integers(1, left, endpoint=True)
        left -= length
        visit(keys, left, length)
        live = left > 0
        keys, left = keys[live], left[live]


def _uniform_fix_counts(n, count, rng, params) -> np.ndarray:
    """Fixed points of count uniform permutations: the cycles of length 1
    of their Feller couplings. No row of n points is built."""
    fix = np.zeros(count, dtype=np.int64)

    def count_fixed_points(rows, left, length):
        fix[rows] += length == 1

    _feller_passes(n, np.arange(count), rng, count_fixed_points)
    return fix


def _class_rows(n, rng, out) -> np.ndarray:
    """Fill the rows of out, each with the canonical permutation of a
    uniform cycle type, and return out.

    A row starts as the n-cycle 0 -> 1 -> ... -> n-1 -> 0. The Feller
    coupling lays each cycle on the next run of points s..e, and the row
    maps e back to s.
    """
    out[:] = np.roll(np.arange(n, dtype=out.dtype), -1)
    flat = out.reshape(-1)

    # Keyed by the flat index of each row's last point: the cycle ends
    # left points before it and starts at n - left - length.
    def close_cycle(last, left, length):
        flat[last - left] = n - left - length

    _feller_passes(n, np.arange(n - 1, out.size, n), rng, close_cycle)
    return out


def _shuffle_fix_counts(n, count, rng, params) -> np.ndarray:
    """Fixed points of count commutators g^-1 x^-1 g x of a uniform g: the
    points where g.x and x.g agree, x being the row params["x"], or a
    uniform permutation where that is None.

    g is shuffled from rng in int64 sub-batches, numpy's fast path; those
    draw what one shuffle of all rows would, so the sub-batch size changes
    no result. A uniform x counts through its class alone: for any sigma,
    [g, sigma p sigma^-1] = sigma [sigma^-1 g sigma, p] sigma^-1, and
    sigma^-1 g sigma is uniform too, so x is the canonical permutation p
    of a uniform cycle type, drawn by _class_rows from a child jumped
    from rng in blocks of about _CLASS_CELLS entries.
    """
    dtype, x_row = _point_dtype(n), params["x"]
    sub = min(count, max(1, _SUB_CELLS // n))
    g = np.empty((sub, n), dtype=np.int64)
    if x_row is None:
        x_rng = np.random.Generator(rng.bit_generator.jumped())
        block = max(1, _CLASS_CELLS // n)
        x = np.empty((min(count, block), n), dtype=dtype)
    else:
        block = count
    fix = np.empty(count, dtype=np.int64)
    for first in range(0, count, block):
        rows = min(block, count - first)
        if x_row is None:
            _class_rows(n, x_rng, x[:rows])
        for start in range(0, rows, sub):
            gs = _shuffled(g[: rows - start], rng)
            if x_row is None:
                # Flat gathers from a narrow copy beat take_along_axis.
                xs = x[start : start + len(gs)]
                cells = np.arange(0, xs.size, n)[:, None]
                same = gs.astype(dtype).ravel()[xs + cells] == xs.ravel()[gs + cells]
            else:
                same = gs.astype(dtype)[:, x_row] == x_row[gs]
            fix[first + start : first + start + len(gs)] = same.sum(axis=1)
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
    cells = np.empty((i, count), dtype=np.int64)
    for _ in range(k):
        np.add(offsets, _distinct_tuples(n, i, count, rng, dtype), out=cells)
        moved = flat[cells]
        flat[cells[1:]] = moved[:-1]
        flat[cells[0]] = moved[-1]
    return (h == np.arange(n, dtype=h.dtype)).sum(axis=1)


# Each model's kernel and its rows per chunk at n.
_KERNELS = {
    "uniform": (_uniform_fix_counts, _uniform_chunk_rows),
    "commutator": (_shuffle_fix_counts, _chunk_rows),
    "walk": (_walk_fix_counts, _chunk_rows),
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

    Work is split into chunks of the model's rows per chunk at n, one
    spawned stream per chunk; merging integer histograms is
    order-independent, so the result depends only on the seed, the
    parameters and the stream version, not on the thread count.
    """
    if model not in _KERNELS:
        raise ValidationError(f"unknown model {model!r}")
    if n < 1 or samples < 1:
        raise ValidationError("need n >= 1 and samples >= 1")
    check_row_points(model, n)
    params: dict = {}
    if model == "walk":
        if i is None or k is None:
            raise ValidationError("walk model needs i and k")
        _validate_walk(n, i, k, 0)
        params.update(i=i, k=k)
    elif model == "commutator":
        params["x"] = x
        if x is not None:
            x = CycleType.of_size(x, n)
            params["x"] = np.array(perm_from_cycle_type(x), dtype=_point_dtype(n))

    kernel, chunk_rows = _KERNELS[model]
    rows = chunk_rows(n)
    root = np.random.SeedSequence(seed)

    def run_chunk(size, rng) -> Counter:
        counts = kernel(n, size, rng, params)
        values, freq = np.unique(counts, return_counts=True)
        return Counter({int(v): int(f) for v, f in zip(values, freq)})

    # Streams are spawned and chunks submitted as workers free up, so at
    # most threads + 1 chunks are pending, however many there are. The pool
    # has no more threads than cores or chunks. One thread runs each chunk
    # as it is submitted: a pool would only hand every chunk to its one
    # worker and back.
    threads = max(1, min(threads, os.cpu_count() or 1, -(-samples // rows)))
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
