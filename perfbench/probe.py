"""A fixed unit of work that measures how fast the host runs at the moment.

On the 2-core VM this benchmark was built on, the host's speed drifts by
up to 80% over seconds to tens of minutes, and every operation, the
interpreter start-up included, slows and speeds up with it. Each round
therefore times this probe between its operations, and run.py rescales
the round's times to the host speed at which the probe takes
REFERENCE_S (see README.md).

The probe mixes the kinds of work the workloads do: interpreter-bound
loop code, big-integer and rational arithmetic, and a numpy permutation
kernel on 1 MB arrays. It uses only the standard library and numpy,
never permfix. So that the heap permfix leaves behind moves it as little
as possible, it writes into buffers allocated and written once at import,
and the garbage collector is off while it runs: a collection that fell
inside the probe would walk permfix's memo tables. It does not collect
before it runs either, since that would change what the next operation
pays for garbage collection.
"""
from __future__ import annotations

import gc
import time
from fractions import Fraction

import numpy as np

# The probe's median time on a quiet host; any fixed value would do, this
# one keeps the rescaled times close to the raw ones.
REFERENCE_S = 0.010

_ROWS = np.tile(np.arange(64, dtype=np.int64), (2048, 1))
_OFFSETS = np.arange(0, _ROWS.size, 64, dtype=np.int64)[:, None]
_PERM, _INDEX, _GATHER = (_ROWS.copy() for _ in range(3))
_EQUAL = np.ones(_ROWS.shape, dtype=bool)
_SLOTS = [0] * 512


def probe() -> float:
    """Seconds taken by one fixed unit of work."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        return _work()
    finally:
        if enabled:
            gc.enable()


def _work() -> float:
    start = time.perf_counter()
    acc = 0
    for j in range(9000):
        _SLOTS[j & 511] = j * j
        acc += _SLOTS[(j * 7) & 511] % 13
    product = 1
    for j in range(1, 1200):
        product *= j
    total = Fraction(0)
    for j in range(1, 200):
        total += Fraction(j, j + 1)
    rng = np.random.Generator(np.random.PCG64(12345))
    for _ in range(2):
        rng.permuted(_ROWS, axis=1, out=_PERM)
        np.add(_PERM, _OFFSETS, out=_INDEX)
        np.take(_PERM.ravel(), _INDEX, out=_GATHER)
        np.equal(_GATHER, _ROWS, out=_EQUAL)
        acc += int(np.count_nonzero(_EQUAL))
    return time.perf_counter() - start
