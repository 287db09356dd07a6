"""Exact counts of standard Young tableaux of skew shape.

Counts come from a memoized corner-peeling recursion; a closed form
covers shapes whose inner part is a long single row. The moment engine
counts no skew tableaux shape by shape: it walks the Young lattice with
_corner_removals (moments.py).
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import comb

from .errors import FirstRowGuardError
from .partitions import Partition, dim


@dataclass(frozen=True)
class SkewShape:
    """Pair of nested partitions outer/inner."""

    outer: Partition
    inner: Partition

    def __post_init__(self):
        object.__setattr__(self, "outer", Partition(self.outer))
        object.__setattr__(self, "inner", Partition(self.inner))
        if not self.outer.contains(self.inner):
            raise ValueError(f"{self.inner!r} is not contained in {self.outer!r}")

    @property
    def size(self) -> int:
        return self.outer.n - self.inner.n

    def count(self) -> int:
        return skew_syt_count(self.outer, self.inner)


def _corner_removals(parts: tuple):
    """Partitions obtained by deleting one removable corner cell."""
    out = []
    for i in range(len(parts)):
        if i + 1 == len(parts) or parts[i] > parts[i + 1]:
            if parts[i] == 1:
                out.append(parts[:i] + parts[i + 1:])
            else:
                out.append(parts[:i] + (parts[i] - 1,) + parts[i + 1:])
    return out


@lru_cache(maxsize=None)
def _skew_count(outer: tuple, inner: tuple) -> int:
    if not Partition.contains(outer, inner):
        return 0
    if sum(outer) == sum(inner):
        return 1
    total = 0
    for smaller in _corner_removals(outer):
        if Partition.contains(smaller, inner):
            total += _skew_count(smaller, inner)
    return total


def skew_syt_count(outer, inner=()) -> int:
    """Number of standard fillings of the cells of outer not in inner.

    Containment failure contributes nothing to the sums this feeds, so it
    returns 0 rather than raising. An inner shape equal to outer counts 1
    (the empty filling).
    """
    outer = Partition(outer)
    inner = Partition(inner)
    return _skew_count(tuple(outer), tuple(inner))


def skew_syt_large_first_row(lam, a: int) -> int:
    """Skew count for inner shape a single row of n - a cells, in closed form.

    Valid when the second part of lam fits under that row; the count is
    then dim of lam with its first row dropped, times a binomial choosing
    which of the a added cells extend the first row.
    """
    lam = Partition(lam)
    n = lam.n
    second = lam[1] if len(lam) > 1 else 0
    if not 0 <= a <= n or second > n - a:
        raise FirstRowGuardError(
            f"closed form needs second part {second} <= {n - a} and 0 <= a <= {n}"
        )
    bar = lam.first_row_removed()
    return dim(bar) * comb(a, bar.n)
