"""Integer partitions, hook lengths, and dimensions of S_n irreducibles.

Partitions are immutable tuples, so they hash cheaply and key the memo
tables used by the tableau and character modules. All counts are exact
Python integers.
"""
from __future__ import annotations

from functools import lru_cache, partial
from math import perm, prod
from typing import Iterator


class Partition(tuple):
    """A weakly decreasing tuple of positive integers."""

    __slots__ = ()

    def __new__(cls, parts=()):
        parts = tuple(parts)
        prev = None
        for p in parts:
            if not isinstance(p, int) or p <= 0:
                raise ValueError(f"parts must be positive integers: {parts!r}")
            if prev is not None and p > prev:
                raise ValueError(f"parts must be weakly decreasing: {parts!r}")
            prev = p
        return super().__new__(cls, parts)

    def __repr__(self) -> str:
        return f"{type(self).__name__}{tuple.__repr__(self)}"

    @property
    def n(self) -> int:
        """Total number of cells."""
        return sum(self)

    def conjugate(self) -> "Partition":
        """Transpose of the Young diagram."""
        if not self:
            return Partition()
        cols = [0] * self[0]
        for p in self:
            for j in range(p):
                cols[j] += 1
        return Partition(cols)

    def first_row_removed(self) -> "Partition":
        """The partition left after deleting the largest part."""
        return Partition(self[1:])

    def contains(self, inner) -> bool:
        """Cellwise containment, padding the inner shape with zeros."""
        inner = tuple(inner)
        if len(inner) > len(self):
            return all(p == 0 for p in inner[len(self):]) and self.contains(
                inner[: len(self)]
            )
        return all(inner[i] <= self[i] for i in range(len(inner)))


def conjugate(lam) -> Partition:
    return Partition(lam).conjugate()


def hook_lengths(lam) -> list[int]:
    """Hook lengths of every cell, row-major order."""
    lam = Partition(lam)
    conj = lam.conjugate()
    hooks = []
    for i, p in enumerate(lam):
        for j in range(p):
            hooks.append(p + conj[j] - i - j - 1)
    return hooks


@lru_cache(maxsize=None)
def dim(lam) -> int:
    """Number of standard Young tableaux of the given shape.

    The hook length formula n!/prod(hooks), with the first row's trailing
    hooks 1, ..., lam_1 - lam_2 cancelled against n!:

        dim(lam) = perm(n, n - lam_1 + lam_2)
                   / (prod_{j <= lam_2} (lam_1 - j + 1 + bar'_j) * prod hooks(bar))

    where bar is lam without its first row and bar' its conjugate. A shape
    with first part n - t costs O(t + lam_2) small products, however large
    n is. The division is exact and verified, so the result is never
    silently truncated.
    """
    lam = Partition(lam)
    if not lam:
        return 1
    bar = lam.first_row_removed()
    first, n = lam[0], lam.n
    product = prod(first - j + col for j, col in enumerate(bar.conjugate()))
    product *= prod(hook_lengths(bar))
    q, rem = divmod(perm(n, n - first + (bar[0] if bar else 0)), product)
    if rem:
        raise ArithmeticError(f"hook product does not divide {n}! for {lam!r}")
    return q


def partition_tuples(n: int, cap: int) -> Iterator[tuple[int, ...]]:
    """Partitions of n into parts <= cap as plain tuples, in reverse lexicographic order.

    They are a tail of that order, so one pass of Zoghbi and Stojmenovic's
    ZS1 from [cap, ..., cap, rest], on a list of n parts, yields them: each
    step moves only the parts after the last part larger than 1 (h below),
    which it rebuilds from the cells it frees.
    """
    if n == 0:
        yield ()
        return
    cap = min(cap, n)
    if cap < 1:
        return
    q, rest = divmod(n, cap)
    parts = [cap] * q + [rest] * (rest > 0)
    m = len(parts)  # parts in use; parts[m:] are all 1
    parts += [1] * (n - m)
    h = q if rest > 1 else q - 1 if cap > 1 else -1
    while True:
        yield tuple(parts[:m])
        if h < 0:
            return
        if parts[h] == 2:
            parts[h] = 1
            h -= 1
            m += 1
        else:
            part = parts[h] - 1
            free = m - h  # one cell of parts[h] and the m - h - 1 ones after it
            parts[h] = part
            while free >= part:
                h += 1
                parts[h] = part
                free -= part
            m = h + 1 + (free > 0)
            if free > 1:
                h += 1
                parts[h] = free


def large_first_row_tuples(n: int, t_max: int) -> Iterator[tuple[int, ...]]:
    """Partitions of n with at most t_max cells under the first row, as plain tuples.

    For t = 0..min(t_max, n), the row n - t and then each partition of the t
    cells under it into parts <= n - t: reverse lexicographic order, at a
    cost per stratum that grows with t, not n. n = 0 yields () if t_max >= 0.
    """
    for t in range(min(t_max, n) + 1):
        row = (n - t,) if t < n else ()  # the stratum t = n is nonempty only at n = 0
        for rest in partition_tuples(t, n - t):
            yield row + rest


# The enumerator's tuples are partitions by construction, so they become
# Partitions without Partition.__new__ checking them again.
_as_partitions = partial(map, partial(tuple.__new__, Partition))


def all_partitions(n: int) -> Iterator[Partition]:
    """All partitions of n in reverse lexicographic order, (n) first."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    yield from _as_partitions(partition_tuples(n, n))


def partitions_with_large_first_row(n: int, t_max: int) -> Iterator[Partition]:
    """The strata of large_first_row_tuples as Partitions: first part n, then
    n - 1, and so on down to n - t_max (every partition of n if t_max >= n)."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    yield from _as_partitions(large_first_row_tuples(n, t_max))
