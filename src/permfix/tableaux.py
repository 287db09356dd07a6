"""Exact counts of standard Young tableaux of skew shape, by walking Young's lattice.

f^{lam/mu} counts the paths down Young's lattice from lam to mu, one
corner at a time. lattice_walk walks every shape of a weighted level down
at once, so one pass gives sum_lam top[lam] * f^{lam/mu} for every mu on
the way; it serves skew_syt_count, mult_skew and the moment engine
(single_row_sums). A closed form covers shapes whose inner part is a long
single row.
"""
from __future__ import annotations

from math import comb

from .errors import FirstRowGuardError
from .partitions import Partition, dim


def lattice_walk(top: dict[tuple, int], floor: tuple):
    """Yield h(mu) = sum over lam of top[lam] * f^{lam/mu}, level by level.

    top maps shapes of one size to integer weights, and each of them must
    contain floor. The levels run from that size down to the size of
    floor, and each holds only the shapes that contain floor. Every child
    keeps floor in the rows it does not change, so one comparison, on the
    row it loses a cell from, decides whether it contains floor.
    """
    level = top
    size = sum(next(iter(top), ()))
    depth = max(map(len, top), default=0)
    bound = tuple(floor) + (0,) * (depth - len(floor))
    for _ in range(size - sum(floor)):
        yield level
        below: dict[tuple, int] = {}
        for parts, h in level.items():
            if not h:
                continue
            last = len(parts) - 1
            for i, p in enumerate(parts):
                if (i == last or p > parts[i + 1]) and p > bound[i]:
                    smaller = parts[:i] + (p - 1,) + parts[i + 1:] if p > 1 else parts[:i]
                    below[smaller] = below.get(smaller, 0) + h
        level = below
    yield level


def single_row_sums(top: dict[tuple, int], n: int, a_max: int) -> list[int]:
    """sum over lam of top[lam] * f^{lam/(n-a)}, for a = 0..a_max.

    top maps shapes of size n, each with first part at least n - a_max,
    to integer weights; the sum for a is read at level n - a of one walk.
    """
    levels = lattice_walk(top, (n - a_max,) if a_max < n else ())
    return [level.get((n - a,) if a < n else (), 0) for a, level in enumerate(levels)]


def skew_syt_count(outer, inner=()) -> int:
    """Number of standard fillings of the cells of outer not in inner.

    Containment failure contributes nothing to the sums this feeds, so it
    returns 0 rather than raising. An inner shape equal to outer counts 1
    (the empty filling).
    """
    outer = Partition(outer)
    inner = Partition(inner)
    if not outer.contains(inner):
        return 0
    *_, bottom = lattice_walk({tuple(outer): 1}, tuple(inner))
    return bottom.get(tuple(inner), 0)


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
