"""Exact counts of standard Young tableaux of skew shape, by walking Young's lattice.

f^{lam/mu} counts the paths down Young's lattice from lam to mu, one
corner at a time. One level step (_descend) holds the corner rule: it
takes every shape of a weighted level down by one cell at once, keeping
the shapes that contain a floor, so the walk gives sum_lam top[lam] *
f^{lam/mu} for every mu on the way. Two walkers run on it:

* lattice_walk, from a dict of weighted shapes down to any floor; it
  serves skew_syt_count and mult_skew (single_row_sums), whose tops are
  single shapes;
* the moment engine's first walk at (n, a_max) (plan_walk), from every
  shape of size n with first part at least n - a_max down to the row
  (n - a_max). It returns the one-row sums and a LatticePlan: each
  level's edges as two integer arrays, so the same walk on other weights
  is a loop of integer adds, with no shapes built and no dicts hashed.

A closed form covers shapes whose inner part is a long single row.
"""
from __future__ import annotations

from array import array
from math import comb

from .errors import FirstRowGuardError
from .partitions import Partition, dim


def _descend(shapes, values: list[int], bound: tuple, typecode: str = "I"):
    """One level down: the shapes one corner below shapes that contain the floor.

    shapes (an iterable of tuples of one size) carry the integer weights
    values; bound is the floor padded with zeros to the longest shape.
    Every child keeps the floor in the rows it does not change, so one
    comparison, on the row it loses a cell from, decides whether it
    contains the floor. Returns the children in order of first reach
    (a dict from shape to index), their weights (the sum over their
    parents), and the edges as parallel arrays of parent and child
    indices, of the given array typecode.
    """
    index: dict[tuple, int] = {}
    below: list[int] = []
    parents, children = array(typecode), array(typecode)
    add_parent, add_child = parents.append, children.append
    for j, (parts, h) in enumerate(zip(shapes, values)):
        last = len(parts) - 1
        for i, p in enumerate(parts):
            if (i == last or p > parts[i + 1]) and p > bound[i]:
                child = parts[:i] + (p - 1,) + parts[i + 1:] if p > 1 else parts[:i]
                c = index.get(child)
                if c is None:
                    index[child] = c = len(below)
                    below.append(h)
                else:
                    below[c] += h
                add_parent(j)
                add_child(c)
    return index, below, parents, children


def _padded(floor: tuple, shapes) -> tuple:
    return tuple(floor) + (0,) * (max(map(len, shapes), default=0) - len(floor))


def lattice_walk(top: dict[tuple, int], floor: tuple):
    """Yield h(mu) = sum over lam of top[lam] * f^{lam/mu}, level by level.

    top maps shapes of one size to integer weights, and each of them must
    contain floor. The levels run from that size down to the size of
    floor, and each holds only the shapes that contain floor.
    """
    shapes, values = list(top), list(top.values())
    bound = _padded(floor, shapes)
    for _ in range(sum(next(iter(top), ())) - sum(floor)):
        yield dict(zip(shapes, values))
        shapes, values, _, _ = _descend(shapes, values, bound)
    yield dict(zip(shapes, values))


def single_row_sums(top: dict[tuple, int], n: int, a_max: int) -> list[int]:
    """sum over lam of top[lam] * f^{lam/(n-a)}, for a = 0..a_max.

    top maps shapes of size n, each with first part at least n - a_max,
    to integer weights; the sum for a is read at level n - a of one walk.
    """
    levels = lattice_walk(top, (n - a_max,) if a_max < n else ())
    return [level.get((n - a,) if a < n else (), 0) for a, level in enumerate(levels)]


class LatticePlan:
    """The walk from the shapes of size n with first part >= n - a_max to the row (n - a_max).

    shapes is the top level in the enumerator's order, (n) first; levels
    holds, for each step down, the edges as parallel arrays of parent
    and child indices and the number of shapes below. Children are
    numbered in order of first reach, and the one-row shape (n - a) is
    the only child of the one-row shape above it, which comes first, so
    it is index 0 of every level.
    """

    __slots__ = ("n", "a_max", "shapes", "levels")

    def __init__(self, n: int, a_max: int, shapes: list[tuple], levels: list) -> None:
        self.n, self.a_max, self.shapes, self.levels = n, a_max, shapes, levels

    def single_row_sums(self, top: list[int]) -> list[int]:
        """sum over lam of top[j] * f^{lam/(n-a)}, lam = shapes[j], for a = 0..a_max."""
        values = top
        sums = [values[0]]
        for parents, children, size in self.levels:
            below = [0] * size
            for p, c in zip(parents, children):
                below[c] += values[p]
            values = below
            sums.append(values[0])
        return sums


def plan_walk(shapes: list[tuple], top: list[int], n: int, a_max: int) -> tuple[LatticePlan, list[int]]:
    """The first walk at (n, a_max): its LatticePlan and its one-row sums.

    shapes must be every partition of n with first part at least
    n - a_max, (n) first, as partition_tuples yields them; top holds
    their integer weights.
    """
    bound = _padded((n - a_max,) if a_max < n else (), shapes)
    # No level holds more shapes than the top (giving the first row back the
    # cells a level lacks maps it into the top), so 2-byte indices serve up
    # to 2^16 top shapes: every plan the engine's shape cap admits.
    typecode = "H" if len(shapes) <= 1 << 16 else "I"
    levels = []
    level, values = shapes, top
    sums = [values[0]]
    for _ in range(a_max):
        level, values, parents, children = _descend(level, values, bound, typecode)
        levels.append((parents, children, len(values)))
        sums.append(values[0])
    return LatticePlan(n, a_max, shapes, levels), sums


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
