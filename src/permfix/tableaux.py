"""Exact counts of standard Young tableaux of skew shape, by walking Young's lattice.

f^{lam/mu} counts the paths down Young's lattice from lam to mu, one
corner at a time. A LatticePlan is the one walker: it takes a top level
of shapes of one size down to a floor shape, a level at a time, keeping
only the shapes that contain the floor, and stores each level's edges as
two integer arrays. Its sums(values) pushes weights on the top shapes
down those edges and reads, at each level, the weighted count at that
level's target: the floor with the level's extra cells added to its
first row. So one plan gives sum_lam values[lam] * f^{lam/target} for
every target on the way, with no shapes built and no dicts hashed:

* the moment engine's top is every shape of size n with first part at
  least n - a_max, over the floor (n - a_max), and mult_skew's is a
  single shape; both read the one-row shapes (n - a);
* skew_syt_count's top is the outer shape, and the bottom target is the
  inner shape itself.

A closed form covers shapes whose inner part is a long single row.
"""
from __future__ import annotations

from array import array
from math import comb

from .errors import FirstRowGuardError
from .partitions import Partition, dim


def _typecode(size: int) -> str:
    """The narrowest array typecode that indexes a level of size shapes."""
    return "H" if size <= 1 << 16 else "I"


def _descend(shapes, bound: tuple):
    """One level down: the edges from shapes to the shapes one corner below that contain the floor.

    shapes (tuples of one size, in index order) is the level above; bound
    is the floor padded with zeros to the longest shape. Every child
    keeps the floor in the rows it does not change, so one comparison,
    on the row it loses a cell from, decides whether it contains the
    floor. Returns the children in order of first reach (a dict from
    shape to index) and the edges as parallel arrays of parent and child
    indices, each as narrow as the size of the level it indexes allows.
    The child indices start in the narrowest typecode and widen, once, on
    the first index it cannot hold.
    """
    index: dict[tuple, int] = {}
    parents, children = array(_typecode(len(shapes))), array(_typecode(1))
    add_parent, add_child = parents.append, children.append
    for j, parts in enumerate(shapes):
        last = len(parts) - 1
        for i, p in enumerate(parts):
            if (i == last or p > parts[i + 1]) and p > bound[i]:
                child = parts[:i] + (p - 1,) + parts[i + 1:] if p > 1 else parts[:i]
                add_parent(j)
                c = index.setdefault(child, len(index))
                try:
                    add_child(c)
                except OverflowError:
                    children = array(_typecode(c + 1), children)
                    add_child = children.append
                    add_child(c)
    return index, parents, children


class LatticePlan:
    """The walk from shapes (the top level) down to floor, and its targets.

    shapes is a list of tuples of one size, each containing the tuple
    floor. levels holds, for each step down, the edges as parallel
    arrays of parent and child indices and the number of shapes below,
    children numbered in order of first reach; targets holds, top level
    first, the index of each level's target (floor with the level's
    extra cells added to its first row), or None where the level lacks
    it.
    """

    __slots__ = ("shapes", "levels", "targets")

    def __init__(self, shapes: list[tuple], floor: tuple) -> None:
        self.shapes = shapes
        row, rest = (floor[0], floor[1:]) if floor else (0, ())

        def target(extra: int) -> tuple:
            return ((row + extra,) if row + extra else ()) + rest

        height = sum(shapes[0]) - sum(floor)
        bound = floor + (0,) * (max(map(len, shapes)) - len(floor))
        index = {shape: j for j, shape in enumerate(shapes)}
        self.levels, self.targets = [], [index.get(target(height))]
        for extra in reversed(range(height)):
            index, parents, children = _descend(index, bound)
            self.levels.append((parents, children, len(index)))
            self.targets.append(index.get(target(extra)))

    def sums(self, values: list[int]) -> list[int]:
        """sum over j of values[j] * f^{shapes[j]/target}, at each level's target, top first."""
        t = self.targets[0]
        out = [0 if t is None else values[t]]
        for (parents, children, size), t in zip(self.levels, self.targets[1:]):
            below = [0] * size
            for p, c in zip(parents, children):
                below[c] += values[p]
            values = below
            out.append(0 if t is None else values[t])
        return out


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
    return LatticePlan([tuple(outer)], tuple(inner)).sums([1])[-1]


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
