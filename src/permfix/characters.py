"""Exact irreducible characters of S_n and character ratios on i-cycles.

Character values are computed by the Murnaghan-Nakayama rule. Border
strips are enumerated through beta-sets (first-column hook lengths):
removing a strip of length L from a shape corresponds to lowering one
beta number by L onto an unoccupied value, and the strip height is the
number of beta numbers jumped over. Cycles are consumed largest first
and values are memoized per (remaining cycles, shape).
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from math import factorial

from .errors import SizeMismatchError, ValidationError
from .partitions import Partition, bounded_partitions, dim


class CycleType(tuple):
    """Multiset of cycle lengths of a conjugacy class, stored largest first."""

    __slots__ = ()

    def __new__(cls, cycles=()):
        cycles = tuple(sorted(cycles, reverse=True))
        if any(not isinstance(c, int) or c <= 0 for c in cycles):
            raise ValueError(f"cycle lengths must be positive integers: {cycles!r}")
        return super().__new__(cls, cycles)

    def __repr__(self) -> str:
        return f"CycleType{tuple.__repr__(self)}"

    @property
    def n(self) -> int:
        return sum(self)

    @property
    def n_1(self) -> int:
        """Number of fixed points."""
        return sum(1 for c in self if c == 1)

    @property
    def n_2(self) -> int:
        """Number of 2-cycles."""
        return sum(1 for c in self if c == 2)

    def multiplicities(self) -> dict[int, int]:
        return dict(Counter(self))

    def centralizer_order(self) -> int:
        order = 1
        for k, m in self.multiplicities().items():
            order *= k ** m * factorial(m)
        return order

    def class_size(self) -> int:
        return factorial(self.n) // self.centralizer_order()


def _strip_removals(parts: tuple, size: int) -> list[tuple[tuple, int]]:
    """All (shape, height) results of removing one border strip of the size.

    Lowering the beta number of row top by size onto a free value moves
    it past the beta numbers of rows top+1 .. bottom-1: rows top ..
    bottom-2 take the parts of those rows less one cell, row bottom-1 the
    part of the lowered value, and the height is the number of rows
    jumped, bottom - top - 1.
    """
    length = len(parts)
    beta = [p + length - 1 - j for j, p in enumerate(parts)]
    results = []
    for top, b in enumerate(beta):
        low = b - size
        if low < 0:
            continue
        bottom = top + 1
        while bottom < length and beta[bottom] > low:
            bottom += 1
        if bottom < length and beta[bottom] == low:
            continue
        shape = (
            parts[:top]
            + tuple(p - 1 for p in parts[top + 1:bottom])
            + (low - length + bottom,)
            + parts[bottom:]
        )
        while shape and shape[-1] == 0:
            shape = shape[:-1]
        results.append((shape, bottom - top - 1))
    return results


_char_memo: dict[tuple, dict[tuple, int]] = {}


def _char(parts: tuple, cycles: tuple) -> int:
    """Murnaghan-Nakayama value, memoized per remaining cycles and shape.

    A forward pass takes the cycles in turn and collects, level by level,
    the shapes left by each strip removal whose value is not memoized yet;
    a backward pass then sums the levels from the last one up. No step
    recurses, so classes with thousands of non-fixed cycles need no
    call-stack depth. Once only fixed points remain, the value is the
    dimension (1 for the empty shape once no cycle remains).
    """
    memo = _char_memo
    known = memo.setdefault(cycles, {})
    if parts in known:
        return known[parts]
    top = known
    levels = []
    frontier = {parts}
    depth = 0
    while frontier:
        if depth == len(cycles) or cycles[depth] == 1:
            for shape in frontier:
                known[shape] = dim(shape)
            break
        below = memo.setdefault(cycles[depth + 1:], {})
        strips = {shape: _strip_removals(shape, cycles[depth]) for shape in frontier}
        levels.append((known, below, strips))
        frontier = {s for removals in strips.values() for s, _ in removals if s not in below}
        known = below
        depth += 1
    for values, below, strips in reversed(levels):
        for shape, removals in strips.items():
            total = 0
            for child, height in removals:
                value = below[child]
                total += -value if height % 2 else value
            values[shape] = total
    return top[parts]


def character(lam, mu) -> int:
    """Exact character value of the irreducible lam at the class mu."""
    lam = Partition(lam)
    mu = CycleType(mu)
    if lam.n != mu.n:
        raise SizeMismatchError(f"|{lam!r}| = {lam.n} but |{mu!r}| = {mu.n}")
    return _char(tuple(lam), tuple(mu))


def _choose2(m: int) -> int:
    """m(m-1)/2, defined for every integer so n_1 = 0 classes work."""
    return m * (m - 1) // 2


def char_near_one_row(lam, mu) -> int:
    """Closed-form character for the three shapes closest to a single row.

    Covers first part n-1 with one extra cell, and first part n-2 with
    either a row or a column pair below; values depend only on the fixed
    point and 2-cycle counts of the class.
    """
    lam = Partition(lam)
    mu = CycleType(mu)
    n = mu.n
    if lam.n != n:
        raise SizeMismatchError(f"|{lam!r}| = {lam.n} but |{mu!r}| = {n}")
    n1, n2 = mu.n_1, mu.n_2
    if n >= 2 and lam == (n - 1, 1):
        return n1 - 1
    if n >= 4 and lam == (n - 2, 2):
        return _choose2(n1 - 1) + n2 - 1
    if n >= 4 and lam == (n - 2, 1, 1):
        return _choose2(n1 - 1) - n2
    raise ValidationError(f"no closed form for {lam!r} at n = {n}")


def char_ratio_icycle(lam, i: int) -> Fraction:
    """Exact normalized character on the class of a single i-cycle.

    A single strip removal reduces the value to dimension counts, so the
    cost is a handful of hook-formula evaluations even for shapes with a
    very long first row.
    """
    lam = Partition(lam)
    n = lam.n
    if not 2 <= i <= n:
        raise ValidationError(f"need 2 <= i <= {n}, got i = {i}")
    numerator = 0
    for shape, height in _strip_removals(tuple(lam), i):
        d = dim(shape)
        numerator += -d if height % 2 else d
    return Fraction(numerator, dim(lam))


def perm_cycle_type(perm) -> CycleType:
    """Cycle type of a permutation given in one-line form over 0..n-1."""
    n = len(perm)
    seen = [False] * n
    cycles = []
    for start in range(n):
        if seen[start]:
            continue
        length = 0
        j = start
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            length += 1
        cycles.append(length)
    return CycleType(cycles)


@dataclass(frozen=True)
class RatioDecayRow:
    n: int
    max_scaled_error: Fraction
    worst_shape: Partition
    per_shape: tuple[tuple[Partition, Fraction], ...]


@dataclass(frozen=True)
class RatioDecayReport:
    i: int
    t: int
    rows: tuple[RatioDecayRow, ...]


def verify_ratio_asymptotics(i: int, t: int, n_list) -> RatioDecayReport:
    """Scaled deviation of i-cycle ratios from 1 - i*t/n across shapes.

    For each n and each shape with first part n - t, records
    |ratio - (1 - i*t/n)| * n^2 exactly. The maxima are reported for
    monitoring; no universal constant is asserted here.
    """
    if i < 2 or t < 0:
        raise ValidationError("need i >= 2 and t >= 0")
    rows = []
    for n in n_list:
        if n < t + i + 2:
            raise ValidationError(f"n = {n} too small for t = {t}, i = {i}")
        per_shape = []
        for rest in bounded_partitions(t, n - t):
            lam = Partition((n - t, *rest))
            ratio = char_ratio_icycle(lam, i)
            err = abs(ratio - Fraction(n - i * t, n)) * n * n
            per_shape.append((lam, err))
        worst = max(per_shape, key=lambda item: item[1])
        rows.append(
            RatioDecayRow(
                n=n,
                max_scaled_error=worst[1],
                worst_shape=worst[0],
                per_shape=tuple(per_shape),
            )
        )
    return RatioDecayReport(i=i, t=t, rows=tuple(rows))
