"""Exact irreducible characters of S_n and character ratios on i-cycles.

character (through class_character) takes one of two routes for a shape
lam = (n - s, nu):

* Character polynomials when s <= lam_1. Expanding the Jacobi-Trudi
  determinant along its first row gives chi^lam(x) = sum_mu (-1)^j I_x(mu)
  over the shapes mu that nu leaves after removing a vertical strip of j
  cells, where I_x(mu) = sum_{rho |- |mu|} chi^mu(rho) prod_k
  C(n_k(x), m_k(rho)) and n_k counts k-cycles. Only the rho made of cycles
  of x contribute, so the work never depends on the number of cycles.
* Murnaghan-Nakayama for the other shapes. Border strips are enumerated
  through beta-sets (first-column hook lengths): removing a strip of
  length L lowers one beta number by L onto an unoccupied value, and the
  strip height is the number of beta numbers jumped over. Cycles are
  consumed largest first and values are memoized per (remaining cycles,
  shape).

A third route serves a caller that weighs every shape of n at one class:
class_column gives the whole column from one forward Murnaghan-Nakayama
pass, which adds a border strip per cycle, smallest first, to beta-sets
held as bitmasks. The moment engine's fixed-x commutator reads it when
its shapes are all those of n, and so does the walk's class inversion.

A class is a CycleType: the Partition of n by its cycle lengths, with
the class statistics added, so one constructor checks shapes and classes.

Permutations are tuples in one-line form over 0..n-1: perm_cycle_type
reads a class off one, perm_from_cycle_type lays a class out as one, and
compose(p, q) applies q first.
"""
from __future__ import annotations

from collections import Counter
from fractions import Fraction
from functools import cache, partial
from math import comb, factorial
from typing import Callable

from .errors import SizeMismatchError, ValidationError
from .partitions import Partition, bounded_partitions, dim


class CycleType(Partition):
    """Multiset of cycle lengths of a conjugacy class: a partition of n, stored largest first."""

    __slots__ = ()

    def __new__(cls, cycles=()):
        if isinstance(cycles, CycleType):
            return cycles
        cycles = tuple(cycles)
        try:
            ordered = sorted(cycles, reverse=True)
        except TypeError:
            raise ValueError(f"parts must be positive integers: {cycles!r}") from None
        return super().__new__(cls, ordered)

    @classmethod
    def of_size(cls, cycles, n: int) -> "CycleType":
        """cycles as a CycleType, rejected unless they add up to n."""
        x = cls(cycles)
        if x.n != n:
            raise SizeMismatchError(f"cycle type {x!r} has size {x.n}, expected {n}")
        return x

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


@cache
def _vertical_strips(nu: tuple) -> list[tuple[tuple, int]]:
    """(mu, j) for each mu that nu leaves after removing a vertical strip of j cells."""
    strips = [((), 0)]
    for part in reversed(nu):
        strips = [((part, *shape), j) for shape, j in strips] + [
            ((part - 1, *shape) if part > 1 else shape, j + 1)
            for shape, j in strips
            if part > (shape[0] if shape else 0)
        ]
    return strips


def _sub_classes(counts: dict[int, int], size: int) -> list[tuple[tuple, int]]:
    """Each multiset rho of size cells among the cycles of x, largest first, with its binomials."""
    terms = [((), 0, 1)]
    for k in sorted(k for k in counts if k <= size):
        terms = [
            ((k,) * m + rho, cells + k * m, ways * comb(counts[k], m))
            for rho, cells, ways in terms
            for m in range(min(counts[k], (size - cells) // k) + 1)
        ]
    return [(rho, ways) for rho, cells, ways in terms if cells == size]


def _char_polynomial(counts: dict[int, int]) -> Callable[[tuple], int]:
    """The map nu -> chi^(n - |nu|, nu)(x) for the class x of n cells with these cycle counts.

    Each I_x(mu) is computed once per class and shared by every nu above mu.
    """
    sub_classes = cache(partial(_sub_classes, counts))

    @cache
    def induced_value(mu: tuple) -> int:
        return sum(ways * _char(mu, rho) for rho, ways in sub_classes(sum(mu)))

    return lambda nu: sum((-1) ** j * induced_value(mu) for mu, j in _vertical_strips(nu))


@cache
def class_character(mu: tuple) -> Callable[[tuple], int]:
    """parts -> character at the class mu (largest cycle first); polynomial if 2 parts[0] >= n."""
    n = sum(mu)
    polynomial = _char_polynomial(Counter(mu))
    return lambda parts: polynomial(parts[1:]) if 2 * sum(parts[:1]) >= n else _char(parts, mu)


def _parts_of_beads(beads: int, count: int) -> tuple:
    """The shape whose count beta numbers are the set bits of beads."""
    parts = []
    rest = count - 1  # the top bead's place in the empty shape
    while (top := beads.bit_length() - 1) != rest:
        parts.append(top - rest)
        beads ^= 1 << top
        rest -= 1
    return tuple(parts)


@cache
def class_column(mu: tuple) -> dict[tuple, int]:
    """{parts: chi^parts(mu)} over the shapes of n at which the character is not 0.

    One forward Murnaghan-Nakayama pass. A shape is the bitmask of its n
    beta numbers, parts[j] + n - 1 - j, so the empty shape is the n lowest
    bits. Adding a border strip of c cells moves one bead up c places onto
    a free one, and its sign is (-1) to the number of beads jumped. The
    pass starts at the empty shape with value 1 and adds one strip per
    cycle of mu, smallest first, to every shape of the level: a shape's
    value is then its character at the cycles added so far. Values that
    cancel to 0 are dropped on the way, and tuples are built only for the
    last level.
    """
    n = sum(mu)
    level = {(1 << n) - 1: 1}
    for c in reversed(mu):
        jumped = (1 << (c - 1)) - 1
        added: dict[int, int] = {}
        for beads, value in level.items():
            movable = beads & ~(beads >> c)
            while movable:
                bead = movable & -movable
                movable ^= bead
                child = beads ^ bead ^ (bead << c)
                height = ((beads >> bead.bit_length()) & jumped).bit_count()
                added[child] = added.get(child, 0) + (-value if height & 1 else value)
        level = {beads: value for beads, value in added.items() if value}
    return {_parts_of_beads(beads, n): value for beads, value in level.items()}


def character(lam, mu) -> int:
    """Exact character value of the irreducible lam at the class mu."""
    lam = Partition(lam)
    mu = CycleType(mu)
    if lam.n != mu.n:
        raise SizeMismatchError(f"|{lam!r}| = {lam.n} but |{mu!r}| = {mu.n}")
    return class_character(mu)(tuple(lam))


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


def compose(p, q) -> tuple[int, ...]:
    """The permutation applying q first and then p."""
    return tuple(p[q[j]] for j in range(len(p)))


def inverse(p) -> tuple[int, ...]:
    out = [0] * len(p)
    for j, v in enumerate(p):
        out[v] = j
    return tuple(out)


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


def verify_ratio_asymptotics(i: int, t: int, n_list) -> list[Fraction]:
    """Scaled deviation of i-cycle ratios from 1 - i*t/n across shapes.

    For each n, returns the maximum of |ratio - (1 - i*t/n)| * n^2 over
    the shapes with first part n - t, exactly, for monitoring; no
    universal constant is asserted here.
    """
    if i < 2 or t < 0:
        raise ValidationError("need i >= 2 and t >= 0")
    worst = []
    for n in n_list:
        if n < t + i + 2:
            raise ValidationError(f"n = {n} too small for t = {t}, i = {i}")
        worst.append(max(
            abs(char_ratio_icycle(Partition((n - t, *rest)), i) - Fraction(n - i * t, n)) * n * n
            for rest in bounded_partitions(t, n - t)
        ))
    return worst
