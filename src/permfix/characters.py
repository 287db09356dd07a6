"""Exact irreducible characters of S_n and character ratios on i-cycles.

Every character sweep runs on one kernel, _add_strips: the power sum p_c
on shapes held as bitmasks of their beta numbers (first-column hook
lengths), where adding a border strip of c cells moves one bead up c
places onto a free one. class_column(mu, below) gives {parts: chi} over
the shapes of n with at most below cells under the first row, by one of
two routes:

* the class's column, p_mu applied to the empty shape, when
  2 below >= n: one strip per cycle, smallest first, dropping each shape
  with more than below cells under its first row as soon as it appears;
* the character polynomial otherwise: chi^(n - |nu|, nu)(x) is the
  coefficient of s_nu in (sum_j (-1)^j e_j) * prod_k (1 + p_k)^(n_k) up
  to below cells, n_k counting the k-cycles of x (the dual Pieri rule).
  The work depends on the cycle lengths, not on their number.

character(lam, mu) reads one shape of the sweep at below = n - lam_1.
char_ratio_icycle needs no sweep: Frobenius's formula gives the ratio on
an i-cycle from the beta numbers of the one shape.
_char, the plain Murnaghan-Nakayama recursion, is the gates' oracle.

A class is a CycleType: the Partition of n by its cycle lengths, with
the class statistics added, so one constructor checks shapes and classes.

Permutations are tuples in one-line form over 0..n-1: perm_cycle_type
reads a class off one, perm_from_cycle_type lays a class out as one, and
compose(p, q) applies q first.
"""
from __future__ import annotations

from collections import Counter
from fractions import Fraction
from functools import cache
from math import comb, factorial, perm

from .errors import SizeMismatchError, ValidationError
from .limits import engine_shapes
from .partitions import Partition, as_parts, dim, partition_tuples


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


@cache
def _char(parts: tuple, cycles: tuple) -> int:
    """Murnaghan-Nakayama by recursion, cycles largest first, then the dimension at fixed points."""
    if not cycles or cycles[0] == 1:
        return dim(parts)
    total = 0
    for shape, height in _strip_removals(parts, cycles[0]):
        value = _char(shape, cycles[1:])
        total += -value if height % 2 else value
    return total


def _add_strips(level: dict[int, int], c: int, lowest_top: int) -> dict[int, int]:
    """The power sum p_c on {beads: value}, a shape being the bitmask of its beta numbers.

    Adding a border strip of c cells moves one bead up c places onto a
    free one, with sign (-1) to the number of beads jumped. Shapes whose
    top bead lands below lowest_top, and values that cancel, are dropped.
    """
    jumped = (1 << (c - 1)) - 1
    added: dict[int, int] = {}
    for beads, value in level.items():
        movable = beads & ~(beads >> c)
        while movable:
            bead = movable & -movable
            movable ^= bead
            child = beads ^ bead ^ (bead << c)
            if child >> lowest_top:
                height = ((beads >> bead.bit_length()) & jumped).bit_count()
                added[child] = added.get(child, 0) + (-value if height & 1 else value)
    return {beads: value for beads, value in added.items() if value}


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
def class_column(mu: tuple, below: int) -> dict[tuple, int]:
    """{parts: chi^parts(mu) != 0} over the shapes of n with at most below <= n cells under row 1.

    When 2 below >= n, p_mu applied to the empty shape, one cycle at a
    time, smallest first. Every shape on the way lies inside the final
    one, so a shape with more than below cells under its first row is
    dropped as soon as it appears. The shapes kept have at most below + 1
    rows, so that many beads (n at most) hold them, the empty shape being
    the lowest bits.

    Otherwise the character polynomial: by the dual Pieri rule,
    chi^(n - |nu|, nu)(x) is the coefficient of s_nu in
    (sum_j (-1)^j e_j) * prod_k (1 + p_k)^(n_k), n_k counting the k-cycles
    of x (Macdonald, I.5 and I.7). Each factor runs as sum_j C(n_k, j)
    p_k^j, so the cost does not grow with n_k. Terms are kept apart by
    size, up to below, on below beads; (n - |nu|, nu) is a shape because
    |nu| <= below < n - below.
    """
    n = sum(mu)
    if 2 * below >= n:
        count = min(below + 1, n)
        level = {(1 << count) - 1: 1}
        cells = 0
        for c in reversed(mu):
            cells += c
            # A shape of cells cells has first part top - count + 1.
            level = _add_strips(level, c, cells - below + count - 1)
        return {_parts_of_beads(beads, count): value for beads, value in level.items()}
    empty = (1 << below) - 1
    # e_j is s_(1^j): the bead at below - j moves up to below.
    by_size = [Counter({empty - (1 << (below - j)) + (1 << below): (-1) ** j})
               for j in range(below + 1)]
    for k, n_k in sorted(Counter(mu).items()):
        # Larger sizes first, so each level is read before it receives terms.
        for m in range(below - k, -1, -1):
            term = by_size[m]
            for j in range(1, min(n_k, (below - m) // k) + 1):
                term = _add_strips(term, k, 0)
                by_size[m + j * k].update({beads: comb(n_k, j) * v for beads, v in term.items()})
    return {(n - m, *_parts_of_beads(beads, below)): value
            for m, level in enumerate(by_size) for beads, value in level.items() if value}


def character(lam, mu) -> int:
    """chi^lam(mu): a one-shape sweep at below = n - lam_1, refused past the engine's shape cap."""
    lam = Partition(lam)
    mu = CycleType(mu)
    n = lam.n
    if n != mu.n:
        raise SizeMismatchError(f"|{lam!r}| = {n} but |{mu!r}| = {mu.n}")
    below = n - sum(lam[:1])
    engine_shapes(n, below, f"a character with {below} cells under the first row at n = {n} reads")
    return class_column(mu, below).get(tuple(lam), 0)


def char_ratio_icycle(lam, i: int) -> Fraction:
    """Exact normalized character chi^lam / f^lam on the class of a single i-cycle.

    Frobenius's formula on the beta numbers beta_j = lam_j + l - j of the
    l rows, with x^(i) = x (x - 1) ... (x - i + 1):

        chi^lam / f^lam = (1 / n^(i)) * sum_j beta_j^(i)
                          * prod_{k != j} (beta_j - i - beta_k) / (beta_j - beta_k).

    Term j is the Murnaghan-Nakayama term of the border strip that lowers
    beta_j by i, (-1)^height f^(lam - strip) / f^lam, read off the hook
    length formula in beta numbers, f^lam = n! prod_{j < k} (beta_j - beta_k)
    / prod_j beta_j!. So the sum runs only over the j with beta_j >= i and
    beta_j - i free, the rows a strip leaves from; every other term has a
    zero factor. No dimension is computed: a shape costs O(strips * l)
    products, however long its first row.
    """
    parts = as_parts(lam)
    n = sum(parts)
    if not 2 <= i <= n:
        raise ValidationError(f"need 2 <= i <= {n}, got i = {i}")
    length = len(parts)
    beta = [p + length - 1 - j for j, p in enumerate(parts)]
    occupied = set(beta)
    numerator, denominator = 0, 1
    for b in beta:
        low = b - i
        if low < 0:
            break  # beta decreases, so no later row has i cells to give
        if low in occupied:
            continue
        top, bottom = perm(b, i), 1
        for c in beta:
            if c != b:
                top *= low - c
                bottom *= b - c
        numerator = numerator * bottom + top * denominator
        denominator *= bottom
    return Fraction(numerator, denominator * perm(n, i))


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
            for rest in partition_tuples(t, n - t)
        ))
    return worst
