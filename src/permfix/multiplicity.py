"""Multiplicities of irreducibles in tensor powers of the defining representation.

Four routes to the same number m(lam, r):

* mult_skew: Stirling-weighted sum of skew tableau counts with single-row
  inner shapes, all read off one walk down Young's lattice from lam (the
  production algorithm, valid for every lam and r).
* mult_updown: expansion in box-removal/box-addition operators applied to
  the one-row shape, with path counts accumulated on weighted states.
* mult_large_first_row: the same Stirling sum over the closed-form skew
  counts of tableaux.skew_syt_large_first_row, valid only while r is at
  most n minus the second part.
* mult_oracle: the definitional character inner product of the rth power
  of the fixed-point count, by full group enumeration at small n.

m(lam, 0) is 1 for the one-row shape and 0 otherwise, which keeps the
moment engines total.

exact_shape_distribution reads the RSK shape law of r top-to-random
shuffles off the same multiplicities: mult(lam, r) * dim(lam) / n^r.
"""
from __future__ import annotations

from fractions import Fraction
from itertools import permutations
from math import factorial

from .characters import character, perm_cycle_type
from .errors import EnumerationLimitError, FirstRowGuardError, ValidationError
from .laws import stirling_columns, stirling_row
from .partitions import Partition, all_partitions, dim
from .tableaux import LatticePlan, skew_syt_large_first_row


def mult_skew(lam, r: int) -> int:
    """Stirling-weighted skew-count formula; total in lam and r.

    One tableaux.LatticePlan from lam down to the row (n - min(r, n))
    reads f^{lam/(n-a)} at the one-row target (n - a) of each level.
    """
    lam = Partition(lam)
    if r < 0:
        raise ValueError("r must be nonnegative")
    n = lam.n
    a_max = min(r, n)
    if lam and lam[0] < n - a_max:
        return 0  # lam contains none of the rows (n - a), a <= r
    counts = LatticePlan([tuple(lam)], (n - a_max,) if a_max < n else ()).sums([1])
    return sum(s * f for s, f in zip(stirling_columns(r, a_max), counts))


def _box_additions(parts: tuple) -> list[tuple]:
    out = []
    for i in range(len(parts)):
        if i == 0 or parts[i - 1] > parts[i]:
            out.append(parts[:i] + (parts[i] + 1,) + parts[i + 1:])
    out.append(parts + (1,))
    return out


def mult_updown(lam, r: int) -> int:
    """Operator-expansion evaluation, independent of the skew-count path.

    For each block count a, the one-row shape loses a boxes (one way) and
    regains a boxes one at a time in all ways; the weight accumulated on
    lam, Stirling-summed over a, is the multiplicity.
    """
    lam = Partition(lam)
    if r < 0:
        raise ValueError("r must be nonnegative")
    n = lam.n
    row = stirling_columns(r, min(r, n))
    key = tuple(lam)
    total = 0
    for a in range(min(r, n) + 1):
        if not row[a]:
            continue
        state: dict[tuple, int] = {(n - a,) if a < n else (): 1}
        for _ in range(a):
            grown: dict[tuple, int] = {}
            for parts, weight in state.items():
                for bigger in _box_additions(parts):
                    grown[bigger] = grown.get(bigger, 0) + weight
            state = grown
        total += row[a] * state.get(key, 0)
    return total


def mult_large_first_row(lam, r: int) -> int:
    """Closed form via the shape below the first row.

    Requires 1 <= r <= n - second part; outside that range the formula is
    invalid and the caller must fall back to mult_skew.
    """
    lam = Partition(lam)
    n = lam.n
    second = lam[1] if len(lam) > 1 else 0
    if not 1 <= r <= n - second:
        raise FirstRowGuardError(f"closed form needs 1 <= r <= {n - second}, got {r}")
    row = stirling_row(r)
    return sum(row[a] * skew_syt_large_first_row(lam, a) for a in range(r + 1))


def mult_oracle(lam, r: int) -> int:
    """Definitional multiplicity by summing over every group element."""
    lam = Partition(lam)
    n = lam.n
    if n > 7:
        raise EnumerationLimitError(f"full enumeration limited to n <= 7, got {n}")
    if r < 0:
        raise ValueError("r must be nonnegative")
    char_cache: dict[tuple, int] = {}
    total = 0
    for g in permutations(range(n)):
        ct = perm_cycle_type(g)
        chi = char_cache.get(ct)
        if chi is None:
            chi = character(lam, ct)
            char_cache[ct] = chi
        total += ct.n_1 ** r * chi
    q, rem = divmod(total, factorial(n))
    if rem:
        raise ArithmeticError("inner product is not an integer")
    return q


ROUTES = {"skew": mult_skew, "updown": mult_updown,
          "first-row": mult_large_first_row, "oracle": mult_oracle}


def mult_by_route(lam, r: int) -> dict[str, int]:
    """m(lam, r) by each route of ROUTES whose guard admits (lam, r)."""
    values = {}
    for name, route in ROUTES.items():
        try:
            values[name] = route(lam, r)
        except (FirstRowGuardError, EnumerationLimitError):
            pass
    return values


def exact_shape_distribution(n: int, r: int) -> dict[Partition, Fraction]:
    """Law of the RSK shape after r top-to-random shuffles of a sorted deck."""
    if n < 1 or r < 0:
        raise ValidationError("need n >= 1 and r >= 0")
    return {
        lam: Fraction(mult_skew(lam, r) * dim(lam), n ** r)
        for lam in all_partitions(n)
    }
