"""Exact counts of standard Young tableaux of skew shape, by Aitken's determinant.

Aitken's formula (Stanley, EC2, Cor. 7.16.3) is f^{lam/mu} =
|lam/mu|! * det[1 / (lam_i - mu_j - i + j)!], with 1/k! = 0 for k < 0.
For a one-row mu = (n - a), expanding along that row's column leaves one
term per row i of lam:

    f^{lam/(n-a)} = sum_i (-1)^(i-1) * C(a, m_i) * f^{kappa_i},

with m_i = n - lam_i + i - 1 and kappa_i, of m_i cells, the shape lam
with row i removed and each row above it lengthened by one. row_terms
gives a shape's terms up to a_max, and one_row_counts takes terms summed
by m_i to every a at once; the moment engine, mult_skew and
skew_syt_count read them. skew_syt_count takes the whole determinant for
an inner shape of two rows or more. A closed form covers shapes whose
inner part is a long single row.
"""
from __future__ import annotations

from fractions import Fraction
from math import comb, factorial, perm, prod

from .errors import FirstRowGuardError
from .partitions import Partition, dim


def row_terms(lam: tuple, f: int, a_max: int) -> tuple[int, ...]:
    """m_1, c_1, m_2, c_2, ... for the rows of lam with m_i <= a_max; c_i = (-1)^(i-1) f^{kappa_i}.

    The pairs lie flat, since the moment engine holds every shape's terms
    and a tuple per pair would add about 7 MB at n = 40. lam is a plain
    tuple of n cells, f is dim(lam) and a_max <= n. Row 1's kappa is the
    shape below the first row, whose hook length dim costs what its own
    cells cost. Below it, kappa_i has the beta numbers of lam
    (beta_k = lam_k + len(lam) - k) without beta_i, so its dim is read off f:

        f^{kappa_i} = f * beta_i! / (perm(n, n - m_i) * prod_{k != i} |beta_i - beta_k|),

    one exact division, checked like dim's. m_2 > a_max unless n < 2 a_max,
    so at large n only row 1 counts. The empty shape of n = 0 has no rows,
    yet f^{()/()} = 1: its one term is (0, 1).
    """
    if not lam:
        return (0, 1)
    n = sum(lam)
    m = n - lam[0]
    if m > a_max:
        return ()
    terms = [m, dim(lam[1:])]
    rows = len(lam)
    beta = [p + rows - 1 - k for k, p in enumerate(lam)]
    for i in range(1, rows):
        m = n - lam[i] + i
        if m > a_max:
            break
        b = beta[i]
        gaps = prod(c - b for c in beta[:i]) * prod(b - c for c in beta[i + 1:])
        q, rem = divmod(f * factorial(b), perm(n, n - m) * gaps)
        if rem:
            raise ArithmeticError(f"f^kappa_{i + 1} is not an integer for {lam!r}")
        terms += (m, -q if i % 2 else q)
    return tuple(terms)


def one_row_counts(sums: list[int]) -> list[int]:
    """sum over s <= a of C(a, s) * sums[s], for a = 0..len(sums) - 1.

    With sums[s] the term of row_terms at m_i = s, of one shape or summed
    with weights over many, entry a is f^{lam/(n-a)}, or its weighted sum.
    """
    return [sum(comb(a, s) * h for s, h in enumerate(sums[:a + 1]) if h)
            for a in range(len(sums))]


def _aitken_determinant(outer: Partition, inner: Partition) -> int:
    """f^{outer/inner} = |outer/inner|! * det[1/(outer_i - inner_j - i + j)!], in Fractions."""
    ell = len(outer)
    inner = tuple(inner) + (0,) * (ell - len(inner))
    rows = [[Fraction(1, factorial(e)) if (e := outer[i] - inner[j] - i + j) >= 0 else Fraction(0)
             for j in range(ell)] for i in range(ell)]
    det = Fraction(factorial(outer.n - sum(inner)))
    for col in range(ell):
        pivot = next((r for r in range(col, ell) if rows[r][col]), None)
        if pivot is None:
            return 0
        if pivot != col:
            rows[col], rows[pivot] = rows[pivot], rows[col]
            det = -det
        det *= rows[col][col]
        for r in range(col + 1, ell):
            if factor := rows[r][col] / rows[col][col]:
                rows[r][col:] = [x - factor * y for x, y in zip(rows[r][col:], rows[col][col:])]
    if det.denominator != 1:
        raise ArithmeticError(f"determinant count is not integral for {outer}/{inner}")
    return int(det)


def skew_syt_count(outer, inner=()) -> int:
    """Number of standard fillings of the cells of outer not in inner.

    Containment failure contributes nothing to the sums this feeds, so it
    returns 0 rather than raising. An inner shape equal to outer counts 1
    (the empty filling). An inner shape of at most one row reads the row
    expansion, a product per row; a longer one, Aitken's whole
    determinant in Fractions, which costs about rows^3 Fraction steps.
    """
    outer = Partition(outer)
    inner = Partition(inner)
    if not outer.contains(inner):
        return 0
    if len(inner) > 1:
        return _aitken_determinant(outer, inner)
    a = outer.n - inner.n
    terms = iter(row_terms(tuple(outer), dim(outer), a))
    return sum(comb(a, m) * c for m, c in zip(terms, terms))


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
