"""Exact moment engines for three non-uniform permutation models.

Models:

* commutator with both factors uniform: rth moment is the sum over
  shapes of multiplicity over dimension;
* commutator with one factor fixed in a class x: rth moment weights each
  shape by the squared character at x over the dimension;
* the i-cycle walk after k steps: each shape contributes dimension times
  the kth power of its i-cycle character ratio times the multiplicity.

One engine serves the three models, which differ only in the shape
weight: the rth moment is sum_a S(r, a) * F_a, with factorial moments
F_a = sum_lam weight(lam, f^lam) * f^{lam/(n-a)} over the shapes whose
first part is at least n - r. A rational weight is an integer pair
(numerator, denominator), a real one an mpf; either way the weights go
over a common denominator D as integer numerators N_lam. On Aitken's row
terms of each shape (tableaux.row_terms), one pass sums
H_s = sum of N_lam * (-1)^(i-1) * f^{kappa_i} over the rows with m_i = s,
and N_a = D * F_a = sum_s C(a, s) * H_s. The Stirling combination runs on
those integers too: the rth moment is (sum_a S(r, a) * N_a) / D, one
exact division (or one rounding, for reals) per moment. The engine keeps
its latest table of shapes, dims and row terms, keyed by (n, a_max), so
a sweep over classes or step counts at one n builds it once. The uniform
permutation's weight is 1 on the one-row shape alone, so its F_a are 1
and need no table.
The fixed-x commutator weighs each shape by chi^lam(x)^2 / dim, read
from characters.class_column(x, min(r_max, n)), swept once per call; a
shape of character 0 weighs (0, 1), and the engine skips it.
Each model's weight has one home here, shared by its moments and its
law.
Commutator moments are exact rationals. The walk offers an exact
rational path (small k) and a high-precision float path, which raises
each ratio to the kth power by binary powering, rounded once, so k can
reach n log n and beyond.

The engine bounds its own work, whoever calls it: past MAX_ENGINE_SHAPES
shapes or above order MAX_ORDER it raises ValidationError before any work.

Each model's *_report builder returns the body `permfix moments` prints:
the model, its parameters and one row per order r with the moment, that
of the model's Poisson limit and their difference.

The exact laws of the three models come from the same engine: every
F_a to a = n, taken to the law by permfix.laws.from_factorial_moments,
which is what `permfix dist` prints. The walk's law by inverting the
class sums and the commutator's by enumerating the group stay here, at
small n, only as oracles of the verify gates and the tests.
walk_term_at_cutoff returns one shape's cutoff term and its limit as a
plain (term, limit) pair.
"""
from __future__ import annotations

from collections import Counter
from fractions import Fraction
from functools import cache, lru_cache
from itertools import islice, permutations
from math import factorial, isfinite, lcm, log
from typing import Callable

import mpmath
from mpmath import mp
from mpmath.libmp import from_int, mpf_div, mpf_pow_int

from . import laws
from .characters import (
    CycleType,
    char_ratio_icycle,
    class_column,
    perm_from_cycle_type,
)
from .errors import EnumerationLimitError, SizeMismatchError, ValidationError
from .limits import MAX_ENGINE_SHAPES
from .partitions import Partition, all_partitions, dim, large_first_row_tuples, partition_tuples
from .tableaux import one_row_counts, row_terms

DEFAULT_PRECISION_BITS = 128

# The highest moment order computed (simulate's exact references go to
# twice its --r-max). Every Stirling row up to it is cached, which grows as
# about r^3 log r bits whatever n is (order 800 took 139 MB at n = 5).
MAX_ORDER = 128


def _over_common_denominator(weights: list) -> tuple[list[int], Callable[[int], object]]:
    """Integer numerators N with weights[j] = N[j] / D, and the map F -> F / D.

    Rational weights come as integer pairs (numerator, denominator > 0),
    not necessarily in lowest terms: they share the lcm D of their
    denominators, and F / D is an exact Fraction, so it is the same
    number whatever the pairs' common factors were. mpf weights are read
    exactly as man * 2^exp and shifted to the smallest exponent e0, so
    F / D = F * 2^e0, rounded once at the working precision p. So that
    ratio^k spanning millions of binades cannot make the numerators that
    long, e0 is at least 3p bits below the largest weight's top bit, and
    the weights below that level are rounded to it (magnitude and sign
    apart, so opposite weights still cancel exactly). This adds at most
    2^-3p of the largest weight per tableau, far less than rounding every
    product weight * f to p bits would.
    """
    if not isinstance(weights[0], mpmath.mpf):
        denominator = lcm(*(d for _, d in weights))
        numerators = [n * (denominator // d) for n, d in weights]
        return numerators, lambda total: Fraction(total, denominator)
    dyadic = [w._mpf_ for w in weights]
    nonzero = [(exp, exp + bc) for _, man, exp, bc in dyadic if man]
    e0 = max(max(top for _, top in nonzero) - 3 * mp.prec, min(exp for exp, _ in nonzero))
    numerators = []
    for sign, man, exp, bc in dyadic:
        if exp >= e0:
            magnitude = man << (exp - e0)
        elif exp + bc < e0:
            magnitude = 0
        else:
            # Round half up on the magnitude, so -w always maps to -N.
            magnitude = (man + (1 << (e0 - exp - 1))) >> (e0 - exp)
        numerators.append(-magnitude if sign else magnitude)
    return numerators, lambda total: mpmath.mpf((total, e0))


@lru_cache(maxsize=1)
def _engine_table(n: int, a_max: int, cap: int) -> tuple[list[tuple], list[int], list[tuple]]:
    """Every shape of n with at most a_max cells under the first row, its dim and its row terms.

    The three lists run in parallel. It raises ValidationError, building
    nothing, past cap shapes; a new key replaces the table the engine held.
    """
    shapes = list(islice(large_first_row_tuples(n, a_max), cap + 1))
    if len(shapes) > cap:
        raise ValidationError(f"moments to order {a_max} at n = {n} visit more than the "
                              f"{cap} shapes accepted")
    dims = list(map(dim, shapes))
    return shapes, dims, [row_terms(lam, f, a_max) for lam, f in zip(shapes, dims)]


def _factorial_moment_sums(n: int, a_max: int, weight) -> tuple[list[int], Callable[[int], object]]:
    """Integers N_a with F_a = N_a / D for a = 0..a_max, and the map N -> N / D.

    The shapes, at most MAX_ENGINE_SHAPES of them, reach weight as plain
    tuples with their dims; a zero numerator adds nothing to any H_s.
    """
    shapes, dims, row_terms_of = _engine_table(n, a_max, MAX_ENGINE_SHAPES)
    numerators, over_denominator = _over_common_denominator(list(map(weight, shapes, dims)))
    sums = [0] * (a_max + 1)
    for numerator, terms in zip(numerators, row_terms_of):
        if numerator:
            terms = iter(terms)
            for m, c in zip(terms, terms):
                sums[m] += numerator * c
    return one_row_counts(sums), over_denominator


def _factorial_moments(n: int, a_max: int, weight) -> list:
    """F_a = sum over lam of size n of weight(lam, f^lam) * f^{lam/(n-a)}, for a = 0..a_max."""
    sums, over_denominator = _factorial_moment_sums(n, a_max, weight)
    return [over_denominator(f) for f in sums]


def _check_order(r_max: int) -> None:
    if r_max > MAX_ORDER:
        raise ValidationError(f"moments to order {r_max} are above the {MAX_ORDER} accepted")


def _moments(n: int, r_max: int, weight) -> list:
    """Moments r = 0..r_max of the shape sum of weight(lam, f^lam) * mult(lam, r).

    Since mult(lam, r) = sum_a S(r, a) * f^{lam/(n-a)}, the rth moment is
    sum_a S(r, a) * F_a. The Stirling combination runs on the integer
    sums N_a = D * F_a, so each moment takes one division by D:
    an exact Fraction for rational weights, one rounding at the working
    precision for reals.
    """
    _check_order(r_max)
    sums, over_denominator = _factorial_moment_sums(n, min(r_max, n), weight)
    return [over_denominator(total) for total in laws.moments(sums, r_max)]


def uniform_moments(n: int, r_max: int) -> list[Fraction]:
    """Moments r = 0..r_max of the fixed points of a uniform permutation.

    Its shape weight is 1 on the one-row shape (n) alone, so F_a = 1 for
    every a <= n. Nothing is enumerated: the weight route would visit every
    shape with first part at least n - r_max only to weigh all but one by 0.
    """
    if n < 1 or r_max < 0:
        raise ValidationError("need n >= 1 and r >= 0")
    _check_order(r_max)
    return [Fraction(m) for m in laws.moments([1] * (min(n, r_max) + 1), r_max)]


def uniform_fixed_distribution_exact(n: int) -> dict[int, Fraction]:
    """Exact fixed-point law of a uniform permutation, from F_a = 1 for a <= n."""
    if n < 1:
        raise ValidationError("n must be positive")
    return laws.from_factorial_moments([1] * (n + 1))


def _law(n: int, weight) -> dict[int, Fraction]:
    """The exact fixed-point law of the shape weight, from every F_a, a = 0..n."""
    return laws.from_factorial_moments(_factorial_moments(n, n, weight))


def _commutator_random_weight(lam: tuple, f: int) -> tuple[int, int]:
    """1 / dim(lam), the both-random commutator's shape weight, as an integer pair."""
    return 1, f


def _commutator_fixed_weight(x: CycleType, below: int) -> Callable[[tuple, int], tuple[int, int]]:
    """(lam, f) -> chi^lam(x)^2 / f, the fixed-x commutator's shape weight,
    over the shapes with at most below cells under the first row.

    A shape of character 0 weighs (0, 1), keeping its dim out of the
    common denominator. The column is resolved at the first shape, so the
    engine's bounds refuse an oversized sweep before the class is expanded.
    """
    chi = cache(lambda: class_column(x, below))

    def weight(lam: tuple, f: int) -> tuple[int, int]:
        value = chi().get(lam, 0)
        return (value * value, f) if value else (0, 1)

    return weight


def commutator_random_moments(n: int, r_max: int) -> list[Fraction]:
    """Moments r = 0..r_max of the fixed points of a commutator of two uniform factors."""
    if n < 1 or r_max < 0:
        raise ValidationError("need n >= 1 and r >= 0")
    return _moments(n, r_max, _commutator_random_weight)


def moment_commutator_random(n: int, r: int) -> Fraction:
    """rth moment of the fixed points of a commutator of two uniform factors."""
    return commutator_random_moments(n, r)[r]


def commutator_fixed_moments(n: int, x, r_max: int) -> list[Fraction]:
    """Moments r = 0..r_max of the fixed points of a commutator with one factor in class x."""
    x = CycleType.of_size(x, n)
    if r_max < 0:
        raise ValidationError("r must be nonnegative")
    return _moments(n, r_max, _commutator_fixed_weight(x, min(r_max, n)))


def commutator_distribution(n: int, x=None) -> dict[int, Fraction]:
    """Exact fixed-point law of the commutator, with x the class of one
    factor or None for two uniform factors, from the engine's F_0..F_n."""
    if x is None:
        if n < 0:
            raise ValidationError("n must be nonnegative")
        return _law(n, _commutator_random_weight)
    x = CycleType.of_size(x, n)
    return _law(n, _commutator_fixed_weight(x, n))


def moment_commutator_fixed(n: int, x, r: int) -> Fraction:
    """rth moment of the fixed points of a commutator with one factor in class x."""
    return commutator_fixed_moments(n, x, r)[r]


def moment_commutator_fixed_closed(n: int, x, r: int) -> Fraction:
    """Closed forms for the mean and second moment of the fixed-x model."""
    x = CycleType.of_size(x, n)
    n1, n2 = x.n_1, x.n_2
    if r == 1:
        if n < 2:
            raise ValidationError("mean closed form needs n >= 2")
        return 1 + Fraction((n1 - 1) ** 2, n - 1)
    if r == 2:
        if n < 4:
            raise ValidationError("second-moment closed form needs n >= 4")
        return (
            2
            + Fraction(3 * (n1 - 1) ** 2, n - 1)
            + Fraction(((n1 - 1) * (n1 - 2) // 2 + n2 - 1) ** 2, n * (n - 3) // 2)
            + Fraction(((n1 - 1) * (n1 - 2) // 2 - n2) ** 2, (n - 1) * (n - 2) // 2)
        )
    raise ValidationError(f"closed forms cover r in {{1, 2}}, got {r}")


def _validate_walk(n: int, i: int, k: int, r: int) -> None:
    if not 2 <= i <= n:
        raise ValidationError(f"need 2 <= i <= {n}, got i = {i}")
    if k < 0 or r < 0:
        raise ValidationError("k and r must be nonnegative")


def icycle_walk_moments_exact(n: int, i: int, k: int, r_max: int) -> list[Fraction]:
    """Exact rational moments r = 0..r_max after k steps of the i-cycle walk.

    Ratio powers are taken literally, so this path is meant for modest k;
    the float path below handles cutoff-scale step counts.
    """
    _validate_walk(n, i, k, r_max)
    return _moments(n, r_max, lambda lam, f: _walk_weight(lam, f, i, k))


def _walk_weight(lam: tuple, f: int, i: int, k: int) -> tuple[int, int]:
    """f * ratio^k, f = dim(lam) and ratio its i-cycle character ratio, as an integer pair."""
    ratio = char_ratio_icycle(lam, i)
    return f * ratio.numerator ** k, ratio.denominator ** k


def icycle_walk_distribution(n: int, i: int, k: int) -> dict[int, Fraction]:
    """Exact fixed-point law after k steps of the i-cycle walk, from the
    engine's F_0..F_n with the exact path's weight."""
    _validate_walk(n, i, k, 0)
    return _law(n, lambda lam, f: _walk_weight(lam, f, i, k))


def _ratio_power(ratio: Fraction, k: int) -> mpmath.mpf:
    """ratio**k at the working precision p, by binary powering, rounded once.

    The ratio is rounded to p + bitlength(k) + 8 bits, so its error, k times
    over, stays below 2^-(p + 8) relative. mpmath's integer power keeps
    p + 4 bitlength(k) + 4 bits through its squarings (or the exact power,
    when that is short) and rounds to p bits once, at the end. The sign is
    the ratio's to the power k, and 0**0 = 1.
    """
    prec = mp.prec
    base = mpf_div(from_int(ratio.numerator), from_int(ratio.denominator), prec + k.bit_length() + 8, "n")
    return mpmath.mpf(mpf_pow_int(base, k, prec, "n"))


def icycle_walk_moments(
    n: int, i: int, k: int, r_max: int, precision_bits: int = DEFAULT_PRECISION_BITS
) -> list[mpmath.mpf]:
    """Moments r = 0..r_max after k steps, as high-precision reals.

    Each shape weighs dim * ratio^k; the sums run with guard precision
    and each moment is rounded to the requested precision at the end.
    """
    _validate_walk(n, i, k, r_max)

    def weight(lam, f):
        return mpmath.mpf(f) * _ratio_power(char_ratio_icycle(lam, i), k)

    with mp.workprec(precision_bits + 40):
        values = _moments(n, r_max, weight)
    with mp.workprec(precision_bits):
        return [+v for v in values]


def moment_icycle_walk(
    n: int, i: int, k: int, r: int, precision_bits: int = DEFAULT_PRECISION_BITS
) -> mpmath.mpf:
    """rth moment after k steps, as a high-precision real."""
    return icycle_walk_moments(n, i, k, r, precision_bits)[r]


def cutoff_steps(n: int, i: int, c: float) -> int:
    """Step count n*log(n)/i + c*n rounded to the nearest integer, ties to even."""
    if n < 1 or i < 1:
        raise ValidationError("need n >= 1 and i >= 1")
    steps = n * log(n) / i + c * n
    if not isfinite(steps):
        raise ValidationError(f"c = {c} gives no finite step count n*log(n)/i + c*n")
    if (k := round(steps)) < 0:
        raise ValidationError(f"c = {c} gives the step count n*log(n)/i + c*n = {steps:.6g}, "
                              f"which rounds below 0")
    return k


def cutoff_offset(n: int, i: int, k: int) -> float:
    """The c with k = n*log(n)/i + c*n: cutoff_steps inverted before rounding."""
    return (k - n * log(n) / i) / n


def walk_poisson_mean(
    i: int, c: float, precision_bits: int = DEFAULT_PRECISION_BITS
) -> mpmath.mpf:
    """Mean 1 + exp(-i*c) of the Poisson limit of the walk after n*log(n)/i + c*n steps."""
    with mp.workprec(precision_bits):
        return 1 + mpmath.exp(-i * mpmath.mpf(c))


def walk_exact_distribution(n: int, i: int, k: int) -> dict[int, Fraction]:
    """Exact law of the fixed-point count after k steps of the i-cycle walk.

    Inverts the class-function expansion of the walk over all conjugacy
    classes, so it is feasible only at small n. Probabilities are exact
    rationals, nonnegative, and sum to one. It stays as an oracle: the
    verify gates check the walk's moments against it, and the tests
    icycle_walk_distribution.
    """
    if n > 8:
        raise EnumerationLimitError(f"class-sum inversion limited to n <= 8, got {n}")
    _validate_walk(n, i, k, 0)
    shapes = list(partition_tuples(n, n))
    # The weights over one denominator D, so each class sums integers:
    # P(mu) = (sum_tau N_tau * chi^tau(mu)) / D / z_mu.
    numerators, over_denominator = _over_common_denominator(
        [_walk_weight(tau, dim(tau), i, k) for tau in shapes]
    )
    numerator = dict(zip(shapes, numerators))
    histogram: dict[int, Fraction] = {}
    total = Fraction(0)
    for mu_parts in shapes:
        mu = CycleType(mu_parts)
        acc = sum(numerator[tau] * value for tau, value in class_column(mu, n).items())
        prob = over_denominator(acc) / mu.centralizer_order()
        if prob < 0:
            raise ArithmeticError(f"negative class probability at {mu!r}")
        if prob:
            histogram[mu.n_1] = histogram.get(mu.n_1, Fraction(0)) + prob
            total += prob
    if total != 1:
        raise ArithmeticError("walk distribution does not sum to 1")
    return dict(sorted(histogram.items()))


def enumerate_commutator_distribution(n: int, x=None) -> dict[int, Fraction]:
    """Exact fixed-point law of the commutator by full enumeration.

    With x given, g runs over the whole group; fix(g^-1 x^-1 g x) equals
    the number of points where g.x and x.g agree, so no inverses are formed
    in the inner loop. With x absent the law is the average of the fixed-x
    laws over the classes C, weighted by |C| / n!. It stays as an oracle:
    the verify gates check the commutator moments against it, and the
    tests commutator_distribution.
    """
    if x is None:
        if n > 6:
            raise EnumerationLimitError("both-random enumeration limited to n <= 6")
        law: Counter = Counter()
        for parts in all_partitions(n):
            size = CycleType(parts).class_size()
            for j, p in enumerate_commutator_distribution(n, parts).items():
                law[j] += p * size / factorial(n)
        return dict(sorted(law.items()))
    x = CycleType.of_size(x, n)
    if n > 7:
        raise EnumerationLimitError("fixed-x enumeration limited to n <= 7")
    xp = perm_from_cycle_type(x)
    counts = Counter(
        sum(1 for j in range(n) if g[xp[j]] == xp[g[j]]) for g in permutations(range(n))
    )
    return {j: Fraction(c, factorial(n)) for j, c in sorted(counts.items())}


def walk_term_at_cutoff(
    lam, i: int, c: float, n: int, precision_bits: int = DEFAULT_PRECISION_BITS
) -> tuple[mpmath.mpf, mpmath.mpf]:
    """(term, limit): the single-shape walk term dim * ratio^steps at the
    cutoff, steps = cutoff_steps(n, i, c), and its limit.

    For a shape whose first part is n - t, the term approaches
    exp(-i*t*c) times the dimension of the shape below the first row,
    divided by t factorial.
    """
    lam = Partition(lam)
    if lam.n != n:
        raise SizeMismatchError(f"|{lam!r}| = {lam.n}, expected {n}")
    t = n - lam[0] if lam else 0
    k = cutoff_steps(n, i, c)
    ratio = char_ratio_icycle(lam, i)
    with mp.workprec(precision_bits + 40):
        term = mpmath.mpf(dim(lam)) * _ratio_power(ratio, k)
        bar = lam.first_row_removed()
        limit = (
            mpmath.exp(-i * t * mpmath.mpf(c))
            * dim(bar)
            / mpmath.factorial(t)
        )
    with mp.workprec(precision_bits):
        return +term, +limit


def _report(
    model: str, params: dict, values: list, mean, precision_bits: int = DEFAULT_PRECISION_BITS
) -> dict:
    """The body `permfix moments` prints for the moments values[1:].

    Each row holds the rth moment, that of a Poisson law with the given
    mean and their difference, the last two computed at precision_bits,
    so they are exact whenever the moments are. The rows keep their keys
    in this order, since the CSV header is read off the first row.
    """
    table = []
    with mp.workprec(precision_bits):
        references = laws.moments([mean ** a for a in range(len(values))], len(values) - 1)
        for r, moment in enumerate(values[1:], start=1):
            reference = +references[r]
            table.append({"r": r, "moment": moment, "poisson_reference": reference,
                          "difference": moment - reference})
    return {"model": model, "params": params, "table": table}


def commutator_random_report(n: int, r_max: int) -> dict:
    values = commutator_random_moments(n, r_max)
    return _report("commutator_both_random", {"n": n}, values, 1)


def commutator_fixed_report(n: int, x, r_max: int) -> dict:
    x = CycleType(x)
    values = commutator_fixed_moments(n, x, r_max)
    # x by its cycle counts {length: count}: a class of n fixed points is
    # one entry, not n.
    return _report("commutator_fixed_x", {"n": n, "x": x.multiplicities()}, values, 1)


def icycle_walk_report(
    n: int,
    i: int,
    k: int,
    r_max: int,
    c: float | None = None,
    precision_bits: int = DEFAULT_PRECISION_BITS,
) -> dict:
    """Walk moments with the Poisson reference implied by the step count.

    If c is not supplied it is recovered from k by inverting the cutoff
    relation, so a reference mean is always available.
    """
    values = icycle_walk_moments(n, i, k, r_max, precision_bits)
    if c is None:
        c = cutoff_offset(n, i, k)
    mean = walk_poisson_mean(i, c, precision_bits)
    return _report("icycle_walk", {"n": n, "i": i, "k": k, "c": c}, values, mean, precision_bits)

