"""Every bound on work or input, stated once with the measurement behind it.

The oracles' limits (n <= 6, 7, 8) stay with the oracles, and simulate's
chunk sizes, part of its stream version, with the sampler. Timings are of
subprocesses at --threads 1 on a 2-core Xeon VM.
"""
from __future__ import annotations

from itertools import islice
from typing import Iterator

from .errors import ValidationError
from .partitions import large_first_row_tuples

# Below a double's 53 bits, mpmath would still compute, and print wrong
# digits: at -5 bits a walk moment of 8 comes out as 4.
MIN_PRECISION_BITS = 53

# At this cap moments walk --n 10 --i 2 --c 0, and the same at --n 2000
# --r-max 3, take 0.9 s (4.6 s at 65536 bits); the slowest case tried,
# --n 2000 --r-max 10, takes 8 s (0.4 s at 128 bits).
MAX_PRECISION_BITS = 16384

# The highest moment order computed (simulate's exact references go to
# twice its --r-max). Every Stirling row up to it is cached, which grows as
# about r^3 log r bits whatever n is (order 800 took 139 MB at n = 5).
MAX_ORDER = 128

# The engine visits every shape with at most min(r_max, n) cells under the
# first row. The cap admits all 37338 partitions of 40 and, at large n,
# r_max <= 31 (35471 shapes). There (medians of 5 runs), moments walk
# --n 2000 --i 2 --c 0 takes 2.2 s and 46 MB at 128 bits, commutator-fixed
# --n 1000 --x 2^500 1.2 s and 42 MB and --n 100 --x 5^4,4^5,3^6,2^10,1^22
# 3.2 s and 46 MB, the slowest cases tried.
MAX_ENGINE_SHAPES = 40000

# A --lambda shape's cost grows with its cells below the first row, which
# bound its rows: ratio sums Frobenius's terms over pairs of rows, and mult
# takes the shape's dim and Aitken's row terms. At this many, (10^6, 1^5000)
# and the staircase of 99 rows under 10^6 take 0.11 to 0.17 s for ratio and
# mult alike; at ten times the cells, ratio takes 3.4 s on (10^6, 1^50000).
MAX_CELLS_BELOW_FIRST_ROW = 5000

# mult reaches skew shapes lam/(n - a) of a <= min(r, n) cells, and its
# up/down route grows every shape of up to that many cells from the row
# n - a. At 30, the slowest case tried (--alg all, lam = (10^6, 7, 6, ...,
# 1)) takes 2.1 s, 1.7 s of it in the up/down route (3.0 s on a loaded host).
MAX_MULT_SKEW_CELLS = 30

# mult reads S(r, a) for a <= 30 only (MAX_MULT_SKEW_CELLS), so its cost
# barely grows with r, but m(lam, r) <= 1^r + ... + 30^r has up to about
# 1.48 r digits: at this r it prints within Python's default limit of 4300
# digits for an int.
MAX_MULT_R = 2000

# dist walk prints each probability and the mean as exact fractions. Their
# denominators divide L^k * lcm(z_mu), where L is the lcm of the reduced
# denominators of the i-cycle character ratios and z_mu runs over the
# centralizer orders; at n <= MAX_DIST_N, L is at most 2880 (n = 8, i = 7)
# and lcm(z_mu) divides 8! = 40320. A numerator is at most 8 times its
# denominator, so a printed int has at most 3.46 k + 6 digits, within
# Python's default limit of 4300 digits up to k = 1240: at this k,
# --n 8 --i 7 prints 4148 digits in about 0.2 s.
MAX_DIST_K = 1200

# The engine gives the walk's law at any n its shapes fit, but the digit
# bound above is derived only for n <= 8, so this bound guards the printed
# digits: at n = 12 the i-cycle class has up to 11! elements, and k = 1200
# could not print. A wider n needs a digit bound in (n, i, k).
MAX_DIST_N = 8

# A parsed partition or class holds one int per part, however few "^" runs
# name them: --x 1^1000000000 died with MemoryError. At this bound, moments
# commutator-fixed --n 8388608 --x 1^8388608 --r-max 1 takes 1.8 s and 277 MB.
MAX_PARTS = 1 << 23

# --samples is parsed as a double, which past 2^53 cannot tell a whole count
# from its neighbours (2^53 + 1 reads as 2^53), so the check that it is
# whole means nothing there.
MAX_SAMPLES = 1 << 53

# The commutator and the walk hold rows of n points, so their memory grows
# with n: at this n a pool thread needs about 190 MB for a commutator chunk
# and 100 MB for a walk chunk. The uniform kernel holds no rows.
MAX_ROW_POINTS = 1 << 22


def engine_shapes(n: int, below: int, request: str) -> Iterator[tuple]:
    """The shapes of n with at most below cells under the first row, or, past
    MAX_ENGINE_SHAPES, ValidationError naming the request. The shapes are
    counted, none held, then enumerated afresh for the caller to read."""
    if next(islice(large_first_row_tuples(n, below), MAX_ENGINE_SHAPES, None), None) is not None:
        raise ValidationError(f"{request} more than the {MAX_ENGINE_SHAPES} shapes accepted")
    return large_first_row_tuples(n, below)


def check_order(r_max: int) -> None:
    if r_max > MAX_ORDER:
        raise ValidationError(f"moments to order {r_max} are above the {MAX_ORDER} accepted")


def check_row_points(model: str, n: int) -> None:
    """Reject, before anything is allocated, an n whose rows the model cannot hold."""
    if model != "uniform" and n > MAX_ROW_POINTS:
        raise ValidationError(f"the {model} model holds rows of n points; "
                              f"need n <= {MAX_ROW_POINTS}, got n = {n}")
