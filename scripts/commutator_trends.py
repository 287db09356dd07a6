#!/usr/bin/env python3
"""Convergence of commutator fixed-point moments toward their limits.

Three monitored sequences:

* both factors random: the gap to the Bell number, scaled by n;
* one factor of cycle type (k^(n/k)), k in {3, 4}: the raw gap to the
  Bell number along n divisible by k;
* one factor of cycle type (2^(n/2)): the gap to the doubled half-mean
  Poisson moment 2^r * sum_a S(r,a) / 2^a along even n.
"""
import argparse
from fractions import Fraction

from permfix import bell, poisson_moment
from permfix.moments import commutator_fixed_moments, commutator_random_moments


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--r", type=int, default=2)
    parser.add_argument("--n-max", type=int, default=36)
    args = parser.parse_args()
    r = args.r

    print(f"both-random, r={r}: n * (moment - Bell)")
    for n in range(max(r, 4), args.n_max + 1, 4):
        gap = commutator_random_moments(n, r)[r] - bell(r)
        print(f"  n={n:>3}  {float(gap * n):.6f}")

    for k in (3, 4):
        print(f"fixed x of type ({k}^(n/{k})), r={r}: moment - Bell")
        n = k * max(2, (max(r, 4) + k - 1) // k)
        while n <= args.n_max:
            x = (k,) * (n // k)
            gap = commutator_fixed_moments(n, x, r)[r] - bell(r)
            print(f"  n={n:>3}  {float(gap):.6f}")
            n += k

    target = 2 ** r * poisson_moment(r, Fraction(1, 2))
    print(f"fixed x of type (2^(n/2)), r={r}: moment - {float(target):g}")
    for n in range(max(r, 4) + max(r, 4) % 2, args.n_max + 1, 2):
        x = (2,) * (n // 2)
        gap = commutator_fixed_moments(n, x, r)[r] - target
        print(f"  n={n:>3}  {float(gap):+.6f}")


if __name__ == "__main__":
    main()
