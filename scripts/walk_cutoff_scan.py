#!/usr/bin/env python3
"""Walk moments at the cutoff step count against their Poisson targets.

After n*log(n)/i + c*n random i-cycles the fixed-point law approaches a
Poisson law with mean 1 + exp(-i*c). This prints exact-engine moments,
the Poisson reference, and their gap over a grid of n, so the finite-n
convergence can be inspected directly.
"""
import argparse

from permfix import walk_cutoff_comparison


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--i", type=int, default=2)
    parser.add_argument("--c", type=float, nargs="+", default=[-0.5, 0.0, 1.0])
    parser.add_argument("--n", type=int, nargs="+", default=[250, 500, 1000, 2000])
    parser.add_argument("--r-max", type=int, default=3)
    args = parser.parse_args()

    print(f"{'c':>6} {'n':>6} {'steps':>7} {'r':>3} {'moment':>14} {'poisson':>14} {'gap':>12}")
    for c in args.c:
        for n in args.n:
            report = walk_cutoff_comparison(n, args.i, c, args.r_max)
            rows = zip(report.moments, report.reference, report.difference)
            for r, (moment, reference, difference) in enumerate(rows, start=1):
                print(
                    f"{c:>6.2f} {n:>6} {report.params['k']:>7} {r:>3} "
                    f"{float(moment):>14.6f} {float(reference):>14.6f} "
                    f"{float(difference):>12.2e}"
                )


if __name__ == "__main__":
    main()
