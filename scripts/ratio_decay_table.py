#!/usr/bin/env python3
"""Tabulate the scaled deviation of i-cycle character ratios from 1 - i*t/n.

For shapes with first part n - t the normalized character on an i-cycle
behaves like 1 - i*t/n up to a second-order term; this prints
|ratio - (1 - i*t/n)| * n^2, maximized over shapes, on a doubling grid,
so the implied constants can be read off empirically.
"""
import argparse

from permfix import verify_ratio_asymptotics


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--i", type=int, nargs="+", default=[2, 3, 5])
    parser.add_argument("--t", type=int, nargs="+", default=[1, 2, 3])
    parser.add_argument(
        "--n", type=int, nargs="+", default=[200, 400, 800, 1600, 3200]
    )
    args = parser.parse_args()

    header = ["i", "t"] + [f"n={n}" for n in args.n]
    print("  ".join(f"{h:>12}" for h in header))
    for i in args.i:
        for t in args.t:
            errors = verify_ratio_asymptotics(i, t, args.n)
            cells = [f"{float(error):>12.6f}" for error in errors]
            print(f"{i:>12}  {t:>12}  " + "  ".join(cells))


if __name__ == "__main__":
    main()
