"""Command-line surface.

Subcommands: mult, moments, simulate, verify, ratio, dist. Every report
is a versioned JSON document on stdout (or CSV of its tabular section
with --format csv); diagnostics go to stderr.

Exit codes: 0 success, 2 validation error, 3 gate failure, 4 internal
cross-check disagreement.

Partition and cycle-type grammar: comma-separated parts with optional
"^" multiplicity, so "2^3,1" means (2,2,2,1). Whitespace is ignored.
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys

from . import moments, reports, simulate
from .characters import CycleType, char_ratio_icycle
from .errors import CrossCheckError, SizeMismatchError, ValidationError
from .multiplicity import mult_large_first_row, mult_oracle, mult_skew, mult_updown
from .partitions import Partition
from .simulate import (
    enumerate_commutator_distribution,
    exact_moment,
    fixed_point_histogram,
    moment_z_score,
    tv_to_poisson,
)
from .verify import run_suite

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_GATE_FAILURE = 3
EXIT_CROSS_CHECK = 4

# Below a double's 53 bits, mpmath would still compute, and print wrong
# digits: at -5 bits a walk moment of 8 comes out as 4.
MIN_PRECISION_BITS = 53


# A --lambda shape's cost grows with its cells below the first row: ratio
# takes a dimension per strip removal, and a dimension costs about the
# square of those cells. At this many, the slowest shape tried (a staircase
# of 99 rows below a first row of 10^6) takes about 2 s for ratio.
MAX_CELLS_BELOW_FIRST_ROW = 5000


def parse_parts(
    text: str, size: int | None = None, max_below_first_row: int | None = None
) -> tuple[int, ...]:
    """Parse "4,1" or "2^3,1" into a sorted tuple of parts.

    With size given, parts that do not sum to size are rejected before any
    multiplicity is expanded, so "2^30000000" costs no more than "2". With
    max_below_first_row given, so are parts with more cells than that
    outside the largest part.
    """
    runs: list[tuple[int, int]] = []
    cleaned = text.replace(" ", "").replace("\t", "")
    if not cleaned:
        raise ValidationError("empty partition string")
    for token in cleaned.split(","):
        if not token:
            raise ValidationError(f"empty component in {text!r}")
        base, caret, count = token.partition("^")
        try:
            value, repeat = int(base), int(count) if caret else 1
        except ValueError as exc:
            raise ValidationError(f"cannot parse {token!r}") from exc
        if value <= 0 or repeat <= 0:
            raise ValidationError(f"parts and multiplicities must be positive: {token!r}")
        runs.append((value, repeat))
    total = sum(value * repeat for value, repeat in runs)
    if size is not None and total != size:
        raise SizeMismatchError(f"cycle type {text!r} has size {total}, expected {size}")
    below = total - max(value for value, _ in runs)
    if max_below_first_row is not None and below > max_below_first_row:
        raise ValidationError(
            f"partition {text!r} has {below} cells below its first row, "
            f"more than the {max_below_first_row} accepted"
        )
    parts = [value for value, repeat in runs for _ in range(repeat)]
    return tuple(sorted(parts, reverse=True))


def _common_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--format", choices=("json", "csv"), default="json")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--precision", type=int, default=128, help=f"bits, at least {MIN_PRECISION_BITS}"
    )
    parser.add_argument(
        "--threads", type=int, default=None, help="default: PERMFIX_THREADS or the core count"
    )


def _default_threads() -> int:
    text = os.environ.get("PERMFIX_THREADS")
    if text is None:
        return os.cpu_count() or 1
    try:
        return int(text)
    except ValueError:
        raise ValidationError(f"PERMFIX_THREADS must be an integer, got {text!r}") from None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="permfix", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("mult", help="tensor-power multiplicities")
    p.add_argument("--lambda", dest="lam", required=True, metavar="PARTS")
    p.add_argument("--r", type=int, required=True)
    p.add_argument(
        "--alg",
        choices=("skew", "updown", "first-row", "oracle", "all"),
        default="skew",
    )
    _common_flags(p)

    p = sub.add_parser("moments", help="exact moment engines")
    model_sub = p.add_subparsers(dest="model", required=True)
    q = model_sub.add_parser("commutator-random")
    q.add_argument("--n", type=int, required=True)
    q.add_argument("--r-max", type=int, default=3)
    _common_flags(q)
    q = model_sub.add_parser("commutator-fixed")
    q.add_argument("--n", type=int, required=True)
    q.add_argument("--x", required=True, metavar="CYCLETYPE")
    q.add_argument("--r-max", type=int, default=3)
    _common_flags(q)
    q = model_sub.add_parser("walk")
    q.add_argument("--n", type=int, required=True)
    q.add_argument("--i", type=int, required=True)
    q.add_argument("--c", type=float, default=None)
    q.add_argument("--k", type=int, default=None)
    q.add_argument("--r-max", type=int, default=3)
    _common_flags(q)

    p = sub.add_parser("simulate", help="seeded Monte Carlo with exact references")
    p.add_argument("--model", choices=("uniform", "commutator", "walk"), required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--i", type=int, default=None)
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--x", default=None, metavar="CYCLETYPE")
    p.add_argument("--samples", type=float, default=1e6)
    p.add_argument("--r-max", type=int, default=2)
    _common_flags(p)

    p = sub.add_parser("verify", help="run self-check gate suites")
    p.add_argument(
        "--suite", choices=("identities", "oracles", "asymptotics", "all"), default="all"
    )
    _common_flags(p)

    p = sub.add_parser("ratio", help="character ratio on an i-cycle")
    p.add_argument("--lambda", dest="lam", required=True, metavar="PARTS")
    p.add_argument("--i", type=int, required=True)
    _common_flags(p)

    p = sub.add_parser("dist", help="exact small-n distributions")
    dist_sub = p.add_subparsers(dest="dist_model", required=True)
    q = dist_sub.add_parser("walk")
    q.add_argument("--n", type=int, required=True)
    q.add_argument("--i", type=int, required=True)
    q.add_argument("--k", type=int, required=True)
    _common_flags(q)
    q = dist_sub.add_parser("commutator")
    q.add_argument("--n", type=int, required=True)
    q.add_argument("--x", default=None, metavar="CYCLETYPE")
    _common_flags(q)

    return parser


def _resolved_config(args: argparse.Namespace) -> dict:
    # --threads never changes a result, and its default is the core count,
    # so echoing it would make the same report differ between machines.
    skip = {"command", "model", "dist_model", "threads"}
    return {k: v for k, v in sorted(vars(args).items()) if k not in skip and v is not None}


def _emit(args, command: str, body: dict) -> None:
    rep = reports.build_report(
        command, _resolved_config(args), body, precision_bits=args.precision
    )
    if args.format == "csv":
        sys.stdout.write(reports.to_csv(rep))
    else:
        sys.stdout.write(reports.to_json(rep) + "\n")


_MULT_ALGORITHMS = {
    "skew": mult_skew,
    "updown": mult_updown,
    "first-row": mult_large_first_row,
    "oracle": mult_oracle,
}


def cmd_mult(args) -> int:
    lam = Partition(parse_parts(args.lam, max_below_first_row=MAX_CELLS_BELOW_FIRST_ROW))
    if args.r < 0:
        raise ValidationError("r must be nonnegative")
    if args.alg == "all":
        values = {"skew": mult_skew(lam, args.r), "updown": mult_updown(lam, args.r)}
        second = lam[1] if len(lam) > 1 else 0
        if 1 <= args.r <= lam.n - second:
            values["first-row"] = mult_large_first_row(lam, args.r)
        if lam.n <= 7:
            values["oracle"] = mult_oracle(lam, args.r)
        if len(set(values.values())) != 1:
            raise CrossCheckError(f"algorithms disagree: {values}")
        body = {"multiplicity": values["skew"], "by_algorithm": values, "agree": True}
    else:
        body = {"multiplicity": _MULT_ALGORITHMS[args.alg](lam, args.r)}
    _emit(args, "mult", body)
    return EXIT_OK


def cmd_moments(args) -> int:
    if args.model == "commutator-random":
        report = moments.commutator_random_report(args.n, args.r_max)
    elif args.model == "commutator-fixed":
        x = CycleType(parse_parts(args.x, args.n))
        report = moments.commutator_fixed_report(args.n, x, args.r_max)
    else:
        if (args.k is None) == (args.c is None):
            raise ValidationError("walk needs exactly one of --k and --c")
        k = args.k if args.k is not None else moments.cutoff_steps(args.n, args.i, args.c)
        report = moments.icycle_walk_report(
            args.n, args.i, k, args.r_max, c=args.c, precision_bits=args.precision
        )
    rows = zip(report.moments, report.reference, report.difference)
    body = {
        "model": report.model,
        "params": report.params,
        "table": [
            {"r": r, "moment": m, "poisson_reference": ref, "difference": diff}
            for r, (m, ref, diff) in enumerate(rows, start=1)
        ],
    }
    _emit(args, "moments", body)
    return EXIT_OK


def cmd_simulate(args) -> int:
    if not math.isfinite(args.samples):
        raise ValidationError(f"--samples must be finite, got {args.samples}")
    samples = int(args.samples)
    args.samples = samples
    x = CycleType(parse_parts(args.x, args.n)) if args.x else None
    dist = fixed_point_histogram(
        args.model,
        args.n,
        samples,
        args.seed,
        i=args.i,
        k=args.k,
        x=x,
        threads=args.threads,
    )
    exact = _exact_moments_for(args, x)
    table = [
        {
            "r": r,
            "empirical_moment": dist.moment(r),
            "exact_moment": exact[r],
            "z": moment_z_score(dist, r, exact[r], exact[2 * r]),
        }
        for r in range(1, args.r_max + 1)
    ]
    if args.model == "walk":
        offset = moments.cutoff_offset(args.n, args.i, args.k)
        mean = float(moments.walk_poisson_mean(args.i, offset, precision_bits=53))
    else:
        mean = 1.0
    body = {
        "model": args.model,
        "histogram": {str(j): c for j, c in dist.histogram.items()},
        "samples": dist.samples,
        "stream_version": dist.stream_version,
        "table": table,
        "poisson_reference_mean": mean,
        "tv_to_poisson_reference": tv_to_poisson(dist, mean),
    }
    _emit(args, "simulate", body)
    return EXIT_OK


def _exact_moments_for(args, x) -> list:
    """Exact moments r = 0..2*r_max of the simulated model."""
    r_max = 2 * args.r_max
    if args.model == "uniform":
        dist = simulate.uniform_fixed_distribution_exact(args.n)
        return [exact_moment(dist, r) for r in range(r_max + 1)]
    if args.model == "commutator":
        if x is None:
            return moments.commutator_random_moments(args.n, r_max)
        return moments.commutator_fixed_moments(args.n, x, r_max)
    return moments.icycle_walk_moments(args.n, args.i, args.k, r_max, args.precision)


def cmd_verify(args) -> int:
    results = run_suite(args.suite)
    failed = [g for g in results if not g.passed]
    for g in results:
        line = reports.encode(dataclasses.asdict(g), args.precision)
        sys.stdout.write(json.dumps(line, sort_keys=True) + "\n")
    sys.stderr.write(f"verify: {len(results) - len(failed)}/{len(results)} gates passed\n")
    if failed:
        sys.stderr.write(f"failing gates: {', '.join(g.gate for g in failed)}\n")
        return EXIT_GATE_FAILURE
    return EXIT_OK


def cmd_ratio(args) -> int:
    lam = Partition(parse_parts(args.lam, max_below_first_row=MAX_CELLS_BELOW_FIRST_ROW))
    value = char_ratio_icycle(lam, args.i)
    body = {"shape": list(lam), "i": args.i, "ratio": value, "ratio_float": float(value)}
    _emit(args, "ratio", body)
    return EXIT_OK


def cmd_dist(args) -> int:
    if args.dist_model == "walk":
        dist = moments.walk_exact_distribution(args.n, args.i, args.k)
        params = {"n": args.n, "i": args.i, "k": args.k}
    else:
        x = CycleType(parse_parts(args.x, args.n)) if args.x else None
        dist = enumerate_commutator_distribution(args.n, x)
        params = {"n": args.n, "x": list(x) if x else None}
    table = [
        {"fixed_points": j, "probability": p} for j, p in sorted(dist.items())
    ]
    body = {
        "params": params,
        "table": table,
        "mean": exact_moment(dist, 1),
        "total": sum(dist.values()),
    }
    _emit(args, "dist", body)
    return EXIT_OK


_COMMANDS = {
    "mult": cmd_mult,
    "moments": cmd_moments,
    "simulate": cmd_simulate,
    "verify": cmd_verify,
    "ratio": cmd_ratio,
    "dist": cmd_dist,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if getattr(args, "r_max", 0) < 0:
            raise ValidationError(f"--r-max must be nonnegative, got {args.r_max}")
        if args.precision < MIN_PRECISION_BITS:
            raise ValidationError(
                f"--precision must be at least {MIN_PRECISION_BITS} bits, got {args.precision}"
            )
        if args.threads is None:
            args.threads = _default_threads()
        return _COMMANDS[args.command](args)
    except ValidationError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_VALIDATION
    except CrossCheckError as exc:
        sys.stderr.write(f"cross-check failure: {exc}\n")
        return EXIT_CROSS_CHECK
    except ValueError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
