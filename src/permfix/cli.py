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
import json
import os
import sys
from fractions import Fraction
from functools import cache

from . import laws, limits, moments, reports
from .characters import CycleType, char_ratio_icycle
from .errors import CrossCheckError, SizeMismatchError, ValidationError
from .multiplicity import ROUTES as MULT_ROUTES, mult_by_route
from .partitions import Partition
from .verify import SUITES, run_suite

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_GATE_FAILURE = 3
EXIT_CROSS_CHECK = 4

# The options simulate reads for each model, besides those every model reads.
_SIMULATE_OPTIONS = {"uniform": (), "commutator": ("x",), "walk": ("i", "k", "precision")}


def parse_parts(
    text: str, size: int | None = None, max_below_first_row: int | None = None
) -> tuple[int, ...]:
    """Parse "4,1" or "2^3,1" into a sorted tuple of parts.

    With size given, parts that do not sum to size are rejected before any
    multiplicity is expanded, so "2^30000000" costs no more than "2". With
    max_below_first_row given, so are parts with more cells than that
    outside the largest part, and always more than limits.MAX_PARTS parts.
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
    count = sum(repeat for _, repeat in runs)
    if count > limits.MAX_PARTS:
        raise ValidationError(f"{text!r} has {count} parts, "
                              f"more than the {limits.MAX_PARTS} accepted")
    return tuple(value for value, repeat in sorted(runs, reverse=True) for _ in range(repeat))


def _leaf(sub, name: str, *flags: str, **kwargs) -> argparse.ArgumentParser:
    """A command leaf with those of --format, --seed and --precision that it
    reads, and --threads, which only simulate reads but every leaf takes."""
    p = sub.add_parser(name, **kwargs)
    if "format" in flags:
        p.add_argument("--format", choices=("json", "csv"), default="json")
    if "seed" in flags:
        p.add_argument("--seed", type=int, default=0)
    if "precision" in flags:
        p.add_argument("--precision", type=int, default=moments.DEFAULT_PRECISION_BITS,
                       help=f"bits, {limits.MIN_PRECISION_BITS}..{limits.MAX_PRECISION_BITS}")
    p.add_argument("--threads", type=int, default=os.cpu_count() or 1, help="default: core count")
    return p


@cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="permfix", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = _leaf(sub, "mult", "format", help="tensor-power multiplicities")
    p.add_argument("--lambda", dest="lam", required=True, metavar="PARTS")
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--alg", choices=(*MULT_ROUTES, "all"), default="skew")

    p = sub.add_parser("moments", help="exact moment engines")
    model_sub = p.add_subparsers(dest="model", required=True)
    q = _leaf(model_sub, "commutator-random", "format")
    q.add_argument("--n", type=int, required=True)
    q.add_argument("--r-max", type=int, default=3)
    q = _leaf(model_sub, "commutator-fixed", "format")
    q.add_argument("--n", type=int, required=True)
    q.add_argument("--x", required=True, metavar="CYCLETYPE")
    q.add_argument("--r-max", type=int, default=3)
    q = _leaf(model_sub, "walk", "format", "precision")
    q.add_argument("--n", type=int, required=True)
    q.add_argument("--i", type=int, required=True)
    q.add_argument("--c", type=float, default=None)
    q.add_argument("--k", type=int, default=None)
    q.add_argument("--r-max", type=int, default=3)

    p = _leaf(sub, "simulate", "format", "seed", "precision",
              help="seeded Monte Carlo with exact references")
    p.set_defaults(precision=None)  # cmd_simulate sets the walk's default
    p.add_argument("--model", choices=tuple(_SIMULATE_OPTIONS), required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--i", type=int, default=None, help="walk only")
    p.add_argument("--k", type=int, default=None, help="walk only")
    p.add_argument("--x", default=None, metavar="CYCLETYPE", help="commutator only")
    p.add_argument("--samples", type=float, default=1e6)
    p.add_argument("--r-max", type=int, default=2)

    p = _leaf(sub, "verify", help="run self-check gate suites")
    p.add_argument("--suite", choices=(*SUITES, "all"), default="all")

    p = _leaf(sub, "ratio", "format", help="character ratio on an i-cycle")
    p.add_argument("--lambda", dest="lam", required=True, metavar="PARTS")
    p.add_argument("--i", type=int, required=True)

    p = sub.add_parser("dist", help="exact fixed-point laws from the factorial moments")
    dist_sub = p.add_subparsers(dest="dist_model", required=True)
    q = _leaf(dist_sub, "walk", "format")
    q.add_argument("--n", type=int, required=True)
    q.add_argument("--i", type=int, required=True)
    q.add_argument("--k", type=int, required=True)
    q = _leaf(dist_sub, "commutator", "format")
    q.add_argument("--n", type=int, required=True)
    q.add_argument("--x", default=None, metavar="CYCLETYPE")

    return parser


def _resolved_config(args: argparse.Namespace) -> dict:
    # --threads never changes a result, and its default is the core count,
    # so echoing it would make the same report differ between machines.
    skip = {"command", "model", "dist_model", "threads"}
    return {k: v for k, v in sorted(vars(args).items()) if k not in skip and v is not None}


def _emit(args, command: str, body: dict) -> None:
    precision = getattr(args, "precision", None) or moments.DEFAULT_PRECISION_BITS
    rep = reports.build_report(command, _resolved_config(args), body, precision)
    if args.format == "csv":
        sys.stdout.write(reports.to_csv(rep))
    else:
        sys.stdout.write(reports.to_json(rep) + "\n")


def cmd_mult(args) -> int:
    lam = Partition(parse_parts(args.lam, max_below_first_row=limits.MAX_CELLS_BELOW_FIRST_ROW))
    if args.r < 0:
        raise ValidationError("r must be nonnegative")
    if min(args.r, lam.n) > limits.MAX_MULT_SKEW_CELLS:
        raise ValidationError(
            f"--r reaches more than the {limits.MAX_MULT_SKEW_CELLS} cells accepted")
    if args.r > limits.MAX_MULT_R:
        raise ValidationError(f"--r must be at most {limits.MAX_MULT_R}, got {args.r}")
    if args.alg == "all":
        values = mult_by_route(lam, args.r)
        if len(set(values.values())) != 1:
            raise CrossCheckError(f"algorithms disagree: {values}")
        body = {"multiplicity": values["skew"], "by_algorithm": values, "agree": True}
    else:
        body = {"multiplicity": MULT_ROUTES[args.alg](lam, args.r)}
    _emit(args, "mult", body)
    return EXIT_OK


def cmd_moments(args) -> int:
    if args.model == "commutator-random":
        body = moments.commutator_random_report(args.n, args.r_max)
    elif args.model == "commutator-fixed":
        x = CycleType(parse_parts(args.x, args.n))
        body = moments.commutator_fixed_report(args.n, x, args.r_max)
    else:
        if (args.k is None) == (args.c is None):
            raise ValidationError("walk needs exactly one of --k and --c")
        k = args.k if args.k is not None else moments.cutoff_steps(args.n, args.i, args.c)
        body = moments.icycle_walk_report(
            args.n, args.i, k, args.r_max, c=args.c, precision_bits=args.precision
        )
    _emit(args, "moments", body)
    return EXIT_OK


def cmd_simulate(args) -> int:
    # Checked here, not by the sampler, since the exact references come first.
    if not (args.samples.is_integer() and args.samples >= 1):
        raise ValidationError(f"--samples must be finite, whole and at least 1, "
                              f"got {args.samples}")
    if args.samples > limits.MAX_SAMPLES:
        raise ValidationError(
            f"--samples must be at most 2^53 = {limits.MAX_SAMPLES}, got {args.samples}")
    args.samples = samples = int(args.samples)
    if args.seed < 0:
        raise ValidationError(f"--seed must be nonnegative, got {args.seed}")
    unread = [f"--{name}" for name in ("x", "i", "k", "precision")
              if getattr(args, name) is not None and name not in _SIMULATE_OPTIONS[args.model]]
    if unread:
        raise ValidationError(f"--model {args.model} does not read {', '.join(unread)}")
    if args.model == "walk":  # the one model whose exact references read --precision
        args.precision = args.precision or moments.DEFAULT_PRECISION_BITS
    limits.check_row_points(args.model, args.n)
    x = CycleType(parse_parts(args.x, args.n)) if args.x is not None else None
    # The exact references come first: a bound they break exits 2 before any
    # sampling, and before numpy is imported with the sampler.
    exact = _exact_moments_for(args, x)
    from .simulate import fixed_point_histogram

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
    law = {j: Fraction(c, samples) for j, c in dist.histogram.items()}
    table = [
        {
            "r": r,
            "empirical_moment": laws.moment(law, r),
            "exact_moment": exact[r],
            "z": laws.moment_z_score(law, samples, r, exact[r], exact[2 * r]),
        }
        for r in range(1, args.r_max + 1)
    ]
    if args.model == "walk":
        offset = moments.cutoff_offset(args.n, args.i, args.k)
        mean = float(moments.walk_poisson_mean(args.i, offset))
    else:
        mean = 1.0
    body = {
        "model": args.model,
        "histogram": {str(j): c for j, c in dist.histogram.items()},
        "samples": dist.samples,
        "stream_version": dist.stream_version,
        "table": table,
        "poisson_reference_mean": mean,
        "tv_to_poisson_reference": laws.tv_to_poisson(law, mean),
    }
    _emit(args, "simulate", body)
    return EXIT_OK


def _exact_moments_for(args, x) -> list:
    """Exact moments r = 0..2*r_max of the simulated model."""
    r_max = 2 * args.r_max
    if args.model == "uniform":
        return moments.uniform_moments(args.n, r_max)
    if args.model == "commutator":
        if x is None:
            return moments.commutator_random_moments(args.n, r_max)
        return moments.commutator_fixed_moments(args.n, x, r_max)
    return moments.icycle_walk_moments(args.n, args.i, args.k, r_max, args.precision)


def cmd_verify(args) -> int:
    results = run_suite(args.suite)
    failed = [g for g in results if not g.passed]
    for g in results:
        line = reports.encode(g)
        sys.stdout.write(json.dumps(line, sort_keys=True) + "\n")
    sys.stderr.write(f"verify: {len(results) - len(failed)}/{len(results)} gates passed\n")
    if failed:
        sys.stderr.write(f"failing gates: {', '.join(g.gate for g in failed)}\n")
        return EXIT_GATE_FAILURE
    return EXIT_OK


def cmd_ratio(args) -> int:
    lam = Partition(parse_parts(args.lam, max_below_first_row=limits.MAX_CELLS_BELOW_FIRST_ROW))
    value = char_ratio_icycle(lam, args.i)
    body = {"shape": list(lam), "i": args.i, "ratio": value, "ratio_float": float(value)}
    _emit(args, "ratio", body)
    return EXIT_OK


def cmd_dist(args) -> int:
    if args.dist_model == "walk":
        if args.n > limits.MAX_DIST_N:
            raise ValidationError(f"--n must be at most {limits.MAX_DIST_N}, got {args.n}")
        if args.k > limits.MAX_DIST_K:
            raise ValidationError(f"--k must be at most {limits.MAX_DIST_K}, got {args.k}")
        dist = moments.icycle_walk_distribution(args.n, args.i, args.k)
        params = {"n": args.n, "i": args.i, "k": args.k}
    else:
        x = CycleType(parse_parts(args.x, args.n)) if args.x is not None else None
        dist = moments.commutator_distribution(args.n, x)
        params = {"n": args.n, "x": list(x) if x else None}
    table = [
        {"fixed_points": j, "probability": p} for j, p in sorted(dist.items())
    ]
    body = {
        "params": params,
        "table": table,
        "mean": laws.moment(dist, 1),
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
        r_max = getattr(args, "r_max", 0)
        if r_max < 0:
            raise ValidationError(f"--r-max must be nonnegative, got {r_max}")
        precision = getattr(args, "precision", None)
        low, high = limits.MIN_PRECISION_BITS, limits.MAX_PRECISION_BITS
        if precision is not None and not low <= precision <= high:
            raise ValidationError(
                f"--precision must be at least {low} bits and at most {high}, got {precision}")
        return _COMMANDS[args.command](args)
    except CrossCheckError as exc:
        sys.stderr.write(f"cross-check failure: {exc}\n")
        return EXIT_CROSS_CHECK
    except ValueError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
