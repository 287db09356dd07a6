"""Traced replay of one workload, layer by layer, from the bottom up.

Usage: python3 perfbench/trace.py WORKLOAD SEED T0  (T0 is accepted for symmetry with round.py)

A fresh interpreter turns every operation of the workload into the calls
that each module of permfix receives and times each module's calls as
one span, lowest module first: shape enumeration and dim, skew counts,
characters and i-cycle ratios, multiplicities, the moment engines, the
samplers, verify, report encoding and finally the CLI. When a module's
span runs, the memo tables of the modules below it are warm, so the span
approximates the module's self time. Work that no module memoizes is
repeated inside the higher spans (the engines re-enumerate shapes and
re-sum multiplicities), which shows as part of the trace overhead.

The CLI span is main(argv) minus the same public calls made directly
just before it, so it holds only argument parsing, report assembly and
printing. The replay calls public functions only and patches nothing.
It prints one JSON object: the metrics, their units and each
operation's (exit code, stdout, error) from the CLI span, which the
parent checks like a round's.
"""
from __future__ import annotations

import io
import json
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from statistics import median

from probe import probe

ROOT = Path(__file__).resolve().parent.parent
MODELS = ("walk", "commutator", "uniform")


def _strip_removals(lam: tuple, size: int) -> list[tuple]:
    """Shapes left by removing one border strip of the given size (beta-set rule)."""
    length = len(lam)
    beta = [lam[j] + length - 1 - j for j in range(length)]
    out = []
    for b in beta:
        lowered = b - size
        if lowered >= 0 and lowered not in beta:
            new = sorted([v for v in beta if v != b] + [lowered], reverse=True)
            out.append(tuple(p for p in (v - (length - 1 - j) for j, v in enumerate(new)) if p))
    return out


class Replay:
    """The calls each layer receives for one workload, and their timings."""

    def __init__(self, ops: list[dict]):
        from permfix import cli, moments

        self.ops = ops
        self.args = [cli.build_parser().parse_args(op["argv"]) for op in ops]
        self.metrics: dict[str, float] = {}
        probe()  # warm-up, not kept
        self.probes: list[float] = []
        # Engine calls: (model, n, r, extra) with extra = x or (i, k, precision).
        self.engine: list[tuple] = []
        self.dists: list[tuple] = []
        for args in self.args:
            if args.command == "moments":
                r_max = args.r_max
                if args.model == "walk":
                    k = args.k if args.k is not None else moments.cutoff_steps(args.n, args.i, args.c)
                    extra = (args.i, k, args.precision)
                else:
                    extra = self._cycle_type(args.x) if args.model == "commutator-fixed" else None
                self.engine += [(args.model, args.n, r, extra) for r in range(1, r_max + 1)]
            elif args.command == "simulate" and args.model != "uniform":
                if args.model == "walk":
                    model, extra = "walk", (args.i, args.k, args.precision)
                elif args.x:
                    model, extra = "commutator-fixed", self._cycle_type(args.x)
                else:
                    model, extra = "commutator-random", None
                self.engine += [(model, args.n, r, extra) for r in range(1, 2 * args.r_max + 1)]
            elif args.command == "dist":
                self.dists.append((args.n, args.i, args.k))

    @staticmethod
    def _cycle_type(text: str):
        from permfix.characters import CycleType
        from permfix.cli import parse_parts

        return CycleType(parse_parts(text))

    def span(self, name: str, calls) -> list:
        self.probes.append(probe())
        start = time.perf_counter()
        results = [call() for call in calls]
        self.metrics[name] = time.perf_counter() - start
        return results

    def run(self) -> list[tuple]:
        from permfix import moments, reports
        from permfix.characters import char_ratio_icycle, character
        from permfix.multiplicity import mult_skew
        from permfix.partitions import Partition, all_partitions, dim, partitions_with_large_first_row
        from permfix.tableaux import skew_syt_count
        from permfix.verify import run_suite

        m = self.metrics
        shape_lists = self.span(
            "partitions.enumerate_s",
            [lambda e=e: list(partitions_with_large_first_row(e[1], min(e[2], e[1]))) for e in self.engine]
            + [lambda d=d: list(all_partitions(d[0])) for d in self.dists],
        )
        m["partitions.shapes"] = sum(len(shapes) for shapes in shape_lists)
        engine_shapes = list(zip(self.engine, shape_lists))
        dist_shapes = list(zip(self.dists, shape_lists[len(self.engine):]))

        # dim of every shape, and of every shape an i-strip removal reaches,
        # so that the ratio span finds its dimensions memoized.
        dims = {tuple(lam) for shapes in shape_lists for lam in shapes}
        ratio_calls = {(tuple(lam), e[3][0]) for e, shapes in engine_shapes if e[0] == "walk" for lam in shapes}
        ratio_calls |= {(tuple(tau), d[1]) for d, shapes in dist_shapes for tau in shapes}
        dims |= {low for lam, i in ratio_calls for low in _strip_removals(lam, i)}
        self.span("partitions.dim_s", [lambda lam=lam: dim(Partition(lam)) for lam in sorted(dims)])
        m["partitions.dim_calls"] = len(dims)

        mult_calls = sorted({(tuple(lam), e[2]) for e, shapes in engine_shapes for lam in shapes})
        skew_calls = sorted({(lam, lam_n - a) for lam, r in mult_calls
                             for lam_n in [sum(lam)] for a in range(1, min(r, lam_n) + 1)})
        self.span("tableaux.skew_count_s",
                  [lambda c=c: skew_syt_count(c[0], (c[1],) if c[1] else ()) for c in skew_calls])
        m["tableaux.skew_count_calls"] = len(skew_calls)

        ratio_calls = sorted(ratio_calls)
        ratios = dict(zip(ratio_calls, self.span(
            "characters.ratio_s", [lambda c=c: char_ratio_icycle(Partition(c[0]), c[1]) for c in ratio_calls])))
        m["characters.ratio_calls"] = len(ratio_calls)
        char_calls = {(tuple(lam), e[3]) for e, shapes in engine_shapes if e[0] == "commutator-fixed"
                      for lam in shapes}
        for (n, i, k), shapes in dist_shapes:
            live = [tuple(tau) for tau in shapes if k == 0 or ratios[(tuple(tau), i)]]
            char_calls |= {(tau, tuple(mu)) for tau in live for mu in shapes}
        char_calls = sorted(char_calls)
        self.span("characters.character_s", [lambda c=c: character(c[0], c[1]) for c in char_calls])
        m["characters.character_calls"] = len(char_calls)

        self.span("multiplicity.mult_s", [lambda c=c: mult_skew(c[0], c[1]) for c in mult_calls])
        m["multiplicity.mult_calls"] = len(mult_calls)

        engines = {
            "commutator-random": lambda n, r, extra: moments.moment_commutator_random(n, r),
            "commutator-fixed": lambda n, r, extra: moments.moment_commutator_fixed(n, extra, r),
            "walk": lambda n, r, extra: moments.moment_icycle_walk(n, extra[0], extra[1], r, extra[2]),
        }
        values = self.span("moments.engine_s", [lambda e=e: engines[e[0]](*e[1:]) for e in self.engine])
        m["moments.engine_calls"] = len(self.engine)
        laws = self.span("moments.dist_s", [lambda d=d: moments.walk_exact_distribution(*d) for d in self.dists])

        histograms, streams = [], []
        for model in MODELS:
            runs = [a for a in self.args if a.command == "simulate" and a.model == model]
            histograms += self.span(f"simulate.{model}.kernel_s",
                                    [lambda a=a: self._simulate_counting(a, streams) for a in runs])
            samples = sum(int(a.samples) for a in runs)
            m[f"simulate.{model}.samples_per_s"] = samples / m[f"simulate.{model}.kernel_s"] if samples else 0.0
        if histograms and not streams:
            raise RuntimeError("fixed_point_histogram drew no generators from simulate.spawn_rngs; "
                               "simulate.chunks in trace.py no longer counts its chunks")
        m["simulate.chunks"] = sum(streams)

        verify_runs = [a for a in self.args if a.command == "verify"]
        gates = self.span("verify.suite_s", [lambda a=a: run_suite(a.suite) for a in verify_runs])
        m["verify.gates"] = sum(len(g) for g in gates)

        bodies = [{"moments": values}] + [{"law": law} for law in laws] + [{"distribution": h} for h in histograms]
        bodies += [{"gates": g} for g in gates]
        self.span("reports.encode_s",
                  [lambda b=b: reports.to_json(reports.build_report("trace", {}, b)) for b in bodies])

        return self._cli_span()

    def _simulate(self, args):
        from permfix import simulate

        x = self._cycle_type(args.x) if args.x else None
        return simulate.fixed_point_histogram(
            args.model, args.n, int(args.samples), args.seed, i=args.i, k=args.k, x=x, threads=1
        )

    def _simulate_counting(self, args, streams: list):
        """_simulate, appending to streams the number of generators each
        simulate.spawn_rngs call hands out: fixed_point_histogram draws one
        per chunk. A profile hook observes the returns and changes nothing;
        the kernels make few Python calls, so it costs little inside the span."""
        from permfix import simulate

        spawn = simulate.spawn_rngs.__code__

        def observe(frame, event, arg):
            if event == "return" and frame.f_code is spawn and arg is not None:
                streams.append(len(arg))

        sys.setprofile(observe)
        try:
            return self._simulate(args)
        finally:
            sys.setprofile(None)

    def _direct(self, args):
        """The public calls main(argv) makes for one operation, made directly."""
        from permfix import moments, simulate
        from permfix.verify import run_suite

        if args.command == "moments":
            if args.model == "commutator-random":
                return moments.commutator_random_report(args.n, args.r_max)
            if args.model == "commutator-fixed":
                return moments.commutator_fixed_report(args.n, self._cycle_type(args.x), args.r_max)
            k = args.k if args.k is not None else moments.cutoff_steps(args.n, args.i, args.c)
            return moments.icycle_walk_report(args.n, args.i, k, args.r_max, c=args.c, precision_bits=args.precision)
        if args.command == "simulate":
            self._simulate(args)
            orders = range(1, 2 * args.r_max + 1)
            if args.model == "uniform":
                return simulate.uniform_fixed_distribution_exact(args.n)
            if args.model == "walk":
                return [moments.moment_icycle_walk(args.n, args.i, args.k, r, args.precision) for r in orders]
            if args.x:
                x = self._cycle_type(args.x)
                return [moments.moment_commutator_fixed(args.n, x, r) for r in orders]
            return [moments.moment_commutator_random(args.n, r) for r in orders]
        if args.command == "dist":
            return moments.walk_exact_distribution(args.n, args.i, args.k)
        return run_suite(args.suite)

    def _cli_span(self) -> list[tuple]:
        from permfix.cli import main

        results, total = [], 0.0
        for op, args in zip(self.ops, self.args):
            start = time.perf_counter()
            self._direct(args)
            direct = time.perf_counter() - start
            out, err = io.StringIO(), io.StringIO()
            error = None
            with redirect_stdout(out), redirect_stderr(err):
                start = time.perf_counter()
                try:
                    code = main(op["argv"])
                except SystemExit as exc:  # argparse rejects the arguments
                    code, error = exc.code, "SystemExit"
                except Exception as exc:  # counted as a failed operation by the parent
                    code, error = None, f"{type(exc).__name__}: {exc}"
                total += time.perf_counter() - start - direct
            results.append((code, out.getvalue(), error))
        self.metrics["cli.main_s"] = total
        return results


UNITS = {
    "partitions.enumerate_s": "s", "partitions.shapes": "count",
    "partitions.dim_s": "s", "partitions.dim_calls": "count",
    "tableaux.skew_count_s": "s", "tableaux.skew_count_calls": "count",
    "characters.character_s": "s", "characters.character_calls": "count",
    "characters.ratio_s": "s", "characters.ratio_calls": "count",
    "multiplicity.mult_s": "s", "multiplicity.mult_calls": "count",
    "moments.engine_s": "s", "moments.engine_calls": "count", "moments.dist_s": "s",
    **{f"simulate.{model}.{name}": unit for model in MODELS
       for name, unit in (("kernel_s", "s"), ("samples_per_s", "1/s"))},
    "simulate.chunks": "count",
    "verify.suite_s": "s", "verify.gates": "count",
    "reports.encode_s": "s", "cli.main_s": "s",
    "host.probe_s": "s",
    "trace.total_s": "s",
}


def main() -> None:
    workload, seed = sys.argv[1], int(sys.argv[2])
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    replay = Replay(workloads.build(workload, seed))
    results = replay.run()
    metrics = replay.metrics
    metrics["trace.total_s"] = sum(v for name, v in metrics.items() if UNITS[name] == "s")
    metrics["host.probe_s"] = median(replay.probes)
    json.dump({"metrics": metrics, "units": UNITS, "results": results}, sys.stdout)


if __name__ == "__main__":
    main()
