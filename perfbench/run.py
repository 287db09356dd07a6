"""permfix benchmark: three workloads, timed rounds and a traced layer run.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload exact-large-n --seed 1 --seconds 30 --trace 0

With --trace 0 the run repeats timed rounds (see round.py) for --seconds
seconds and reports the medians over rounds of setup_s, wall_s and
peak_rss_mb. Each time is rescaled by the host speed its round saw:
multiplied by probe.REFERENCE_S over the median time of the probes the
round ran (see round.py). With --trace 1 it repeats pairs of one timed round
and one traced replay (see trace.py) and reports the medians of the
per-layer metrics, which are not rescaled. Every operation's output is checked against references that
this process computes without importing permfix (see checks.py). The
last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics. Raw per-round figures go to perfbench/results/.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import probe  # noqa: E402
import workloads  # noqa: E402

# A child that runs longer than this is stopped and the run fails; the
# slowest round takes about 5 s and the slowest traced replay about 12 s.
CHILD_TIMEOUT_S = 120


def _run_child(script: str, workload: str, seed: int) -> dict:
    t0 = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(HERE / script), workload, str(seed), repr(t0)],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=CHILD_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{script} exited {proc.returncode}:\n{proc.stderr[-4000:]}")
    return json.loads(proc.stdout)


def _speed(record: dict) -> float:
    """Factor that rescales a round's times to the host speed of probe.REFERENCE_S."""
    return probe.REFERENCE_S / statistics.median(record["probe_s"])


def _median_metrics(samples: list[dict], units: dict) -> dict:
    return {
        name: {"value": statistics.median(s[name] for s in samples), "unit": unit}
        for name, unit in units.items()
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "permfix" / "__init__.py").is_file():
        sys.stderr.write(f"no permfix sources under {ROOT / 'src'}; run from a full checkout\n")
        return 2

    ops = workloads.build(args.workload, args.seed)
    checker = checks.Checker(ops)
    rounds, traces = [], []
    attempted = failed = 0
    wrong = False
    failures: set[str] = set()
    deadline = time.monotonic() + args.seconds
    while not rounds or time.monotonic() < deadline:
        record = _run_child("round.py", args.workload, args.seed)
        outcome = checker.evaluate([(op["code"], op["stdout"], op["error"]) for op in record["ops"]])
        attempted += outcome.attempted
        failed += outcome.failed
        wrong |= outcome.wrong
        failures.update(outcome.messages)
        raw_wall_s = sum(op["seconds"] for op in record["ops"])
        speed = _speed(record)
        rounds.append(
            {
                "setup_s": record["setup_s"] * speed,
                "wall_s": raw_wall_s * speed,
                "peak_rss_mb": record["peak_rss_mb"],
                "raw_setup_s": record["setup_s"],
                "raw_wall_s": raw_wall_s,
                "probe_s": record["probe_s"],
                "op_seconds": [op["seconds"] for op in record["ops"]],
            }
        )
        if args.trace:
            traced = _run_child("trace.py", args.workload, args.seed)
            outcome = checker.evaluate(traced.pop("results"))
            attempted += outcome.attempted
            failed += outcome.failed
            wrong |= outcome.wrong
            failures.update(outcome.messages)
            layers = traced["metrics"]
            layers["trace.overhead_s"] = layers["trace.total_s"] - rounds[-1]["raw_wall_s"]
            traces.append(layers)

    if args.trace:
        units = dict(traced["units"], **{"trace.overhead_s": "s"})
        metrics = _median_metrics(traces, units)
    else:
        metrics = _median_metrics(rounds, {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"})

    results = HERE / "results"
    results.mkdir(exist_ok=True)
    raw = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
           "failures": sorted(failures), "rounds": rounds, "traces": traces}
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(raw, indent=1))

    for message in sorted(failures):
        sys.stderr.write(f"check failed: {message}\n")
    print(json.dumps({"correct": not wrong, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
