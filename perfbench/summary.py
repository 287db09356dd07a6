"""Print every end-to-end metric of every workload, by name and with its unit.

Usage, from the root of a checkout:

    python3 perfbench/summary.py --seed 1 [--trace 0|1]

Runs perfbench/run.py once per workload with the given workload seed, for
the run length BENCHMARK.json fixes, and prints one line per metric, then the operation counts of each run. With
--trace 1 it prints the per-layer metrics instead. Exits 1 if any run
fails or reports an incorrect output.
"""
from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
RUN_SECONDS = json.loads((HERE.parent / "BENCHMARK.json").read_text())["run_seconds"]
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    status = 0
    for workload in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(args.seed),
             "--seconds", str(RUN_SECONDS), "--trace", str(args.trace)],
            cwd=HERE.parent, capture_output=True, text=True,
        )
        if proc.returncode != 0:
            sys.stderr.write(f"{workload}: run.py exited {proc.returncode}\n{proc.stderr}")
            status = 1
            continue
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        for name, metric in result["metrics"].items():
            print(f"{workload:<14} {name:<34} {metric['value']:>14.6g} {metric['unit']}")
        print(f"{workload:<14} {'operations':<34} {result['attempted']:>14} attempted, "
              f"{result['failed']} failed, correct={result['correct']}")
        if not result["correct"] or result["failed"]:
            status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
