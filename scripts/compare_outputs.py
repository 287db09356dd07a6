#!/usr/bin/env python3
"""Compare permfix outputs between this checkout and another one, call by call.

Usage, from anywhere:

    python3 scripts/compare_outputs.py PARENT_CHECKOUT [--seeds 1 2 3]

The calls are every operation that perfbench/workloads.py builds for the
three workloads at each seed, then ``permfix mult --alg skew`` for every
shape of n <= 8 at r in {1, 4, 9} (no benchmark operation reaches the
skew counts of mult), then whole sweeps (``--r-max n``) of
``moments commutator-fixed`` at classes with more than n/2 fixed points
and n from 16 to 24, then partial sweeps on both sides of 2 r_max = n
(the truncated column at or above, the character polynomial below, one
of them at n = 100 and r_max = 16 on a class with fixed points and
2-cycles), all above the benchmark's n <= 12, then every
``permfix`` command line of this checkout's README.md at ``--threads 1``,
then its ``moments`` and ``dist`` lines again with ``--format csv``, all
built once from this checkout.
Each tree runs all of them through ``permfix.cli.main`` in one
subprocess that imports that tree's own ``src``, the benchmark's first
and in their order, so caches warm up as they do in a benchmark round.
The two subprocesses run at the same time.
The README's ``python scripts/...`` lines then run in each tree, as
that tree's own scripts with its ``src`` first on the path.
The script prints how many calls it compared, how many of them were
mult calls, whole sweeps and partial sweeps, how many came from the
README and how many README lines ran again as CSV, how many README
scripts it compared, and the argv of each call whose stdout or exit
code differs and of each script whose stdout differs, and exits 0 when
every output is identical and 1 otherwise. A script that exits with an error in either tree stops
the comparison.
"""
from __future__ import annotations

import argparse
import json
import os
import shlex
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# Runs in each tree: argv lists read from a file, [exit code, stdout] pairs out.
_CHILD = """
import io, json, sys
from contextlib import redirect_stderr, redirect_stdout
sys.path.insert(0, sys.argv[1])
import permfix
from permfix.cli import main
with open(sys.argv[2]) as calls:
    calls = json.load(calls)
results = []
for argv in calls:
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:
            code = f"{type(exc).__name__}: {exc}"
    results.append([code, out.getvalue()])
json.dump({"package": permfix.__file__, "results": results}, sys.stdout)
"""


def build_calls(seeds: list[int]) -> list[list[str]]:
    """The argv of every benchmark operation, workload by workload, seed by seed."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    import workloads

    return [op["argv"] for seed in seeds for name in workloads.WORKLOADS for op in workloads.build(name, seed)]


def mult_calls() -> list[list[str]]:
    """The argv of mult --alg skew for every shape of n = 1..8, at r = 1, 4 and 9."""
    sys.path.insert(0, str(ROOT / "src"))
    from permfix.partitions import partition_tuples

    return [["mult", "--lambda", ",".join(map(str, lam)), "--r", str(r), "--alg", "skew"]
            for n in range(1, 9) for lam in partition_tuples(n, n) for r in (1, 4, 9)]


def sweep_calls(sweeps) -> list[list[str]]:
    """The argv of fixed-x commutator sweeps, one per (n, x, r_max)."""
    return [["moments", "commutator-fixed", "--n", str(n), "--x", x, "--r-max", str(r_max),
             "--threads", "1"]
            for n, x, r_max in sweeps]


# Whole sweeps at classes rich in fixed points.
WHOLE_SWEEPS = ((16, "1^16", 16), (16, "2,1^14", 16), (20, "3^2,1^14", 20), (24, "2^3,1^18", 24))
# Partial sweeps: the truncated column at 2 r_max >= n, the character
# polynomial below, the last one with fixed points, 2-cycles and a deep r_max.
PARTIAL_SWEEPS = ((20, "3^2,1^14", 12), (24, "2^12", 14), (30, "2^15", 15),
                  (64, "5^4,4^5,3^6,2^3", 12), (100, "5^4,4^5,3^6,2^10,1^22", 16))


def readme_calls() -> list[list[str]]:
    """The argv of every ``permfix`` command line of README.md, at --threads 1."""
    lines = (ROOT / "README.md").read_text().splitlines()
    return [shlex.split(line)[1:] + ["--threads", "1"] for line in lines if line.startswith("permfix ")]


def csv_calls(readme: list[list[str]]) -> list[list[str]]:
    """The README's moments and dist calls again, with --format csv. The
    simulate lines are left out: the walk's alone takes seconds per tree."""
    return [argv + ["--format", "csv"] for argv in readme if argv[0] in ("moments", "dist")]


def script_lines() -> list[list[str]]:
    """The argv of every ``python scripts/...`` line of README.md, script path first."""
    lines = (ROOT / "README.md").read_text().splitlines()
    return [shlex.split(line)[1:] for line in lines if line.startswith("python scripts/")]


def run_script(trees: list[Path], argv: list[str]) -> list[str]:
    """Stdout of the script line argv, run in each tree at the same time as
    that tree's own script with that tree's src first on the path."""
    procs = [
        subprocess.Popen(
            [sys.executable, *argv], stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            cwd=tree, env={**os.environ, "PYTHONPATH": str((tree / "src").resolve())},
        )
        for tree in trees
    ]
    outputs = [proc.communicate() for proc in procs]
    for tree, proc, (_, err) in zip(trees, procs, outputs):
        if proc.returncode != 0:
            raise SystemExit(
                f"{' '.join(argv)} under {tree} exited {proc.returncode}:\n{err[-4000:]}")
    return [out for out, _ in outputs]


def start_tree(tree: Path, calls_file: Path) -> subprocess.Popen:
    """Start the permfix under tree/src on the calls in calls_file."""
    src = (tree / "src").resolve()
    if not (src / "permfix" / "__init__.py").is_file():
        raise SystemExit(f"no permfix sources under {src}")
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    return subprocess.Popen(
        [sys.executable, "-c", _CHILD, str(src), str(calls_file)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, cwd=tree, env=env,
    )


def collect_tree(tree: Path, proc: subprocess.Popen) -> list[list]:
    """[exit code, stdout] of each call, once the tree's subprocess has finished."""
    out, err = proc.communicate()
    if proc.returncode != 0:
        raise SystemExit(f"the calls under {tree} exited {proc.returncode}:\n{err[-4000:]}")
    report = json.loads(out)
    if not Path(report["package"]).resolve().is_relative_to((tree / "src").resolve()):
        raise SystemExit(f"{tree} imported permfix from {report['package']}")
    return report["results"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path, help="root of the checkout to compare against")
    parser.add_argument("--seeds", type=int, nargs="+", default=[1, 2, 3])
    args = parser.parse_args(argv)

    mult, sweeps, partial = mult_calls(), sweep_calls(WHOLE_SWEEPS), sweep_calls(PARTIAL_SWEEPS)
    readme = readme_calls()
    csv = csv_calls(readme)
    calls = build_calls(args.seeds) + mult + sweeps + partial + readme + csv
    with tempfile.TemporaryDirectory() as scratch:
        calls_file = Path(scratch) / "calls.json"
        calls_file.write_text(json.dumps(calls))
        procs = [(tree, start_tree(tree, calls_file)) for tree in (args.parent, ROOT)]
        try:
            theirs, ours = [collect_tree(tree, proc) for tree, proc in procs]
        finally:
            for _, proc in procs:
                proc.kill()
                proc.wait()
    differ = ["permfix " + " ".join(call) for call, a, b in zip(calls, theirs, ours) if a != b]
    scripts = script_lines()
    for argv in scripts:
        theirs, ours = run_script([args.parent, ROOT], argv)
        if theirs != ours:
            differ.append("python " + " ".join(argv))
    print(f"compared {len(calls)} calls ({len(mult)} mult, {len(sweeps)} whole sweeps, "
          f"{len(partial)} partial sweeps, "
          f"{len(readme)} from README.md, "
          f"{len(csv)} of them again as CSV) and {len(scripts)} README scripts: "
          f"{len(differ)} differ")
    for call in differ:
        print("differs: " + call)
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
