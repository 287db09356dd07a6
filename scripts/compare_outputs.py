#!/usr/bin/env python3
"""Compare permfix outputs between this checkout and another one, call by call.

Usage, from anywhere:

    python3 scripts/compare_outputs.py PARENT_CHECKOUT [--seeds 1 2 3]

The calls are every operation that perfbench/workloads.py builds for the
three workloads at each seed, then ``permfix mult --alg skew`` for every
shape of n <= 8 at r in {1, 4, 9} (no benchmark operation reaches the
skew counts of mult), then every ``permfix`` command line of this
checkout's README.md at ``--threads 1``, all built once from this
checkout. Each tree runs all of them through ``permfix.cli.main`` in one
subprocess that imports that tree's own ``src``, the benchmark's first
and in their order, so caches warm up as they do in a benchmark round.
The two subprocesses run at the same time.
The script prints how many calls it compared, how many of them were
mult calls and how many came from the README, and the argv of each call
whose stdout or exit code differs, and exits 0 when every output is
identical and 1 otherwise.
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


def readme_calls() -> list[list[str]]:
    """The argv of every ``permfix`` command line of README.md, at --threads 1."""
    lines = (ROOT / "README.md").read_text().splitlines()
    return [shlex.split(line)[1:] + ["--threads", "1"] for line in lines if line.startswith("permfix ")]


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

    mult, readme = mult_calls(), readme_calls()
    calls = build_calls(args.seeds) + mult + readme
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
    differ = [call for call, a, b in zip(calls, theirs, ours) if a != b]
    print(f"compared {len(calls)} calls ({len(mult)} mult, {len(readme)} from README.md): "
          f"{len(differ)} differ")
    for call in differ:
        print("differs: permfix " + " ".join(call))
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
