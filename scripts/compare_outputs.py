#!/usr/bin/env python3
"""Compare permfix outputs between this checkout and another one, call by call.

Usage, from anywhere:

    python3 scripts/compare_outputs.py PARENT_CHECKOUT [--seeds 1 2 3]

The calls are every operation that perfbench/workloads.py builds for the
three workloads at each seed, built once from this checkout. Each tree
runs all of them through ``permfix.cli.main`` in one subprocess that
imports that tree's own ``src``, in the benchmark's order, so caches warm
up as they do in a benchmark round. The script prints how many calls it
compared and the argv of each call whose stdout or exit code differs,
and exits 0 when every output is identical and 1 otherwise.
"""
from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# Runs in each tree: argv lists on stdin, [exit code, stdout] pairs out.
_CHILD = """
import io, json, sys
from contextlib import redirect_stderr, redirect_stdout
sys.path.insert(0, sys.argv[1])
import permfix
from permfix.cli import main
results = []
for argv in json.load(sys.stdin):
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


def run_tree(tree: Path, calls: list[list[str]]) -> list[list]:
    """[exit code, stdout] of each call, run by the permfix under tree/src."""
    src = (tree / "src").resolve()
    if not (src / "permfix" / "__init__.py").is_file():
        raise SystemExit(f"no permfix sources under {src}")
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, "-c", _CHILD, str(src)],
        input=json.dumps(calls), capture_output=True, text=True, cwd=tree, env=env, check=False,
    )
    if proc.returncode != 0:
        raise SystemExit(f"the calls under {tree} exited {proc.returncode}:\n{proc.stderr[-4000:]}")
    report = json.loads(proc.stdout)
    if not Path(report["package"]).resolve().is_relative_to(src):
        raise SystemExit(f"{tree} imported permfix from {report['package']}")
    return report["results"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path, help="root of the checkout to compare against")
    parser.add_argument("--seeds", type=int, nargs="+", default=[1, 2, 3])
    args = parser.parse_args(argv)

    calls = build_calls(args.seeds)
    theirs = run_tree(args.parent, calls)
    ours = run_tree(ROOT, calls)
    differ = [call for call, a, b in zip(calls, theirs, ours) if a != b]
    print(f"compared {len(calls)} calls: {len(differ)} differ")
    for call in differ:
        print("differs: permfix " + " ".join(call))
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
