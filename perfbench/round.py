"""One timed round: a fresh interpreter runs every operation of a workload once.

Usage: python3 perfbench/round.py WORKLOAD SEED T0

T0 is the CLOCK_MONOTONIC reading the parent took just before starting
this process, so setup_s covers interpreter start-up, the permfix import
and building the inputs. Each operation is one call of
``permfix.cli.main`` with its stdout and stderr captured; only the call
itself is timed. The host-speed probe (probe.py) runs twice after set-up
(the first run warms it up and is dropped), then between operations
whenever PROBE_EVERY_S have passed since the last probe, and at the end.
The round prints one JSON object on stdout.
"""
from __future__ import annotations

import io
import json
import resource
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PROBE_EVERY_S = 0.1


def main() -> None:
    workload, seed, t0 = sys.argv[1], int(sys.argv[2]), float(sys.argv[3])
    sys.path.insert(0, str(ROOT / "src"))
    from permfix.cli import main as permfix_main

    import workloads
    from probe import probe

    ops = workloads.build(workload, seed)
    setup_s = time.monotonic() - t0
    probe()  # the first call pays for warming up and is not kept
    probes = [probe()]
    last_probe = time.monotonic()
    results = []
    for op in ops:
        if time.monotonic() - last_probe >= PROBE_EVERY_S:
            probes.append(probe())
            last_probe = time.monotonic()
        out, err = io.StringIO(), io.StringIO()
        error = None
        with redirect_stdout(out), redirect_stderr(err):
            start = time.perf_counter()
            try:
                code = permfix_main(op["argv"])
            except SystemExit as exc:  # argparse rejects the arguments
                code, error = exc.code, "SystemExit"
            except Exception as exc:  # a traceback is a failed operation, not a failed round
                code, error = None, f"{type(exc).__name__}: {exc}"
            seconds = time.perf_counter() - start
        results.append({"code": code, "seconds": seconds, "stdout": out.getvalue(), "error": error})
    probes.append(probe())
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    json.dump({"setup_s": setup_s, "peak_rss_mb": peak_kb / 1024, "probe_s": probes, "ops": results}, sys.stdout)


if __name__ == "__main__":
    main()
