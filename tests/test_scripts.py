"""Each experiment script runs on small arguments and prints its table."""
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def run_script(name, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


def test_walk_cutoff_scan():
    lines = run_script("walk_cutoff_scan.py", "--n", "50", "100", "--r-max", "2")
    assert lines[0].split() == ["c", "n", "steps", "r", "moment", "poisson", "gap"]
    # three default c values x two n x two orders
    assert len(lines) == 1 + 3 * 2 * 2
    assert lines[1].split()[:4] == ["-0.50", "50", "73", "1"]


def test_commutator_trends():
    lines = run_script("commutator_trends.py", "--n-max", "12")
    assert lines[0] == "both-random, r=2: n * (moment - Bell)"
    assert lines[1].split() == ["n=", "4", "7.333333"]
    headers = [line for line in lines if not line.startswith(" ")]
    assert len(headers) == 4
    assert len(lines) == 4 + 3 + 3 + 2 + 5


def test_ratio_decay_table():
    lines = run_script("ratio_decay_table.py", "--n", "20", "40")
    assert lines[0].split() == ["i", "t", "n=20", "n=40"]
    # default i in {2, 3, 5} x t in {1, 2, 3}
    assert len(lines) == 1 + 9


def test_walk_cutoff_scan_at_a_million():
    lines = run_script("walk_cutoff_scan.py", "--n", "1000000", "--r-max", "3")
    # three default c values x one n x three orders
    assert len(lines) == 1 + 3 * 3
    assert all(line.split()[1] == "1000000" for line in lines[1:])


def test_compare_outputs_finds_no_difference_against_its_own_checkout():
    lines = run_script("compare_outputs.py", str(ROOT), "--seeds", "1")
    assert len(lines) == 1
    compared, mult, sweeps, partial, dist, large_n, readme, csv, scripts, differ = re.fullmatch(
        r"compared (\d+) calls \((\d+) mult, (\d+) whole sweeps, (\d+) partial sweeps, "
        r"(\d+) dist, (\d+) large-n, (\d+) from README.md, "
        r"(\d+) of them again as CSV\) and (\d+) README scripts: (\d+) differ", lines[0]).groups()
    # Every operation of the three benchmark workloads, more than 100 at one
    # seed, mult for the 66 shapes of n = 1..8 at three orders, four whole
    # fixed-x sweeps at n = 16 to 24, five partial ones at n = 20 to 100 on
    # both sides of 2 r_max = n, dist on the grid of the brute-force laws
    # (7 both-random, 44 classes of n = 1..7, 28 walks at 4 step counts),
    # moments of the three models at n = 10^7 (1 both-random, 6 walks, 1 class),
    # every permfix command line of the README, its moments and dist lines
    # again as CSV, and the README's three experiment script lines.
    readme_text = (ROOT / "README.md").read_text().splitlines()
    readme_lines = [line for line in readme_text if line.startswith("permfix ")]
    assert int(scripts) == sum(line.startswith("python scripts/") for line in readme_text) == 3
    assert int(readme) == len(readme_lines) >= 10
    assert int(csv) == sum(line.split()[1] in ("moments", "dist") for line in readme_lines) >= 5
    assert int(mult) == 66 * 3
    assert int(sweeps) == 4
    assert int(partial) == 5
    assert int(dist) == 7 + 44 + 28 * 4
    assert int(large_n) == 1 + 6 + 1
    assert (int(compared) - int(csv) - int(readme) - int(mult) - int(sweeps) - int(partial)
            - int(dist) - int(large_n) > 100)
    assert differ == "0"
