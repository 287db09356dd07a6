"""Only the sampler needs numpy: every exact command and verify start without it."""
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

EXACT_COMMANDS = [
    ("moments", "commutator-random", "--n", "12", "--r-max", "3"),
    ("moments", "commutator-fixed", "--n", "8", "--x", "8", "--r-max", "2"),
    ("moments", "walk", "--n", "1000", "--i", "2", "--c", "0", "--r-max", "2"),
    ("dist", "walk", "--n", "6", "--i", "2", "--k", "3"),
    ("dist", "commutator", "--n", "5", "--x", "5"),
    ("mult", "--lambda", "4,1", "--r", "1", "--alg", "all"),
    ("ratio", "--lambda", "4,1", "--i", "2"),
    ("verify", "--suite", "all"),
]


def _imported_modules(*python_args: str) -> set[str]:
    """The modules a python run imports, read off its -X importtime lines."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-X", "importtime", *python_args],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
    lines = [line for line in proc.stderr.splitlines() if line.startswith("import time:")]
    return {line.rsplit("|", 1)[1].strip() for line in lines[1:]}


def _numpy_modules(modules: set[str]) -> set[str]:
    return {m for m in modules if m == "numpy" or m.startswith("numpy.")}


def _command_id(argv) -> str:
    return "-".join(a for a in argv[:2] if not a.startswith("--"))


@pytest.mark.parametrize("argv", EXACT_COMMANDS, ids=_command_id)
def test_exact_command_does_not_import_numpy(argv):
    modules = _imported_modules("-m", "permfix", *argv)
    assert "permfix.cli" in modules
    assert not _numpy_modules(modules)


def test_importing_the_cli_leaves_numpy_out():
    code = "import sys, permfix, permfix.cli; assert 'numpy' not in sys.modules"
    assert not _numpy_modules(_imported_modules("-c", code))


def test_importing_the_law_module_leaves_numpy_out():
    code = "import sys, permfix.laws; assert 'numpy' not in sys.modules"
    assert not _numpy_modules(_imported_modules("-c", code))


def test_simulate_imports_numpy():
    modules = _imported_modules("-m", "permfix", "simulate", "--model", "uniform", "--n", "20",
                                "--samples", "100", "--threads", "1")
    assert {"numpy", "permfix.simulate"} <= modules


def _run_main_without_numpy(*argv: str) -> subprocess.CompletedProcess:
    """main(argv) in a subprocess, which exits 3 instead if numpy got imported."""
    code = (f"import sys; from permfix.cli import main; code = main({list(argv)!r}); "
            "sys.exit(3 if 'numpy' in sys.modules else code)")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env,
                          timeout=120)


def test_simulate_refused_by_its_references_exits_2_without_numpy():
    # Order 2 * 65 = 130 is above the engine's bound: the references refuse
    # it before the sampler, and with it numpy, is imported.
    proc = _run_main_without_numpy("simulate", "--model", "uniform", "--n", "5",
                                   "--samples", "10", "--r-max", "65")
    assert proc.returncode == 2, proc.stderr[-2000:]
    assert "above the 128 accepted" in proc.stderr


def test_simulate_negative_seed_exits_2_before_its_references():
    # The references at n = 40 and order 40 take seconds; a refused seed
    # skips them, and numpy with them.
    start = time.perf_counter()
    proc = _run_main_without_numpy("simulate", "--model", "commutator", "--n", "40",
                                   "--r-max", "20", "--samples", "10", "--seed", "-1",
                                   "--threads", "1")
    assert time.perf_counter() - start < 1.0
    assert proc.returncode == 2, proc.stderr[-2000:]
    assert "--seed" in proc.stderr


def test_simulate_is_the_one_module_that_imports_numpy():
    pattern = re.compile(r"^\s*(import numpy|from numpy\b)", re.MULTILINE)
    importers = [path.relative_to(ROOT).as_posix() for path in sorted((ROOT / "src").rglob("*.py"))
                 if pattern.search(path.read_text())]
    assert importers == ["src/permfix/simulate.py"]
