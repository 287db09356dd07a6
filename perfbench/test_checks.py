"""The benchmark's checks must bite: each corrupted output counts as a failed operation.

Run from the root of the repository: python3 -m pytest perfbench
"""
from __future__ import annotations

import io
import json
import sys
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

import mpmath
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import checks  # noqa: E402
import reference as ref  # noqa: E402
from workloads import operation  # noqa: E402
from permfix.cli import main as permfix_main  # noqa: E402


def _run(op: dict) -> str:
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        assert permfix_main(op["argv"]) == 0
    return out.getvalue()


def _failed(op: dict, stdout: str) -> checks.Outcome:
    return checks.Checker([op]).evaluate([(0, stdout, None)])


COMMUTATOR = operation("commutator-random", ["moments", "commutator-random", "--n", 9, "--r-max", 9],
                       n=9, r_max=9)
FIXED = operation("commutator-fixed",
                  ["moments", "commutator-fixed", "--n", 1000, "--x", "4^40,3^280", "--r-max", 3],
                  n=1000, x={4: 40, 3: 280}, r_max=3)
WALK = operation("walk-cutoff", ["moments", "walk", "--n", 2003, "--i", 3, "--c", 0.0, "--r-max", 3],
                 n=2003, i=3, c=0.0, r_max=3)
WALK_STEPS = operation("walk-steps", ["moments", "walk", "--n", 9, "--i", 2, "--k", 7, "--r-max", 9],
                       n=9, i=2, k=7, r_max=9)
DIST = operation("dist-walk", ["dist", "walk", "--n", 6, "--i", 3, "--k", 4], n=6, i=3, k=4)


def _simulate(model: str, n: int, **extra) -> dict:
    argv = ["simulate", "--model", model, "--n", n, "--samples", 50000, "--seed", 11, "--r-max", 1]
    if "i" in extra:
        argv += ["--i", extra["i"], "--k", extra["k"]]
    return operation("simulate", argv, model=model, n=n, samples=50000, seed=11, **extra)


SIM_COMMUTATOR = _simulate("commutator", 6)
SIM_WALK = _simulate("walk", 6, i=2, k=3)
SIM_UNIFORM = _simulate("uniform", 6)


@pytest.mark.parametrize("op", [COMMUTATOR, FIXED, WALK, WALK_STEPS, DIST, SIM_COMMUTATOR, SIM_WALK, SIM_UNIFORM],
                         ids=lambda op: " ".join(op["argv"][:3]))
def test_correct_outputs_pass(op):
    outcome = _failed(op, _run(op))
    assert (outcome.failed, outcome.wrong) == (0, False), outcome.messages


def _bump_rational(report: dict, r: int) -> None:
    cell = report["table"][r - 1]["moment"]
    cell["num"] = str(int(cell["num"]) + 1)


def _bump_ulp(report: dict, r: int) -> None:
    value = Fraction(report["table"][r - 1]["moment"])
    mantissa, exponent = ref.to_binary(value)
    with mpmath.workprec(128):
        report["table"][r - 1]["moment"] = mpmath.nstr(mpmath.mpf((mantissa + 1, exponent)), 40)


@pytest.mark.parametrize(
    "op, r, bump",
    [(COMMUTATOR, 2, _bump_rational), (COMMUTATOR, 7, _bump_rational), (FIXED, 1, _bump_rational),
     (WALK, 1, _bump_ulp), (WALK, 2, _bump_ulp), (WALK_STEPS, 5, _bump_ulp)],
    ids=["commutator-r2", "commutator-law-r7", "fixed-r1", "walk-r1", "walk-r2", "walk-steps-r5"],
)
def test_moment_one_unit_in_the_last_place_fails(op, r, bump):
    report = json.loads(_run(op))
    bump(report, r)
    outcome = _failed(op, json.dumps(report))
    assert (outcome.failed, outcome.wrong) == (1, True)


def _pair(q: Fraction) -> dict:
    return {"num": str(q.numerator), "den": str(q.denominator)}


def test_law_with_mass_moved_fails():
    report = json.loads(_run(DIST))
    rows = report["table"]
    first, second = (checks.number(row["probability"]) for row in rows[:2])
    shift = min(first, second) / 2
    rows[0]["probability"], rows[1]["probability"] = _pair(first - shift), _pair(second + shift)
    outcome = _failed(DIST, json.dumps(report))
    assert (outcome.failed, outcome.wrong) == (1, True)


@pytest.mark.parametrize(
    "op, impostor",
    [(SIM_COMMUTATOR, SIM_UNIFORM), (SIM_UNIFORM, SIM_COMMUTATOR), (SIM_WALK, _simulate("walk", 6, i=2, k=4))],
    ids=["commutator-from-uniform", "uniform-from-commutator", "walk-from-other-k"],
)
def test_histogram_from_the_wrong_model_fails(op, impostor):
    report = json.loads(_run(op))
    report["histogram"] = json.loads(_run(impostor))["histogram"]
    outcome = _failed(op, json.dumps(report))
    assert (outcome.failed, outcome.wrong) == (1, True)


def test_call_that_errors_is_failed_but_not_wrong():
    outcome = checks.Checker([COMMUTATOR]).evaluate([(1, "", "RecursionError: maximum recursion depth")])
    assert (outcome.attempted, outcome.failed, outcome.wrong) == (1, 1, False)


def test_law_rebuilt_from_moments_is_the_enumerated_law():
    law = ref.commutator_law(5)
    moments = [ref.law_moment(law, r) for r in range(1, 6)]
    assert {j: p for j, p in ref.law_from_moments(moments, 5).items() if p} == law
    assert law[5] == Fraction(ref.partition_count(5), 120)
