"""Checks of every operation's output against the references in reference.py.

An operation fails when its call raises, exits with a code other than 0,
or prints a report that disagrees with its reference. A disagreement
also makes the run incorrect. Verdicts are cached per output text, since
every round of a run repeats the same seeded operations.

The tolerances are fixed here and stated in the README:

* r <= 2 moments equal the closed forms exactly: as rationals for the
  commutators, and after rounding both sides to 128 bits for the walk,
  whose engine prints 128-bit values;
* r >= 3 moments of the large-n engines lie within POISSON_BANDS of the
  Poisson moments the paper's limit theorems give;
* laws rebuilt from moments r <= n are nonnegative, put no mass at n - 1,
  sum to 1 and give X = n the commuting probability;
* exact small-n laws equal the brute-force laws;
* Monte Carlo means lie within Z_MAX standard errors of the closed-form
  mean, and histograms pass a chi-square test at P_MIN.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from math import factorial, sqrt

import reference as ref

Z_MAX = 5.0
P_MIN = 1e-7
# Largest relative gap |m_r / poisson_r - 1| allowed for r >= 3. At the
# seed commit the largest gaps over the workload grids are 0.0011
# (commutator-random, n ~ 3000, r <= 6), 0.0030 (commutator-fixed,
# n = 1000, r <= 4) and 0.022 (walk, n ~ 2000, i = 3, c = -0.5, r = 3).
POISSON_BANDS = {"commutator-random": 0.003, "commutator-fixed": 0.01, "walk-cutoff": 0.04}


@dataclass
class Outcome:
    attempted: int = 0
    failed: int = 0
    wrong: bool = False
    messages: list[str] = field(default_factory=list)


def number(value) -> Fraction:
    """A report value as an exact rational: num/den pairs, decimal strings or ints."""
    if isinstance(value, dict):
        return Fraction(int(value["num"]), int(value["den"]))
    return Fraction(value)


def _same_binary(value, exact: Fraction) -> bool:
    return ref.to_binary(number(value)) == ref.to_binary(exact)


def _moments(report: dict) -> list:
    return [row["moment"] for row in sorted(report["table"], key=lambda row: row["r"])]


def _check_low_moments(moments: list, expected: tuple, exact: bool) -> list[str]:
    problems = []
    for r, want in enumerate(expected[: len(moments)], start=1):
        got = moments[r - 1]
        ok = number(got) == want if exact else _same_binary(got, want)
        if not ok:
            problems.append(f"moment r={r} is {got}, closed form gives {float(want)!r}")
    return problems


def _check_poisson_band(kind: str, moments: list, mean) -> list[str]:
    problems = []
    for r in range(3, len(moments) + 1):
        target = ref.poisson_moment(r, mean)
        gap = abs(float(number(moments[r - 1]) / target) - 1)
        if gap > POISSON_BANDS[kind]:
            problems.append(f"moment r={r} is {gap:.4f} away from the Poisson moment, band {POISSON_BANDS[kind]}")
    return problems


def _check_law_from_moments(moments: list, n: int, top_probability: Fraction) -> list[str]:
    law = ref.law_from_moments([number(m) for m in moments], n)
    problems = [f"rebuilt P(X={j}) = {float(p)!r} < 0" for j, p in law.items() if p < 0]
    if law[n - 1] != 0:
        problems.append(f"rebuilt P(X={n - 1}) = {float(law[n - 1])!r}, expected 0")
    if sum(law.values()) != 1:
        problems.append("rebuilt law does not sum to 1")
    if law[n] != top_probability:
        problems.append(f"rebuilt P(X={n}) = {law[n]}, expected {top_probability}")
    return problems


def _check_commutator_moments(op: dict, report: dict) -> list[str]:
    p = op["params"]
    n, moments = p["n"], _moments(report)
    if len(moments) != p["r_max"]:
        return [f"{len(moments)} moments reported, {p['r_max']} requested"]
    if op["kind"] == "commutator-random":
        low = ref.commutator_random_moments12(n)
        top = Fraction(ref.partition_count(n), factorial(n))
    else:
        low = ref.commutator_fixed_moments12(n, p["x"])
        top = Fraction(ref.centralizer_order(p["x"]), factorial(n))
    problems = _check_low_moments(moments, low, exact=True)
    if p["r_max"] >= n:
        problems += _check_law_from_moments(moments, n, top)
    else:
        problems += _check_poisson_band(op["kind"], moments, 1)
    return problems


def _check_walk_cutoff(op: dict, report: dict) -> list[str]:
    p = op["params"]
    n, i, c = p["n"], p["i"], p["c"]
    k = ref.cutoff_steps(n, i, c)
    if report["params"]["k"] != k:
        return [f"step count {report['params']['k']}, expected {k}"]
    moments = _moments(report)
    if len(moments) != p["r_max"]:
        return [f"{len(moments)} moments reported, {p['r_max']} requested"]
    problems = _check_low_moments(moments, ref.walk_moments12(n, i, k), exact=False)
    mean = ref.walk_poisson_mean(i, c)
    return problems + _check_poisson_band("walk-cutoff", moments, mean)


def _check_walk_steps(op: dict, report: dict) -> list[str]:
    p = op["params"]
    law = ref.walk_law(p["n"], p["i"], p["k"])
    moments = _moments(report)
    if len(moments) != p["r_max"]:
        return [f"{len(moments)} moments reported, {p['r_max']} requested"]
    return [
        f"moment r={r} is {got}, the Markov chain gives {float(ref.law_moment(law, r))!r}"
        for r, got in enumerate(moments, start=1)
        if not _same_binary(got, ref.law_moment(law, r))
    ]


def _check_dist_walk(op: dict, report: dict) -> list[str]:
    p = op["params"]
    law = ref.walk_law(p["n"], p["i"], p["k"])
    got = {row["fixed_points"]: number(row["probability"]) for row in report["table"]}
    problems = []
    if {j: q for j, q in got.items() if q} != law:
        problems.append("law differs from the Markov chain law")
    if number(report["total"]) != 1:
        problems.append(f"total is {report['total']}")
    if number(report["mean"]) != ref.law_moment(law, 1):
        problems.append(f"mean is {report['mean']}")
    return problems


def _check_verify(stdout: str) -> list[str]:
    gates = [json.loads(line) for line in stdout.splitlines() if line.strip()]
    if not gates:
        return ["no gates reported"]
    return [f"gate {g['gate']} failed" for g in gates if not g["passed"]]


def _simulate_references(p: dict):
    """(E[X], E[X^2], exact law or None) for one simulate operation."""
    n = p["n"]
    if p["model"] == "uniform":
        return Fraction(1), Fraction(2), ref.uniform_law(n)
    if p["model"] == "commutator":
        if "x" in p:
            m1, m2 = ref.commutator_fixed_moments12(n, p["x"])
        else:
            m1, m2 = ref.commutator_random_moments12(n)
        return m1, m2, ref.commutator_law(n, p.get("x")) if n <= 6 else None
    m1, m2 = ref.walk_moments12(n, p["i"], p["k"])
    return m1, m2, ref.walk_law(n, p["i"], p["k"]) if n <= 6 else None


def _check_simulate(op: dict, report: dict) -> list[str]:
    p = op["params"]
    samples = p["samples"]
    histogram = {int(j): c for j, c in report["histogram"].items()}
    if report["samples"] != samples or sum(histogram.values()) != samples:
        return [f"histogram holds {sum(histogram.values())} of {samples} samples"]
    m1, m2, law = _simulate_references(p)
    problems = []
    exact_mean = report["table"][0]["exact_moment"]
    same = _same_binary(exact_mean, m1) if p["model"] == "walk" else number(exact_mean) == m1
    if not same:
        problems.append(f"reported exact mean {exact_mean}, closed form gives {float(m1)!r}")
    mean = Fraction(sum(j * c for j, c in histogram.items()), samples)
    variance = m2 - m1 * m1
    if variance == 0:
        if mean != m1:
            problems.append(f"sample mean {float(mean)!r} of a constant count {m1}")
    else:
        z = float(mean - m1) / sqrt(float(variance) / samples)
        if abs(z) > Z_MAX:
            problems.append(f"sample mean is {z:.2f} standard errors from the closed form")
    if law is not None:
        stat, df, pvalue = ref.chi_square(histogram, law, samples)
        if pvalue < P_MIN:
            problems.append(f"chi-square {stat:.1f} on {df} df, p = {pvalue:.2e}")
    return problems


_REPORT_CHECKS = {
    "commutator-random": _check_commutator_moments,
    "commutator-fixed": _check_commutator_moments,
    "walk-cutoff": _check_walk_cutoff,
    "walk-steps": _check_walk_steps,
    "dist-walk": _check_dist_walk,
    "simulate": _check_simulate,
}


def check_output(op: dict, stdout: str) -> list[str]:
    """Problems with one operation's output; empty when it is correct."""
    try:
        if op["kind"] == "verify":
            return _check_verify(stdout)
        return _REPORT_CHECKS[op["kind"]](op, json.loads(stdout))
    except (ValueError, KeyError, TypeError, IndexError, ZeroDivisionError) as exc:
        return [f"malformed report: {type(exc).__name__}: {exc}"]


class Checker:
    """Counts the failed operations of rounds of one workload."""

    def __init__(self, ops: list[dict]):
        self.ops = ops
        self._verdicts: dict[tuple[int, str], list[str]] = {}

    def evaluate(self, results: list[tuple]) -> Outcome:
        """results holds (exit code, stdout, error) per operation, in workload order."""
        outcome = Outcome()
        for index, (op, (code, stdout, error)) in enumerate(zip(self.ops, results)):
            outcome.attempted += 1
            label = " ".join(op["argv"])
            if error is not None or code != 0:
                outcome.failed += 1
                outcome.messages.append(f"{label}: exit code {code}, {error}")
                continue
            key = (index, stdout)
            if key not in self._verdicts:
                self._verdicts[key] = check_output(op, stdout)
            problems = self._verdicts[key]
            if problems:
                outcome.failed += 1
                outcome.wrong = True
                outcome.messages.extend(f"{label}: {problem}" for problem in problems)
        if len(results) != len(self.ops):
            raise ValueError(f"{len(results)} results for {len(self.ops)} operations")
        return outcome
