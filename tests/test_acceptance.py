"""Acceptance criteria C01-C13, each printing a pass line.

A criterion that a `permfix verify` gate also checks runs that gate's own
check from the registry in permfix.verify, on the larger grid in TIER1;
its test is named after the criterion, or is test_criterion with the
criterion label and the gate name as its id, so `pytest
tests/test_acceptance.py -v -k C05` selects one criterion. The other
criteria are plain tests. Run with `pytest tests/test_acceptance.py
-v -s` to see the pass lines. Every tolerance is pinned once, here or in
the gate's check; exact claims use exact arithmetic.
"""
from itertools import permutations

import mpmath
import pytest
from mpmath import mp
from oracles import empirical_law, top_to_random_shape_check

from permfix.characters import CycleType
from permfix.laws import bell, moment_z_score, poisson_moment
from permfix.moments import (
    cutoff_steps,
    icycle_walk_moments_exact,
    moment_commutator_fixed,
    moment_commutator_fixed_closed,
    moment_commutator_random,
    moment_icycle_walk,
)
from permfix.multiplicity import mult_skew
from permfix.partitions import all_partitions
from permfix.simulate import fixed_point_histogram
from permfix.verify import GATES, run_suite

SEED = 20250809

C10_NS = [200, 400, 800, 1600, 3200]
RATIO_GATED_PAIRS = ((2, 1), (2, 2), (3, 1))

# Every registry gate in `permfix verify` order. A gate that a criterion
# checks too carries the criterion's label and grid, where its check must
# pass; None marks a gate that no criterion widens. Tier-1 also runs every
# gate on its verify grid.
TIER1 = [
    ("dimension-squares-sum-to-factorial", None),
    ("tensor-dimension-identity", ("C03", {"ns": range(1, 9), "rs": range(7)})),
    ("multiplicity-cross-agreement", ("C02", {"ns": range(1, 7), "rs": range(6)})),
    ("occupancy-normalization", None),
    ("poisson-unit-moments-are-bell", None),
    ("near-one-row-closed-forms", None),
    ("class-columns-vs-murnaghan-nakayama", ("C04", {"ns": range(1, 13)})),
    ("single-cycle-hook-support", None),
    ("commutator-random-vs-enumeration", ("C05", {
        "ns": range(2, 6), "rs": range(5),
        "bell_points": [(n, r) for n in range(1, 31) for r in range(min(n, 6) + 1)]})),
    ("commutator-fixed-vs-enumeration", ("C05", {"ns": range(2, 7), "rs": range(5)})),
    ("conjugation-average-functional-equation", ("C04", {
        "points": [(n, x) for n in range(1, 6) for x in permutations(range(n))]})),
    ("walk-moments-vs-class-inversion", ("C08", {
        "points": [(n, i, k) for n in range(2, 8) for i in (2, 3) if i <= n for k in range(21)]
        + [(8, i, k) for i in (2, 3) for k in (0, 7, 20)],
        "rs": range(4)})),
    ("shuffle-shape-law-normalization", ("C12", {"ns": range(1, 7), "rs": range(5)})),
    *(
        (f"icycle-ratio-decay-i{i}-t{t}", ("C10", {"i": i, "t": t, "ns": C10_NS}))
        for i, t in RATIO_GATED_PAIRS
    ),
    ("walk-term-approaches-limit", None),
    ("commutator-moment-poisson-rate", ("C07", {"ns": (20, 40, 80, 160), "rs": range(1, 5)})),
    ("walk-cutoff-mean-near-poisson", None),
]


def _ok(label: str) -> None:
    print(f"[PASS] {label}")


def test_verify_runs_every_gate_of_tier1_in_order_and_each_passes():
    results = run_suite("all")
    assert [g.gate for g in results] == [gate for gate, _ in TIER1]
    assert [g.gate for g in results if not g.passed] == []


def _run_criterion(gate: str) -> None:
    label, grid = dict(TIER1)[gate]
    result = GATES[gate].run(grid)
    assert result.passed, result.detail
    _ok(f"{label} {gate} on its acceptance grid")


# Gates whose criterion has a named test below; test_criterion runs the rest.
NAMED = {
    "multiplicity-cross-agreement",
    "tensor-dimension-identity",
    "commutator-random-vs-enumeration",
    "walk-moments-vs-class-inversion",
}


@pytest.mark.parametrize(
    "gate", [pytest.param(g, id=f"{row[0]}-{g}") for g, row in TIER1 if row and g not in NAMED]
)
def test_criterion(gate):
    _run_criterion(gate)


def test_c01_small_power_multiplicity_tables():
    for n in range(5, 10):
        assert mult_skew((n,), 1) == 1
        assert mult_skew((n - 1, 1), 1) == 1
        assert mult_skew((n,), 2) == 2
        assert mult_skew((n - 1, 1), 2) == 3
        assert mult_skew((n - 2, 2), 2) == 1
        assert mult_skew((n - 2, 1, 1), 2) == 1
    _ok("C01 multiplicity table at r = 1, 2 for n = 5..9")


def test_c02_cross_algorithm_agreement():
    _run_criterion("multiplicity-cross-agreement")


def test_c03_dimension_identity():
    _run_criterion("tensor-dimension-identity")


def test_c05_commutator_moments_vs_enumeration_and_bell_bound():
    # The fixed-factor half is test_criterion[C05-commutator-fixed-vs-enumeration].
    _run_criterion("commutator-random-vs-enumeration")


def test_c06_closed_forms_on_every_class():
    for n in range(4, 10):
        for x_parts in all_partitions(n):
            x = CycleType(x_parts)
            assert moment_commutator_fixed_closed(n, x, 1) == moment_commutator_fixed(n, x, 1)
            assert moment_commutator_fixed_closed(n, x, 2) == moment_commutator_fixed(n, x, 2)
        identity = CycleType((1,) * n)
        assert moment_commutator_fixed_closed(n, identity, 2) == n ** 2
    _ok("C06 mean/second-moment closed forms on every class of S_4..S_9")


def test_c07_ncycle_squeeze():
    for n in range(2, 161):
        for r in range(1, 5):
            fixed = moment_commutator_fixed(n, (n,), r)
            both = moment_commutator_random(n, r)
            assert bell(r) <= fixed <= both, (n, r)
    _ok("C07 full-cycle moment squeeze to n=160")


def test_c08_walk_exactness_small_n():
    _run_criterion("walk-moments-vs-class-inversion")


def test_c09_walk_deterministic_sanity():
    for n in (10, 100, 1000, 10_000):
        assert icycle_walk_moments_exact(n, 2, 0, 1)[1] == n
        assert icycle_walk_moments_exact(n, 2, 1, 1)[1] == n - 2
    assert icycle_walk_moments_exact(6, 3, 0, 2)[2] == 36
    _ok("C09 zero-step and one-transposition walk sanity up to n = 10^4")


def test_c10_ratio_asymptotics_bounded_and_non_increasing():
    # The ratio-decay gates' check, on the criterion's (i, t) pairs that
    # name no gate.
    check = GATES["icycle-ratio-decay-i2-t1"].check
    for i in (2, 3, 5):
        for t in (1, 2, 3):
            if (i, t) not in RATIO_GATED_PAIRS:
                passed, detail = check(i=i, t=t, ns=C10_NS)
                assert passed, (i, t, detail)
    _ok("C10 scaled ratio deviations bounded and non-increasing n=200..3200")


def test_c11_walk_cutoff_poisson_at_desk_scale():
    for i in (2, 3):
        for c in (-0.5, 0.0, 1.0):
            with mp.workprec(128):
                mean = 1 + mpmath.exp(-i * mpmath.mpf(c))
            for r in (1, 2, 3):
                with mp.workprec(128):
                    reference = +poisson_moment(r, mean)
                errors = {}
                for n in (500, 2000):
                    k = cutoff_steps(n, i, c)
                    moment = moment_icycle_walk(n, i, k, r)
                    errors[n] = abs(float(moment - reference))
                tolerance = 0.05 * (1 + float(reference))
                assert errors[2000] <= tolerance, (i, c, r, errors)
                assert errors[2000] < errors[500], (i, c, r, errors)
    _ok("C11 cutoff walk moments within 5% of Poisson targets at n=2000, shrinking from n=500")


def test_c12_shuffle_shape_law_and_simulation():
    for n in range(1, 7):
        for r in range(0, 5):
            report = top_to_random_shape_check(
                n, r, 1_000_000, seed=SEED + 100 * n + r
            )
            for row in report.rows:
                if row.z is None:
                    if row.probability == 0:
                        assert row.observed == 0
                else:
                    assert abs(row.z) < 5, (n, r, tuple(row.shape), row.z)
    _ok("C12 shuffle shape law matches 10^6-sample runs within 5 sigma")


def test_c13_monte_carlo_vs_exact_engines():
    commutator = fixed_point_histogram("commutator", 5, 1_000_000, seed=SEED)
    for r in (1, 2):
        z = moment_z_score(
            empirical_law(commutator),
            commutator.samples,
            r,
            moment_commutator_random(5, r),
            moment_commutator_random(5, 2 * r),
        )
        assert abs(z) < 4, (r, z)
    walk = fixed_point_histogram("walk", 6, 1_000_000, seed=SEED + 1, i=3, k=4)
    exact = icycle_walk_moments_exact(6, 3, 4, 4)
    for r in (1, 2):
        z = moment_z_score(empirical_law(walk), walk.samples, r, exact[r], exact[2 * r])
        assert abs(z) < 4, (r, z)
    _ok("C13 10^6-sample Monte Carlo within 4 sigma of exact engines (fixed seed)")
