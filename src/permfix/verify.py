"""Self-check gates grouped into suites, surfaced through the CLI.

GATES is the registry: one Gate per self-check, holding its suite, its
name, a check written once and the grid `permfix verify` runs it on; the
acceptance tests run the same checks on larger grids. A check takes its
grid as keyword arguments and returns (passed, detail), detail being a
machine-readable payload. The identities suite checks exact algebraic
identities, the oracles suite compares engines against exhaustive
enumeration, and the asymptotics suite records convergence sequences and
checks that they move the right way (the limits carry no explicit rates).
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import permutations
from math import factorial
from typing import Callable

from .characters import (
    CycleType,
    _char,
    character,
    class_column,
    commutator_perm,
    perm_cycle_type,
    perm_from_cycle_type,
    verify_ratio_asymptotics,
)
from .laws import bell, moment, occupancy_probability, poisson_moment
from .moments import (
    commutator_fixed_moments,
    commutator_random_moments,
    cutoff_steps,
    enumerate_commutator_distribution,
    icycle_walk_moments_exact,
    icycle_walk_report,
    walk_exact_distribution,
    walk_term_at_cutoff,
)
from .multiplicity import exact_shape_distribution, mult_by_route, mult_skew
from .partitions import Partition, all_partitions, dim, large_first_row_tuples, partition_tuples

# Largest scaled deviation max |ratio - limit| * n^2 accepted at the first
# n of a ratio-decay grid.
RATIO_CONSTANT_BOUND = 50


@dataclass(frozen=True)
class GateResult:
    suite: str
    gate: str
    passed: bool
    detail: dict


@dataclass(frozen=True)
class Gate:
    suite: str
    name: str
    check: Callable[..., tuple[bool, dict]]
    grid: dict

    def run(self, grid: dict | None = None) -> GateResult:
        """The check on the given grid, or on the pinned verify grid."""
        passed, detail = self.check(**(self.grid if grid is None else grid))
        return GateResult(suite=self.suite, gate=self.name, passed=bool(passed), detail=detail)


GATES: dict[str, Gate] = {}


def _gate(suite: str, name: str, **grid):
    """Register the decorated check as a gate that `permfix verify` runs on grid."""
    def register(check):
        GATES[name] = Gate(suite, name, check, grid)
        return check
    return register


@_gate("identities", "dimension-squares-sum-to-factorial", ns=range(10))
def _dimension_squares(ns):
    ok = all(sum(dim(lam) ** 2 for lam in all_partitions(n)) == factorial(n) for n in ns)
    return ok, {"n_max": max(ns)}


@_gate("identities", "tensor-dimension-identity", ns=range(1, 8), rs=range(6))
def _tensor_dimension(ns, rs):
    bad = [
        (n, r)
        for n in ns
        for r in rs
        if sum(mult_skew(lam, r) * dim(lam) for lam in all_partitions(n)) != n ** r
    ]
    return not bad, {"failures": bad}


@_gate("identities", "multiplicity-cross-agreement", ns=range(1, 6), rs=range(5))
def _multiplicity_agreement(ns, rs):
    bad = [
        (tuple(lam), r)
        for n in ns
        for lam in all_partitions(n)
        for r in rs
        if len(set(mult_by_route(lam, r).values())) != 1
    ]
    return not bad, {"failures": bad}


@_gate("identities", "occupancy-normalization", ns=range(1, 11), rs=range(11))
def _occupancy_normalization(ns, rs):
    ok = all(sum(occupancy_probability(a, r, n) for a in range(min(r, n) + 1)) == 1
             for r in rs for n in ns)
    return ok, {}


@_gate("identities", "poisson-unit-moments-are-bell", rs=range(16))
def _poisson_unit_moments(rs):
    return all(poisson_moment(r, 1) == bell(r) for r in rs), {}


@_gate("identities", "near-one-row-closed-forms", ns=range(1, 9))
def _near_one_row(ns):
    # Both routes of class_column, the column (2 below >= n) and the
    # polynomial from sum (-1)^j e_j, against Murnaghan-Nakayama at every
    # below, on every shape with at most below cells under the first row.
    bad = [
        (lam, mu, below)
        for n in ns
        for mu in partition_tuples(n, n)
        for below in range(n + 1)
        for lam in large_first_row_tuples(n, below)
        if class_column(mu, below).get(lam, 0) != _char(lam, mu)
    ]
    return not bad, {"failures": bad}


@_gate("identities", "class-columns-vs-murnaghan-nakayama", ns=range(1, 8))
def _class_columns(ns):
    # The forward pass's whole column against Murnaghan-Nakayama shape by
    # shape: the same nonzero values, on the same shapes, at every class.
    bad = []
    for n in ns:
        shapes = list(partition_tuples(n, n))
        bad += [
            mu
            for mu in shapes
            if class_column(mu, n) != {lam: v for lam in shapes if (v := _char(lam, mu))}
        ]
    return not bad, {"failures": bad}


@_gate("identities", "single-cycle-hook-support", ns=range(2, 9))
def _single_cycle_hooks(ns):
    # |chi(n-cycle)| is 1 on hooks, whose parts below the first are all 1, and 0 elsewhere.
    bad = [
        tuple(lam)
        for n in ns
        for lam in all_partitions(n)
        if abs(character(lam, (n,))) != (set(lam[1:]) <= {1})
    ]
    return not bad, {"failures": bad}


@_gate("oracles", "commutator-random-vs-enumeration",
       ns=range(2, 6), rs=range(1, 4), bell_points=())
def _commutator_random_enumeration(ns, rs, bell_points):
    """Engine against enumeration on ns x rs, and the engine's Bell lower
    bound at each (n, r) of bell_points, r <= n, where the one-row shape
    supplies it."""
    bad = []
    for n in ns:
        dist = enumerate_commutator_distribution(n)
        engine = commutator_random_moments(n, max(rs))
        bad += [(n, r) for r in rs if moment(dist, r) != engine[r]]
    orders: dict[int, list[int]] = {}
    for n, r in bell_points:
        orders.setdefault(n, []).append(r)
    for n, n_rs in orders.items():
        engine = commutator_random_moments(n, max(n_rs))
        bad += [(n, r, "bell") for r in n_rs if engine[r] < bell(r)]
    return not bad, {"failures": bad}


@_gate("oracles", "commutator-fixed-vs-enumeration", ns=range(2, 6), rs=range(1, 4))
def _commutator_fixed_enumeration(ns, rs):
    bad = []
    for n in ns:
        for x_parts in all_partitions(n):
            x = CycleType(x_parts)
            dist = enumerate_commutator_distribution(n, x)
            engine = commutator_fixed_moments(n, x, max(rs))
            bad += [(n, tuple(x), r) for r in rs if moment(dist, r) != engine[r]]
    return not bad, {"failures": bad}


@_gate("oracles", "conjugation-average-functional-equation",
       points=[(n, perm_from_cycle_type(x)) for n in range(2, 5) for x in all_partitions(n)])
def _conjugation_average(points):
    """E_g chi(g^-1 x^-1 g x) = chi(x)^2 / dim by enumerating g, at each (n, x)."""
    bad = []
    for n, x in points:
        hist = Counter(perm_cycle_type(commutator_perm(g, x)) for g in permutations(range(n)))
        x_ct = perm_cycle_type(x)
        for lam in all_partitions(n):
            lhs = Fraction(
                sum(count * character(lam, ct) for ct, count in hist.items()), factorial(n)
            )
            if lhs != Fraction(character(lam, x_ct) ** 2, dim(lam)):
                bad.append((tuple(lam), tuple(x_ct)))
    return not bad, {"failures": bad}


@_gate("oracles", "walk-moments-vs-class-inversion",
       points=[(n, i, k) for n in range(3, 7) for i in (2, 3) for k in range(9)], rs=range(1, 3))
def _walk_class_inversion(points, rs):
    """At each (n, i, k): the class-inversion law is a probability law and
    its moments equal the engine's."""
    bad = []
    for n, i, k in points:
        dist = walk_exact_distribution(n, i, k)
        if sum(dist.values()) != 1 or min(dist.values()) < 0:
            bad.append((n, i, k, "law"))
        engine = icycle_walk_moments_exact(n, i, k, max(rs))
        bad += [(n, i, k, r) for r in rs if moment(dist, r) != engine[r]]
    return not bad, {"failures": bad}


@_gate("oracles", "shuffle-shape-law-normalization", ns=range(2, 6), rs=range(4))
def _shape_law_normalization(ns, rs):
    bad = [(n, r) for n in ns for r in rs if sum(exact_shape_distribution(n, r).values()) != 1]
    return not bad, {"failures": bad}


def _ratio_decay(i, t, ns):
    """Scaled ratio deviations along ns: bounded at the first n, then non-increasing."""
    seq = verify_ratio_asymptotics(i, t, ns)
    ok = seq[0] < RATIO_CONSTANT_BOUND and all(a >= b for a, b in zip(seq, seq[1:]))
    return ok, {"scaled_errors": [float(v) for v in seq], "n_grid": list(ns)}


for _i, _t in ((2, 1), (2, 2), (3, 1)):
    _gate("asymptotics", f"icycle-ratio-decay-i{_i}-t{_t}",
          i=_i, t=_t, ns=[100, 200, 400])(_ratio_decay)


@_gate("asymptotics", "walk-term-approaches-limit",
       tails=((), (1,), (2,)), ns=(200, 400), precision_bits=128)
def _walk_term_limit(tails, ns, precision_bits):
    """The walk's cutoff term of (n - |tail|, *tail) approaches its limit along ns."""
    bad = []
    records = []
    for tail in tails:
        t = sum(tail)
        gaps = []
        for n in ns:
            term, limit = walk_term_at_cutoff(Partition((n - t, *tail)), 2, 0.0, n, precision_bits)
            gaps.append(abs(float(term - limit)))
        records.append({"t": t, "gaps": gaps})
        if any(b > a + 1e-12 for a, b in zip(gaps, gaps[1:])):
            bad.append(t)
    return not bad, {"records": records}


@_gate("asymptotics", "commutator-moment-poisson-rate", ns=(20, 40, 80), rs=range(1, 4))
def _poisson_rate(ns, rs):
    """(E fix^r - Bell(r)) * n along ns: positive at the first n, then
    non-increasing and nonnegative, so the gap is at most its first
    value over n."""
    engine = {n: commutator_random_moments(n, max(rs)) for n in ns}
    records = []
    ok = True
    for r in rs:
        seq = [(engine[n][r] - bell(r)) * n for n in ns]
        records.append({"r": r, "scaled_gaps": [float(v) for v in seq]})
        ok = ok and seq[0] > 0 and seq[-1] >= 0 and all(a >= b for a, b in zip(seq, seq[1:]))
    return ok, {"records": records}


@_gate("asymptotics", "walk-cutoff-mean-near-poisson", n=300, i=2, c=0.0, precision_bits=128)
def _walk_cutoff_mean(n, i, c, precision_bits):
    report = icycle_walk_report(n, i, cutoff_steps(n, i, c), 1, c=c, precision_bits=precision_bits)
    gap = abs(float(report["table"][0]["difference"]))
    return gap < 0.1, {"n": n, "i": i, "c": c, "steps": report["params"]["k"], "gap": gap}


SUITES = ("identities", "oracles", "asymptotics")


def run_suite(name: str) -> list[GateResult]:
    if name != "all" and name not in SUITES:
        raise ValueError(f"unknown suite {name!r}")
    return [gate.run() for gate in GATES.values() if name in ("all", gate.suite)]
