"""Self-check gates grouped into suites, surfaced through the CLI.

Each gate returns a GateResult with a machine-readable detail payload.
The identities suite checks exact algebraic identities, the oracles
suite compares engines against exhaustive enumeration, and the
asymptotics suite records convergence sequences and checks that they
move the right way (no universal constants are asserted: the limits
carry no explicit rates).
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import permutations
from math import factorial

from .characters import (
    CycleType,
    _char,
    character,
    perm_cycle_type,
    verify_ratio_asymptotics,
)
from .moments import (
    commutator_fixed_moments,
    commutator_random_moments,
    icycle_walk_moments_exact,
    walk_cutoff_comparison,
    walk_exact_distribution,
    walk_term_at_cutoff,
)
from .multiplicity import mult_large_first_row, mult_oracle, mult_skew, mult_updown
from .partitions import Partition, all_partitions, dim
from .setpartitions import bell, occupancy_probability, poisson_moment
from .simulate import (
    commutator_perm,
    enumerate_commutator_distribution,
    exact_moment,
    exact_shape_distribution,
)


@dataclass(frozen=True)
class GateResult:
    suite: str
    gate: str
    passed: bool
    detail: dict


def _gate(suite, gate, passed, **detail) -> GateResult:
    return GateResult(suite=suite, gate=gate, passed=bool(passed), detail=detail)


def identities_suite() -> list[GateResult]:
    results = []

    ok = all(
        sum(dim(lam) ** 2 for lam in all_partitions(n)) == factorial(n)
        for n in range(0, 10)
    )
    results.append(_gate("identities", "dimension-squares-sum-to-factorial", ok, n_max=9))

    bad = [
        (n, r)
        for n in range(1, 8)
        for r in range(0, 6)
        if sum(mult_skew(lam, r) * dim(lam) for lam in all_partitions(n)) != n ** r
    ]
    results.append(_gate("identities", "tensor-dimension-identity", not bad, failures=bad))

    bad = []
    for n in range(1, 6):
        for lam in all_partitions(n):
            second = lam[1] if len(lam) > 1 else 0
            for r in range(0, 5):
                ms = mult_skew(lam, r)
                if ms != mult_updown(lam, r) or ms != mult_oracle(lam, r):
                    bad.append((tuple(lam), r))
                elif 1 <= r <= n - second and ms != mult_large_first_row(lam, r):
                    bad.append((tuple(lam), r, "first-row"))
    results.append(_gate("identities", "multiplicity-cross-agreement", not bad, failures=bad))

    ok = all(
        sum(occupancy_probability(a, r, n) for a in range(min(r, n) + 1)) == 1
        for r in range(0, 11)
        for n in range(1, 11)
    )
    results.append(_gate("identities", "occupancy-normalization", ok))

    ok = all(poisson_moment(r, 1) == bell(r) for r in range(16))
    results.append(_gate("identities", "poisson-unit-moments-are-bell", ok))

    # Character polynomials against Murnaghan-Nakayama on every shape they serve.
    bad = [
        (tuple(lam), tuple(mu))
        for n in range(4, 9)
        for mu in all_partitions(n)
        for lam in all_partitions(n)
        if 2 * lam[0] >= n and character(lam, mu) != _char(tuple(lam), tuple(mu))
    ]
    results.append(_gate("identities", "near-one-row-closed-forms", not bad, failures=bad))

    bad = []
    for n in range(2, 9):
        hooks = {Partition((n - j, *(1,) * j)) for j in range(n)}
        for lam in all_partitions(n):
            value = character(lam, (n,))
            if lam in hooks:
                if abs(value) != 1:
                    bad.append(tuple(lam))
            elif value != 0:
                bad.append(tuple(lam))
    results.append(_gate("identities", "single-cycle-hook-support", not bad, failures=bad))

    return results


def oracles_suite() -> list[GateResult]:
    results = []

    bad = []
    for n in range(2, 6):
        dist = enumerate_commutator_distribution(n)
        engine = commutator_random_moments(n, 3)
        for r in range(1, 4):
            if exact_moment(dist, r) != engine[r]:
                bad.append((n, r))
    results.append(
        _gate("oracles", "commutator-random-vs-enumeration", not bad, failures=bad)
    )

    bad = []
    for n in range(2, 6):
        for x_parts in all_partitions(n):
            x = CycleType(x_parts)
            dist = enumerate_commutator_distribution(n, x)
            engine = commutator_fixed_moments(n, x, 3)
            for r in range(1, 4):
                if exact_moment(dist, r) != engine[r]:
                    bad.append((n, tuple(x), r))
    results.append(
        _gate("oracles", "commutator-fixed-vs-enumeration", not bad, failures=bad)
    )

    bad = []
    for n in range(2, 5):
        perms = list(permutations(range(n)))
        reps = {}
        for x in perms:
            reps.setdefault(perm_cycle_type(x), x)
        for x_ct, x in reps.items():
            hist = {}
            for g in perms:
                ct = perm_cycle_type(commutator_perm(g, x))
                hist[ct] = hist.get(ct, 0) + 1
            for lam in all_partitions(n):
                lhs = Fraction(
                    sum(count * character(lam, ct) for ct, count in hist.items()),
                    factorial(n),
                )
                rhs = Fraction(character(lam, x_ct) ** 2, dim(lam))
                if lhs != rhs:
                    bad.append((tuple(lam), tuple(x_ct)))
    results.append(
        _gate("oracles", "conjugation-average-functional-equation", not bad, failures=bad)
    )

    bad = []
    for n in range(3, 7):
        for i in (2, 3):
            if i > n:
                continue
            for k in range(0, 9):
                dist = walk_exact_distribution(n, i, k)
                engine = icycle_walk_moments_exact(n, i, k, 2)
                for r in range(1, 3):
                    if exact_moment(dist, r) != engine[r]:
                        bad.append((n, i, k, r))
    results.append(_gate("oracles", "walk-moments-vs-class-inversion", not bad, failures=bad))

    bad = []
    for n in range(2, 6):
        for r in range(0, 4):
            dist = exact_shape_distribution(n, r)
            if sum(dist.values()) != 1:
                bad.append((n, r))
    results.append(
        _gate("oracles", "shuffle-shape-law-normalization", not bad, failures=bad)
    )

    return results


def asymptotics_suite(precision_bits: int = 128) -> list[GateResult]:
    results = []

    for i, t in ((2, 1), (2, 2), (3, 1)):
        report = verify_ratio_asymptotics(i, t, [100, 200, 400])
        seq = [row.max_scaled_error for row in report.rows]
        ok = all(seq[j] >= seq[j + 1] for j in range(len(seq) - 1))
        results.append(
            _gate(
                "asymptotics",
                f"icycle-ratio-decay-i{i}-t{t}",
                ok,
                scaled_errors=[float(v) for v in seq],
                n_grid=[100, 200, 400],
            )
        )

    bad = []
    records = []
    for lam_tail, t in (((), 0), ((1,), 1), ((2,), 2)):
        gaps = []
        for n in (200, 400):
            lam = Partition((n - t, *lam_tail))
            term = walk_term_at_cutoff(lam, 2, 0.0, n, precision_bits)
            gaps.append(abs(float(term.term - term.limit)))
        records.append({"t": t, "gaps": gaps})
        if gaps[1] > gaps[0] + 1e-12:
            bad.append(t)
    results.append(
        _gate("asymptotics", "walk-term-approaches-limit", not bad, records=records)
    )

    engine = {n: commutator_random_moments(n, 3) for n in (20, 40, 80)}
    records = []
    ok = True
    for r in range(1, 4):
        seq = [float((engine[n][r] - bell(r)) * n) for n in (20, 40, 80)]
        records.append({"r": r, "scaled_gaps": seq})
        ok = ok and seq[0] >= seq[1] >= seq[2] >= 0
    results.append(
        _gate("asymptotics", "commutator-moment-poisson-rate", ok, records=records)
    )

    n, i, c = 300, 2, 0.0
    report = walk_cutoff_comparison(n, i, c, 1, precision_bits)
    gap = abs(float(report.difference[0]))
    results.append(
        _gate(
            "asymptotics",
            "walk-cutoff-mean-near-poisson",
            gap < 0.1,
            n=n, i=i, c=c, steps=report.params["k"], gap=gap,
        )
    )

    return results


SUITES = {
    "identities": identities_suite,
    "oracles": oracles_suite,
    "asymptotics": asymptotics_suite,
}


def run_suite(name: str) -> list[GateResult]:
    if name == "all":
        out = []
        for fn in SUITES.values():
            out.extend(fn())
        return out
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}")
    return SUITES[name]()
