"""Exact and Monte Carlo engines for fixed-point statistics of non-uniform
random permutations: commutators with random or fixed factors, and random
i-cycle walks, together with their Poisson limits.

The seeded sampler is imported from permfix.simulate, the one module that
needs numpy."""

from .characters import (
    CycleType,
    char_ratio_icycle,
    character,
    verify_ratio_asymptotics,
)
from .laws import bell, occupancy_probability, poisson_moment, stirling
from .moments import (
    cutoff_steps,
    enumerate_commutator_distribution,
    moment_commutator_fixed,
    moment_commutator_fixed_closed,
    moment_commutator_random,
    moment_icycle_walk,
    walk_exact_distribution,
    walk_term_at_cutoff,
)
from .multiplicity import mult_large_first_row, mult_oracle, mult_skew, mult_updown
from .partitions import (
    Partition,
    all_partitions,
    conjugate,
    dim,
    partitions_with_large_first_row,
)
from .tableaux import skew_syt_count, skew_syt_large_first_row

__all__ = [
    "CycleType",
    "Partition",
    "all_partitions",
    "bell",
    "char_ratio_icycle",
    "character",
    "conjugate",
    "cutoff_steps",
    "dim",
    "enumerate_commutator_distribution",
    "moment_commutator_fixed",
    "moment_commutator_fixed_closed",
    "moment_commutator_random",
    "moment_icycle_walk",
    "mult_large_first_row",
    "mult_oracle",
    "mult_skew",
    "mult_updown",
    "occupancy_probability",
    "partitions_with_large_first_row",
    "poisson_moment",
    "skew_syt_count",
    "skew_syt_large_first_row",
    "stirling",
    "verify_ratio_asymptotics",
    "walk_exact_distribution",
    "walk_term_at_cutoff",
]
