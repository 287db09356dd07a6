"""Exact and Monte Carlo engines for fixed-point statistics of non-uniform
random permutations: commutators with random or fixed factors, and random
i-cycle walks, together with their Poisson limits."""

from .characters import (
    CycleType,
    char_near_one_row,
    char_ratio_icycle,
    character,
    verify_ratio_asymptotics,
)
from .moments import (
    MomentReport,
    cutoff_steps,
    moment_commutator_fixed,
    moment_commutator_fixed_closed,
    moment_commutator_random,
    moment_icycle_walk,
    moment_icycle_walk_exact,
    walk_cutoff_comparison,
    walk_exact_distribution,
    walk_term_at_cutoff,
)
from .multiplicity import mult_large_first_row, mult_oracle, mult_skew, mult_updown
from .partitions import (
    Partition,
    all_partitions,
    conjugate,
    dim,
    frobenius,
    partitions_with_large_first_row,
)
from .setpartitions import bell, occupancy_probability, poisson_moment, stirling
from .simulate import (
    EmpiricalDistribution,
    enumerate_commutator_distribution,
    fixed_point_histogram,
    rsk_shape,
    top_to_random_shape_check,
    tv_to_poisson,
)
from .tableaux import SkewShape, skew_syt_count, skew_syt_large_first_row

__all__ = [
    "CycleType",
    "EmpiricalDistribution",
    "MomentReport",
    "Partition",
    "SkewShape",
    "all_partitions",
    "bell",
    "char_near_one_row",
    "char_ratio_icycle",
    "character",
    "conjugate",
    "cutoff_steps",
    "dim",
    "enumerate_commutator_distribution",
    "fixed_point_histogram",
    "frobenius",
    "moment_commutator_fixed",
    "moment_commutator_fixed_closed",
    "moment_commutator_random",
    "moment_icycle_walk",
    "moment_icycle_walk_exact",
    "mult_large_first_row",
    "mult_oracle",
    "mult_skew",
    "mult_updown",
    "occupancy_probability",
    "partitions_with_large_first_row",
    "poisson_moment",
    "rsk_shape",
    "skew_syt_count",
    "skew_syt_large_first_row",
    "stirling",
    "top_to_random_shape_check",
    "tv_to_poisson",
    "verify_ratio_asymptotics",
    "walk_cutoff_comparison",
    "walk_exact_distribution",
    "walk_term_at_cutoff",
]
