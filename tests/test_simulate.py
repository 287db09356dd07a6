import tracemalloc
from fractions import Fraction
from itertools import permutations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from oracles import (
    lis_length,
    rsk_shape,
    sample_commutator,
    sample_icycle,
    sample_icycle_walk,
    sample_uniform,
    stick_breaking_ones_laws,
    top_to_random_shape_check,
    top_to_random_step,
    uniform_fixed_histogram_by_enumeration,
)
from permfix.characters import CycleType, perm_cycle_type
from permfix.errors import EnumerationLimitError, ValidationError
from permfix.moments import (
    moment_commutator_random,
    walk_exact_distribution,
)
from permfix import simulate
from permfix.partitions import Partition
from permfix.simulate import (
    EmpiricalDistribution,
    commutator_perm,
    compose,
    enumerate_commutator_distribution,
    exact_moment,
    exact_shape_distribution,
    fixed_point_count,
    fixed_point_histogram,
    inverse,
    make_rng,
    moment_z_score,
    perm_from_cycle_type,
    tv_to_poisson,
    uniform_fixed_distribution_exact,
)
from strategies import permutation_words


def test_compose_and_inverse():
    g = (1, 2, 0)
    assert compose(g, inverse(g)) == (0, 1, 2)
    assert inverse((2, 0, 1)) == (1, 2, 0)


def test_commutator_perm_matches_definition():
    for g in permutations(range(4)):
        for x in ((1, 0, 3, 2), (1, 2, 3, 0)):
            direct = compose(compose(inverse(g), inverse(x)), compose(g, x))
            assert commutator_perm(g, x) == direct


def test_perm_from_cycle_type_roundtrip():
    for parts in ((3, 2, 1), (4,), (2, 2), (1, 1, 1)):
        g = perm_from_cycle_type(parts)
        assert perm_cycle_type(g) == CycleType(parts)


def test_sample_uniform_trivial():
    rng = make_rng(1)
    for _ in range(5):
        assert sample_uniform(1, rng) == (0,)


def test_sample_commutator_tiny_and_fixed_identity():
    rng = make_rng(2)
    for _ in range(20):
        assert sample_commutator(2, rng) == (0, 1)
        assert sample_commutator(5, rng, x=(0, 1, 2, 3, 4)) == (0, 1, 2, 3, 4)


def test_sample_icycle_is_an_icycle():
    rng = make_rng(3)
    for n, i in ((5, 2), (6, 3), (7, 7)):
        for _ in range(50):
            ct = perm_cycle_type(sample_icycle(n, i, rng))
            assert tuple(ct) == (i,) + (1,) * (n - i)


def test_sample_icycle_uniformity():
    rng = make_rng(4)
    counts: dict = {}
    samples = 30000
    for _ in range(samples):
        cycle = sample_icycle(4, 2, rng)
        counts[cycle] = counts.get(cycle, 0) + 1
    # 6 transpositions; 5-sigma binomial band
    p = 1 / 6
    sigma = (samples * p * (1 - p)) ** 0.5
    assert len(counts) == 6
    for c in counts.values():
        assert abs(c - samples * p) < 5 * sigma


def test_walk_sampler_edges():
    rng = make_rng(5)
    assert sample_icycle_walk(6, 3, 0, rng) == tuple(range(6))
    for _ in range(20):
        g = sample_icycle_walk(8, 2, 1, rng)
        assert fixed_point_count(g) == 6


def test_no_sample_has_n_minus_one_fixed_points():
    rng = make_rng(6)
    for _ in range(200):
        for g in (
            sample_uniform(5, rng),
            sample_commutator(5, rng),
            sample_icycle_walk(5, 2, 3, rng),
        ):
            assert fixed_point_count(g) != 4


def test_rsk_shape_examples():
    assert rsk_shape((0, 1, 2, 3)) == (4,)
    assert rsk_shape((3, 2, 1, 0)) == (1, 1, 1, 1)
    assert rsk_shape((1, 0, 3, 2)) == (2, 2)


def test_rsk_shape_exhaustive_small():
    from permfix.partitions import all_partitions, dim

    for n in range(1, 7):
        shape_counts = {}
        for g in permutations(range(n)):
            shape = rsk_shape(g)
            shape_counts[shape] = shape_counts.get(shape, 0) + 1
        # RSK is a bijection onto pairs of same-shape tableaux
        for lam in all_partitions(n):
            assert shape_counts.get(lam, 0) == dim(lam) ** 2


@given(permutation_words(max_n=10))
def test_rsk_first_part_is_lis(word):
    assert rsk_shape(word)[0] == lis_length(word)


def test_rsk_first_part_is_lis_exhaustive():
    for n in range(1, 7):
        for g in permutations(range(n)):
            assert rsk_shape(g)[0] == lis_length(g)


def test_rsk_shape_invariant_under_inverse():
    for g in permutations(range(5)):
        assert rsk_shape(g) == rsk_shape(inverse(g))


def test_top_to_random_step():
    deck = (0, 1, 2, 3)
    assert top_to_random_step(deck, 0) == (0, 1, 2, 3)
    assert top_to_random_step(deck, 1) == (1, 0, 2, 3)
    assert top_to_random_step(deck, 3) == (1, 2, 3, 0)


def test_exact_shape_distribution_examples():
    dist = exact_shape_distribution(4, 2)
    assert dist[Partition((4,))] == Fraction(2, 16)
    zero = exact_shape_distribution(5, 0)
    assert zero[Partition((5,))] == 1


def test_exact_shape_distribution_matches_sequence_enumeration():
    from itertools import product

    for n, r in ((3, 3), (4, 2), (5, 2)):
        counts = {}
        for seq in product(range(n), repeat=r):
            deck = tuple(range(n))
            for pos in seq:
                deck = top_to_random_step(deck, pos)
            shape = rsk_shape(deck)
            counts[shape] = counts.get(shape, 0) + 1
        dist = exact_shape_distribution(n, r)
        for shape, p in dist.items():
            assert p == Fraction(counts.get(shape, 0), n ** r)


def test_top_to_random_shape_check_small():
    report = top_to_random_shape_check(5, 3, 200_000, seed=11)
    assert report.samples == 200_000
    assert sum(row.observed for row in report.rows) == 200_000
    for row in report.rows:
        if row.z is not None:
            assert abs(row.z) < 5
        elif row.probability == 0:
            assert row.observed == 0


def test_top_to_random_r_zero():
    report = top_to_random_shape_check(4, 0, 1000, seed=1)
    full_row = next(r for r in report.rows if r.shape == (4,))
    assert full_row.observed == 1000


def test_enumerate_commutator_distribution_tiny():
    assert enumerate_commutator_distribution(2) == {2: Fraction(1)}
    assert enumerate_commutator_distribution(3) == {
        0: Fraction(1, 2),
        3: Fraction(1, 2),
    }


def test_enumerate_commutator_fixed_examples():
    dist = enumerate_commutator_distribution(5, (5,))
    assert exact_moment(dist, 1) == Fraction(5, 4)
    identity = enumerate_commutator_distribution(4, (1, 1, 1, 1))
    assert identity == {4: Fraction(1)}


def test_enumerate_commutator_limits():
    with pytest.raises(EnumerationLimitError):
        enumerate_commutator_distribution(7)
    with pytest.raises(EnumerationLimitError):
        enumerate_commutator_distribution(8, (8,))


def test_uniform_fixed_distribution_exact_vs_enumeration():
    for n in range(1, 7):
        assert uniform_fixed_distribution_exact(n) == uniform_fixed_histogram_by_enumeration(n)


def test_stick_breaking_draws_the_derangement_law():
    laws = stick_breaking_ones_laws(30)
    for n in range(1, 31):
        assert laws[n] == uniform_fixed_distribution_exact(n), n


def test_empirical_distribution_moments_are_exact_fractions():
    dist = EmpiricalDistribution(samples=4, histogram={0: 1, 1: 2, 3: 1})
    assert dist.moment(1) == Fraction(5, 4)
    assert dist.moment(2) == Fraction(11, 4)


def test_fixed_point_histogram_deterministic():
    a = fixed_point_histogram("walk", 6, 50_000, seed=9, i=3, k=4)
    b = fixed_point_histogram("walk", 6, 50_000, seed=9, i=3, k=4)
    assert a.histogram == b.histogram
    c = fixed_point_histogram("walk", 6, 50_000, seed=10, i=3, k=4)
    assert c.histogram != a.histogram


def test_fixed_point_histogram_threads_do_not_change_result():
    a = fixed_point_histogram("commutator", 5, 300_000, seed=3, threads=1)
    b = fixed_point_histogram("commutator", 5, 300_000, seed=3, threads=4)
    assert a.histogram == b.histogram


def test_histogram_supports_are_legal():
    for model, kwargs in (
        ("uniform", {}),
        ("commutator", {}),
        ("walk", {"i": 2, "k": 3}),
    ):
        dist = fixed_point_histogram(model, 6, 20_000, seed=1, **kwargs)
        assert sum(dist.histogram.values()) == 20_000
        assert all(0 <= j <= 6 and j != 5 for j in dist.histogram)


def test_uniform_histogram_matches_exact_law():
    dist = fixed_point_histogram("uniform", 4, 200_000, seed=21)
    exact = uniform_fixed_distribution_exact(4)
    z1 = moment_z_score(dist, 1, exact_moment(exact, 1), exact_moment(exact, 2))
    assert abs(z1) < 5


def test_commutator_histogram_matches_engine():
    dist = fixed_point_histogram("commutator", 5, 200_000, seed=22)
    z = moment_z_score(
        dist, 1, moment_commutator_random(5, 1), moment_commutator_random(5, 2)
    )
    assert abs(z) < 5


def test_commutator_histogram_matches_enumerated_law():
    dist = fixed_point_histogram("commutator", 6, 200_000, seed=27)
    exact = enumerate_commutator_distribution(6)
    assert set(dist.histogram) <= set(exact)
    chi_sq = sum(
        (dist.histogram.get(j, 0) - float(p) * dist.samples) ** 2 / (float(p) * dist.samples)
        for j, p in exact.items()
    )
    assert chi_sq < _chi_square_bound(len(exact)), chi_sq


def test_commutator_fixed_histogram_matches_enumeration():
    x = (3, 2)
    dist = fixed_point_histogram("commutator", 5, 200_000, seed=23, x=x)
    exact = enumerate_commutator_distribution(5, x)
    z = moment_z_score(dist, 1, exact_moment(exact, 1), exact_moment(exact, 2))
    assert abs(z) < 5


def test_walk_histogram_matches_exact_distribution():
    dist = fixed_point_histogram("walk", 4, 200_000, seed=24, i=2, k=2)
    exact = walk_exact_distribution(4, 2, 2)
    for j, p in exact.items():
        observed = dist.histogram.get(j, 0)
        sigma = (float(p) * (1 - float(p)) * dist.samples) ** 0.5
        assert abs(observed - float(p) * dist.samples) < 5 * sigma


def test_commutator_class_frequencies_match_enumeration():
    # Class-level (not just fixed-point-level) agreement at n = 4: the
    # scalar sampler at 10^5 draws and a vectorized run at 10^6 draws.
    import numpy as np

    n = 4
    perms = list(permutations(range(n)))
    class_counts: dict = {}
    for g in perms:
        for x in perms:
            ct = perm_cycle_type(commutator_perm(g, x))
            class_counts[ct] = class_counts.get(ct, 0) + 1
    total = len(perms) ** 2

    def check(observed: dict, samples: int) -> None:
        for ct, count in class_counts.items():
            p = count / total
            sigma = (samples * p * (1 - p)) ** 0.5
            assert abs(observed.get(ct, 0) - samples * p) < 5 * sigma, ct

    rng = make_rng(25)
    samples = 100_000
    observed: dict = {}
    for _ in range(samples):
        ct = perm_cycle_type(sample_commutator(n, rng))
        observed[ct] = observed.get(ct, 0) + 1
    check(observed, samples)

    # At n = 4 the pair (fix(c), fix(c*c)) separates the cycle types.
    signature_to_type = {}
    for g in perms:
        ct = perm_cycle_type(g)
        fix = sum(1 for j in range(n) if g[j] == j)
        fix2 = sum(1 for j in range(n) if g[g[j]] == j)
        signature_to_type[(fix, fix2)] = ct
    rng = make_rng(26)
    big = 1_000_000
    rows = np.arange(big)[:, None]
    g = rng.permuted(np.tile(np.arange(n), (big, 1)), axis=1)
    x = rng.permuted(np.tile(np.arange(n), (big, 1)), axis=1)
    inv_g = np.argsort(g, axis=1)
    inv_x = np.argsort(x, axis=1)
    c = inv_g[rows, inv_x[rows, g[rows, x]]]
    fix = (c == np.arange(n)).sum(axis=1)
    fix2 = (np.take_along_axis(c, c, axis=1) == np.arange(n)).sum(axis=1)
    observed_big: dict = {}
    pairs, counts = np.unique(np.stack([fix, fix2], axis=1), axis=0, return_counts=True)
    for (f, f2), count in zip(map(tuple, pairs), counts):
        observed_big[signature_to_type[(f, f2)]] = int(count)
    check(observed_big, big)


def test_uniform_sampler_hits_every_permutation_uniformly():
    # The shuffle behind the commutator's uniform g.
    import numpy as np

    n, samples = 4, 120_000
    rng = make_rng(27)
    g = simulate._shuffled(np.empty((samples, n), dtype=np.int64), rng)
    codes = g @ (n ** np.arange(n - 1, -1, -1))
    counts = np.unique(codes, return_counts=True)[1]
    assert len(counts) == 24
    p = 1 / 24
    sigma = (samples * p * (1 - p)) ** 0.5
    assert all(abs(c - samples * p) < 5 * sigma for c in counts)


def test_tv_to_poisson_edges():
    assert tv_to_poisson({0: Fraction(1)}, 0.0) == 0.0
    near = tv_to_poisson(
        {j: Fraction(2, 3) if j == 0 else Fraction(1, 3) for j in (0, 1)}, 0.0
    )
    assert near == pytest.approx(1 / 3)


def test_tv_to_poisson_uniform_n6():
    dist = uniform_fixed_distribution_exact(6)
    tv = tv_to_poisson(dist, 1.0)
    assert 0 < tv < 0.02


def test_tv_to_poisson_rejects_negative_mean():
    with pytest.raises(ValidationError):
        tv_to_poisson({0: Fraction(1)}, -1.0)


def test_fixed_point_histogram_validation():
    with pytest.raises(ValidationError):
        fixed_point_histogram("nope", 4, 10, seed=0)
    with pytest.raises(ValidationError):
        fixed_point_histogram("walk", 4, 10, seed=0)
    with pytest.raises(ValidationError):
        fixed_point_histogram("walk", 4, 10, seed=0, i=9, k=1)


# Histograms of stream version 1, before chunks were sized from n: every
# n <= 128 keeps its 2^17-row chunks, so the fixed-x one must not move.
# Each run spans a full chunk and part of a second.
PINNED_SAMPLES = (1 << 17) + 5000
PINNED_HISTOGRAMS = [
    # Uniform samples are drawn by cycle lengths since version 5; this is
    # its version 5 histogram.
    (
        ("uniform", 64, 61, {}),
        {0: 50046, 1: 50197, 2: 24932, 3: 8392, 4: 2063, 5: 361, 6: 76, 7: 3, 8: 1, 9: 1},
    ),
    # Both-random x rows come from a child stream since version 4; this is
    # its version 4 histogram.
    (
        ("commutator", 32, 62, {}),
        {0: 48365, 1: 50051, 2: 25958, 3: 8851, 4: 2280, 5: 469, 6: 81, 7: 16, 8: 1},
    ),
    (
        ("commutator", 32, 63, {"x": (5, 4, 3, 3, 3, 3, 3, 2, 2, 2, 2)}),
        {0: 49762, 1: 48845, 2: 25166, 3: 8948, 4: 2575, 5: 614, 6: 131, 7: 22, 8: 7, 9: 1,
         12: 1},
    ),
    # The walk's draws changed in stream version 3; this is its version 3 histogram.
    (
        ("walk", 50, 64, {"i": 3, "k": 10}),
        {20: 4, 21: 61, 22: 548, 23: 2576, 24: 7961, 25: 16689, 26: 25584, 27: 28693,
         28: 24535, 29: 16144, 30: 8253, 31: 3457, 32: 1152, 33: 327, 34: 76, 35: 8, 36: 3,
         37: 1},
    ),
]


@pytest.mark.parametrize("run, histogram", PINNED_HISTOGRAMS)
def test_seeded_histograms_at_small_n_are_pinned(run, histogram):
    model, n, seed, kwargs = run
    dist = fixed_point_histogram(model, n, PINNED_SAMPLES, seed=seed, **kwargs)
    assert dist.histogram == histogram
    assert dist.stream_version == 5


def test_chunks_shrink_only_beyond_n_128():
    assert all(simulate._chunk_rows(n) == 1 << 17 for n in range(1, 129))
    assert simulate._chunk_rows(129) < 1 << 17
    assert simulate._chunk_rows(10 ** 9) == 1


@pytest.mark.parametrize("sub_cells", [1, 7, 100, 1 << 20])
def test_sub_batch_size_changes_no_histogram(monkeypatch, sub_cells):
    runs = [
        ("uniform", 40, {}),
        ("commutator", 40, {}),
        ("commutator", 40, {"x": (7, 5, 5, 3, 3, 3, 2, 2, 2, 2, 2, 2, 1, 1)}),
        ("commutator", 300, {}),
    ]
    expected = [fixed_point_histogram(m, n, 3000, seed=5, **kw).histogram for m, n, kw in runs]
    monkeypatch.setattr(simulate, "_SUB_CELLS", sub_cells)
    for (model, n, kwargs), histogram in zip(runs, expected):
        assert fixed_point_histogram(model, n, 3000, seed=5, **kwargs).histogram == histogram


def test_walk_threads_do_not_change_result_over_many_chunks(monkeypatch):
    monkeypatch.setattr(simulate, "_CHUNK_ROWS", 100)
    a = fixed_point_histogram("walk", 9, 2950, seed=8, i=4, k=3, threads=1)
    b = fixed_point_histogram("walk", 9, 2950, seed=8, i=4, k=3, threads=3)
    assert a.histogram == b.histogram
    assert sum(a.histogram.values()) == 2950


def test_uniform_threads_do_not_change_result_over_many_chunks(monkeypatch):
    monkeypatch.setattr(simulate, "_CHUNK_ROWS", 100)
    for n in (9, 300):
        a = fixed_point_histogram("uniform", n, 2950, seed=8, threads=1)
        b = fixed_point_histogram("uniform", n, 2950, seed=8, threads=3)
        assert a.histogram == b.histogram
        assert sum(a.histogram.values()) == 2950


@pytest.mark.parametrize(
    "model, n, kwargs",
    [("uniform", 9, {}), ("commutator", 6, {}), ("commutator", 6, {"x": (3, 2, 1)}),
     ("walk", 9, {"i": 4, "k": 3})],
    ids=["uniform", "commutator", "commutator-fixed-x", "walk"],
)
def test_one_thread_runs_every_chunk_without_a_pool(monkeypatch, model, n, kwargs):
    monkeypatch.setattr(simulate, "_CHUNK_ROWS", 100)
    pooled = fixed_point_histogram(model, n, 2950, seed=8, threads=2, **kwargs)

    def no_pool(*args, **kw):
        raise AssertionError("threads=1 started a thread pool")

    monkeypatch.setattr(simulate, "ThreadPoolExecutor", no_pool)
    inline = fixed_point_histogram(model, n, 2950, seed=8, threads=1, **kwargs)
    assert inline.histogram == pooled.histogram
    assert sum(inline.histogram.values()) == 2950


def _chi_square_bound(cells: int) -> float:
    # Mean plus 5 standard deviations of a chi-square law with cells - 1
    # degrees of freedom.
    return cells - 1 + 5 * (2 * (cells - 1)) ** 0.5


@pytest.mark.parametrize("n", [1, 2, 3, 6, 64])
def test_uniform_histogram_matches_the_derangement_law(n):
    # Cells expected to hold fewer than 5 samples are pooled into one.
    samples = 200_000
    dist = fixed_point_histogram("uniform", n, samples, seed=70 + n)
    exact = uniform_fixed_distribution_exact(n)
    assert set(dist.histogram) <= {j for j, p in exact.items() if p}
    cells = [(dist.histogram.get(j, 0), float(p) * samples) for j, p in exact.items()]
    tail = [cell for cell in cells if cell[1] < 5]
    cells = [cell for cell in cells if cell[1] >= 5]
    if tail:
        cells.append((sum(o for o, _ in tail), sum(e for _, e in tail)))
    chi_sq = sum((observed - expected) ** 2 / expected for observed, expected in cells)
    assert chi_sq <= _chi_square_bound(len(cells)), chi_sq


@pytest.mark.parametrize("n, i", [(5, 3), (7, 2), (4, 4), (6, 6)])
def test_distinct_tuples_hit_every_ordered_tuple_uniformly(n, i):
    import numpy as np
    from math import perm

    samples = 200_000
    points = simulate._distinct_tuples(n, i, samples, make_rng(100 * n + i), np.int16)
    assert points.shape == (i, samples)
    codes = (n ** np.arange(i)) @ points.astype(np.int64)
    observed = np.bincount(codes, minlength=n ** i)
    legal = np.zeros(n ** i, dtype=bool)
    for t in permutations(range(n), i):
        legal[sum(v * n ** j for j, v in enumerate(t))] = True
    assert observed[~legal].sum() == 0
    cells = perm(n, i)
    expected = samples / cells
    chi_sq = float(((observed[legal] - expected) ** 2).sum() / expected)
    assert chi_sq < _chi_square_bound(cells), chi_sq


@pytest.mark.parametrize(
    "n, i, dtype_name", [(40, 40, "int16"), ((1 << 15) - 1, 6, "int16"), ((1 << 15) + 3, 6, "int64")]
)
def test_distinct_tuples_are_distinct_and_in_range(n, i, dtype_name):
    import numpy as np

    dtype = getattr(np, dtype_name)
    points = simulate._distinct_tuples(n, i, 5000, make_rng(n), dtype)
    assert points.dtype == dtype
    assert points.min() >= 0 and points.max() < n
    ordered = np.sort(points, axis=0)
    assert (ordered[1:] != ordered[:-1]).all()


def test_walk_draws_past_the_int16_range():
    n = (1 << 15) + 3
    dist = fixed_point_histogram("walk", n, 300, seed=6, i=3, k=2)
    assert sum(dist.histogram.values()) == 300
    assert all(n - 6 <= j <= n for j in dist.histogram)


def test_walk_with_i_equal_n_matches_exact_distribution():
    dist = fixed_point_histogram("walk", 6, 200_000, seed=25, i=6, k=3)
    exact = walk_exact_distribution(6, 6, 3)
    assert set(dist.histogram) <= {j for j, p in exact.items() if p > 0}
    for j, p in exact.items():
        observed = dist.histogram.get(j, 0)
        sigma = (float(p) * (1 - float(p)) * dist.samples) ** 0.5
        assert abs(observed - float(p) * dist.samples) <= 5 * sigma


def test_walk_of_one_full_cycle_at_n_12_completes():
    # A rejection draw accepted an n = i = 12 tuple with probability
    # 12!/12^12 = 5.4e-5 and never finished this run.
    dist = fixed_point_histogram("walk", 12, 100_000, seed=26, i=12, k=1)
    assert dist.histogram == {0: 100_000}


def test_many_chunks_in_flight_do_not_change_result(monkeypatch):
    monkeypatch.setattr(simulate, "_CHUNK_ROWS", 100)
    a = fixed_point_histogram("commutator", 6, 2950, seed=8, threads=1)
    b = fixed_point_histogram("commutator", 6, 2950, seed=8, threads=3)
    assert a.histogram == b.histogram
    assert sum(a.histogram.values()) == 2950


@pytest.mark.parametrize("x", [None, (2,) * 1500], ids=["both-random", "fixed-x"])
def test_commutator_memory_is_bounded_by_the_sub_batch(x):
    # 2000 commutators at n = 3000. One int16 copy of the chunk is 12 MB;
    # stream version 3 held g, and x when random, as such copies and peaked
    # at 24 MB (both random) and 12 MB (fixed x). The kernel now holds only
    # int64 sub-batch buffers of 2^16 entries (0.5 MB each) and their
    # temporaries.
    tracemalloc.start()
    try:
        fixed_point_histogram("commutator", 3000, 2000, seed=1, x=x)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 6_000_000, peak
