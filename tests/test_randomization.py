import itertools
import json
import math
import os
import subprocess
import sys
import threading
import time
import tracemalloc
from collections import Counter
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from steelrank import (
    BudgetError,
    MomentSet,
    ParameterError,
    TiePattern,
    compute_midranks,
    exact_p_value,
    observe,
    pair_moments,
    rank_samples,
    simulated_tail_counts,
    split_count,
)
from steelrank import _cache, randomization, statistics
from steelrank.analysis import RunConfig, _sampled_p, analyze
from steelrank.moments import all_pairs, control_pairs, tie_sums
from steelrank.pairwise import mvn_tail_counts
from steelrank.randomization import _mc_tail_counts, worker_count
from steelrank.statistics import in_tail, reduce_statistic, standardize

from conftest import DATA_DIR, load_grouped_csv

from _exact import exact_moments, exact_null_distribution
from _oracles import (
    enumerate_pair_stats,
    random_tie_pattern,
    replay_key_bits,
    replayed_labels,
    replayed_statistics,
    replayed_tail_counts,
    split_moments,
    two_valued_tail,
)


def _steel(groups, alternative):
    s = rank_samples(groups)
    ms = pair_moments(s.sizes, s.tie_pattern, control_pairs(s.n_groups))
    return s, observe(s, ms, alternative)


def _exact_p(s, obs, budget=randomization.DEFAULT_BUDGET):
    """Exact p-value of a steel observation, at its statistic and observed value."""
    ms = pair_moments(s.sizes, s.tie_pattern, control_pairs(s.n_groups))
    return exact_p_value(s, ms, obs.statistic, [obs.statistic_value], budget)[0]


def _mc_p(s, obs, nsim, seed, conservative=False):
    """Monte Carlo p-value of a steel observation: tail count, then the report's
    sampled p-value."""
    ms = pair_moments(s.sizes, s.tie_pattern, control_pairs(s.n_groups))
    counts = simulated_tail_counts(s, ms, obs.statistic, [obs.statistic_value], nsim, seed)
    cfg = RunConfig(nsim=nsim, seed=seed, conservative_mc=conservative)
    return _sampled_p("monte_carlo", int(counts[0]), cfg)


@pytest.fixture
def walk_calls(monkeypatch):
    """The argument tuples of every exact walk, in order."""
    calls = []
    walk = randomization._enumerate_w

    def counted(*args, **kwargs):
        calls.append(args)
        return walk(*args, **kwargs)

    monkeypatch.setattr(randomization, "_enumerate_w", counted)
    return calls


def _curve(s, statistic, thresholds, nsim, seed):
    """Treatment-vs-control tail probabilities at each threshold from one shared run."""
    ms = pair_moments(s.sizes, s.tie_pattern, control_pairs(s.n_groups))
    return simulated_tail_counts(s, ms, statistic, thresholds, nsim, seed) / nsim


def test_split_count():
    assert split_count((2, 2)) == 6
    assert split_count((2, 2, 2)) == 90
    assert split_count((6, 6, 6, 6)) == math.factorial(24) // math.factorial(6) ** 4


def test_exact_distribution_hand_case():
    s = rank_samples([[1, 2], [3, 4]])
    dist = exact_null_distribution(s, "vector_w")
    got = {float(v[0]): int(w) for v, w in zip(dist.values, dist.weights)}
    assert got == {0: 1, 1: 1, 2: 2, 3: 1, 4: 1}
    assert dist.total == 6


def test_exact_distribution_fully_tied_point_mass():
    s = rank_samples([[7, 7], [7, 7, 7]])
    dist = exact_null_distribution(s, "s_max")
    assert dist.values.tolist() == [0.0]
    assert dist.weights.tolist() == [dist.total]


def test_exact_distribution_variance_matches_oracle():
    s = rank_samples([[1, 1], [2, 3], [3, 3]])
    dist = exact_null_distribution(s, "vector_w")
    w = dist.values[:, 0]
    p = dist.weights / dist.total
    var = float(p @ w**2 - (p @ w) ** 2)
    assert var == pytest.approx(41 / 30, rel=1e-12)


def test_exact_moments_match_index_split_oracle():
    # weighted block enumeration vs uniform index-level enumeration
    cases = [
        ([1, 1, 2, 3, 3, 3], (2, 2, 2)),
        ([1, 2, 2, 2, 5, 6, 6], (3, 2, 2)),
        ([1, 1, 1, 1, 2, 3], (2, 4)),
    ]
    for values, sizes in cases:
        tie = rank_samples([values[: sizes[0]], values[sizes[0] :]]).tie_pattern
        pairs = [(a, b) for a in range(len(sizes)) for b in range(a + 1, len(sizes))]
        mean_o, cov_o, total_o = split_moments(values, sizes, pairs)
        em = exact_moments(sizes, tie, all_group_pairs=True)
        assert em.total == total_o == split_count(sizes)
        assert em.mean == pytest.approx(mean_o, rel=1e-12)
        assert em.cov == pytest.approx(cov_o, rel=1e-10, abs=1e-12)


def test_exact_moments_match_formulas_small_grid():
    rng = np.random.default_rng(17)
    for sizes in [(2, 3), (3, 3, 2), (2, 2, 3, 3)]:
        n_total = sum(sizes)
        for _ in range(5):
            from _oracles import random_tie_pattern

            tie = TiePattern(random_tie_pattern(rng, n_total))
            em = exact_moments(sizes, tie)
            ms = pair_moments(sizes, tie, control_pairs(len(sizes)))
            assert em.mean == pytest.approx(ms.mu, rel=1e-12)
            assert np.diag(em.cov) == pytest.approx(ms.tau2, rel=1e-10, abs=1e-12)
            for i in range(len(sizes) - 1):
                for j in range(i + 1, len(sizes) - 1):
                    assert em.cov[i, j] == pytest.approx(ms.cov[i, j], rel=1e-10, abs=1e-12)


def test_exact_p_value_hand_case():
    s, obs = _steel([[1, 2], [3, 4]], "greater")
    assert obs.w_star.tolist() == [4]
    assert _exact_p(s, obs) == pytest.approx(1 / 6, rel=1e-15)


def test_exact_p_value_at_minimum_is_one():
    s, obs = _steel([[3, 4], [1, 2]], "greater")  # observed W* = 0, the minimum
    assert _exact_p(s, obs) == 1.0


def test_exact_p_value_fully_tied():
    s, obs = _steel([[5, 5], [5, 5]], "two_sided")
    assert _exact_p(s, obs) == 1.0


def test_tail_inclusivity():
    rng = np.random.default_rng(4)
    for _ in range(10):
        groups = [rng.integers(0, 5, size=3).tolist() for _ in range(3)]
        s, obs = _steel(groups, "less")
        p = _exact_p(s, obs)
        assert p >= 1 / split_count(s.sizes)


def test_budget_error_advises_monte_carlo():
    s, obs = _steel([list(range(20)), list(range(20, 40))], "greater")
    with pytest.raises(BudgetError, match="monte_carlo"):
        _exact_p(s, obs, budget=1000)


def test_simulated_matches_exact_within_four_se():
    s, obs = _steel([[1, 2], [3, 4]], "greater")
    exact = 1 / 6
    bad = 0
    for seed in range(100):
        pv = _mc_p(s, obs, nsim=2000, seed=seed)
        se = math.sqrt(exact * (1 - exact) / 2000)
        if abs(pv.estimate - exact) > 4 * se:
            bad += 1
    assert bad <= 1


def test_simulation_reproducible_across_worker_counts(monkeypatch):
    s, obs = _steel([[1, 5, 2, 7], [3, 4, 8, 8], [2, 2, 9, 1]], "two_sided")
    monkeypatch.setenv("STEELRANK_THREADS", "1")
    serial = _mc_p(s, obs, nsim=30000, seed=42)
    monkeypatch.setenv("STEELRANK_THREADS", "7")
    threaded = _mc_p(s, obs, nsim=30000, seed=42)
    assert serial == threaded
    again = _mc_p(s, obs, nsim=30000, seed=42)
    assert again == serial


def test_simulated_fully_tied_is_one():
    s, obs = _steel([[2, 2, 2], [2, 2]], "greater")
    assert _mc_p(s, obs, nsim=500, seed=0).estimate == 1.0


def test_conservative_convention():
    s, obs = _steel([[1, 2], [3, 4]], "greater")
    pv = _mc_p(s, obs, nsim=1000, seed=3, conservative=True)
    hits = round(_mc_p(s, obs, nsim=1000, seed=3).estimate * 1000)
    assert pv.estimate == (hits + 1) / 1001


def test_pvalue_metadata():
    s, obs = _steel([[1, 2], [3, 4]], "greater")
    pv = _mc_p(s, obs, nsim=5000, seed=11)
    assert pv.method == "monte_carlo"
    assert pv.nsim == 5000 and pv.seed == 11
    assert pv.std_error == pytest.approx(
        math.sqrt(pv.estimate * (1 - pv.estimate) / 5000), rel=1e-12
    )
    with pytest.raises(ParameterError):
        _mc_p(s, obs, nsim=0, seed=1)


def test_tail_curve_below_support_is_one():
    s, _ = _steel([[1, 2, 3], [4, 5, 6]], "greater")
    curve = _curve(s, "s_max", [-50.0, -40.0], nsim=2000, seed=1)
    assert curve.tolist() == [1.0, 1.0]


def test_tail_curve_single_threshold_consistency():
    s, obs = _steel([[1, 2, 3], [2, 3, 6]], "greater")
    t = obs.statistic_value
    curve = _curve(s, "s_max", [t], nsim=20000, seed=9)
    pv = _mc_p(s, obs, nsim=20000, seed=9)
    assert curve[0] == pv.estimate


def test_tail_curve_of_s_min_is_its_lower_tail():
    rng = np.random.default_rng(3)
    s = rank_samples([rng.normal(size=12) for _ in range(3)])
    thresholds = [-50.0, -1.0, 0.0, 1.0, 50.0]
    curve = _curve(s, "s_min", thresholds, nsim=5000, seed=6)
    # P(s_min <= t): empty below the support, everything above it, rising between
    assert curve[0] == 0.0 and curve[-1] == 1.0
    assert all(a <= b for a, b in zip(curve, curve[1:]))
    obs = observe(s, pair_moments(s.sizes, s.tie_pattern, control_pairs(s.n_groups)), "less")
    pv = _mc_p(s, obs, nsim=5000, seed=6)
    assert _curve(s, "s_min", [obs.statistic_value], nsim=5000, seed=6)[0] == pv.estimate


def test_tail_curve_monotone_and_sorted_required():
    rng = np.random.default_rng(2)
    s = rank_samples([rng.normal(size=20) for _ in range(3)])
    thresholds = [-1.0, 0.0, 1.0, 2.0]
    curve = _curve(s, "s_max", thresholds, nsim=5000, seed=5)
    assert all(a >= b for a, b in zip(curve, curve[1:]))
    with pytest.raises(ParameterError):
        _curve(s, "s_max", [1.0, 0.5], nsim=100, seed=0)
    with pytest.raises(ParameterError):
        _curve(s, "vector_w", [0.5], nsim=100, seed=0)
    # a NaN threshold is in no tail, so it would read as tail 0
    with pytest.raises(ParameterError, match="NaN"):
        _curve(s, "s_max", [0.0, math.nan], nsim=100, seed=0)
    curve = _curve(s, "s_max", [-math.inf, 0.0, math.inf], nsim=100, seed=0)
    assert curve[0] == 1.0 and curve[2] == 0.0


def test_tail_counts_reject_moments_of_another_design():
    s = rank_samples([[1, 2, 3], [4, 5], [6, 7]])
    swapped = pair_moments((2, 3, 2), s.tie_pattern, control_pairs(3))
    with pytest.raises(ParameterError, match="different group sizes"):
        simulated_tail_counts(s, swapped, "s_max", [0.0], 100, 0)
    with pytest.raises(ParameterError, match="different group sizes"):
        simulated_tail_counts(s, pair_moments((2, 2, 3), s.tie_pattern, all_pairs(3)), "s_max",
                              [0.0], 100, 0)
    with pytest.raises(ParameterError, match="different group sizes"):
        exact_p_value(s, swapped, "s_max", [0.0])
    with pytest.raises(ParameterError, match="different group sizes"):
        exact_p_value(s, pair_moments((2, 2, 3), s.tie_pattern, all_pairs(3)), "s_max", [0.0])


def test_moments_of_another_tie_pattern_of_the_same_sizes_are_refused():
    s = rank_samples([[1, 1, 1, 2, 2], [1, 2, 2, 2, 3], [2, 3, 3, 3, 3]])
    untied = pair_moments(s.sizes, TiePattern.no_ties(15), control_pairs(3))
    for call in (lambda: observe(s, untied, "greater"),
                 lambda: exact_p_value(s, untied, "s_max", [2.0]),
                 lambda: simulated_tail_counts(s, untied, "s_max", [2.0], 100, 0)):
        with pytest.raises(ParameterError, match="different tie pattern"):
            call()
    ms = pair_moments(s.sizes, s.tie_pattern, control_pairs(3))
    assert round(observe(s, ms, "greater").statistic_value, 3) == 2.583
    assert round(exact_p_value(s, ms, "s_max", [2.0])[0], 4) == 0.0409
    # another pattern with the same tie sums has the same moments, and is accepted
    same_sums = rank_samples([[1, 1, 1, 2, 2], [2, 2, 3, 3, 3], [3, 3, 3, 3]])
    other = rank_samples([[0, 1, 2, 2, 2], [2, 2, 2, 3, 3], [3, 3, 3, 3]])
    assert (same_sums.tie_pattern.d, other.tie_pattern.d) == ((3, 4, 7), (1, 1, 6, 6))
    ms = pair_moments(same_sums.sizes, same_sums.tie_pattern, control_pairs(3))
    assert pair_moments(other.sizes, other.tie_pattern, control_pairs(3)) is ms
    observe(other, ms, "greater")
    exact_p_value(other, ms, "s_max", [0.0])


def test_exact_p_value_rejects_a_nan_threshold_and_vector_statistics():
    s = rank_samples([[1, 2, 3], [4, 5], [6, 7]])
    ms = pair_moments(s.sizes, s.tie_pattern, control_pairs(s.n_groups))
    # a NaN threshold is in no tail, so it would read as p = 0
    with pytest.raises(ParameterError, match="NaN"):
        exact_p_value(s, ms, "s_max", [math.nan])
    with pytest.raises(ParameterError):
        exact_p_value(s, ms, "vector_w", [0.0])
    # a scalar threshold is no vector, and an unsorted vector is no request
    with pytest.raises(ParameterError, match="non-empty vector"):
        exact_p_value(s, ms, "s_max", 0.5)
    with pytest.raises(ParameterError, match="ascending"):
        exact_p_value(s, ms, "s_max", [1.0, 0.5])
    assert exact_p_value(s, ms, "s_max", [-math.inf, math.inf]).tolist() == [1.0, 0.0]


@pytest.mark.parametrize("all_group_pairs", [False, True])
def test_exact_p_value_equals_index_level_enumeration(all_group_pairs):
    # tiny tied designs: every attained value of each statistic is a threshold,
    # so splits tie with it at the tail boundary
    rng = np.random.default_rng(41 + all_group_pairs)
    for _ in range(10):
        sizes = tuple(int(n) for n in rng.integers(1, 4, size=int(rng.integers(2, 4))))
        values = rng.integers(0, 3, size=sum(sizes))
        cuts = np.cumsum(sizes)[:-1]
        s = rank_samples(np.split(values, cuts))
        pairs = (all_pairs if all_group_pairs else control_pairs)(s.n_groups)
        moments = pair_moments(s.sizes, s.tie_pattern, pairs)
        w = enumerate_pair_stats(values, sizes, moments.pairs)
        ok = moments.tau > 0
        z = np.zeros_like(w)
        z[:, ok] = (w[:, ok] - moments.mu[ok]) / moments.tau[ok]
        total = split_count(sizes)
        assert len(w) == total
        for kind, stats in (("s_max", z.max(axis=1)), ("s_min", z.min(axis=1)),
                            ("s_abs", np.abs(z).max(axis=1))):
            thresholds = np.unique(stats)
            got = exact_p_value(s, moments, kind, thresholds)
            for t, p in zip(thresholds, got.tolist()):
                hits = int((stats <= t).sum() if kind == "s_min" else (stats >= t).sum())
                # the tail mass is the exact split count: hits / total, correctly rounded
                assert round(p * total) == hits and p == hits / total, (sizes, kind, t)


# the tail entries of the three counting engines, each taking one tail request
TAIL_ENTRIES = {
    "exact": lambda s, ms, kind, thr: exact_p_value(s, ms, kind, thr),
    "monte_carlo": lambda s, ms, kind, thr: simulated_tail_counts(s, ms, kind, thr, 3000, 5),
    "mvn_sample": lambda s, ms, kind, thr: mvn_tail_counts(ms, kind, thr, 3000, 5),
}


@pytest.mark.parametrize("all_group_pairs", [False, True])
@pytest.mark.parametrize("engine", sorted(TAIL_ENTRIES))
def test_a_threshold_vector_gets_each_threshold_its_own_answer(engine, all_group_pairs):
    rng = np.random.default_rng(7)
    s = rank_samples([rng.integers(0, 3, size=n) for n in (3, 3, 2)])
    pairs = (all_pairs if all_group_pairs else control_pairs)(s.n_groups)
    ms = pair_moments(s.sizes, s.tie_pattern, pairs)
    w, _ = randomization._enumerate_w(s.tie_pattern, s.sizes, ms.pairs)
    tail = TAIL_ENTRIES[engine]
    for kind in ("s_max", "s_min", "s_abs"):
        # five attained values, where splits tie with a threshold, across the support
        values = np.unique(reduce_statistic(kind, standardize(w, ms.mu, ms.tau)))
        thresholds = values[np.linspace(0, len(values) - 1, 5).round().astype(int)]
        whole = tail(s, ms, kind, thresholds)
        # probabilities from the exact engine, counts sharing their draws from the others
        assert whole.dtype == (np.float64 if engine == "exact" else np.int64)
        assert len(set(whole.tolist())) > 2, (kind, whole)
        assert whole.tolist() == [tail(s, ms, kind, [t])[0] for t in thresholds.tolist()]


@pytest.mark.parametrize("all_group_pairs", [False, True])
def test_tail_counts_take_either_moments_type(all_group_pairs):
    s, pairs, mu, tau, _ = _tail_count_setup(True, all_group_pairs)
    pair_set = (all_pairs if all_group_pairs else control_pairs)(s.n_groups)
    moments = pair_moments(s.sizes, s.tie_pattern, pair_set)
    assert moments.pairs == pairs
    thresholds = np.array([-0.5, 0.7, 1.8])
    for kind in ("s_max", "s_min", "s_abs"):
        got = simulated_tail_counts(s, moments, kind, thresholds, 3000, 8)
        want = _mc_tail_counts(s.tie_pattern, s.sizes, pairs, mu, tau, kind, thresholds, 3000, 8)
        assert got.dtype == np.int64
        np.testing.assert_array_equal(got, want)


def test_exact_weights_are_split_counts():
    values = [1, 1, 2, 2, 3]
    s = rank_samples([values[:2], values[2:]])
    dist = exact_null_distribution(s, "vector_w")
    assert int(dist.weights.sum()) == split_count((2, 3)) == 10
    # every labeled split of [1,1,2,2,3] into (2,3) collapses onto few W values
    mean = float((dist.weights / dist.total) @ dist.values[:, 0])
    assert Fraction(mean).limit_denominator(100) == Fraction(3, 1)


def _sliced(monkeypatch, rows, cells):
    """Make the sampling runner draw ``rows`` replicates per slice (None: whole chunks)."""
    monkeypatch.setattr(randomization, "_SLICE_CELLS", 1 << 40 if rows is None else rows * cells)


def _pair_moments(s, all_group_pairs):
    pairs = (all_pairs if all_group_pairs else control_pairs)(s.n_groups)
    ms = pair_moments(s.sizes, s.tie_pattern, pairs)
    return ms.pairs, ms.mu, ms.tau


def _tail_count_setup(tied, all_group_pairs, last=9):
    """Four groups of 9, 9, 9 and ``last`` values, tied to five values or untied."""
    rng = np.random.default_rng(21)
    draw = (lambda n: rng.integers(0, 5, size=n)) if tied else (lambda n: rng.normal(size=n))
    s = rank_samples([draw(n) for n in (9, 9, 9, last)])
    pairs, mu, tau = _pair_moments(s, all_group_pairs)
    # int64 cells per replicate: its count table, its 32-bit keys and their cell index
    cells = s.n_groups * len(s.tie_pattern.d) + s.tie_pattern.N * 3 // 2
    return s, pairs, mu, tau, cells


@pytest.mark.parametrize("tied", [False, True])
@pytest.mark.parametrize("all_group_pairs", [False, True])
def test_sliced_chunks_give_the_unsliced_tail_counts(monkeypatch, tied, all_group_pairs):
    s, pairs, mu, tau, cells = _tail_count_setup(tied, all_group_pairs)
    thresholds = np.array([-1.5, -0.5, 0.0, 0.7, 1.8, 2.6])
    for kind in ("s_max", "s_min", "s_abs"):
        counts = {}
        for rows in (None, 1, 7):
            _sliced(monkeypatch, rows, cells)
            counts[rows] = _mc_tail_counts(
                s.tie_pattern, s.sizes, pairs, mu, tau, kind, thresholds, 5000, 13
            )
        assert 0 < counts[None].sum() < 5000 * thresholds.size
        np.testing.assert_array_equal(counts[1], counts[None])
        np.testing.assert_array_equal(counts[7], counts[None])


def test_sliced_chunks_agree_across_worker_counts(monkeypatch):
    s, pairs, mu, tau, cells = _tail_count_setup(True, True)
    thresholds = np.array([0.5, 1.5, 2.5])
    _sliced(monkeypatch, None, cells)
    whole = _mc_tail_counts(s.tie_pattern, s.sizes, pairs, mu, tau, "s_abs", thresholds, 9000, 4)
    _sliced(monkeypatch, 7, cells)
    for threads in ("1", "2"):
        monkeypatch.setenv("STEELRANK_THREADS", threads)
        sliced = _mc_tail_counts(
            s.tie_pattern, s.sizes, pairs, mu, tau, "s_abs", thresholds, 9000, 4
        )
        np.testing.assert_array_equal(sliced, whole)


@pytest.mark.parametrize("tied, all_group_pairs, last", [
    (False, False, 9), (False, True, 8), (True, False, 8), (True, True, 9),
])
def test_tail_counts_equal_the_replayed_draws(monkeypatch, tied, all_group_pairs, last):
    """N = 36 takes its 32-bit keys from 18 raw outputs; N = 35 leaves the high half
    of its 18th unused."""
    s, pairs, mu, tau, cells = _tail_count_setup(tied, all_group_pairs, last)
    nsim, seed = randomization.CHUNK_SIZE + 1500, 29  # two chunks
    replay = (compute_midranks(np.concatenate(s.scores)), s.sizes, pairs, mu, tau)
    for kind in ("s_max", "s_min", "s_abs"):
        # the first replicates' values are attained, so replicates tie at the tail boundary
        head = replayed_statistics(*replay, kind, 40, seed, randomization.CHUNK_SIZE)
        thresholds = np.array([-50.0, *np.unique(head), 50.0])
        want = replayed_tail_counts(
            *replay, kind, thresholds, nsim, seed, randomization.CHUNK_SIZE
        )
        assert want[0] in (0, nsim) and want[-1] in (0, nsim)
        for rows in (None, 1000):  # the real slice budget, then five slices per full chunk
            if rows is not None:
                _sliced(monkeypatch, rows, cells)
            got = _mc_tail_counts(s.tie_pattern, s.sizes, pairs, mu, tau, kind, thresholds,
                                  nsim, seed)
            np.testing.assert_array_equal(got, want)
        monkeypatch.undo()


def test_keys_are_32_bits_while_two_share_their_random_bits_with_probability_at_most_1_16():
    for n_groups, widest in ((2, 16384), (3, 11585), (10, 5793)):
        label_bits = max(1, (n_groups - 1).bit_length())
        for n, width in ((2, 32), (widest, 32), (widest + 1, 64), (10**6, 64)):
            assert randomization._key_bits(n, label_bits) == width, (n_groups, n)
            assert replay_key_bits(n, n_groups) == width


@pytest.mark.parametrize("n_total, width, redraws", [(11585, 32, 2), (11586, 64, 0)])
def test_draws_either_side_of_the_key_width_rule_equal_the_replayed_draws(
    n_total, width, redraws
):
    """Three groups at the largest N with 32-bit keys (odd) and one past it (even).  At
    N = 11585 a row collides with probability about 1/16; seed 0's first row does,
    and so does its first redraw."""
    rng = np.random.default_rng(5)
    s = rank_samples([rng.normal(size=n) for n in (3862, 3862, n_total - 7724)])
    ms = pair_moments(s.sizes, s.tie_pattern, control_pairs(3))
    assert randomization._key_bits(n_total, 2) == width
    nsim, seed = 3, 0
    replay = (compute_midranks(np.concatenate(s.scores)), s.sizes, ms.pairs, ms.mu, ms.tau,
              "s_max")
    stats = replayed_statistics(*replay, nsim, seed, randomization.CHUNK_SIZE)
    thresholds = np.sort(stats)
    got = _mc_tail_counts(s.tie_pattern, s.sizes, ms.pairs, ms.mu, ms.tau, "s_max", thresholds,
                          nsim, seed)
    np.testing.assert_array_equal(got, [3, 2, 1])  # the three replayed statistics, distinct
    drawn = replayed_labels(n_total, s.sizes, nsim, seed, randomization.CHUNK_SIZE)
    assert [red for _, red in drawn] == [redraws, 0, 0]


def test_rows_whose_keys_collide_are_redrawn_without_bias_or_dependence_on_slices(monkeypatch):
    """With 16-bit keys, three groups keep 14 random bits, and about 63% of the rows of
    N = 181 values have two keys sharing them.  The redrawn rows are the replayed ones,
    every statistic lies within 5 standard errors of exact enumeration at two
    attained thresholds, and the counts do not depend on slices or threads."""
    monkeypatch.setattr(randomization, "_key_bits", lambda n, label_bits: 16)
    monkeypatch.setattr(randomization, "_draws_count_tables", lambda *a: False)
    rng = np.random.default_rng(4)
    s = rank_samples([rng.integers(0, 3, n) for n in (60, 61, 60)])
    ms = pair_moments(s.sizes, s.tie_pattern, control_pairs(3))
    args = (s.tie_pattern, s.sizes, ms.pairs, ms.mu, ms.tau)
    chunk = randomization.CHUNK_SIZE
    replay = (compute_midranks(np.concatenate(s.scores)), s.sizes, ms.pairs, ms.mu, ms.tau)
    redrawn = [red > 0 for _, red in replayed_labels(181, s.sizes, 200, 2, chunk, 16)]
    assert sum(redrawn) > 100
    exact = exact_null_distribution(s, "vector_w", budget=10**100)
    weights = exact.weights.astype(float) / exact.total
    nsim = 10_000
    for kind in ("s_max", "s_min", "s_abs"):
        head = np.unique(replayed_statistics(*replay, kind, 200, 2, chunk, 16))
        want = replayed_tail_counts(*replay, kind, head, 200, 2, chunk, 16)
        np.testing.assert_array_equal(_mc_tail_counts(*args, kind, head, 200, 2), want)
        stats = reduce_statistic(kind, standardize(exact.values, ms.mu, ms.tau))
        order = np.argsort(stats)
        values, below = stats[order], np.cumsum(weights[order])  # P(stat <= value)
        # P(stat >= value) is 1 - P(stat < value), where the sorted values start to tie
        above = 1 - np.concatenate(([0.0], below[:-1]))
        tails = below if kind == "s_min" else above
        last = np.append(values[1:] != values[:-1], True)  # P(stat <= v) at v's last copy
        first = np.concatenate(([True], values[1:] != values[:-1]))
        keep = last if kind == "s_min" else first
        values, tails = values[keep], tails[keep]
        picks = [int(np.argmin(np.abs(tails - p))) for p in (0.2, 0.6)]
        thresholds, p = values[picks], tails[picks]
        got = _mc_tail_counts(*args, kind, thresholds, nsim, 9) / nsim
        assert np.all(np.abs(got - p) <= 5 * np.sqrt(p * (1 - p) / nsim)), (kind, got, p)
    thresholds = np.array([0.5, 1.5, 2.5])
    whole = _mc_tail_counts(*args, "s_abs", thresholds, 4500, 4)  # two chunks
    assert 0 < whole.sum() < 3 * 4500
    cells = s.n_groups * len(s.tie_pattern.d) + s.tie_pattern.N * 10 // 8  # 16-bit keys
    for rows in (1, 7):
        _sliced(monkeypatch, rows, cells)
        for threads in ("1", "2", "3"):
            monkeypatch.setenv("STEELRANK_THREADS", threads)
            got = _mc_tail_counts(*args, "s_abs", thresholds, 4500, 4)
            np.testing.assert_array_equal(got, whole, err_msg=f"{rows} rows, {threads} threads")


def test_negative_seed_is_a_parameter_error():
    s, obs = _steel([[1, 2], [3, 4]], "greater")
    with pytest.raises(ParameterError, match="seed"):
        randomization.sample_chunks(10, -1, lambda rng, b: b, len, 1)
    with pytest.raises(ParameterError, match="seed"):
        _mc_p(s, obs, nsim=10, seed=-1)


def _replayed_slices(nsim, seed, rows):
    """Per chunk, the slices of integers a serial run draws from the chunk's spawned substream."""
    chunk = randomization.CHUNK_SIZE
    slices = []
    for i, child in enumerate(np.random.SeedSequence(seed).spawn(-(-nsim // chunk))):
        rng = np.random.default_rng(child)
        size = min(chunk, nsim - i * chunk)
        slices.append([rng.integers(0, 1000, min(rows, size - lo)) for lo in range(0, size, rows)])
    return slices


def _bounded(call, timeout=120):
    """``call()`` run on its own thread at a short switch interval, within ``timeout``
    seconds: its result, or the exception it raised."""
    out = []

    def target():
        try:
            out.append((True, call()))
        except BaseException as exc:
            out.append((False, exc))

    runner = threading.Thread(target=target)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        runner.start()
        runner.join(timeout)
    finally:
        sys.setswitchinterval(interval)
    assert not runner.is_alive()
    ok, value = out[0]
    if not ok:
        raise value
    return value


def _runner_nsim(n_chunks):
    chunk = randomization.CHUNK_SIZE
    return {1: 100, 3: 2 * chunk + 1808, 25: 24 * chunk + 5}[n_chunks]


@pytest.mark.parametrize("threads", [1, 2, 3, 64])
@pytest.mark.parametrize("n_chunks", [1, 3, 25])
@pytest.mark.parametrize("rows", [1024, None])
def test_sampling_runner_draws_each_chunk_in_order_one_slice_at_a_time(
    monkeypatch, threads, n_chunks, rows
):
    # whichever threads draw, each chunk's slices are those of a serial replay from
    # spawn, drawn in order and never two at once, and the tallies sum exactly
    monkeypatch.setenv("STEELRANK_THREADS", str(threads))
    nsim = _runner_nsim(n_chunks)
    cells = None if rows is None else randomization._SLICE_CELLS // rows
    lock = threading.Lock()
    drawing = set()  # generators a thread is drawing from
    overlaps = []
    log = []  # (generator, drawing thread, slice), each generator's slices in order

    def draw(rng, size):
        with lock:
            if rng in drawing:
                overlaps.append(rng)
            drawing.add(rng)
        time.sleep(1e-4)  # let the other threads take slices meanwhile
        out = rng.integers(0, 1000, size)
        with lock:
            drawing.discard(rng)
            log.append((rng, threading.get_ident(), out))
        return out

    total = _bounded(lambda: randomization.sample_chunks(
        nsim, 11, draw, lambda out: np.array([out.sum(), out.size, 1]), cells
    ))
    assert not overlaps
    by_chunk = {}
    for rng, _, out in log:
        by_chunk.setdefault(rng, []).append(out.tolist())
    want = _replayed_slices(nsim, 11, rows or randomization.CHUNK_SIZE)
    assert sorted(by_chunk.values()) == sorted([out.tolist() for out in chunk] for chunk in want)
    serial = [sum(int(out.sum()) for chunk in want for out in chunk), nsim,
              sum(map(len, want))]
    assert total.dtype == np.int64 and total.tolist() == serial
    assert len({thread for _, thread, _ in log}) <= min(threads, n_chunks)


@pytest.mark.parametrize("threads", [1, 2, 3, 64])
@pytest.mark.parametrize("where", ["draw", "tally"])
def test_sampling_runner_raises_a_failed_step_after_its_threads_end(monkeypatch, threads, where):
    monkeypatch.setenv("STEELRANK_THREADS", str(threads))
    before = threading.active_count()
    steps = itertools.count()

    def step(where_now):
        if where_now == where and next(steps) == 30:
            raise ValueError(f"{where} failed")
        time.sleep(1e-4)

    def draw(rng, size):
        step("draw")
        return rng.integers(0, 1000, size)

    def tally(out):
        step("tally")
        return np.array([out.size])

    with pytest.raises(ValueError, match=f"{where} failed"):
        _bounded(lambda: randomization.sample_chunks(
            _runner_nsim(25), 3, draw, tally, randomization._SLICE_CELLS // 512
        ))
    assert threading.active_count() == before


def test_chunk_generators_are_the_spawned_substreams_made_on_first_use(monkeypatch):
    for i in range(5):
        spawned = np.random.SeedSequence(9).spawn(5)[i]
        keyed = np.random.SeedSequence(9, spawn_key=(i,))
        assert np.array_equal(keyed.generate_state(8), spawned.generate_state(8))
    # a run stopped at its first draw made one generator, whatever nsim is
    made = []
    seed_sequence = np.random.SeedSequence

    def recorded(*args, **kwargs):
        made.append(kwargs.get("spawn_key"))
        return seed_sequence(*args, **kwargs)

    def draw(rng, size):
        raise ValueError("stop")

    monkeypatch.setenv("STEELRANK_THREADS", "1")
    monkeypatch.setattr(np.random, "SeedSequence", recorded)
    with pytest.raises(ValueError, match="stop"):
        randomization.sample_chunks(10**9, 9, draw, len, 1)
    assert made == [(0,)]


def _assert_monte_carlo_memory_is_bounded(monkeypatch, s, obs):
    monkeypatch.setenv("STEELRANK_THREADS", "1")
    tracemalloc.start()
    try:
        _mc_p(s, obs, nsim=4096, seed=1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20
    if sys.platform.startswith("linux"):
        # slices small enough to reuse freed memory fault no fresh pages in
        import resource

        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        _mc_p(s, obs, nsim=4096, seed=1)
        assert resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before < 2000


def test_monte_carlo_memory_is_bounded_by_the_slice_budget(monkeypatch):
    # untied 3x1000: a slice's int64 arrays take about 2 MiB, where one whole
    # 4096-replicate chunk held about 938 MiB of counts
    rng = np.random.default_rng(3)
    s, obs = _steel([rng.normal(size=1000) for _ in range(3)], "greater")
    _assert_monte_carlo_memory_is_bounded(monkeypatch, s, obs)


def test_count_table_memory_does_not_grow_with_the_data(monkeypatch):
    # r1 3x2000 draws whole chunks of count tables: replicates x (groups + pairs) cells
    s = _r1((2000,) * 3, 3)
    assert randomization._draws_count_tables(s.tie_pattern, s.n_groups)
    obs = observe(s, pair_moments(s.sizes, s.tie_pattern, control_pairs(s.n_groups)), "greater")
    _assert_monte_carlo_memory_is_bounded(monkeypatch, s, obs)


@pytest.mark.parametrize("n, weight_type", [(13, np.int64), (20, object)])
def test_exact_weights_stay_exact_past_2_pow_53_splits(n, weight_type):
    # two-valued 3x13 (8.2e16 splits) and 3x20 (5.8e26): float weights were wrong here
    rng = np.random.default_rng(0)
    groups = [rng.integers(0, 2, size=n) for _ in range(3)]
    s = rank_samples(groups)
    assert split_count(s.sizes) > 2**53
    ms = pair_moments(s.sizes, s.tie_pattern, control_pairs(s.n_groups))
    for alternative in ("greater", "less", "two-sided"):
        obs = observe(s, ms, alternative)
        want = two_valued_tail(groups, ms.mu, ms.tau, obs.statistic)
        got = _exact_p(s, obs, budget=10**30)
        assert got == pytest.approx(float(want), rel=0, abs=1e-12)
    dist = exact_null_distribution(s, "vector_w", budget=10**30)
    assert dist.weights.dtype == weight_type
    assert sum(dist.weights.tolist()) == dist.total == split_count(s.sizes)
    em = exact_moments(s.sizes, s.tie_pattern, budget=10**30)
    assert em.total == split_count(s.sizes)
    assert em.mean == pytest.approx(ms.mu, rel=1e-12)
    assert np.diag(em.cov) == pytest.approx(ms.tau2, rel=1e-10)


def _weight_map(w, wt):
    return {tuple(row): int(c) for row, c in zip(w.tolist(), wt.tolist())}


@pytest.mark.parametrize("tied", [False, True])
def test_merged_states_match_index_level_enumeration(monkeypatch, walk_calls, tied):
    rng = np.random.default_rng(5 + tied)
    configurations = 0
    for _ in range(12):
        sizes = tuple(int(n) for n in rng.integers(1, 4, size=int(rng.integers(2, 5))))
        while sum(sizes) > 9:
            sizes = sizes[:-1]
        n_total = sum(sizes)
        values = rng.integers(0, 3, size=n_total) if tied else rng.permutation(n_total)
        tie = rank_samples([values[: sizes[0]], values[sizes[0]:]]).tie_pattern
        for pairs in (tuple((0, b) for b in range(1, len(sizes))), all_pairs(len(sizes))):
            want = Counter(map(tuple, enumerate_pair_stats(values, sizes, pairs).tolist()))
            # _KEY_LIMIT 1 renumbers the partial key densely before every column;
            # _EXPAND_BLOCK 3 cuts most steps into several batches
            for name, value in ((None, None), ("_KEY_LIMIT", 1), ("_EXPAND_BLOCK", 3)):
                with monkeypatch.context() as patched:
                    if name:
                        patched.setattr(randomization, name, value)
                    w, wt = randomization._enumerate_w(tie, sizes, pairs)
                configurations += 1
                assert len(walk_calls) == configurations
                assert len(set(map(tuple, w.tolist()))) == len(w)
                assert _weight_map(w, wt) == dict(want)


def test_all_pairs_moments_past_the_key_limit_match_the_formulas():
    # 8 groups of 2, all 28 pairs: the state key needs 3**7 * 9**28 > 2**62 values
    sizes = (2,) * 8
    tie = TiePattern((6, 5, 5))
    assert 3**7 * 9**28 > randomization._KEY_LIMIT
    em = exact_moments(sizes, tie, all_group_pairs=True, budget=10**12)
    pm = pair_moments(sizes, tie, all_pairs(len(sizes)))
    assert em.total == split_count(sizes)
    assert em.mean == pytest.approx(pm.mu, rel=1e-12)
    assert em.cov == pytest.approx(pm.cov, rel=1e-9, abs=1e-10)


def test_exact_work_and_memory_follow_the_merged_states(walk_calls):
    # untied (6,6,6): 17.2M splits but only 37**2 distinct (W_1, W_2) rows
    sizes = (6, 6, 6)
    tie = TiePattern((1,) * 18)
    assert split_count(sizes) == 17_153_136
    w, wt = randomization._enumerate_w(tie, sizes, ((0, 1), (0, 2)), budget=10**8)
    assert len(w) == 37**2
    assert wt.dtype == np.int64 and int(wt.sum()) == split_count(sizes)
    rng = np.random.default_rng(8)
    s, obs = _steel([rng.normal(size=n) for n in sizes], "two_sided")
    tracemalloc.start()
    try:
        _exact_p(s, obs, budget=10**8)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(walk_calls) == 2
    assert peak < 64 * 2**20


def test_exact_candidate_memory_is_bounded_by_the_expansion_block(walk_calls):
    # two-valued 4x12: 8.5M candidate cells (count rows x block compositions x
    # groups), which one fit test over all rows held at once (a 72 MiB peak)
    rng = np.random.default_rng(0)
    groups = [rng.integers(0, 2, size=12) for _ in range(4)]
    s = rank_samples(groups)
    ms = pair_moments(s.sizes, s.tie_pattern, control_pairs(s.n_groups))
    for alternative in ("greater", "less", "two-sided"):
        obs = observe(s, ms, alternative)
        tracemalloc.start()
        try:
            got = _exact_p(s, obs, budget=10**30)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 12 * 2**20
        assert got == float(two_valued_tail(groups, ms.mu, ms.tau, obs.statistic))
    assert len(walk_calls) == 3  # 2.3e26 splits: Python-int weights, never cached


def test_one_control_against_many_tied_values_builds_only_fitting_moves(monkeypatch):
    # one control value against 16,000 two-valued treatment values: 16,001 splits,
    # but a block of about 8,000 tied values has about 8,000 compositions, of which
    # two fit (control count 0 or 1); building all of them took 16 s
    recorded = []
    compositions = randomization._compositions

    def spy(total, caps):
        comps, weights = compositions(total, caps)
        recorded.append((total, comps))
        return comps, weights

    monkeypatch.setattr(randomization, "_compositions", spy)
    rng = np.random.default_rng(12)
    for n in (9, 16_000):
        groups = [[0.0], rng.integers(0, 2, size=n).astype(float)]
        s = rank_samples(groups)
        ms = pair_moments(s.sizes, s.tie_pattern, control_pairs(s.n_groups))
        assert s.tie_pattern.e == 2 and split_count(s.sizes) == n + 1
        recorded.clear()
        if n == 9:  # the index-level oracle runs on the small instance only
            w = enumerate_pair_stats(np.concatenate(groups), s.sizes, ms.pairs)
            z = (w[:, 0] - ms.mu[0]) / ms.tau[0]
        for alternative in ("greater", "less", "two-sided"):
            obs = observe(s, ms, alternative)
            got = _exact_p(s, obs)
            assert got == float(two_valued_tail(groups, ms.mu, ms.tau, obs.statistic))
            if n == 9:
                stats = {"s_max": z, "s_min": z, "s_abs": np.abs(z)}[obs.statistic]
                t = obs.statistic_value
                hits = (stats <= t) if obs.statistic == "s_min" else (stats >= t)
                assert got == hits.sum() / len(z)
        moves = [(total, comps) for total, comps in recorded if comps.shape[1] == 2]
        # one walk per alternative: each builds its statistic's tail table
        assert sorted(total for total, _ in moves) == sorted(s.tie_pattern.d * 3)
        for total, comps in moves:
            assert (comps <= np.asarray(s.sizes)).all() and (comps.sum(axis=1) == total).all()
            assert comps[:, 0].tolist() == [0, 1]


def test_compositions_are_the_fitting_ones_in_order():
    for total, caps in ((4, (4, 4, 4)), (4, (1, 4, 2)), (5, (2, 1, 2)), (3, (0, 3)), (6, (2, 2, 2))):
        comps, weights = randomization._compositions(total, caps)
        want = [c for c in itertools.product(*(range(total + 1) for _ in caps))
                if sum(c) == total and all(x <= cap for x, cap in zip(c, caps))]
        assert comps.tolist() == [list(c) for c in want]
        assert weights.tolist() == [split_count(c) for c in want]
        assert not comps.flags.writeable and not weights.flags.writeable


_UNTIED_333 = rank_samples([[1, 2, 3], [4, 5, 6], [7, 8, 9]])


def _samples_with_ties(d, sizes):
    """Samples of the given sizes whose pooled values have the tie pattern d."""
    values = np.repeat(np.arange(len(d)), d)
    return rank_samples(np.split(values, np.cumsum(sizes)[:-1]))


def _control_moments(s):
    return pair_moments(s.sizes, s.tie_pattern, control_pairs(s.n_groups))


def _exact_tables():
    """The design cache's exact tail tables by key, least recently used first."""
    return {key: table for key, table in _cache.DESIGNS._items.items() if key[0] == "exact"}


def _charged_bytes():
    return sum(_cache.held_bytes(v) + _cache.ENTRY_BYTES for v in _cache.DESIGNS._items.values())


def test_a_repeated_exact_p_value_walks_once(walk_calls):
    s = _UNTIED_333
    ms = _control_moments(s)
    p = exact_p_value(s, ms, "s_max", [1.0])
    assert exact_p_value(s, ms, "s_max", [1.0]).tolist() == p.tolist()
    exact_p_value(s, ms, "s_max", [-0.5])  # another threshold reads the same table
    assert len(walk_calls) == 1
    exact_p_value(s, ms, "s_min", [1.0])
    exact_p_value(s, pair_moments(s.sizes, s.tie_pattern, all_pairs(3)), "s_max", [1.0])
    tied = _samples_with_ties((2,) + (1,) * 7, s.sizes)
    exact_p_value(tied, _control_moments(tied), "s_max", [1.0])
    assert len(walk_calls) == 4 and len(_exact_tables()) == 4


def test_the_budget_is_checked_before_the_cache(walk_calls):
    s = _UNTIED_333
    ms = _control_moments(s)
    assert split_count(s.sizes) == 1680
    exact_p_value(s, ms, "s_max", [1.0], budget=1680)
    for statistic in ("s_max", "s_min"):  # a kept table, then none
        with pytest.raises(BudgetError, match="1680 splits"):
            exact_p_value(s, ms, statistic, [1.0], budget=1679)
    assert len(walk_calls) == 1 and len(_exact_tables()) == 1
    with pytest.raises(BudgetError, match="1680 splits"):
        randomization._enumerate_w(s.tie_pattern, s.sizes, ms.pairs, budget=1679)


def test_walk_results_are_read_only():
    s = _UNTIED_333
    w, wt = randomization._enumerate_w(s.tie_pattern, s.sizes, ((0, 1), (0, 2)))
    assert not w.flags.writeable and not wt.flags.writeable
    with pytest.raises(ValueError):
        w[0, 0] = 99.0
    with pytest.raises(ValueError):
        wt[0] = 99


def test_the_design_cache_holds_its_byte_cap_and_evicts_the_least_recently_used(
    monkeypatch, walk_calls
):
    # distinct tie patterns of 4 + 4 + 4 values, with a cap of a few designs
    cap = 64 * 2**10
    monkeypatch.setattr(_cache.DESIGNS, "limit", cap)
    rng = np.random.default_rng(21)
    ties = list(dict.fromkeys(random_tie_pattern(rng, 12) for _ in range(60)))
    assert len(ties) > 40

    def p_value(d):
        s = _samples_with_ties(d, (4, 4, 4))
        return exact_p_value(s, _control_moments(s), "s_max", [0.5]).tolist()

    first = p_value(ties[0])
    for d in ties[1:]:
        p_value(ties[0])  # keeps the first recent
        p_value(d)
        assert _charged_bytes() == _cache.DESIGNS._nbytes <= cap
    assert len(walk_calls) == len(ties)
    kept = [key[1] for key in _exact_tables()]
    assert 1 < len(kept) < len(ties)
    assert kept[-2:] == [ties[0], ties[-1]]  # the touched first, then the newest
    assert ties[1] not in kept
    assert p_value(ties[0]) == first and len(walk_calls) == len(ties)
    p_value(ties[1])
    assert len(walk_calls) == len(ties) + 1


def test_a_table_over_the_cap_is_returned_but_not_kept(monkeypatch, walk_calls):
    monkeypatch.setattr(_cache.DESIGNS, "limit", 64)
    s = _UNTIED_333
    ms = _control_moments(s)
    p = [exact_p_value(s, ms, "s_max", [1.0]).tolist() for _ in range(2)]
    assert p[0] == p[1]
    assert len(walk_calls) == 2 and _cache.DESIGNS._nbytes == 0 and not _cache.DESIGNS._items


def test_two_threads_asking_at_once_get_identical_results():
    rng = np.random.default_rng(23)
    ties = list(dict.fromkeys(random_tie_pattern(rng, 12) for _ in range(30)))
    designs = [(s, _control_moments(s)) for s in (_samples_with_ties(d, (4, 4, 4)) for d in ties)]
    thresholds = (-1.0, 0.5, 2.0)
    total = split_count((4, 4, 4))
    want = [[_masked_mass(s, ms, "s_abs", t) / total for t in thresholds] for s, ms in designs]
    results = [[None] * len(designs) for _ in range(2)]
    errors = []
    start = threading.Barrier(2, timeout=30)

    def worker(slot):
        try:
            for i, (s, ms) in enumerate(designs):
                start.wait()  # both threads ask for the same table at once
                results[slot][i] = exact_p_value(s, ms, "s_abs", thresholds).tolist()
        except Exception as exc:  # reported below: an assertion in a thread is lost
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(slot,)) for slot in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads) and not errors
    assert results[0] == results[1] == want
    # every table and moment set fits the cache at once
    assert _charged_bytes() == _cache.DESIGNS._nbytes <= _cache.DESIGNS.limit
    assert len(_exact_tables()) == len(ties)


def test_worker_count_honours_cpu_affinity(monkeypatch):
    monkeypatch.delenv("STEELRANK_THREADS", raising=False)
    monkeypatch.setattr(randomization.os, "cpu_count", lambda: 64)
    monkeypatch.setattr(randomization.os, "sched_getaffinity", lambda pid: {3, 7}, raising=False)
    assert worker_count() == 2
    monkeypatch.setattr(
        randomization.os, "sched_getaffinity", lambda pid: set(range(64)), raising=False
    )
    assert worker_count() == 8
    monkeypatch.delattr(randomization.os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(randomization.os, "cpu_count", lambda: 3)
    assert worker_count() == 3
    monkeypatch.setenv("STEELRANK_THREADS", "5")
    assert worker_count() == 5


def _r1(sizes, seed):
    """Normal data recorded to one decimal: a few dozen distinct values."""
    rng = np.random.default_rng(seed)
    return rank_samples([np.round(rng.normal(size=n), 1) for n in sizes])


def _two_valued_fixture():
    groups = load_grouped_csv(DATA_DIR / "two_valued_3x20.csv")
    return [groups[g] for g in ("g0", "g1", "g2")]


def test_monte_carlo_draw_is_routed_by_the_cost_rule(iq_groups):
    def tables(s):
        return randomization._draws_count_tables(s.tie_pattern, s.n_groups)

    r1_10x50 = load_grouped_csv(DATA_DIR / "r1_10x50.csv")
    rng = np.random.default_rng(4)
    assert tables(rank_samples(_two_valued_fixture()))
    assert tables(_r1((2000,) * 3, 1))
    assert not tables(rank_samples(iq_groups))
    assert not tables(rank_samples(list(r1_10x50.values())))
    assert not tables(_r1((100,) * 3, 1))
    assert not tables(rank_samples([rng.normal(size=100) for _ in range(3)]))
    for tied in (False, True):
        assert not tables(_tail_count_setup(tied, False)[0])


def _routed_groups(name):
    rng = np.random.default_rng(11)
    if name == "two_valued_3x20":
        return _two_valued_fixture()
    if name == "three_valued_3x30":
        return [rng.integers(0, 3, size=30) for _ in range(3)]
    if name == "two_valued_15_25_30":
        return [rng.integers(0, 2, size=n) for n in (15, 25, 30)]
    return [rng.integers(0, 2, size=20) for _ in range(4)]  # two_valued_4x20


@pytest.mark.parametrize("design", ["two_valued_3x20", "three_valued_3x30", "two_valued_15_25_30"])
@pytest.mark.parametrize("all_group_pairs", [False, True])
def test_count_table_draw_matches_exact_enumeration(design, all_group_pairs):
    s = rank_samples(_routed_groups(design))
    assert randomization._draws_count_tables(s.tie_pattern, s.n_groups)
    pairs, mu, tau = _pair_moments(s, all_group_pairs)
    w, wt = randomization._enumerate_w(s.tie_pattern, s.sizes, pairs,
                                        budget=split_count(s.sizes))
    z = np.zeros_like(w)
    z[:, tau > 0] = (w[:, tau > 0] - mu[tau > 0]) / tau[tau > 0]
    prob = np.array([int(c) / split_count(s.sizes) for c in wt.tolist()])
    nsim = 100_000
    for kind in ("s_max", "s_min", "s_abs"):
        stats = reduce_statistic(kind, z)
        support, at = np.unique(stats, return_inverse=True)
        mass = np.bincount(at.ravel(), weights=prob)
        tails = np.cumsum(mass) if kind == "s_min" else np.cumsum(mass[::-1])[::-1]
        # six attained thresholds whose exact tail is neither tiny nor near one
        inner = np.flatnonzero((tails > 0.01) & (tails < 0.99))
        picks = inner[np.linspace(0, inner.size - 1, 6).astype(int)]
        exact = tails[picks]
        got = _mc_tail_counts(s.tie_pattern, s.sizes, pairs, mu, tau, kind, support[picks],
                              nsim, 17) / nsim
        se = np.sqrt(exact * (1 - exact) / nsim)
        assert np.all(np.abs(got - exact) <= 4 * se), (kind, got, exact)


MC_EXACT_DESIGNS = [
    ((5, 7), False), ((5, 7), True), ((3, 4, 5), False), ((4, 4, 4), True),
    ((2, 3, 6), False), ((3, 5, 3), True), ((2, 3, 3, 3), False), ((2, 3, 3, 4), True),
]


@pytest.mark.parametrize("sizes, tied", MC_EXACT_DESIGNS)
def test_both_draws_match_exact_enumeration_on_small_designs(monkeypatch, sizes, tied):
    """Every statistic and pair set through each draw, forced by the routing rule,
    lies within 5 standard errors of the exact tail at two attained thresholds."""
    rng = np.random.default_rng(sum(sizes) * 10 + tied)
    s = rank_samples([rng.integers(0, 4, n) if tied else rng.normal(size=n) for n in sizes])
    nsim = 50_000
    for all_group_pairs in (False, True):
        ms = pair_moments(s.sizes, s.tie_pattern, (all_pairs if all_group_pairs
                                                   else control_pairs)(s.n_groups))
        for kind in ("s_max", "s_min", "s_abs"):
            values, cum = randomization._tail_table(
                *randomization._enumerate_w(s.tie_pattern, s.sizes, ms.pairs),
                ms.mu, ms.tau, kind)
            # the attained values whose exact tails lie nearest 0.2 and 0.6
            tail = 1 - cum[:-1] / cum[-1] if kind != "s_min" else cum[1:] / cum[-1]
            picks = sorted({values[np.argmin(np.abs(tail - p))] for p in (0.2, 0.6)})
            exact = exact_p_value(s, ms, kind, picks)
            for tables in (False, True):
                monkeypatch.setattr(randomization, "_draws_count_tables", lambda *a: tables)
                got = simulated_tail_counts(s, ms, kind, picks, nsim, 11) / nsim
                se = np.sqrt(exact * (1 - exact) / nsim)
                assert np.all(np.abs(got - exact) <= 5 * se), (kind, tables, got, exact)


SIMD_SCRIPT = """
import json
import numpy as np
from steelrank import pair_moments, rank_samples, randomization, simulated_tail_counts
from steelrank.moments import all_pairs

try:
    from numpy._core import _multiarray_umath as umath
except ImportError:  # numpy 1.x
    from numpy.core import _multiarray_umath as umath
rng = np.random.default_rng(8)
s = rank_samples([np.round(rng.normal(size=100), 1) for _ in range(3)])  # r1 3x100
assert not randomization._draws_count_tables(s.tie_pattern, s.n_groups)
ms = pair_moments(s.sizes, s.tie_pattern, all_pairs(3))
counts = simulated_tail_counts(s, ms, "s_abs", [0.5, 1.5, 2.5], 10_000, 6)
enabled = [name for name in umath.__cpu_dispatch__ if umath.__cpu_features__.get(name)]
"""


def _avx512(feature: str) -> bool:
    """Whether a numpy dispatch target needs AVX-512 (X86_V4 and AVX512_* in numpy 2.4,
    AVX512F, AVX512_SKX and the like before it)."""
    return feature == "X86_V4" or feature.startswith("AVX512")


@pytest.mark.parametrize("level", ["no_dispatch", "no_avx512"])
def test_permutation_draws_do_not_depend_on_the_simd_level(level):
    """numpy sorts with the widest SIMD it dispatches to; a run with every dispatched
    feature disabled, or only the AVX-512 ones (numpy's AVX2 sort), must draw the
    same replicates as this process."""
    here = {}
    exec(SIMD_SCRIPT, here)
    off = [f for f in here["enabled"] if level == "no_dispatch" or _avx512(f)]
    if not off:
        pytest.skip(f"numpy dispatches to no feature {level} would disable on this machine")
    # what this process runs without stays off in the child
    off_here = os.environ.get("NPY_DISABLE_CPU_FEATURES", "").replace(",", " ").split()
    env = dict(os.environ, NPY_DISABLE_CPU_FEATURES=" ".join(off_here + off))
    src = str(Path(randomization.__file__).parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    script = SIMD_SCRIPT + 'print(json.dumps({"counts": counts.tolist(), "enabled": enabled}))'
    done = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120, check=True)
    there = json.loads(done.stdout)
    assert there["enabled"] == [f for f in here["enabled"] if f not in off]
    assert there["counts"] == here["counts"].tolist()
    assert 0 < sum(there["counts"]) < 3 * 10_000


FAULT_SCRIPT = """
import resource, sys
import numpy as np
from steelrank import pair_moments, rank_samples, simulated_tail_counts
from steelrank.moments import control_pairs

k, n = map(int, sys.argv[1:])
rng = np.random.default_rng(8)
s = rank_samples([np.round(rng.normal(size=n), 1) for _ in range(k)])
ms = pair_moments(s.sizes, s.tie_pattern, control_pairs(k))
simulated_tail_counts(s, ms, "s_abs", [1.0, 2.0], 10_000, 5)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
simulated_tail_counts(s, ms, "s_abs", [1.0, 2.0], 10_000, 5)
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads minor faults on Linux")
@pytest.mark.parametrize("threads", ["1", "2"])
@pytest.mark.parametrize("design", ["3x100", "10x50"])
def test_permutation_slices_reuse_their_memory_in_a_fresh_process(design, threads):
    """r1 designs in a process that ran nothing else: with slice arrays made fresh per
    slice, a 10k-replicate call took 11k (3x100) and 19k (10x50) minor faults."""
    env = dict(os.environ, STEELRANK_THREADS=threads)
    src = str(Path(randomization.__file__).parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", FAULT_SCRIPT, *design.split("x")], env=env,
                          capture_output=True, text=True, timeout=120, check=True)
    assert int(done.stdout) < 2000


def test_count_table_draws_agree_across_worker_counts_and_slices(monkeypatch):
    s = rank_samples(_routed_groups("two_valued_4x20"))
    pairs, mu, tau = _pair_moments(s, True)
    cells = s.n_groups * len(s.tie_pattern.d) + s.tie_pattern.N
    thresholds = np.array([0.5, 1.5, 2.5])
    nsim = 2 * randomization.CHUNK_SIZE + 700

    def counts():
        return _mc_tail_counts(s.tie_pattern, s.sizes, pairs, mu, tau, "s_abs", thresholds,
                               nsim, 4)

    monkeypatch.setenv("STEELRANK_THREADS", "1")
    serial = counts()
    assert 0 < serial.sum() < nsim * thresholds.size
    monkeypatch.setenv("STEELRANK_THREADS", "2")
    np.testing.assert_array_equal(counts(), serial)
    for rows in (None, 1, 7):
        _sliced(monkeypatch, rows, cells)
        np.testing.assert_array_equal(counts(), serial)


@pytest.mark.parametrize("design", ["two_valued_3x20", "two_valued_4x20"])
def test_two_valued_monte_carlo_matches_the_hypergeometric_oracle(design):
    # the fixture at the settings of its golden reports, and four groups
    groups = _routed_groups(design)
    s = rank_samples(groups)
    assert randomization._draws_count_tables(s.tie_pattern, s.n_groups)
    ms = pair_moments(s.sizes, s.tie_pattern, control_pairs(s.n_groups))
    for alternative in ("greater", "less", "two-sided"):
        obs = observe(s, ms, alternative)
        want = float(two_valued_tail(groups, ms.mu, ms.tau, obs.statistic))
        got = _mc_p(s, obs, nsim=20000, seed=3).estimate
        assert abs(got - want) <= 4 * math.sqrt(want * (1 - want) / 20000), (alternative, got, want)


# ---------------------------------------------------------------------------
# tail tables: the exact mass summed over the walk's rows is their oracle


def _masked_mass(s, ms, statistic, threshold):
    """The tail mass as the sum of the int weights of the walk rows in the tail."""
    w, wt = randomization._enumerate_w(s.tie_pattern, s.sizes, ms.pairs)
    stats = reduce_statistic(statistic, standardize(w, ms.mu, ms.tau))
    return int(wt[in_tail(statistic, stats, threshold)].sum())


@pytest.mark.parametrize("all_group_pairs", [False, True])
@pytest.mark.parametrize("tied", [False, True])
def test_tail_tables_give_the_masked_sum_at_every_attained_value(tied, all_group_pairs):
    rng = np.random.default_rng(61 + 2 * tied + all_group_pairs)
    for sizes in ((4, 4, 4), (2, 3, 2, 2), (6, 5)):
        groups = [rng.integers(0, 4, size=n) if tied else rng.normal(size=n) for n in sizes]
        s = rank_samples(groups)
        pairs = (all_pairs if all_group_pairs else control_pairs)(s.n_groups)
        ms = pair_moments(s.sizes, s.tie_pattern, pairs)
        total = split_count(s.sizes)
        w, _ = randomization._enumerate_w(s.tie_pattern, s.sizes, pairs)
        for statistic in ("s_max", "s_min", "s_abs"):
            values = np.unique(reduce_statistic(statistic, standardize(w, ms.mu, ms.tau)))
            # every attained value, where splits tie with the threshold, and its neighbours
            thresholds = np.concatenate([values, np.nextafter(values, -np.inf),
                                         np.nextafter(values, np.inf), [-np.inf, np.inf]])
            for t in thresholds.tolist():
                got = exact_p_value(s, ms, statistic, [t])[0]
                assert got == _masked_mass(s, ms, statistic, t) / total, (sizes, statistic, t)
        keys = [key for key in _exact_tables() if key[1:4] == (s.tie_pattern.d, s.sizes, pairs)]
        assert sorted(key[4] for key in keys) == ["s_abs", "s_max", "s_min"]


def test_tail_tables_are_read_only_and_end_at_the_split_count():
    s = rank_samples([[0.3, 1.2, 2.5, 0.1], [1.1, 2.2, 3.3, 4.4], [0.5, 0.6, 0.7, 5.0]])
    ms = pair_moments(s.sizes, s.tie_pattern, control_pairs(3))
    exact_p_value(s, ms, "s_abs", [1.0])
    ((key, (values, cum)),) = _exact_tables().items()
    assert key[4] == "s_abs" and not values.flags.writeable and not cum.flags.writeable
    assert cum.dtype == np.int64 and cum[0] == 0 and cum[-1] == split_count(s.sizes)
    assert len(cum) == len(values) + 1 and (np.diff(values) >= 0).all()


def test_a_hand_built_moment_set_shares_its_designs_tail_table():
    s = rank_samples([[0.3, 1.2, 2.5, 0.1], [1.1, 2.2, 3.3, 4.4], [0.5, 0.6, 0.7, 5.0]])
    ms = pair_moments(s.sizes, s.tie_pattern, control_pairs(3))
    hand_built = MomentSet(ms.sizes, ms.pairs, *tie_sums(s.tie_pattern))
    assert hand_built is not ms
    total = split_count(s.sizes)
    for threshold in (-0.5, 0.0, 0.7):
        q = exact_p_value(s, hand_built, "s_max", [threshold])[0]
        p = exact_p_value(s, ms, "s_max", [threshold])[0]
        assert p == q == _masked_mass(s, ms, "s_max", threshold) / total
    assert len(_exact_tables()) == 1


def test_python_int_weight_walks_keep_no_tail_table(walk_calls):
    # two-valued 4x12: 2.3e26 splits, so the walk's weights are Python ints
    rng = np.random.default_rng(0)
    groups = [rng.integers(0, 2, size=12) for _ in range(4)]
    s, obs = _steel(groups, "greater")
    ms = pair_moments(s.sizes, s.tie_pattern, control_pairs(s.n_groups))
    for _ in range(2):
        got = _exact_p(s, obs, budget=10**30)
        assert got == float(two_valued_tail(groups, ms.mu, ms.tau, obs.statistic))
    assert len(walk_calls) == 2 and not _exact_tables()
    # the one table path gives Python-int cumulative weights, which the cache refuses
    w, wt = randomization._enumerate_w(s.tie_pattern, s.sizes, ms.pairs, budget=10**30)
    values, cum = randomization._tail_table(w, wt, ms.mu, ms.tau, "s_max")
    assert wt.dtype == cum.dtype == object and not cum.flags.writeable
    assert cum[0] == 0 and cum[-1] == split_count(s.sizes) and type(cum[-1]) is int
    assert _cache.held_bytes((values, cum)) is None


def test_a_repeated_exact_analysis_of_one_design_standardizes_no_support(monkeypatch):
    rows = []  # rows of every standardize call, from either module

    def spy(w, mu, tau):
        rows.append(len(w) if w.ndim == 2 else 1)
        return standardize(w, mu, tau)

    monkeypatch.setattr(statistics, "standardize", spy)
    monkeypatch.setattr(randomization, "standardize", spy)
    cfg = RunConfig(method="exact", alternative="greater")
    rng = np.random.default_rng(5)
    for attempt in range(3):
        rows.clear()
        report = analyze(cfg, {g: rng.normal(size=n).tolist() for g, n in zip("abc", (4, 4, 4))})
        assert report["p_values"]["exact"]["method"] == "exact"
        assert max(rows) > 1 if attempt == 0 else rows == [1]  # observe's one row
