import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from steelrank import (
    ParameterError,
    RankedSamples,
    compute_midranks,
    extract_tie_pattern,
    mann_whitney_star,
    observe,
    pair_moments,
    rank_samples,
    rank_sums,
)
from steelrank.moments import all_pairs, control_pairs

from _oracles import brute_w_star, split_moments

scores = st.lists(st.integers(min_value=-4, max_value=4).map(float), min_size=1, max_size=15)


def test_mann_whitney_examples():
    assert mann_whitney_star([1.5, 1.5], [3, 5]) == 4
    assert mann_whitney_star([1.5, 5], [1.5, 5]) == 2


def test_mann_whitney_iq_values(iq_groups):
    control = iq_groups[0]
    w = [mann_whitney_star(control, t) for t in iq_groups[1:]]
    assert w == [7, 17, 12.5]


@given(scores, scores)
def test_mann_whitney_matches_double_loop(x, y):
    assert mann_whitney_star(x, y) == brute_w_star(x, y)


@given(scores, scores)
def test_mann_whitney_antisymmetry(x, y):
    assert mann_whitney_star(x, y) + mann_whitney_star(y, x) == len(x) * len(y)


@given(scores, scores, st.integers(min_value=-100, max_value=100))
def test_shift_invariance(x, y, c):
    shifted = mann_whitney_star([v + c for v in x], [v + c for v in y])
    assert shifted == mann_whitney_star(x, y)


def test_empty_sample_error():
    with pytest.raises(ParameterError):
        mann_whitney_star([], [1.0])


def _observe(groups, alternative):
    s = rank_samples(groups)
    ms = pair_moments(s.sizes, s.tie_pattern, control_pairs(s.n_groups))
    return observe(s, ms, alternative)


def test_steel_statistics_iq(iq_groups):
    obs = _observe(iq_groups, "less")
    assert obs.statistic == "s_min"
    assert obs.statistic_value == pytest.approx(-1.7713, abs=5e-5)
    assert obs.statistic_value == obs.standardized.min()


def test_steel_statistics_degenerate():
    for alternative in ("greater", "less", "two_sided"):
        obs = _observe([[5, 5], [5], [5, 5, 5]], alternative)
        assert obs.standardized.tolist() == [0, 0]
        assert obs.statistic_value == 0
        assert obs.degenerate == (0, 1)


def test_steel_statistics_derived_small_case():
    # midranks (1.5, 1.5, 3, 5, 5, 5) split as X=(1.5, 1.5), Y1=(3, 5), Y2=(5, 5)
    obs = _observe([[1, 1], [2, 3], [3, 3]], "greater")
    expected = 2 / math.sqrt(41 / 30)  # = 1.7107978...
    assert obs.w_star.tolist() == [4, 4]
    assert obs.standardized == pytest.approx([expected, expected], rel=1e-12)
    assert (obs.statistic, obs.statistic_value) == ("s_max", pytest.approx(expected, rel=1e-12))


def test_two_sided_is_max_of_both_tails():
    rng = np.random.default_rng(3)
    for _ in range(10):
        groups = [rng.integers(0, 6, size=rng.integers(2, 6)).tolist() for _ in range(3)]
        s_max, s_min, s_abs = (_observe(groups, alt) for alt in ("greater", "less", "two_sided"))
        assert s_abs.statistic_value == max(s_max.statistic_value, -s_min.statistic_value)
        assert s_abs.statistic_value == np.abs(s_abs.standardized).max()
        assert s_max.statistic_value == s_abs.standardized.max()


def test_equal_sizes_argmax_matches_raw_statistic():
    rng = np.random.default_rng(9)
    for _ in range(10):
        groups = [rng.integers(0, 8, size=4).tolist() for _ in range(4)]
        obs = _observe(groups, "greater")
        assert np.argmax(obs.standardized) == np.argmax(obs.w_star)


def test_null_mean_matches_enumeration():
    values = [1, 1, 2, 3, 3, 3]
    mean, _, _ = split_moments(values, (2, 2, 2), [(0, 1), (0, 2)])
    assert mean.tolist() == [2, 2]


def test_rank_sums_accessor(iq_groups):
    obs = _observe(iq_groups, "less")
    assert rank_sums(obs.w_star, [6, 6, 6]).tolist() == [28, 38, 33.5]
    assert rank_sums([3.0], [2.0]).tolist() == [6.0]
    for size in (2.5, -2, 0, float("nan"), float("inf"), "2", "x"):
        with pytest.raises(ParameterError, match="integers >= 1"):
            rank_sums([3.0], [size])


def test_moment_mismatch_rejected():
    s = rank_samples([[1, 2], [3, 4]])
    wrong = pair_moments((2, 2, 2), rank_samples([[1, 2], [3, 4], [5, 6]]).tie_pattern,
                         control_pairs(3))
    with pytest.raises(ParameterError):
        observe(s, wrong, "greater")


# a small pool with exact ties, signed zeros and both infinities
POOL = [-math.inf, -2.5, -1.0, -0.0, 0.0, 1.0, 1e-300, 2.5, 7.0, math.inf]


@st.composite
def designs(draw):
    """2-5 groups of unequal sizes with random ties; one in ten is one value repeated."""
    k = draw(st.integers(min_value=2, max_value=5))
    sizes = draw(st.lists(st.integers(min_value=1, max_value=7), min_size=k, max_size=k))
    pool = draw(st.lists(st.sampled_from(POOL), min_size=1, max_size=len(POOL), unique=True))
    if draw(st.integers(min_value=0, max_value=9)) == 0:
        pool = pool[:1]
    return [draw(st.lists(st.sampled_from(pool), min_size=n, max_size=n)) for n in sizes]


@settings(derandomize=True, max_examples=200, deadline=None)
@given(designs())
def test_observed_w_from_the_count_table_equals_the_pair_counts(groups):
    s = rank_samples(groups)
    pooled = [v for g in groups for v in g]
    pool = np.concatenate(s.scores)
    assert pool.tobytes() == np.asarray(pooled, dtype=float).tobytes()  # -0.0 kept
    assert compute_midranks(pool).tolist() == compute_midranks(pooled).tolist()
    assert s.tie_pattern == extract_tie_pattern(pooled)
    distinct = sorted(set(pooled))  # -0.0 and 0.0 are one value, as in the ranking
    assert s.counts.tolist() == [[g.count(v) for v in distinct] for g in groups]
    for pairs in (control_pairs(s.n_groups), all_pairs(s.n_groups)):
        ms = pair_moments(s.sizes, s.tie_pattern, pairs)
        w = observe(s, ms, "two_sided").w_star
        assert w.tolist() == [mann_whitney_star(groups[a], groups[b]) for a, b in pairs]


def test_ranked_samples_built_from_midranks_derive_the_same_count_table():
    groups = [[3.0, 1.0, 1.0], [2.0, 3.0], [1.0, 5.0, 5.0, 3.0]]
    s = rank_samples(groups)
    # the table as the pooled midranks give it: their distinct values mark the distinct scores
    _, value_class = np.unique(compute_midranks(np.concatenate(s.scores)), return_inverse=True)
    labels = np.repeat(np.arange(s.n_groups), s.sizes)
    derived = np.zeros_like(s.counts)
    np.add.at(derived, (labels, value_class), 1)
    assert derived.tolist() == s.counts.tolist() == [[2, 0, 1, 0], [0, 1, 1, 0], [1, 0, 1, 2]]
    rebuilt = RankedSamples(s.sizes, s.tie_pattern, derived, s.scores)
    assert rebuilt.counts.tolist() == s.counts.tolist()
    with pytest.raises(ParameterError, match="count table"):
        RankedSamples(s.sizes, s.tie_pattern, s.counts[:, ::-1], s.scores)
