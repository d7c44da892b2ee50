import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest

from steelrank import _cache, confidence
from steelrank import (
    FactorModel,
    ParameterError,
    RankedSamples,
    TiePattern,
    joint_lower_box_prob,
    kth_difference,
    pair_moments,
    rank_samples,
    select_indices,
    simultaneous_bounds,
    simultaneous_intervals,
)
from steelrank.moments import control_pairs

from _exact import exact_null_distribution
from _oracles import pairwise_differences


def no_ties_model(sizes) -> FactorModel:
    return FactorModel.from_moments(
        pair_moments(sizes, TiePattern.no_ties(sum(sizes)), control_pairs(len(sizes)))
    )


def exact_mw_lower_cdf(n0: int, n1: int) -> dict[float, Fraction]:
    """Exact P(W <= c) for the no-ties two-sample statistic, by full enumeration."""
    samples = rank_samples([list(range(n0)), list(range(n0, n0 + n1))])
    dist = exact_null_distribution(samples, "vector_w")
    out = {}
    acc = 0
    for v, w in zip(dist.values[:, 0], dist.weights):
        acc += int(w)
        out[float(v)] = Fraction(acc, dist.total)
    return out


def test_pairwise_differences_examples():
    assert pairwise_differences([1, 3], [2, 6]).tolist() == [-1, 1, 3, 5]
    assert pairwise_differences([0], [5]).tolist() == [5]
    diffs = pairwise_differences([4, 7, 9], [4, 7, 9])
    assert (diffs == 0).sum() == 3 and diffs.size == 9


def test_select_indices_k1_against_exact_wilcoxon():
    model = no_ties_model((6, 6))
    sel = select_indices(model, 0.95, "upper")
    cdf = exact_mw_lower_cdf(6, 6)
    exact_at = {j: float(cdf[j - 1]) for j in range(1, 37)}
    assert sel.achieved_conservative >= 0.95
    assert abs(sel.achieved_conservative - exact_at[sel.j[0]]) <= 0.02
    assert abs(sel.achieved_closest - exact_at[sel.j_closest[0]]) <= 0.02
    # reported coverages are exactly the box-probability evaluations
    assert sel.achieved_conservative == joint_lower_box_prob(
        model, np.array([sel.j[0] - 1.0])
    )


def _joint_coverage_deviation(sizes):
    groups, k = [], 0
    for s in sizes:
        groups.append(list(range(k, k + s)))
        k += s
    dist = exact_null_distribution(rank_samples(groups), "vector_w")
    model = no_ties_model(sizes)
    worst = 0.0
    for gamma in (0.8, 0.9, 0.95):
        sel = select_indices(model, gamma, "upper")
        for j, cov in ((sel.j, sel.achieved_conservative), (sel.j_closest, sel.achieved_closest)):
            inside = np.all(dist.values <= np.asarray(j) - 1.0, axis=1)
            exact = float(dist.weights[inside].sum() / dist.total)
            worst = max(worst, abs(cov - exact))
    return worst


def test_select_indices_k2_joint_coverage_against_enumeration():
    # exact joint lower CDF of (W1, W2) by full enumeration; the approximation
    # meets the 0.02 band at the largest in-budget sizes, and the coarser W
    # lattice at n=4 caps the attainable accuracy near 0.04
    assert _joint_coverage_deviation((6, 5, 5)) <= 0.02
    assert _joint_coverage_deviation((4, 4, 4)) <= 0.04


def test_select_indices_reflection_symmetry():
    model = no_ties_model((6, 6, 6))
    up = select_indices(model, 0.9, "upper")
    lo = select_indices(model, 0.9, "lower")
    assert lo.j == tuple(36 + 1 - j for j in up.j)
    assert lo.achieved_conservative == up.achieved_conservative
    assert lo.achieved_closest == up.achieved_closest


def test_select_indices_unreachable_gamma():
    model = no_ties_model((4, 4))
    sel = select_indices(model, 1 - 1e-12, "upper")
    assert sel.unreachable
    assert sel.j == (16,)


def test_select_indices_monotone_coverage():
    model = no_ties_model((5, 5, 5))
    covers = [
        joint_lower_box_prob(model, np.array([c, c]) - 1.0)
        for c in (10.0, 14.0, 18.0, 22.0)
    ]
    assert all(a < b for a, b in zip(covers, covers[1:]))


def test_bounds_widening_is_exact():
    control = [1.0, 1.2, 1.4]
    treatment = [1.6, 1.8, 2.0]
    plain = simultaneous_bounds([control, treatment], 0.9, "upper", rounding_eps=0.0)
    wide = simultaneous_bounds([control, treatment], 0.9, "upper", rounding_eps=0.2)
    assert wide.j_upper == plain.j_upper
    assert wide.upper[0] == plain.upper[0] + 0.2
    assert wide.widened_by == 0.2
    assert any("ties" not in w for w in wide.warnings) or wide.warnings == ()


def test_bounds_values_are_selected_differences():
    rng = np.random.default_rng(31)
    groups = [rng.normal(size=6).tolist() for _ in range(3)]
    res = simultaneous_bounds(groups, 0.9, "upper")
    for i, t in enumerate(groups[1:]):
        diffs = pairwise_differences(groups[0], t)
        assert res.upper[i] == diffs[res.j_upper[i] - 1]
    assert res.lower == (None, None)


def test_bounds_shift_equivariance():
    rng = np.random.default_rng(5)
    groups = [rng.normal(size=5).tolist() for _ in range(3)]
    base = simultaneous_bounds(groups, 0.9, "upper")
    shifted_groups = [groups[0], [v + 3.5 for v in groups[1]], groups[2]]
    shifted = simultaneous_bounds(shifted_groups, 0.9, "upper")
    assert shifted.upper[0] == pytest.approx(base.upper[0] + 3.5, rel=1e-12)
    assert shifted.upper[1] == base.upper[1]


def test_bounds_scale_equivariance():
    rng = np.random.default_rng(6)
    groups = [rng.normal(size=5).tolist() for _ in range(2)]
    base = simultaneous_bounds(groups, 0.9, "lower")
    scaled = simultaneous_bounds([[2.0 * v for v in g] for g in groups], 0.9, "lower")
    assert scaled.lower[0] == pytest.approx(2.0 * base.lower[0], rel=1e-12)


def test_k1_reduces_to_classical_wilcoxon_bound():
    # the classical construction picks the smallest j with exact P(W <= j-1) >= gamma
    cdf = exact_mw_lower_cdf(6, 6)
    gamma = 0.95
    classical_j = min(j for j in range(1, 37) if float(cdf[j - 1]) >= gamma)
    rng = np.random.default_rng(8)
    groups = [rng.normal(size=6).tolist(), rng.normal(size=6).tolist()]
    res = simultaneous_bounds(groups, gamma, "upper")
    # normal approximation may differ from the exact index by at most one step
    assert abs(res.j_upper[0] - classical_j) <= 1
    exact_coverage = float(cdf[res.j_upper[0] - 1])
    assert abs(res.achieved_conservative - exact_coverage) <= 0.02


def test_intervals_use_half_level_sides():
    rng = np.random.default_rng(12)
    groups = [rng.normal(size=6).tolist() for _ in range(3)]
    res = simultaneous_intervals(groups, 0.90)
    assert res.one_sided_gamma == 0.95
    up = simultaneous_bounds(groups, 0.95, "upper")
    lo = simultaneous_bounds(groups, 0.95, "lower")
    assert res.upper == up.upper
    assert res.lower == lo.lower
    assert all(a <= b for a, b in zip(res.lower, res.upper))


def test_intervals_identical_samples_contain_zero():
    rng = np.random.default_rng(44)
    for _ in range(5):
        g = rng.normal(size=6).tolist()
        res = simultaneous_intervals([g, list(g)], 0.9)
        assert res.lower[0] <= 0 <= res.upper[0]


def test_intervals_near_one_span_all_differences():
    rng = np.random.default_rng(9)
    control = rng.normal(size=5).tolist()
    treatment = rng.normal(size=5).tolist()
    res = simultaneous_intervals([control, treatment], 1 - 1e-12, rounding_eps=0.1)
    diffs = pairwise_differences(control, treatment)
    assert res.unreachable
    assert res.lower[0] == diffs[0] - 0.1
    assert res.upper[0] == diffs[-1] + 0.1


def test_ties_trigger_widening_warning():
    res = simultaneous_bounds([[1, 1, 2], [2, 3, 3]], 0.9, "upper")
    assert any("rounding_eps" in w for w in res.warnings)
    quiet = simultaneous_bounds([[1, 1, 2], [2, 3, 3]], 0.9, "upper", rounding_eps=0.5)
    assert not any("rounding_eps" in w for w in quiet.warnings)


def test_parameter_validation():
    with pytest.raises(ParameterError):
        simultaneous_bounds([[1, 2], [3, 4]], 1.5, "upper")
    with pytest.raises(ParameterError):
        simultaneous_bounds([[1, 2], [3, 4]], 0.9, "sideways")
    for eps in (-0.1, float("nan"), float("inf"), float("-inf")):
        with pytest.raises(ParameterError, match="rounding_eps"):
            simultaneous_bounds([[1, 2], [3, 4]], 0.9, "upper", rounding_eps=eps)
        with pytest.raises(ParameterError, match="rounding_eps"):
            simultaneous_intervals([[1, 2], [3, 4]], 0.9, rounding_eps=eps)
    with pytest.raises(ParameterError):
        simultaneous_intervals([[1, 2]], 0.9)


def test_non_finite_data_is_rejected_with_group_and_index():
    # inf - inf in the differences would report NaN and -inf bounds
    control, treatment = [1.0, 3.0, 4.0, 5.0], [2.0, 5.0, 6.0, float("-inf")]
    with pytest.raises(ParameterError, match="group 1 index 3"):
        simultaneous_bounds([control, treatment], 0.9, "upper")
    with pytest.raises(ParameterError, match="group 0 index 1"):
        simultaneous_intervals([[1, float("inf"), 3, 4], [2, 4, 5, 6]], 0.9)
    # the index counts within its group, and the first non-finite value is named
    groups = [[1.0, 2.0, 3.0], [4.0, 5.0], [6.0, float("inf"), float("-inf")]]
    with pytest.raises(ParameterError) as err:
        simultaneous_bounds(groups, 0.9, "lower")
    assert str(err.value) == "shift bounds need finite data: group 2 index 1 is inf"


def test_data_whose_differences_overflow_is_rejected_with_the_group():
    # finite values, but y - x overflows float64: the bound would read inf
    huge = [[-1e308, -1.1e308, -1.2e308, 0, 1, 2], [1e308, 1.1e308, 1.2e308, 5, 6, 7]]
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # and no numpy overflow warning on the way
        for groups in (huge, huge[::-1], [huge[0], [0.0, 1.0], huge[1]]):
            g = len(groups) - 1
            for direction in confidence.DIRECTIONS:
                with pytest.raises(ParameterError, match=f"group {g} minus group 0 overflows"):
                    simultaneous_bounds(groups, 0.95, direction)
            with pytest.raises(ParameterError, match=f"group {g} minus group 0 overflows"):
                simultaneous_intervals(groups, 0.95)
        res = simultaneous_intervals([[0.0, 1.0, 2.0], [1.7e308, 1.75e308, 1.6e308]], 0.5)
    assert all(np.isfinite(res.lower + res.upper))


def test_bounds_read_the_scores_rank_samples_keeps():
    groups = [[0.1, 0.5, 0.5, 1.3], [0.4, 1.1, 1.6, 2.0, 2.7], [-0.0, 0.3, 0.9]]
    samples = rank_samples(groups)
    assert [a.tolist() for a in samples.scores] == groups
    for call in (lambda g: simultaneous_intervals(g, 0.9),
                 lambda g: simultaneous_bounds(g, 0.9, "lower", rounding_eps=0.05)):
        assert call(samples) == call(groups)
    with pytest.raises(TypeError, match="scores"):  # no record reaches the bounds without them
        RankedSamples(samples.sizes, samples.tie_pattern, samples.counts)
    with pytest.raises(ParameterError, match="scores"):
        RankedSamples(samples.sizes, samples.tie_pattern, samples.counts, samples.scores[::-1])


def _selection_keys():
    return [key for key in _cache.DESIGNS._items if key[0] == "selection"]


def test_ties_warning_is_per_call_when_the_selection_is_cached(monkeypatch):
    solves = []
    select = confidence.select_indices
    monkeypatch.setattr(
        confidence, "select_indices", lambda *args: solves.append(args) or select(*args)
    )
    untied = [[0.1, 0.5, 0.9, 1.3, 2.2], [0.4, 1.1, 1.6, 2.0, 2.7, 3.1]]
    tied = [[0, 0, 1, 1, 2], [1, 1, 2, 2, 3, 3]]
    for groups, warned in ((untied, False), (tied, True), (untied, False)):
        res = simultaneous_bounds(groups, 0.9, "lower")
        assert any("rounding_eps" in w for w in res.warnings) == warned
    assert len(solves) == 1 and len(_selection_keys()) == 1


def test_bounds_equal_those_computed_with_the_caches_cleared():
    rng = np.random.default_rng(17)
    sizes = (9, 7, 8)
    calls = [
        lambda g: simultaneous_bounds(g, 0.9, "upper"),
        lambda g: simultaneous_bounds(g, 0.9, "lower"),
        lambda g: simultaneous_intervals(g, 0.8),  # one-sided 0.9: the same selection
        lambda g: simultaneous_bounds(g, 0.95, "lower", rounding_eps=0.05),
    ]
    for _ in range(3):
        groups = [np.round(rng.normal(size=n), 1) for n in sizes]
        warm = [call(groups) for call in calls]
        assert len(_selection_keys()) == 2
        for call, want in zip(calls, warm):
            _cache.DESIGNS.clear()
            assert call(groups) == want
    model = no_ties_model(sizes)
    _, sel = confidence._selection(sizes, 0.9, confidence.DEFAULT_NODES)
    assert sel == select_indices(model, 0.9, "upper")
    assert confidence._reflected(model, sel) == select_indices(model, 0.9, "lower")


def test_failed_selections_are_not_cached():
    groups = [[0.1, 0.5, 0.9, 1.3], [0.4, 1.1, 1.6, 2.0]]
    for gamma in (float("nan"), 1.0, 0.0):
        with pytest.raises(ParameterError, match="gamma"):
            simultaneous_bounds(groups, gamma, "upper")
        with pytest.raises(ParameterError, match="gamma"):
            simultaneous_intervals(groups, gamma)
    for nodes in (0, 10**6):
        with pytest.raises(ParameterError):
            simultaneous_bounds(groups, 0.9, "lower", nodes=nodes)
    assert _selection_keys() == []
    simultaneous_bounds(groups, 0.9, "lower")
    assert len(_selection_keys()) == 1


def _bits(v) -> bytes:
    return np.float64(v).tobytes()


def _narrowing(monkeypatch, candidates):
    """Send every table through the distinct-value narrowing, stopping at ``candidates`` cells."""
    monkeypatch.setattr(confidence, "_SORT_CELLS", 0)
    monkeypatch.setattr(confidence, "_CANDIDATE_CELLS", candidates)


def _draw(rng, kind, n):
    if kind == "untied":
        return rng.normal(size=n)
    if kind == "grid":  # + 0.0: the oracle orders -0.0 and 0.0 arbitrarily
        return np.round(rng.normal(size=n), 1) + 0.0
    if kind == "integer":
        return rng.integers(-3, 4, size=n).astype(float)
    if kind == "equal":
        return np.full(n, 2.5)
    # finite values whose differences overflow to +-inf
    return rng.choice([-1.7e308, -1.6e308, -1e308, 0.0, 1.0, 1e308, 1.6e308, 1.7e308], size=n)


KINDS = ("untied", "grid", "integer", "equal", "huge")


@pytest.mark.parametrize("candidates", [None, 0, 1, 7, 64])
@pytest.mark.parametrize("kind", KINDS)
def test_kth_difference_is_the_sorted_outer_order_statistic(monkeypatch, kind, candidates):
    if candidates is not None:
        _narrowing(monkeypatch, candidates)
    rng = np.random.default_rng([17, KINDS.index(kind), candidates or 0])
    with np.errstate(over="ignore"):
        for _ in range(40):
            n0, ni = (int(v) for v in rng.integers(1, 30, size=2))
            x, y = _draw(rng, kind, n0), _draw(rng, kind, ni)
            diffs = np.sort(np.subtract.outer(y, x).ravel())
            for k in {1, n0 * ni, *rng.integers(1, n0 * ni + 1, size=3).tolist()}:
                assert _bits(kth_difference(x, y, k)) == _bits(diffs[k - 1]), (n0, ni, k)


@pytest.mark.parametrize("kind", ["untied", "grid"])
def test_kth_difference_narrows_large_tables_exactly(kind):
    # 600 x 500 cells exceed the whole-table sort, so the default narrowing runs
    rng = np.random.default_rng(23)
    x, y = _draw(rng, kind, 600), _draw(rng, kind, 500) + 0.3
    assert x.size * y.size > confidence._SORT_CELLS
    diffs = pairwise_differences(x, y)
    for k in (1, 2, 1000, 150_000, 299_999, 300_000):
        assert _bits(kth_difference(x, y, k)) == _bits(diffs[k - 1]), k


def test_kth_difference_rejects_out_of_range_k():
    for k in (0, 7, 2.5, -1):
        with pytest.raises(ParameterError, match="k must be"):
            kth_difference([1.0, 2.0], [3.0, 4.0, 5.0], k)


@pytest.mark.parametrize("narrow", [False, True])
def test_zero_bounds_are_positive_zero_on_data_holding_negative_zero(monkeypatch, narrow):
    if narrow:
        _narrowing(monkeypatch, 0)
    rng = np.random.default_rng(3)
    # recorded to 0.1, so round(-0.04, 1) == -0.0 appears among the values
    groups = [np.round(rng.normal(scale=0.06, size=40), 1).tolist() for _ in range(3)]
    assert any(np.signbit(v) and v == 0 for g in groups for v in g)
    res = simultaneous_intervals(groups, 0.5)
    bounds = res.lower + res.upper
    assert 0.0 in bounds
    assert all(_bits(v) == _bits(0.0) for v in bounds if v == 0)
    one_sided = simultaneous_bounds(groups, 0.6, "upper").upper
    assert all(_bits(v) == _bits(0.0) for v in one_sided if v == 0)


def _count_check(control, treatment, value, j):
    """below < j <= at, counting differences in row chunks without forming them all."""
    below = at = 0
    for start in range(0, treatment.size, 250):
        d = np.subtract.outer(treatment[start:start + 250], control)
        below += int((d < value).sum())
        at += int((d <= value).sum())
    assert below < j <= at, (value, j, below, at)


def test_bound_memory_does_not_grow_with_the_difference_count():
    # 5000 x 5000 = 2.5e7 differences per treatment: sorting them needed two
    # 200 MB arrays per treatment
    rng = np.random.default_rng(41)
    groups = [rng.normal(size=5000) + shift for shift in (0.0, 0.2, -0.1)]
    simultaneous_bounds([[0.0, 1.0], [0.5, 2.0]], 0.9, "upper")  # loads the threshold solver
    tracemalloc.start()
    try:
        res = simultaneous_bounds(groups, 0.95, "upper")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 32 * 2**20
    for t, value, j in zip(groups[1:], res.upper, res.j_upper):
        _count_check(groups[0], t, value, j)


def test_rounded_3x2000_intervals_select_the_sorted_differences():
    rng = np.random.default_rng(43)
    groups = [np.round(rng.normal(size=2000) + shift, 1) + 0.0 for shift in (0.0, 0.25, 0.5)]
    res = simultaneous_intervals(groups, 0.9, rounding_eps=0.05)
    for i, t in enumerate(groups[1:]):
        diffs = pairwise_differences(groups[0], t)
        assert res.lower[i] == diffs[res.j_lower[i] - 1] - 0.05
        assert res.upper[i] == diffs[res.j_upper[i] - 1] + 0.05


def test_each_side_of_an_interval_is_the_one_sided_bound_at_its_level():
    rng = np.random.default_rng(23)
    groups = [rng.normal(size=n).tolist() for n in (7, 6, 8)]
    iv = simultaneous_intervals(groups, 0.8, rounding_eps=0.05)  # one-sided 0.9
    up = simultaneous_bounds(groups, 0.9, "upper", rounding_eps=0.05)
    lo = simultaneous_bounds(groups, 0.9, "lower", rounding_eps=0.05)
    assert (iv.direction, iv.nominal_gamma, iv.one_sided_gamma) == ("interval", 0.8, 0.9)
    assert (iv.upper, iv.j_upper) == (up.upper, up.j_upper)
    assert (iv.lower, iv.j_lower) == (lo.lower, lo.j_lower)
    assert up.lower == lo.upper == (None, None) and up.j_lower is lo.j_upper is None
    for res in (iv, up, lo):
        assert res.achieved_conservative == iv.achieved_conservative
    with pytest.raises(ParameterError, match="direction"):
        simultaneous_bounds(groups, 0.9, "interval")


def test_an_unreachable_target_warns_once_at_the_one_sided_level():
    groups = [[0.1, 0.5, 0.9, 1.3, 2.2], [0.4, 1.1, 1.6, 2.0, 2.7]]
    for res in (simultaneous_intervals(groups, 1 - 1e-6),
                simultaneous_bounds(groups, 1 - 1e-6, "lower")):
        assert res.unreachable
        assert res.warnings == (
            f"conservative target unreachable: best joint coverage "
            f"{res.achieved_conservative:.6g} < {res.one_sided_gamma:.6g}",
        )
