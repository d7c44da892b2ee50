from fractions import Fraction

import numpy as np
import pytest

from steelrank import (
    FactorModel,
    ParameterError,
    TiePattern,
    exact_null_distribution,
    factor_decomposition,
    joint_lower_box_prob,
    pairwise_differences,
    rank_samples,
    select_indices,
    simultaneous_bounds,
    simultaneous_intervals,
)


def no_ties_model(sizes) -> FactorModel:
    return FactorModel.from_moments(
        factor_decomposition(sizes, TiePattern.no_ties(sum(sizes)))
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
