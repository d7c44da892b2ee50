import dataclasses
import json
import math
import warnings
from pathlib import Path
from statistics import NormalDist

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq
from scipy.special import log_ndtr as scipy_log_ndtr
from scipy.special import ndtr as scipy_ndtr
from scipy.stats import multivariate_normal, norm

from steelrank import (
    MomentSet,
    NumericError,
    ParameterError,
    TiePattern,
    extract_tie_pattern,
    joint_lower_box_prob,
    pair_moments,
    solve_common_threshold,
    tail_prob,
)
from steelrank.analysis import quality_harness
import steelrank.gauss as gauss
from steelrank.gauss import _box_mass, _log_ndtr, _ndtr, _split, brent_root
from steelrank.moments import all_pairs, control_pairs

DATA = Path(__file__).parent / "data"


def no_ties_moments(sizes) -> MomentSet:
    return pair_moments(sizes, TiePattern.no_ties(sum(sizes)), control_pairs(len(sizes)))


IQ_TIE = TiePattern((3, 2, 1, 1, 1, 1, 1, 1, 1, 1, 4, 2, 1, 1, 1, 1, 1))


def iq_moments() -> MomentSet:
    ms = pair_moments((6, 6, 6, 6), IQ_TIE, control_pairs(4))
    assert math.sqrt(ms.sigma0_2) == pytest.approx(0.7062328, abs=1e-6)
    assert ms.tau == pytest.approx([6.210249] * 3, abs=1e-6)
    return ms


def ndtr(z: float) -> float:
    """The normal distribution function that _box_mass evaluates, as a Python float."""
    return float(_ndtr(z))


def ulps(got: np.ndarray, want: np.ndarray) -> np.ndarray:
    """|got - want| in units of the last place of the larger; 0 where equal, also at inf."""
    same = (got == want) | (np.isnan(got) & np.isnan(want))
    with np.errstate(invalid="ignore"):
        gap = np.abs(got - want) / np.spacing(np.maximum(np.abs(got), np.abs(want)))
    return np.where(same, 0.0, gap)


CDF_GRID = np.concatenate([
    np.linspace(-40.0, 40.0, 400_001),
    -np.geomspace(40.0, 1e300, 2_000),  # far left: the log must not underflow
])
# scipy takes log_ndtr below -1 from the Faddeeva erfcx; between -sqrt(2) and -1 the
# port takes log(ndtr), and both are within 4 ulp of the exact value there (checked
# against 120-bit mpmath on 4,001 points), so they may differ by up to 8 ulp
ERF_GAP = (CDF_GRID > -math.sqrt(2.0)) & (CDF_GRID < -1.0)


def test_cdf_and_log_cdf_against_scipy_special():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        cdf, log_cdf = _ndtr(CDF_GRID), _log_ndtr(CDF_GRID)
    assert ulps(cdf, scipy_ndtr(CDF_GRID)).max() <= 4
    gap = ulps(log_cdf, scipy_log_ndtr(CDF_GRID))
    assert gap[~ERF_GAP].max() <= 6
    assert gap[ERF_GAP].max() <= 8
    # the grid's shape survives, and a 0-d input gives a 0-d result
    square = CDF_GRID[:400].reshape(20, 20)
    assert np.array_equal(_ndtr(square), cdf[:400].reshape(20, 20))
    assert np.array_equal(_log_ndtr(square), log_cdf[:400].reshape(20, 20))
    assert _ndtr(1.5).shape == () and _log_ndtr(1.5).shape == ()


def test_cdf_and_log_cdf_exact_values():
    r2 = math.sqrt(2.0)
    x = np.array([0.0, -0.0, 1.0, -1.0, r2, -r2, 8 * r2, -8 * r2, np.inf, -np.inf, np.nan])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        cdf, log_cdf = _ndtr(x), _log_ndtr(x)
    for got, want in ((cdf, scipy_ndtr(x)), (log_cdf, scipy_log_ndtr(x))):
        assert np.array_equal(got, want, equal_nan=True), (got, want)
    assert cdf[:2].tolist() == [0.5, 0.5] and cdf[8:10].tolist() == [1.0, 0.0]
    assert log_cdf[8:10].tolist() == [0.0, -np.inf]
    assert np.isnan(cdf[10]) and np.isnan(log_cdf[10])


def test_cdf_against_frozen_high_precision_table():
    table = json.loads((DATA / "normal_cdf_table.json").read_text())
    for entry in table:
        z = float(entry["z"])
        expected = float(entry["phi"])
        assert abs(ndtr(z) - expected) <= 1e-12


def test_cdf_point_values():
    assert ndtr(0.0) == 0.5
    assert ndtr(1.6448536269514722) == pytest.approx(0.95, abs=1e-12)
    # far tail against the asymptotic-series value frozen from the table
    assert ndtr(-8.0) == pytest.approx(6.22096057427178412351599517e-16, rel=1e-10)


def test_cdf_symmetry():
    for z in np.linspace(-10, 10, 81):
        assert abs(ndtr(-z) - (1 - ndtr(z))) <= 1e-15


def test_cdf_saturates():
    assert ndtr(41.0) == 1.0
    assert ndtr(-41.0) == 0.0


def test_k1_analytic_collapse():
    ms = no_ties_moments((7, 5))
    for u in np.linspace(-5, 5, 101):
        assert tail_prob(ms, u, "greater") == pytest.approx(1 - norm.cdf(u), abs=1e-8)
        assert tail_prob(ms, u, "less") == pytest.approx(norm.cdf(u), abs=1e-8)
    for u in np.linspace(0, 5, 101):
        assert tail_prob(ms, u, "two_sided") == pytest.approx(2 * (1 - norm.cdf(u)), abs=1e-8)


def test_small_tails_keep_relative_accuracy():
    ms = no_ties_moments((7, 5))
    # abs=1e-8 above cannot see cancellation in a tail of 1e-9; the collapse to
    # one standard normal must hold in relative terms out to |u| = 6
    for u in np.linspace(0, 6, 25):
        assert tail_prob(ms, u, "greater") == pytest.approx(norm.sf(u), rel=1e-8, abs=0)
        assert tail_prob(ms, -u, "less") == pytest.approx(norm.sf(u), rel=1e-8, abs=0)
        assert tail_prob(ms, u, "two_sided") == pytest.approx(2 * norm.sf(u), rel=1e-8, abs=0)


def test_k1_quantile_examples():
    ms = no_ties_moments((4, 9))
    assert tail_prob(ms, 1.6448536, "greater") == pytest.approx(0.05, abs=1e-6)
    assert tail_prob(ms, -1.6448536, "less") == pytest.approx(0.05, abs=1e-6)
    assert tail_prob(ms, 1.959964, "two_sided") == pytest.approx(0.05, abs=1e-6)


def test_k2_against_bivariate_normal_oracle():
    # equicorrelated pair, correlation 100/201, checked against the Genz CDF;
    # the oracle evaluates to 0.041479 at threshold 2 (frozen to 3 decimals below)
    ms = no_ties_moments((100, 100, 100))
    rho = 100 / 201
    oracle = 1 - multivariate_normal(mean=[0, 0], cov=[[1, rho], [rho, 1]]).cdf([2.0, 2.0])
    got = tail_prob(ms, 2.0, "greater")
    assert got == pytest.approx(oracle, abs=1e-6)
    assert got == pytest.approx(0.041, abs=5e-4)


def genz(ms: MomentSet):
    """Genz MVN distribution of the standardized coordinates of a moment set."""
    corr = ms.cov / np.outer(ms.tau, ms.tau)
    np.fill_diagonal(corr, 1.0)
    return multivariate_normal(
        mean=np.zeros(ms.mu.size), cov=corr, maxpts=1_000_000, abseps=1e-10, releps=1e-10
    )


@pytest.mark.parametrize(
    "ms, u",
    [
        (no_ties_moments((100, 100, 100)), [1.2, 2.1]),
        (no_ties_moments((8, 3, 6, 11)), [0.4, 1.9, 1.1]),
        (iq_moments(), [0.7, 1.3, 1.0]),
    ],
)
def test_unequal_thresholds_against_genz(ms, u):
    u = np.asarray(u)
    mvn = genz(ms)
    # any z_i >= u_i; any z_i <= -u_i (the reflected box); any |z_i| >= u_i
    assert tail_prob(ms, u, "greater") == pytest.approx(1 - mvn.cdf(u), abs=1e-6)
    assert tail_prob(ms, -u, "less") == pytest.approx(1 - mvn.cdf(u), abs=1e-6)
    both = mvn.cdf(u, lower_limit=-u)
    assert tail_prob(ms, u, "two_sided") == pytest.approx(1 - both, abs=1e-6)
    assert tail_prob(ms, u, "two-sided") == tail_prob(ms, u, "two_sided")


def test_tail_prob_rejects_bad_thresholds():
    ms = no_ties_moments((3, 3, 3))
    with pytest.raises(ParameterError):
        tail_prob(ms, [1.0, 2.0, 3.0], "greater")
    with pytest.raises(ParameterError):
        tail_prob(ms, [1.0, -0.1], "two_sided")
    with pytest.raises(ParameterError):
        tail_prob(ms, 1.0, "sideways")


def test_extreme_thresholds():
    ms = no_ties_moments((5, 5, 5))
    assert tail_prob(ms, -10.0, "greater") == pytest.approx(1.0, abs=1e-10)
    assert tail_prob(ms, 50.0, "greater") == 0.0
    assert tail_prob(ms, 0.0, "two_sided") == 1.0


def test_saturation_on_every_side():
    # tails far beyond any coordinate round to exactly 0, full boxes to exactly 1
    ms = no_ties_moments((5, 5, 5))
    assert tail_prob(ms, -50.0, "less") == 0.0
    assert tail_prob(ms, 50.0, "two_sided") == 0.0
    assert tail_prob(ms, [50.0, 50.0], "greater") == 0.0
    assert tail_prob(ms, [-50.0, -50.0], "less") == 0.0
    assert joint_lower_box_prob(ms, [np.inf, np.inf]) == 1.0


def test_min_max_symmetry():
    ms = no_ties_moments((6, 4, 8))
    for u in np.linspace(-3, 3, 25):
        upper = tail_prob(ms, u, "greater")
        assert tail_prob(ms, -u, "less") == pytest.approx(upper, abs=1e-10)


def test_two_sided_bonferroni_bound():
    ms = no_ties_moments((6, 6, 6, 6))
    for u in np.linspace(0.2, 3.0, 15):
        two = tail_prob(ms, u, "two_sided")
        bound = tail_prob(ms, u, "greater") + tail_prob(ms, -u, "less")
        assert two <= bound + 1e-12


def test_two_sided_rejects_negative_threshold():
    with pytest.raises(ParameterError):
        tail_prob(no_ties_moments((3, 3)), -0.5, "two_sided")


def test_monotonicity():
    ms = no_ties_moments((6, 6, 6))
    grid = np.linspace(-4, 4, 33)
    maxes = [tail_prob(ms, u, "greater") for u in grid]
    mins = [tail_prob(ms, u, "less") for u in grid]
    assert all(a >= b - 1e-14 for a, b in zip(maxes, maxes[1:]))
    assert all(a <= b + 1e-14 for a, b in zip(mins, mins[1:]))


def test_treatment_permutation_invariance():
    a = no_ties_moments((5, 3, 7, 4))
    b = pair_moments((5, 4, 7, 3), TiePattern.no_ties(19), control_pairs(4))
    for u in (0.5, 1.5, 2.5):
        assert tail_prob(a, u, "greater") == pytest.approx(tail_prob(b, u, "greater"), abs=1e-12)


def test_box_prob_trivial_cases():
    ms = no_ties_moments((6, 6))
    assert joint_lower_box_prob(ms, [np.inf]) == 1.0
    assert joint_lower_box_prob(ms, [18.0]) == pytest.approx(0.5, abs=1e-8)


def test_box_prob_complement_identity():
    ms = no_ties_moments((100, 100, 100))
    c = ms.mu + 2.0 * ms.tau
    assert joint_lower_box_prob(ms, c) == pytest.approx(
        1 - tail_prob(ms, 2.0, "greater"), abs=1e-12
    )


def test_box_prob_componentwise_monotone():
    ms = no_ties_moments((5, 5, 5))
    lo = joint_lower_box_prob(ms, ms.mu + 0.5 * ms.tau)
    hi = joint_lower_box_prob(ms, ms.mu + 1.5 * ms.tau)
    assert lo < hi


def test_solver_k1_is_normal_quantile():
    ms = no_ties_moments((6, 6))
    for gamma in (0.5, 0.9, 0.95, 0.99):
        assert solve_common_threshold(ms, gamma) == pytest.approx(
            norm.ppf(gamma), abs=1e-8
        )


def test_solver_fixed_point():
    ms = no_ties_moments((4, 4, 4))
    for gamma in (0.5, 0.8, 0.95):
        u = solve_common_threshold(ms, gamma)
        c = ms.mu + u * ms.tau
        assert joint_lower_box_prob(ms, c) == pytest.approx(gamma, abs=1e-9)


def test_solver_iq_model_against_mc_oracle():
    ms = iq_moments()
    u = solve_common_threshold(ms, 0.95)
    assert joint_lower_box_prob(ms, ms.mu + u * ms.tau) == pytest.approx(
        0.95, abs=1e-9
    )
    # independent oracle: sample the factor construction directly
    rng = np.random.default_rng(123)
    n = 2_000_000
    v0 = rng.standard_normal(n) * math.sqrt(ms.sigma0_2)
    hits = np.ones(n, dtype=bool)
    for i in range(3):
        vi = rng.standard_normal(n) * math.sqrt(ms.sigma2[i])
        hits &= (6 * v0 + vi) / ms.tau[i] <= u
    p = hits.mean()
    se = math.sqrt(p * (1 - p) / n)
    assert abs(p - 0.95) <= 3 * se


def test_solver_rejects_bad_gamma():
    ms = no_ties_moments((3, 3))
    for gamma in (0.0, 1.0, -1.0, 2.0):
        with pytest.raises(ParameterError):
            solve_common_threshold(ms, gamma)


def test_quadrature_node_doubling():
    sets = [no_ties_moments((6, 6, 6, 6)), no_ties_moments((100, 100, 100)), iq_moments()]
    for ms in sets:
        for u in (0.5, 1.7713, 2.5):
            assert abs(
                tail_prob(ms, u, "greater", nodes=160)
                - tail_prob(ms, u, "greater", nodes=320)
            ) <= 1e-10
            assert abs(
                tail_prob(ms, -u, "less", nodes=160) - tail_prob(ms, -u, "less", nodes=320)
            ) <= 1e-10


def _hand_built(**fields) -> MomentSet:
    """A (4, 2, 3) control-pair moment set with some fields replaced by hand."""
    ms = pair_moments((4, 2, 3), TiePattern((2, 1, 3, 1, 2)), control_pairs(3))
    return dataclasses.replace(ms, **fields)


def test_a_consistent_hand_built_set_is_read_as_given():
    # sigma0 = 1, sigma = (1, 2), tau^2 = n^2 + sigma^2 = (5, 13): a bivariate normal
    # with correlation 6/sqrt(65), checked against the Genz CDF
    ms = _hand_built(sigma0_2=1.0, sigma2=[1.0, 4.0], tau2=[5.0, 13.0], mu=[0.0, 0.0])
    n, sigma0, sigma, tau = _split(ms)
    assert (n.tolist(), sigma0, sigma.tolist()) == ([2.0, 3.0], 1.0, [1.0, 2.0])
    rho = 6 / math.sqrt(65)
    oracle = 1 - multivariate_normal(mean=[0, 0], cov=[[1, rho], [rho, 1]]).cdf([1.0, 1.0])
    assert tail_prob(ms, 1.0, "greater") == pytest.approx(oracle, abs=1e-6)


@pytest.mark.parametrize("fields, match", [
    # a NaN sigma_1 once dropped its factor: the tail read 1 - Phi(1) = 0.1587
    ({"sigma2": [np.nan, 4.0]}, "finite and positive"),
    ({"sigma2": [0.0, 4.0], "tau2": [4.0, 13.0]}, "finite and positive"),
    ({"sigma2": [np.inf, 4.0]}, "finite and positive"),
    ({"sigma0_2": np.nan}, "finite and positive"),
    ({"sigma0_2": np.inf}, "finite and positive"),
    ({"sigma0_2": 0.0, "tau2": [1.0, 4.0]}, "finite and positive"),
    ({"tau2": [np.nan, 13.0]}, "finite and positive"),
    ({"tau2": [np.inf, 13.0]}, "finite and positive"),
    ({"tau2": [0.0, 13.0]}, "tau must be strictly positive"),
    ({"tau2": [5.0, 14.0]}, "inconsistent"),
    ({"tau2": [5.0, 13.0, 1.0]}, "lengths disagree"),
])
def test_split_refuses_what_no_built_set_holds(fields, match):
    good = {"sigma0_2": 1.0, "sigma2": [1.0, 4.0], "tau2": [5.0, 13.0], "mu": [0.0, 0.0]}
    ms = _hand_built(**{**good, **fields})
    for call in (
        lambda: tail_prob(ms, 1.0, "greater"),
        lambda: joint_lower_box_prob(ms, [0.0, 0.0]),
        lambda: solve_common_threshold(ms, 0.9),
    ):
        with pytest.raises(ParameterError, match=match):
            call()


def test_split_refuses_fully_tied_and_all_pair_sets():
    tied = pair_moments((3, 4), TiePattern((7,)), control_pairs(2))
    with pytest.raises(ParameterError, match="degenerate data carry no test"):
        tail_prob(tied, 0.0, "greater")
    every = pair_moments((3, 4, 2), TiePattern.no_ties(9), all_pairs(3))
    with pytest.raises(ParameterError, match="treatment-vs-control"):
        tail_prob(every, 1.0, "greater")


@settings(derandomize=True, max_examples=400, deadline=None)
@given(st.lists(st.integers(1, 8), min_size=2, max_size=5), st.integers(1, 12), st.data())
def test_every_built_set_with_a_variance_has_a_smooth_split(sizes, n_values, data):
    # the quadrature has no step-function factor: a control-pair set has sigma0 > 0
    # and every sigma_i > 0 unless all values tie, and then every tau is 0 too
    n = sum(sizes)
    values = data.draw(st.lists(st.integers(1, n_values), min_size=n, max_size=n))
    tie = extract_tie_pattern(values)
    ms = pair_moments(sizes, tie, control_pairs(len(sizes)))
    tied = tie.e == 1
    assert (ms.sigma0_2 > 0 and (ms.sigma2 > 0).all()) == (not tied)
    assert (ms.tau2 == 0).all() if tied else (ms.tau2 > 0).all()
    if not tied:
        _split(ms)


def test_node_count_below_one_is_rejected_on_every_path():
    ms = no_ties_moments((5, 4, 4))
    for nodes in (0, -5):
        for alternative in ("greater", "less", "two_sided"):
            with pytest.raises(ParameterError, match="nodes"):
                tail_prob(ms, 1.0, alternative, nodes=nodes)
        with pytest.raises(ParameterError, match="nodes"):
            joint_lower_box_prob(ms, ms.mu, nodes=nodes)
        with pytest.raises(ParameterError, match="nodes"):
            solve_common_threshold(ms, 0.9, nodes=nodes)


def test_node_count_above_the_cap_is_rejected_on_every_path():
    ms = no_ties_moments((5, 4, 4))
    for nodes in (gauss.MAX_NODES + 1, 10**9):
        for alternative in ("greater", "less", "two_sided"):
            with pytest.raises(ParameterError, match="nodes"):
                tail_prob(ms, 1.0, alternative, nodes=nodes)
        with pytest.raises(ParameterError, match="nodes"):
            joint_lower_box_prob(ms, ms.mu, nodes=nodes)
        with pytest.raises(ParameterError, match="nodes"):
            solve_common_threshold(ms, 0.9, nodes=nodes)


def test_node_request_rounds_up_to_whole_panels():
    # 8 panels x max(2, ceil(nodes/8)) nodes: 1..16 all use 16, 17..24 use 24
    ms = iq_moments()
    assert tail_prob(ms, 1.5, "greater", nodes=1) == tail_prob(ms, 1.5, "greater", nodes=16)
    assert tail_prob(ms, 1.5, "greater", nodes=17) == tail_prob(ms, 1.5, "greater", nodes=24)
    assert tail_prob(ms, 1.5, "greater", nodes=16) != tail_prob(ms, 1.5, "greater", nodes=17)


def _same_root(f, a, b, **kwargs) -> float:
    root = brent_root(f, a, b, **kwargs)
    assert root == brentq(f, a, b, **kwargs)  # the same float, not merely close
    return root


def test_brent_root_matches_scipy_on_threshold_solves():
    # the box solve of solve_common_threshold: random sizes, K = 1..5, gamma in (0.5, 0.999),
    # on the bracket the solver uses: Slepian's [Phi^-1(gamma), Phi^-1(gamma^(1/K))] for
    # K >= 2, where the quadrature confirms the sign change, and [-45, 45] at K = 1
    rng = np.random.default_rng(2024)
    for _ in range(40):
        sizes = tuple(int(v) for v in rng.integers(2, 30, size=int(rng.integers(2, 7))))
        ms = no_ties_moments(sizes)
        gamma = float(rng.uniform(0.5, 0.999))

        def f(u):
            return _box_mass(ms, np.full(ms.mu.size, u), 160, "greater")[0] - gamma

        lo, hi = -45.0, 45.0
        if ms.mu.size > 1:
            lo, hi = NormalDist().inv_cdf(gamma), NormalDist().inv_cdf(gamma ** (1 / ms.mu.size))
            assert f(lo) < 0 < f(hi), (sizes, gamma)
        root = _same_root(f, lo, hi, xtol=1e-13, maxiter=200)
        assert solve_common_threshold(ms, gamma) == root


def _counted_box_mass(monkeypatch) -> list[float]:
    """Record the common threshold of every _box_mass call the solver makes."""
    calls = []

    def counted(ms, u, nodes, alternative):
        calls.append(float(u[0]))
        return _box_mass(ms, u, nodes, alternative)

    monkeypatch.setattr(gauss, "_box_mass", counted)
    return calls


def test_threshold_solve_takes_at_most_12_box_masses(monkeypatch):
    calls = _counted_box_mass(monkeypatch)
    rng = np.random.default_rng(7)
    for sizes in ((5, 5, 5), (6, 6, 6, 6), (10, 4, 7), (30, 3, 12, 8, 20), (9,) * 11):
        ms = no_ties_moments(sizes)
        for gamma in (0.5, 0.9, 0.95, 0.99, float(rng.uniform(0.6, 0.999))):
            calls.clear()
            u = solve_common_threshold(ms, gamma)
            assert len(calls) <= 12, (sizes, gamma, len(calls))
            # Slepian's bracket comes first, and every call is at a distinct threshold
            lo, hi = NormalDist().inv_cdf(gamma), NormalDist().inv_cdf(gamma ** (1 / ms.mu.size))
            assert calls[:2] == [lo, hi] and lo < u < hi
            assert len(set(calls)) == len(calls)


@pytest.mark.parametrize("sizes, gamma", [
    ((6, 6), 0.5), ((6, 6), 0.9), ((6, 6), 0.99),  # K = 1: Slepian's ends coincide
    ((5, 5, 5), 1 - 2**-53),  # gamma^(1/K) rounds to 1, where Phi^-1 is undefined
])
def test_threshold_solve_falls_back_to_the_wide_bracket(monkeypatch, sizes, gamma):
    calls = _counted_box_mass(monkeypatch)
    ms = no_ties_moments(sizes)
    u = solve_common_threshold(ms, gamma)
    assert calls[:2] == [-45.0, 45.0] and len(set(calls)) == len(calls)

    def f(v):
        return _box_mass(ms, np.full(ms.mu.size, v), 160, "greater")[0] - gamma

    assert u == brentq(f, -45.0, 45.0, xtol=1e-13, maxiter=200)


@pytest.mark.parametrize("alternative", ["greater", "less", "two_sided"])
def test_brent_root_matches_scipy_on_harness_tail_solves(alternative):
    # quality_harness's tail solve on tied data, parameterized so the map decreases in v
    rng = np.random.default_rng(31)
    groups = [np.round(rng.normal(size=n), 1).tolist() for n in (12, 9, 10)]
    ms = pair_moments((12, 9, 10), extract_tie_pattern(np.concatenate(groups)), control_pairs(3))
    sgn = -1.0 if alternative == "less" else 1.0
    lo = 0.0 if alternative == "two_sided" else -14.0
    grid = (0.2, 0.1, 0.05, 0.01)
    expected = [
        sgn * _same_root(
            lambda v: tail_prob(ms, sgn * v * np.ones(ms.mu.size), alternative) - p,
            lo, 14.0, xtol=1e-12,
        )
        for p in grid
    ]
    rows = quality_harness(groups, alternative, p_grid=grid, nsim=200, seed=1)
    assert [row["threshold"] for row in rows] == expected


def test_brent_root_matches_scipy_on_closed_forms():
    cases = [
        (lambda x: x * x - 2.0, 0.0, 2.0, math.sqrt(2.0)),
        (lambda x: math.cos(x), 0.0, 3.0, math.pi / 2),
        (lambda x: math.exp(x) - 10.0, -5.0, 5.0, math.log(10.0)),
        (lambda x: x**3 - 0.027, -1.0, 2.0, 0.3),
        (lambda x: math.tanh(40.0 * (x + 1.25)), -3.0, 3.0, -1.25),
    ]
    for f, a, b, exact in cases:
        for kwargs in ({"xtol": 2e-12}, {"xtol": 1e-14}, {"xtol": 1e-3}, {"xtol": 5e-324, "maxiter": 200}):
            root = _same_root(f, a, b, **kwargs)
            tol = kwargs["xtol"] + 4 * np.finfo(float).eps * abs(exact)
            assert abs(root - exact) <= tol + 1e-15
    # a coarse xtol makes the final delta steps decide the root
    rng = np.random.default_rng(7)
    for c, k in rng.uniform((-3.0, 0.2), (3.0, 5.0), size=(100, 2)).tolist():
        _same_root(lambda x: math.tanh(k * (x - c)), -4.0, 4.0, xtol=1e-3)
        _same_root(lambda x: (x - c) ** 3 + k * (x - c), -4.0, 4.0, xtol=1e-3)
    # subnormal values: some divided differences underflow to 0, where the C code
    # divides by zero and bisects; the port must take the same steps
    _same_root(lambda x: (x - 1.7) ** 3 * 5e-324, -9.0, 9.0, xtol=2e-12)
    _same_root(lambda x: math.tanh(x + 2.2) * 1e-322, -9.0, 9.0, xtol=2e-12)


def test_brent_root_returns_an_exact_zero_end_at_once():
    calls = []

    def f(x):
        calls.append(x)
        return x - 1.0

    assert brent_root(f, 1.0, 5.0, xtol=1e-12) == 1.0 and calls == [1.0, 5.0]
    calls.clear()
    assert brent_root(f, -3.0, 1.0, xtol=1e-12) == 1.0 and calls == [-3.0, 1.0]
    # an exact zero at an end wins over a same-sign check
    assert brent_root(lambda x: 0.0, 4.0, 9.0, xtol=1e-12) == 4.0


def test_brent_root_failures_are_numeric_errors():
    with pytest.raises(NumericError, match="different signs"):
        brent_root(lambda x: x * x + 1.0, -1.0, 1.0, xtol=1e-12)
    with pytest.raises(NumericError, match="different signs"):
        brent_root(lambda x: -1.0 - x * x, -1.0, 1.0, xtol=1e-12)
    with pytest.raises(NumericError, match="NaN"):
        brent_root(lambda x: math.nan, 0.0, 1.0, xtol=1e-12)
    with pytest.raises(NumericError, match="NaN"):  # NaN inside the bracket
        brent_root(lambda x: math.nan if 0.2 < x < 0.8 else x - 0.5, 0.0, 1.0, xtol=1e-12)
    with pytest.raises(NumericError, match="converge"):
        brent_root(lambda x: x**3 - 0.027, -1.0, 2.0, xtol=2e-12, maxiter=6)  # scipy needs 17 steps
    with pytest.raises(ParameterError):
        brent_root(lambda x: x, -1.0, 1.0, xtol=0.0)
