"""Acceptance suite: one test per release criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion lines.
"""
import json
import math
import sys
import time
from fractions import Fraction
from functools import wraps

import numpy as np
import pytest
from scipy.optimize import brentq
from scipy.stats import norm

from steelrank import (
    TiePattern,
    cov_w,
    joint_lower_box_prob,
    mean_w,
    observe,
    pair_moments,
    rank_samples,
    select_indices,
    simulated_tail_counts,
    simultaneous_bounds,
    simultaneous_intervals,
    tail_prob,
    var_w,
)
from steelrank.analysis import RunConfig, _sampled_p, quality_harness
from steelrank.cli import main
from steelrank.moments import all_pairs, control_pairs

from _exact import exact_moments, exact_null_distribution
from _oracles import random_tie_pattern


def criterion(number, description):
    def deco(fn):
        @wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"[criterion {number}] FAIL - {description}", file=sys.stderr)
                raise
            print(f"[criterion {number}] PASS - {description}")

        return wrapper

    return deco


def compositions(total, parts):
    if parts == 1:
        yield (total,)
        return
    for first in range(1, total - parts + 2):
        for rest in compositions(total - first, parts - 1):
            yield (first,) + rest


def rel_close(a, b, rtol=1e-10, atol=1e-12):
    return np.allclose(a, b, rtol=rtol, atol=atol)


@criterion(1, "enumeration oracle matches moment formulas on the full N<=10 grid")
def test_criterion_1_moment_oracle_suite():
    start = time.perf_counter()
    rng = np.random.default_rng(20260809)
    checked = 0
    for n_groups in (2, 3, 4):  # K = 1, 2, 3 treatments plus the control
        for n_total in range(n_groups, 11):
            for sizes in compositions(n_total, n_groups):
                for _ in range(20):
                    tie = TiePattern(random_tie_pattern(rng, n_total))
                    em = exact_moments(sizes, tie, all_group_pairs=True)
                    pm = pair_moments(sizes, tie, all_pairs(len(sizes)))
                    assert em.pairs == pm.pairs
                    assert rel_close(em.mean, pm.mu)
                    assert rel_close(em.cov, pm.cov)
                    # control-pair entries against the scalar operations
                    idx = {pair: p for p, pair in enumerate(em.pairs)}
                    for i in range(1, n_groups):
                        p = idx[(0, i)]
                        assert em.mean[p] == mean_w(sizes[0], sizes[i])
                        assert rel_close(em.cov[p, p], var_w(sizes[0], sizes[i], tie))
                        for j in range(i + 1, n_groups):
                            q = idx[(0, j)]
                            assert rel_close(
                                em.cov[p, q], cov_w(sizes[0], sizes[i], sizes[j], tie)
                            )
                    checked += 1
    elapsed = time.perf_counter() - start
    assert checked == 7500
    assert elapsed < 120, f"moment-oracle sweep took {elapsed:.1f}s (target < 2 min)"


@criterion(2, "closed-form reductions: two-sample, no-ties, fully tied")
def test_criterion_2_closed_form_reductions():
    rng = np.random.default_rng(2)
    # the three-sample formula collapses to the classical two-sample form at N = n0+n1
    for n0, n1 in [(1, 1), (2, 3), (4, 4), (5, 3), (6, 6), (7, 3)]:
        n = n0 + n1
        for _ in range(25):
            tie = TiePattern(random_tie_pattern(rng, n))
            if tie.e == 1:
                continue
            classical = Fraction(n0 * n1 * (n + 1), 12) - Fraction(
                n0 * n1 * tie.s3_plus, 12 * n * (n - 1)
            )
            assert var_w(n0, n1, tie) == float(classical)
    # no-ties closed forms, exact
    for n0, n1, n2, pad in [(2, 2, 2, 0), (3, 4, 5, 2), (6, 6, 6, 6)]:
        n = n0 + n1 + n2 + pad
        tie = TiePattern.no_ties(n)
        assert var_w(n0, n1, TiePattern.no_ties(n0 + n1)) == n0 * n1 * (n0 + n1 + 1) / 12
        assert cov_w(n0, n1, n2, tie) == n0 * n1 * n2 / 12
    # fully tied data leave no variance
    for n0, n1, n in [(3, 4, 7), (2, 2, 9), (5, 5, 10)]:
        assert abs(var_w(n0, n1, TiePattern((n,)))) <= 1e-12


@criterion(3, "K=1 tails collapse to the closed normal forms within 1e-8")
def test_criterion_3_k1_analytic_collapse():
    ms = pair_moments((7, 5), TiePattern.no_ties(12), control_pairs(2))
    for u in np.linspace(-5.0, 5.0, 101):
        assert abs(tail_prob(ms, u, "greater") - (1 - norm.cdf(u))) <= 1e-8
        assert abs(tail_prob(ms, u, "less") - norm.cdf(u)) <= 1e-8
        assert abs(tail_prob(ms, abs(u), "two_sided") - 2 * (1 - norm.cdf(abs(u)))) <= 1e-8


@criterion(4, "reference four-group fixture reproduces the published analysis")
def test_criterion_4_reference_example(iq_groups):
    samples = rank_samples(iq_groups)
    ms = pair_moments(samples.sizes, samples.tie_pattern, control_pairs(samples.n_groups))
    obs = observe(samples, ms, "less")
    assert obs.w_star.tolist() == [7, 17, 12.5]
    assert ms.mu.tolist() == [18, 18, 18]
    assert math.sqrt(ms.sigma0_2) == pytest.approx(0.7062328, abs=1e-6)
    assert np.sqrt(ms.sigma2) == pytest.approx([4.540007] * 3, abs=1e-6)
    assert np.sqrt(ms.tau2) == pytest.approx([6.210249] * 3, abs=1e-6)
    assert obs.statistic == "s_min"
    assert obs.statistic_value == pytest.approx(-1.7713, abs=5e-5)
    assert tail_prob(ms, obs.statistic_value, "less") == pytest.approx(0.0946, abs=5e-4)
    nsim = 100_000
    counts = simulated_tail_counts(samples, ms, obs.statistic, [obs.statistic_value], nsim,
                                   20260809)
    pv = _sampled_p("monte_carlo", int(counts[0]), RunConfig(nsim=nsim, seed=20260809))
    band = 3 * math.sqrt(0.10474 * (1 - 0.10474) / nsim)
    assert abs(pv.estimate - 0.10474) <= band


def _threshold_grid(ms, p_grid):
    return sorted(
        brentq(lambda u: tail_prob(ms, u, "greater") - p, -10.0, 12.0, xtol=1e-12)
        for p in p_grid
    )


@criterion(5, "asymptotic vs Monte Carlo tails within 0.01 at n=(100,100,100)")
def test_criterion_5_approximation_quality():
    start = time.perf_counter()
    rng = np.random.default_rng(55)
    base = rng.standard_normal(300)
    scenarios = [base, np.round(base, 1)]
    for data in scenarios:
        groups = [data[:100].tolist(), data[100:200].tolist(), data[200:].tolist()]
        samples = rank_samples(groups)
        ms = pair_moments(samples.sizes, samples.tie_pattern, control_pairs(samples.n_groups))
        thresholds = _threshold_grid(ms, (0.2, 0.1, 0.05, 0.02, 0.01))
        curve = simulated_tail_counts(samples, ms, "s_max", thresholds, 100_000, 99) / 100_000
        for t, p_mc in zip(thresholds, curve):
            p_asym = tail_prob(ms, t, "greater")
            assert 0.009 <= p_asym <= 0.21
            assert abs(p_asym - p_mc) <= 0.01
    elapsed = time.perf_counter() - start
    assert elapsed < 60, f"approximation-quality runs took {elapsed:.1f}s (target < 1 min)"


@criterion(6, "tie adjustment helps on two-valued data, barely matters on 9-valued")
def test_criterion_6_tie_adjustment_contrast():
    two_valued = [[0.0] * 50 + [1.0] * 50 for _ in range(3)]
    rows = quality_harness(two_valued, "greater", p_grid=(0.05,), nsim=100_000, seed=6)
    row = rows[0]
    assert abs(row["p_sim"] - row["p_asym_adj"]) < abs(row["p_sim"] - row["p_asym_unadj"])

    nine_valued = [[1.0 + (i % 9) for i in range(100)] for _ in range(3)]
    rows = quality_harness(
        nine_valued, "greater", p_grid=(0.2, 0.1, 0.05, 0.02, 0.01), nsim=20_000, seed=7
    )
    for row in rows:
        assert abs(row["p_asym_adj"] - row["p_asym_unadj"]) <= 0.01

    rng = np.random.default_rng(8)
    no_ties = [list(rng.standard_normal(40)) for _ in range(3)]
    for row in quality_harness(no_ties, "greater", p_grid=(0.1, 0.05), nsim=2000, seed=8):
        assert abs(row["p_asym_adj"] - row["p_asym_unadj"]) <= 1e-12


@criterion(7, "confidence inversion matches the exact two-sample null within 0.02")
def test_criterion_7_confidence_inversion():
    ms = pair_moments((6, 6), TiePattern.no_ties(12), control_pairs(2))
    sel = select_indices(ms, 0.95, "upper")
    # exact lower CDF of the no-ties two-sample statistic over all 924 splits
    dist = exact_null_distribution(
        rank_samples([list(range(6)), list(range(6, 12))]), "vector_w"
    )
    cdf = {}
    acc = 0
    for v, w in zip(dist.values[:, 0], dist.weights):
        acc += int(w)
        cdf[float(v)] = acc / dist.total
    assert abs(sel.achieved_conservative - cdf[sel.j[0] - 1]) <= 0.02
    assert abs(sel.achieved_closest - cdf[sel.j_closest[0] - 1]) <= 0.02
    # reported coverages are exactly the joint box evaluations (self-consistency)
    assert sel.achieved_conservative == joint_lower_box_prob(
        ms, np.array([sel.j[0] - 1.0])
    )
    assert sel.achieved_closest == joint_lower_box_prob(
        ms, np.array([sel.j_closest[0] - 1.0])
    )
    # interval at 0.90 is the two one-sided constructions at 0.95
    rng = np.random.default_rng(71)
    groups = [rng.normal(size=6).tolist(), rng.normal(size=6).tolist()]
    iv = simultaneous_intervals(groups, 0.90)
    assert iv.one_sided_gamma == 0.95
    assert iv.upper == simultaneous_bounds(groups, 0.95, "upper").upper
    assert iv.lower == simultaneous_bounds(groups, 0.95, "lower").lower


@criterion(8, "all-pairs covariance identities at K=4, N=8")
def test_criterion_8_pairwise_identities():
    sizes = (2, 2, 2, 2)
    tie = TiePattern.no_ties(8)
    em = exact_moments(sizes, tie, all_group_pairs=True)
    idx = {pair: p for p, pair in enumerate(em.pairs)}
    assert em.total == 2520
    assert rel_close(em.cov[idx[(0, 1)], idx[(0, 2)]], 2 / 3)
    assert rel_close(em.cov[idx[(0, 1)], idx[(2, 3)]], 0.0)
    # cov with the reflected statistic W(3,1) = n3*n1 - W(1,3) flips the sign
    pm = pair_moments(sizes, tie, all_pairs(len(sizes)))
    assert rel_close(pm.cov[idx[(0, 1)], idx[(0, 2)]], 2 / 3)
    assert rel_close(-pm.cov[idx[(0, 1)], idx[(0, 2)]], -2 / 3)
    assert pm.cov[idx[(0, 1)], idx[(2, 3)]] == 0.0
    assert rel_close(em.cov, pm.cov)


@criterion(9, "reports are bit-identical across runs and worker counts")
def test_criterion_9_determinism(capsys, monkeypatch, iq_groups):
    args = [
        "--input", "tests/data/iq_birth_condition.csv", "--alternative", "less",
        "--method", "all", "--nsim", "20000", "--seed", "17", "--mode", "steel",
    ]
    outputs = []
    for threads in ("1", str(max(2, __import__("os").cpu_count() or 2))):
        monkeypatch.setenv("STEELRANK_THREADS", threads)
        assert main(args) == 0
        outputs.append(capsys.readouterr().out.encode())
    monkeypatch.delenv("STEELRANK_THREADS")
    assert main(args) == 0
    outputs.append(capsys.readouterr().out.encode())
    assert outputs[0] == outputs[1] == outputs[2]
    parsed = json.loads(outputs[0])
    assert parsed["schema_version"] == 1
