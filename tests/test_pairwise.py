import numpy as np
import pytest

from steelrank import (
    ParameterError,
    TiePattern,
    pairwise_moment_matrix,
    pairwise_test,
    rank_samples,
    sampled_p_value,
    simulated_tail_counts,
    steel_statistics,
    var_w,
)
from steelrank import randomization
from steelrank.moments import factor_decomposition
from steelrank.pairwise import _mvn_root, _mvn_tail_counts

from _exact import exact_moments
from _oracles import enumerate_pair_stats, random_tie_pattern


def test_k4_no_ties_against_split_enumeration():
    # all 2520 labeled splits of 8 distinct values into four pairs
    values = list(range(8))
    sizes = (2, 2, 2, 2)
    pairs = [(a, b) for a in range(4) for b in range(a + 1, 4)]
    rows = enumerate_pair_stats(values, sizes, pairs)
    assert rows.shape[0] == 2520
    centered = rows - rows.mean(axis=0)
    cov = centered.T @ centered / rows.shape[0]
    i12, i13, i34 = pairs.index((0, 1)), pairs.index((0, 2)), pairs.index((2, 3))
    assert cov[i12, i13] == pytest.approx(2 / 3, rel=1e-10)
    assert cov[i12, i34] == pytest.approx(0.0, abs=1e-10)
    # reflected statistic W(3,1) = n*n - W(1,3) flips the sign
    reflected = 4 - rows[:, i13]
    c = np.cov(rows[:, i12], reflected, bias=True)[0, 1]
    assert c == pytest.approx(-2 / 3, rel=1e-10)

    pm = pairwise_moment_matrix(sizes, TiePattern.no_ties(8))
    assert pm.cov == pytest.approx(cov, rel=1e-10, abs=1e-12)


def test_fully_tied_zero_matrix():
    pm = pairwise_moment_matrix((2, 3, 2), TiePattern((7,)))
    assert np.all(pm.cov == 0)


def test_k2_matches_two_sample_variance():
    tie = TiePattern((2, 1, 3))
    pm = pairwise_moment_matrix((2, 4), tie)
    assert pm.cov.shape == (1, 1)
    assert pm.cov[0, 0] == var_w(2, 4, tie)


def test_identities_on_random_patterns():
    rng = np.random.default_rng(77)
    for sizes in [(2, 2, 2), (3, 2, 2), (2, 2, 2, 2), (3, 2, 2, 2)]:
        n_total = sum(sizes)
        for _ in range(4):
            tie = TiePattern(random_tie_pattern(rng, n_total))
            pm = pairwise_moment_matrix(sizes, tie)
            em = exact_moments(sizes, tie, all_group_pairs=True)
            assert em.pairs == pm.pairs
            assert em.mean == pytest.approx(pm.mu, rel=1e-12)
            assert em.cov == pytest.approx(pm.cov, rel=1e-10, abs=1e-12)
            eigvals = np.linalg.eigvalsh(pm.cov)
            assert eigvals.min() >= -1e-9 * max(1.0, eigvals.max())


def test_antisymmetry_and_disjoint_identities():
    from steelrank import cov_w

    tie = TiePattern((2, 2, 1, 2, 1))
    sizes = (2, 2, 2, 2)
    pm = pairwise_moment_matrix(sizes, tie)
    pairs = list(pm.pairs)
    i12, i13 = pairs.index((0, 1)), pairs.index((0, 2))
    i23, i34 = pairs.index((1, 2)), pairs.index((2, 3))
    # sharing the first index keeps the three-sample covariance's sign ...
    assert pm.cov[i12, i13] == cov_w(2, 2, 2, tie)
    # ... while second-vs-first sharing flips it, and disjoint pairs vanish
    assert pm.cov[i12, i23] == -cov_w(2, 2, 2, tie)
    assert pm.cov[i12, i34] == 0
    em = exact_moments(sizes, tie, all_group_pairs=True)
    assert em.cov[i12, i34] == pytest.approx(0.0, abs=1e-12)
    assert em.cov[i12, i23] == pytest.approx(pm.cov[i12, i23], rel=1e-10, abs=1e-12)
    assert em.cov[i12, i13] == pytest.approx(pm.cov[i12, i13], rel=1e-10, abs=1e-12)


def test_repeated_sizes_keep_each_entry_its_own_closed_form():
    # the assembly evaluates each distinct size tuple once; every entry must still
    # be the closed form of its own two pairs, bit for bit
    from steelrank import cov_w

    sizes = (3, 5, 3, 5, 4)
    tie = TiePattern((2, 1, 3, 1, 1, 4, 2, 1, 1, 2, 1, 1))
    pm = pairwise_moment_matrix(sizes, tie)
    for p, (a, b) in enumerate(pm.pairs):
        assert pm.cov[p, p] == var_w(sizes[a], sizes[b], tie)
        for q, (c, d) in enumerate(pm.pairs):
            shared = {a, b} & {c, d}
            if p == q or not shared:
                assert p == q or pm.cov[p, q] == 0
                continue
            (s,) = shared
            n1, n2 = (sizes[v] for v in (a, b, c, d) if v != s)
            sign = 1 if (s == a) == (s == c) else -1
            assert pm.cov[p, q] == sign * cov_w(sizes[s], n1, n2, tie)


def test_pairwise_test_identical_constant_samples():
    s = rank_samples([[3, 3], [3, 3], [3, 3]])
    for method in ("monte_carlo", "mvn_sample"):
        res = pairwise_test(s, "two_sided", method, nsim=2000, seed=1)
        assert np.all(res.standardized == 0)
        assert res.p_values[method].estimate == 1.0
        assert any("degenerate" in w for w in res.warnings)


def test_pairwise_k2_consistent_with_control_route():
    rng = np.random.default_rng(10)
    g0 = rng.integers(0, 12, size=8).tolist()
    g1 = rng.integers(0, 12, size=8).tolist()
    s = rank_samples([g0, g1])
    res = pairwise_test(s, "two_sided", "monte_carlo", nsim=40000, seed=3)
    ms = factor_decomposition(s.sizes, s.tie_pattern)
    obs = steel_statistics(s, ms, "two_sided")
    counts = simulated_tail_counts(s, ms, obs.statistic, [obs.statistic_value], 40000, 3)
    pv = sampled_p_value(int(counts[0]), 40000, 3, "monte_carlo")
    assert res.statistic_value == pytest.approx(obs.s_abs, rel=1e-12)
    se = max(pv.std_error, res.p_values["monte_carlo"].std_error)
    assert abs(res.p_values["monte_carlo"].estimate - pv.estimate) <= 3 * se + 1e-12


def test_pairwise_reproducible_across_workers(monkeypatch):
    rng = np.random.default_rng(2)
    s = rank_samples([rng.integers(0, 6, size=7).tolist() for _ in range(3)])
    monkeypatch.setenv("STEELRANK_THREADS", "1")
    a = pairwise_test(s, "greater", "mvn_sample", nsim=20000, seed=5)
    monkeypatch.setenv("STEELRANK_THREADS", "6")
    b = pairwise_test(s, "greater", "mvn_sample", nsim=20000, seed=5)
    assert a.p_values["mvn_sample"] == b.p_values["mvn_sample"]


def test_mvn_sliced_chunks_give_the_unsliced_tail_counts(monkeypatch):
    rng = np.random.default_rng(8)
    s = rank_samples([rng.integers(0, 7, size=8).tolist() for _ in range(4)])
    pm = pairwise_moment_matrix(s.sizes, s.tie_pattern)
    root = _mvn_root(pm)
    n_pairs = len(pm.pairs)
    for kind, threshold in (("s_max", 1.2), ("s_max", 2.3), ("s_min", -1.9), ("s_abs", 2.1)):
        counts = {}
        for rows, threads in ((None, "1"), (1, "1"), (7, "1"), (7, "2")):
            monkeypatch.setenv("STEELRANK_THREADS", threads)
            cells = 1 << 40 if rows is None else rows * n_pairs
            monkeypatch.setattr(randomization, "_SLICE_CELLS", cells)
            counts[rows, threads] = _mvn_tail_counts(root, kind, threshold, 9000, 6)
        assert 0 < counts[None, "1"] < 9000
        assert set(counts.values()) == {counts[None, "1"]}


def test_mc_and_mvn_agree_at_moderate_sizes():
    # conditional-randomization and joint-normal sampling land close in the
    # [0.01, 0.2] tail range at these sizes (this dataset's p is ~0.10)
    rng = np.random.default_rng(17)
    groups = [rng.normal(size=50).tolist() for _ in range(3)]
    s = rank_samples(groups)
    pm_mc = pairwise_test(s, "greater", "monte_carlo", nsim=100_000, seed=11)
    pm_mvn = pairwise_test(s, "greater", "mvn_sample", nsim=100_000, seed=11)
    p1 = pm_mc.p_values["monte_carlo"].estimate
    p2 = pm_mvn.p_values["mvn_sample"].estimate
    assert 0.01 <= p1 <= 0.2
    assert abs(p1 - p2) <= 0.015


def test_several_methods_in_one_call_match_single_calls():
    rng = np.random.default_rng(4)
    s = rank_samples([rng.integers(0, 8, size=6).tolist() for _ in range(4)])
    both = pairwise_test(s, "less", ("monte_carlo", "mvn_sample"), nsim=5000, seed=8)
    assert list(both.p_values) == ["monte_carlo", "mvn_sample"]
    for method in ("monte_carlo", "mvn_sample"):
        single = pairwise_test(s, "less", method, nsim=5000, seed=8)
        assert both.p_values[method] == single.p_values[method]
    pm = pairwise_moment_matrix(s.sizes, s.tie_pattern)
    assert both.moments.pairs == pm.pairs
    assert np.array_equal(both.moments.cov, pm.cov)


def test_pairwise_report_builds_the_moment_matrix_once(monkeypatch, tmp_path):
    import steelrank.pairwise as pairwise_module
    from steelrank.cli import main

    calls = []
    original = pairwise_module.pairwise_moment_matrix

    def counting(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(pairwise_module, "pairwise_moment_matrix", counting)
    data = tmp_path / "d.csv"
    data.write_text("group,value\na,1\na,2\na,4\nb,3\nb,5\nc,6\nc,2\n")
    out = tmp_path / "r.json"
    argv = ["--input", str(data), "--mode", "pairwise", "--method", "all", "--nsim", "500"]
    assert main(argv + ["--out", str(out)]) == 0
    assert len(calls) == 1


def test_parameter_validation():
    s = rank_samples([[1, 2], [3, 4]])
    with pytest.raises(ParameterError):
        pairwise_test(s, "greater", "exact", nsim=100, seed=0)
    with pytest.raises(ParameterError):
        pairwise_test(s, "greater", ("monte_carlo", "exact"), nsim=100, seed=0)
    with pytest.raises(ParameterError):
        pairwise_test(s, "greater", (), nsim=100, seed=0)
    with pytest.raises(ParameterError):
        pairwise_test(s, "greater", "monte_carlo", nsim=0, seed=0)
    with pytest.raises(ParameterError):
        pairwise_moment_matrix((5,), TiePattern((5,)))
    with pytest.raises(ParameterError):
        pairwise_moment_matrix((2, 2), TiePattern((5,)))
