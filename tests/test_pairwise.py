import json

import numpy as np
import pytest

from steelrank import (
    ParameterError,
    TiePattern,
    observe,
    pair_moments,
    rank_samples,
    simulated_tail_counts,
    var_w,
)
from steelrank import pairwise, randomization
from steelrank.cli import main
from steelrank.moments import all_pairs, control_pairs
from steelrank.pairwise import _mvn_root, _mvn_tail_counts, mvn_tail_counts
from steelrank.statistics import reduce_statistic

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

    pm = pair_moments(sizes, TiePattern.no_ties(8), all_pairs(len(sizes)))
    assert pm.cov == pytest.approx(cov, rel=1e-10, abs=1e-12)


def test_fully_tied_zero_matrix():
    pm = pair_moments((2, 3, 2), TiePattern((7,)), all_pairs(3))
    assert np.all(pm.cov == 0)


def test_k2_matches_two_sample_variance():
    tie = TiePattern((2, 1, 3))
    pm = pair_moments((2, 4), tie, all_pairs(2))
    assert pm.cov.shape == (1, 1)
    assert pm.cov[0, 0] == var_w(2, 4, tie)


def test_identities_on_random_patterns():
    rng = np.random.default_rng(77)
    for sizes in [(2, 2, 2), (3, 2, 2), (2, 2, 2, 2), (3, 2, 2, 2)]:
        n_total = sum(sizes)
        for _ in range(4):
            tie = TiePattern(random_tie_pattern(rng, n_total))
            pm = pair_moments(sizes, tie, all_pairs(len(sizes)))
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
    pm = pair_moments(sizes, tie, all_pairs(len(sizes)))
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
    pm = pair_moments(sizes, tie, all_pairs(len(sizes)))
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


def _report(tmp_path, groups, *args):
    """JSON report of a CLI run on the groups, labelled g0, g1, ..."""
    data = tmp_path / "d.csv"
    rows = [f"g{g},{v}" for g, values in enumerate(groups) for v in values]
    data.write_text("group,value\n" + "\n".join(rows) + "\n")
    out = tmp_path / "r.json"
    assert main(["--input", str(data), "--out", str(out), *args]) == 0
    return json.loads(out.read_text())


def test_pairwise_test_identical_constant_samples(tmp_path):
    report = _report(tmp_path, [[3, 3], [3, 3], [3, 3]], "--mode", "pairwise", "--nsim", "2000",
                     "--seed", "1")
    assert report["pairwise"]["standardized"] == [0, 0, 0]
    assert set(report["p_values"]) == {"monte_carlo", "mvn_sample"}
    assert all(pv["estimate"] == 1.0 for pv in report["p_values"].values())
    assert any("degenerate" in w for w in report["warnings"])


def test_pairwise_k2_consistent_with_control_route(tmp_path):
    # with two groups the only pair is the control pair: one moment set, one answer
    rng = np.random.default_rng(10)
    groups = [rng.integers(0, 12, size=8).tolist() for _ in range(2)]
    s = rank_samples(groups)
    ms = pair_moments(s.sizes, s.tie_pattern, all_pairs(2))
    assert pair_moments(s.sizes, s.tie_pattern, control_pairs(2)) is ms
    args = ("--method", "simulated", "--nsim", "40000", "--seed", "3")
    pairwise = _report(tmp_path, groups, "--mode", "pairwise", *args)
    steel = _report(tmp_path, groups, *args)
    assert pairwise["pairwise"]["statistic_value"] == steel["observation"]["s_abs"]
    assert pairwise["p_values"]["monte_carlo"] == steel["p_values"]["monte_carlo"]


def test_pairwise_reproducible_across_workers(monkeypatch):
    rng = np.random.default_rng(2)
    s = rank_samples([rng.integers(0, 6, size=7).tolist() for _ in range(3)])
    pm = pair_moments(s.sizes, s.tie_pattern, all_pairs(s.n_groups))
    monkeypatch.setenv("STEELRANK_THREADS", "1")
    a = mvn_tail_counts(pm, "s_max", [0.5, 1.5], 20000, 5)
    monkeypatch.setenv("STEELRANK_THREADS", "6")
    b = mvn_tail_counts(pm, "s_max", [0.5, 1.5], 20000, 5)
    assert a.dtype == np.int64
    np.testing.assert_array_equal(a, b)


def test_mvn_sliced_chunks_give_the_unsliced_tail_counts(monkeypatch):
    rng = np.random.default_rng(8)
    s = rank_samples([rng.integers(0, 7, size=8).tolist() for _ in range(4)])
    pm = pair_moments(s.sizes, s.tie_pattern, all_pairs(s.n_groups))
    root = _mvn_root(pm)
    n_pairs = len(pm.pairs)
    for kind, threshold in (("s_max", 1.2), ("s_max", 2.3), ("s_min", -1.9), ("s_abs", 2.1)):
        counts = {}
        for rows, threads in ((None, "1"), (1, "1"), (7, "1"), (7, "2")):
            monkeypatch.setenv("STEELRANK_THREADS", threads)
            cells = 1 << 40 if rows is None else rows * n_pairs**2
            monkeypatch.setattr(randomization, "_SLICE_CELLS", cells)
            counts[rows, threads] = int(_mvn_tail_counts(root, kind, np.array([threshold]), 9000,
                                                         6)[0])
        assert 0 < counts[None, "1"] < 9000
        assert set(counts.values()) == {counts[None, "1"]}


def test_mvn_slices_stay_single_threaded_and_draw_the_whole_chunk_product(monkeypatch,
                                                                          iq_groups):
    # up to 64 pairs each slice's product is at most 2^18 multiply-adds, the size
    # OpenBLAS runs on the calling thread, and for 3 to 11 groups the sliced z equal
    # one product over the whole chunk, bit for bit; past 64 pairs slices hold
    # 2^18 output cells
    assert randomization._SLICE_CELLS == pairwise._SINGLE_THREAD_GEMM
    rng = np.random.default_rng(12)
    designs = [iq_groups[:3], iq_groups] + [
        [rng.integers(0, 5, size=7) if k % 2 else rng.normal(size=9) for _ in range(k)]
        for k in range(5, 13)]
    for groups in designs:
        s = rank_samples(groups)
        root = _mvn_root(pair_moments(s.sizes, s.tie_pattern, all_pairs(s.n_groups)))
        n_pairs = root.shape[0]
        slices = []

        def record(kind, z):
            slices.append(z)
            return reduce_statistic(kind, z)

        monkeypatch.setattr(pairwise, "reduce_statistic", record)
        _mvn_tail_counts(root, "s_max", np.array([1.0]), randomization.CHUNK_SIZE, 3)
        chunk_rng = np.random.default_rng(np.random.SeedSequence(3).spawn(1)[0])
        whole = chunk_rng.standard_normal((randomization.CHUNK_SIZE, n_pairs)) @ root.T
        if s.n_groups <= 11:
            assert all(len(z) * n_pairs**2 <= pairwise._SINGLE_THREAD_GEMM for z in slices)
            assert np.array_equal(np.concatenate(slices), whole)
        else:
            assert n_pairs == 66 and [len(z) for z in slices] == [3971, 125]
            np.testing.assert_allclose(np.concatenate(slices), whole, rtol=0, atol=1e-12)


def test_mc_and_mvn_agree_at_moderate_sizes():
    # conditional-randomization and joint-normal sampling land close in the
    # [0.01, 0.2] tail range at these sizes (this dataset's p is ~0.10)
    rng = np.random.default_rng(17)
    groups = [rng.normal(size=50).tolist() for _ in range(3)]
    s = rank_samples(groups)
    pm = pair_moments(s.sizes, s.tie_pattern, all_pairs(s.n_groups))
    obs = observe(s, pm, "greater")
    tail = (obs.statistic, [obs.statistic_value], 100_000, 11)
    p1 = simulated_tail_counts(s, pm, *tail)[0] / 100_000
    p2 = mvn_tail_counts(pm, *tail)[0] / 100_000
    assert 0.01 <= p1 <= 0.2
    assert abs(p1 - p2) <= 0.015


def test_several_methods_in_one_call_match_single_calls(tmp_path):
    # the engine table: pairwise --method all runs exactly the simulated and the
    # asymptotic (MVN sampling) engines, each as it runs alone
    rng = np.random.default_rng(4)
    groups = [rng.integers(0, 8, size=6).tolist() for _ in range(4)]
    args = ("--mode", "pairwise", "--alternative", "less", "--nsim", "5000", "--seed", "8")
    both = _report(tmp_path, groups, *args, "--method", "all")
    assert sorted(both["p_values"]) == ["monte_carlo", "mvn_sample"]
    for method, engine in (("simulated", "monte_carlo"), ("asymptotic", "mvn_sample")):
        single = _report(tmp_path, groups, *args, "--method", method)
        assert single["p_values"] == {engine: both["p_values"][engine]}
        assert single["pairwise"] == both["pairwise"]
    s = rank_samples(groups)
    pm = pair_moments(s.sizes, s.tie_pattern, all_pairs(s.n_groups))
    assert both["pairwise"]["pairs"] == [f"{a + 1}-{b + 1}" for a, b in pm.pairs]


def test_pairwise_report_builds_the_moment_matrix_once(monkeypatch, tmp_path):
    import steelrank.analysis as analysis

    calls = []
    original = analysis.pair_moments

    def counting(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(analysis, "pair_moments", counting)
    _report(tmp_path, [[1, 2, 4], [3, 5], [6, 2]], "--mode", "pairwise", "--nsim", "500")
    assert len(calls) == 1 and calls[0][2] == all_pairs(3)


def test_parameter_validation():
    pm = pair_moments((2, 2), TiePattern.no_ties(4), all_pairs(2))
    with pytest.raises(ParameterError):
        mvn_tail_counts(pm, "s_max", [0.0], 0, 0)
    with pytest.raises(ParameterError):
        mvn_tail_counts(pm, "max", [0.0], 100, 0)
    with pytest.raises(ParameterError):
        mvn_tail_counts(pm, "s_max", [1.0, 0.0], 100, 0)
    with pytest.raises(ParameterError):
        mvn_tail_counts(pm, "s_max", [np.nan], 100, 0)
    with pytest.raises(ParameterError):
        pair_moments((5,), TiePattern((5,)), all_pairs(1))
    with pytest.raises(ParameterError):
        pair_moments((2, 2), TiePattern((5,)), all_pairs(2))
