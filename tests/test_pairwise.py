import dataclasses
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

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
from steelrank import _cache, pairwise, randomization
from steelrank.cli import main
from steelrank.moments import all_pairs, control_pairs, tie_sums
from steelrank.pairwise import _group_factors, _mvn_tail_counts, mvn_tail_counts
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


def test_mvn_sliced_chunks_give_the_unsliced_tail_counts(monkeypatch, iq_groups):
    default_cells = randomization._SLICE_CELLS
    rng = np.random.default_rng(8)
    s = rank_samples([rng.integers(0, 7, size=8).tolist() for _ in range(4)])
    pm = pair_moments(s.sizes, s.tie_pattern, all_pairs(s.n_groups))
    factors = _group_factors(pm)
    cells = 2 * s.n_groups + 5 * len(pm.pairs)  # floats a replicate's tally holds
    for kind, threshold in (("s_max", 1.2), ("s_max", 2.3), ("s_min", -1.9), ("s_abs", 2.1)):
        counts = {}
        for rows, threads in ((None, "1"), (1, "1"), (7, "1"), (7, "2")):
            monkeypatch.setenv("STEELRANK_THREADS", threads)
            slice_cells = 1 << 40 if rows is None else rows * cells
            monkeypatch.setattr(randomization, "_SLICE_CELLS", slice_cells)
            counts[rows, threads] = int(_mvn_tail_counts(factors, kind, np.array([threshold]), 9000,
                                                         6)[0])
        assert 0 < counts[None, "1"] < 9000
        assert set(counts.values()) == {counts[None, "1"]}
    # a chunk's K + P normals per replicate, read row by row, give each pair value
    # by elementwise products and sums, so any slicing gives the same bits
    monkeypatch.setenv("STEELRANK_THREADS", "1")  # the slices are recorded in order
    rng = np.random.default_rng(12)
    designs = [iq_groups[:3], iq_groups] + [
        [rng.integers(0, 5, size=7) if k % 2 else rng.normal(size=9) for _ in range(k)]
        for k in range(3, 13)]
    for groups in designs:
        s = rank_samples(groups)
        pm = pair_moments(s.sizes, s.tie_pattern, all_pairs(s.n_groups))
        factors = _group_factors(pm)
        on_a, on_b, own = factors[1][:, :, 0]
        k, (a, b) = s.n_groups, np.array(pm.pairs).T
        chunk_rng = np.random.default_rng(np.random.SeedSequence(3).spawn(1)[0])
        normal = chunk_rng.standard_normal((randomization.CHUNK_SIZE, k + len(a)))
        whole = normal[:, a] * on_a + normal[:, b] * on_b + normal[:, k:] * own
        held = 2 * k + 5 * len(a)  # floats a replicate's tally holds
        for budget in (1 << 40, default_cells, 7 * held):
            monkeypatch.setattr(randomization, "_SLICE_CELLS", budget)
            per_slice = min(randomization.CHUNK_SIZE, budget // held)
            slices = []

            def record(kind, z):
                slices.append(np.array(z))
                return reduce_statistic(kind, z)

            monkeypatch.setattr(pairwise, "reduce_statistic", record)
            _mvn_tail_counts(factors, "s_max", np.array([1.0]), randomization.CHUNK_SIZE, 3)
            assert [len(z) for z in slices[:-1]] == [per_slice] * (len(slices) - 1)
            assert np.array_equal(np.concatenate(slices), whole)


def _factor_cov(pm):
    """The covariance that the group-factor coefficients of a moment set give."""
    rows, coef = _group_factors(pm)
    loading = np.zeros((len(pm.pairs), len(pm.sizes) + len(pm.pairs)))
    for term in range(3):
        loading[np.arange(len(pm.pairs)), rows[term]] = coef[term, :, 0]
    assert rows[:2].T.tolist() == [list(pair) for pair in pm.pairs]
    return loading @ loading.T * np.outer(pm.tau, pm.tau)


def test_group_factors_reproduce_the_covariance():
    rng = np.random.default_rng(21)
    # two-valued designs leave no remainder, r = 0
    singular = [((2, 2, 2), TiePattern((3, 3))), ((2, 2, 2), TiePattern((1, 5))),
                ((1, 2, 2), TiePattern((1, 4)))]
    designs = singular + [((2, 3, 2), TiePattern((7,))), ((3, 4), TiePattern((2, 1, 3, 1)))]
    for _ in range(12):
        sizes = tuple(int(n) for n in rng.integers(1, 9, size=rng.integers(3, 9)))
        designs.append((sizes, TiePattern(random_tie_pattern(rng, sum(sizes)))))
    for sizes, tie in designs:
        for pairs in (control_pairs(len(sizes)), all_pairs(len(sizes))):
            pm = pair_moments(sizes, tie, pairs)
            scale = np.outer(pm.tau, pm.tau)
            assert np.all(np.abs(_factor_cov(pm) - pm.cov) <= 1e-12 * scale)
            if tie.e == 1:  # fully tied: every coefficient is 0
                assert not np.any(_group_factors(pm)[1])
    for sizes, tie in singular:  # the pair correlation is singular: r = 0 exactly
        own = _group_factors(pair_moments(sizes, tie, all_pairs(3)))[1][2]
        assert not np.any(own)


def test_mvn_slices_hold_the_slice_budget(monkeypatch):
    """At 10 groups a replicate's tally holds 2 (K + P) + 3 P = 155 + 90 floats; slices
    sized by the K + P normals of the draw alone held 7.7 MiB at one thread."""
    monkeypatch.setenv("STEELRANK_THREADS", "1")
    rng = np.random.default_rng(3)
    s = rank_samples([np.round(rng.normal(size=50), 1) for _ in range(10)])
    pm = pair_moments(s.sizes, s.tie_pattern, all_pairs(10))
    mvn_tail_counts(pm, "s_abs", [1.0, 2.0], 4096, 1)  # derive the group factors first
    tracemalloc.start()
    try:
        counts = mvn_tail_counts(pm, "s_abs", [1.0, 2.0], 10_000, 1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert 0 < counts[1] < counts[0] < 10_000
    assert peak < 1.5 * 8 * randomization._SLICE_CELLS


def test_a_stored_all_pairs_set_keeps_nothing_the_engines_build_from_it():
    """``observe`` and MVN sampling build the pair index and the group factors from
    a stored set on each call, at 45 and 190 pairs: the set holds only its fields
    afterwards and its design-cache charge stays as it was stored."""
    for k in (10, 20):
        s = rank_samples([np.arange(3.0) + g for g in range(k)])
        pm = pair_moments(s.sizes, s.tie_pattern, all_pairs(k))
        key = ("moments", s.sizes, pm.pairs, *tie_sums(s.tie_pattern))
        charge = _cache.DESIGNS._sizes[key]
        observe(s, pm, "two_sided")
        mvn_tail_counts(pm, "s_abs", [1.0], 10, 0)
        assert _cache.DESIGNS._sizes[key] == charge
        assert len(dataclasses.fields(pm)) == 12
        assert set(vars(pm)) == {f.name for f in dataclasses.fields(pm)}


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


BLAS_SCRIPT = """
import json
import numpy as np
from steelrank import pair_moments, rank_samples, tail_prob
from steelrank.moments import all_pairs, control_pairs
from steelrank.pairwise import mvn_tail_counts

counts = []
for k in (4, 10, 20):  # 6, 45 and 190 pairs of untied groups of 30
    s = rank_samples([np.arange(30.0) + 30 * g for g in range(k)])
    ms = pair_moments(s.sizes, s.tie_pattern, all_pairs(k))
    counts.append(mvn_tail_counts(ms, "s_abs", [2.0, 2.5, 3.0, 3.5], 10_000, 7).tolist())
rng = np.random.default_rng(5)
tails = []
for k in (3, 5, 8):
    s = rank_samples([rng.integers(0, 12, size=rng.integers(4, 15)) for _ in range(k)])
    ms = pair_moments(s.sizes, s.tie_pattern, control_pairs(k))
    for alternative, sign in (("greater", 1), ("less", -1), ("two_sided", 1)):
        tails += [tail_prob(ms, sign * u, alternative).hex() for u in (0.5, 1.5, 2.5, 3.5)]
"""


@pytest.mark.parametrize("kernel", ["Haswell", "Nehalem"])
def test_mvn_counts_and_tails_do_not_depend_on_the_blas_kernel(kernel):
    """MVN sampling and the quadrature call no BLAS routine: a run on another
    OpenBLAS kernel at one BLAS thread must give this process's counts and the
    same tail floats bit for bit."""
    here = {}
    exec(BLAS_SCRIPT, here)
    env = dict(os.environ, OPENBLAS_CORETYPE=kernel, OPENBLAS_NUM_THREADS="1")
    src = str(Path(pairwise.__file__).parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    script = BLAS_SCRIPT + 'print(json.dumps({"counts": counts, "tails": tails}))'
    done = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120, check=True)
    assert json.loads(done.stdout) == {"counts": here["counts"], "tails": here["tails"]}
    assert all(0 < c[-1] < c[0] < 10_000 for c in here["counts"])
