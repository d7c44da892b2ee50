"""Correctness checks on each report, computed from the raw generated values.

Nothing here calls into steelrank: every reference value comes from the
benchmark's own counting, sampling or enumeration, or from scipy.
"""
from __future__ import annotations

import math
from fractions import Fraction
from itertools import product

import numpy as np
from scipy.stats import binom, multivariate_normal, norm

GENZ_ABS_TOL = 1e-3  # asymptotic p-value vs Genz MVN CDF
GENZ_ABSEPS = 1e-4
ORACLE_REPS = 20_000  # label permutations per exact p-value check
# two-sided level of a 4-standard-error normal deviation; the exact binomial
# test at this level replaces the normal approximation for small tail counts
ORACLE_LEVEL = 2 * norm.sf(4.0)
TWO_VALUED_TOL = 1e-9


def round_sig(x: float) -> float:
    """The report's float format: 10 significant digits."""
    if x == 0 or not math.isfinite(x):
        return float(x)
    return float(f"{x:.10g}")


def mw_star(x: np.ndarray, y: np.ndarray) -> float:
    """#(x < y) + #(x = y)/2 over all pairs, by direct comparison."""
    return float(np.less.outer(x, y).sum() + 0.5 * np.equal.outer(x, y).sum())


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-12)


def _statistic(z: np.ndarray, alternative: str) -> np.ndarray:
    if alternative == "greater":
        return z.max(axis=-1)
    if alternative == "less":
        return z.min(axis=-1)
    return np.abs(z).max(axis=-1)


def _in_tail(stats: np.ndarray, observed: float, alternative: str) -> np.ndarray:
    tol = 1e-9 * max(1.0, abs(observed))
    if alternative == "less":
        return stats <= observed + tol
    return stats >= observed - tol


def check_w_star(groups, report: dict, mode: str) -> list[str]:
    if mode == "pairwise":
        got = report["pairwise"]["w_star"]
        pairs = [(a, b) for a in range(len(groups)) for b in range(a + 1, len(groups))]
    else:
        got = report["observation"]["w_star"]
        pairs = [(0, i) for i in range(1, len(groups))]
    if len(got) != len(pairs):
        return [f"w_star has {len(got)} entries, expected {len(pairs)}"]
    for (a, b), w in zip(pairs, got):
        own = round_sig(mw_star(groups[a], groups[b]))
        if w != own:
            return [f"w_star[{a},{b}] = {w}, own count {own}"]
    return []


def check_p_range(report: dict) -> list[str]:
    return [
        f"p-value {name} = {pv['estimate']} outside [0, 1]"
        for name, pv in report.get("p_values", {}).items()
        if not 0.0 <= pv["estimate"] <= 1.0
    ]


def genz_p_value(report: dict) -> float:
    """Asymptotic p-value from the report's moments, by scipy's Genz MVN CDF."""
    sizes = report["groups"]["sizes"]
    mom = report["moments"]
    n = np.asarray(sizes[1:], dtype=float)
    tau = np.sqrt(np.asarray(mom["tau2"], dtype=float))
    cov = np.outer(n, n) * mom["sigma0_2"]
    np.fill_diagonal(cov, mom["tau2"])
    corr = cov / np.outer(tau, tau)
    obs = report["observation"]
    s, alt = obs["statistic_value"], obs["alternative"]
    k = n.size
    kwargs = dict(mean=np.zeros(k), cov=corr, abseps=GENZ_ABSEPS, releps=0,
                  rng=np.random.default_rng(0))
    if alt == "greater":
        box = multivariate_normal.cdf(np.full(k, s), **kwargs)
    elif alt == "less":  # P(all Z_i > s) = P(all -Z_i < -s), same correlation
        box = multivariate_normal.cdf(np.full(k, -s), **kwargs)
    else:
        box = multivariate_normal.cdf(np.full(k, s), lower_limit=np.full(k, -s), **kwargs)
    return 1.0 - float(box)


def check_asymptotic(report: dict) -> list[str]:
    got = report["p_values"]["asymptotic"]["estimate"]
    ref = genz_p_value(report)
    if abs(got - ref) > GENZ_ABS_TOL:
        return [f"asymptotic p {got} vs Genz {ref:.6g}"]
    return []


def _kth(diffs: np.ndarray, j: int) -> float:
    return float(np.partition(diffs, j - 1)[j - 1])


def check_bounds(groups, report: dict, round_eps: float) -> list[str]:
    conf = report["confidence"]
    x = groups[0]
    for i, y in enumerate(groups[1:]):
        diffs = np.subtract.outer(y, x).ravel()
        for side, sign in (("upper", 1.0), ("lower", -1.0)):
            js = conf[f"j_{side}"]
            if js is None:
                if conf[side][i] is not None:
                    return [f"{side}[{i}] set without an index"]
                continue
            j = js[i]
            if not 1 <= j <= diffs.size:
                return [f"j_{side}[{i}] = {j} outside 1..{diffs.size}"]
            want = round_sig(_kth(diffs, j) + sign * round_eps)
            if conf[side][i] is None or not _close(conf[side][i], want):
                return [f"{side}[{i}] = {conf[side][i]}, j-th difference gives {want}"]
    return []


def _standardized(w: np.ndarray, report: dict) -> np.ndarray:
    mom = report["moments"]
    return (w - np.asarray(mom["mu"])) / np.asarray(mom["tau"])


def permutation_p_value(groups, report: dict, reps: int, seed) -> tuple[int, float]:
    """Tail hits of the reported statistic over uniformly random label permutations."""
    pooled = np.concatenate(groups)
    sizes = [g.size for g in groups]
    cmp = np.less.outer(pooled, pooled) + 0.5 * np.equal.outer(pooled, pooled)
    labels = np.repeat(np.arange(len(sizes)), sizes)
    perm = np.random.default_rng(seed).permuted(np.tile(labels, (reps, 1)), axis=1)
    ctrl_row = (perm == 0).astype(float) @ cmp  # row r: sum over control of cmp[a, :]
    w = np.stack(
        [np.einsum("rn,rn->r", ctrl_row, (perm == g).astype(float)) for g in range(1, len(sizes))],
        axis=1,
    )
    alt = report["observation"]["alternative"]
    stats = _statistic(_standardized(w, report), alt)
    w_obs = np.array([mw_star(groups[0], g) for g in groups[1:]])
    observed = float(_statistic(_standardized(w_obs, report), alt))
    return int(_in_tail(stats, observed, alt).sum()), observed


def check_exact_by_sampling(groups, report: dict, seed: int) -> list[str]:
    """Fails when two independent permutation samples both miss the claimed
    p-value by more than 4 standard errors.  One sample alone would raise a
    false alarm about once per 16k checks, which a run of many checks meets."""
    claimed = report["p_values"]["exact"]["estimate"]
    misses = []
    for stream in (0, 1):
        hits, _ = permutation_p_value(groups, report, ORACLE_REPS, [seed, stream])
        lo = binom.cdf(hits, ORACLE_REPS, claimed)
        hi = binom.sf(hits - 1, ORACLE_REPS, claimed)
        if 2 * min(lo, hi) >= ORACLE_LEVEL:
            return []
        misses.append(f"{hits}/{ORACLE_REPS}")
    return [f"exact p {claimed} vs permutation samples {', '.join(misses)}"]


def two_valued_p_value(groups, report: dict) -> float:
    """Exact tail probability for 0/1 data: the counts of ones per group are
    multivariate hypergeometric given the pooled count."""
    sizes = [g.size for g in groups]
    ones = [int(g.sum()) for g in groups]
    total_ones, n_total = sum(ones), sum(sizes)
    n0 = sizes[0]

    def w_of(c):
        c0 = c[0]
        return np.array(
            [(n0 - c0) * ci + 0.5 * (c0 * ci + (n0 - c0) * (ni - ci)) for ci, ni in zip(c[1:], sizes[1:])],
            dtype=float,
        )

    alt = report["observation"]["alternative"]
    observed = float(_statistic(_standardized(w_of(ones), report), alt))
    mass = Fraction(0)
    for head in product(*(range(min(n, total_ones) + 1) for n in sizes[:-1])):
        last = total_ones - sum(head)
        if not 0 <= last <= sizes[-1]:
            continue
        c = head + (last,)
        stat = float(_statistic(_standardized(w_of(c), report), alt))
        if _in_tail(np.array(stat), observed, alt):
            mass += math.prod(math.comb(n, k) for n, k in zip(sizes, c))
    return float(mass / math.comb(n_total, total_ones))


def check_exact_two_valued(groups, report: dict) -> list[str]:
    claimed = report["p_values"]["exact"]["estimate"]
    ref = two_valued_p_value(groups, report)
    if abs(claimed - ref) > TWO_VALUED_TOL * max(1.0, ref):
        return [f"exact p {claimed} vs hypergeometric {ref:.10g}"]
    return []


def engine(report: dict | None) -> str | None:
    """Which engine answered: exact, Monte Carlo (incl. MVN sampling) or asymptotic only."""
    if report is None:
        return None
    keys = report.get("p_values", {})
    if "exact" in keys:
        return "exact"
    if "monte_carlo" in keys or "mvn_sample" in keys:
        return "mc"
    return "asym"


def check_operation(workload, op, report: dict) -> list[str]:
    """Every check that applies to this workload; an empty list means the report is correct."""
    groups = op.groups
    reasons = check_w_star(groups, report, workload.mode) + check_p_range(report)
    if reasons:
        return reasons
    if workload.mode == "confidence":
        reasons += check_asymptotic(report)
        reasons += check_bounds(groups, report, op.round_eps)
    if workload.mode == "steel":
        if "exact" in report["p_values"]:
            if all(set(np.unique(g)) <= {0.0, 1.0} for g in groups):
                reasons += check_exact_two_valued(groups, report)
            else:
                reasons += check_exact_by_sampling(groups, report, op.mc_seed)
        elif workload.method == "exact":
            reasons.append("exact method returned no exact p-value")
    return reasons
