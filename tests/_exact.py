"""Test helpers built on the package's exact enumeration walk (``_enumerate_w``).

Unlike ``_oracles``, these run through the package: they turn the walk's
weighted Mann-Whitney rows into a weighted null distribution of one statistic,
or into the empirical moments of all the pair statistics.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from steelrank import pair_moments, split_count
from steelrank.moments import all_pairs, control_pairs
from steelrank.randomization import DEFAULT_BUDGET, _enumerate_w, _sum_by_key
from steelrank.statistics import reduce_statistic, standardize


@dataclass(frozen=True)
class NullSample:
    """Weighted support of a statistic under the randomization distribution."""

    values: np.ndarray  # (M,) statistic values ascending, or (M, K) rows for vector_w
    weights: np.ndarray  # (M,) exact split counts: int64, Python ints past 2**63 splits
    total: int


def exact_null_distribution(samples, statistic: str, budget: int = DEFAULT_BUDGET) -> NullSample:
    """Full weighted null distribution of s_max, s_min, s_abs or the raw control
    pair values (``vector_w``), from the exact walk over the control pairs."""
    pairs = control_pairs(samples.n_groups)
    w, wt = _enumerate_w(samples.tie_pattern, samples.sizes, pairs, budget)
    if statistic == "vector_w":
        vals, inv = np.unique(w, axis=0, return_inverse=True)
    else:
        ms = pair_moments(samples.sizes, samples.tie_pattern, pairs)
        stats = reduce_statistic(statistic, standardize(w, ms.mu, ms.tau))
        vals, inv = np.unique(stats, return_inverse=True)
    weights = _sum_by_key(inv.reshape(-1), wt)[1]
    return NullSample(vals, weights, split_count(samples.sizes))


@dataclass(frozen=True)
class ExactMoments:
    """Empirical first and second moments over the full enumeration."""

    pairs: tuple[tuple[int, int], ...]
    mean: np.ndarray
    cov: np.ndarray
    total: int


def exact_moments(sizes, tie, all_group_pairs: bool = False,
                  budget: int = DEFAULT_BUDGET) -> ExactMoments:
    """Mean vector and covariance matrix of the pair statistics by full enumeration.

    Independent of the closed-form moment formulas; the small-sample oracle for them.
    """
    sizes = tuple(int(n) for n in sizes)
    n_groups = len(sizes)
    pairs = all_pairs(n_groups) if all_group_pairs else control_pairs(n_groups)
    w, wt = _enumerate_w(tie, sizes, pairs, budget)
    total = int(wt.sum())
    wt = wt.astype(float)
    mu = np.array([sizes[a] * sizes[b] / 2 for a, b in pairs])
    wc = w - mu
    first = (wt @ wc) / total
    cov = (wc.T * wt) @ wc / total - np.outer(first, first)
    return ExactMoments(pairs=pairs, mean=mu + first, cov=cov, total=total)
