"""Conditional randomization null distributions: exact enumeration and seeded Monte Carlo.

Exact mode walks the distinct allocations of tied value blocks to groups, weighting
each by the number of labeled splits it represents, so the distribution is exact
while enumerating far fewer states than the raw multinomial count.

Monte Carlo mode splits the replicates into fixed-size chunks; chunk i draws from an
independent RNG substream derived from (seed, i).  Results are therefore identical
for any worker count (the STEELRANK_THREADS environment variable only caps speed).

Memory contract: each worker draws its chunk in consecutive slices of at most
``_SLICE_CELLS`` array cells (replicates times cells per replicate; one replicate
where a single one is larger), so the memory a worker holds is bounded by the slice
budget and depends neither on nsim nor on N x groups x distinct values.  Slicing
does not change the draws, so reports are the same as drawing each chunk at once.
"""
from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, Sequence

import numpy as np

from .errors import BudgetError, ParameterError
from .moments import factor_decomposition
from .ranks import RankedSamples, TiePattern
from .statistics import SteelObservation, in_tail, reduce_statistic

DEFAULT_BUDGET = 10_000_000
# enumeration weights are floats, exact integers only up to 2**53 splits
EXACT_SPLIT_LIMIT = 2**53
CHUNK_SIZE = 4096
_SLICE_CELLS = 1 << 21  # cells of one drawn slice: 16 MiB per int64 or float array
_EXPAND_BLOCK = 1 << 18

STATISTICS = ("s_max", "s_min", "s_abs", "vector_w")


def worker_count() -> int:
    """Worker cap for Monte Carlo chunks; STEELRANK_THREADS overrides the default."""
    env = os.environ.get("STEELRANK_THREADS", "").strip()
    if env:
        try:
            n = int(env)
        except ValueError:
            n = 0
        if n < 1:
            raise ParameterError(f"STEELRANK_THREADS must be an integer >= 1, got {env!r}")
        return n
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no sched_getaffinity on this platform
        cpus = os.cpu_count() or 1
    return min(8, cpus)


def sample_chunks(
    nsim: int,
    seed: int,
    draw: Callable[[np.random.Generator, int], object],
    cells_per_replicate: int,
) -> list:
    """Results of ``draw(rng, size)`` per slice of the CHUNK_SIZE-replicate chunks, in order.

    Chunk i draws from the i-th substream spawned from ``seed``, so the results do
    not depend on how many worker threads run the chunks.  Each chunk is drawn from
    its generator in consecutive slices of ``max(1, _SLICE_CELLS //
    cells_per_replicate)`` replicates (the last one shorter); ``draw`` must consume
    the generator row by row, so that the slices draw exactly what one call for the
    whole chunk would.
    """
    n_chunks = -(-nsim // CHUNK_SIZE)
    seeds = np.random.SeedSequence(seed).spawn(n_chunks)
    rows = max(1, _SLICE_CELLS // cells_per_replicate)

    def one_chunk(ci: int) -> list:
        rng = np.random.default_rng(seeds[ci])
        size = min(CHUNK_SIZE, nsim - ci * CHUNK_SIZE)
        return [draw(rng, min(rows, size - start)) for start in range(0, size, rows)]

    threads = worker_count()
    if threads == 1 or n_chunks == 1:
        chunks = [one_chunk(ci) for ci in range(n_chunks)]
    else:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            chunks = list(pool.map(one_chunk, range(n_chunks)))
    return [result for chunk in chunks for result in chunk]


def split_count(sizes: Sequence[int]) -> int:
    """Number of labeled splits of the pooled sample: N! / (n0! * ... * nK!)."""
    total = 0
    out = 1
    for s in sizes:
        total += int(s)
        out *= math.comb(total, int(s))
    return out


@dataclass(frozen=True)
class PValue:
    estimate: float
    method: str  # exact | monte_carlo | asymptotic
    nsim: int | None = None
    std_error: float | None = None
    seed: int | None = None


@dataclass(frozen=True)
class NullSample:
    """Weighted support of a statistic under the randomization distribution."""

    values: np.ndarray  # (M,) statistic values, or (M, K) for vector_w
    weights: np.ndarray  # (M,) integer multiplicities
    total: int
    statistic: str


@dataclass(frozen=True)
class ExactMoments:
    """Empirical first and second moments over the full enumeration."""

    pairs: tuple[tuple[int, int], ...]
    mean: np.ndarray
    cov: np.ndarray
    total: int


@dataclass(frozen=True)
class TestResult:
    """Observed statistics with the p-values computed for them."""

    labels: tuple[str, ...]
    w_star: np.ndarray
    standardized: np.ndarray
    statistic: str
    statistic_value: float
    alternative: str
    p_values: dict[str, PValue] = field(default_factory=dict)
    warnings: tuple[str, ...] = ()


@lru_cache(maxsize=None)
def _compositions(total: int, groups: int) -> tuple[np.ndarray, np.ndarray]:
    """All nonnegative integer vectors summing to ``total`` plus multinomial weights."""
    if groups == 1:
        return np.array([[total]], dtype=np.int64), np.array([1.0])
    blocks = []
    for first in range(total + 1):
        sub, _ = _compositions(total - first, groups - 1)
        blk = np.empty((len(sub), groups), dtype=np.int64)
        blk[:, 0] = first
        blk[:, 1:] = sub
        blocks.append(blk)
    comps = np.concatenate(blocks)
    fact = [math.factorial(i) for i in range(total + 1)]
    weights = np.array(
        [fact[total] / math.prod(fact[v] for v in row) for row in comps], dtype=float
    )
    comps.setflags(write=False)
    weights.setflags(write=False)
    return comps, weights


def control_pairs(n_groups: int) -> tuple[tuple[int, int], ...]:
    return tuple((0, i) for i in range(1, n_groups))


def all_pairs(n_groups: int) -> tuple[tuple[int, int], ...]:
    return tuple((a, b) for a in range(n_groups) for b in range(a + 1, n_groups))


def _enumerate_w(
    tie: TiePattern,
    sizes: Sequence[int],
    pairs: Sequence[tuple[int, int]],
    budget: int = DEFAULT_BUDGET,
) -> tuple[np.ndarray, np.ndarray]:
    """Mann-Whitney values of the requested pairs for every distinct block allocation.

    Returns (w, weights) where w has one row per distinct allocation and weights
    count the labeled splits collapsing onto it (summing to split_count(sizes)).
    """
    total = split_count(sizes)
    if total > budget:
        raise BudgetError(
            f"exact enumeration needs {total} splits, over budget {budget}; "
            "use the monte_carlo method instead"
        )
    if total > EXACT_SPLIT_LIMIT:
        raise BudgetError(
            f"exact enumeration needs {total} splits, over 2**53, beyond which its "
            "weights are not exact; use the monte_carlo method instead"
        )
    sizes_arr = np.asarray(sizes, dtype=np.int64)
    n_groups = len(sizes)
    n_pairs = len(pairs)
    cum = np.zeros((1, n_groups), dtype=np.int64)
    w = np.zeros((1, n_pairs), dtype=float)
    wt = np.ones(1, dtype=float)
    for dv in tie.d:
        comps, cw = _compositions(dv, n_groups)
        new_cum, new_w, new_wt = [], [], []
        for start in range(0, cum.shape[0], _EXPAND_BLOCK):
            sl = slice(start, min(start + _EXPAND_BLOCK, cum.shape[0]))
            cand = cum[sl, None, :] + comps[None, :, :]
            ok = (cand <= sizes_arr).all(axis=2)
            ii, jj = np.nonzero(ok)
            if ii.size == 0:
                continue
            kk = comps[jj].astype(float)
            base = cum[sl][ii].astype(float)
            w_blk = w[sl][ii]
            for p, (a, b) in enumerate(pairs):
                w_blk[:, p] += kk[:, b] * (base[:, a] + 0.5 * kk[:, a])
            new_cum.append(cand[ii, jj])
            new_w.append(w_blk)
            new_wt.append(wt[sl][ii] * cw[jj])
        cum = np.concatenate(new_cum)
        w = np.concatenate(new_w)
        wt = np.concatenate(new_wt)
    if wt.sum() != total:
        raise AssertionError("enumeration weights do not sum to the split count")
    return w, wt


def _standardize(w: np.ndarray, mu: np.ndarray, tau: np.ndarray) -> np.ndarray:
    z = np.zeros_like(w)
    ok = tau > 0
    z[:, ok] = (w[:, ok] - mu[ok]) / tau[ok]
    return z


def exact_null_distribution(
    samples: RankedSamples, statistic: str, budget: int = DEFAULT_BUDGET
) -> NullSample:
    """Full weighted null distribution of the chosen statistic."""
    if statistic not in STATISTICS:
        raise ParameterError(f"statistic must be one of {STATISTICS}, got {statistic!r}")
    pairs = control_pairs(samples.n_groups)
    w, wt = _enumerate_w(samples.tie_pattern, samples.sizes, pairs, budget)
    if statistic == "vector_w":
        vals, inv = np.unique(w, axis=0, return_inverse=True)
    else:
        ms = factor_decomposition(samples.sizes, samples.tie_pattern)
        stats = reduce_statistic(statistic, _standardize(w, ms.mu, ms.tau))
        vals, inv = np.unique(stats, return_inverse=True)
    weights = np.bincount(inv.reshape(-1), weights=wt)
    return NullSample(
        values=vals,
        weights=weights.astype(np.int64),
        total=split_count(samples.sizes),
        statistic=statistic,
    )


def exact_moments(
    sizes: Sequence[int],
    tie: TiePattern,
    all_group_pairs: bool = False,
    budget: int = DEFAULT_BUDGET,
) -> ExactMoments:
    """Mean vector and covariance matrix of the pair statistics by full enumeration.

    Independent of the closed-form moment formulas; useful as a small-sample oracle.
    """
    sizes = tuple(int(n) for n in sizes)
    n_groups = len(sizes)
    pairs = all_pairs(n_groups) if all_group_pairs else control_pairs(n_groups)
    w, wt = _enumerate_w(tie, sizes, pairs, budget)
    total = wt.sum()
    mu = np.array([sizes[a] * sizes[b] / 2 for a, b in pairs])
    wc = w - mu
    first = (wt @ wc) / total
    cov = (wc.T * wt) @ wc / total - np.outer(first, first)
    return ExactMoments(pairs=pairs, mean=mu + first, cov=cov, total=int(total))


def exact_p_value(
    samples: RankedSamples, observation: SteelObservation, budget: int = DEFAULT_BUDGET
) -> PValue:
    """Exact tail probability of the observed statistic, ties included in the tail."""
    kind = observation.statistic
    dist = exact_null_distribution(samples, kind, budget)
    mass = int(dist.weights[in_tail(kind, dist.values, observation.statistic_value)].sum())
    return PValue(estimate=mass / dist.total, method="exact")


def _mc_tail_counts(
    tie: TiePattern,
    sizes: Sequence[int],
    pairs: Sequence[tuple[int, int]],
    mu: np.ndarray,
    tau: np.ndarray,
    kind: str,
    thresholds: np.ndarray,
    nsim: int,
    seed: int,
) -> np.ndarray:
    """Tail counts per threshold over nsim random splits (chunked, reproducible)."""
    d = np.asarray(tie.d, dtype=np.int64)
    n_values = d.size
    n_groups = len(sizes)
    value_class = np.repeat(np.arange(n_values, dtype=np.int64), d)
    label_template = np.repeat(
        np.arange(n_groups, dtype=np.int64), np.asarray(sizes, dtype=np.int64)
    )
    thr = np.asarray(thresholds, dtype=float)
    a_groups = sorted({a for a, _ in pairs})

    def draw(rng: np.random.Generator, b: int) -> np.ndarray:
        labels = np.tile(label_template, (b, 1))
        rng.permuted(labels, axis=1, out=labels)
        key = labels * n_values + value_class[None, :]
        key += (np.arange(b, dtype=np.int64) * (n_groups * n_values))[:, None]
        counts = np.bincount(key.ravel(), minlength=b * n_groups * n_values)
        counts = counts.reshape(b, n_groups, n_values)
        cums = np.cumsum(counts, axis=2)
        cx = {a: cums[:, a, :] - 0.5 * counts[:, a, :] for a in a_groups}
        w = np.empty((b, len(pairs)), dtype=float)
        for p, (a, bb) in enumerate(pairs):
            w[:, p] = np.einsum("ij,ij->i", counts[:, bb, :].astype(float), cx[a])
        stats = reduce_statistic(kind, _standardize(w, mu, tau))
        return in_tail(kind, stats[:, None], thr[None, :]).sum(axis=0).astype(np.int64)

    cells = n_groups * n_values + value_class.size
    return np.sum(sample_chunks(nsim, seed, draw, cells), axis=0)


def sampled_p_value(
    hits: int, nsim: int, seed: int, method: str, conservative: bool = False
) -> PValue:
    """Sampled tail estimate with its binomial standard error.

    ``conservative`` switches the estimate to (hits+1)/(nsim+1).
    """
    estimate = (hits + 1) / (nsim + 1) if conservative else hits / nsim
    return PValue(
        estimate=estimate,
        method=method,
        nsim=nsim,
        std_error=math.sqrt(estimate * (1 - estimate) / nsim),
        seed=seed,
    )


def _control_tail_counts(
    samples: RankedSamples, kind: str, thresholds: Sequence[float], nsim: int, seed: int
) -> np.ndarray:
    """Monte Carlo tail counts of a treatment-vs-control statistic per threshold."""
    ms = factor_decomposition(samples.sizes, samples.tie_pattern)
    pairs = control_pairs(samples.n_groups)
    return _mc_tail_counts(
        samples.tie_pattern, samples.sizes, pairs, ms.mu, ms.tau, kind, thresholds, nsim, seed
    )


def simulate_p_value(
    samples: RankedSamples,
    observation: SteelObservation,
    nsim: int,
    seed: int,
    conservative: bool = False,
) -> PValue:
    """Monte Carlo tail estimate.  ``conservative`` switches to (hits+1)/(nsim+1)."""
    if nsim < 1:
        raise ParameterError("nsim must be >= 1")
    kind = observation.statistic
    counts = _control_tail_counts(samples, kind, [observation.statistic_value], nsim, seed)
    return sampled_p_value(int(counts[0]), nsim, seed, "monte_carlo", conservative)


def simulated_tail_curve(
    samples: RankedSamples,
    statistic: str,
    thresholds: Sequence[float],
    nsim: int,
    seed: int,
) -> np.ndarray:
    """Tail probability at each threshold from a single shared simulation run.

    The tail is the one the statistic's alternative tests: P(s_min <= t) for
    ``s_min``, P(statistic >= t) for ``s_max`` and ``s_abs``.
    """
    if statistic not in ("s_max", "s_min", "s_abs"):
        raise ParameterError(f"tail curves need a scalar statistic, got {statistic!r}")
    if nsim < 1:
        raise ParameterError("nsim must be >= 1")
    thr = np.asarray(thresholds, dtype=float)
    if thr.ndim != 1 or thr.size == 0:
        raise ParameterError("thresholds must be a non-empty vector")
    if np.any(np.diff(thr) < 0):
        raise ParameterError("thresholds must be sorted ascending")
    return _control_tail_counts(samples, statistic, thr, nsim, seed) / nsim
