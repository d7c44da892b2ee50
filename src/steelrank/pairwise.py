"""All-pairs rank comparisons: covariance assembly and randomization/MVN p-values."""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import NumericError, ParameterError
from .moments import cov_w, var_w
from .randomization import (
    PValue,
    all_pairs,
    sample_chunks,
    sampled_p_value,
    simulated_tail_counts,
)
from .ranks import RankedSamples, TiePattern
from .statistics import (
    ALTERNATIVE_TABLE,
    in_tail,
    mann_whitney_star,
    normalize_alternative,
    reduce_statistic,
    standardize,
)

METHODS = ("monte_carlo", "mvn_sample")


@dataclass(frozen=True)
class PairwiseMoments:
    """Null moments of the C(K,2) pair statistics, pairs in lexicographic order.

    The first index of each pair plays the control role in its statistic.
    """

    sizes: tuple[int, ...]
    pairs: tuple[tuple[int, int], ...]
    mu: np.ndarray
    tau2: np.ndarray
    cov: np.ndarray

    @property
    def tau(self) -> np.ndarray:
        return np.sqrt(self.tau2)


def pairwise_moment_matrix(sizes: Sequence[int], tie: TiePattern) -> PairwiseMoments:
    """Covariance matrix of all pairwise statistics from the shared-sample identities.

    Pairs sharing their first or their second sample covary positively (three-sample
    covariance with the shared size first); mixed sharing flips the sign because
    reflecting a statistic (swapping its samples) negates it around the mean;
    disjoint pairs are uncorrelated.
    """
    sizes = tuple(int(n) for n in sizes)
    if len(sizes) < 2:
        raise ParameterError("all-pairs comparison needs at least two groups")
    if any(n < 1 for n in sizes):
        raise ParameterError("every group needs at least one observation")
    if sum(sizes) != tie.N:
        raise ParameterError(f"sizes sum to {sum(sizes)} but tie pattern has N = {tie.N}")
    pairs = all_pairs(len(sizes))
    n_pairs = len(pairs)
    mu = np.array([sizes[a] * sizes[b] / 2 for a, b in pairs])
    cov = np.zeros((n_pairs, n_pairs), dtype=float)
    exact: dict[tuple[int, ...], float] = {}  # each distinct size tuple's moment, once

    def moment(*ns: int) -> float:
        if ns not in exact:
            exact[ns] = (var_w if len(ns) == 2 else cov_w)(*ns, tie)
        return exact[ns]

    for p, (a, b) in enumerate(pairs):
        cov[p, p] = moment(sizes[a], sizes[b])
        for q in range(p + 1, n_pairs):
            c, d = pairs[q]
            shared = {a, b} & {c, d}
            if not shared:
                continue
            s = shared.pop()
            others = [v for v in (a, b, c, d) if v != s]
            sign = 1.0 if (s == a) == (s == c) else -1.0
            cov[p, q] = cov[q, p] = sign * moment(sizes[s], sizes[others[0]], sizes[others[1]])
    return PairwiseMoments(sizes=sizes, pairs=pairs, mu=mu, tau2=np.diag(cov).copy(), cov=cov)


@dataclass(frozen=True)
class PairwiseResult:
    """Observed all-pairs statistics, their p-values and the moments they standardized with."""

    labels: tuple[str, ...]
    w_star: np.ndarray
    standardized: np.ndarray
    statistic: str
    statistic_value: float
    alternative: str
    p_values: dict[str, PValue]
    warnings: tuple[str, ...]
    moments: PairwiseMoments


def _mvn_root(pm: PairwiseMoments) -> np.ndarray:
    """Square root of the pair correlation matrix; degenerate pairs get zero rows."""
    tau = pm.tau
    scale = np.where(tau > 0, tau, 1.0)
    corr = pm.cov / np.outer(scale, scale)
    corr[tau == 0, :] = 0.0
    corr[:, tau == 0] = 0.0
    eigvals, eigvecs = np.linalg.eigh(corr)
    tol = 1e-9 * max(1.0, float(np.abs(eigvals).max(initial=1.0)))
    if eigvals.min() < -tol:
        raise NumericError(
            f"pairwise covariance is not positive semidefinite: min eigenvalue "
            f"{eigvals.min():.3e} (tolerance {-tol:.3e})"
        )
    return eigvecs * np.sqrt(np.clip(eigvals, 0.0, None))


def _mvn_tail_counts(
    corr_root: np.ndarray, kind: str, threshold: float, nsim: int, seed: int
) -> int:
    """Tail count from sampling the standardized joint normal, chunked like the MC engine."""

    def draw(rng: np.random.Generator, b: int) -> int:
        z = rng.standard_normal((b, corr_root.shape[1])) @ corr_root.T
        return int(in_tail(kind, reduce_statistic(kind, z), threshold).sum())

    return sum(sample_chunks(nsim, seed, draw, corr_root.shape[1]))


def pairwise_test(
    samples: RankedSamples,
    alternative: str,
    method,
    nsim: int,
    seed: int,
    conservative: bool = False,
) -> PairwiseResult:
    """Max/min/abs-max over all standardized pairwise statistics with sampled p-values.

    ``method`` is one of METHODS or a sequence of them; ``p_values`` holds one
    entry per method.  ``monte_carlo`` re-splits the pooled midranks (exact
    conditional model); ``mvn_sample`` draws from the approximating joint normal.
    """
    alt = normalize_alternative(alternative)
    methods = (method,) if isinstance(method, str) else tuple(method)
    if not methods or any(m not in METHODS for m in methods):
        raise ParameterError(f"method must be one of {METHODS}, got {method!r}")
    if nsim < 1:
        raise ParameterError("nsim must be >= 1")
    pm = pairwise_moment_matrix(samples.sizes, samples.tie_pattern)
    tau = pm.tau
    w = np.array(
        [
            mann_whitney_star(samples.group_midranks(a), samples.group_midranks(b))
            for a, b in pm.pairs
        ]
    )
    z = standardize(w, pm.mu, tau)
    kind = ALTERNATIVE_TABLE[alt][0]
    observed = float(reduce_statistic(kind, z[None, :])[0])
    warnings: list[str] = []
    if (tau == 0).any():
        warnings.append("fully tied data: statistics are degenerate at 0")

    p_values = {}
    for m in methods:
        if m == "monte_carlo":
            hits = int(simulated_tail_counts(samples, pm, kind, [observed], nsim, seed)[0])
        else:
            hits = _mvn_tail_counts(_mvn_root(pm), kind, observed, nsim, seed)
        p_values[m] = sampled_p_value(hits, nsim, seed, m, conservative)
    return PairwiseResult(
        labels=tuple(f"{a + 1}-{b + 1}" for a, b in pm.pairs),
        w_star=w,
        standardized=z,
        statistic=kind,
        statistic_value=observed,
        alternative=alt,
        p_values=p_values,
        warnings=tuple(warnings),
        moments=pm,
    )
