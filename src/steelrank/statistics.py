"""Mann-Whitney statistics of group pairs and their standardized extremes."""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ParameterError
from .moments import MomentSet
from .ranks import RankedSamples, rank_samples

# alternative -> (extreme statistic, tail side): the one place this mapping lives
ALTERNATIVE_TABLE = {
    "greater": ("s_max", "upper"),
    "less": ("s_min", "lower"),
    "two_sided": ("s_abs", "upper"),
}
ALTERNATIVES = tuple(ALTERNATIVE_TABLE)
_TAIL_SIDE = dict(ALTERNATIVE_TABLE.values())


def normalize_alternative(alternative: str) -> str:
    alt = str(alternative).replace("-", "_")
    if alt not in ALTERNATIVES:
        raise ParameterError(f"alternative must be one of {ALTERNATIVES}, got {alternative!r}")
    return alt


def reduce_statistic(kind: str, z: np.ndarray) -> np.ndarray:
    """Row-wise max (s_max), min (s_min) or absolute max (s_abs) of standardized values."""
    if kind == "s_max":
        return z.max(axis=1)
    if kind == "s_min":
        return z.min(axis=1)
    if kind == "s_abs":
        return np.abs(z).max(axis=1)
    raise ParameterError(f"unknown statistic {kind!r}")


def standardize(w: np.ndarray, mu: np.ndarray, tau: np.ndarray) -> np.ndarray:
    """(w - mu) / tau over the last axis; pairs with tau = 0 get standardized value 0."""
    z = np.zeros_like(w)
    ok = tau > 0
    z[..., ok] = (w[..., ok] - mu[ok]) / tau[ok]
    return z


def in_tail(kind: str, values, threshold):
    """Tail membership of statistic values, ties included: <= for s_min, >= otherwise."""
    if _TAIL_SIDE[kind] == "lower":
        return values <= threshold
    return values >= threshold


def sorted_tail_mass(
    kind: str, values: np.ndarray, cum: np.ndarray, thresholds: np.ndarray
) -> np.ndarray:
    """The weight in the tail at each threshold of statistic values sorted ascending,
    where cum[i] is the weight of the first i values: the sums of the weights that
    ``in_tail`` selects, found by one vectorized binary search, in cum's dtype."""
    if _TAIL_SIDE[kind] == "lower":
        return cum[np.searchsorted(values, thresholds, side="right")]
    return cum[-1] - cum[np.searchsorted(values, thresholds, side="left")]


@dataclass(frozen=True)
class Observation:
    """Observed Mann-Whitney values of a moment set's pairs, their standardizations,
    and the extreme statistic an alternative tests with its observed value.

    Pairs with zero null variance (fully tied data) get standardized value 0 and
    are listed in ``degenerate``.
    """

    w_star: np.ndarray
    standardized: np.ndarray
    statistic: str
    statistic_value: float
    degenerate: tuple[int, ...]


def mann_whitney_star(control: Sequence[float], treatment: Sequence[float]) -> float:
    """Count of (control, treatment) pairs with control < treatment, plus half the ties.

    A half-integer in [0, n0*ni]; adding the value with samples swapped gives n0*ni.
    It is read off the count table of the two samples, as ``observe`` reads it.
    """
    return float(_twice_w(rank_samples([control, treatment]).counts)[1, 0] / 2)


def rank_sums(w_star: Sequence[float], treatment_sizes: Sequence[int]) -> np.ndarray:
    """Within-pair rank-sum form of the statistics: W* + n_i*(n_i+1)/2."""
    w = np.asarray(w_star, dtype=float)
    n = np.asarray(treatment_sizes, dtype=float)
    if w.shape != n.shape:
        raise ParameterError("w_star and treatment_sizes must have matching lengths")
    return w + n * (n + 1) / 2


def _twice_w(t: np.ndarray) -> np.ndarray:
    """Twice the Mann-Whitney values from the count table t: entry [b, a] is the exact
    integer sum_j t_b[j] * (2 cum_a[j] - t_a[j]), with cum_a the running sum of t_a,
    as each value of b beats the values of a below it and ties those equal."""
    return t @ (2 * np.cumsum(t, axis=1) - t).T


def _pair_index(moments: MomentSet) -> tuple[np.ndarray, np.ndarray]:
    """The first and the second group of each pair, as two read-only index arrays."""
    a, b = np.array(moments.pairs, dtype=np.int64).reshape(-1, 2).T
    a.setflags(write=False)
    b.setflags(write=False)
    return a, b


def observe(samples: RankedSamples, moments: MomentSet, alternative: str) -> Observation:
    """Standardize the statistic of each of the moment set's pairs and reduce them to
    the alternative's extreme (max, min or abs-max).

    Twice the Mann-Whitney value of pair (a, b) is read off the count table.
    """
    statistic = ALTERNATIVE_TABLE[normalize_alternative(alternative)][0]
    moments.check_samples(samples)
    a, b = moments.derived(_pair_index)
    w = _twice_w(samples.counts)[b, a] / 2
    tau = moments.tau
    z = standardize(w, moments.mu, tau)
    return Observation(
        w_star=w,
        standardized=z,
        statistic=statistic,
        statistic_value=float(reduce_statistic(statistic, z[None, :])[0]),
        degenerate=tuple(int(i) for i in np.flatnonzero(tau == 0)),
    )
