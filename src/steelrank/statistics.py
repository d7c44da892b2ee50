"""Mann-Whitney statistics of group pairs and their standardized extremes."""
from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ParameterError
from .moments import MomentSet
from .ranks import RankedSamples, rank_samples, whole

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
    """Row-wise max (s_max), min (s_min) or absolute max (s_abs) of standardized values,
    folded pair by pair: one elementwise ufunc per column, where a reduction over each
    short row would pay numpy's per-row overhead."""
    if kind not in _TAIL_SIDE:
        raise ParameterError(f"unknown statistic {kind!r}")
    columns = (np.abs(z) if kind == "s_abs" else z).T
    return functools.reduce(np.minimum if kind == "s_min" else np.maximum, columns)


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


def tail_counts(kind: str, z: np.ndarray, thresholds: np.ndarray, weights=None) -> np.ndarray:
    """At each threshold, the rows of standardized values z whose extreme statistic is
    in the tail (``in_tail``): their number as int64, or the sum of their exact
    integer ``weights``, in the weights' dtype (Python ints for an object array)."""
    hits = in_tail(kind, reduce_statistic(kind, z)[:, None], np.asarray(thresholds)[None, :])
    if weights is None:
        return hits.sum(axis=0, dtype=np.int64)
    return np.array([weights[hit].sum() for hit in hits.T], dtype=weights.dtype)


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
    return float(twice_w(rank_samples([control, treatment]).counts[None], [0])[0, 0] / 2)


def rank_sums(w_star: Sequence[float], treatment_sizes: Sequence[int]) -> np.ndarray:
    """Within-pair rank-sum form of the statistics: W* + n_i*(n_i+1)/2.  A treatment
    size that is not an integer >= 1 is a ParameterError."""
    w = np.asarray(w_star, dtype=float)
    sizes = np.asarray(treatment_sizes)
    if w.shape != sizes.shape:
        raise ParameterError("w_star and treatment_sizes must have matching lengths")
    if not all((v := whole(x)) is not None and v >= 1 for x in sizes.ravel().tolist()):
        raise ParameterError(f"treatment sizes must be integers >= 1, got {treatment_sizes!r}")
    n = sizes.astype(float)
    return w + n * (n + 1) / 2


def twice_w(counts: np.ndarray, firsts) -> np.ndarray:
    """Twice the Mann-Whitney value of each pair (a, b), a in ``firsts`` and b > a in
    order, over a stack of count tables (tables, groups, values): the exact integer
    sum_j counts_b[j] * (2 cum_a[j] - counts_a[j]), with cum_a the running sum of
    counts_a, as each value of b beats the values of a below it and ties those equal."""
    w2 = []
    for a in firsts:
        c2 = np.cumsum(counts[:, a, :], axis=1)
        c2 *= 2
        c2 -= counts[:, a, :]
        w2.append(np.einsum("ikj,ij->ik", counts[:, a + 1 :, :], c2))
    return np.concatenate(w2, axis=1)


def observe(samples: RankedSamples, moments: MomentSet, alternative: str) -> Observation:
    """Standardize the statistic of each of the moment set's pairs and reduce them to
    the alternative's extreme (max, min or abs-max).

    Twice the Mann-Whitney value of each pair is read off the count table (``twice_w``).
    """
    statistic = ALTERNATIVE_TABLE[normalize_alternative(alternative)][0]
    moments.check_samples(samples)
    firsts = sorted({a for a, _ in moments.pairs})
    w = twice_w(samples.counts[None], firsts)[0] / 2
    tau = moments.tau
    z = standardize(w, moments.mu, tau)
    return Observation(
        w_star=w,
        standardized=z,
        statistic=statistic,
        statistic_value=float(reduce_statistic(statistic, z[None, :])[0]),
        degenerate=tuple(int(i) for i in np.flatnonzero(tau == 0)),
    )
