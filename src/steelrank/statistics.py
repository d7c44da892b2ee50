"""Mann-Whitney statistics against a shared control and their standardized extremes."""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ParameterError
from .moments import MomentSet
from .ranks import RankedSamples, _as_scores

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


@dataclass(frozen=True)
class SteelObservation:
    """Observed Mann-Whitney values, their standardizations, and the three extremes.

    Treatments with zero null variance (fully tied data) get standardized value 0
    and are listed in ``degenerate``.
    """

    w_star: np.ndarray
    standardized: np.ndarray
    s_max: float
    s_min: float
    s_abs: float
    alternative: str
    degenerate: tuple[int, ...] = ()

    @property
    def statistic(self) -> str:
        return ALTERNATIVE_TABLE[self.alternative][0]

    @property
    def statistic_value(self) -> float:
        return getattr(self, self.statistic)


def mann_whitney_star(control: Sequence[float], treatment: Sequence[float]) -> float:
    """Count of (control, treatment) pairs with control < treatment, plus half the ties.

    A half-integer in [0, n0*ni]; adding the value with samples swapped gives n0*ni.
    """
    x = np.sort(_as_scores(control))
    y = _as_scores(treatment)
    lo = np.searchsorted(x, y, side="left")
    hi = np.searchsorted(x, y, side="right")
    return float(lo.sum() + 0.5 * (hi - lo).sum())


def rank_sums(w_star: Sequence[float], treatment_sizes: Sequence[int]) -> np.ndarray:
    """Within-pair rank-sum form of the statistics: W* + n_i*(n_i+1)/2."""
    w = np.asarray(w_star, dtype=float)
    n = np.asarray(treatment_sizes, dtype=float)
    if w.shape != n.shape:
        raise ParameterError("w_star and treatment_sizes must have matching lengths")
    return w + n * (n + 1) / 2


def steel_statistics(
    samples: RankedSamples, moments: MomentSet, alternative: str = "two_sided"
) -> SteelObservation:
    """Standardize each treatment-vs-control statistic and take max/min/abs-max."""
    alt = normalize_alternative(alternative)
    if moments.sizes != samples.sizes:
        raise ParameterError("moments were computed for different group sizes")
    control = samples.group_midranks(0)
    w = np.array(
        [mann_whitney_star(control, samples.group_midranks(i)) for i in range(1, samples.n_groups)]
    )
    tau = moments.tau
    degenerate = tuple(int(i) for i in np.flatnonzero(tau == 0))
    z = standardize(w, moments.mu, tau)
    return SteelObservation(
        w_star=w,
        standardized=z,
        s_max=float(z.max()),
        s_min=float(z.min()),
        s_abs=float(np.abs(z).max()),
        alternative=alt,
        degenerate=degenerate,
    )
