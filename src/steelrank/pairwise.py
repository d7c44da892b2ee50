"""All-pairs tails from the approximating joint normal: seeded sampling of the
standardized pair statistics under their null covariance.

The covariance has one factor per group: with the scales (s, r) of the set's design
(``MomentSet.scales``), W_ab covaries as n_a n_b sqrt(s) (xi_b / sqrt(n_b) - xi_a /
sqrt(n_a)) + sqrt(D_ab) eps_ab, with independent standard normals xi_g per group and
eps_ab per pair and D_ab = n_a n_b r >= 0: Hoeffding's linear projection and its
degenerate remainder (0 on two-valued tied data; for control pairs, the one-factor
split of ``pair_moments``).  A replicate is K + P normals (K groups, P pairs) drawn on
``randomization.sample_chunks``, in slices sized by the 2 (K + P) + 3 P floats its
tally holds; the pair values are their elementwise products and sums, which depend
neither on the BLAS kernel or threads nor on the slicing.
"""
from __future__ import annotations

from typing import Sequence

import numpy as np

from .moments import MomentSet
from .randomization import check_tail_request, sample_chunks
from .statistics import in_tail, reduce_statistic


def _group_factors(ms: MomentSet) -> tuple[np.ndarray, np.ndarray]:
    """(rows, coef): the rows of each pair's group-a factor, group-b factor and remainder
    among a replicate's K + P normals, (3, P), and its standardized value's coefficients
    on them, (3, P, 1), 0 where tau = 0."""
    s, r = ms.scales()
    n = np.array(ms.sizes, dtype=float)
    a, b = np.array(ms.pairs, dtype=np.intp).T
    tau = ms.tau
    if len(a) == 1:  # a lone pair covaries with no other: its own normal carries all of it
        coef = np.stack((np.zeros(1), np.zeros(1), tau))
    else:
        coef = np.stack((-n[b] * np.sqrt(n[a] * s), n[a] * np.sqrt(n[b] * s),
                         np.sqrt(n[a] * n[b] * r)))
    rows = np.stack((a, b, len(n) + np.arange(len(a))))
    return rows, (coef / np.where(tau > 0, tau, np.inf))[..., None]


def _mvn_tail_counts(
    factors: tuple[np.ndarray, np.ndarray], kind: str, thresholds: np.ndarray, nsim: int, seed: int
) -> np.ndarray:
    """Tail counts per threshold (int64) from sampling the standardized joint
    normal in its group-factor form, chunked like the Monte Carlo engine."""
    rows, coef = factors
    cells = int(rows[2, -1]) + 1  # K group factors, then one remainder per pair
    # a replicate's tally holds its draw, the draw's transposed copy and three
    # gathered blocks of one row per pair at once
    held = 2 * cells + 3 * rows.shape[1]

    def draw(rng: np.random.Generator, replicates: int) -> np.ndarray:
        return rng.standard_normal((replicates, cells))

    def tally(normal: np.ndarray) -> np.ndarray:
        terms = np.ascontiguousarray(normal.T)[rows]  # (3, P, replicates)
        terms *= coef
        z = terms[0]
        z += terms[1]
        z += terms[2]
        stats = reduce_statistic(kind, z.T)
        return in_tail(kind, stats[:, None], thresholds[None, :]).sum(axis=0)

    return sample_chunks(nsim, seed, draw, tally, held)


def mvn_tail_counts(
    moments: MomentSet,
    statistic: str,
    thresholds: Sequence[float],
    nsim: int,
    seed: int,
) -> np.ndarray:
    """Tail counts of a tail request without samples (``check_tail_request``) out of
    nsim draws of the joint normal with the pair covariance of ``moments``, int64,
    from one shared run."""
    thr = check_tail_request(statistic, thresholds)
    return _mvn_tail_counts(moments.derived(_group_factors), statistic, thr, nsim, seed)
