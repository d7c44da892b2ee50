"""Simultaneous shift-parameter bounds by inverting the joint rank-test null distribution.

The shift model takes continuous distributions; the selection therefore always uses
the no-ties moment formulas.  Tied (rounded) data should widen the result through
``rounding_eps``, which only ever enlarges the confidence set.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import NumericError, ParameterError
from .gauss import DEFAULT_NODES, FactorModel, joint_lower_box_prob, solve_common_threshold
from .moments import factor_decomposition
from .ranks import TiePattern, _as_scores, extract_tie_pattern

DIRECTIONS = ("upper", "lower")


@dataclass(frozen=True)
class IndexSelection:
    """Ordered-difference indices chosen for a joint confidence level.

    ``j`` is the usable (conservative) choice; ``j_closest`` drops the >= gamma
    restriction.  Coverages are the joint box evaluations of the candidates.
    """

    j: tuple[int, ...]
    j_closest: tuple[int, ...]
    achieved_conservative: float
    achieved_closest: float
    unreachable: bool


@dataclass(frozen=True)
class ConfidenceResult:
    """Simultaneous bounds or intervals for the treatment shift parameters.

    For intervals the two sides are built at level (1+gamma)/2 each, and the
    achieved values refer to that one-sided level.  ``None`` marks an unbounded
    side.  ``widened_by`` is the rounding allowance already applied to the values.
    """

    direction: str  # upper | lower | interval
    nominal_gamma: float
    one_sided_gamma: float
    lower: tuple[float | None, ...]
    upper: tuple[float | None, ...]
    j_lower: tuple[int, ...] | None
    j_upper: tuple[int, ...] | None
    achieved_conservative: float
    achieved_closest: float
    unreachable: bool
    widened_by: float
    warnings: tuple[str, ...] = ()


def pairwise_differences(control: Sequence[float], treatment: Sequence[float]) -> np.ndarray:
    """All treatment-minus-control differences, ascending."""
    x = _as_scores(control)
    y = _as_scores(treatment)
    return np.sort(np.subtract.outer(y, x).ravel())


def select_indices(
    model: FactorModel, gamma: float, direction: str, nodes: int = DEFAULT_NODES
) -> IndexSelection:
    """Pick difference indices whose joint coverage approximates gamma.

    The common standardized threshold solving the box probability at gamma is
    rounded three ways (up, down, nearest) into candidate index vectors; each
    candidate's coverage comes from the joint box probability at c = j - 1.
    The model must use no-ties variances (continuous shift model).

    For ``direction="lower"`` the indices are reflected (j -> n0*n_i + 1 - j);
    the reported coverages are unchanged because the lower-bound coverage
    evaluates the box at exactly the same point.
    """
    if not 0 < gamma < 1:
        raise ParameterError(f"gamma must be in (0, 1), got {gamma}")
    if direction not in DIRECTIONS:
        raise ParameterError(f"direction must be one of {DIRECTIONS}, got {direction!r}")
    limits = np.rint(2 * model.mu).astype(np.int64)  # n0 * n_i
    u = solve_common_threshold(model, gamma, nodes=nodes)
    x = model.mu + u * model.tau + 1
    candidates = {
        tuple(np.clip(r(x).astype(np.int64), 1, limits))
        for r in (np.ceil, np.floor, lambda v: np.floor(v + 0.5))
    }

    def coverage(j: tuple[int, ...]) -> float:
        return joint_lower_box_prob(model, np.asarray(j, dtype=float) - 1.0, nodes)

    scored = sorted((coverage(j), j) for j in candidates)
    conservative = [(c, j) for c, j in scored if c >= gamma]
    closest_cov, closest_j = min(scored, key=lambda cj: abs(cj[0] - gamma))
    if conservative:
        cons_cov, cons_j = conservative[0]
        unreachable = False
    else:
        cons_j = tuple(int(v) for v in limits)
        cons_cov = coverage(cons_j)
        unreachable = cons_cov < gamma
    if direction == "lower":
        cons_j = tuple(int(m) + 1 - j for m, j in zip(limits, cons_j))
        closest_j = tuple(int(m) + 1 - j for m, j in zip(limits, closest_j))
    return IndexSelection(
        j=tuple(int(v) for v in cons_j),
        j_closest=tuple(int(v) for v in closest_j),
        achieved_conservative=cons_cov,
        achieved_closest=closest_cov,
        unreachable=unreachable,
    )


def _prepare(groups: Sequence[Sequence[float]], rounding_eps: float):
    if not 0 <= rounding_eps < math.inf:  # NaN fails both comparisons
        raise ParameterError(f"rounding_eps must be finite and >= 0, got {rounding_eps}")
    if len(groups) < 2:
        raise ParameterError("need a control group and at least one treatment group")
    arrays = [_as_scores(g) for g in groups]
    for g, a in enumerate(arrays):
        bad = np.flatnonzero(~np.isfinite(a))
        if bad.size:  # shifts of infinite values are undefined (inf - inf)
            raise ParameterError(
                f"shift bounds need finite data: group {g} index {bad[0]} is {a[bad[0]]}"
            )
    sizes = tuple(a.size for a in arrays)
    pooled = np.concatenate(arrays)
    warnings = []
    if extract_tie_pattern(pooled).e < pooled.size and rounding_eps == 0:
        warnings.append(
            "ties present in the data; the shift model assumes continuity - "
            "consider a rounding_eps matching the recording grid"
        )
    ms = factor_decomposition(sizes, TiePattern.no_ties(int(pooled.size)))
    return arrays, FactorModel.from_moments(ms), warnings


def simultaneous_bounds(
    groups: Sequence[Sequence[float]],
    gamma: float,
    direction: str,
    rounding_eps: float = 0.0,
    nodes: int = DEFAULT_NODES,
) -> ConfidenceResult:
    """One-sided simultaneous bounds for the shifts of every treatment vs control.

    Upper bounds are the selected ordered differences plus rounding_eps; lower
    bounds use the reflected indices minus rounding_eps.
    """
    arrays, model, warnings = _prepare(groups, rounding_eps)
    sel = select_indices(model, gamma, direction, nodes)
    values = []
    for i, treatment in enumerate(arrays[1:]):
        diffs = pairwise_differences(arrays[0], treatment)
        v = float(diffs[sel.j[i] - 1])
        values.append(v + rounding_eps if direction == "upper" else v - rounding_eps)
    if sel.unreachable:
        warnings = warnings + [
            f"conservative target unreachable: best joint coverage "
            f"{sel.achieved_conservative:.6g} < {gamma:.6g}"
        ]
    none = (None,) * (len(arrays) - 1)
    return ConfidenceResult(
        direction=direction,
        nominal_gamma=gamma,
        one_sided_gamma=gamma,
        lower=tuple(values) if direction == "lower" else none,
        upper=tuple(values) if direction == "upper" else none,
        j_lower=sel.j if direction == "lower" else None,
        j_upper=sel.j if direction == "upper" else None,
        achieved_conservative=sel.achieved_conservative,
        achieved_closest=sel.achieved_closest,
        unreachable=sel.unreachable,
        widened_by=rounding_eps,
        warnings=tuple(warnings),
    )


def simultaneous_intervals(
    groups: Sequence[Sequence[float]],
    gamma: float,
    rounding_eps: float = 0.0,
    nodes: int = DEFAULT_NODES,
) -> ConfidenceResult:
    """Two-sided simultaneous intervals: one-sided bounds at level (1+gamma)/2 each."""
    if not 0 < gamma < 1:
        raise ParameterError(f"gamma must be in (0, 1), got {gamma}")
    side = (1 + gamma) / 2
    up = simultaneous_bounds(groups, side, "upper", rounding_eps, nodes)
    lo = simultaneous_bounds(groups, side, "lower", rounding_eps, nodes)
    for lo_v, up_v in zip(lo.lower, up.upper):
        if lo_v > up_v:
            raise NumericError("interval construction produced lower > upper")
    return ConfidenceResult(
        direction="interval",
        nominal_gamma=gamma,
        one_sided_gamma=side,
        lower=lo.lower,
        upper=up.upper,
        j_lower=lo.j_lower,
        j_upper=up.j_upper,
        achieved_conservative=up.achieved_conservative,
        achieved_closest=up.achieved_closest,
        unreachable=up.unreachable or lo.unreachable,
        widened_by=rounding_eps,
        warnings=tuple(dict.fromkeys(lo.warnings + up.warnings)),
    )
