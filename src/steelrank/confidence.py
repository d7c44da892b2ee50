"""Simultaneous shift-parameter bounds by inverting the joint rank-test null distribution.

The shift model takes continuous distributions; the selection therefore always uses
the no-ties moment formulas.  Tied (rounded) data should widen the result through
``rounding_eps``, which only ever enlarges the confidence set.  The groups, control
first, are checked once: by ``rank_samples``, or already in a ``RankedSamples``.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from ._cache import DESIGNS
from .errors import NumericError, ParameterError
from .gauss import DEFAULT_NODES, joint_lower_box_prob, solve_common_threshold
from .moments import MomentSet, control_pairs, pair_moments
from .ranks import RankedSamples, TiePattern, rank_samples, whole

DIRECTIONS = ("upper", "lower")
# kth_difference: a table of at most _SORT_CELLS differences is partitioned whole;
# a larger one is narrowed until at most _CANDIDATE_CELLS distinct cells are left
_SORT_CELLS = 1 << 18
_CANDIDATE_CELLS = 1 << 16


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


def _count_below(ys, xs, lo, hi, pivot, strict: bool) -> np.ndarray:
    """Per row i, the number of columns whose fl(ys[i] - xs[j]) is below pivot
    (< if strict, else <=), by bisection inside [lo[i], hi[i]].

    Every row must be non-decreasing in j and the count must lie in its window."""
    lo, hi = lo.copy(), hi.copy()
    while (act := np.flatnonzero(lo < hi)).size:
        a, b = lo[act], hi[act]
        mid = (a + b) // 2
        d = ys[act] - xs[mid]
        go = d < pivot if strict else d <= pivot
        lo[act] = np.where(go, mid + 1, a)
        hi[act] = np.where(go, b, mid)
    return lo


def kth_difference(control: Sequence[float], treatment: Sequence[float], k: int) -> float:
    """The k-th smallest (1-based) of the n0*ni differences y - x, without sorting them all.

    Equal to ``np.sort(np.subtract.outer(y, x).ravel())[k - 1]``: each difference
    is the float64 ``fl(y - x)`` that ``np.subtract.outer`` forms.  A table of at
    most ``_SORT_CELLS`` differences is partitioned whole.  A larger one is
    searched over the distinct values (Johnson & Mizoguchi, 1978): with rows the
    distinct treatment values ascending and columns the distinct control values
    descending, fl(y - x) is non-decreasing along both, because rounding is
    monotone.  Each row keeps a window of columns that may still hold the answer.
    The pivot is a weighted median of the windows' middle cells; bisection counts
    each row's cells below and at it, and every step drops at least a quarter of
    the window cells.  Once at most ``_CANDIDATE_CELLS`` cells are left they are
    sorted and the answer read off their cumulative multiplicities.  Beyond the
    small-table case memory is O(n0 + ni + _CANDIDATE_CELLS).

    The result is an order statistic, so only the sign of a zero can depend on
    the path: inputs holding -0.0 can give -0.0.  ``simultaneous_bounds`` adds
    0.0 to its inputs, so no difference it selects is -0.0.
    """
    x, y = rank_samples([control, treatment]).scores
    if (whole_k := whole(k)) is None or not 1 <= whole_k <= x.size * y.size:
        raise ParameterError(f"k must be an integer in [1, {x.size * y.size}], got {k!r}")
    return _kth_differences(x, y, (whole_k,))[0]


def _kth_differences(x: np.ndarray, y: np.ndarray, ks: tuple[int, ...]) -> list[float]:
    """``kth_difference`` of checked float arrays at each index of ``ks``, all in
    range.  A small table is formed once and partitioned in place at its indices
    in ascending order, each partition over the cells above the previous index.
    (One np.partition over several indices was twice as slow at 100 x 100.)"""
    if x.size * y.size > _SORT_CELLS:
        return [_narrowed_kth_difference(x, y, k) for k in ks]
    table = np.subtract.outer(y, x).ravel()
    found, done = {}, 0  # table[:done] holds the done smallest cells
    for k in sorted(set(ks)):
        table[done:].partition(k - 1 - done)
        found[k], done = float(table[k - 1]), k
    return [found[k] for k in ks]


def _narrowed_kth_difference(x: np.ndarray, y: np.ndarray, k: int) -> float:
    """``kth_difference`` of a table too large to partition whole."""
    ys, cy = np.unique(y, return_counts=True)
    xs, cx = np.unique(x, return_counts=True)
    xs, cx = xs[::-1], cx[::-1]
    cum = np.concatenate(([0], np.cumsum(cx)))  # multiplicity of columns [0, j), per unit of cy
    lo = np.zeros(ys.size, dtype=np.int64)
    hi = np.full(ys.size, xs.size, dtype=np.int64)
    # invariant: cells left of lo are below the answer, cells from hi on are above it
    while (width := hi - lo).sum() > _CANDIDATE_CELLS:
        rows = np.flatnonzero(width)
        mids = ys[rows] - xs[(lo[rows] + hi[rows]) // 2]
        order = np.argsort(mids)
        acc = np.cumsum(width[rows][order])
        pivot = mids[order[np.searchsorted(acc, (acc[-1] + 1) // 2)]]
        n_lt = _count_below(ys, xs, lo, hi, pivot, strict=True)
        if k <= cy @ cum[n_lt]:
            hi = n_lt
            continue
        n_le = _count_below(ys, xs, n_lt, hi, pivot, strict=False)
        if k <= cy @ cum[n_le]:
            return float(pivot)
        lo = n_le
    starts = np.cumsum(width) - width
    rows = np.repeat(np.arange(ys.size), width)
    cols = np.arange(width.sum()) - np.repeat(starts - lo, width)
    d = ys[rows] - xs[cols]
    order = np.argsort(d)
    seen = np.cumsum((cy[rows] * cx[cols])[order])
    return float(d[order[np.searchsorted(seen, k - cy @ cum[lo])]])


def select_indices(
    ms: MomentSet, gamma: float, direction: str, nodes: int = DEFAULT_NODES
) -> IndexSelection:
    """Pick difference indices whose joint coverage approximates gamma.

    The common standardized threshold solving the box probability at gamma is
    rounded three ways (up, down, nearest) into candidate index vectors; each
    candidate's coverage comes from the joint box probability at c = j - 1.
    ``ms`` is a control-pair moment set of no-ties variances (continuous shift model).

    For ``direction="lower"`` the indices are reflected (j -> n0*n_i + 1 - j);
    the reported coverages are unchanged because the lower-bound coverage
    evaluates the box at exactly the same point.
    """
    if not 0 < gamma < 1:
        raise ParameterError(f"gamma must be in (0, 1), got {gamma}")
    if direction not in DIRECTIONS:
        raise ParameterError(f"direction must be one of {DIRECTIONS}, got {direction!r}")
    limits = np.rint(2 * ms.mu).astype(np.int64)  # n0 * n_i
    u = solve_common_threshold(ms, gamma, nodes=nodes)
    x = ms.mu + u * ms.tau + 1
    candidates = {
        tuple(np.clip(r(x).astype(np.int64), 1, limits))
        for r in (np.ceil, np.floor, lambda v: np.floor(v + 0.5))
    }

    def coverage(j: tuple[int, ...]) -> float:
        return joint_lower_box_prob(ms, np.asarray(j, dtype=float) - 1.0, nodes)

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
    sel = IndexSelection(
        j=tuple(int(v) for v in cons_j),
        j_closest=tuple(int(v) for v in closest_j),
        achieved_conservative=cons_cov,
        achieved_closest=closest_cov,
        unreachable=unreachable,
    )
    return _reflected(ms, sel) if direction == "lower" else sel


def _reflected(ms: MomentSet, sel: IndexSelection) -> IndexSelection:
    """An upper-bound selection as the matching lower-bound one."""
    return replace(sel, j=_reflect(ms, sel.j), j_closest=_reflect(ms, sel.j_closest))


def _selection(
    sizes: tuple[int, ...], gamma: float, nodes: int
) -> tuple[MomentSet, IndexSelection]:
    """The no-ties control-pair moments of a design and its upper selection at
    one-sided level gamma.

    Neither depends on the data, so both are kept per process in ``_cache.DESIGNS``.
    """

    def solve() -> tuple[MomentSet, IndexSelection]:
        ms = pair_moments(sizes, TiePattern.no_ties(sum(sizes)), control_pairs(len(sizes)))
        return ms, select_indices(ms, gamma, "upper", nodes)

    return DESIGNS.get(("selection", sizes, gamma, nodes), solve)


def _prepare(groups: Sequence[Sequence[float]] | RankedSamples, rounding_eps: float):
    if not 0 <= rounding_eps < math.inf:  # NaN fails both comparisons
        raise ParameterError(f"rounding_eps must be finite and >= 0, got {rounding_eps}")
    samples = groups if isinstance(groups, RankedSamples) else rank_samples(groups)
    # + 0.0 turns -0.0 into 0.0, so no selected difference is -0.0 (np.sort orders
    # the two zeros arbitrarily, and rounded data such as round(-0.04, 1) holds -0.0);
    # the pool is checked and shifted once, then split back into its groups
    pool = np.concatenate(samples.scores, dtype=float)
    pool += 0.0
    starts = np.cumsum((0,) + samples.sizes[:-1])
    if not np.isfinite(pool).all():  # shifts of infinite values are undefined (inf - inf)
        i = np.flatnonzero(~np.isfinite(pool))[0]
        g = int(np.searchsorted(starts, i, side="right")) - 1
        raise ParameterError(
            f"shift bounds need finite data: group {g} index {i - starts[g]} is {pool[i]}"
        )
    lows = np.minimum.reduceat(pool, starts).tolist()
    highs = np.maximum.reduceat(pool, starts).tolist()
    for g in range(1, len(starts)):
        # every difference lies between these two; Python floats overflow without a warning
        if not math.isfinite(highs[g] - lows[0]) or not math.isfinite(lows[g] - highs[0]):
            raise ParameterError(
                f"shift bounds need differences within the float64 range: "
                f"group {g} minus group 0 overflows"
            )
    arrays = np.split(pool, starts[1:])
    warnings = []
    if rounding_eps == 0 and samples.tie_pattern.e < samples.N:
        warnings.append(
            "ties present in the data; the shift model assumes continuity - "
            "consider a rounding_eps matching the recording grid"
        )
    return arrays, warnings


def _reflect(ms: MomentSet, j) -> tuple[int, ...]:
    """Upper-bound indices as the matching lower-bound ones: j -> n0*n_i + 1 - j."""
    return tuple(int(m) + 1 - int(v) for m, v in zip(np.rint(2 * ms.mu), j))


def _shift_bounds(
    groups: Sequence[Sequence[float]] | RankedSamples,
    nominal: float,
    level: float,
    sides: tuple[str, ...],
    rounding_eps: float,
    nodes: int,
) -> ConfidenceResult:
    """Bounds on ``sides`` ("upper", "lower" or both, an interval) at one-sided
    level ``level``: the selected ordered differences, widened by rounding_eps.

    Both sides share one upper selection; the lower side takes its reflected
    indices, which is what ``select_indices(..., "lower")`` returns, with the
    same coverages.
    """
    arrays, warnings = _prepare(groups, rounding_eps)
    ms, sel = _selection(tuple(a.size for a in arrays), level, nodes)
    js = {"upper": sel.j, "lower": _reflect(ms, sel.j)}
    none = (None,) * (len(arrays) - 1)
    values = {"upper": none, "lower": none}
    # per treatment, the selected differences of every side, from one table
    diffs = [
        _kth_differences(arrays[0], t, tuple(js[side][i] for side in sides))
        for i, t in enumerate(arrays[1:])
    ]
    for s, side in enumerate(sides):
        offset = rounding_eps if side == "upper" else -rounding_eps
        values[side] = tuple(d[s] + offset for d in diffs)
    if len(sides) == 2 and any(lo > up for lo, up in zip(values["lower"], values["upper"])):
        raise NumericError("interval construction produced lower > upper")
    if sel.unreachable:
        warnings.append(
            f"conservative target unreachable: best joint coverage "
            f"{sel.achieved_conservative:.6g} < {level:.6g}"
        )
    return ConfidenceResult(
        direction=sides[0] if len(sides) == 1 else "interval",
        nominal_gamma=nominal,
        one_sided_gamma=level,
        lower=values["lower"],
        upper=values["upper"],
        j_lower=js["lower"] if "lower" in sides else None,
        j_upper=js["upper"] if "upper" in sides else None,
        achieved_conservative=sel.achieved_conservative,
        achieved_closest=sel.achieved_closest,
        unreachable=sel.unreachable,
        widened_by=rounding_eps,
        warnings=tuple(warnings),
    )


def simultaneous_bounds(
    groups: Sequence[Sequence[float]] | RankedSamples,
    gamma: float,
    direction: str,
    rounding_eps: float = 0.0,
    nodes: int = DEFAULT_NODES,
) -> ConfidenceResult:
    """One-sided simultaneous bounds for the shifts of every treatment vs control.

    Upper bounds are the selected ordered differences plus rounding_eps; lower
    bounds use the reflected indices minus rounding_eps.
    """
    if direction not in DIRECTIONS:
        raise ParameterError(f"direction must be one of {DIRECTIONS}, got {direction!r}")
    return _shift_bounds(groups, gamma, gamma, (direction,), rounding_eps, nodes)


def simultaneous_intervals(
    groups: Sequence[Sequence[float]] | RankedSamples,
    gamma: float,
    rounding_eps: float = 0.0,
    nodes: int = DEFAULT_NODES,
) -> ConfidenceResult:
    """Two-sided simultaneous intervals: one-sided bounds at level (1+gamma)/2 each."""
    if not 0 < gamma < 1:
        raise ParameterError(f"gamma must be in (0, 1), got {gamma}")
    return _shift_bounds(groups, gamma, (1 + gamma) / 2, DIRECTIONS, rounding_eps, nodes)
