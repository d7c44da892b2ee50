"""Midranks, tie patterns, and asymptotic-validity diagnostics for pooled samples."""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Sequence

import numpy as np

from .errors import ParameterError


def _as_scores(values) -> np.ndarray:
    """Coerce a sample to a 1-D float array, rejecting empty or non-orderable input."""
    try:
        arr = np.asarray(values, dtype=float)
    except (TypeError, ValueError):
        for i, v in enumerate(values):
            try:
                float(v)
            except (TypeError, ValueError):
                raise ParameterError(f"non-orderable value at index {i}") from None
        raise ParameterError("sample is not a flat sequence of scores") from None
    if arr.ndim != 1:
        raise ParameterError("expected a one-dimensional sample")
    if arr.size == 0:
        raise ParameterError("empty sample")
    if np.isnan(arr).any():
        i = int(np.flatnonzero(np.isnan(arr))[0])
        raise ParameterError(f"non-orderable value at index {i}")
    return arr


@dataclass(frozen=True)
class TiePattern:
    """Multiplicities of the distinct pooled values, in ascending value order.

    All conditional moments depend on the pooled data only through this object.
    Its tie sums are computed once per pattern, on first use.
    """

    d: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.d) == 0:
            raise ParameterError("empty sample")
        if type(self.d) is tuple and set(map(type, self.d)) == {int} and min(self.d) >= 1:
            return  # already clean, as rank_samples builds it
        clean = []
        for m in self.d:
            if int(m) != m or m < 1:
                raise ParameterError(f"multiplicities must be integers >= 1, got {m!r}")
            clean.append(int(m))
        object.__setattr__(self, "d", tuple(clean))

    @property
    def e(self) -> int:
        """Number of distinct pooled values."""
        return len(self.d)

    @cached_property
    def N(self) -> int:
        return sum(self.d)

    @cached_property
    def s2(self) -> int:
        """Sum of d*(d-1) over the multiplicities."""
        return sum(m * (m - 1) for m in self.d)

    @cached_property
    def s3(self) -> int:
        """Sum of d*(d-1)*(d-2)."""
        return sum(m * (m - 1) * (m - 2) for m in self.d)

    @cached_property
    def s3_plus(self) -> int:
        """Sum of d*(d-1)*(d+1), the classical d^3 - d tie sum."""
        return sum(m * (m - 1) * (m + 1) for m in self.d)

    @property
    def max_fraction(self) -> float:
        return max(self.d) / self.N

    @classmethod
    def no_ties(cls, n: int) -> "TiePattern":
        if n < 1:
            raise ParameterError("empty sample")
        return cls((1,) * n)


@dataclass(frozen=True)
class RankedSamples:
    """Pooled midranks with group assignment, and the (group, distinct value) count
    table: ``counts[g, j]`` is how many values of group g equal the j-th smallest
    distinct pooled value.  Rows sum to ``sizes`` and columns to the tie pattern.

    Group 0 plays the control role in many-to-one comparisons; for all-pairs
    comparisons every group is a treatment.  Without ``counts`` the table is
    derived from the midranks, whose distinct values mark the distinct scores.
    ``scores`` holds each group's checked float scores, as ``rank_samples`` keeps
    them, so that no later step converts or checks the groups again.
    """

    midranks: np.ndarray
    groups: np.ndarray
    sizes: tuple[int, ...]
    tie_pattern: TiePattern
    counts: np.ndarray | None = field(default=None, repr=False, compare=False)
    scores: tuple[np.ndarray, ...] | None = field(default=None, repr=False, compare=False)

    def __post_init__(self) -> None:
        mid = np.asarray(self.midranks, dtype=float)
        grp = np.asarray(self.groups, dtype=np.int64)
        sizes = tuple(int(n) for n in self.sizes)
        if any(n < 1 for n in sizes):
            raise ParameterError("every group needs at least one observation")
        n_total = mid.size
        if grp.size != n_total or sum(sizes) != n_total or n_total != self.tie_pattern.N:
            raise ParameterError("sizes, groups and midranks are inconsistent")
        counts = np.bincount(grp, minlength=len(sizes))
        if counts.size != len(sizes) or not np.array_equal(counts, np.asarray(sizes)):
            raise ParameterError("group label counts do not match sizes")
        if abs(mid.sum() - n_total * (n_total + 1) / 2) > 1e-9:
            raise ParameterError("midranks do not sum to N(N+1)/2")
        table = self.counts
        if table is None:
            _, value_class = np.unique(mid, return_inverse=True)
            table = _count_table(grp, value_class, len(sizes), int(value_class.max()) + 1)
        table = np.asarray(table, dtype=np.int64)
        d = self.tie_pattern.d
        if (
            table.shape != (len(sizes), len(d))
            or table.sum(axis=1).tolist() != list(sizes)
            or table.sum(axis=0).tolist() != list(d)
        ):
            raise ParameterError("count table does not match sizes and tie pattern")
        if self.scores is not None and tuple(map(np.size, self.scores)) != sizes:
            raise ParameterError("scores do not match sizes")
        for arr in (mid, grp, table):
            arr.setflags(write=False)
        object.__setattr__(self, "midranks", mid)
        object.__setattr__(self, "groups", grp)
        object.__setattr__(self, "sizes", sizes)
        object.__setattr__(self, "counts", table)

    @property
    def N(self) -> int:
        return self.midranks.size

    @property
    def n_groups(self) -> int:
        return len(self.sizes)

    def group_midranks(self, g: int) -> np.ndarray:
        return self.midranks[self.groups == g]


@dataclass(frozen=True)
class Diagnostics:
    """Finite-sample readout of the asymptotic-normality conditions."""

    max_tie_fraction: float
    min_group_fraction: float
    epsilon: float
    small_sample_floor: int
    warnings: tuple[str, ...]


def _count_table(
    labels: np.ndarray, value_class: np.ndarray, n_groups: int, n_values: int
) -> np.ndarray:
    """(group, distinct value) counts of values labelled by group and value class."""
    key = labels * n_values + value_class
    return np.bincount(key, minlength=n_groups * n_values).reshape(n_groups, n_values)


def _value_blocks(arr: np.ndarray):
    """One sort of a score array.  Returns the sort order, the midrank of each value
    in input order, the multiplicities of the distinct values in ascending order
    (the tie pattern) and the class of each sorted value (the index of its distinct
    value).  Ties are ``==``: -0.0 ties 0.0, and each infinity ties itself.  The
    midranks, the tie pattern and the classes do not depend on the order within
    ties, so the sort need not be stable."""
    n = arr.size
    order = np.argsort(arr)
    s = arr[order]
    new_block = np.empty(n, dtype=bool)
    new_block[0] = True
    new_block[1:] = s[1:] != s[:-1]
    value_class = np.cumsum(new_block) - 1
    starts = np.flatnonzero(new_block)
    d = np.diff(np.append(starts, n))
    # block occupying ranks start+1 .. start+count averages to start + (count+1)/2
    block_mid = starts + (d + 1) / 2
    midranks = np.empty(n, dtype=float)
    midranks[order] = block_mid[value_class]
    return order, midranks, d, value_class


def compute_midranks(values: Sequence[float]) -> np.ndarray:
    """Midranks of the input: tied values share the average of the ranks they occupy.

    Output order matches input order.  Every midrank is an exact half-integer.
    """
    return _value_blocks(_as_scores(values))[1]


def extract_tie_pattern(values: Sequence[float]) -> TiePattern:
    """Multiplicity pattern of the distinct values, in ascending value order."""
    return TiePattern(tuple(_value_blocks(_as_scores(values))[2].tolist()))


def rank_samples(groups: Sequence[Sequence[float]]) -> RankedSamples:
    """Pool the groups (index 0 first; control for many-to-one use), then take the
    midranks, the tie pattern and the count table from one sort of the pool."""
    if len(groups) < 2:
        raise ParameterError("need at least two groups")
    arrays = [_as_scores(g) for g in groups]
    sizes = tuple(a.size for a in arrays)
    pool = np.concatenate(arrays)
    pool.setflags(write=False)  # and so the group views of it that the samples keep
    order, midranks, d, value_class = _value_blocks(pool)
    labels = np.repeat(np.arange(len(sizes), dtype=np.int64), sizes)
    counts = _count_table(labels[order], value_class, len(sizes), d.size)
    scores = tuple(np.split(pool, np.cumsum(sizes)[:-1]))
    return RankedSamples(midranks, labels, sizes, TiePattern(tuple(d.tolist())), counts, scores)


def check_asymptotic_conditions(
    samples: RankedSamples, epsilon: float = 0.1, small_sample_floor: int = 5
) -> Diagnostics:
    """Warn when the tie pattern or group sizes undermine the normal approximation.

    ``epsilon`` is the tolerance on the largest tie fraction (violated when
    max(d)/N > 1 - epsilon); the per-group floor is a finite-sample stand-in for
    the group-proportions condition.
    """
    if not 0 < epsilon < 1:
        raise ParameterError(f"epsilon must be in (0, 1), got {epsilon}")
    tie = samples.tie_pattern
    max_frac = tie.max_fraction
    min_frac = min(samples.sizes) / samples.N
    warnings: list[str] = []
    if max_frac > 1 - epsilon:
        warnings.append(
            f"extreme ties: max d/N = {max_frac:.6g} > 1 - epsilon = {1 - epsilon:.6g}"
        )
    if tie.e == 2:
        warnings.append("two-valued data: only two distinct pooled values")
    for i, n in enumerate(samples.sizes):
        if n < small_sample_floor:
            warnings.append(f"small group {i}: n = {n} < {small_sample_floor}")
    return Diagnostics(max_frac, min_frac, epsilon, small_sample_floor, tuple(warnings))
