"""Midranks, tie patterns, and asymptotic-validity diagnostics for pooled samples."""
from __future__ import annotations

from collections import Counter
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


def whole(value) -> int | None:
    """int(value) when value equals it, else None: NaN, infinities and non-numbers too."""
    try:
        return int(value) if int(value) == value else None
    except (TypeError, ValueError, OverflowError):
        return None


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
            if (whole_m := whole(m)) is None or whole_m < 1:
                raise ParameterError(f"multiplicities must be integers >= 1, got {m!r}")
            clean.append(whole_m)
        object.__setattr__(self, "d", tuple(clean))

    @property
    def e(self) -> int:
        """Number of distinct pooled values."""
        return len(self.d)

    @cached_property
    def N(self) -> int:
        return sum(self.d)

    _tally = cached_property(lambda self: Counter(self.d))  # multiplicity -> how many values

    @cached_property
    def s2(self) -> int:
        """Sum of d*(d-1); the sums run over the distinct multiplicities, in exact ints."""
        return sum(c * m * (m - 1) for m, c in self._tally.items())

    @cached_property
    def s3(self) -> int:
        """Sum of d*(d-1)*(d-2), which is d*(d-1)*(d+1) less 3*d*(d-1)."""
        return self.s3_plus - 3 * self.s2

    @cached_property
    def s3_plus(self) -> int:
        """Sum of d*(d-1)*(d+1), the classical d^3 - d tie sum."""
        return sum(c * (m**3 - m) for m, c in self._tally.items())

    @property
    def max_fraction(self) -> float:
        return max(self.d) / self.N

    @classmethod
    def no_ties(cls, n: int) -> "TiePattern":
        return cls((1,) * n)  # empty for n < 1, and so refused


@dataclass(frozen=True, eq=False)
class RankedSamples:
    """The pooled groups as the engines read them, built by ``rank_samples``: group
    sizes, tie pattern, the count table (``counts[g, j]`` values of group g equal the
    j-th smallest distinct pooled value) and each group's checked float scores, which
    no later step converts or checks again.  Group 0 is the control in many-to-one
    comparisons.  Records compare by identity.

    The record's count table is read-only.  A writable table, which ``rank_samples``
    never passes, is copied, so the caller's array stays writable and writing to it
    does not change the record's."""

    sizes: tuple[int, ...]
    tie_pattern: TiePattern
    counts: np.ndarray = field(repr=False)
    scores: tuple[np.ndarray, ...] = field(repr=False)

    def __post_init__(self) -> None:
        sizes = tuple(int(n) for n in self.sizes)
        if any(n < 1 for n in sizes):
            raise ParameterError("every group needs at least one observation")
        table = np.asarray(self.counts, dtype=np.int64)
        if table.flags.writeable:
            table = table.copy()
        # rows sum to the sizes and columns to the tie pattern, so the shape is right too
        margins = (table.sum(1).tolist(), table.sum(0).tolist()) if table.ndim == 2 else ()
        if margins != (list(sizes), list(self.tie_pattern.d)):
            raise ParameterError("count table does not match sizes and tie pattern")
        if tuple(map(np.size, self.scores)) != sizes:
            raise ParameterError("scores do not match sizes")
        table.setflags(write=False)
        object.__setattr__(self, "sizes", sizes)
        object.__setattr__(self, "counts", table)

    @property
    def N(self) -> int:
        return self.tie_pattern.N

    @property
    def n_groups(self) -> int:
        return len(self.sizes)


@dataclass(frozen=True)
class Diagnostics:
    """Finite-sample readout of the asymptotic-normality conditions."""

    max_tie_fraction: float
    min_group_fraction: float
    epsilon: float
    small_sample_floor: int
    warnings: tuple[str, ...]


def _value_blocks(arr: np.ndarray):
    """One sort of a score array: the sort order, the multiplicities of the distinct
    values in ascending order and the index of each sorted value's distinct value.
    Ties are ``==`` (-0.0 ties 0.0).  The last two do not depend on the order within
    ties, so the sort need not be stable."""
    order = np.argsort(arr)
    s = arr[order]
    new_block = np.concatenate(([True], s[1:] != s[:-1]))
    value_class = np.cumsum(new_block) - 1
    d = np.diff(np.append(np.flatnonzero(new_block), arr.size))
    return order, d, value_class


def compute_midranks(values: Sequence[float]) -> np.ndarray:
    """Midranks of the input: tied values share the average of the ranks they occupy.

    Output order matches input order.  Every midrank is an exact half-integer.
    """
    order, d, value_class = _value_blocks(_as_scores(values))
    # a block ending at rank r with d values occupies ranks r-d+1 .. r, averaging r - (d-1)/2
    block_mid = np.cumsum(d) - (d - 1) / 2
    midranks = np.empty(order.size, dtype=float)
    midranks[order] = block_mid[value_class]
    return midranks


def extract_tie_pattern(values: Sequence[float]) -> TiePattern:
    """Multiplicity pattern of the distinct values, in ascending value order."""
    return TiePattern(tuple(_value_blocks(_as_scores(values))[1].tolist()))


def rank_samples(groups: Sequence[Sequence[float]]) -> RankedSamples:
    """Pool the groups (index 0 first; control for many-to-one use), then take the
    tie pattern and the count table from one sort of the pool."""
    if len(groups) < 2:
        raise ParameterError("need at least two groups")
    arrays = [_as_scores(g) for g in groups]
    sizes = tuple(a.size for a in arrays)
    pool = np.concatenate(arrays)
    pool.setflags(write=False)  # and so the group views of it that the samples keep
    order, d, value_class = _value_blocks(pool)
    key = np.repeat(np.arange(len(sizes), dtype=np.int64) * d.size, sizes)[order] + value_class
    counts = np.bincount(key, minlength=len(sizes) * d.size).reshape(len(sizes), d.size)
    counts.setflags(write=False)  # so the record keeps it without a copy
    scores = tuple(np.split(pool, np.cumsum(sizes)[:-1]))
    return RankedSamples(sizes, TiePattern(tuple(d.tolist())), counts, scores)


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
