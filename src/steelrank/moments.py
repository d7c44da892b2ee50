"""Exact conditional moments of tie-corrected Mann-Whitney statistics under random splits.

Every null moment is an integer multiple of the two scales (s, r) of the tie
pattern (``_scales``): exact rationals, as the tie sums are integers, each turned
into a float by one integer division, so tie corrections never suffer cancellation.
A ``MomentSet`` is built from its design alone, the group sizes, the pairs and the
tie sums, so every set holds the moments of its design and no engine checks one.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, TypeVar

import numpy as np

from ._cache import DESIGNS
from .errors import ParameterError
from .ranks import RankedSamples, TiePattern, whole

V = TypeVar("V")


def control_pairs(n_groups: int) -> tuple[tuple[int, int], ...]:
    """The treatment-vs-control pairs (0, 1), ..., (0, n_groups - 1)."""
    return tuple((0, i) for i in range(1, n_groups))


def all_pairs(n_groups: int) -> tuple[tuple[int, int], ...]:
    """Every pair (a, b) with a < b, in lexicographic order."""
    return tuple((a, b) for a in range(n_groups) for b in range(a + 1, n_groups))


def tie_sums(tie: TiePattern) -> tuple[int, int, int, bool]:
    """(s2, s3, s3_plus, fully tied): what the moments read of a tie pattern besides N."""
    return tie.s2, tie.s3, tie.s3_plus, tie.e == 1


@dataclass(frozen=True)
class MomentSet:
    """Null means, variances and covariances of the Mann-Whitney statistics of a pair
    set: the treatment-vs-control pairs (0, i) or all pairs (a, b), a < b, in the
    order of mu and tau.  The first group of a pair plays the control role.

    A set is built from its design alone: the group sizes, the pairs and the tie sums
    s2, s3, s3_plus and whether all values are tied (``tie_sums``).  The moments are
    not init fields; the constructor computes them, read-only, so ``dataclasses.replace``
    of a moment raises ValueError.  For control pairs the set also holds the one-factor
    split (common variance sigma0_2, idiosyncratic sigma2); for any other pair set both
    are None.  Tie sums that no tie pattern of sum(sizes) values has, where they show
    (s3_plus other than s3 + 3*s2, fully_tied other than s2 = N(N-1), or scales below 0,
    or s = 0 without full ties), are a ParameterError.
    """

    sizes: tuple[int, ...]
    pairs: tuple[tuple[int, int], ...]
    mu: np.ndarray = field(init=False)
    tau2: np.ndarray = field(init=False)
    cov: np.ndarray = field(init=False)
    correction_ratio: np.ndarray = field(init=False)
    sigma0_2: float | None = field(init=False)
    sigma2: np.ndarray | None = field(init=False)
    s2: int
    s3: int
    s3_plus: int
    fully_tied: bool

    def __post_init__(self) -> None:
        sizes, s2, s3 = self.sizes, self.s2, self.s3
        if not (type(sizes) is tuple and all(type(n) is int and n >= 1 for n in sizes)
                and all(type(v) is int and v >= 0 for v in (s2, s3, self.s3_plus))):
            raise ParameterError("a moment set's sizes must be a tuple of Python ints >= 1 "
                                 "and its tie sums Python ints >= 0")
        if len(sizes) < 2:
            raise ParameterError("need a control size and at least one treatment size")
        # the Monte Carlo kernel tallies each first group's pairs in this order
        if self.pairs not in (control_pairs(len(sizes)), all_pairs(len(sizes))):
            raise ParameterError(f"pairs must be the control pairs or all pairs of {len(sizes)} "
                                 f"groups, in order; got {self.pairs!r}")
        n = sum(sizes)
        if self.s3_plus != s3 + 3 * s2 or self.fully_tied is not (s2 == n * (n - 1)):
            raise ParameterError("s3_plus must be s3 + 3*s2, and fully_tied whether s2 = N(N-1)")
        scales = _scales(n, s2, s3, self.fully_tied)
        if not self.fully_tied and (scales[0] <= 0 or scales[1] < 0):
            raise ParameterError(f"no tie pattern of {n} values has s2 = {s2} and s3 = {s3}")
        for name, value in zip(_MOMENTS, _pair_moments(sizes, self.pairs, scales)):
            object.__setattr__(self, name, value)
        object.__setattr__(self, "_derived", {})  # not a field: see derived()

    @property
    def tau(self) -> np.ndarray:
        return np.sqrt(self.tau2)

    @property
    def derived_bytes(self) -> int:
        """Bytes ``derived`` keeps with the set at most, charged to it in the design
        cache: 88 per pair, for the pair index (16), the group factors (48) and the
        one-factor split (24)."""
        return 88 * len(self.pairs)

    def check_samples(self, samples: RankedSamples) -> None:
        """Refuse samples of other group sizes or tie sums than the set was computed for."""
        design = (samples.sizes, *tie_sums(samples.tie_pattern))
        if (self.sizes, self.s2, self.s3, self.s3_plus, self.fully_tied) != design:
            raise ParameterError("moments were computed for different group sizes "
                                 "or a different tie pattern")

    def scales(self) -> tuple[float, float]:
        """The design's scales (s, r) as floats, for the engines that read the factor form."""
        s, r, d = _scales(sum(self.sizes), self.s2, self.s3, self.fully_tied)
        return s / d, r / d

    def derived(self, build: Callable[["MomentSet"], V]) -> V:
        """build(self), built on first use and kept with this set: the quadrature's
        one-factor split of a control-pair set, the group factors of MVN sampling and
        the pair index arrays of ``observe``.  A set is read-only, so what is derived
        from it stays valid, and a set built by hand (``dataclasses.replace`` included)
        never reads what another set derived."""
        value = self._derived.get(build)
        if value is None:
            value = self._derived.setdefault(build, build(self))
        return value


_MOMENTS = ("mu", "tau2", "cov", "correction_ratio", "sigma0_2", "sigma2")


def _check_size(n: int, name: str) -> int:
    if (whole_n := whole(n)) is None or whole_n < 1:
        raise ParameterError(f"{name} must be an integer >= 1, got {n!r}")
    return whole_n


def mean_w(n0: int, ni: int) -> float:
    """Null mean of the Mann-Whitney statistic: n0*ni/2."""
    return _check_size(n0, "n0") * _check_size(ni, "ni") / 2


def _scales(n: int, s2: int, s3: int, fully_tied: bool) -> tuple[int, int, int]:
    """(S, R, D): the exact scales s = S/D and r = R/D of a tie pattern of n values
    with tie sums s2 and s3, as integers over one denominator.

    With M = n(n-1)(n-2), s = (1 - s3/M)/12 and r = (1 - (3(n-2) s2 - 2 s3)/M)/12, and
    every null moment is an integer multiple of them: cov(W_ab, W_ac) = n_a n_b n_c s
    and var W_ab = n_a n_b ((n_a + n_b) s + r).  Both are 1/12 without ties and 0 when
    all values tie; r is 0 on two-valued data with ties, and s > 0 and r > 0 otherwise.
    A float of them is one int / int division, which Python rounds correctly, so it
    is the float of the exact rational, as float(Fraction) is.
    """
    if fully_tied:
        return 0, 0, 1
    m = n * (n - 1) * (n - 2) or 1  # below 3 values nothing ties, so s2 = s3 = 0
    return m - s3, m - 3 * (n - 2) * s2 + 2 * s3, 12 * m


def var_w(n0: int, ni: int, tie: TiePattern) -> float:
    """Null variance of the Mann-Whitney statistic of a (n0, ni) pair drawn from a
    pooled sample of size tie.N with the given tie pattern.

    When tie.N == n0 + ni this is the classical two-sample tie-corrected variance;
    without ties it reduces to n0*ni*(n0+ni+1)/12.
    """
    n0 = _check_size(n0, "n0")
    ni = _check_size(ni, "ni")
    if n0 + ni > tie.N:
        raise ParameterError(f"n0 + ni = {n0 + ni} exceeds pooled size N = {tie.N}")
    s, r, d = _scales(tie.N, tie.s2, tie.s3, tie.e == 1)
    return n0 * ni * ((n0 + ni) * s + r) / d


def cov_w(n0: int, n1: int, n2: int, tie: TiePattern) -> float:
    """Null covariance of the two Mann-Whitney statistics sharing the first sample
    of size n0, against samples of sizes n1 and n2."""
    n0 = _check_size(n0, "n0")
    n1 = _check_size(n1, "n1")
    n2 = _check_size(n2, "n2")
    if n0 + n1 + n2 > tie.N:
        raise ParameterError(f"n0 + n1 + n2 = {n0 + n1 + n2} exceeds pooled size N = {tie.N}")
    s, _, d = _scales(tie.N, tie.s2, tie.s3, tie.e == 1)
    return n0 * n1 * n2 * s / d


def pair_moments(sizes, tie: TiePattern, pairs) -> MomentSet:
    """Moment set of the statistics of ``pairs``, the control pairs or all pairs of
    len(sizes) groups, from the shared-sample identities and the scales of ``_scales``.

    Pairs sharing their first or their second sample covary positively (three-sample
    covariance with the shared size first); mixed sharing flips the sign because
    reflecting a statistic (swapping its samples) negates it around the mean;
    disjoint pairs are uncorrelated.  For control pairs the covariance matches that
    of n_i*V0 + V_i with independent V's, which is what makes the one-dimensional
    quadrature work: cov[i][j] = n_i*n_j*sigma0_2 off the diagonal and tau2[i] =
    n_i^2*sigma0_2 + sigma2[i] on it, with sigma0_2 = n_0 s and sigma2[i] =
    n_0 n_i (n_0 s + r), which is positive unless all values tie.

    The formulas read the data only through N, s2, s3 and whether all values are
    tied, so results are kept per process in ``_cache.DESIGNS`` under the sizes,
    the pairs and the tie sums: tie patterns with equal sums share one entry.
    """
    sizes = tuple(_check_size(n, "size") for n in sizes)
    if sum(sizes) != tie.N:
        raise ParameterError(f"sizes sum to {sum(sizes)} but tie pattern has N = {tie.N}")
    pairs = tuple((int(a), int(b)) for a, b in pairs)
    sums = tie_sums(tie)
    key = ("moments", sizes, pairs, *sums)  # N = sum(sizes)
    return DESIGNS.get(key, lambda: MomentSet(sizes, pairs, *sums))


def _pair_moments(sizes: tuple[int, ...], pairs, scales: tuple[int, int, int]) -> tuple:
    """(mu, tau2, cov, correction_ratio, sigma0_2, sigma2) of a design with the scales
    (S, R, D) of ``_scales``, each float one division of exact integers, arrays read-only."""
    s, r, d = scales
    n_pairs = len(pairs)
    cov = np.zeros((n_pairs, n_pairs))
    for p, (a, b) in enumerate(pairs):
        cov[p, p] = sizes[a] * sizes[b] * ((sizes[a] + sizes[b]) * s + r) / d
        for q in range(p + 1, n_pairs):
            c, e = pairs[q]
            shared = {a, b} & {c, e}
            if shared:
                g = shared.pop()
                sign = 1.0 if (g == a) == (g == c) else -1.0
                cov[p, q] = cov[q, p] = sign * (math.prod(sizes[v] for v in {a, b, c, e}) * s / d)
    sigma0_2, sigma2 = None, None
    if all(a == 0 for a, _ in pairs):
        n0 = sizes[0]
        sigma0_2 = n0 * s / d
        sigma2 = np.array([n0 * ni * (n0 * s + r) / d for ni in sizes[1:]])
    ns = [sizes[a] + sizes[b] for a, b in pairs]  # the ratio is 1 - var / its untied value
    ratio = [((n + 1) * d - 12 * (n * s + r)) / ((n + 1) * d) for n in ns]
    moments = (np.array([sizes[a] * sizes[b] / 2 for a, b in pairs]), np.diag(cov).copy(), cov,
               np.array(ratio), sigma0_2, sigma2)
    for arr in moments:
        if isinstance(arr, np.ndarray):
            arr.setflags(write=False)
    return moments
