"""Exact conditional moments of tie-corrected Mann-Whitney statistics under random splits.

All formulas are evaluated in exact rational arithmetic (the tie sums are integers)
and converted to float at the end, so tie corrections never suffer cancellation.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, TypeVar

import numpy as np

from ._cache import DESIGNS
from .errors import NumericError, ParameterError
from .ranks import RankedSamples, TiePattern

V = TypeVar("V")


def control_pairs(n_groups: int) -> tuple[tuple[int, int], ...]:
    """The treatment-vs-control pairs (0, 1), ..., (0, n_groups - 1)."""
    return tuple((0, i) for i in range(1, n_groups))


def all_pairs(n_groups: int) -> tuple[tuple[int, int], ...]:
    """Every pair (a, b) with a < b, in lexicographic order."""
    return tuple((a, b) for a in range(n_groups) for b in range(a + 1, n_groups))


def _check_pairs(n_groups: int, pairs) -> None:
    # the Monte Carlo kernel tallies each first group's pairs in this order
    if pairs not in (control_pairs(n_groups), all_pairs(n_groups)):
        raise ParameterError(
            f"pairs must be the control pairs or all pairs of {n_groups} groups, in order; "
            f"got {pairs!r}"
        )


def tie_sums(tie: TiePattern) -> tuple[int, int, int, bool]:
    """(s2, s3, s3_plus, fully tied): what the moments read of a tie pattern besides N."""
    return tie.s2, tie.s3, tie.s3_plus, tie.e == 1


@dataclass(frozen=True)
class MomentSet:
    """Null means, variances and covariances of the Mann-Whitney statistics of a pair
    set: the treatment-vs-control pairs (0, i) or all pairs (a, b), a < b, in the
    order of mu and tau.  The first group of a pair plays the control role.

    For control pairs the set also holds the one-factor split (common variance
    sigma0_2, idiosyncratic sigma2); for any other pair set both are None.  The
    set names the design it was computed for: the group sizes and the tie sums
    s2, s3, s3_plus and whether all values are tied.  The arrays are read-only.
    """

    sizes: tuple[int, ...]
    pairs: tuple[tuple[int, int], ...]
    mu: np.ndarray
    tau2: np.ndarray
    cov: np.ndarray
    correction_ratio: np.ndarray
    sigma0_2: float | None
    sigma2: np.ndarray | None
    s2: int
    s3: int
    s3_plus: int
    fully_tied: bool

    def __post_init__(self) -> None:
        _check_pairs(len(self.sizes), self.pairs)
        for name in ("mu", "tau2", "cov", "sigma2", "correction_ratio"):
            if getattr(self, name) is not None:
                arr = np.asarray(getattr(self, name), dtype=float)
                arr.setflags(write=False)
                object.__setattr__(self, name, arr)
        object.__setattr__(self, "_derived", {})  # not a field: see derived()

    @property
    def tau(self) -> np.ndarray:
        return np.sqrt(self.tau2)

    def check_samples(self, samples: RankedSamples) -> None:
        """Refuse samples of other group sizes or tie sums than the set was computed for."""
        if self.sizes != samples.sizes:
            raise ParameterError("moments were computed for different group sizes")
        if (self.s2, self.s3, self.s3_plus, self.fully_tied) != tie_sums(samples.tie_pattern):
            raise ParameterError("moments were computed for a different tie pattern")

    def derived(self, build: Callable[["MomentSet"], V]) -> V:
        """build(self), built on first use and kept with this set: the quadrature
        keeps a control-pair set's checked one-factor split here, and ``observe``
        its pair index arrays.  A set is read-only, so what is derived
        from it stays valid, and a set built by hand (``dataclasses.replace``
        included) never reads what another set derived."""
        value = self._derived.get(build)
        if value is None:
            value = self._derived.setdefault(build, build(self))
        return value


def _check_size(n: int, name: str) -> int:
    if int(n) != n or n < 1:
        raise ParameterError(f"{name} must be an integer >= 1, got {n!r}")
    return int(n)


def mean_w(n0: int, ni: int) -> float:
    """Null mean of the Mann-Whitney statistic: n0*ni/2."""
    return _check_size(n0, "n0") * _check_size(ni, "ni") / 2


def _var_w_exact(n0: int, ni: int, tie: TiePattern) -> Fraction:
    n = tie.N
    if n0 + ni > n:
        raise ParameterError(f"n0 + ni = {n0 + ni} exceeds pooled size N = {n}")
    if tie.e == 1:
        return Fraction(0)
    out = Fraction(n0 * ni * (n0 + ni + 1), 12)
    if tie.s3_plus:
        out -= Fraction(n0 * ni * (n0 + ni - 2) * tie.s3_plus, 12 * n * (n - 1) * (n - 2))
    if tie.s2 and n > n0 + ni:
        out -= Fraction(n0 * ni * (n - n0 - ni) * tie.s2, 4 * n * (n - 1) * (n - 2))
    return out


def var_w(n0: int, ni: int, tie: TiePattern) -> float:
    """Null variance of the Mann-Whitney statistic of a (n0, ni) pair drawn from a
    pooled sample of size tie.N with the given tie pattern.

    When tie.N == n0 + ni this is the classical two-sample tie-corrected variance;
    without ties it reduces to n0*ni*(n0+ni+1)/12.
    """
    n0 = _check_size(n0, "n0")
    ni = _check_size(ni, "ni")
    return float(_var_w_exact(n0, ni, tie))


def _cov_w_exact(n0: int, n1: int, n2: int, tie: TiePattern) -> Fraction:
    n = tie.N
    if n0 + n1 + n2 > n:
        raise ParameterError(f"n0 + n1 + n2 = {n0 + n1 + n2} exceeds pooled size N = {n}")
    if tie.e == 1:
        return Fraction(0)
    out = Fraction(n0 * n1 * n2, 12)
    if tie.s3:
        out -= Fraction(n0 * n1 * n2 * tie.s3, 12 * n * (n - 1) * (n - 2))
    return out


def cov_w(n0: int, n1: int, n2: int, tie: TiePattern) -> float:
    """Null covariance of the two Mann-Whitney statistics sharing the first sample
    of size n0, against samples of sizes n1 and n2."""
    n0 = _check_size(n0, "n0")
    n1 = _check_size(n1, "n1")
    n2 = _check_size(n2, "n2")
    return float(_cov_w_exact(n0, n1, n2, tie))


def _sigma0_sq_exact(n0: int, tie: TiePattern) -> Fraction:
    n = tie.N
    if tie.e == 1:
        return Fraction(0)
    out = Fraction(n0, 12)
    if tie.s3:
        out -= Fraction(n0 * tie.s3, 12 * n * (n - 1) * (n - 2))
    return out


def pair_moments(sizes, tie: TiePattern, pairs) -> MomentSet:
    """Moment set of the statistics of ``pairs``, the control pairs or all pairs of
    len(sizes) groups, from the shared-sample identities.

    Pairs sharing their first or their second sample covary positively (three-sample
    covariance with the shared size first); mixed sharing flips the sign because
    reflecting a statistic (swapping its samples) negates it around the mean;
    disjoint pairs are uncorrelated.  For control pairs the covariance matches that
    of n_i*V0 + V_i with independent V's, which is what makes the one-dimensional
    quadrature work: cov[i][j] = n_i*n_j*sigma0_2 off the diagonal and tau2[i] =
    n_i^2*sigma0_2 + sigma2[i] on it.

    The formulas read the data only through N, s2, s3, s3_plus and whether all
    values are tied, so results are kept per process in ``_cache.DESIGNS`` under
    the sizes, the pairs and those sums: tie patterns with equal sums share one entry.
    """
    sizes = tuple(_check_size(n, "size") for n in sizes)
    if len(sizes) < 2:
        raise ParameterError("need a control size and at least one treatment size")
    if sum(sizes) != tie.N:
        raise ParameterError(f"sizes sum to {sum(sizes)} but tie pattern has N = {tie.N}")
    pairs = tuple((int(a), int(b)) for a, b in pairs)
    _check_pairs(len(sizes), pairs)
    key = ("moments", sizes, pairs, *tie_sums(tie))  # N = sum(sizes)
    return DESIGNS.get(key, lambda: _pair_moments(sizes, tie, pairs))


def _pair_moments(
    sizes: tuple[int, ...], tie: TiePattern, pairs: tuple[tuple[int, int], ...]
) -> MomentSet:
    exact: dict[tuple[int, ...], Fraction] = {}  # each distinct size tuple's exact moment
    floats: dict[tuple[int, ...], float] = {}  # and its float, each made once
    ratios: dict[tuple[int, int], float] = {}

    def moment(*ns: int) -> Fraction:
        if ns not in exact:
            exact[ns] = (_var_w_exact if len(ns) == 2 else _cov_w_exact)(*ns, tie)
        return exact[ns]

    def value(*ns: int) -> float:
        if ns not in floats:
            floats[ns] = float(moment(*ns))
        return floats[ns]

    n_pairs = len(pairs)
    cov = [[0.0] * n_pairs for _ in range(n_pairs)]
    ratio = []
    for p, (a, b) in enumerate(pairs):
        na, nb = sizes[a], sizes[b]
        cov[p][p] = value(na, nb)
        if (na, nb) not in ratios:
            ratios[na, nb] = float(1 - moment(na, nb) / Fraction(na * nb * (na + nb + 1), 12))
        ratio.append(ratios[na, nb])
        for q in range(p + 1, n_pairs):
            c, d = pairs[q]
            shared = {a, b} & {c, d}
            if not shared:
                continue
            s = shared.pop()
            others = [v for v in (a, b, c, d) if v != s]
            sign = 1.0 if (s == a) == (s == c) else -1.0
            cov[p][q] = cov[q][p] = sign * value(sizes[s], *(sizes[v] for v in others))

    sigma0_2, sigma2 = None, None
    if all(a == 0 for a, _ in pairs):
        sigma0_2, sigma2 = _factor_split(sizes, tie, moment)
    cov = np.array(cov)
    s2, s3, s3_plus, fully_tied = tie_sums(tie)
    return MomentSet(
        sizes=sizes,
        pairs=pairs,
        mu=np.array([sizes[a] * sizes[b] / 2 for a, b in pairs]),
        tau2=np.diag(cov).copy(),
        cov=cov,
        correction_ratio=ratio,
        sigma0_2=sigma0_2,
        sigma2=sigma2,
        s2=s2,
        s3=s3,
        s3_plus=s3_plus,
        fully_tied=fully_tied,
    )


def _factor_split(
    sizes: tuple[int, ...], tie: TiePattern, moment
) -> tuple[float, np.ndarray]:
    """sigma0_2 and sigma2 of the control pairs' one-factor split.

    In closed form, with N = tie.N, s2 = tie.s2 and s3 = tie.s3,
        sigma2[i] = n0*n_i/12 * ((n0 + 1) - ((n0 - 2)*s3 + 3*(N - 2)*s2) / (N(N-1)(N-2))),
    (the fraction is 0 when s2 = s3 = 0), which is positive unless all values tie
    (then every moment is 0).  Each is computed, checked and converted once per
    distinct treatment size, and the covariance identity is checked once per
    distinct pair of treatment sizes.
    """
    n0 = sizes[0]
    treat = sizes[1:]
    s0_sq = _sigma0_sq_exact(n0, tie)
    sig_sq: dict[int, float] = {}
    for i, ni in enumerate(treat):
        if ni not in sig_sq:
            v = moment(n0, ni) - ni * ni * s0_sq
            if v < 0:
                raise NumericError(
                    f"negative idiosyncratic variance {float(v)} for treatment {i + 1}"
                )
            sig_sq[ni] = float(v)
    checked = set()
    for i in range(len(treat)):
        for j in range(i + 1, len(treat)):
            if (treat[i], treat[j]) not in checked:
                checked.add((treat[i], treat[j]))
                if moment(n0, treat[i], treat[j]) != treat[i] * treat[j] * s0_sq:
                    raise NumericError("factor decomposition is inconsistent with the covariance")
    return float(s0_sq), np.array([sig_sq[ni] for ni in treat])
