"""Exact conditional moments of tie-corrected Mann-Whitney statistics under random splits.

All formulas are evaluated in exact rational arithmetic (the tie sums are integers)
and converted to float at the end, so tie corrections never suffer cancellation.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from ._cache import DESIGNS
from .errors import NumericError, ParameterError
from .ranks import TiePattern

# magnitude below which a negative variance is treated as degenerate-zero
_CLAMP_TOL = 1e-9


@dataclass(frozen=True)
class MomentSet:
    """Means, variances and covariances of the K control-vs-treatment statistics,
    plus the one-factor split (common variance sigma0_2, idiosyncratic sigma2).
    The arrays are read-only."""

    sizes: tuple[int, ...]
    mu: np.ndarray
    tau2: np.ndarray
    cov: np.ndarray
    sigma0_2: float
    sigma2: np.ndarray
    correction_ratio: np.ndarray
    warnings: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        for name in ("mu", "tau2", "cov", "sigma2", "correction_ratio"):
            arr = np.asarray(getattr(self, name), dtype=float)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def n0(self) -> int:
        return self.sizes[0]

    @property
    def K(self) -> int:
        return len(self.sizes) - 1

    @property
    def tau(self) -> np.ndarray:
        return np.sqrt(self.tau2)

    @property
    def pairs(self) -> tuple[tuple[int, int], ...]:
        """(control, treatment) index pairs, in the order of mu and tau."""
        return tuple((0, i) for i in range(1, len(self.sizes)))


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


def factor_decomposition(sizes, tie: TiePattern) -> MomentSet:
    """Full moment set for control size sizes[0] and treatments sizes[1:].

    The covariance of the K statistics matches that of n_i*V0 + V_i with
    independent V's, which is what makes the one-dimensional quadrature work:
    cov[i][j] = n_i*n_j*sigma0_2 off the diagonal and tau2[i] = n_i^2*sigma0_2
    + sigma2[i] on it.

    The formulas read the data only through N, s2, s3, s3_plus and whether all
    values are tied, so results are kept per process in ``_cache.DESIGNS`` under
    the sizes and those sums: tie patterns with equal sums share one entry.
    """
    sizes = tuple(_check_size(n, "size") for n in sizes)
    if len(sizes) < 2:
        raise ParameterError("need a control size and at least one treatment size")
    if sum(sizes) != tie.N:
        raise ParameterError(f"sizes sum to {sum(sizes)} but tie pattern has N = {tie.N}")
    key = ("moments", sizes, tie.s2, tie.s3, tie.s3_plus, tie.e == 1)  # N = sum(sizes)
    return DESIGNS.get(key, lambda: _factor_decomposition(sizes, tie))


def _factor_decomposition(sizes: tuple[int, ...], tie: TiePattern) -> MomentSet:
    n0 = sizes[0]
    treat = sizes[1:]
    k = len(treat)
    warnings: list[str] = []

    s0_sq = _sigma0_sq_exact(n0, tie)
    var_exact = [_var_w_exact(n0, ni, tie) for ni in treat]
    sig_sq = []
    for i, ni in enumerate(treat):
        v = var_exact[i] - ni * ni * s0_sq
        if v < 0:
            if float(v) < -_CLAMP_TOL:
                raise NumericError(f"negative idiosyncratic variance {float(v)} for treatment {i + 1}")
            warnings.append(f"clamped tiny negative variance for treatment {i + 1}")
            v = Fraction(0)
        sig_sq.append(v)

    cov = np.empty((k, k), dtype=float)
    for i in range(k):
        cov[i, i] = float(var_exact[i])
        for j in range(i + 1, k):
            cij = _cov_w_exact(n0, treat[i], treat[j], tie)
            if cij != treat[i] * treat[j] * s0_sq:
                raise NumericError("factor decomposition is inconsistent with the covariance")
            cov[i, j] = cov[j, i] = float(cij)

    ratio = np.empty(k, dtype=float)
    for i, ni in enumerate(treat):
        lead = Fraction(n0 * ni * (n0 + ni + 1), 12)
        ratio[i] = float(1 - var_exact[i] / lead)

    return MomentSet(
        sizes=sizes,
        mu=np.array([n0 * ni / 2 for ni in treat]),
        tau2=np.array([float(v) for v in var_exact]),
        cov=cov,
        sigma0_2=float(s0_sq),
        sigma2=np.array([float(v) for v in sig_sq]),
        correction_ratio=ratio,
        warnings=tuple(warnings),
    )
