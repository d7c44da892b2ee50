"""Normal-approximation kernels: joint tails of the one-factor model via one quadrature.

The K control-pair statistics share the covariance of n_i*V0 + V_i with independent
normal V's, so every joint box probability is a single integral over the common factor:

    P(all coordinates standardized <= u_i) = integral of
        prod_i Phi((u_i*tau_i - n_i*sigma0*z) / sigma_i) * phi(z) dz.

Composite Gauss-Legendre on [-8.5, 8.5] (truncation mass < 2e-17) evaluates it.
The same nodes carry the tail integrand 1 - prod_i(...), and whichever of the box
and the tail is smaller is integrated directly, the other being 1 minus it.
Numeric contract: tails and boxes saturate at exactly 0.0 and 1.0, and a tail has
relative error <= 1e-8 against the K=1 collapse 1 - Phi(u) for |u| <= 6.  Beyond
|u| of about 8 the fixed window, not the node count, limits accuracy (relative
error 5.7e-6 at u = 8 on the (7, 5) design) until the window follows the
integrand's mass.

The entry points take a control-pair ``MomentSet``, whose sigma0_2 and sigma2 are
this split; a set is built from its design alone, so the split holds exactly.
Every set with tau > 0 has sigma0 > 0 and sigma_i > 0 (only fully tied data give
zeros, and then tau = 0 as well), so each factor is a smooth Phi.

Import rule: no run imports scipy.  The normal CDF and its log are Cephes' ndtr
evaluated in numpy (``_ndtr``, ``_log_ndtr``), and thresholds are solved by
``brent_root``, a step-for-step port of scipy's ``brentq``, so every mode runs on
numpy and the standard library alone.
"""
from __future__ import annotations

import math
import sys
from functools import lru_cache
from statistics import NormalDist
from typing import Callable

import numpy as np

from .errors import NumericError, ParameterError, integer
from .moments import MomentSet
from .statistics import normalize_alternative

INTEGRATION_LIMIT = 8.5
DEFAULT_NODES = 160
MAX_NODES = 8192  # leggauss builds an O(n^2) companion matrix and takes O(n^3) time
_PANELS = 8


@lru_cache(maxsize=64)
def _nodes(num_nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """Composite Gauss-Legendre abscissas and phi-weighted weights on the window."""
    per_panel = max(2, -(-num_nodes // _PANELS))
    x, w = np.polynomial.legendre.leggauss(per_panel)
    edges = np.linspace(-INTEGRATION_LIMIT, INTEGRATION_LIMIT, _PANELS + 1)
    zs, ws = [], []
    for a, b in zip(edges[:-1], edges[1:]):
        half = (b - a) / 2
        zs.append(half * x + (b + a) / 2)
        ws.append(half * w)
    z = np.concatenate(zs)
    weight = np.concatenate(ws) * np.exp(-z * z / 2) / math.sqrt(2 * math.pi)
    z.setflags(write=False)
    weight.setflags(write=False)
    return z, weight


def _padded(*coefficients: float) -> list[float]:
    return [0.0] * (9 - len(coefficients)) + list(coefficients)


# Cephes ndtr.c (Moshier 1989), the normal CDF that scipy.special.ndtr runs: erfc(z) is
# exp(-z^2) P(z)/Q(z) for 1 <= z < 8 and exp(-z^2) R(z)/S(z) from 8, and erf(z) is
# z T(z^2)/U(z^2) for z < 1.  One column per polynomial, highest power first, with the
# implicit leading 1 of Cephes' p1evl written out; the leading zeros make a 9-row Horner
# round exactly as polevl and p1evl do.
_CEPHES = np.array([
    _padded(2.46196981473530512524e-10, 5.64189564831068821977e-1, 7.46321056442269912687e0,
            4.86371970985681366614e1, 1.96520832956077098242e2, 5.26445194995477358631e2,
            9.34528527171957607540e2, 1.02755188689515710272e3, 5.57535335369399327526e2),
    _padded(1.0, 1.32281951154744992508e1, 8.67072140885989742329e1, 3.54937778887819891062e2,
            9.75708501743205489753e2, 1.82390916687909736289e3, 2.24633760818710981792e3,
            1.65666309194161350182e3, 5.57535340817727675546e2),
    _padded(5.64189583547755073984e-1, 1.27536670759978104416e0, 5.01905042251180477414e0,
            6.16021097993053585195e0, 7.40974269950448939160e0, 2.97886665372100240670e0),
    _padded(1.0, 2.26052863220117276590e0, 9.39603524938001434673e0, 1.20489539808096656605e1,
            1.70814450747565897222e1, 9.60896809063285878198e0, 3.36907645100081516050e0),
    _padded(9.60497373987051638749e0, 9.00260197203842689217e1, 2.23200534594684319226e3,
            7.00332514112805075473e3, 5.55923013010394962768e4),
    _padded(1.0, 3.35617141647503099647e1, 5.21357949780152679795e2, 4.59432382970980127987e3,
            2.26290000613890934246e4, 4.92673942608635921086e4),
])
# row 2i + j: Horner step i of the numerator (j = 0) or denominator (j = 1); column b:
# the branch, 0 = P/Q, 1 = R/S, 2 = T/U
_HORNER = np.ascontiguousarray(_CEPHES.reshape(3, 2, 9).transpose(2, 1, 0).reshape(18, 3))
_MAXLOG = 7.09782712893383996843e2  # Cephes: erfc(z) is 0 once z^2 exceeds it
_HORNER_CAP = 1e10  # keeps R(z), S(z) finite; it only moves values that are discarded
_SQRT_HALF = math.sqrt(0.5)


def _cephes_terms(x: np.ndarray):
    """Cephes' ndtr at sqrt(2)*x for a flat x, in pieces: (half, small, z2, num, den).

    With z = |x| and z2 = z*z, ``small`` marks z < 1, where Cephes takes erf(x) as
    x*T(z2)/U(z2) and ndtr = 0.5 + half with half = erf(x)/2.  Elsewhere num/den is
    P(z)/Q(z) or R(z)/S(z), erfc(z) = exp(-z2)*num/den (0 once z2 passes MAXLOG),
    half = copysign(erfc(z), x)/2 and ndtr = [x > 0] - half.  Every product and quotient
    is rounded as in Cephes.  From z = sqrt(1/2) to 1 Cephes writes ndtr as erfc(z)/2
    or 1 - erfc(z)/2 with erfc = 1 - erf; there erf(z) >= 0.68, so 1 - erf is exact
    and 0.5 + half rounds alike.  The numerators and denominators run as one stacked
    Horner; a 0/1 branch matrix picks each element's coefficients, an exact product.
    """
    n = x.size
    z = np.abs(x)
    with np.errstate(over="ignore"):  # z*z past 1e308 is inf, which is the limit wanted
        z2 = z * z
    small = z < 1.0
    far = z >= 8.0
    branch = np.empty((3, n))
    np.logical_not(small | far, out=branch[0])
    branch[1] = far
    branch[2] = small
    coef = (_HORNER @ branch).reshape(9, 2 * n)
    w = np.minimum(z, _HORNER_CAP)
    np.copyto(w, z2, where=small)
    w = np.concatenate((w, w))
    acc = coef[0] * w
    for c in coef[1:-1]:
        acc += c
        acc *= w
    acc += coef[-1]
    num, den = acc[:n], acc[n:]
    half = np.exp(-z2)
    np.copyto(half, 0.0, where=z2 > _MAXLOG)
    np.copysign(half, x, out=half)
    np.copyto(half, x, where=small)
    half *= num
    half /= den
    half *= 0.5
    return half, small, z2, num, den


def _ndtr(a) -> np.ndarray:
    """The standard normal CDF, Cephes' ndtr evaluated in numpy.

    Numeric contract: within 4 ulp of scipy.special.ndtr (bit for bit with Cephes
    run on math.exp; numpy's exp rounds differently), 0 and 1 at -inf and inf, NaN
    for NaN, and no floating-point warning.
    """
    a = np.asarray(a, dtype=float)
    x = a.ravel() * _SQRT_HALF
    half, small, *_ = _cephes_terms(x)
    out = np.subtract(x > 0, half)
    np.add(0.5, half, out=out, where=small)
    return out.reshape(a.shape)


def _log_ndtr(a) -> np.ndarray:
    """log Phi(a): log1p(-ndtr(-a)) for a >= -1, and below -1 the log of the tail.

    There the tail is exp(-z^2)*num/den/2 with z = -a/sqrt(2), so its log is
    log(num/den/2) - z^2 with no exp to underflow; between -sqrt(2) and -1, where
    Cephes uses erf, it is log(ndtr(a)).  Numeric contract: within 6 ulp of
    scipy.special.log_ndtr, except between -sqrt(2) and -1, where scipy takes the
    Faddeeva erfcx, both are within 4 ulp of the exact value and they differ by up to
    8; -inf and 0 at -inf and inf, NaN for NaN, and no floating-point warning.
    """
    a = np.asarray(a, dtype=float)
    flat = a.ravel()
    x = flat * -_SQRT_HALF  # ndtr(-a) = ndtr(sqrt(2)*x)
    half, small, z2, num, den = _cephes_terms(x)
    out = np.divide(num, den)
    out *= 0.5
    np.log(out, out=out)
    out -= z2
    left = flat < -1.0
    np.log(0.5 - half, out=out, where=small & left)
    # -ndtr(-a): -(0.5 + half) where small, and half itself where x <= -1
    np.subtract(-0.5, half, out=half, where=small)
    np.log1p(half, out=out, where=~left)
    return out.reshape(a.shape)


def _split(ms: MomentSet) -> tuple[np.ndarray, float, np.ndarray, np.ndarray]:
    """(n, sigma0, sigma, tau) of a control-pair moment set: the treatment sizes and
    the one-factor split tau_i^2 = n_i^2*sigma0^2 + sigma_i^2, built from the set on
    each call.  Other pair sets have no split, and a set with tau_i = 0 (fully tied
    data) has no smooth one."""
    if ms.sigma2 is None:
        raise ParameterError("the one-factor model needs the treatment-vs-control pairs")
    if (ms.tau2 <= 0).any():
        raise ParameterError("tau must be strictly positive (degenerate data carry no test)")
    n = np.asarray(ms.sizes[1:], dtype=float)
    return n, math.sqrt(ms.sigma0_2), np.sqrt(ms.sigma2), np.sqrt(ms.tau2)


def _box_mass(ms: MomentSet, u: np.ndarray, nodes: int, alternative: str) -> tuple[float, float]:
    """(box, tail): an alternative's box probability and its complement, by one quadrature.

    greater: box is all coordinates <= u_i; less: all >= u_i; two_sided: all |.| <= u_i.
    Each node's log box integrand s = sum_i log P(factor i in its box | z) gives both the
    box integrand exp(s) and the tail integrand -expm1(s).  The smaller side is integrated
    directly and the other is 1 minus it, so a small side keeps its relative accuracy and
    both sides reach exactly 0 and 1.
    """
    if not 1 <= integer(nodes, "nodes") <= MAX_NODES:
        raise ParameterError(f"nodes must be in [1, {MAX_NODES}], got {nodes}")
    n, sigma0, sigma, tau = _split(ms)
    z, weight = _nodes(nodes)
    common = np.outer(n * sigma0, z)
    # Phi arguments, one row per factor and one column per node; a finite u near the
    # float maximum overflows to the infinite arguments whose Phi is exact
    with np.errstate(over="ignore"):
        a = ((u * tau)[:, None] - common) / sigma[:, None]
        if alternative == "two_sided":
            b = ((-u * tau)[:, None] - common) / sigma[:, None]
    if alternative == "greater":
        logs = _log_ndtr(a)
    elif alternative == "less":
        logs = _log_ndtr(-a)
    else:
        # miss = 1 - factor: log1p keeps a factor near 1 exact, the difference a small one
        below, upper_miss, inside = _ndtr(np.stack((b, -a, a)))
        miss = upper_miss + below
        with np.errstate(divide="ignore", invalid="ignore"):
            logs = np.where(miss < 0.5, np.log1p(-miss), np.log(inside - below))
    s = logs.sum(axis=0)
    box = float((weight * np.exp(s)).sum())
    if box <= 0.5:
        return box, 1.0 - box
    tail = 0.0 - float((weight * np.expm1(s)).sum())  # 0.0 - : a zero tail is 0.0, not -0.0
    return 1.0 - tail, tail


def tail_prob(ms: MomentSet, u, alternative: str, nodes: int = DEFAULT_NODES) -> float:
    """P(the alternative's extreme statistic is in its tail at u) under the normal
    approximation of the control-pair moment set ``ms``.

    greater: P(any coordinate i >= u_i); less: P(any <= u_i); two_sided:
    P(any |coordinate i| >= u_i), u_i >= 0.  ``u`` is a scalar or one threshold
    per coordinate, none of them NaN.  A set of other pairs, one with tau_i = 0
    (fully tied data) or one that is not the set ``pair_moments`` builds for its
    design is a ParameterError.

    Numeric contract: the tail and the box are complements, and whichever is smaller
    is integrated directly, so a small tail keeps its relative accuracy and a tail
    saturates at exactly 0.0 or 1.0.  Against the K=1 collapse 1 - Phi(u) the relative
    error is <= 1e-8 for |u| <= 6.  Beyond |u| of about 8 the fixed [-8.5, 8.5] window,
    not the node count, limits accuracy.

    ``nodes`` is a request: the rule uses 8 panels x max(2, ceil(nodes/8)) nodes, so
    any request up to 16 gives 16 nodes and 160 gives 160.  nodes that are not an
    integer in [1, MAX_NODES] (``errors.integer``: no bool) are a ParameterError.
    """
    alt = normalize_alternative(alternative)
    k = len(_split(ms)[0])
    u = np.asarray(u, dtype=float)
    if u.ndim == 0:
        u = np.full(k, float(u))
    if u.shape != (k,):
        raise ParameterError("u must be a scalar or a length-K vector")
    if np.isnan(u).any():
        raise ParameterError("thresholds must not be NaN")
    if alt == "two_sided" and (u < 0).any():
        raise ParameterError("two-sided thresholds must be >= 0")
    return _box_mass(ms, u, nodes, alt)[1]


def joint_lower_box_prob(ms: MomentSet, c, nodes: int = DEFAULT_NODES) -> float:
    """P(W_i <= c_i for all i) with thresholds c on the raw statistic scale; a NaN
    threshold is a ParameterError."""
    tau = _split(ms)[3]
    c = np.asarray(c, dtype=float)
    if c.shape != tau.shape:
        raise ParameterError("c must be a length-K vector of raw-scale thresholds")
    if np.isnan(c).any():
        raise ParameterError("thresholds must not be NaN")
    u = (c - ms.mu) / tau
    return _box_mass(ms, u, nodes, "greater")[0]


_RTOL = 4 * sys.float_info.epsilon


def brent_root(
    f: Callable[[float], float],
    a: float,
    b: float,
    xtol: float,
    maxiter: int = 100,
) -> float:
    """A root of f on [a, b], where f(a) and f(b) differ in sign, by Brent's method.

    A step-for-step port of scipy.optimize.brentq (Brent 1973, *Algorithms for
    Minimization without Derivatives*, ch. 4; scipy's ``Zeros/brentq.c``): the same
    bracket bookkeeping, the same interpolation and extrapolation expressions in the
    same order, and scipy's rtol = 4*eps, so the iterates and the root are
    bit-identical to scipy's at the same xtol and maxiter.  The root x0 is within
    xtol + 4*eps*|x0| of a sign change of f, and an end where f is exactly 0 is
    returned at once.  A same-sign bracket, a NaN value of f, or maxiter steps without
    convergence is a NumericError; xtol <= 0 is a ParameterError.
    """
    if not xtol > 0:
        raise ParameterError(f"xtol must be > 0, got {xtol}")

    def value(x: float) -> float:
        fx = float(f(x))
        if math.isnan(fx):
            raise NumericError(f"the function value at x={x} is NaN; "
                               "the root solve cannot continue")
        return fx

    xpre, xcur = float(a), float(b)
    fpre, fcur = value(xpre), value(xcur)
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    if (fpre < 0) == (fcur < 0):
        raise NumericError(f"f(a) and f(b) must have different signs, got {fpre} and {fcur}")
    xblk = fblk = spre = scur = 0.0
    for _ in range(maxiter):
        if fpre != 0 and fcur != 0 and (fpre < 0) != (fcur < 0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + _RTOL * abs(xcur)) / 2  # the tolerance is 2*delta
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            try:
                if xpre == xblk:  # interpolate
                    stry = -fcur * (xcur - xpre) / (fcur - fpre)
                else:  # extrapolate
                    dpre = (fpre - fcur) / (xpre - xcur)
                    dblk = (fblk - fcur) / (xblk - xcur)
                    stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            except ZeroDivisionError:  # C gets inf or NaN here, which fails the step test
                stry = math.inf
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):  # good short step
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0 else -delta)
        fcur = value(xcur)
    raise NumericError(f"root solve did not converge in {maxiter} steps, last x={xcur}")


def solve_common_threshold(ms: MomentSet, gamma: float, nodes: int = DEFAULT_NODES) -> float:
    """u with P(all W_i <= mu_i + u*tau_i) == gamma, by ``brent_root``.

    The standardized coordinates are standard normals with nonnegative correlations,
    so by Slepian's inequality (1962) Phi(u)^K <= P(all <= u) <= Phi(u), and the root
    lies in [Phi^-1(gamma), Phi^-1(gamma^(1/K))].  The solve starts from that bracket
    when the quadrature confirms the sign change at its ends, and from [-45, 45]
    otherwise, always so when K = 1.  Box masses are kept within the solve, so the
    sign check, Brent's end values and the final check share their quadratures.
    The root is taken to xtol 1e-13 in at most 200 steps, and a box mass more than
    1e-9 from gamma at the root is a NumericError.
    """
    if not 0 < gamma < 1:
        raise ParameterError(f"gamma must be in (0, 1), got {gamma}")
    k = len(_split(ms)[0])
    known: dict[float, float] = {}

    def f(u: float) -> float:
        if u not in known:
            known[u] = _box_mass(ms, np.full(k, u), nodes, "greater")[0] - gamma
        return known[u]

    lo, hi = -45.0, 45.0
    upper = gamma ** (1.0 / k)
    if k > 1 and upper < 1.0:
        a, b = NormalDist().inv_cdf(gamma), NormalDist().inv_cdf(upper)
        if f(a) < 0 < f(b):
            lo, hi = a, b
    root = brent_root(f, lo, hi, xtol=1e-13, maxiter=200)
    if abs(f(root)) > 1e-9:
        raise NumericError("threshold solve did not reach the 1e-9 target")
    return root
