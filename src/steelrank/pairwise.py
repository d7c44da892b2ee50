"""All-pairs tails from the approximating joint normal: seeded sampling of the
standardized pair statistics under their null correlation.

Sampling runs on ``randomization.sample_chunks``: a slice's draw is its standard
normals, taken while the thread holds the chunk's generator; the product ``z =
normals @ root.T`` and the tail counts are its tally, after the generator is
released.  Up to 64 pairs, each slice's product costs at most the slice budget
``randomization._SLICE_CELLS`` = 2^18 multiply-adds (rows x pairs^2).  OpenBLAS
runs a GEMM that small on the calling thread (65536 x GEMM_MULTITHREAD_THRESHOLD,
``_SINGLE_THREAD_GEMM``); a larger one wakes its worker threads, which keep
spinning for about 0.1 s after the call and so take a CPU from the sampling
threads and from the next Monte Carlo run.  Past 64 pairs a slice would
need fewer than 64 rows to stay that small, and thin products ran slower than
threaded ones (64-row slices made 528 pairs about a quarter slower), so slices
there hold 2^18 output cells (rows x pairs).  Slicing does not change the draws;
for every all-pairs design of 3 to 11 groups (3 to 55 pairs) the sliced products
are bit-identical to one product per chunk, and past that z can differ in the last
bit.
"""
from __future__ import annotations

from typing import Sequence

import numpy as np

from .errors import NumericError
from .moments import MomentSet
from .randomization import check_tail_request, sample_chunks
from .statistics import in_tail, reduce_statistic

# multiply-adds OpenBLAS runs on the calling thread; randomization._SLICE_CELLS must equal it
_SINGLE_THREAD_GEMM = 1 << 18
_MAX_REPLICATE_WORK = _SINGLE_THREAD_GEMM // 64  # pairs^2 up to which slices keep >= 64 rows


def _mvn_root(moments: MomentSet) -> np.ndarray:
    """Square root of the pair correlation matrix; degenerate pairs get zero rows."""
    tau = moments.tau
    scale = np.where(tau > 0, tau, 1.0)
    corr = moments.cov / np.outer(scale, scale)
    corr[tau == 0, :] = 0.0
    corr[:, tau == 0] = 0.0
    eigvals, eigvecs = np.linalg.eigh(corr)
    tol = 1e-9 * max(1.0, float(np.abs(eigvals).max(initial=1.0)))
    if eigvals.min() < -tol:
        raise NumericError(
            f"pairwise covariance is not positive semidefinite: min eigenvalue "
            f"{eigvals.min():.3e} (tolerance {-tol:.3e})"
        )
    return eigvecs * np.sqrt(np.clip(eigvals, 0.0, None))


def _mvn_tail_counts(
    corr_root: np.ndarray, kind: str, thresholds: np.ndarray, nsim: int, seed: int
) -> np.ndarray:
    """Tail counts per threshold (int64) from sampling the standardized joint
    normal, chunked like the Monte Carlo engine."""

    def draw(rng: np.random.Generator, b: int) -> np.ndarray:
        return rng.standard_normal((b, corr_root.shape[1]))

    def tally(normal: np.ndarray) -> np.ndarray:
        stats = reduce_statistic(kind, normal @ corr_root.T)
        return in_tail(kind, stats[:, None], thresholds[None, :]).sum(axis=0)

    work = corr_root.size  # multiply-adds of one replicate's product
    if work > _MAX_REPLICATE_WORK:  # threaded at any slice worth drawing: slice by output cells
        work = corr_root.shape[1]
    return sample_chunks(nsim, seed, draw, tally, work)


def mvn_tail_counts(
    moments: MomentSet,
    statistic: str,
    thresholds: Sequence[float],
    nsim: int,
    seed: int,
) -> np.ndarray:
    """Tail counts of a statistic at each threshold over nsim draws of the joint
    normal with the pair correlation of ``moments``, from one shared run.

    The tail and the checks are those of ``simulated_tail_counts``; returns int64
    counts out of nsim draws.
    """
    thr = check_tail_request(statistic, thresholds)
    return _mvn_tail_counts(_mvn_root(moments), statistic, thr, nsim, seed)
