"""Brute-force reference implementations, kept independent of the package paths.

Everything here favors the most literal definition over speed: double loops for
pair counting, O(N^2) midranks, and index-level split enumeration with uniform
weights.  Used to pin expected values and to validate the package's faster routes.
"""
from __future__ import annotations

import bisect
import itertools
import math
from fractions import Fraction

import numpy as np


def brute_w_star(x, y) -> float:
    """Pair-count definition: #(x < y) + half the tied pairs."""
    lt = sum(1 for a in x for b in y if a < b)
    eq = sum(1 for a in x for b in y if a == b)
    return lt + eq / 2


def pairwise_differences(control, treatment) -> np.ndarray:
    """All n0*ni treatment-minus-control differences fl(y - x), ascending."""
    x = np.asarray(control, dtype=float)
    y = np.asarray(treatment, dtype=float)
    return np.sort(np.subtract.outer(y, x).ravel())


def brute_midranks(values) -> list[float]:
    """Midrank of v = #(w < v) + (#(w == v) + 1)/2, straight from the definition."""
    out = []
    for v in values:
        below = sum(1 for w in values if w < v)
        tied = sum(1 for w in values if w == v)
        out.append(below + (tied + 1) / 2)
    return out


def iter_index_splits(n_total: int, sizes):
    """Yield tuples of index sets, one labeled split at a time (uniform weight)."""
    remaining = tuple(range(n_total))

    def rec(pool, size_list):
        if not size_list:
            yield ()
            return
        first, *rest = size_list
        for chosen in itertools.combinations(pool, first):
            chosen_set = set(chosen)
            sub_pool = tuple(i for i in pool if i not in chosen_set)
            for tail in rec(sub_pool, rest):
                yield (chosen,) + tail

    yield from rec(remaining, list(sizes))


def enumerate_pair_stats(values, sizes, pairs):
    """W* rows for the requested (a, b) group pairs over every labeled split."""
    values = list(values)
    rows = []
    for split in iter_index_splits(len(values), sizes):
        groups = [[values[i] for i in idx] for idx in split]
        rows.append([brute_w_star(groups[a], groups[b]) for a, b in pairs])
    return np.asarray(rows, dtype=float)


def split_moments(values, sizes, pairs):
    """Empirical mean vector and covariance matrix over all labeled splits."""
    rows = enumerate_pair_stats(values, sizes, pairs)
    m = rows.shape[0]
    mean = rows.mean(axis=0)
    centered = rows - mean
    cov = centered.T @ centered / m
    return mean, cov, m


def tail_weight(dist: dict, obs, direction: str) -> Fraction:
    """Inclusive tail mass of a {value: weight} distribution."""
    total = sum(dist.values())
    if direction == "le":
        hit = sum(w for v, w in dist.items() if v <= obs)
    else:
        hit = sum(w for v, w in dist.items() if v >= obs)
    return Fraction(hit, total)


def two_valued_tail(groups, mu, tau, statistic: str) -> Fraction:
    """Exact tail mass of a control-vs-treatment statistic on 0/1 data.

    Given the pooled number of ones, the ones per group are multivariate
    hypergeometric, and W* of control vs group g follows from the two counts.
    The tail is ``<=`` for s_min and ``>=`` for s_max and s_abs.
    """
    sizes = [len(g) for g in groups]
    ones = [int(sum(g)) for g in groups]
    n0 = sizes[0]

    def stat(c):
        c0 = c[0]
        w = np.array([(n0 - c0) * ci + (c0 * ci + (n0 - c0) * (ni - ci)) / 2
                      for ci, ni in zip(c[1:], sizes[1:])])
        z = (w - mu) / tau
        return {"s_max": z.max(), "s_min": z.min(), "s_abs": np.abs(z).max()}[statistic]

    observed = stat(ones)
    mass = 0
    for head in itertools.product(*(range(n + 1) for n in sizes[:-1])):
        c = head + (sum(ones) - sum(head),)
        if not 0 <= c[-1] <= sizes[-1]:
            continue
        s = stat(c)
        if (s <= observed) if statistic == "s_min" else (s >= observed):
            mass += math.prod(math.comb(n, k) for n, k in zip(sizes, c))
    return Fraction(mass, math.comb(sum(sizes), sum(ones)))


def random_tie_pattern(rng: np.random.Generator, n_total: int) -> tuple[int, ...]:
    """Uniform random composition of n_total (stars and bars on random cut points)."""
    if n_total == 1:
        return (1,)
    n_cuts = int(rng.integers(0, n_total))
    cuts = sorted(rng.choice(n_total - 1, size=n_cuts, replace=False) + 1) if n_cuts else []
    edges = [0] + list(cuts) + [n_total]
    return tuple(int(b - a) for a, b in zip(edges[:-1], edges[1:]))


def replay_key_bits(n_total: int, n_groups: int) -> int:
    """Sort-key width of the Monte Carlo permutation draw: 32 bits while
    C(N, 2) 2**(b - 32) <= 1/16 with b = max(1, bit_length(G - 1)) label bits, else 64."""
    bits = max(1, (n_groups - 1).bit_length())
    return 32 if Fraction(math.comb(n_total, 2) * 2**bits, 2**32) <= Fraction(1, 16) else 64


def replayed_labels(n_total, sizes, nsim, seed, chunk_size, key_bits=None):
    """Yield (labels, redraws) per replicate from replaying the Monte Carlo runner's draws.

    Chunk i of ``chunk_size`` replicates draws from the i-th child of
    ``SeedSequence(seed)``.  A replicate reads ceil(N key_bits / 64) raw 64-bit outputs
    of its bit generator and cuts each into 64 / key_bits keys, lowest bits first, of
    which it keeps the first N: one key per pooled value in the order of the group
    labels.  Each key's low b = max(1, bit_length(G - 1)) bits are replaced by its
    label and the keys are sorted as Python ints.  If two sorted keys agree above
    their label bits, the replicate is redrawn the same way, from a generator seeded
    with those sorted keys cut into 32-bit words (low word first), until no two
    agree.  The labels in key order label the pooled values in ascending order;
    ``redraws`` counts the redraws.  ``key_bits`` defaults to ``replay_key_bits``.
    """
    template = [g for g, size in enumerate(sizes) for _ in range(size)]
    bits = max(1, (len(sizes) - 1).bit_length())
    low = (1 << bits) - 1
    key_bits = key_bits or replay_key_bits(n_total, len(sizes))
    per_word = 64 // key_bits
    words = -(-n_total // per_word)

    def sorted_keys(bit_generator):
        raw = bit_generator.random_raw(words).tolist()
        keys = [(w >> (key_bits * j)) % (1 << key_bits) for w in raw for j in range(per_word)]
        return sorted((k & ~low) | g for k, g in zip(keys[:n_total], template))

    def collide(keys):
        return len({k >> bits for k in keys}) < n_total

    n_chunks = -(-nsim // chunk_size)
    for i, child in enumerate(np.random.SeedSequence(seed).spawn(n_chunks)):
        bit_generator = np.random.default_rng(child).bit_generator
        for _ in range(min(chunk_size, nsim - i * chunk_size)):
            keys = sorted_keys(bit_generator)
            redraws = 0
            if collide(keys):
                entropy = [part for k in keys for part in (k % 2**32, k >> 32)]
                redraw = np.random.default_rng(entropy).bit_generator
                while collide(keys):
                    keys = sorted_keys(redraw)
                    redraws += 1
            yield [k & low for k in keys], redraws


def sorted_w_star(x, y) -> float:
    """W* of the pair-count definition, each y counted by binary search in sorted x."""
    xs = sorted(x)
    lt = sum(bisect.bisect_left(xs, b) for b in y)
    le = sum(bisect.bisect_right(xs, b) for b in y)
    return lt + (le - lt) / 2


def replayed_statistics(values, sizes, pairs, mu, tau, kind, nsim, seed, chunk_size,
                        key_bits=None):
    """Per-replicate statistic from replaying the Monte Carlo runner's draws
    (``replayed_labels``): every replicate's W* is recomputed by pair counting
    (``sorted_w_star``) and standardized (0 where tau is 0)."""
    pooled = sorted(values)
    stats = []
    for labels, _ in replayed_labels(len(pooled), sizes, nsim, seed, chunk_size, key_bits):
        groups = [[v for v, g in zip(pooled, labels) if g == k] for k in range(len(sizes))]
        w = np.array([sorted_w_star(groups[a], groups[b]) for a, b in pairs])
        z = np.zeros(len(pairs))
        ok = tau > 0
        z[ok] = (w[ok] - mu[ok]) / tau[ok]
        stats.append({"s_max": z.max(), "s_min": z.min(), "s_abs": np.abs(z).max()}[kind])
    return np.array(stats)


def replayed_tail_counts(values, sizes, pairs, mu, tau, kind, thresholds, nsim, seed, chunk_size,
                         key_bits=None):
    """Replayed tail counts per threshold: ``<=`` for s_min, ``>=`` for s_max and s_abs."""
    stats = replayed_statistics(values, sizes, pairs, mu, tau, kind, nsim, seed, chunk_size,
                                key_bits)
    if kind == "s_min":
        return np.array([(stats <= t).sum() for t in thresholds], dtype=np.int64)
    return np.array([(stats >= t).sum() for t in thresholds], dtype=np.int64)


# ---------------------------------------------------------------------------
# the null moments in their classical three-term form, with the tie sums taken
# from the multiplicities here: the oracle for ``pair_moments``


def _tie_sums(d) -> tuple[int, int, int, bool]:
    """N, s2 = sum d(d-1), s3_plus = sum d(d-1)(d+1) and whether one value holds all."""
    return sum(d), sum(m * (m - 1) for m in d), sum(m * (m - 1) * (m + 1) for m in d), len(d) == 1


def var_w_exact(n0: int, ni: int, d) -> Fraction:
    """Null variance of W* of a (n0, ni) pair drawn from a pooled sample of multiplicities d."""
    n, s2, s3_plus, tied = _tie_sums(d)
    if n0 + ni > n:
        raise ValueError(f"n0 + ni = {n0 + ni} exceeds pooled size N = {n}")
    if tied:
        return Fraction(0)
    out = Fraction(n0 * ni * (n0 + ni + 1), 12)
    if s3_plus:
        out -= Fraction(n0 * ni * (n0 + ni - 2) * s3_plus, 12 * n * (n - 1) * (n - 2))
    if s2 and n > n0 + ni:
        out -= Fraction(n0 * ni * (n - n0 - ni) * s2, 4 * n * (n - 1) * (n - 2))
    return out


def cov_w_exact(n0: int, n1: int, n2: int, d) -> Fraction:
    """Null covariance of the two W* sharing the sample of size n0, against n1 and n2."""
    n, s2, s3_plus, tied = _tie_sums(d)
    if n0 + n1 + n2 > n:
        raise ValueError(f"n0 + n1 + n2 = {n0 + n1 + n2} exceeds pooled size N = {n}")
    if tied:
        return Fraction(0)
    out = Fraction(n0 * n1 * n2, 12)
    s3 = s3_plus - 3 * s2
    if s3:
        out -= Fraction(n0 * n1 * n2 * s3, 12 * n * (n - 1) * (n - 2))
    return out


def sigma0_sq_exact(n0: int, d) -> Fraction:
    """Common-factor variance of the control pairs: cov(W_01, W_02) / (n1 n2)."""
    n, s2, s3_plus, tied = _tie_sums(d)
    if tied:
        return Fraction(0)
    out = Fraction(n0, 12)
    s3 = s3_plus - 3 * s2
    if s3:
        out -= Fraction(n0 * s3, 12 * n * (n - 1) * (n - 2))
    return out


def oracle_pair_moments(sizes, d, pairs) -> dict:
    """Covariance, correction ratios and one-factor split of a pair set from the
    formulas above, converting every moment at each use; the one-factor split is
    checked against the covariance for every treatment pair."""
    exact = {}

    def moment(*ns):
        if ns not in exact:
            exact[ns] = (var_w_exact if len(ns) == 2 else cov_w_exact)(*ns, d)
        return exact[ns]

    n_pairs = len(pairs)
    cov = np.zeros((n_pairs, n_pairs), dtype=float)
    ratio = np.empty(n_pairs, dtype=float)
    for p, (a, b) in enumerate(pairs):
        var = moment(sizes[a], sizes[b])
        cov[p, p] = float(var)
        ratio[p] = float(1 - var / Fraction(sizes[a] * sizes[b] * (sizes[a] + sizes[b] + 1), 12))
        for q in range(p + 1, n_pairs):
            c, e = pairs[q]
            shared = {a, b} & {c, e}
            if not shared:
                continue
            s = shared.pop()
            others = [v for v in (a, b, c, e) if v != s]
            sign = 1.0 if (s == a) == (s == c) else -1.0
            cov[p, q] = cov[q, p] = sign * float(moment(sizes[s], *(sizes[v] for v in others)))
    sigma0_2, sigma2 = None, None
    if all(a == 0 for a, _ in pairs):
        n0, treat = sizes[0], sizes[1:]
        s0_sq = sigma0_sq_exact(n0, d)
        sig_sq = [moment(n0, ni) - ni * ni * s0_sq for ni in treat]
        if min(sig_sq) < 0:
            raise AssertionError(f"negative idiosyncratic variance {float(min(sig_sq))}")
        for i in range(len(treat)):
            for j in range(i + 1, len(treat)):
                if moment(n0, treat[i], treat[j]) != treat[i] * treat[j] * s0_sq:
                    raise AssertionError("the one-factor split is inconsistent with the covariance")
        sigma0_2, sigma2 = float(s0_sq), np.array([float(v) for v in sig_sq])
    return {"tau2": np.diag(cov).copy(), "cov": cov, "correction_ratio": ratio,
            "sigma2": sigma2, "sigma0_2": sigma0_2}
