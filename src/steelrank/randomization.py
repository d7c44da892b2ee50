"""Conditional randomization null distributions: exact enumeration and seeded Monte Carlo.

Exact mode is a network walk over the tied value blocks: a state is the cumulative
group counts plus twice the Mann-Whitney values, and after each block the
allocations that reach the same state are merged, their numbers of labeled splits
summed.  Contract: the weights are exact integers at any split count, and work and
memory scale with the live merged states and their fitting expansions, not with
the splits.  The candidate expansions (distinct count rows times block
compositions) are tested for fit in blocks of about _EXPAND_BLOCK cells, 2 MiB of
int64, and expanded in batches of about _EXPAND_BLOCK rows, so candidates that do
not fit cost time but no memory beyond a block.  Given the tie pattern, the sizes
and the pairs, which fix the moments, the walk does not depend on the data:
exact_p_value keeps it standardized with its weights, one entry for every
statistic, in the process's design cache (``_cache.DESIGNS``); walks past 2**63
splits carry Python-int weights and are not kept.  Both engines answer the tail
request of ``check_tail_request`` and count its tails with
``statistics.tail_counts``; ``analysis`` builds the report p-values.

Monte Carlo mode splits the replicates into fixed-size chunks; chunk i draws from an
independent RNG substream derived from (seed, i), always in the same slices and the
same order.  Threads (at most the STEELRANK_THREADS cap) take single slices, not
whole chunks, from whichever free chunk has the most replicates left, and hold a
chunk's generator only while drawing; the tallies are exact integer sums.  Results
are therefore identical for any thread count, and the threads stay busy until the
last slices of a run.  A replicate depends on the data only through its (group,
distinct value) count table, which is drawn one of two ways, chosen by a cost rule
on the design:

* Count tables, when N >= _TABLE_DRAW_RATIO * V * (G - 1) for N values, V distinct
  values and G groups (heavily tied data): block by block in ascending value
  order, G - 1 vectorized hypergeometric draws per block over a whole chunk.  A
  thread holds about CHUNK_SIZE x (groups + pairs) int64 cells, independent of
  N and V.  The draws depend on the chunk size, so each chunk is one slice, the
  whole chain, and the slice budget below does not apply.
* Permutations otherwise: the group labels of the N pooled values are shuffled
  by sorting random keys (Knuth, TAOCP Vol. 2, 3.4.2).  A replicate takes N keys
  of w bits, one per pooled value, from ceil(N w / 64) raw outputs of its chunk's
  PCG64 stream, each output cut into 64 / w keys from its lowest bits up (a rule
  on values, so the keys do not depend on byte order).  It replaces the low
  b = max(1, bit_length(G - 1)) bits of each key by that value's group label and
  sorts the row; the labels in key order label the pooled values in ascending
  order.  The width reads N and G only: w = 32 while two of a row's keys share
  their 32 - b random bits with probability C(N, 2) 2**(b - 32) <= 1/16 (N up to
  16384 at 2 groups, 11585 at 3, 5793 at 10), else w = 64.  A row where two keys
  share their random bits, which the label bits would then order, is redrawn
  from a generator seeded with its own sorted keys until no two share them; the
  redraw takes nothing from the chunk's stream, so slices and threads do not
  change it, and every accepted row is a uniformly random labeling.  32-bit keys
  halve the raw read and the sort of 64-bit ones: on a 2-CPU AVX-512 VM at 10k
  replicates, r1 and untied designs of 300 to 3000 values took 0.48-0.95x the
  time of 64-bit keys with numpy's AVX-512 sort, 0.42-0.69x with its AVX2 sort,
  and the same within noise at x86-64-v2 (README.md).  The bytes are portable: a
  sorted array is unique, so they depend neither on the sort algorithm nor on
  the SIMD level numpy dispatches to, and the raw PCG64 stream is one numpy
  keeps stable.
  Each chunk is drawn in consecutive slices of at most
  ``_SLICE_CELLS`` array cells (replicates times cells per replicate; one
  replicate where a single one is larger), so the memory a thread holds is bounded
  by the slice budget, about 3 MiB, and depends neither on nsim nor on N x groups
  x distinct values.  The budget is sized so that a slice's arrays fit a core's L2
  cache, and each thread keeps its largest one, the slice's bincount keys, from
  slice to slice, so that the memory is not faulted in again per slice.  Slicing
  does not change the draws, so reports are the same as drawing each chunk at
  once.  The draw is the keys, their labels, the row sort and any redraw; the
  bincount and the tally run after the chunk's generator is released.

Both draws sample the same conditional distribution, but from different random
streams: only designs the rule routes to count tables report other Monte Carlo
estimates than a permutation draw would.
"""
from __future__ import annotations

import heapq
import math
import os
import threading
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Iterator, Sequence

import numpy as np

from ._cache import DESIGNS
from .errors import BudgetError, ParameterError, integer
from .moments import MomentSet
from .ranks import RankedSamples, TiePattern, whole
from .statistics import standardize, tail_counts, twice_w

DEFAULT_BUDGET = 10_000_000
CHUNK_SIZE = 4096
_SLICE_CELLS = 1 << 18  # cells of one drawn slice: 2 MiB of int64, fits L2, reused unfaulted
_EXPAND_BLOCK = 1 << 18  # (state, composition) expansions per exact-enumeration batch
_KEY_LIMIT = 1 << 62  # largest radix product of one packed state key
_TABLE_DRAW_RATIO = 12  # N / (V (G-1)) from which count-table draws beat permutations


def worker_count() -> int:
    """Thread cap for Monte Carlo sampling; STEELRANK_THREADS overrides the default."""
    env = os.environ.get("STEELRANK_THREADS", "").strip()
    if env:
        try:
            n = int(env)
        except ValueError:
            n = 0
        if n < 1:
            raise ParameterError(f"STEELRANK_THREADS must be an integer >= 1, got {env!r}")
        return n
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no sched_getaffinity on this platform
        cpus = os.cpu_count() or 1
    return min(8, cpus)


def _slice_rows(cells_per_replicate: int) -> int:
    """Replicates per drawn slice: as many as fit _SLICE_CELLS, at least one."""
    return max(1, _SLICE_CELLS // cells_per_replicate)


def _key_bits(n: int, label_bits: int) -> int:
    """Bits of the permutation draw's sort keys for n pooled values: 32 while two of a
    row's keys share their 32 - label_bits random bits with probability at most
    C(n, 2) 2**(label_bits - 32) <= 1/16, else 64."""
    return 32 if math.comb(n, 2) << (label_bits + 4) <= 1 << 32 else 64


def sample_chunks(
    nsim: int,
    seed: int,
    draw: Callable[[np.random.Generator, int], object],
    tally: Callable[[object], np.ndarray],
    cells_per_replicate: int | None,
) -> np.ndarray:
    """Sum of ``tally(draw(rng, size))`` over the slices of the CHUNK_SIZE-replicate
    chunks, as int64.

    Chunk i draws from substream (seed, i), the i-th child ``SeedSequence(seed).spawn``
    would give, made when the chunk's first slice is handed out.  With an int
    ``cells_per_replicate`` each chunk is drawn in consecutive slices of
    ``max(1, _SLICE_CELLS // cells_per_replicate)`` replicates (the last one shorter);
    ``draw`` must then consume the generator row by row, so that the slices draw
    exactly what one call for the whole chunk would.  The unit is the array cells
    one replicate's draw and tally hold.  With ``None`` each chunk is one slice, for
    draws that read the generator in another order.

    The calling thread and up to min(worker_count(), chunks) - 1 helper threads
    repeat one step: take the next slice of the free chunk with the most replicates
    left, draw it holding that chunk's generator, release the generator and tally
    the draw without it.  A chunk's slices are thus drawn in order and never two at
    once, and the tallies are exact integer sums, so the result does not depend on
    the thread count.  At most threads + 1 chunks are open (started, with slices
    left) at a time, which bounds the live generators; taking the fullest one keeps
    the open chunks draining together, so no thread idles before the last slices.
    An exception from ``draw`` or ``tally`` stops every thread and is raised once
    they have all ended.
    """
    nsim, seed = integer(nsim, "nsim"), integer(seed, "seed")
    if nsim < 1:
        raise ParameterError("nsim must be >= 1")
    if seed < 0:
        raise ParameterError(f"seed must be >= 0, got {seed}")
    n_chunks = -(-nsim // CHUNK_SIZE)
    rows = CHUNK_SIZE if cells_per_replicate is None else _slice_rows(cells_per_replicate)
    threads = min(worker_count(), n_chunks)
    free = []  # heap of (-replicates left, chunk, generator) of the open chunks no thread holds
    opened = 0  # chunks started so far, in index order
    held = 0  # open chunks a thread is drawing a slice of
    errors: list[BaseException] = []
    totals: list[np.ndarray] = []
    state = threading.Condition()

    def take() -> tuple | None:
        """(-replicates left, chunk, generator or None) of the chunk of the next slice."""
        nonlocal opened, held
        with state:
            while not errors:
                new = min(CHUNK_SIZE, nsim - opened * CHUNK_SIZE)  # the next chunk to open
                if new > 0 and len(free) + held <= threads and (not free or -free[0][0] <= new):
                    opened += 1
                    chunk = (-new, opened - 1, None)
                elif free:
                    chunk = heapq.heappop(free)
                elif held:  # every chunk with slices left is being drawn
                    state.wait()
                    continue
                else:
                    return None
                if -chunk[0] > rows:  # it comes back after this slice
                    held += 1
                return chunk
        return None

    def step(neg_left: int, ci: int, rng: np.random.Generator | None) -> np.ndarray:
        """Draw the chunk's next slice, hand the chunk back, then tally the slice."""
        nonlocal held
        if rng is None:
            rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(ci,)))
        drawn = draw(rng, min(rows, -neg_left))
        if -neg_left > rows:
            with state:
                heapq.heappush(free, (neg_left + rows, ci, rng))
                held -= 1
                state.notify_all()
        return tally(drawn)

    def work() -> None:
        total = np.int64(0)  # this thread's running sum of tallies
        try:
            while (chunk := take()) is not None:
                total = total + step(*chunk)
        except BaseException as exc:
            with state:
                errors.append(exc)
                state.notify_all()
        else:
            totals.append(total)

    helpers = [threading.Thread(target=work) for _ in range(threads - 1)]
    for helper in helpers:
        helper.start()
    work()
    for helper in helpers:
        helper.join()
    if errors:
        raise errors[0]
    return sum(totals)


def split_count(sizes: Sequence[int]) -> int:
    """Number of labeled splits of the pooled sample: N! / (n0! * ... * nK!).  A size
    that is not an integer >= 0 is a ParameterError."""
    total = 0
    out = 1
    for size in sizes:
        s = whole(size)
        if s is None or s < 0:
            raise ParameterError(f"sizes must be integers >= 0, got {size!r}")
        total += s
        out *= math.comb(total, s)
    return out


@dataclass(frozen=True)
class PValue:
    estimate: float
    method: str  # exact | monte_carlo | mvn_sample | asymptotic
    nsim: int | None = None
    std_error: float | None = None
    seed: int | None = None


@lru_cache(maxsize=256)
def _compositions(total: int, caps: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray]:
    """Nonnegative integer vectors summing to ``total`` with entry g at most ``caps[g]``,
    in lexicographic order, plus their multinomials; ``total`` is at most sum(caps).

    Only vectors that fit are built: the first entry runs over the values that leave
    a sum the remaining caps can hold.  The multinomials are exact Python ints in an
    object array.
    """
    if len(caps) == 1:
        comps = np.array([[total]], dtype=np.int64)
    else:
        blocks = []
        for first in range(max(0, total - sum(caps[1:])), min(total, caps[0]) + 1):
            sub, _ = _compositions(total - first, caps[1:])
            blk = np.empty((len(sub), len(caps)), dtype=np.int64)
            blk[:, 0] = first
            blk[:, 1:] = sub
            blocks.append(blk)
        comps = np.concatenate(blocks)
    weights = np.array([split_count(row) for row in comps.tolist()], dtype=object)
    comps.setflags(write=False)
    weights.setflags(write=False)
    return comps, weights


def _sum_by_key(key: np.ndarray, wt: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(index of one row per distinct key, exact weight sum per key), keys ascending."""
    order = np.argsort(key)
    key = key[order]
    starts = np.flatnonzero(np.concatenate(([True], key[1:] != key[:-1])))
    return order[starts], np.add.reduceat(wt[order], starts)


def _merge_states(
    states: np.ndarray, wt: np.ndarray, columns: Sequence[int], radices: Sequence[int]
) -> tuple[np.ndarray, np.ndarray]:
    """Rows of ``states`` equal in ``columns`` merged into one row carrying their summed weight.

    The columns are packed into one int64 key in mixed radix; where the running
    radix product would pass _KEY_LIMIT, the partial key is renumbered densely
    before going on.
    """
    key = np.zeros(len(wt), dtype=np.int64)
    span = 1
    for col, radix in zip(columns, radices):
        if span * radix > _KEY_LIMIT:
            uniq, key = np.unique(key, return_inverse=True)
            span = uniq.size
        key = key * radix + states[:, col]
        span *= radix
    first, wt = _sum_by_key(key, wt)
    return states[first], wt


def _expansion_batches(
    cum: np.ndarray, comps: np.ndarray, sizes: np.ndarray
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Batches of (state row, composition) pairs to expand, as two index arrays.

    ``cum`` holds the group counts of the states, equal rows adjacent.  A row is
    expanded by every composition that keeps its counts within ``sizes``.  All
    expansions that reach the same new counts fall into one batch, so merging each
    batch on its own merges completely.  Batches start every _EXPAND_BLOCK
    expansions, at the next change of new counts.

    The fit test runs over blocks of distinct count rows, each holding about
    _EXPAND_BLOCK candidate cells (rows x compositions x groups; one row where a
    single row holds more), and the fitting (row, composition) pairs are joined in
    row-major order, the order one test over all rows would give.
    """
    first = np.flatnonzero(np.concatenate(([True], (cum[1:] != cum[:-1]).any(axis=1))))
    length = np.diff(np.append(first, len(cum)))
    base = cum[first]
    blocks = range(0, len(first), max(1, _EXPAND_BLOCK // comps.size))
    found = [
        np.nonzero((base[lo : lo + blocks.step, None, :] + comps[None, :, :] <= sizes).all(axis=2))
        for lo in blocks
    ]
    gi, gj = found[0]
    if len(found) > 1:
        gi = np.concatenate([bi + lo for (bi, _), lo in zip(found, blocks)])
        gj = np.concatenate([bj for _, bj in found])
    n = length[gi]
    ends = [len(gi)]
    if n.sum() > _EXPAND_BLOCK:  # order by new counts, then cut between them
        target = base[gi] + comps[gj]
        order = np.lexsort(target.T[::-1])
        gi, gj, n, target = gi[order], gj[order], n[order], target[order]
        starts = np.flatnonzero(np.concatenate(([True], (target[1:] != target[:-1]).any(axis=1))))
        batch = (np.cumsum(n) - n)[starts] // _EXPAND_BLOCK
        ends = [*starts[np.flatnonzero(np.diff(batch)) + 1], len(gi)]
    lo = 0
    for hi in ends:
        bn = n[lo:hi]
        rows = np.repeat(first[gi[lo:hi]] - (np.cumsum(bn) - bn), bn) + np.arange(bn.sum())
        yield rows, np.repeat(gj[lo:hi], bn)
        lo = hi


def _check_budget(sizes: Sequence[int], budget: int) -> int:
    """The split count of the sizes, refused when over the budget, an integer >= 0."""
    if integer(budget, "budget") < 0:
        raise ParameterError(f"budget must be >= 0, got {budget!r}")
    total = split_count(sizes)
    if total > budget:
        # str() of a large int is slow, and refused past 4300 digits
        exp = int(math.log10(total))
        shown = total if exp < 18 else f"about 1e{exp}"
        raise BudgetError(
            f"exact enumeration needs {shown} splits, over budget {budget}; "
            "use the monte_carlo method instead"
        )
    return total


def _enumerate_w(
    tie: TiePattern,
    sizes: Sequence[int],
    pairs: Sequence[tuple[int, int]],
    budget: int = DEFAULT_BUDGET,
) -> tuple[np.ndarray, np.ndarray]:
    """Mann-Whitney values of the requested pairs with the number of splits giving each.

    Returns (w, weights): one row per distinct w vector, and exact integer weights
    counting the labeled splits that give it (summing to split_count(sizes)).  The
    weights are int64 below 2**63 splits and Python ints in an object array above.
    Both arrays are read-only.  The budget is checked before walking.

    A network walk over the tie blocks: a state is the cumulative group counts
    and twice the Mann-Whitney values, all integers, and the allocations of the
    blocks so far that reach the same state are merged after each block.
    """
    total = _check_budget(sizes, budget)
    k = len(sizes)
    sizes_arr = np.asarray(sizes, dtype=np.int64)
    a_idx = [a for a, _ in pairs]
    b_idx = [b for _, b in pairs]
    # the key leaves out the last group's count, which the other counts fix
    columns = [*range(k - 1), *range(k, k + len(pairs))]
    radices = [int(n) + 1 for n in sizes[:-1]]
    radices += [2 * int(sizes[a]) * int(sizes[b]) + 1 for a, b in pairs]
    dtype = np.int64 if total < 2**63 else object
    states = np.zeros((1, k + len(pairs)), dtype=np.int64)  # counts, then 2W per pair
    wt = np.ones(1, dtype=dtype)
    moves = {}  # per block size: fitting compositions, their weights, step and slope
    for dv in tie.d:
        if dv not in moves:
            comps, cw = _compositions(dv, tuple(min(dv, int(n)) for n in sizes))
            # a block adds its counts, and to 2W of pair (a, b) k_b * (2 cum_a + k_a)
            step = np.hstack([comps, comps[:, b_idx] * comps[:, a_idx]])
            moves[dv] = comps, cw.astype(dtype), step, 2 * comps[:, b_idx]
        comps, cw, step, slope = moves[dv]
        # merged states come sorted by key, counts leading, so equal counts are adjacent
        parts = []
        for rows, jj in _expansion_batches(states[:, :k], comps, sizes_arr):
            new = states[rows]
            new[:, k:] += slope[jj] * new[:, a_idx]
            new += step[jj]
            parts.append(_merge_states(new, wt[rows] * cw[jj], columns, radices))
        states, wt = parts[0] if len(parts) == 1 else map(np.concatenate, zip(*parts))
    if wt.sum() != total:
        raise AssertionError("enumeration weights do not sum to the split count")
    w = states[:, k:] / 2
    w.setflags(write=False)
    wt.setflags(write=False)
    return w, wt


def check_tail_request(statistic: str, thresholds: Sequence[float]) -> np.ndarray:
    """The thresholds of a tail request as floats, after the checks every tail entry
    makes.  A request is (samples, moments, statistic, thresholds): a MomentSet of
    control or all pairs whose tie pattern the samples have (``check_samples``),
    which standardizes each pair with its mu and tau; s_max, s_min or s_abs, in its
    tail at t when s_min <= t or s_max, s_abs >= t (``in_tail``); and a non-empty
    ascending vector of thresholds without NaN, which is in no tail and would read
    as a tail of 0."""
    if statistic not in ("s_max", "s_min", "s_abs"):
        raise ParameterError(f"statistic must be s_max, s_min or s_abs, got {statistic!r}")
    thr = np.asarray(thresholds, dtype=float)
    if thr.ndim != 1 or thr.size == 0:
        raise ParameterError("thresholds must be a non-empty vector")
    if np.isnan(thr).any():
        raise ParameterError("thresholds must not be NaN")
    if (thr[1:] < thr[:-1]).any():
        raise ParameterError("thresholds must be sorted ascending")
    return thr


def exact_p_value(
    samples: RankedSamples,
    moments: MomentSet,
    statistic: str,
    thresholds: Sequence[float],
    budget: int = DEFAULT_BUDGET,
) -> np.ndarray:
    """Exact tail probabilities of a tail request (``check_tail_request``): at each
    threshold the exact integer count of the splits in the tail over the split
    count, divided as Python ints, so correctly rounded at any split count.

    Only the thresholds depend on the data, so the standardized walk is kept in the
    design cache per tie pattern, sizes and pairs, which fix the moments, for all three
    statistics; a mass is the weight of its rows in the tail (``tail_counts``).  The
    budget is checked on every call, before the cache.
    """
    thr = check_tail_request(statistic, thresholds)
    moments.check_samples(samples)
    tie, sizes, pairs = samples.tie_pattern, samples.sizes, moments.pairs
    total = _check_budget(sizes, budget)

    def walk() -> tuple[np.ndarray, np.ndarray]:
        w, wt = _enumerate_w(tie, sizes, pairs, budget)
        z = standardize(w, moments.mu, moments.tau)
        z.setflags(write=False)
        return z, wt

    z, wt = DESIGNS.get(("exact", tie.d, sizes, pairs), walk)
    return np.array([mass / total for mass in tail_counts(statistic, z, thr, wt).tolist()])


def _draws_count_tables(tie: TiePattern, n_groups: int) -> bool:
    """Whether Monte Carlo draws count tables by block rather than permuting labels.

    Permuting costs about N per replicate, the count-table draw about V (G-1)
    hypergeometric draws; the table draw is the faster above _TABLE_DRAW_RATIO.
    """
    return tie.N >= _TABLE_DRAW_RATIO * tie.e * (n_groups - 1)


def _mc_tail_counts(
    tie: TiePattern,
    sizes: Sequence[int],
    pairs: Sequence[tuple[int, int]],
    mu: np.ndarray,
    tau: np.ndarray,
    kind: str,
    thresholds: np.ndarray,
    nsim: int,
    seed: int,
) -> np.ndarray:
    """Tail counts per threshold over nsim random splits (chunked, reproducible).

    A replicate is its (group, distinct value) count table, drawn one of two ways
    (see _draws_count_tables): by shuffling the group labels of the N pooled values,
    a row sort of random keys that carry them, and taking one bincount per slice,
    or block by block as a chain of hypergeometric draws.  Twice the Mann-Whitney
    values are exact integers (``twice_w``, or its sum block by block), so w = 2W / 2
    is exact; ``tail_counts`` counts the replicates in each tail.
    """
    d = np.asarray(tie.d, dtype=np.int64)
    n_values = d.size
    n_groups = len(sizes)
    sizes = np.asarray(sizes, dtype=np.int64)
    # control pairs or all pairs, as MomentSet checks: each first group a is paired
    # with a+1, ..., last, in order
    firsts = sorted({a for a, _ in pairs})

    def tally_w2(w2: np.ndarray) -> np.ndarray:
        return tail_counts(kind, standardize(w2 / 2, mu, tau), thresholds)

    if _draws_count_tables(tie, n_groups):
        columns = np.cumsum([0] + [n_groups - 1 - a for a in firsts])  # pair columns per first

        def draw_tables(rng: np.random.Generator, reps: int) -> np.ndarray:
            # block by block: the counts k of the block per group are multivariate
            # hypergeometric given the places still free, and 2W of pair (a, b)
            # grows by k_b * (2 cum_a + k_a) with cum_a the count before the block
            free = np.tile(sizes, (reps, 1))
            k = np.empty_like(free)
            w2 = np.zeros((reps, len(pairs)), dtype=np.int64)
            unplaced = tie.N
            for dv in d.tolist():
                left = dv
                rest = unplaced - free[:, 0]
                for g in range(n_groups - 1):
                    k[:, g] = rng.hypergeometric(free[:, g], rest, left)
                    left = left - k[:, g]
                    rest -= free[:, g + 1]
                k[:, -1] = left
                unplaced -= dv
                for a, lo, hi in zip(firsts, columns, columns[1:]):
                    h = sizes[a] - free[:, a : a + 1]
                    h *= 2
                    h += k[:, a : a + 1]
                    w2[:, lo:hi] += k[:, a + 1 :] * h
                free -= k
            return w2

        return sample_chunks(nsim, seed, draw_tables, tally_w2, None)

    value_class = np.repeat(np.arange(n_values, dtype=np.int64), d)
    label_bits = max(1, (n_groups - 1).bit_length())
    key_type = np.dtype(f"<u{_key_bits(tie.N, label_bits) // 8}")
    label_template = np.repeat(np.arange(n_groups), sizes).astype(key_type)
    label_mask = key_type.type((1 << label_bits) - 1)
    words = -(-tie.N * key_type.itemsize // 8)  # raw 64-bit outputs per replicate
    # int64 cells a replicate holds: its count table, its keys and the bincount keys
    # made from them
    cells = n_groups * n_values + tie.N * (8 + key_type.itemsize) // 8
    # bincount key of a cell: its label times n_values plus its row's table start plus
    # its value class, for the rows of the longest slice, which no chunk passes
    row_start = np.arange(min(_slice_rows(cells), CHUNK_SIZE), dtype=np.int64)
    row_start *= n_groups * n_values
    offsets = row_start[:, None] + value_class

    # each thread's slice of bincount keys, kept from slice to slice: made fresh per
    # slice, the arrays were returned to the system and faulted in again on every
    # slice (r1 3x100, 10k replicates: 11k minor faults per call, about 500 kept)
    held = threading.local()

    def sorted_keys(rng: np.random.Generator, reps: int) -> np.ndarray:
        # a random key per pooled value with its group label in the low bits; the
        # keys are the raw outputs' little-endian bytes read as narrower little-endian
        # words, so each output gives its low half first on any machine
        key = rng.bit_generator.random_raw((reps, words)).astype("<u8", copy=False)
        key = key.view(key_type)[:, : tie.N]
        key &= ~label_mask
        key |= label_template
        key.sort(axis=1)
        return key

    def draw_labels(rng: np.random.Generator, reps: int) -> np.ndarray:
        # sorting a row's keys orders its labels at random, and the label of the i-th
        # sorted key goes to the i-th smallest value; a row where two keys share their
        # random bits is redrawn from a generator seeded with its own keys until none
        # do, which takes nothing from the chunk's stream
        key = sorted_keys(rng, reps)
        if not hasattr(held, "cell"):
            held.cell = np.empty((len(offsets), tie.N), dtype=np.int64)
        # the bits neighbouring keys share, in the memory of the thread's bincount keys
        scratch = held.cell[:reps].view(key_type)[:, : tie.N - 1]
        shared = np.bitwise_xor(key[:, 1:], key[:, :-1], out=scratch)
        if shared.min() <= label_mask:
            for i in np.flatnonzero((shared <= label_mask).any(axis=1)):
                redraw = np.random.default_rng(key[i].astype("<u8").view("<u4"))
                while (key[i, 1:] ^ key[i, :-1] <= label_mask).any():
                    key[i] = sorted_keys(redraw, 1)[0]
        return key

    def tally_labels(key: np.ndarray) -> np.ndarray:
        reps = len(key)
        key &= label_mask
        cell = np.multiply(key, n_values, out=held.cell[:reps], dtype=np.int64)
        cell += offsets[:reps]
        counts = np.bincount(cell.ravel(), minlength=reps * n_groups * n_values)
        return tally_w2(twice_w(counts.reshape(reps, n_groups, n_values), firsts))

    return sample_chunks(nsim, seed, draw_labels, tally_labels, cells)


def simulated_tail_counts(
    samples: RankedSamples,
    moments: MomentSet,
    statistic: str,
    thresholds: Sequence[float],
    nsim: int,
    seed: int,
) -> np.ndarray:
    """Monte Carlo tail counts of a tail request (``check_tail_request``) out of nsim
    replicates, int64, from one shared run."""
    thr = check_tail_request(statistic, thresholds)
    moments.check_samples(samples)
    tie, pairs, mu, tau = samples.tie_pattern, moments.pairs, moments.mu, moments.tau
    return _mc_tail_counts(tie, samples.sizes, pairs, mu, tau, statistic, thr, nsim, seed)
