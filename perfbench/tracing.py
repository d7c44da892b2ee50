"""Spans around calls into steelrank's layers, recorded from the benchmark's side.

``Tracer.install`` replaces each layer's public functions (plus the few private
kernels the per-layer metrics need) in every steelrank module namespace that
holds them, so calls made between modules are seen too.  ``uninstall`` restores
the originals, which keeps the untimed-vs-traced comparison fair.

A span is (op, id, parent, name, start, end, work); ``work`` is a count taken
at the boundary (replicates, splits, nodes, differences, allocated bytes).
"""
from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import sys
import threading
import time
import tracemalloc
from collections import defaultdict, namedtuple

LAYERS = ("cli", "ranks", "moments", "statistics", "gauss", "randomization", "pairwise", "confidence")
# private kernels that carry per-layer metrics; public names are found by inspection
KERNELS = {
    "randomization": ("_mc_tail_counts", "_enumerate_w"),
    "pairwise": ("_mvn_tail_counts",),
    "gauss": ("_box_mass", "_nodes"),
}
TAILS = ("tail_prob_max", "tail_prob_min", "tail_prob_abs",
         "tail_prob_max_multi", "tail_prob_min_multi", "tail_prob_abs_multi")


class Span(namedtuple("Span", "op id parent name start end work")):
    @property
    def dur(self) -> float:
        return self.end - self.start

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]


def _nsim(fn):
    sig = inspect.signature(fn)
    return lambda args, kwargs, result: sig.bind(*args, **kwargs).arguments["nsim"]


def _work_extractor(name: str, fn):
    """How to read the work count of a call from its arguments or result."""
    if name in ("_mc_tail_counts", "_mvn_tail_counts"):
        return _nsim(fn)
    if name == "exact_null_distribution":
        return lambda args, kwargs, result: (result.total, len(result.values))
    if name == "pairwise_differences":
        return lambda args, kwargs, result: result.size
    if name == "_nodes":
        return lambda args, kwargs, result: result[0].size
    return None


class Tracer:
    """Span recorder; wrappers are built once and patched in around traced calls only."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.op = None
        self._ids = itertools.count()
        self._local = threading.local()
        self._wrappers: dict[int, object] = {}  # id(original) -> wrapper
        self._patches: list[tuple] = []
        for layer in LAYERS:
            mod = importlib.import_module(f"steelrank.{layer}")
            for name, obj in vars(mod).items():
                public = inspect.isfunction(obj) and obj.__module__ == mod.__name__ and not name.startswith("_")
                if public or name in KERNELS.get(layer, ()):
                    self._wrappers[id(obj)] = self._wrap(f"{layer}.{name}", obj)

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, span_name: str, fn):
        name = span_name.split(".", 1)[1]
        extract = _work_extractor(name, fn)
        alloc = name == "_mc_tail_counts"
        spans = self.spans

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack()
            parent = stack[-1] if stack else -1
            sid = next(self._ids)
            stack.append(sid)
            measure = alloc and not tracemalloc.is_tracing()
            if measure:
                tracemalloc.start()
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
            work = extract(args, kwargs, result) if extract else None
            if alloc:  # (replicates, peak traced bytes or None)
                work = (work, tracemalloc.get_traced_memory()[1] if measure else None)
            if measure:
                tracemalloc.stop()
            spans.append((self.op, sid, parent, span_name, start, end, work))
            return result

        return wrapper

    def install(self) -> None:
        for mod in [m for n, m in sys.modules.items() if n == "steelrank" or n.startswith("steelrank.")]:
            for attr, obj in list(vars(mod).items()):
                wrapper = self._wrappers.get(id(obj))
                if wrapper is not None:
                    setattr(mod, attr, wrapper)
                    self._patches.append((mod, attr, obj))

    def uninstall(self) -> None:
        for mod, attr, obj in self._patches:
            setattr(mod, attr, obj)
        self._patches.clear()

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("op\tid\tparent\tname\tstart\tend\twork\n")
            for span in self.spans:
                fh.write("\t".join(map(str, span)) + "\n")


def layer_metrics(spans, ops: list[int], replays: list[int], engines: dict) -> dict[str, float]:
    """Per-layer metrics from the spans of the main traced runs (op = index) and
    the single-thread replays (op = ("t1", index))."""
    spans = [Span(*s) for s in spans]
    n_ops = max(len(ops), 1)
    main = [s for s in spans if isinstance(s.op, int)]
    names = {s.id: s.name for s in spans}
    covered = defaultdict(float)  # span id -> time covered by its child spans
    for s in main:
        covered[s.parent] += s.dur

    def outermost(s):
        return s.parent == -1 or names[s.parent].split(".")[0] != s.layer

    def select(*wanted, layer=None, outer=False):
        return [s for s in main if (s.name in wanted or s.layer == layer) and (outermost(s) or not outer)]

    def per_op_s(chosen):
        return sum(s.dur for s in chosen) / n_ops

    def rate(chosen, work):
        seconds = sum(s.dur for s in chosen)
        return sum(work(s) for s in chosen) / seconds if seconds > 0 else 0.0

    mc = select("randomization._mc_tail_counts")
    replayed = set(replays)
    single = sum(s.dur for s in spans if s.name == "randomization._mc_tail_counts"
                 and isinstance(s.op, tuple) and s.op[1] in replayed)
    pinned = sum(s.dur for s in mc if s.op in replayed)
    exact = select("randomization.exact_null_distribution")
    tails = select(*(f"gauss.{t}" for t in TAILS), outer=True)
    matrix = select("pairwise.pairwise_moment_matrix")
    factor = select("moments.factor_decomposition")
    shares = defaultdict(int)
    for i in ops:
        shares[engines.get(i)] += 1

    return {
        "randomization.mc_s": per_op_s(mc),
        "randomization.mc_rep_per_s": rate(mc, lambda s: s.work[0]),
        "randomization.mc_thread_speedup": single / pinned if pinned > 0 else 0.0,
        "randomization.mc_peak_alloc_mb": max((s.work[1] or 0 for s in mc), default=0) / 2**20,
        "randomization.exact_s": per_op_s(select("randomization.exact_p_value")),
        "randomization.exact_splits_per_s": rate(exact, lambda s: s.work[0]),
        "randomization.exact_support": sum(s.work[1] for s in exact) / len(exact) if exact else 0.0,
        "cli.exact_share": shares["exact"] / n_ops,
        "cli.mc_share": shares["mc"] / n_ops,
        "cli.asym_share": shares["asym"] / n_ops,
        "pairwise.mc_rep_per_s": rate([s for s in mc if names.get(s.parent) == "pairwise.pairwise_test"],
                                      lambda s: s.work[0]),
        "pairwise.mvn_rep_per_s": rate(select("pairwise._mvn_tail_counts"), lambda s: s.work),
        "pairwise.moment_matrix_s": per_op_s(matrix),
        "pairwise.moment_matrix_calls_per_op": len(matrix) / n_ops,
        "gauss.tail_s": per_op_s(tails),
        "gauss.tail_calls_per_op": len(tails) / n_ops,
        "gauss.solve_s": per_op_s(select("gauss.solve_common_threshold")),
        "gauss.box_calls_per_op": len(select("gauss._box_mass")) / n_ops,
        "gauss.nodes_per_op": sum(s.work for s in select("gauss._nodes")) / n_ops,
        "confidence.interval_s": per_op_s(
            select("confidence.simultaneous_bounds", "confidence.simultaneous_intervals", outer=True)),
        "confidence.select_s": per_op_s(select("confidence.select_indices")),
        "confidence.diffs_per_op": sum(s.work for s in select("confidence.pairwise_differences")) / n_ops,
        "moments.factor_s": per_op_s([s for s in factor if outermost(s)]),
        "moments.factor_calls_per_op": len(factor) / n_ops,
        "ranks.rank_s": per_op_s(select(layer="ranks", outer=True)),
        "statistics.steel_s": per_op_s(select(layer="statistics", outer=True)),
        "cli.parse_s": per_op_s(select("cli.read_groups", "cli.build_parser")),
        "cli.render_s": per_op_s(select("cli.render_json", "cli.render_text")),
        "cli.self_s": sum(s.dur - covered[s.id] for s in select(layer="cli")) / n_ops,
    }
