"""One benchmark process: import steelrank, warm up, then run the closed loop.

Started by run.py with the checkout root as working directory.  Prints ``ready``
after the import and the warm-up analysis (run.py times set-up up to that line),
then, unless ``--setup-only``, one JSON line with the loop's results.
"""
from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import steelrank.cli as cli  # noqa: E402  (set-up cost starts here)
from steelrank.randomization import worker_count  # noqa: E402

from host import cpu_ticks, steal_share  # noqa: E402
from workloads import EXACT_PROBE, EXACT_PROBE_OPS, WORKLOADS, cli_args, make_operation, write_input  # noqa: E402

WORK = ".perfbench_work"
IN, OUT, OUT_U, OUT_T1 = (f"{WORK}/{n}" for n in ("in.csv", "out.json", "out_untraced.json", "out_t1.json"))


def pin_threads() -> int:
    """STEELRANK_THREADS = min(package default, CPUs this process may run on)."""
    os.environ.pop("STEELRANK_THREADS", None)
    threads = min(worker_count(), len(os.sched_getaffinity(0)))
    os.environ["STEELRANK_THREADS"] = str(threads)
    return threads


def run_op(argv: list[str], out_path: str):
    """Time one cli.main call; a crash counts as a failed operation, not a benchmark error.

    Garbage left by earlier operations and by the checks is collected first: a
    CLI run starts in a fresh process, so it never pays for that garbage.
    """
    if os.path.exists(out_path):
        os.remove(out_path)
    gc.collect()
    start = time.perf_counter()
    try:
        rc, err = cli.main(argv), None
    except (Exception, SystemExit) as exc:
        rc, err = None, f"{type(exc).__name__}: {exc}"
    elapsed = time.perf_counter() - start
    data = Path(out_path).read_bytes() if os.path.exists(out_path) else b""
    return elapsed, rc, err, data


def evaluate(checks, workload, op, rc, err, data):
    if err is not None:
        return [f"exception escaped cli.main: {err}"], None
    if rc != 0:
        return [f"exit code {rc}"], None
    try:
        report = json.loads(data)
    except ValueError:
        return ["report does not parse"], None
    try:
        return checks.check_operation(workload, op, report), report
    except (KeyError, IndexError, TypeError, ValueError) as exc:
        return [f"report is missing or malforms a field: {type(exc).__name__}: {exc}"], report


def run_probe(checks, seed: int) -> dict:
    failures = []
    cls = EXACT_PROBE.classes[0]
    for i in range(EXACT_PROBE_OPS):
        op = make_operation(EXACT_PROBE, cls, seed, i)
        write_input(IN, op.groups)
        _, rc, err, data = run_op(cli_args(EXACT_PROBE, op, IN, OUT), OUT)
        reasons, _ = evaluate(checks, EXACT_PROBE, op, rc, err, data)
        if reasons:
            failures.append(f"{cls.name}#{i}: {reasons[0]}")
    return {"class": cls.name, "flags": list(cls.extra), "attempted": EXACT_PROBE_OPS, "failed": len(failures),
            "failures": failures}


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()
    workload = WORKLOADS[args.workload]
    schedule = workload.schedule()

    threads = pin_threads()
    warm = make_operation(workload, schedule[0], 0, 0)
    write_input(IN, warm.groups)
    run_op(cli_args(workload, warm, IN, OUT), OUT)
    print("ready", flush=True)
    if args.setup_only:
        return 0

    import checks  # scipy.stats: loaded after the set-up mark, users do not pay it
    tracer = None
    if args.trace:
        from tracing import Tracer
        tracer = Tracer()
    # objects alive now (modules, caches) are never garbage; freezing them keeps
    # the per-operation collection cheap
    gc.collect()
    gc.freeze()
    loop = Loop(workload, args.seed, threads, checks, tracer)
    cpu_before = cpu_ticks()
    records = loop.run(args.seconds)
    steal = steal_share(cpu_before, cpu_ticks())
    probe = run_probe(checks, args.seed)

    by_class: dict[str, list[float]] = {}
    for r in records:
        by_class.setdefault(r["cls"], []).append(r["latency"])
    result = {
        "threads": threads,
        "attempted": len(records),
        "p90_beyond": len(records) - math.ceil(0.9 * len(records)),
        "digest": loop.digest.hexdigest(),
        "digest_ops": min(len(records), len(schedule)),
        "failures": [f"{r['cls']}#{k}: {r['reasons'][0]}" for k, r in enumerate(records) if r["reasons"]],
        "probe": probe,
        "engines": {e: sum(r["engine"] == e for r in records) for e in ("exact", "mc", "asym")},
        "steal_share": steal,
        "class_median_s": {c: statistics.median(v) for c, v in by_class.items()},
        "ops": [[r["cls"], r["latency"], r["rss"]] for r in records],
    }
    if tracer is None:
        result["wall"] = end_to_end(workload, records, by_class)
        result["metrics"] = {k: v * (1 - steal) if k.startswith("latency") else v
                             for k, v in result["wall"].items()}
        result["metrics"]["ops_per_s"] /= 1 - steal
    else:
        from tracing import layer_metrics
        engines = {k: r["engine"] for k, r in enumerate(records)}
        layers = layer_metrics(tracer.spans, list(range(len(records))), loop.replays, engines)
        layers["randomization.exact_probe_failed_frac"] = probe["failed"] / probe["attempted"]
        layers["trace.overhead_frac"] = loop.traced_s / loop.untraced_s - 1
        result["metrics"] = layers
        tracer.dump(f"{WORK}/spans-{workload.name}-seed{args.seed}.tsv")
    print(json.dumps(result), flush=True)
    return 0


class Loop:
    """The closed loop: generate an input, call cli.main, check the report, repeat."""

    def __init__(self, workload, seed: int, threads: int, checks, tracer=None) -> None:
        self.workload, self.seed, self.threads = workload, seed, threads
        self.checks, self.tracer = checks, tracer
        self.schedule = workload.schedule()
        self.digest = hashlib.sha256()  # over the reports of the first cycle
        self.traced_s = self.untraced_s = 0.0
        self.replays: list[int] = []

    def run(self, seconds: float) -> list[dict]:
        records = []
        deadline = time.perf_counter() + seconds
        while time.perf_counter() < deadline:
            records.append(self.step(len(records)))
        return records

    def _traced(self, tag, op, out_path: str):
        self.tracer.op = tag
        self.tracer.install()
        try:
            return run_op(cli_args(self.workload, op, IN, out_path), out_path)
        finally:
            self.tracer.uninstall()

    def step(self, i: int) -> dict:
        cls = self.schedule[i % len(self.schedule)]
        op = make_operation(self.workload, cls, self.seed, i)
        write_input(IN, op.groups)
        extra = []
        if self.tracer is None:
            elapsed, rc, err, data = run_op(cli_args(self.workload, op, IN, OUT), OUT)
        else:
            # untraced and traced runs of the same input, alternating which goes first
            plain_first = i % 2 == 0
            if plain_first:
                plain = run_op(cli_args(self.workload, op, IN, OUT_U), OUT_U)
            elapsed, rc, err, data = self._traced(i, op, OUT)
            if not plain_first:
                plain = run_op(cli_args(self.workload, op, IN, OUT_U), OUT_U)
            self.traced_s += elapsed
            self.untraced_s += plain[0]
            if plain[3] != data:
                extra.append("report bytes differ between traced and untraced runs")
        reasons, report = evaluate(self.checks, self.workload, op, rc, err, data)
        engine = self.checks.engine(report)
        if self.tracer is not None and engine == "mc":
            os.environ["STEELRANK_THREADS"] = "1"
            try:
                single = self._traced(("t1", i), op, OUT_T1)
            finally:
                os.environ["STEELRANK_THREADS"] = str(self.threads)
            self.replays.append(i)
            if single[3] != data:
                extra.append(f"report bytes differ at STEELRANK_THREADS=1 vs {self.threads}")
        if i < len(self.schedule):
            self.digest.update(data)
        return {"cls": cls.name, "latency": elapsed, "engine": engine,
                "reasons": reasons + extra, "rss": peak_rss_mb()}


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def end_to_end(workload, records, by_class) -> dict[str, float]:
    lat = sorted(r["latency"] for r in records)
    n = len(lat)
    ok = [r for r in records if not r["reasons"]]
    # throughput at the workload's stated mix: per-class mean latency weighted by
    # class share, so a partly finished cycle does not shift the mix
    weights = {c.name: c.weight for c in workload.classes}
    mix_weight = sum(weights[c] for c in by_class)
    mix_time = sum(weights[c] * statistics.fmean(v) for c, v in by_class.items())
    ok_frac = len(ok) / n
    return {
        "latency_p50_s": statistics.median(lat),
        "latency_p90_s": lat[math.ceil(0.9 * n) - 1],
        "ops_per_s": ok_frac * mix_weight / mix_time,
        "peak_rss_mb": peak_rss_mb(),
        "ok_frac": ok_frac,
    }


if __name__ == "__main__":
    raise SystemExit(main())
