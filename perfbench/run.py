"""steelrank benchmark: one closed-loop client calling steelrank.cli.main in-process.

    python3 perfbench/run.py --workload steel_mc --seed 1 --seconds 25 --trace 0

Run from the root of a checkout; the package is imported from ``src/``.  With
``--trace 0`` the last stdout line holds the end-to-end metrics, with
``--trace 1`` the per-layer metrics of a separate traced run.  Lines before it
give the same numbers by name with units, the thread count, the report digest
and any failed checks.  See perfbench/README.md for what each number means.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from host import cpu_ticks, steal_share

ROOT = Path(__file__).resolve().parent.parent
WORKER = Path(__file__).resolve().parent / "worker.py"
WORK = ROOT / ".perfbench_work"
SETUP_RUNS = 3  # fresh processes timed per run; setup_s is their median
CHILD_TIMEOUT_S = 170


def declared_metrics(trace: int) -> dict[str, str]:
    """Metric name -> unit, in the order BENCHMARK.json declares them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def spawn(argv: list[str]) -> tuple[float, float, dict | None]:
    """Start a worker; return seconds until it reported ``ready``, the host's
    steal share over that time, and the worker's final JSON line."""
    env = dict(os.environ)
    env.pop("STEELRANK_THREADS", None)  # the worker pins it
    ticks = cpu_ticks()
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, str(WORKER), *argv], cwd=ROOT, env=env,
                            stdout=subprocess.PIPE, text=True)
    watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    watchdog.start()
    try:
        ready = proc.stdout.readline()
        setup = time.perf_counter() - start
        steal = steal_share(ticks, cpu_ticks())
        rest = proc.stdout.read()
        rc = proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if ready.strip() != "ready" or rc != 0:
        raise RuntimeError(f"worker {' '.join(argv)} exited with {rc} before finishing")
    lines = rest.strip().splitlines()
    return setup, steal, json.loads(lines[-1]) if lines else None


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (ROOT / "src" / "steelrank" / "cli.py").is_file():
        print(f"perfbench: no steelrank sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)
    base = ["--workload", args.workload, "--seed", str(args.seed)]
    try:
        setups = [] if args.trace else [
            spawn([*base, "--seconds", "0", "--setup-only"])[:2] for _ in range(SETUP_RUNS - 1)
        ]
        *last, result = spawn([*base, "--seconds", str(args.seconds), "--trace", str(args.trace)])
    except (RuntimeError, ValueError, OSError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    measured = result["metrics"]
    if not args.trace:
        setups.append(last)
        measured["setup_s"] = statistics.median(t * (1 - steal) for t, steal in setups)
        result["wall"]["setup_s"] = statistics.median(t for t, _ in setups)
    units = declared_metrics(args.trace)
    if set(units) != set(measured):
        print(f"perfbench: measured {sorted(measured)} but BENCHMARK.json declares {sorted(units)}",
              file=sys.stderr)
        return 1
    metrics = {name: measured[name] for name in units}
    failed = len(result["failures"])

    probe = result["probe"]
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"STEELRANK_THREADS={result['threads']}  ops {result['attempted']}"
          + ("" if args.trace else f"  ({result['p90_beyond']} beyond p90)"))
    print(f"engines {result['engines']}")
    print(f"host steal {result['steal_share']:.1%} of busy CPU time during the loop"
          + ("" if args.trace else "; timings below are wall time x (1 - steal share)"))
    print(f"report digest sha256 {result['digest']} over the first {result['digest_ops']} reports")
    wall = result.get("wall", {})
    for name, value in metrics.items():
        plain = f"  (wall {wall[name]:.6g})" if name in wall and wall[name] != value else ""
        print(f"  {name:40s} {value:.6g} {units[name]}{plain}")
    for line in result["failures"][:10]:
        print(f"  FAILED {line}")
    print(f"exact probe {probe['class']} {' '.join(probe['flags'])}: "
          f"{probe['attempted']} attempted, {probe['failed']} missed the oracle "
          "(known defect, ROADMAP item 3; not counted in 'failed')")
    for line in probe["failures"]:
        print(f"  probe miss {line}")
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, **result, "metrics": metrics}
    (WORK / f"run-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": result["attempted"],
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
