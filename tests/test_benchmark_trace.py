"""The benchmark's traced runs depend on names in the package: perfbench/tracing.py
imports every layer module, wraps private kernels by name and reads their ``nsim``
argument.  This runs its tracer around in-process CLI runs, reading perfbench/
without writing to it, so a rename that would break ``--trace 1`` fails here."""
import importlib
import json
import sys
from pathlib import Path

import pytest

from steelrank import cli

ROOT = Path(__file__).resolve().parents[1]
UNTIED = str(ROOT / "tests" / "data" / "untied_5x5x4.csv")
RUNS = {
    "steel simulated": ["--method", "simulated"],
    "steel exact": ["--method", "exact"],
    "pairwise": ["--mode", "pairwise", "--method", "all"],
    "confidence asymptotic": ["--mode", "confidence", "--method", "asymptotic"],
}


@pytest.fixture
def tracing(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    try:
        yield importlib.import_module("tracing")
    finally:
        sys.modules.pop("tracing", None)


def test_traced_cli_runs_give_every_per_layer_metric(tracing, tmp_path):
    for layer, names in tracing.KERNELS.items():
        module = importlib.import_module(f"steelrank.{layer}")
        assert all(callable(getattr(module, name, None)) for name in names), layer
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for op, extra in enumerate(RUNS.values()):
            tracer.op = op
            out = tmp_path / f"{op}.json"
            argv = ["--input", UNTIED, "--nsim", "2000", "--out", str(out), *extra]
            assert cli.main(argv) == 0
    finally:
        tracer.uninstall()
    assert cli.run.__module__ == "steelrank.cli" and not hasattr(cli.run, "__wrapped__")

    names = {span[3] for span in tracer.spans}
    for kernel in ("randomization._mc_tail_counts", "randomization._enumerate_w",
                   "pairwise._mvn_tail_counts", "gauss._box_mass", "gauss._nodes",
                   "confidence.simultaneous_intervals"):
        assert kernel in names
    metrics = tracing.layer_metrics(tracer.spans, list(range(len(RUNS))), [], {})
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    # the worker adds the two metrics that compare runs rather than read spans
    worker_side = {"trace.overhead_frac", "randomization.exact_probe_failed_frac"}
    assert set(metrics) == {m["name"] for m in spec["per_layer"]} - worker_side
    for name in ("randomization.mc_s", "randomization.mc_rep_per_s", "randomization.exact_s",
                 "pairwise.mvn_rep_per_s", "gauss.box_calls_per_op", "gauss.nodes_per_op",
                 "confidence.interval_s", "cli.parse_s", "cli.render_s", "ranks.rank_s",
                 "statistics.steel_s"):
        assert metrics[name] > 0, name
