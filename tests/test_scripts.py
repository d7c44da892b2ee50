"""Smoke test of the experiment scripts: each runs to the end in-process."""
import importlib.util
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_reference_example_runs_every_analysis_path(capsys):
    _load("run_reference_example").main()
    out = capsys.readouterr().out
    for mode in ("steel", "confidence", "pairwise"):
        assert f"==== mode={mode} ====" in out
    assert '"direction": "upper"' in out  # alternative "less" gives upper bounds
    assert "full steel report:" in out
