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


def test_approximation_quality_writes_one_csv_per_scenario(monkeypatch, tmp_path, capsys):
    argv = ["approximation_quality.py", "--nsim", "500", "--out-dir", str(tmp_path)]
    monkeypatch.setattr("sys.argv", argv)
    _load("approximation_quality").main()
    names = ("normal_no_ties", "normal_rounded_1dp", "two_valued", "nine_valued")
    for name in names:
        lines = (tmp_path / f"{name}.csv").read_text().splitlines()
        assert lines[0] == "threshold,p_sim,p_asym_adj,p_asym_unadj"
        assert len(lines) == 7  # the header and one row per p-grid entry
        for line in lines[1:]:
            assert len(line.split(",")) == 4
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(f"{n}.csv" for n in names)
    assert capsys.readouterr().out.count("wrote") == 4
