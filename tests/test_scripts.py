"""Smoke test of the experiment scripts: each runs to the end in-process."""
import importlib.util
from pathlib import Path

import pytest

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


def test_readme_library_example_gives_the_values_its_comments_give(capsys):
    ns = _load("readme_example").main()
    out = capsys.readouterr().out
    assert out.count("(README: ") == 4 and 'obs.statistic == "s_min": True' in out
    # the full values behind the rounded comments
    assert ns["p_asym"] == 0.09459608006223369
    assert (ns["p_mc"], ns["p_all"], ns["p_exact"]) == (0.1033, 0.32556, 0.31666666666666665)


def test_readme_example_refuses_a_comment_its_value_does_not_give(monkeypatch, tmp_path):
    module = _load("readme_example")
    readme = module.README.read_text(encoding="utf-8").replace("# 0.0946", "# 0.0947")
    monkeypatch.setattr(module, "README", tmp_path / "README.md")
    module.README.write_text(readme, encoding="utf-8")
    with pytest.raises(SystemExit, match="0.0947"):
        module.main()
