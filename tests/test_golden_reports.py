"""Byte-exact CLI reports on fixed inputs.

The files under data/golden/ pin every byte of the report, so a refactor that
is meant to keep behaviour must keep them.  The path-dependent ``config.input``
value is replaced by the input file's name before comparing.  After a change
that is meant to alter reports, regenerate them with

    PYTHONPATH=src python tests/test_golden_reports.py [case ...]

which rewrites the named cases, or every case when none is named.
"""
from pathlib import Path

import pytest

from steelrank import _cache, randomization
from steelrank.cli import main

DATA = Path(__file__).parent / "data"
GOLDEN = DATA / "golden"
IQ = ["--input", str(DATA / "iq_birth_condition.csv")]
LIKERT = ["--input", str(DATA / "likert_small.csv")]
R1 = ["--input", str(DATA / "r1_10x50.csv")]
UNTIED = ["--input", str(DATA / "untied_5x5x4.csv")]
TWO = ["--input", str(DATA / "two_valued_3x20.csv")]
TIED = ["--input", str(DATA / "fully_tied_2x3x2.csv")]
MC = ["--nsim", "20000", "--seed", "3"]
ASYM_CONF = ["--mode", "confidence", "--method", "asymptotic", "--round-eps", "0.5"]

CASES = {
    "steel_greater_all": IQ + ["--alternative", "greater"] + MC,
    "steel_less_asymptotic_continuity": IQ + ["--alternative", "less", "--method",
                                              "asymptotic", "--continuity"],
    "steel_two_sided_conservative": IQ + ["--method", "simulated", "--conservative-mc"] + MC,
    "steel_exact_likert": LIKERT + ["--alternative", "greater"],
    "steel_exact_likert_less": LIKERT + ["--alternative", "less", "--method", "exact"],
    "steel_exact_likert_two_sided_text": LIKERT + ["--output", "text"],
    "pairwise_all": IQ + ["--mode", "pairwise", "--method", "all"] + MC,
    "confidence_bounds_less": IQ + ASYM_CONF + ["--alternative", "less", "--conf-level", "0.9"],
    "confidence_intervals": IQ + ASYM_CONF,
    "harness_greater": IQ + ["--mode", "quality_harness", "--alternative", "greater"] + MC,
    "harness_less": IQ + ["--mode", "quality_harness", "--alternative", "less"] + MC,
    "steel_simulated_r1_10x50": R1 + ["--method", "simulated", "--nsim", "10000", "--seed", "5"],
    "pairwise_all_r1_10x50": R1 + ["--mode", "pairwise", "--method", "all", "--nsim", "10000",
                                   "--seed", "5"],
    "steel_all_untied_5x5x4_greater": UNTIED + ["--method", "all", "--alternative", "greater"],
    "steel_all_untied_5x5x4_two_sided": UNTIED + ["--method", "all", "--alternative", "two-sided"],
    # two-valued 3x20 draws count tables, the r1 and IQ cases permute labels
    "steel_simulated_two_valued_3x20": TWO + ["--method", "simulated", "--alternative",
                                              "greater"] + MC,
    "pairwise_simulated_two_valued_3x20": TWO + ["--mode", "pairwise", "--method",
                                                 "simulated"] + MC,
    # s_min through steel Monte Carlo, s_max and s_min through pairwise Monte Carlo
    # and MVN sampling, s_abs through the harness
    "steel_simulated_less": IQ + ["--alternative", "less", "--method", "simulated"] + MC,
    "pairwise_all_greater": IQ + ["--mode", "pairwise", "--method", "all",
                                  "--alternative", "greater"] + MC,
    "pairwise_all_less": IQ + ["--mode", "pairwise", "--method", "all",
                               "--alternative", "less"] + MC,
    "harness_two_sided": IQ + ["--mode", "quality_harness", "--alternative", "two-sided"] + MC,
    # which engines each mode runs per --method, and the degenerate-data warnings
    "steel_all_fully_tied": TIED + ["--method", "all"],
    "pairwise_all_fully_tied": TIED + ["--mode", "pairwise", "--method", "all", "--nsim", "2000",
                                       "--seed", "3"],
    "pairwise_asymptotic": IQ + ["--mode", "pairwise", "--method", "asymptotic"] + MC,
}


def render(name: str, out: Path) -> str:
    args = CASES[name]
    assert main(args + ["--out", str(out)]) == 0
    path = args[args.index("--input") + 1]
    return out.read_text(encoding="utf-8").replace(path, Path(path).name)


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_matches_golden(name, tmp_path):
    """Steel and confidence reports are rendered twice: with the per-process caches
    cold (the conftest fixture empties them) and then warm from the first run."""
    expected = (GOLDEN / f"{name}.txt").read_text(encoding="utf-8")
    assert render(name, tmp_path / "cold") == expected
    if name.startswith(("steel", "confidence")):
        assert _cache.DESIGNS._items
        assert render(name, tmp_path / "warm") == expected


def test_exact_reports_of_one_design_walk_once_per_statistic(monkeypatch, tmp_path):
    """The three exact Likert cases test s_max, s_min and s_abs on one design: the
    first pass walks once for each statistic's tail table, the second reads them."""
    walks = []
    walk = randomization._enumerate_w
    monkeypatch.setattr(randomization, "_enumerate_w", lambda *a: walks.append(a) or walk(*a))
    names = ("steel_exact_likert", "steel_exact_likert_less", "steel_exact_likert_two_sided_text")
    for rendered in (3, 0):
        walks.clear()
        for name in names:
            expected = (GOLDEN / f"{name}.txt").read_text(encoding="utf-8")
            assert render(name, tmp_path / name) == expected
        assert len(walks) == rendered


if __name__ == "__main__":
    import sys
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        for case in sys.argv[1:] or sorted(CASES):
            text = render(case, Path(tmp) / "report")
            (GOLDEN / f"{case}.txt").write_text(text, encoding="utf-8")
