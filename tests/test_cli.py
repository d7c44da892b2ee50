import codecs
import json
from pathlib import Path

import numpy as np
import pytest

from steelrank import ParameterError, pair_moments, rank_samples
from steelrank.analysis import quality_harness
from steelrank.cli import RunConfig, build_parser, main, render_json, run
from steelrank.gauss import MAX_NODES
from steelrank.moments import control_pairs

from _oracles import two_valued_tail

DATA = Path(__file__).parent / "data"
IQ = str(DATA / "iq_birth_condition.csv")


def run_main(capsys, args):
    code = main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_steel_mode_reproduces_reference_values(capsys):
    code, out, _ = run_main(
        capsys,
        ["--input", IQ, "--alternative", "less", "--method", "all",
         "--nsim", "100000", "--seed", "20260809", "--mode", "steel"],
    )
    assert code == 0
    report = json.loads(out)
    obs = report["observation"]
    assert obs["w_star"] == [7, 17, 12.5]
    assert abs(obs["s_min"] - (-1.7713)) <= 5e-5
    assert abs(report["p_values"]["asymptotic"]["estimate"] - 0.0946) <= 5e-4
    p_sim = report["p_values"]["monte_carlo"]["estimate"]
    assert abs(p_sim - 0.10474) <= 3 * np.sqrt(0.10474 * (1 - 0.10474) / 100000)
    assert report["moments"]["tau"] == [6.210249083] * 3


def test_reports_are_byte_identical_across_runs_and_workers(capsys, monkeypatch):
    args = ["--input", IQ, "--alternative", "less", "--method", "simulated",
            "--nsim", "20000", "--seed", "7"]
    monkeypatch.setenv("STEELRANK_THREADS", "1")
    _, first, _ = run_main(capsys, args)
    monkeypatch.setenv("STEELRANK_THREADS", "8")
    _, second, _ = run_main(capsys, args)
    monkeypatch.delenv("STEELRANK_THREADS")
    _, third, _ = run_main(capsys, args)
    assert first == second == third


def test_json_round_trip_is_canonical(capsys):
    _, out, _ = run_main(capsys, ["--input", IQ, "--method", "asymptotic"])
    assert render_json(json.loads(out)) == out


def test_csv_wide_and_whitespace_formats(tmp_path, capsys):
    # (format, text, sizes); blank and all-empty lines are skipped in every format
    cases = [
        ("csv_wide", "a,b,c\n1,4,7\n2,5,8\n3,6,\n,9,\n", [3, 4, 2]),
        ("csv_wide", "a,b,c\n1,4,7\n\n2,5,8\n, ,\n3,6,\n,9,\n", [3, 4, 2]),
        ("whitespace", "ctrl 1 2 3\nt1 4 5 6 7\nt1 8\n", [3, 5]),
        ("whitespace", "ctrl 1 2 3\n\n   \nt1 4 5 6 7\nt1 8\n", [3, 5]),
        ("csv_long", "group,value\na,1\n\n , \na,2\nb,3\nb,4\n", [2, 2]),
    ]
    for i, (fmt, text, sizes) in enumerate(cases):
        f = tmp_path / f"data{i}.txt"
        f.write_text(text)
        _, out, _ = run_main(
            capsys, ["--input", str(f), "--format", fmt, "--method", "asymptotic"]
        )
        report = json.loads(out)
        assert report["groups"]["sizes"] == sizes


def test_parse_error_reports_line_number(tmp_path, capsys):
    # (format, text, the message part naming where the input goes wrong)
    cases = [
        ("csv_long", "group,value\na,1\na,2\nb,oops\nb,4\n", "line 4"),
        ("csv_long", "group,value\na,1\n\na,2,3\nb,4\n", "line 4: expected two columns"),
        ("csv_wide", "", "line 1: empty input"),
        ("csv_wide", "a, ,c\n1,2,3\n", "line 1: every column needs a group label"),
        ("csv_wide", "A,B,A\n1,2,3\n4,5,6\n", "line 1: duplicate group label 'A'"),
        ("csv_long", "group,value\na,1\n,2\nb,3\n", "line 3: empty group label"),
        ("csv_long", "a,1\n ,2\nb,oops\n", "line 2: empty group label"),
        ("csv_wide", "a,b\n1,2\n3,4,5\n", "line 3: more cells than header columns"),
        ("whitespace", "ctrl 1 2\nt1\n", "line 2: expected a label and at least one value"),
        ("csv_long", "group,value\na,1\na,2\n", "need at least two non-empty groups"),
        ("csv_wide", "a,b\n1,\n2,\n", "need at least two non-empty groups"),
        # NaN cannot be ranked; the parser names its line in every format
        ("csv_long", "g0,1\ng1,2\ng1,nan\n", "line 3: NaN value 'nan'"),
        ("csv_wide", "a,b\n1,2\n3,NaN\n", "line 3: NaN value 'NaN'"),
        ("whitespace", "a 1 2\nb 3 -nan 4\n", "line 2: NaN value '-nan'"),
        # csv.reader refuses a lone carriage return inside a line
        ("csv_long", "group,value\na,1\rb,2\nb,3\na,4\n",
         "line 2: new-line character seen in unquoted field"),
        ("csv_wide", "a,b\n1,2\n3,4\r5\n", "line 3: new-line character seen in unquoted field"),
        # a Latin-1 export is not UTF-8 in any format
        ("csv_long", "group,value\na,1\nb,caf\xe9\n".encode("latin-1"),
         "line 3: byte 0xe9 is not UTF-8"),
        ("csv_wide", codecs.BOM_UTF8 + "a,b\n1,2\n3,\xb14\n".encode("latin-1"),
         "line 3: byte 0xb1 is not UTF-8"),
        ("whitespace", "a 1 2\r\nb\xe9 3 4\r\n".encode("latin-1"), "line 2: byte 0xe9 is not UTF-8"),
    ]
    for i, (fmt, text, where) in enumerate(cases):
        bad = tmp_path / f"bad{i}.txt"
        bad.write_bytes(text.encode() if isinstance(text, str) else text)
        code, out, err = run_main(capsys, ["--input", str(bad), "--format", fmt])
        assert code == 2 and out == ""
        payload = json.loads(err)
        assert payload["error"]["type"] == "ParameterError"
        assert where in payload["error"]["message"]


def test_each_group_is_converted_once_and_the_pool_sorted_once(monkeypatch, capsys):
    import steelrank.ranks as ranks

    converted, sorts = [], []
    as_scores = ranks._as_scores
    monkeypatch.setattr(ranks, "_as_scores", lambda v: converted.append(v) or as_scores(v))
    for name in ("sort", "argsort", "unique"):
        original = getattr(np, name)
        monkeypatch.setattr(np, name, lambda *a, _f=original, **k: sorts.append(1) or _f(*a, **k))
    runs = [["--mode", "confidence", "--alternative", alt, *eps]
            for alt in ("two-sided", "less") for eps in ([], ["--round-eps", "0.5"])]
    runs += [["--mode", "pairwise", "--nsim", "500"], ["--nsim", "500", "--method", "simulated"],
             ["--mode", "quality_harness", "--nsim", "500", "--alternative", "greater"]]
    for extra in runs:
        converted.clear()
        sorts.clear()
        code, _, _ = run_main(capsys, ["--input", IQ, "--method", "asymptotic", *extra])
        assert code == 0 and len(converted) == 4, extra
        if "quality_harness" not in extra:  # the harness also orders its thresholds
            assert len(sorts) == 1, extra


def test_unknown_control_group(capsys):
    code, _, err = run_main(capsys, ["--input", IQ, "--control", "nope"])
    assert code == 2
    assert "nope" in json.loads(err)["error"]["message"]


def test_exact_over_budget_suggests_monte_carlo(tmp_path, capsys):
    rng = np.random.default_rng(0)
    f = tmp_path / "big.csv"
    lines = ["group,value"]
    for g in ("a", "b"):
        lines += [f"{g},{v:.6f}" for v in rng.normal(size=40)]
    f.write_text("\n".join(lines) + "\n")
    code, _, err = run_main(capsys, ["--input", str(f), "--method", "exact"])
    assert code == 2
    payload = json.loads(err)
    assert payload["error"]["type"] == "BudgetError"
    assert "monte_carlo" in payload["error"]["message"]


def test_exact_past_2_pow_53_splits_is_exact_and_all_answers_exact(tmp_path, capsys):
    # two-valued 3x20 has 5.8e26 splits: float weights gave exact p = 3.1e-9 here, MC gives 1
    rng = np.random.default_rng(1)
    groups = [rng.integers(0, 2, size=20) for _ in range(3)]
    f = tmp_path / "two_valued.csv"
    lines = ["group,value"]
    for g, values in zip(("a", "b", "c"), groups):
        lines += [f"{g},{v}" for v in values]
    f.write_text("\n".join(lines) + "\n")
    samples = rank_samples(groups)
    ms = pair_moments(samples.sizes, samples.tie_pattern, control_pairs(samples.n_groups))
    budget = ["--input", str(f), "--exact-budget", str(10**30), "--nsim", "2000"]
    for alternative, statistic in (("greater", "s_max"), ("less", "s_min"), ("two-sided", "s_abs")):
        want = float(two_valued_tail(groups, ms.mu, ms.tau, statistic))
        for method in ("exact", "all"):
            args = budget + ["--alternative", alternative, "--method", method]
            code, out, _ = run_main(capsys, args)
            assert code == 0
            p_values = json.loads(out)["p_values"]
            assert set(p_values) == {"asymptotic", "exact"}
            assert p_values["exact"]["estimate"] == pytest.approx(want, rel=1e-9)


def test_degenerate_single_value_groups(tmp_path, capsys):
    f = tmp_path / "deg.csv"
    f.write_text("group,value\na,5\nb,5\n")
    _, out, _ = run_main(
        capsys, ["--input", str(f), "--mode", "confidence", "--seed", "1"]
    )
    report = json.loads(out)
    for pv in report["p_values"].values():
        assert pv["estimate"] == 1.0
    assert report["warnings"]
    conf = report["confidence"]
    assert conf["unreachable"]
    assert conf["lower"] == [0] and conf["upper"] == [0]


def test_confidence_mode_directions(capsys):
    _, out, _ = run_main(
        capsys,
        ["--input", IQ, "--mode", "confidence", "--alternative", "less",
         "--method", "asymptotic", "--conf-level", "0.9", "--round-eps", "0.5"],
    )
    report = json.loads(out)
    conf = report["confidence"]
    assert conf["direction"] == "upper"
    assert conf["widened_by"] == 0.5
    assert conf["lower"] == [None, None, None]
    assert len(conf["upper"]) == 3


def _parameter_error_runs(tmp_path):
    """(input, mode, method) runs covering every mode, also where no quadrature runs."""
    likert = str(DATA / "likert_small.csv")
    tied = tmp_path / "tied.csv"
    tied.write_text("a,5\na,5\nb,5\n")
    return [
        (likert, "steel", "asymptotic"),
        (likert, "confidence", "asymptotic"),
        (IQ, "pairwise", "all"),
        (str(tied), "steel", "all"),
    ]


def test_node_count_below_one_is_a_parameter_error(tmp_path, capsys):
    for path, mode, method in _parameter_error_runs(tmp_path):
        for bad in ("0", "-5"):
            args = ["--input", path, "--mode", mode, "--method", method, "--nodes", bad]
            code, out, err = run_main(capsys, args)
            assert code == 2 and out == ""
            payload = json.loads(err)
            assert payload["error"]["type"] == "ParameterError"
            assert "nodes" in payload["error"]["message"]


def test_parser_is_built_once_and_usage_exits_are_unchanged(capsys):
    assert build_parser() is build_parser()
    helps = []
    for _ in range(2):  # the cached parser gives the same help and exit codes every time
        with pytest.raises(SystemExit) as exit_help:
            main(["--help"])
        helps.append(capsys.readouterr().out)
        assert exit_help.value.code == 0
        with pytest.raises(SystemExit) as exit_usage:
            main(["--mode", "steel"])  # --input is required
        assert exit_usage.value.code == 2 and "--input" in capsys.readouterr().err
    assert helps[0] == helps[1] and "--nodes" in helps[0]


def test_node_count_above_the_cap_is_a_parameter_error(tmp_path, capsys):
    # the cap bounds leggauss's O(n^2) memory and O(n^3) time before any quadrature runs
    for path, mode, method in _parameter_error_runs(tmp_path):
        for bad in (str(MAX_NODES + 1), "1000000000"):
            args = ["--input", path, "--mode", mode, "--method", method, "--nodes", bad]
            code, out, err = run_main(capsys, args)
            assert code == 2 and out == ""
            payload = json.loads(err)
            assert payload["error"]["type"] == "ParameterError"
            assert str(MAX_NODES) in payload["error"]["message"]


def test_epsilon_outside_the_open_unit_interval_is_a_parameter_error(tmp_path, capsys):
    likert = str(DATA / "likert_small.csv")
    runs = [(likert, "quality_harness", "all")] + _parameter_error_runs(tmp_path)
    for path, mode, method in runs:
        for bad in ("5", "nan", "0", "1", "-0.1"):
            args = ["--input", path, "--mode", mode, "--method", method, "--nsim", "100",
                    f"--epsilon={bad}"]
            code, out, err = run_main(capsys, args)
            assert code == 2 and out == "", (mode, bad)
            payload = json.loads(err)
            assert payload["error"]["type"] == "ParameterError"
            assert "epsilon" in payload["error"]["message"]


def test_negative_seed_is_a_parameter_error(tmp_path, capsys):
    runs = [(IQ, "steel", "simulated"), (IQ, "pairwise", "simulated")]
    for path, mode, method in runs + _parameter_error_runs(tmp_path):
        args = ["--input", path, "--mode", mode, "--method", method, "--nsim", "100",
                "--seed", "-1"]
        code, out, err = run_main(capsys, args)
        assert code == 2 and out == ""
        payload = json.loads(err)
        assert payload["error"]["type"] == "ParameterError"
        assert "seed" in payload["error"]["message"]


def test_non_finite_round_eps_is_a_parameter_error(capsys):
    for bad in ("nan", "inf", "-inf", "-0.5"):
        args = ["--input", IQ, "--mode", "confidence", "--method", "asymptotic",
                f"--round-eps={bad}"]
        code, out, err = run_main(capsys, args)
        assert code == 2 and out == ""
        payload = json.loads(err)
        assert payload["error"]["type"] == "ParameterError"
        assert "round-eps" in payload["error"]["message"]


def test_confidence_mode_rejects_infinite_data_but_rank_tests_accept_it(tmp_path, capsys):
    f = tmp_path / "inf.csv"
    f.write_text("group,value\nc,1\nc,inf\nc,3\nc,4\nt,2\nt,inf\nt,5\nt,6\n")
    code, out, err = run_main(
        capsys, ["--input", str(f), "--mode", "confidence", "--method", "asymptotic"]
    )
    assert code == 2 and out == ""
    payload = json.loads(err)
    assert payload["error"]["type"] == "ParameterError"
    assert "group 0 index 1" in payload["error"]["message"]
    # +-inf are orderable, so the rank test itself still answers
    code, out, _ = run_main(capsys, ["--input", str(f), "--method", "exact"])
    assert code == 0
    assert 0 < json.loads(out)["p_values"]["exact"]["estimate"] <= 1


def test_confidence_mode_rejects_data_whose_differences_overflow(tmp_path, capsys):
    f = tmp_path / "huge.csv"
    rows = [("c", v) for v in (-1e308, -1.1e308, -1.2e308, 0.0, 1.0, 2.0)]
    rows += [("t", v) for v in (1e308, 1.1e308, 1.2e308, 5.0, 6.0, 7.0)]
    f.write_text("group,value\n" + "".join(f"{g},{v!r}\n" for g, v in rows))
    for alternative in ("less", "greater", "two-sided"):
        code, out, err = run_main(capsys, ["--input", str(f), "--mode", "confidence",
                                           "--method", "asymptotic", "--alternative", alternative])
        assert code == 2 and out == ""
        payload = json.loads(err)  # the whole of stderr: no numpy overflow warning
        assert payload["error"]["type"] == "ParameterError"
        assert "group 1 minus group 0 overflows" in payload["error"]["message"]


def test_pairwise_mode(capsys):
    _, out, _ = run_main(
        capsys,
        ["--input", IQ, "--mode", "pairwise", "--method", "all",
         "--nsim", "20000", "--seed", "3"],
    )
    report = json.loads(out)
    assert report["pairwise"]["pairs"] == ["1-2", "1-3", "1-4", "2-3", "2-4", "3-4"]
    assert set(report["p_values"]) == {"monte_carlo", "mvn_sample"}
    for pv in report["p_values"].values():
        assert 0 <= pv["estimate"] <= 1


def test_pairwise_mode_refuses_the_exact_method(capsys):
    code, out, err = run_main(capsys, ["--input", IQ, "--mode", "pairwise", "--method", "exact"])
    assert (code, out) == (2, "")
    assert json.loads(err) == {"error": {
        "type": "ParameterError",
        "message": "pairwise mode supports methods: asymptotic (mvn), simulated, all",
    }}


def test_harness_without_ties_columns_coincide():
    rng = np.random.default_rng(15)
    groups = [rng.normal(size=30).tolist() for _ in range(3)]
    rows = quality_harness(groups, "greater", p_grid=(0.2, 0.05), nsim=2000, seed=2)
    for row in rows:
        assert abs(row["p_asym_adj"] - row["p_asym_unadj"]) <= 1e-12
        assert set(row) == {"threshold", "p_sim", "p_asym_adj", "p_asym_unadj"}


def test_harness_rejects_p_grid_entries_outside_the_open_unit_interval():
    rng = np.random.default_rng(15)
    groups = [np.round(rng.normal(size=12), 1).tolist() for _ in range(3)]
    for bad in (1.5, 0.0, 1.0, -0.1, float("nan"), float("inf")):
        for alternative in ("greater", "less", "two_sided"):
            with pytest.raises(ParameterError, match="p_grid"):
                quality_harness(groups, alternative, p_grid=(0.1, bad), nsim=200)


def test_harness_mode_text_output_is_csv(tmp_path, capsys):
    rng = np.random.default_rng(1)
    f = tmp_path / "h.csv"
    lines = ["group,value"]
    for g in ("a", "b", "c"):
        lines += [f"{g},{v:.1f}" for v in rng.normal(size=25)]
    f.write_text("\n".join(lines) + "\n")
    code, out, _ = run_main(
        capsys,
        ["--input", str(f), "--mode", "quality_harness", "--nsim", "5000",
         "--seed", "4", "--output", "text", "--alternative", "greater"],
    )
    assert code == 0
    assert "threshold,p_sim,p_asym_adj,p_asym_unadj" in out


def test_harness_mode_refuses_fully_tied_data(tmp_path, capsys):
    f = tmp_path / "tied.csv"
    f.write_text("group,value\na,1\na,1\nb,1\nb,1\nc,1\n")
    code, out, err = run_main(
        capsys, ["--input", str(f), "--mode", "quality_harness", "--nsim", "200"]
    )
    assert code == 2 and out == ""
    assert json.loads(err) == {"error": {
        "type": "ParameterError",
        "message": "tau must be strictly positive (degenerate data carry no test)",
    }}


def test_pre_round_flag(tmp_path, capsys):
    f = tmp_path / "r.csv"
    f.write_text("group,value\na,1.04\na,1.06\nb,2.11\nb,2.12\n")
    _, out, _ = run_main(
        capsys, ["--input", str(f), "--pre-round", "1", "--method", "asymptotic"]
    )
    report = json.loads(out)
    # 1.04 and 1.06 collapse onto 1.0/1.1; 2.11 and 2.12 onto 2.1
    assert report["diagnostics"]["max_tie_fraction"] == 0.5


def test_out_file(tmp_path):
    target = tmp_path / "report.json"
    code = main(["--input", IQ, "--method", "asymptotic", "--out", str(target)])
    assert code == 0
    assert json.loads(target.read_text())["schema_version"] == 1


def test_run_config_direct():
    report = run(RunConfig(input=IQ, method="asymptotic", alternative="less"))
    assert report["observation"]["statistic"] == "s_min"


def test_settings_outside_their_range_are_parameter_errors(capsys):
    for flag, value, message in (("--nsim", "0", "nsim must be >= 1"),
                                 ("--conf-level", "1.5", "conf-level must be in (0, 1)"),
                                 ("--exact-budget", "-1", "exact-budget must be >= 0")):
        code, out, err = run_main(capsys, ["--input", IQ, flag, value])
        assert code == 2 and out == ""
        payload = json.loads(err)
        assert payload["error"]["type"] == "ParameterError"
        assert message in payload["error"]["message"]
    # choices argparse enforces on the command line, checked again for a RunConfig
    for field in ("mode", "format", "method", "output"):
        with pytest.raises(ParameterError, match=f"{field} must be"):
            run(RunConfig(input=IQ, **{field: "bogus"}))


@pytest.mark.parametrize("field", ["nsim", "seed", "nodes", "exact_budget", "pre_round"])
@pytest.mark.parametrize("value", [2.5, 20.0, True, False])
def test_integer_settings_refuse_floats_and_bools(field, value):
    # a float reached range, seed, node and rounding code that needs an int, and True ran as 1
    with pytest.raises(ParameterError, match=f"{field} must be an integer, got {value!r}"):
        RunConfig(input=IQ, **{field: value})
    # whole numbers pass, numpy's too, and give the same report
    want, numpy_int = (render_json(run(RunConfig(input=IQ, method="asymptotic", **{field: n})))
                       for n in (20, np.int64(20)))
    assert numpy_int == want and json.loads(want)["config"][field] == 20


@pytest.mark.parametrize("field, value, kind", [
    # "no" turned the continuity correction on and was echoed as given
    ("continuity", "no", "a bool"),
    ("continuity", 1, "a bool"),
    ("conservative_mc", "no", "a bool"),
    ("conservative_mc", 0, "a bool"),
    ("rounding_eps", True, "a real number"),
    ("rounding_eps", "0.1", "a real number"),
    ("conf_level", True, "a real number"),
    ("conf_level", "0.9", "a real number"),
    ("epsilon", "0.1", "a real number"),
    ("epsilon", False, "a real number"),
])
def test_flag_and_real_settings_refuse_other_types(field, value, kind):
    with pytest.raises(ParameterError, match=f"{field} must be {kind}, got {value!r}"):
        RunConfig(input=IQ, **{field: value})


def test_pre_round_none_and_real_settings_of_numpy_types_pass():
    plain = render_json(run(RunConfig(input=IQ, method="asymptotic", mode="confidence",
                                      pre_round=None, conf_level=0.9, rounding_eps=0.0)))
    numpy = render_json(run(RunConfig(input=IQ, method="asymptotic", mode="confidence",
                                      conf_level=np.float64(0.9), rounding_eps=np.float64(0.0))))
    assert numpy == plain


def test_all_falls_back_to_monte_carlo_exactly_past_the_exact_budget(capsys):
    # 5, 5 and 4 untied values have 14! / (5! 5! 4!) = 252,252 splits
    base = ["--input", str(DATA / "untied_5x5x4.csv"), "--nsim", "2000"]
    for budget, engine in (("252252", "exact"), ("252251", "monte_carlo"), ("0", "monte_carlo")):
        code, out, _ = run_main(capsys, base + ["--method", "all", "--exact-budget", budget])
        assert code == 0
        assert sorted(json.loads(out)["p_values"]) == sorted(["asymptotic", engine])
    code, out, err = run_main(capsys, base + ["--method", "exact", "--exact-budget", "252251"])
    assert code == 2 and out == ""
    assert json.loads(err)["error"]["type"] == "BudgetError"


def test_split_counts_past_4300_digits_are_refused_as_over_budget(tmp_path, capsys):
    # 3 x 4000 untied values have about 1e5721 splits; str() refuses ints that long
    f = tmp_path / "large.csv"
    rows = (f"g{g},{v + g / 3}\n" for g in range(3) for v in range(4000))
    f.write_text("group,value\n" + "".join(rows))
    base = ["--input", str(f), "--nsim", "200"]
    code, out, _ = run_main(capsys, base + ["--method", "all"])
    assert code == 0
    assert sorted(json.loads(out)["p_values"]) == ["asymptotic", "monte_carlo"]
    code, out, err = run_main(capsys, base + ["--method", "exact"])
    assert code == 2 and out == ""
    payload = json.loads(err)["error"]
    assert payload["type"] == "BudgetError"
    assert "needs about 1e5721 splits" in payload["message"]


def test_bad_thread_count_is_a_parameter_error(capsys, monkeypatch):
    args = ["--input", IQ, "--method", "simulated", "--nsim", "5000"]
    for bad in ("two", "0", "1.5"):
        monkeypatch.setenv("STEELRANK_THREADS", bad)
        code, out, err = run_main(capsys, args)
        assert code == 2 and out == ""
        payload = json.loads(err)
        assert payload["error"]["type"] == "ParameterError"
        assert "STEELRANK_THREADS" in payload["error"]["message"]
