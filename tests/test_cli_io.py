"""The CLI's bulk csv_long parser and one-walk JSON renderer, each checked against
the straightforward code it replaced, kept here as the oracle: the line-by-line
csv_long loop, and json.dumps over the converted report tree."""
import csv
import enum
import io
import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from steelrank import ParameterError
from steelrank.cli import (
    RunConfig, _bulk_csv_long, main, read_groups, render_json, render_text, run,
)

DATA = Path(__file__).parent / "data"

# ---------------------------------------------------------------------------
# renderer


def _round_sig(x: float) -> float:
    if x == 0 or not np.isfinite(x):
        return float(x)
    return float(f"{x:.10g}")


def _jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating, float)):
        return _round_sig(float(obj))
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    return obj


def oracle_json(report) -> str:
    return json.dumps(_jsonable(report), sort_keys=True, indent=2) + "\n"


def oracle_text(report: dict) -> str:
    lines: list[str] = []

    def emit(prefix: str, obj) -> None:
        if isinstance(obj, dict):
            for k in sorted(obj):
                emit(f"{prefix}{k}.", obj[k])
        else:
            lines.append(f"{prefix[:-1]}: {obj}")

    report = _jsonable(report)
    harness = report.pop("harness", None)
    emit("", report)
    out = "\n".join(lines) + "\n"
    if harness:
        cols = harness["columns"]
        out += ",".join(cols) + "\n"
        for row in harness["rows"]:
            out += ",".join(repr(_round_sig(row[c])) for c in cols) + "\n"
    return out


EDGE_FLOATS = [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, 2.2250738585072014e-308 / 3,
               1.7976931348623157e308, 1.9999999999e-5, 0.1 + 0.2, 123456789012.5]
floats = st.one_of(st.sampled_from(EDGE_FLOATS), st.floats(allow_nan=True, allow_infinity=True))
numpy_scalars = st.one_of(
    st.floats(width=32).map(np.float32),
    st.integers(min_value=-(2**63), max_value=2**63 - 1).map(np.int64),
    st.booleans().map(np.bool_),
    floats.map(np.float64),
)
numpy_arrays = st.one_of(
    st.lists(floats, max_size=4).map(lambda v: np.array(v, dtype=float)),
    st.lists(st.floats(width=32), max_size=4).map(lambda v: np.array(v, dtype=np.float32)),
    st.lists(st.integers(-(2**40), 2**40), max_size=4).map(lambda v: np.array(v, dtype=np.int64)),
    st.lists(st.booleans(), max_size=4).map(lambda v: np.array(v, dtype=bool)),
    st.lists(floats, min_size=6, max_size=6).map(lambda v: np.array(v).reshape(2, 3)),
)
texts = st.one_of(st.text(max_size=6), st.sampled_from(["", "é☃ ", "\x00\x1f\x7f\"\\", "a\nb\tc"]))
leaves = st.one_of(st.none(), st.booleans(), st.integers(), floats, texts, numpy_scalars, numpy_arrays)
keys = st.one_of(texts, st.integers(-5, 5), st.booleans(), st.sampled_from([1.5, None, (1, 2)]))
trees = st.recursive(
    leaves,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=3).map(tuple),
        st.dictionaries(keys, inner, max_size=4),
        st.lists(st.dictionaries(st.sampled_from(["threshold", "p_sim", "x"]), inner), max_size=3),
    ),
    max_leaves=20,
)


@settings(derandomize=True, max_examples=250, deadline=None)
@given(trees)
def test_render_json_writes_the_bytes_of_json_dumps_over_the_converted_tree(tree):
    assert render_json({"report": tree}) == oracle_json({"report": tree})
    assert render_json(tree) == oracle_json(tree)


class _Level(enum.IntEnum):
    HIGH = 3


class _Row(list):
    pass


def test_render_json_edge_cases():
    report = {
        "empty": [{}, [], (), np.array([])],
        "rows": [{"p_sim": np.float32(0.1), "threshold": np.int64(-3)}, {}],
        "flags": np.array([True, False]),
        2: "non-str key", None: "None key", "2": "collides with the key 2",
        "big": [1.7976931348623157e308, -1.79769313485e308, 5e-324, -0.0, math.nan],
        # types outside the emitter's exact-type table, written through its isinstance fallback
        "other": [np.int32(-7), np.uint8(255), np.float16(0.1), _Level.HIGH, _Row([1.5, _Row()])],
    }
    assert render_json(report) == oracle_json(report)
    assert "Infinity" in render_json({"x": 1.7976931348623157e308})
    with pytest.raises(TypeError):
        render_json({"x": object()})


def test_render_text_shows_the_values_of_the_converted_tree():
    base = {"input": str(DATA / "iq_birth_condition.csv"), "nsim": 2000, "seed": 3}
    for extra in ({}, {"mode": "pairwise"}, {"mode": "confidence", "alternative": "less"},
                  {"mode": "quality_harness", "alternative": "greater"}):
        report = run(RunConfig(**base, **extra))
        assert render_text(report) == oracle_text(report)
    edge = {"x": [math.nan, -0.0, np.float32(0.1)], "y": {2: np.int64(3)}, "z": (True, None, "é")}
    assert render_text(edge) == oracle_text(edge)


# ---------------------------------------------------------------------------
# csv_long parser


def oracle_csv_long(path: str) -> dict[str, list[float]]:
    """The line-by-line csv_long loop, with NaN, an empty label and a row csv.reader
    cannot read refused at their line."""
    with open(path, "r", encoding="utf-8-sig", newline="") as fh:
        reader = csv.reader(io.StringIO(fh.read()))
        try:
            rows = list(reader)
        except csv.Error as exc:  # a lone \r inside a line (and NUL before 3.11)
            raise ParameterError(f"line {reader.line_num}: {str(exc).partition(' - ')[0]}") from None
    groups: dict[str, list[float]] = {}
    for line_no, row in enumerate(rows, start=1):
        if not row or all(not c.strip() for c in row):
            continue
        if len(row) != 2:
            raise ParameterError(f"line {line_no}: expected two columns group,value")
        label, value = row[0].strip(), row[1].strip()
        if line_no == 1 and (label.lower(), value.lower()) == ("group", "value"):
            continue
        if not label:
            raise ParameterError(f"line {line_no}: empty group label")
        try:
            v = float(value)
        except ValueError:
            raise ParameterError(f"line {line_no}: cannot parse value {value!r}") from None
        if math.isnan(v):
            raise ParameterError(f"line {line_no}: NaN value {value!r} cannot be ranked")
        groups.setdefault(label, []).append(v)
    groups = {k: v for k, v in groups.items() if v}
    if len(groups) < 2:
        raise ParameterError("need at least two non-empty groups")
    return groups


def outcome(parse, path):
    try:
        return list(parse(path).items())
    except ParameterError as exc:
        return f"{type(exc).__name__}: {exc}"


# str.splitlines breaks lines at \x0b, \x0c, \x1c, \x85 and \u2028; csv.reader does not
plain_labels = st.sampled_from(["g0", "g1", " g1 ", "t2", "é", "g\x0b1", "g\x0c1", "\x1cg1",
                                "g\x851", "g\u20281", "\u2028t2", "\ufeffg0"])
labels = st.one_of(plain_labels, st.sampled_from(['"a,b"', '"q ""x"""', "g\x000"]))
values = st.one_of(
    st.floats(allow_nan=False).map(repr),
    st.sampled_from(["1", " 2.5 ", "1_0", "inf", "-Infinity", "-0.0", "1e-320", "0x1", "x1", "",
                     "nan", " NaN"]),
)
good_rows = st.tuples(labels, values).map(",".join)
odd_rows = st.sampled_from(["", "   ", ",", " , ", "g0", "g0,1,2", "group,value", " Group , VALUE ",
                            "g0,1,", '"g0",3', ",4", " ,5", "g0,1\x00", "g0,1\rg1,2", "g1,\r",
                            "g0\ng1,1,2", "g0\n1,g1,2", "g0,1,g1\n2"])
clean_rows = st.tuples(plain_labels, st.floats(allow_nan=False).map(repr)).map(",".join)
files = st.tuples(
    # half the files hold clean rows only, which the text pass takes whole when the
    # lines end in \n; the rest mix in rows it hands back
    st.one_of(st.lists(clean_rows, max_size=12),
              st.lists(st.one_of(good_rows, good_rows, good_rows, odd_rows), max_size=12)),
    st.sampled_from(["\n", "\n", "\r\n", "\r"]),
    st.booleans(),  # header on line 1
    st.booleans(),  # line ending after the last row
    st.booleans(),  # a leading byte-order mark
)


@settings(derandomize=True, max_examples=400, deadline=None)
@given(files)
def test_bulk_csv_long_parse_matches_the_line_by_line_loop(tmp_path_factory, file):
    rows, eol, header, final_eol, bom = file
    text = eol.join((["group,value"] if header else []) + rows) + (eol if final_eol else "")
    text = "\ufeff" * bom + text
    path = tmp_path_factory.getbasetemp() / "bulk_parse_case.csv"
    path.write_bytes(text.encode("utf-8"))
    assert outcome(lambda p: read_groups(p, "csv_long"), str(path)) == outcome(oracle_csv_long, str(path))


def test_bulk_csv_long_parse_keeps_label_order_and_joins_split_runs(tmp_path):
    path = tmp_path / "runs.csv"
    path.write_text('group,value\nb,1\na,2\n"b",3\n a ,1_0\nb,inf\n')
    assert read_groups(str(path), "csv_long") == {"b": [1.0, 3.0, math.inf], "a": [2.0, 10.0]}
    assert list(read_groups(str(path), "csv_long")) == ["b", "a"]


def test_the_text_pass_takes_plain_files_and_hands_back_the_rest():
    for name in ("iq_birth_condition.csv", "likert_small.csv", "r1_10x50.csv"):
        text = (DATA / name).read_text(encoding="utf-8")
        assert _bulk_csv_long(text) is not None, name
    assert _bulk_csv_long("group,value\na,1\nb,2") == {"a": [1.0], "b": [2.0]}
    handed_back = ['a,1\n"b",2\n', "a,1\r\nb,2\r\n", "a,1\nb,2\x00\n", "a,1\rb,2\n",
                   "a\n1,b,2\n", "a,1,b\n2\n", "a,1\nb,2\n\n", "", "\n", "a,1\n,2\n", "a,x\nb,2\n",
                   "a,nan\nb,2\n"]
    for text in handed_back:
        assert _bulk_csv_long(text) is None, text


@pytest.mark.parametrize("fmt, text", [
    ("csv_long", "group,value\nctl,1\nctl,2\nt,3\nt,4\n"),
    ("csv_long", "ctl,1\nctl,2\nt,3\nt,4\n"),
    ("csv_wide", "ctl,t\n1,3\n2,4\n"),
    ("whitespace", "ctl 1 2\nt 3 4\n"),
])
def test_a_leading_byte_order_mark_is_not_part_of_the_first_line(tmp_path, capsys, fmt, text):
    # Excel's "CSV UTF-8" starts the file with one
    plain, marked = tmp_path / "plain.txt", tmp_path / "marked.txt"
    plain.write_text(text, encoding="utf-8")
    marked.write_text(text, encoding="utf-8-sig")
    assert marked.read_bytes()[:3] == b"\xef\xbb\xbf"
    assert read_groups(str(marked), fmt) == read_groups(str(plain), fmt) == {
        "ctl": [1.0, 2.0], "t": [3.0, 4.0]}
    argv = ["--format", fmt, "--control", "ctl", "--method", "asymptotic"]
    assert main(["--input", str(marked), *argv]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["groups"]["labels"] == ["ctl", "t"]
