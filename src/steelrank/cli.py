"""Command-line front end: argv and input-file parsing, and JSON/text reports of
``analysis.analyze``."""
from __future__ import annotations

import argparse
import csv
import dataclasses
import io
import itertools
import json
import math
import sys
from functools import lru_cache
from typing import Sequence

import numpy as np

from .analysis import FORMATS, METHODS, MODES, OUTPUTS, RunConfig, analyze
from .errors import BudgetError, NumericError, ParameterError


# ---------------------------------------------------------------------------
# input parsing


def _parse_float(text: str, line_no: int) -> float:
    try:
        value = float(text)
    except ValueError:
        raise ParameterError(f"line {line_no}: cannot parse value {text!r}") from None
    if math.isnan(value):
        raise ParameterError(f"line {line_no}: NaN value {text!r} cannot be ranked")
    return value


def _csv_rows(text: str) -> list[list[str]]:
    """csv.reader's rows; a lone \\r inside a line (or NUL before Python 3.11) is refused."""
    reader = csv.reader(io.StringIO(text))
    try:
        return list(reader)
    except csv.Error as exc:  # less its hint on opening the file, which does not apply
        raise ParameterError(f"line {reader.line_num}: {str(exc).partition(' - ')[0]}") from None


def _is_header(row: list[str]) -> bool:
    return [c.strip().lower() for c in row] == ["group", "value"]


# the bytes dropped from a csv_long file before its layout is checked: all but the
# comma, newline, quote, carriage return and NUL.  A file whose kept bytes read
# ",\n,\n...," splits into its csv rows at them
_NOT_LAYOUT = bytes(b for b in range(256) if b not in b',\n"\r\x00')


def _bulk_csv_long(text: str) -> dict[str, list[float]] | None:
    """Group,value rows (an optional group,value header on line 1) in one pass over
    the text, or None when the pass does not apply.  It applies when the text holds
    no quote, carriage return or NUL and each line exactly one comma: csv.reader
    then splits each line at its comma, so the text is split once, the values
    converted by one map(float) and the runs of equal labels appended at once.
    A blank row, an empty label, or a value that does not parse or is NaN also
    returns None."""
    body = text[:-1] if text.endswith("\n") else text
    if body.encode().translate(None, _NOT_LAYOUT) != b",\n" * body.count("\n") + b",":
        return None
    cells = body.replace("\n", ",").split(",")
    labels = list(map(str.strip, cells[0::2]))
    cells = cells[1::2]
    if _is_header([labels[0], cells[0]]):
        labels, cells = labels[1:], cells[1:]
    try:
        values = list(map(float, cells))
    except ValueError:
        return None
    if not all(labels) or any(map(math.isnan, values)):
        return None
    groups: dict[str, list[float]] = {}
    start = 0
    for label, run in itertools.groupby(labels):
        stop = start + len(list(run))
        groups.setdefault(label, []).extend(values[start:stop])
        start = stop
    return groups


def _read_csv_long(text: str) -> dict[str, list[float]]:
    """The bulk pass's groups, or the line-by-line loop over the csv rows, which
    names the line of the first bad row."""
    groups = _bulk_csv_long(text)
    if groups is not None:
        return groups
    groups = {}
    rows = _csv_rows(text)  # a csv error anywhere is raised first
    for line_no, row in enumerate(rows, start=1):
        if not row or all(not c.strip() for c in row):
            continue
        if len(row) != 2:
            raise ParameterError(f"line {line_no}: expected two columns group,value")
        if line_no == 1 and _is_header(row):
            continue
        if not row[0].strip():
            raise ParameterError(f"line {line_no}: empty group label")
        groups.setdefault(row[0].strip(), []).append(_parse_float(row[1].strip(), line_no))
    return groups


def read_groups(path: str, fmt: str) -> dict[str, list[float]]:
    """Ordered mapping of group label to values; raises with line numbers on bad input.
    Files are read as UTF-8, with or without a leading byte-order mark."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode("utf-8-sig")
    except UnicodeDecodeError as exc:  # exc.object is the data less any byte-order mark
        line_no, byte = exc.object.count(b"\n", 0, exc.start) + 1, exc.object[exc.start]
        raise ParameterError(f"line {line_no}: byte {byte:#04x} is not UTF-8") from None
    groups: dict[str, list[float]] = {}
    if fmt == "csv_long":
        groups = _read_csv_long(text)
    elif fmt == "csv_wide":
        rows = _csv_rows(text)
        if not rows:
            raise ParameterError("line 1: empty input")
        header = [c.strip() for c in rows[0]]
        if any(not h for h in header):
            raise ParameterError("line 1: every column needs a group label")
        for label in header:
            if label in groups:
                raise ParameterError(f"line 1: duplicate group label {label!r}")
            groups[label] = []
        for line_no, row in enumerate(rows[1:], start=2):
            if all(not c.strip() for c in row):
                continue
            if len(row) > len(header):
                raise ParameterError(f"line {line_no}: more cells than header columns")
            for label, cell in zip(header, row):
                if cell.strip():
                    groups[label].append(_parse_float(cell.strip(), line_no))
    else:  # whitespace: each line is "label v1 v2 ..."; repeated labels concatenate
        for line_no, line in enumerate(text.splitlines(), start=1):
            if not line.strip():
                continue
            tokens = line.split()
            if len(tokens) < 2:
                raise ParameterError(f"line {line_no}: expected a label and at least one value")
            groups.setdefault(tokens[0], []).extend(
                _parse_float(t, line_no) for t in tokens[1:]
            )
    groups = {k: v for k, v in groups.items() if v}
    if len(groups) < 2:
        raise ParameterError("need at least two non-empty groups")
    return groups


# ---------------------------------------------------------------------------
# report serialization


_json_string = json.encoder.encode_basestring_ascii  # json.dumps's string and key encoder


def _float_json(x: float) -> str:
    """x rounded to 10 significant digits, as json.dumps writes it: repr, or NaN,
    Infinity or -Infinity."""
    if math.isfinite(x):
        x = float(f"{x:.10g}")  # which can round up to infinity
    if math.isfinite(x):
        return repr(x)
    if x != x:
        return "NaN"
    return "Infinity" if x > 0 else "-Infinity"


def _emit_json(obj, out: list[str], newline: str) -> None:
    """Append the indent-2, sorted-keys JSON text of obj to ``out``; ``newline`` is
    the line break plus the indent of the enclosing level.  numpy scalars and arrays
    are written as their Python values, floats through _float_json, and keys as
    str(key).  One dict lookup on type(obj) finds the emitter of the exact types
    that reports hold; any other type goes through _emitter.  Lists and dicts look
    up their items' emitters themselves."""
    (_EMITTERS.get(type(obj)) or _emitter(obj))(obj, out, newline)


def _emit_sequence(obj, out: list[str], newline: str) -> None:
    if not obj:
        out.append("[]")
        return
    inner = newline + "  "
    sep = "[" + inner
    for value in obj:
        out.append(sep)
        (_EMITTERS.get(type(value)) or _emitter(value))(value, out, inner)
        sep = "," + inner
    out.append(newline + "]")


def _emit_dict(obj, out: list[str], newline: str) -> None:
    if not obj:
        out.append("{}")
        return
    inner = newline + "  "
    items = obj if all(type(k) is str for k in obj) else {str(k): v for k, v in obj.items()}
    sep = "{" + inner
    for key in sorted(items):
        out.append(sep + _json_string(key) + ": ")
        value = items[key]
        (_EMITTERS.get(type(value)) or _emitter(value))(value, out, inner)
        sep = "," + inner
    out.append(newline + "}")


# emitter (obj, out, newline) of each exact type that reports hold
_EMITTERS = {
    str: lambda obj, out, newline: out.append(_json_string(obj)),
    type(None): lambda obj, out, newline: out.append("null"),
    bool: lambda obj, out, newline: out.append("true" if obj else "false"),
    float: lambda obj, out, newline: out.append(_float_json(float(obj))),
    int: lambda obj, out, newline: out.append(int.__repr__(int(obj))),
    np.ndarray: lambda obj, out, newline: _emit_json(obj.tolist(), out, newline),
    list: _emit_sequence,
    dict: _emit_dict,
}
_EMITTERS.update({np.bool_: _EMITTERS[bool], np.float64: _EMITTERS[float],
                  np.int64: _EMITTERS[int], tuple: _emit_sequence})
# any other value is written as the first of these it is an instance of
_INSTANCE_OF = (
    (str, str), ((bool, np.bool_), bool), ((float, np.floating), float),
    ((int, np.integer), int), (np.ndarray, np.ndarray), ((list, tuple), list), (dict, dict),
)


def _emitter(obj):
    for classes, kind in _INSTANCE_OF:
        if isinstance(obj, classes):
            return _EMITTERS[kind]
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def render_json(report: dict) -> str:
    """The report as indent-2, sorted-keys JSON, in one walk: the bytes json.dumps
    writes with sort_keys=True and indent=2 for the report with its numpy values
    converted, floats rounded to 10 significant digits and keys made str."""
    out: list[str] = []
    _emit_json(report, out, "\n")
    out.append("\n")
    return "".join(out)


def render_text(report: dict) -> str:
    lines: list[str] = []

    def emit(prefix: str, obj) -> None:
        if isinstance(obj, dict):
            for k in sorted(obj):
                emit(f"{prefix}{k}.", obj[k])
        else:
            lines.append(f"{prefix[:-1]}: {obj}")

    report = json.loads(render_json(report))  # the values the JSON report shows
    harness = report.pop("harness", None)
    emit("", report)
    out = "\n".join(lines) + "\n"
    if harness:
        cols = harness["columns"]
        rows = harness["rows"]
        out += ",".join(cols) + "\n"
        for row in rows:
            out += ",".join(repr(row[c]) for c in cols) + "\n"
    return out


def run(cfg: RunConfig) -> dict:
    """Read the config's input file and analyze it: the report structure
    (deterministic per config)."""
    return analyze(cfg, read_groups(cfg.input, cfg.format))


# ---------------------------------------------------------------------------
# entry point


@lru_cache(maxsize=1)
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built once per process: parse_args does not change it."""
    p = argparse.ArgumentParser(
        prog="steelrank",
        description="Rank-based many-to-one and all-pairs comparisons with ties",
    )
    p.add_argument("--input", required=True, help="path to the data file")
    p.add_argument("--format", choices=FORMATS)
    p.add_argument("--control", help="label of the control group")
    p.add_argument("--alternative", choices=["greater", "less", "two-sided"])
    p.add_argument("--method", choices=METHODS)
    p.add_argument("--nsim", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--conf-level", type=float, dest="conf_level")
    p.add_argument("--round-eps", type=float, dest="rounding_eps")
    p.add_argument("--mode", choices=MODES)
    p.add_argument("--nodes", type=int)
    p.add_argument("--output", choices=OUTPUTS)
    p.add_argument("--epsilon", type=float, help="tie-fraction tolerance for diagnostics")
    p.add_argument("--pre-round", type=int, dest="pre_round",
                   help="round inputs to this many decimals before ranking")
    p.add_argument("--exact-budget", type=int, dest="exact_budget")
    p.add_argument("--continuity", action="store_true",
                   help="apply a half-unit continuity correction to asymptotic p-values")
    p.add_argument("--conservative-mc", action="store_true", dest="conservative_mc",
                   help="use the (hits+1)/(nsim+1) Monte Carlo p-value convention")
    p.add_argument("--out", help="write the report here instead of stdout")
    # each option's default is its RunConfig field's
    fields = dataclasses.fields(RunConfig)
    p.set_defaults(**{f.name: f.default for f in fields if f.default is not dataclasses.MISSING})
    return p


def main(argv: Sequence[str] | None = None) -> int:
    options = vars(build_parser().parse_args(argv))
    out_path = options.pop("out")
    try:
        cfg = RunConfig(**options)
        report = run(cfg)
    except (ParameterError, BudgetError, NumericError, OSError) as exc:
        err = {"error": {"type": type(exc).__name__, "message": str(exc)}}
        print(json.dumps(err, sort_keys=True), file=sys.stderr)
        return 2
    text = render_json(report) if cfg.output == "json" else render_text(report)
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
