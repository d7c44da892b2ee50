"""Command-line front end: data ingestion, method selection, JSON/text reports,
and the approximation-quality harness."""
from __future__ import annotations

import argparse
import csv
import dataclasses
import io
import itertools
import json
import math
import sys
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np

from .confidence import simultaneous_bounds, simultaneous_intervals
from .errors import BudgetError, NumericError, ParameterError
from .gauss import DEFAULT_NODES, MAX_NODES, FactorModel, brent_root, tail_prob
from .moments import MomentSet, all_pairs, control_pairs, pair_moments
from .pairwise import mvn_tail_counts
from .randomization import (
    DEFAULT_BUDGET,
    PValue,
    exact_p_value,
    sampled_p_value,
    simulated_tail_counts,
)
from .ranks import RankedSamples, TiePattern, check_asymptotic_conditions, rank_samples
from .statistics import (
    ALTERNATIVE_TABLE,
    Observation,
    normalize_alternative,
    observe,
    rank_sums,
    reduce_statistic,
)

SCHEMA_VERSION = 1
MODES = ("steel", "pairwise", "confidence", "quality_harness")
FORMATS = ("csv_long", "csv_wide", "whitespace")
METHODS = ("asymptotic", "simulated", "exact", "all")
# mode -> --method -> the engines that answer, in order.  Steel always reports its
# quadrature; "exact_or_monte_carlo" is exact unless exact_p_value refuses the splits
# as over --exact-budget, and Monte Carlo otherwise.  All-pairs has no exact entry:
# pairwise --method exact is refused.
_STEEL_ENGINES = {
    "asymptotic": ("asymptotic",),
    "simulated": ("asymptotic", "monte_carlo"),
    "exact": ("asymptotic", "exact"),
    "all": ("asymptotic", "exact_or_monte_carlo"),
}
ENGINES = {
    "steel": _STEEL_ENGINES,
    "confidence": _STEEL_ENGINES,
    "pairwise": {
        "asymptotic": ("mvn_sample",),
        "simulated": ("monte_carlo",),
        "all": ("monte_carlo", "mvn_sample"),
    },
}
HARNESS_P_GRID = (0.20, 0.15, 0.10, 0.05, 0.025, 0.01)


@dataclass(frozen=True)
class RunConfig:
    input: str
    format: str = "csv_long"
    control: str | None = None
    alternative: str = "two_sided"
    method: str = "all"
    nsim: int = 100_000
    seed: int = 0
    conf_level: float = 0.95
    rounding_eps: float = 0.0
    mode: str = "steel"
    nodes: int = DEFAULT_NODES
    output: str = "json"
    epsilon: float = 0.1
    pre_round: int | None = None
    exact_budget: int = DEFAULT_BUDGET
    continuity: bool = False
    conservative_mc: bool = False


def _validate(cfg: RunConfig) -> RunConfig:
    if cfg.mode not in MODES:
        raise ParameterError(f"mode must be one of {MODES}, got {cfg.mode!r}")
    if cfg.format not in FORMATS:
        raise ParameterError(f"format must be one of {FORMATS}, got {cfg.format!r}")
    if cfg.method not in METHODS:
        raise ParameterError(f"method must be one of {METHODS}, got {cfg.method!r}")
    if cfg.output not in ("json", "text"):
        raise ParameterError(f"output must be json or text, got {cfg.output!r}")
    if cfg.nsim < 1:
        raise ParameterError("nsim must be >= 1")
    if cfg.seed < 0:
        raise ParameterError(f"seed must be >= 0, got {cfg.seed}")
    if cfg.exact_budget < 0:  # 0 never enumerates
        raise ParameterError(f"exact-budget must be >= 0, got {cfg.exact_budget}")
    if not 1 <= cfg.nodes <= MAX_NODES:
        raise ParameterError(f"nodes must be in [1, {MAX_NODES}], got {cfg.nodes}")
    if not 0 < cfg.conf_level < 1:
        raise ParameterError("conf-level must be in (0, 1)")
    if not 0 < cfg.epsilon < 1:  # NaN fails both comparisons
        raise ParameterError(f"epsilon must be in (0, 1), got {cfg.epsilon}")
    if not 0 <= cfg.rounding_eps < math.inf:  # NaN fails both comparisons
        raise ParameterError(f"round-eps must be finite and >= 0, got {cfg.rounding_eps}")
    return dataclasses.replace(cfg, alternative=normalize_alternative(cfg.alternative))


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


def _is_header(row: list[str]) -> bool:
    return [c.strip().lower() for c in row] == ["group", "value"]


def _read_csv_long(rows: list[list[str]]) -> dict[str, list[float]]:
    """Group,value rows (an optional group,value header on line 1) in bulk: the rows
    are transposed, the values converted by one map(float) and the runs of equal
    labels appended at once.  Any row the bulk pass cannot take (a blank row, a
    wrong cell count, an unparsable or NaN value) sends the whole file through the
    line-by-line loop, which names the line."""
    body = rows[1:] if rows and _is_header(rows[0]) else rows
    if set(map(len, body)) == {2}:
        labels, cells = zip(*body)
        try:
            values = list(map(float, cells))
        except ValueError:
            values = None
        if values is not None and not any(map(math.isnan, values)):
            groups: dict[str, list[float]] = {}
            start = 0
            for label, run in itertools.groupby(map(str.strip, labels)):
                stop = start + len(list(run))
                groups.setdefault(label, []).extend(values[start:stop])
                start = stop
            return groups
    groups = {}
    for line_no, row in enumerate(rows, start=1):
        if not row or all(not c.strip() for c in row):
            continue
        if len(row) != 2:
            raise ParameterError(f"line {line_no}: expected two columns group,value")
        if line_no == 1 and _is_header(row):
            continue
        groups.setdefault(row[0].strip(), []).append(_parse_float(row[1].strip(), line_no))
    return groups


def read_groups(path: str, fmt: str) -> dict[str, list[float]]:
    """Ordered mapping of group label to values; raises with line numbers on bad input."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        text = fh.read()
    groups: dict[str, list[float]] = {}
    if fmt == "csv_long":
        groups = _read_csv_long(list(csv.reader(io.StringIO(text))))
    elif fmt == "csv_wide":
        rows = list(csv.reader(io.StringIO(text)))
        if not rows:
            raise ParameterError("line 1: empty input")
        header = [c.strip() for c in rows[0]]
        if any(not h for h in header):
            raise ParameterError("line 1: every column needs a group label")
        for label in header:
            groups.setdefault(label, [])
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


def _ordered_groups(
    groups: dict[str, list[float]], control: str | None, mode: str
) -> tuple[list[str], list[list[float]]]:
    labels = list(groups)
    if mode in ("steel", "confidence"):
        ctrl = control if control is not None else labels[0]
        if ctrl not in groups:
            raise ParameterError(f"unknown group {ctrl!r}; available: {labels}")
        labels = [ctrl] + [g for g in labels if g != ctrl]
    return labels, [groups[g] for g in labels]


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
    str(key)."""
    if isinstance(obj, str):
        out.append(_json_string(obj))
    elif obj is None or isinstance(obj, (bool, np.bool_)):
        out.append("null" if obj is None else "true" if obj else "false")
    elif isinstance(obj, (float, np.floating)):
        out.append(_float_json(float(obj)))
    elif isinstance(obj, (int, np.integer)):
        out.append(int.__repr__(int(obj)))
    elif isinstance(obj, np.ndarray):
        _emit_json(obj.tolist(), out, newline)
    elif isinstance(obj, (list, tuple, dict)) and not obj:
        out.append("{}" if isinstance(obj, dict) else "[]")
    elif isinstance(obj, (list, tuple)):
        inner = newline + "  "
        out.append("[")
        for i, value in enumerate(obj):
            out.append(inner if i == 0 else "," + inner)
            _emit_json(value, out, inner)
        out.append(newline + "]")
    elif isinstance(obj, dict):
        inner = newline + "  "
        items = obj if all(type(k) is str for k in obj) else {str(k): v for k, v in obj.items()}
        out.append("{")
        for i, key in enumerate(sorted(items)):
            out.append(inner if i == 0 else "," + inner)
            out.append(_json_string(key) + ": ")
            _emit_json(items[key], out, inner)
        out.append(newline + "}")
    else:
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


def _fields(obj, *drop: str) -> dict:
    """A dataclass's fields by name, leaving out ``drop``: each report block is the
    fields of its result minus the names its call site lists."""
    return {f.name: getattr(obj, f.name) for f in dataclasses.fields(obj) if f.name not in drop}


# ---------------------------------------------------------------------------
# analysis paths


def _asymptotic_p(
    ms: MomentSet, obs: Observation, alternative: str, continuity: bool, nodes: int
) -> tuple[PValue, list[str]]:
    if len(obs.degenerate) == len(ms.pairs):  # fully tied data: the statistics are constant
        return PValue(estimate=1.0, method="asymptotic"), [
            "degenerate data: asymptotic p-value set to 1"
        ]
    model = FactorModel.from_moments(ms)
    # move the observed statistic half a raw unit towards the body of its tail
    shift = 0.5 if continuity else 0.0
    st = obs.statistic_value * model.tau
    lower = ALTERNATIVE_TABLE[alternative][1] == "lower"
    u = (st + shift if lower else st - shift) / model.tau
    if alternative == "two_sided":
        u = np.maximum(u, 0.0)
    p = tail_prob(model, u, alternative, nodes)
    return PValue(estimate=p, method="asymptotic"), []


def _analysis_section(cfg: RunConfig, samples: RankedSamples) -> dict:
    """Moments, observation and the p-values of the engines ENGINES names for the run:
    the control pairs in steel and confidence mode, all pairs in pairwise mode."""
    engines = ENGINES[cfg.mode].get(cfg.method)
    if engines is None:
        raise ParameterError("pairwise mode supports methods: asymptotic (mvn), simulated, all")
    steel = cfg.mode != "pairwise"
    pairs = (control_pairs if steel else all_pairs)(samples.n_groups)
    ms = pair_moments(samples.sizes, samples.tie_pattern, pairs)
    obs = observe(samples, ms, cfg.alternative)
    diag = check_asymptotic_conditions(samples, cfg.epsilon)
    warnings = list(diag.warnings)
    if obs.degenerate and not steel:
        warnings.append("fully tied data: statistics are degenerate at 0")

    p_values: dict[str, dict] = {}
    for engine in engines:
        if engine in ("exact", "exact_or_monte_carlo"):
            try:
                budget = cfg.exact_budget
                pv = exact_p_value(samples, ms, obs.statistic, obs.statistic_value, budget)
                engine = "exact"
            except BudgetError:  # refused before any walk
                if engine == "exact":
                    raise
                engine = "monte_carlo"
        if engine == "asymptotic":
            pv, extra = _asymptotic_p(ms, obs, cfg.alternative, cfg.continuity, cfg.nodes)
            warnings += extra
        elif engine != "exact":
            tail = (obs.statistic, [obs.statistic_value], cfg.nsim, cfg.seed)
            if engine == "monte_carlo":
                hits = simulated_tail_counts(samples, ms, *tail)
            else:
                hits = mvn_tail_counts(ms, *tail)
            pv = sampled_p_value(int(hits[0]), cfg.nsim, cfg.seed, engine, cfg.conservative_mc)
        p_values[engine] = {k: v for k, v in _fields(pv).items() if v is not None}

    section = {
        "diagnostics": _fields(diag, "warnings"),
        "p_values": p_values,
        "warnings": warnings,
    }
    if steel:
        section["moments"] = {**_fields(ms, "sizes", "pairs", "cov"), "tau": ms.tau}
        z = obs.standardized[None, :]
        section["observation"] = {
            **_fields(obs),
            "rank_sums": rank_sums(obs.w_star, list(samples.sizes[1:])),
            **{kind: reduce_statistic(kind, z)[0] for kind in ("s_max", "s_min", "s_abs")},
            "alternative": cfg.alternative,
        }
    else:
        section["pairwise"] = {
            **_fields(ms, "sizes", "pairs", "correction_ratio", "sigma0_2", "sigma2"),
            **_fields(obs, "degenerate"),
            "pairs": [f"{a + 1}-{b + 1}" for a, b in ms.pairs],
        }
    return section


def quality_harness(
    groups: Sequence[Sequence[float]],
    alternative: str = "greater",
    p_grid: Sequence[float] = HARNESS_P_GRID,
    nsim: int = 100_000,
    seed: int = 0,
    nodes: int = DEFAULT_NODES,
) -> list[dict]:
    """Rows of (threshold, p_sim, p_asym_adj, p_asym_unadj) at the requested tail grid.

    Thresholds are standardized-statistic values where the tie-adjusted asymptotic
    tail equals each grid entry; one shared simulation run supplies p_sim.  The
    unadjusted column re-expresses the same raw event through the no-ties
    standardization, which is what ignoring ties would report; without ties the
    two asymptotic columns coincide.  Every grid entry must be finite and in (0, 1).
    """
    for p in p_grid:
        if not 0 < p < 1:
            raise ParameterError(f"p_grid entries must be in (0, 1), got {p}")
    alt = normalize_alternative(alternative)
    samples = rank_samples(groups)
    pairs = control_pairs(samples.n_groups)
    ms_adj = pair_moments(samples.sizes, samples.tie_pattern, pairs)
    ms_raw = pair_moments(samples.sizes, TiePattern.no_ties(samples.N), pairs)
    model_adj = FactorModel.from_moments(ms_adj)
    model_raw = FactorModel.from_moments(ms_raw)
    kind, side = ALTERNATIVE_TABLE[alt]

    def asym(model: FactorModel, t: float, ratio: np.ndarray) -> float:
        return tail_prob(model, t * ratio, alt, nodes)

    ones = np.ones(model_adj.K)
    # parameterize by v with threshold t = sgn*v so the solved map decreases in v
    sgn = -1.0 if side == "lower" else 1.0
    lo = 0.0 if alt == "two_sided" else -14.0
    thresholds = np.array([
        sgn * brent_root(lambda v: asym(model_adj, sgn * v, ones) - p, lo, 14.0, xtol=1e-12)
        for p in p_grid
    ])
    order = np.argsort(thresholds)  # the shared run takes ascending thresholds
    p_sim = np.empty(thresholds.size)
    hits = simulated_tail_counts(samples, ms_adj, kind, thresholds[order], nsim, seed)
    p_sim[order] = hits / nsim
    ratio = ms_adj.tau / ms_raw.tau
    return [
        {
            "threshold": float(t),
            "p_sim": float(p),
            "p_asym_adj": asym(model_adj, t, ones),
            "p_asym_unadj": asym(model_raw, t, ratio),
        }
        for t, p in zip(thresholds, p_sim)
    ]


def _harness_section(cfg: RunConfig, arrays: list[list[float]]) -> dict:
    rows = quality_harness(
        arrays,
        alternative=cfg.alternative,
        nsim=cfg.nsim,
        seed=cfg.seed,
        nodes=cfg.nodes,
    )
    return {
        "harness": {
            "columns": ["threshold", "p_sim", "p_asym_adj", "p_asym_unadj"],
            "rows": rows,
        },
        "warnings": [],
    }


def run(cfg: RunConfig) -> dict:
    """Execute one analysis and return the report structure (deterministic per config)."""
    cfg = _validate(cfg)
    groups = read_groups(cfg.input, cfg.format)
    if cfg.pre_round is not None:
        groups = {k: [round(v, cfg.pre_round) for v in vals] for k, vals in groups.items()}
    labels, arrays = _ordered_groups(groups, cfg.control, cfg.mode)

    report: dict = {
        "schema_version": SCHEMA_VERSION,
        "config": _fields(cfg),
        "groups": {
            "labels": labels,
            "sizes": [len(a) for a in arrays],
            "control": labels[0] if cfg.mode in ("steel", "confidence") else None,
        },
    }
    if cfg.mode == "quality_harness":
        report.update(_harness_section(cfg, arrays))
        return report

    report.update(_analysis_section(cfg, rank_samples(arrays)))
    if cfg.mode == "confidence":  # the steel analysis plus the interval construction
        direction = {"less": "upper", "greater": "lower"}.get(cfg.alternative)
        if direction is None:
            cr = simultaneous_intervals(arrays, cfg.conf_level, cfg.rounding_eps, cfg.nodes)
        else:
            cr = simultaneous_bounds(arrays, cfg.conf_level, direction, cfg.rounding_eps, cfg.nodes)
        report["confidence"] = _fields(cr)
        report["warnings"] = report["warnings"] + list(cr.warnings)
    return report


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
    p.add_argument("--format", default="csv_long", choices=FORMATS)
    p.add_argument("--control", default=None, help="label of the control group")
    p.add_argument("--alternative", default="two-sided", choices=["greater", "less", "two-sided"])
    p.add_argument("--method", default="all", choices=METHODS)
    p.add_argument("--nsim", type=int, default=100_000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--conf-level", type=float, default=0.95, dest="conf_level")
    p.add_argument("--round-eps", type=float, default=0.0, dest="rounding_eps")
    p.add_argument("--mode", default="steel", choices=MODES)
    p.add_argument("--nodes", type=int, default=DEFAULT_NODES)
    p.add_argument("--output", default="json", choices=["json", "text"])
    p.add_argument("--epsilon", type=float, default=0.1, help="tie-fraction tolerance for diagnostics")
    p.add_argument("--pre-round", type=int, default=None, dest="pre_round",
                   help="round inputs to this many decimals before ranking")
    p.add_argument("--exact-budget", type=int, default=DEFAULT_BUDGET, dest="exact_budget")
    p.add_argument("--continuity", action="store_true",
                   help="apply a half-unit continuity correction to asymptotic p-values")
    p.add_argument("--conservative-mc", action="store_true", dest="conservative_mc",
                   help="use the (hits+1)/(nsim+1) Monte Carlo p-value convention")
    p.add_argument("--out", default=None, help="write the report here instead of stdout")
    return p


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    out_path = args.out
    fields = {f.name for f in dataclasses.fields(RunConfig)}
    cfg = RunConfig(**{k: v for k, v in vars(args).items() if k in fields})
    try:
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
