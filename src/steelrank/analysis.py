"""One analysis run: its checked configuration, the engines each mode and method
runs, and the report mapping that the CLI renders.  Every report p-value is built
here: an exact probability as it is, a sampled count as hits / nsim with its
binomial standard error, or (hits + 1) / (nsim + 1) under --conservative-mc."""
from __future__ import annotations

import dataclasses
import math
import numbers
from dataclasses import dataclass
from functools import cache
from typing import Mapping, Sequence

import numpy as np

from .confidence import simultaneous_bounds, simultaneous_intervals
from .errors import BudgetError, ParameterError
from .gauss import DEFAULT_NODES, MAX_NODES, brent_root, tail_prob
from .moments import MomentSet, all_pairs, control_pairs, pair_moments
from .pairwise import mvn_tail_counts
from .randomization import DEFAULT_BUDGET, PValue, exact_p_value, simulated_tail_counts
from .ranks import TiePattern, check_asymptotic_conditions, rank_samples
from .statistics import (
    ALTERNATIVE_TABLE,
    normalize_alternative,
    observe,
    rank_sums,
    reduce_statistic,
)

SCHEMA_VERSION = 1
MODES = ("steel", "pairwise", "confidence", "quality_harness")
FORMATS = ("csv_long", "csv_wide", "whitespace")
METHODS = ("asymptotic", "simulated", "exact", "all")
OUTPUTS = ("json", "text")
HARNESS_P_GRID = (0.20, 0.15, 0.10, 0.05, 0.025, 0.01)
# the design a moment set names, which its report blocks leave out
_DESIGN_FIELDS = ("sizes", "pairs", "s2", "s3", "s3_plus", "fully_tied")
# what a RunConfig field annotated int, float or bool takes; only a bool field takes a bool
_KINDS = {"int": ("an integer", (int, np.integer)), "float": ("a real number", numbers.Real),
          "bool": ("a bool", bool)}


@dataclass(frozen=True)
class RunConfig:
    """Every option of a run, checked when the config is made; the alternative is
    stored as ``two_sided``, ``greater`` or ``less``.  ``input`` names the file the
    CLI reads the groups from; ``analyze`` only echoes it."""

    input: str | None = None
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

    def __post_init__(self) -> None:
        choices = {"mode": MODES, "format": FORMATS, "method": METHODS, "output": OUTPUTS}
        for name, allowed in choices.items():
            if (value := getattr(self, name)) not in allowed:
                raise ParameterError(f"{name} must be one of {allowed}, got {value!r}")
        for f in dataclasses.fields(self):  # each field's annotation names its type
            kind, _, optional = f.type.partition(" | ")
            v = getattr(self, f.name)
            if kind in _KINDS and not (optional and v is None):
                what, types = _KINDS[kind]
                if not isinstance(v, types) or isinstance(v, bool) != (kind == "bool"):
                    raise ParameterError(f"{f.name} must be {what}, got {v!r}")
        if self.nsim < 1:
            raise ParameterError("nsim must be >= 1")
        if self.seed < 0:
            raise ParameterError(f"seed must be >= 0, got {self.seed}")
        if self.exact_budget < 0:  # 0 never enumerates
            raise ParameterError(f"exact-budget must be >= 0, got {self.exact_budget}")
        if not 1 <= self.nodes <= MAX_NODES:
            raise ParameterError(f"nodes must be in [1, {MAX_NODES}], got {self.nodes}")
        if not 0 < self.conf_level < 1:
            raise ParameterError("conf-level must be in (0, 1)")
        if not 0 < self.epsilon < 1:  # NaN fails both comparisons
            raise ParameterError(f"epsilon must be in (0, 1), got {self.epsilon}")
        if not 0 <= self.rounding_eps < math.inf:  # NaN fails both comparisons
            raise ParameterError(f"round-eps must be finite and >= 0, got {self.rounding_eps}")
        object.__setattr__(self, "alternative", normalize_alternative(self.alternative))


@cache
def _field_names(cls: type, drop: tuple[str, ...]) -> tuple[str, ...]:
    return tuple(f.name for f in dataclasses.fields(cls) if f.name not in drop)


def _fields(obj, *drop: str) -> dict:
    """A dataclass's fields by name, leaving out ``drop``: each report block is the
    fields of its result minus the names its call site lists.  The names are
    listed once per dataclass and ``drop``."""
    return {name: getattr(obj, name) for name in _field_names(type(obj), drop)}


# An engine takes (samples, moments, observation, config) and asks its tail entry
# for the observation's p-value.
def _asymptotic_p(samples, ms, obs, cfg) -> PValue:
    if obs.degenerate:  # fully tied data: the statistics are constant
        return PValue(estimate=1.0, method="asymptotic")
    # move the observed statistic half a raw unit towards the body of its tail
    shift = 0.5 if cfg.continuity else 0.0
    tau = ms.tau
    st = obs.statistic_value * tau
    lower = ALTERNATIVE_TABLE[cfg.alternative][1] == "lower"
    u = (st + shift if lower else st - shift) / tau
    if cfg.alternative == "two_sided":
        u = np.maximum(u, 0.0)
    return PValue(estimate=tail_prob(ms, u, cfg.alternative, cfg.nodes), method="asymptotic")


def _exact_p(samples, ms, obs, cfg) -> PValue:
    p = exact_p_value(samples, ms, obs.statistic, [obs.statistic_value], cfg.exact_budget)
    return PValue(estimate=float(p[0]), method="exact")


def _sampled_p(method: str, hits: int, cfg: RunConfig) -> PValue:
    """A sampled tail estimate, hits / nsim or (hits + 1) / (nsim + 1) under
    ``conservative_mc``, with its binomial standard error."""
    nsim = cfg.nsim
    estimate = (hits + 1) / (nsim + 1) if cfg.conservative_mc else hits / nsim
    std_error = math.sqrt(estimate * (1 - estimate) / nsim)
    return PValue(estimate=estimate, method=method, nsim=nsim, std_error=std_error, seed=cfg.seed)


def _monte_carlo_p(samples, ms, obs, cfg) -> PValue:
    hits = simulated_tail_counts(samples, ms, obs.statistic, [obs.statistic_value], cfg.nsim,
                                 cfg.seed)
    return _sampled_p("monte_carlo", int(hits[0]), cfg)


def _mvn_sample_p(samples, ms, obs, cfg) -> PValue:
    hits = mvn_tail_counts(ms, obs.statistic, [obs.statistic_value], cfg.nsim, cfg.seed)
    return _sampled_p("mvn_sample", int(hits[0]), cfg)


def exact_or_monte_carlo(samples, ms, obs, cfg) -> PValue:
    """Exact, unless exact_p_value refuses the splits as over the budget, which it
    does before any walk; Monte Carlo then."""
    try:
        return _exact_p(samples, ms, obs, cfg)
    except BudgetError:
        return _monte_carlo_p(samples, ms, obs, cfg)


# mode -> --method -> the engines that answer, in order; a report keys each p-value
# by the method that gave it.  Steel always reports its quadrature.  All-pairs has no
# exact entry: pairwise --method exact is refused.
_STEEL_ENGINES = {
    "asymptotic": (_asymptotic_p,),
    "simulated": (_asymptotic_p, _monte_carlo_p),
    "exact": (_asymptotic_p, _exact_p),
    "all": (_asymptotic_p, exact_or_monte_carlo),
}
ENGINES = {
    "steel": _STEEL_ENGINES,
    "confidence": _STEEL_ENGINES,
    "pairwise": {
        "asymptotic": (_mvn_sample_p,),
        "simulated": (_monte_carlo_p,),
        "all": (_monte_carlo_p, _mvn_sample_p),
    },
}


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
    kind, side = ALTERNATIVE_TABLE[alt]

    def asym(ms: MomentSet, t: float, ratio: np.ndarray) -> float:
        return tail_prob(ms, t * ratio, alt, nodes)

    ones = np.ones(len(pairs))
    # parameterize by v with threshold t = sgn*v so the solved map decreases in v
    sgn = -1.0 if side == "lower" else 1.0
    lo = 0.0 if alt == "two_sided" else -14.0
    thresholds = np.array([
        sgn * brent_root(lambda v: asym(ms_adj, sgn * v, ones) - p, lo, 14.0, xtol=1e-12)
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
            "p_asym_adj": asym(ms_adj, t, ones),
            "p_asym_unadj": asym(ms_raw, t, ratio),
        }
        for t, p in zip(thresholds, p_sim)
    ]


def analyze(cfg: RunConfig, groups: Mapping[str, Sequence[float]]) -> dict:
    """The report of one run over ``groups``, label to values in input order.

    The control (``cfg.control``, else the first group) goes first in steel and
    confidence mode.  ``rank_samples`` converts and checks the groups once; the
    moments, the observation, the p-values of the engines ENGINES names for the
    run and the confidence bounds all read its result.
    """
    if cfg.pre_round is not None:
        groups = {k: [round(v, cfg.pre_round) for v in vals] for k, vals in groups.items()}
    labels = list(groups)
    steel = cfg.mode in ("steel", "confidence")
    if steel:
        ctrl = cfg.control if cfg.control is not None else labels[0]
        if ctrl not in groups:
            raise ParameterError(f"unknown group {ctrl!r}; available: {labels}")
        labels = [ctrl] + [g for g in labels if g != ctrl]
    arrays = [groups[g] for g in labels]
    report: dict = {
        "schema_version": SCHEMA_VERSION,
        "config": _fields(cfg),
        "groups": {
            "labels": labels,
            "sizes": [len(a) for a in arrays],
            "control": labels[0] if steel else None,
        },
    }
    if cfg.mode == "quality_harness":
        rows = quality_harness(arrays, cfg.alternative, nsim=cfg.nsim, seed=cfg.seed,
                               nodes=cfg.nodes)
        columns = ["threshold", "p_sim", "p_asym_adj", "p_asym_unadj"]
        return {**report, "harness": {"columns": columns, "rows": rows}, "warnings": []}

    samples = rank_samples(arrays)
    engines = ENGINES[cfg.mode].get(cfg.method)
    if engines is None:
        raise ParameterError("pairwise mode supports methods: asymptotic (mvn), simulated, all")
    pairs = (control_pairs if steel else all_pairs)(samples.n_groups)
    ms = pair_moments(samples.sizes, samples.tie_pattern, pairs)
    obs = observe(samples, ms, cfg.alternative)
    diag = check_asymptotic_conditions(samples, cfg.epsilon)
    warnings = list(diag.warnings)
    if obs.degenerate:  # fully tied data: every pair's statistic is constant
        warnings.append("degenerate data: asymptotic p-value set to 1" if steel
                        else "fully tied data: statistics are degenerate at 0")
    p_values: dict[str, dict] = {}
    for engine in engines:
        pv = engine(samples, ms, obs, cfg)
        p_values[pv.method] = {k: v for k, v in _fields(pv).items() if v is not None}
    report.update(diagnostics=_fields(diag, "warnings"), p_values=p_values, warnings=warnings)

    if not steel:
        report["pairwise"] = {
            **_fields(ms, *_DESIGN_FIELDS, "correction_ratio", "sigma0_2", "sigma2"),
            **_fields(obs, "degenerate"),
            "pairs": [f"{a + 1}-{b + 1}" for a, b in ms.pairs],
        }
        return report
    report["moments"] = {**_fields(ms, *_DESIGN_FIELDS, "cov"), "tau": ms.tau}
    z = obs.standardized[None, :]
    report["observation"] = {
        **_fields(obs),
        "rank_sums": rank_sums(obs.w_star, list(samples.sizes[1:])),
        **{kind: reduce_statistic(kind, z)[0] for kind in ("s_max", "s_min", "s_abs")},
        "alternative": cfg.alternative,
    }
    if cfg.mode == "confidence":  # the steel analysis plus the interval construction
        direction = {"less": "upper", "greater": "lower"}.get(cfg.alternative)
        if direction is None:
            cr = simultaneous_intervals(samples, cfg.conf_level, cfg.rounding_eps, cfg.nodes)
        else:
            cr = simultaneous_bounds(
                samples, cfg.conf_level, direction, cfg.rounding_eps, cfg.nodes
            )
        report["confidence"] = _fields(cr)
        warnings += cr.warnings
    return report
