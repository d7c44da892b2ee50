"""Workload definitions: seeded input classes, their mix, and the CLI flags per operation.

Every operation is one ``steelrank.cli.main`` call on a freshly generated input
file.  Inputs depend only on (workload seed, operation index), so the same seed
replays the same inputs and the same Monte Carlo seeds.

Class weights are chosen so that the median and the 90th percentile of the
latency each fall inside one class, several percent away from the boundary with
the next class, so the percentiles do not flip between runs (see README.md).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

ALTERNATIVES = ("greater", "less", "two-sided")
# treatment shifts in standard-deviation units: half null, half non-null effects
SHIFTS = (0.0, 0.0, 0.25, 0.5)
NSIM = 10_000
RAISED_BUDGET = str(10**30)


@dataclass(frozen=True)
class OpClass:
    """One input shape: group sizes, how values are drawn, and its share of the mix."""

    name: str
    sizes: tuple[int, ...]
    values: str  # untied | r1 | likert | two | iq
    weight: int
    extra: tuple[str, ...] = ()


@dataclass(frozen=True)
class Workload:
    name: str
    mode: str
    method: str
    classes: tuple[OpClass, ...]
    nsim: int | None = None

    def schedule(self) -> list[OpClass]:
        """One cycle of the mix, interleaved so every prefix keeps the class shares.

        Class c with weight w is placed at virtual times (k + 0.5) / w, k < w.
        """
        slots = [
            ((k + 0.5) / c.weight, order, c)
            for order, c in enumerate(self.classes)
            for k in range(c.weight)
        ]
        return [c for _, _, c in sorted(slots, key=lambda s: s[:2])]


def _grid(values: str) -> float:
    """Recording grid of a value kind (0 for continuous data)."""
    return {"untied": 0.0, "r1": 0.1}.get(values, 1.0)


def draw_values(rng: np.random.Generator, values: str, n: int, shift: float) -> np.ndarray:
    z = rng.standard_normal(n) + shift
    if values == "untied":
        return z
    if values == "r1":
        return np.round(z, 1)
    if values == "likert":
        return np.clip(np.rint(3.0 + 1.2 * z), 1.0, 5.0)
    if values == "two":
        return (z > 0).astype(float)
    if values == "iq":
        return np.rint(110.0 + 15.0 * z)
    raise ValueError(f"unknown value kind {values!r}")


@dataclass(frozen=True)
class Operation:
    cls: OpClass
    groups: tuple[np.ndarray, ...]
    alternative: str
    round_eps: float
    mc_seed: int


def make_operation(workload: Workload, cls: OpClass, seed: int, index: int) -> Operation:
    rng = np.random.default_rng([seed, index])
    groups = [draw_values(rng, cls.values, cls.sizes[0], 0.0)]
    for n in cls.sizes[1:]:
        groups.append(draw_values(rng, cls.values, n, float(rng.choice(SHIFTS))))
    alternative = ALTERNATIVES[index % len(ALTERNATIVES)]
    # confidence mode: every other operation on recorded-on-a-grid data widens by half the grid
    round_eps = 0.0
    if workload.mode == "confidence" and _grid(cls.values) and index % 2:
        round_eps = _grid(cls.values) / 2
    return Operation(
        cls=cls,
        groups=tuple(groups),
        alternative=alternative,
        round_eps=round_eps,
        mc_seed=int(rng.integers(0, 2**31 - 1)),
    )


def write_input(path: str, groups) -> None:
    """csv_long with labels g0 (control) .. gK; repr keeps every float exact."""
    lines = ["group,value"]
    for g, vals in enumerate(groups):
        lines.extend(f"g{g},{float(v)!r}" for v in vals)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def cli_args(workload: Workload, op: Operation, input_path: str, out_path: str) -> list[str]:
    argv = [
        "--input", input_path,
        "--out", out_path,
        "--mode", workload.mode,
        "--method", workload.method,
        "--alternative", op.alternative,
        "--seed", str(op.mc_seed),
    ]
    if workload.mode != "pairwise":
        argv += ["--control", "g0"]
    if workload.nsim is not None:
        argv += ["--nsim", str(workload.nsim)]
    if op.round_eps:
        argv += ["--round-eps", repr(op.round_eps)]
    return argv + list(op.cls.extra)


def _c(name, sizes, values, weight, extra=()):
    return OpClass(name, tuple(sizes), values, weight, tuple(extra))


IQ = (6, 6, 6, 6)

WORKLOADS = {
    w.name: w
    for w in (
        # Default path on real-size data: every shape is over the exact budget,
        # so Monte Carlo answers each operation.  3x1000 untied stands in for
        # the 3x2000 untied memory case (see README.md).
        Workload(
            name="steel_mc",
            mode="steel",
            method="all",
            nsim=NSIM,
            classes=(
                _c("iq_4x6", IQ, "iq", 12),
                _c("two_3x20", (20,) * 3, "two", 10),
                _c("r1_3x100", (100,) * 3, "r1", 32),
                _c("untied_3x100", (100,) * 3, "untied", 2),
                _c("r1_10x50", (50,) * 10, "r1", 8),
                _c("untied_3x1000", (1000,) * 3, "untied", 1),
                _c("r1_3x2000", (2000,) * 3, "r1", 1),
            ),
        ),
        # Exact enumeration answers every operation; Likert ties collapse the states.
        Workload(
            name="steel_exact",
            mode="steel",
            method="all",
            classes=(
                _c("likert_4_4_4", (4, 4, 4), "likert", 3),
                _c("likert_5_5_4", (5, 5, 4), "likert", 3),
                _c("likert_5_5_5", (5, 5, 5), "likert", 3),
                _c("likert_3_3_3_3", (3, 3, 3, 3), "likert", 3),
                _c("likert_8_8", (8, 8), "likert", 3),
                _c("likert_12_12", (12, 12), "likert", 3),
                _c("untied_8_8", (8, 8), "untied", 2),
                _c("untied_4_4_4", (4, 4, 4), "untied", 34),
                _c("untied_5_5_4", (5, 5, 4), "untied", 7),
                _c("untied_3_3_3_3", (3, 3, 3, 3), "untied", 1),
                _c("untied_5_5_5", (5, 5, 5), "untied", 1),
                _c("untied_12_12", (12, 12), "untied", 1),
            ),
        ),
        # All-pairs: C(K,2) pairs through the shared MC kernel plus MVN sampling.
        Workload(
            name="pairwise",
            mode="pairwise",
            method="all",
            nsim=NSIM,
            classes=(
                _c("iq_4x6", IQ, "iq", 5),
                _c("two_3x20", (20,) * 3, "two", 5),
                _c("r1_3x100", (100,) * 3, "r1", 14),
                _c("untied_3x100", (100,) * 3, "untied", 2),
                _c("r1_10x50", (50,) * 10, "r1", 6),
            ),
        ),
        # Nothing sampled or enumerated: quadrature, moments, ranks, sorted differences.
        Workload(
            name="confidence_asym",
            mode="confidence",
            method="asymptotic",
            classes=(
                _c("iq_4x6", IQ, "iq", 4),
                _c("two_3x20", (20,) * 3, "two", 4),
                _c("untied_3x100", (100,) * 3, "untied", 4),
                _c("r1_3x100", (100,) * 3, "r1", 4),
                _c("r1_10x50", (50,) * 10, "r1", 8),
                _c("r1_3x2000", (2000,) * 3, "r1", 1),
            ),
        ),
    )
}

# Known defect kept visible (ROADMAP open item 3): two-valued 3x20 under a raised
# exact budget.  Every such operation fails today, so it runs as an untimed probe
# beside the steel_exact loop instead of inside it.
EXACT_PROBE = Workload(
    name="exact_probe",
    mode="steel",
    method="exact",
    classes=(_c("two_3x20_raised_budget", (20,) * 3, "two", 1, ("--exact-budget", RAISED_BUDGET)),),
)
EXACT_PROBE_OPS = 6
