"""Rank-based many-to-one and all-pairs comparisons under the conditional
randomization model, with exact tie handling throughout."""

from .confidence import (
    ConfidenceResult,
    IndexSelection,
    kth_difference,
    select_indices,
    simultaneous_bounds,
    simultaneous_intervals,
)
from .errors import BudgetError, NumericError, ParameterError
from .gauss import joint_lower_box_prob, solve_common_threshold, tail_prob
from .moments import MomentSet, cov_w, mean_w, pair_moments, var_w
from .randomization import (
    PValue,
    exact_p_value,
    sampled_p_value,
    simulated_tail_counts,
    split_count,
)
from .ranks import (
    Diagnostics,
    RankedSamples,
    TiePattern,
    check_asymptotic_conditions,
    compute_midranks,
    extract_tie_pattern,
    rank_samples,
)
from .statistics import Observation, mann_whitney_star, observe, rank_sums

__version__ = "0.1.0"

__all__ = [
    "BudgetError",
    "ConfidenceResult",
    "Diagnostics",
    "IndexSelection",
    "MomentSet",
    "NumericError",
    "Observation",
    "PValue",
    "ParameterError",
    "RankedSamples",
    "TiePattern",
    "check_asymptotic_conditions",
    "compute_midranks",
    "cov_w",
    "exact_p_value",
    "extract_tie_pattern",
    "joint_lower_box_prob",
    "kth_difference",
    "mann_whitney_star",
    "mean_w",
    "observe",
    "pair_moments",
    "rank_samples",
    "rank_sums",
    "select_indices",
    "sampled_p_value",
    "simultaneous_bounds",
    "simultaneous_intervals",
    "simulated_tail_counts",
    "solve_common_threshold",
    "split_count",
    "tail_prob",
    "var_w",
]
