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
from .gauss import (
    FactorModel,
    joint_lower_box_prob,
    solve_common_threshold,
    tail_prob,
)
from .moments import MomentSet, cov_w, factor_decomposition, mean_w, var_w
from .pairwise import PairwiseMoments, PairwiseResult, pairwise_moment_matrix, pairwise_test
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
from .statistics import SteelObservation, mann_whitney_star, rank_sums, steel_statistics

__version__ = "0.1.0"

__all__ = [
    "BudgetError",
    "ConfidenceResult",
    "Diagnostics",
    "FactorModel",
    "IndexSelection",
    "MomentSet",
    "NumericError",
    "PValue",
    "PairwiseMoments",
    "PairwiseResult",
    "ParameterError",
    "RankedSamples",
    "SteelObservation",
    "TiePattern",
    "check_asymptotic_conditions",
    "compute_midranks",
    "cov_w",
    "exact_p_value",
    "extract_tie_pattern",
    "factor_decomposition",
    "joint_lower_box_prob",
    "kth_difference",
    "mann_whitney_star",
    "mean_w",
    "pairwise_moment_matrix",
    "pairwise_test",
    "rank_samples",
    "rank_sums",
    "select_indices",
    "sampled_p_value",
    "simultaneous_bounds",
    "simultaneous_intervals",
    "simulated_tail_counts",
    "solve_common_threshold",
    "split_count",
    "steel_statistics",
    "tail_prob",
    "var_w",
]
