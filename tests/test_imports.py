"""Guard the package's import structure: a pinned public surface, no private
cross-module names, no scipy on import or on sampled all-pairs runs, and no
scipy.optimize anywhere."""
import ast
import json
import os
import subprocess
import sys
from functools import lru_cache
from pathlib import Path

import steelrank

PACKAGE = Path(steelrank.__file__).parent

# the public surface: a name joins it with a user-facing caller, not for tests alone
PUBLIC_NAMES = [
    "BudgetError", "ConfidenceResult", "Diagnostics", "FactorModel", "IndexSelection",
    "MomentSet", "NumericError", "PValue", "PairwiseMoments", "PairwiseResult",
    "ParameterError", "RankedSamples", "SteelObservation", "TiePattern",
    "check_asymptotic_conditions", "compute_midranks", "cov_w", "exact_p_value",
    "extract_tie_pattern", "factor_decomposition", "joint_lower_box_prob", "kth_difference",
    "mann_whitney_star", "mean_w", "pairwise_moment_matrix", "pairwise_test", "rank_samples",
    "rank_sums", "sampled_p_value", "select_indices", "simulated_tail_counts",
    "simultaneous_bounds", "simultaneous_intervals", "solve_common_threshold", "split_count",
    "steel_statistics", "tail_prob", "var_w",
]


def test_public_names_are_pinned_and_resolve():
    assert sorted(steelrank.__all__) == PUBLIC_NAMES
    assert len(PUBLIC_NAMES) == 38
    for name in PUBLIC_NAMES:
        assert hasattr(steelrank, name), name


# (importing module, source module, private name) edges that are allowed to stay;
# cli has none: it parses input and renders reports through public names only
ALLOWED = {
    ("confidence", "ranks", "_as_scores"),
    ("statistics", "ranks", "_as_scores"),
}


def private_import_edges() -> set[tuple[str, str, str]]:
    edges = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module:
                edges |= {
                    (path.stem, node.module, alias.name)
                    for alias in node.names
                    if alias.name.startswith("_") and not alias.name.startswith("__")
                }
    return edges


def test_private_cross_module_imports_match_allowlist():
    assert private_import_edges() == ALLOWED


def scipy_optimize_imports() -> set[tuple[str, int]]:
    """(module, line) of every import of scipy.optimize or its submodules in the package."""
    found = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module or ""]
                if node.module == "scipy":  # from scipy import optimize
                    names = [f"scipy.{alias.name}" for alias in node.names]
            elif isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            else:
                continue
            if any(n == "scipy.optimize" or n.startswith("scipy.optimize.") for n in names):
                found.add((path.stem, node.lineno))
    return found


def test_no_module_imports_scipy_optimize():
    assert scipy_optimize_imports() == set()


# Runs in a fresh interpreter so that no earlier test has loaded scipy; the
# pairwise run comes before any steel run, whose asymptotic p-value loads scipy.special.
FOOTPRINT_SCRIPT = """
import json, os, sys
import steelrank.cli as cli

DATA = sys.argv[1]
def loaded():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")

def run(*args):
    code = cli.main(["--out", os.devnull, *args])
    return {"args": args, "code": code, "scipy": loaded()}

runs = [{"args": ["import"], "code": 0, "scipy": loaded()}]
runs.append(run("--input", f"{DATA}/iq_birth_condition.csv", "--mode", "pairwise",
                "--nsim", "2000"))
runs.append(run("--input", f"{DATA}/likert_small.csv", "--method", "all"))
runs.append(run("--input", f"{DATA}/iq_birth_condition.csv", "--method", "simulated",
                "--nsim", "2000"))
runs.append(run("--input", f"{DATA}/likert_small.csv", "--mode", "confidence",
                "--method", "asymptotic"))
runs.append(run("--input", f"{DATA}/likert_small.csv", "--mode", "quality_harness",
                "--alternative", "greater", "--nsim", "2000"))
print(json.dumps(runs))
"""


@lru_cache(maxsize=None)
def import_footprint() -> tuple[dict, ...]:
    """Per run, the scipy modules loaded after it: import, pairwise (Monte Carlo and
    MVN sampling), steel exact, steel Monte Carlo, confidence, quality harness."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(PACKAGE.parent), env.get("PYTHONPATH")]))
    data = Path(__file__).parent / "data"
    done = subprocess.run(
        [sys.executable, "-c", FOOTPRINT_SCRIPT, str(data)],
        env=env, capture_output=True, text=True, timeout=300, check=True,
    )
    runs = tuple(json.loads(done.stdout.splitlines()[-1]))
    assert all(entry["code"] == 0 for entry in runs), runs
    return runs


def test_no_run_loads_scipy_optimize():
    runs = import_footprint()
    for entry in runs:
        assert "scipy.optimize" not in entry["scipy"], entry["args"]
    # the confidence and harness runs solve thresholds with gauss.brent_root, on
    # normal tails from scipy.special
    for entry in runs[-2:]:
        assert "scipy.special" in entry["scipy"], entry["args"]


def test_scipy_special_loads_only_with_the_first_normal_tail():
    imported, pairwise, *asymptotic = import_footprint()
    # importing the package and a sampled all-pairs run load no scipy at all
    assert imported["scipy"] == [] and pairwise["scipy"] == [], (imported, pairwise)
    # steel reports carry the asymptotic p-value, and confidence and harness runs
    # solve on the normal tail, so these load it
    for entry in asymptotic:
        assert "scipy.special" in entry["scipy"], entry["args"]
