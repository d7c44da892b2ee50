"""Guard the package's import structure: a pinned public surface, no private
cross-module names, and no scipy anywhere: no module imports it and no run loads it."""
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
    "BudgetError", "ConfidenceResult", "Diagnostics", "IndexSelection",
    "MomentSet", "NumericError", "Observation", "PValue", "ParameterError", "RankedSamples",
    "TiePattern", "check_asymptotic_conditions", "compute_midranks", "cov_w",
    "exact_p_value", "extract_tie_pattern", "joint_lower_box_prob", "kth_difference",
    "mann_whitney_star", "mean_w", "observe", "pair_moments", "rank_samples", "rank_sums",
    "select_indices", "simulated_tail_counts", "simultaneous_bounds",
    "simultaneous_intervals", "solve_common_threshold", "split_count", "tail_prob", "var_w",
]


def test_public_names_are_pinned_and_resolve():
    assert sorted(steelrank.__all__) == PUBLIC_NAMES
    assert len(PUBLIC_NAMES) == 32
    for name in PUBLIC_NAMES:
        assert hasattr(steelrank, name), name


# (importing module, source module, private name) edges that are allowed to stay:
# none, every module reaches the others through public names only
ALLOWED = set()


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


ENGINE_ENTRIES = {"simulated_tail_counts", "exact_p_value", "mvn_tail_counts", "tail_prob",
                  "simultaneous_bounds", "simultaneous_intervals"}


def called_names(path: Path) -> set[str]:
    """The name of every function a module calls, by bare name or as an attribute."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Call):
            func = node.func
            names.add(func.id if isinstance(func, ast.Name) else getattr(func, "attr", None))
    return names


def test_cli_only_parses_and_renders():
    # the engines run in steelrank.analysis; the CLI reads input and writes reports
    assert called_names(PACKAGE / "cli.py") & ENGINE_ENTRIES == set()
    assert called_names(PACKAGE / "analysis.py") >= ENGINE_ENTRIES


def test_scripts_take_the_harness_from_the_library():
    scripts = sorted((Path(__file__).resolve().parents[1] / "scripts").glob("*.py"))
    assert scripts
    for path in scripts:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.module == "steelrank.cli":
                assert "quality_harness" not in {alias.name for alias in node.names}, path


def scipy_imports() -> set[tuple[str, int]]:
    """(module, line) of every import of scipy or any of its submodules in the package."""
    found = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module or ""]
            elif isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            else:
                continue
            if any(n.split(".")[0] == "scipy" for n in names):
                found.add((path.stem, node.lineno))
    return found


def test_no_module_imports_scipy():
    assert scipy_imports() == set()


# Runs in a fresh interpreter so that no earlier test has loaded scipy; _box_mass,
# which evaluates every normal tail and box, is counted per run.
FOOTPRINT_SCRIPT = """
import json, os, sys
import steelrank.cli as cli
import steelrank.gauss as gauss

DATA = sys.argv[1]
box_calls = [0]
box_mass = gauss._box_mass
def counted(*args):
    box_calls[0] += 1
    return box_mass(*args)
gauss._box_mass = counted

def loaded():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")

def run(*args):
    box_calls[0] = 0
    code = cli.main(["--out", os.devnull, *args])
    return {"args": args, "code": code, "scipy": loaded(), "box_calls": box_calls[0]}

runs = [{"args": ["import"], "code": 0, "scipy": loaded(), "box_calls": 0}]
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
    """Per run, the scipy modules loaded after it and its _box_mass calls: import,
    pairwise (Monte Carlo and MVN sampling), steel exact, steel Monte Carlo,
    confidence, quality harness."""
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


def test_no_run_loads_scipy():
    for entry in import_footprint():
        assert entry["scipy"] == [], entry["args"]


def test_normal_tails_run_on_numpy_alone():
    imported, pairwise, *asymptotic = import_footprint()
    # importing the package and a sampled all-pairs run take no normal tail
    assert imported["box_calls"] == 0 and pairwise["box_calls"] == 0, (imported, pairwise)
    # steel reports carry the asymptotic p-value, and confidence and harness runs
    # solve on the normal tail: these evaluate it, and still load no scipy
    for entry in asymptotic:
        assert entry["box_calls"] > 0 and entry["scipy"] == [], entry
