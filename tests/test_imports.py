"""Guard against modules reaching into each other's private names."""
import ast
from pathlib import Path

import steelrank

PACKAGE = Path(steelrank.__file__).parent

# (importing module, source module, private name) edges that are allowed to stay;
# cli has none: it parses input and renders reports through public names only
ALLOWED = {
    ("confidence", "ranks", "_as_scores"),
    ("statistics", "ranks", "_as_scores"),
    ("pairwise", "moments", "_cov_w_exact"),
    ("pairwise", "moments", "_var_w_exact"),
    ("pairwise", "randomization", "_mc_tail_counts"),
    ("pairwise", "randomization", "_standardize"),
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
