import csv
from pathlib import Path

import pytest

from steelrank import _cache, analysis, cli, gauss, randomization

DATA_DIR = Path(__file__).parent / "data"


def load_grouped_csv(path):
    groups: dict[str, list[float]] = {}
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    for row in rows[1:]:
        groups.setdefault(row[0], []).append(float(row[1]))
    return groups


@pytest.fixture(scope="session")
def iq_groups():
    """Four groups of six IQ scores (control first) used for cross-validation."""
    groups = load_grouped_csv(DATA_DIR / "iq_birth_condition.csv")
    return [groups[g] for g in ("control", "t1", "t2", "t3")]


@pytest.fixture(autouse=True)
def _cold_caches():
    """Each test starts with every per-process cache empty, so its first call computes:
    the design cache's moment sets, index selections and exact tail tables,
    compositions, quadrature nodes, report field names and the CLI parser."""
    analysis._field_names.cache_clear()
    randomization._compositions.cache_clear()
    _cache.DESIGNS.clear()
    gauss._nodes.cache_clear()
    cli.build_parser.cache_clear()
