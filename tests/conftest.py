"""Shared fixtures.

The verdict-table reproduction and the support scan are the two runs
the acceptance gate reads, at the default config (10 restarts, seed 42,
the budget the benchmark's tables workload runs): the tables take under
a second (the certified eq4 bound decides the 76 Infeasible rows
without a search, so only the 30 Feasible rows are searched) and the
scan a few milliseconds (it skips same-support pairs and the 194 pairs
a certified bound proves Infeasible; the other 16, its violations, get
witnesses built from formulas, two of them directly and 14 as their
relabelled images, with no search).
Both are deterministic, so they run once per session here and every
test that needs them reads the cached result.
"""

import time

import pytest

from qmask.patterns import (
    FeasibilityConfig,
    reproduce_tables,
    support_theorem_scan,
)


@pytest.fixture(scope="session")
def default_cfg() -> FeasibilityConfig:
    return FeasibilityConfig()


@pytest.fixture(scope="session")
def tables_run(default_cfg):
    """(results-by-table, elapsed seconds) at the default config."""
    t0 = time.perf_counter()
    rows = reproduce_tables((1, 2, 3, 4), default_cfg)
    elapsed = time.perf_counter() - t0
    return {n: [r for r in rows if r.row.table == n]
            for n in (1, 2, 3, 4)}, elapsed


@pytest.fixture(scope="session")
def scan_run(default_cfg):
    """(support-scan violations, elapsed seconds) at the default config."""
    t0 = time.perf_counter()
    violations = support_theorem_scan(default_cfg)
    return violations, time.perf_counter() - t0
