"""The benchmark workloads still run against qmask and pass their gates.

``perfbench/workloads.py`` patches public functions and classmethods of
qmask by name, and calls others directly; a rename or removal in
``src/`` fails here rather than in a later benchmark run.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

from qmask import cli
from qmask.qlinalg import TwoQubitState

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture
def workloads(monkeypatch):
    """``perfbench/workloads.py`` loaded as a module, with ``measure``."""
    monkeypatch.syspath_prepend(str(PERFBENCH))  # workloads imports measure
    spec = importlib.util.spec_from_file_location(
        "workloads", PERFBENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    # its dataclasses resolve annotations through sys.modules
    monkeypatch.setitem(sys.modules, "workloads", module)
    spec.loader.exec_module(module)
    return module


def test_layer_spans_install_record_and_restore(workloads):
    from measure import Tracer

    originals = (vars(TwoQubitState)["unit"], cli.main)
    tracer = Tracer()
    try:
        workloads.install_layer_spans(tracer)
        TwoQubitState.unit([1.0, 0.0, 0.0, 1.0])
        assert [s.name for s in tracer.spans] == ["qlinalg.TwoQubitState.unit"]
    finally:
        tracer.restore()
    assert (vars(TwoQubitState)["unit"], cli.main) == originals


def test_one_gated_pass_of_each_workload(workloads, tmp_path):
    # one timed pass as a benchmark run makes it, then its correctness
    # gate; this reaches the names the workloads call without patching
    from measure import Tracer

    # The harness keeps every decision interval of every pass, so this
    # count times the pass rate drives peak_rss_mb: a change to it should
    # be deliberate.  A bound certifies every Infeasible scan pair, and
    # the scan decides one pair per orbit of its 16 violations: 2.
    decisions = {"tables": 106, "scan": 2, "verdicts": 4000}
    assert set(workloads.WORKLOADS) == set(decisions)
    for name, cls in workloads.WORKLOADS.items():
        workload = cls(1, tmp_path)
        tracer = Tracer()
        workloads.install_decision_spans(tracer)
        try:
            result = workload.timed_pass(tracer)
        finally:
            tracer.restore()
        workload.check(result)
        assert result.attempted > 0, name
        assert result.failures == [], name
        assert len(result.decisions) == decisions[name], name


def test_default_search_config_is_the_measured_one(workloads):
    # a default `qmask tables` (and `verify`) runs the configuration the
    # benchmark's tables workload times and gates
    from qmask.patterns import FeasibilityConfig

    cfg = FeasibilityConfig()
    assert (cfg.restarts, cfg.seed) == (workloads.Tables.RESTARTS,
                                        workloads.SEARCH_SEED)
