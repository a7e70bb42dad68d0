"""The traced benchmark pass finds every qmask name it wraps.

``perfbench/workloads.py`` patches public functions and classmethods of
qmask by name; a rename in ``src/`` fails here rather than in a later
benchmark run.
"""

import importlib.util
import sys
from pathlib import Path

from qmask import cli
from qmask.qlinalg import TwoQubitState

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_layer_spans_install_record_and_restore(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))  # workloads imports measure
    spec = importlib.util.spec_from_file_location(
        "workloads", PERFBENCH / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    # its dataclasses resolve annotations through sys.modules
    monkeypatch.setitem(sys.modules, "workloads", workloads)
    spec.loader.exec_module(workloads)
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
