"""The README library tour runs and its comments state what it computes."""

import re
from pathlib import Path

import numpy as np
import pytest

from qmask import FeasibilityStatus

README = Path(__file__).resolve().parents[1] / "README.md"


def _tour_block() -> str:
    text = README.read_text(encoding="utf-8")
    tour = text.split("## Library tour", 1)[1]
    match = re.search(r"```python\n(.*?)```", tour, re.S)
    assert match, "README library tour has no python block"
    return match.group(1)


def test_readme_library_tour_values():
    block = _tour_block()
    ns: dict = {}
    exec(compile(block, str(README), "exec"), ns)

    report, out, points, F = ns["report"], ns["out"], ns["points"], ns["F"]
    assert report.verdict is True
    assert max(report.residuals()) < 1e-15
    assert out.status is FeasibilityStatus.INFEASIBLE
    assert out.decided_by == "bound"
    assert out.best_residual == pytest.approx(0.01414, abs=1e-5)
    assert len(points) == 191
    assert np.linalg.norm(F.conj().T @ F - np.eye(4)) <= 1e-12

    # the comments quote these values
    assert re.search(r"report\.verdict\s+# True", block)
    assert re.search(r"out\.status\s+# Infeasible", block)
    assert re.search(r"out\.decided_by\s+# bound", block)
    assert f"# ~{out.best_residual:.4f} " in block
    assert f"# {len(points)} lattice points" in block
