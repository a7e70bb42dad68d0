"""qmask runs on NumPy and the standard library alone.

scipy and sympy are installed for the tests' independent oracles; a
runtime import of either would slow every start-up and enlarge every
process.
"""

import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def test_import_loads_neither_scipy_nor_sympy():
    # -I: no PYTHONPATH, user site or current directory; src goes in by hand
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import qmask; "
            "print(qmask.__file__); "
            "print(sorted({m.split('.')[0] for m in sys.modules} "
            "& {'scipy', 'sympy'}))")
    proc = subprocess.run([sys.executable, "-I", "-c", code, str(SRC)],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    path, loaded = proc.stdout.splitlines()
    assert Path(path).is_relative_to(SRC)
    assert loaded == "[]"
