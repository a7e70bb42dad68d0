"""An independent 4x4 density-matrix oracle for the marginal kernel.

The library reads every marginal from the scalar block kernel
``conditions._blocks``.  Tests cross-check it against outer products and
the partial traces ``qlinalg.ptrace_A``/``ptrace_B`` (re-exported here,
so a single copy exists).
"""

import numpy as np

from qmask.qlinalg import TwoQubitState, ptrace_A, ptrace_B

__all__ = ["basis_ket", "frob_dist", "outer", "ptrace_A", "ptrace_B"]


def outer(u: TwoQubitState, v: TwoQubitState) -> np.ndarray:
    """|u><v| as a 4x4 matrix: entry (i, j) = u_i * conj(v_j)."""
    return np.outer(u.vec, v.vec.conj())


def frob_dist(M1, M2) -> float:
    """Frobenius norm of M1 - M2."""
    return float(np.linalg.norm(np.asarray(M1) - np.asarray(M2)))


# Convenience kets in the fixed basis order.
def basis_ket(label: str) -> TwoQubitState:
    """The computational ket for a two-bit label, e.g. ``basis_ket("01")``."""
    if label not in ("00", "01", "10", "11"):
        raise ValueError(f"unknown basis label {label!r}")
    v = np.zeros(4, dtype=np.complex128)
    v[2 * int(label[0]) + int(label[1])] = 1.0
    return TwoQubitState.from_vec(v)
