"""Dense complex linear algebra for one- and two-qubit systems.

Fixes the conventions used by every other module:

* two-qubit basis order |00>, |01>, |10>, |11>, index = 2*bitA + bitB,
  first bit = subsystem A;
* partial traces as linear maps on 4x4 operators, with
  Tr_B acting on the A side and Tr_A acting on the B side;
* absolute Frobenius tolerances (amplitudes here are O(1)).

States are unit vectors: normalization is validated, never silently
re-imposed; use ``normalized``/``unit`` when a vector needs rescaling.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Mat2 / Mat4: row-major complex ndarrays of shape (2, 2) / (4, 4).
Mat2 = np.ndarray
Mat4 = np.ndarray

#: tolerance for unit-norm validation of constructed states
NORM_TOL = 1e-12

#: default tolerance for residual comparisons
DEFAULT_TOL = 1e-9


@dataclass(frozen=True)
class QubitState:
    """A single-qubit state alpha0|0> + alpha1|1>, validated unit norm."""

    alpha0: complex
    alpha1: complex

    def __post_init__(self):
        a0, a1 = abs(self.alpha0), abs(self.alpha1)
        # x * x, not x ** 2: a huge amplitude gives inf, not OverflowError
        n2 = a0 * a0 + a1 * a1
        if not abs(n2 - 1.0) <= NORM_TOL:  # also rejects nan and inf
            raise ValueError(f"qubit state not normalized: |alpha|^2 = {n2!r}")

    @classmethod
    def normalized(cls, alpha0: complex, alpha1: complex) -> "QubitState":
        """Rescale (alpha0, alpha1) to unit norm and construct."""
        n = math.hypot(abs(alpha0), abs(alpha1))
        if not 0.0 < n < math.inf:  # also rejects nan
            raise ValueError(
                f"cannot normalize {(alpha0, alpha1)!r}: norm {n!r}")
        return cls(complex(alpha0) / n, complex(alpha1) / n)

    @property
    def vec(self) -> np.ndarray:
        return np.array([self.alpha0, self.alpha1], dtype=np.complex128)


@dataclass(frozen=True, eq=False)
class TwoQubitState:
    """A two-qubit vector in the fixed |00>,|01>,|10>,|11> order.

    ``vec`` holds a read-only complex128 copy of the input, shape (4,),
    validated unit norm.
    """

    vec: np.ndarray

    def __post_init__(self):
        v = np.array(self.vec, dtype=np.complex128).reshape(4)
        n2 = float(np.vdot(v, v).real)
        if not abs(n2 - 1.0) <= NORM_TOL:  # also rejects nan and inf
            raise ValueError(f"two-qubit state not normalized: |c|^2 = {n2!r}")
        v.flags.writeable = False
        object.__setattr__(self, "vec", v)

    @classmethod
    def from_vec(cls, vec) -> "TwoQubitState":
        return cls(vec)

    @classmethod
    def unit(cls, vec) -> "TwoQubitState":
        """Rescale ``vec`` to unit norm and construct."""
        v = np.asarray(vec, dtype=np.complex128).reshape(4)
        n = float(np.linalg.norm(v))
        if not 0.0 < n < math.inf:  # also rejects nan
            raise ValueError(f"cannot normalize {v!r}: norm {n!r}")
        return cls(v / n)

    @property
    def mat(self) -> np.ndarray:
        """2x2 amplitude matrix M with M[i, j] = amplitude of |i>_A |j>_B."""
        return self.vec.reshape(2, 2)


# ---------------------------------------------------------------------------
# Operations
# ---------------------------------------------------------------------------

def outer(u: TwoQubitState, v: TwoQubitState) -> Mat4:
    """|u><v| as a 4x4 matrix: entry (i, j) = u_i * conj(v_j)."""
    return np.outer(u.vec, v.vec.conj())


def ptrace_A(M: Mat4) -> Mat2:
    """Trace out subsystem A (first bit), leaving a B-side 2x2 operator.

    Linear extension of Tr_A(|i1 i2><j1 j2|) = delta_{i1 j1} |i2><j2|;
    the (0,0) entry of Tr_A(|Psi0><Psi1|) is a0*conj(b0) + a2*conj(b2).
    """
    R = np.asarray(M, dtype=np.complex128).reshape(2, 2, 2, 2)
    return np.einsum("abad->bd", R)


def ptrace_B(M: Mat4) -> Mat2:
    """Trace out subsystem B (second bit), leaving an A-side 2x2 operator."""
    R = np.asarray(M, dtype=np.complex128).reshape(2, 2, 2, 2)
    return np.einsum("abcb->ac", R)


def frob_dist(M1, M2) -> float:
    """Frobenius norm of M1 - M2."""
    return float(np.linalg.norm(np.asarray(M1) - np.asarray(M2)))


def is_unitary(M: Mat4) -> bool:
    """True iff ||M^dagger M - I||_F <= NORM_TOL."""
    M = np.asarray(M, dtype=np.complex128)
    eye = np.eye(M.shape[0], dtype=np.complex128)
    return frob_dist(M.conj().T @ M, eye) <= NORM_TOL


# Convenience kets in the fixed basis order.
def basis_ket(label: str) -> TwoQubitState:
    """The computational ket for a two-bit label, e.g. ``basis_ket("01")``."""
    if label not in ("00", "01", "10", "11"):
        raise ValueError(f"unknown basis label {label!r}")
    v = np.zeros(4, dtype=np.complex128)
    v[2 * int(label[0]) + int(label[1])] = 1.0
    return TwoQubitState.from_vec(v)
