"""Dense complex linear algebra for one- and two-qubit systems.

Fixes the conventions used by every other module:

* two-qubit basis order |00>, |01>, |10>, |11>, index = 2*bitA + bitB,
  first bit = subsystem A;
* partial traces of 4x4 operators: Tr_A leaves the B side, Tr_B the A side;
* absolute Frobenius tolerances (amplitudes here are O(1)).

States are unit vectors: normalization is validated, never silently
re-imposed; use ``normalized``/``unit`` when a vector needs rescaling.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

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


def ptrace_A(M: np.ndarray) -> np.ndarray:
    """Trace out subsystem A (first bit), leaving a B-side 2x2 operator.

    Linear extension of Tr_A(|i1 i2><j1 j2|) = delta_{i1 j1} |i2><j2|.
    """
    R = np.asarray(M, dtype=np.complex128).reshape(2, 2, 2, 2)
    return np.einsum("abad->bd", R)


def ptrace_B(M: np.ndarray) -> np.ndarray:
    """Trace out subsystem B (second bit), leaving an A-side 2x2 operator."""
    R = np.asarray(M, dtype=np.complex128).reshape(2, 2, 2, 2)
    return np.einsum("abcb->ac", R)
