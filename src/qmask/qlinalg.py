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
import sys
from dataclasses import dataclass
from numbers import Integral

import numpy as np

#: tolerance for unit-norm validation of constructed states
NORM_TOL = 1e-12
#: default tolerance for residual comparisons
DEFAULT_TOL = 1e-9

#: smallest positive normal float
_NORMAL_MIN = sys.float_info.min
#: moduli sums that keep a 4-vector's squared norm a normal float
_MODULI_MIN, _MODULI_MAX = 2.0 ** -509, 2.0 ** 510
#: norms that keep the moduli sum, between n and 2n, in that range
_NORM_MIN, _NORM_MAX = _MODULI_MIN, _MODULI_MAX / 2


@dataclass(frozen=True)
class QubitState:
    """A single-qubit state alpha0|0> + alpha1|1>, validated unit norm."""

    alpha0: complex
    alpha1: complex

    def __post_init__(self):
        _check_unit((self.alpha0, self.alpha1), "qubit state")

    @classmethod
    def normalized(cls, alpha0: complex, alpha1: complex) -> "QubitState":
        """Rescale (alpha0, alpha1) to unit norm and construct: divide by
        the ``math.hypot`` norm, `_prescaled` first if it is not normal."""
        try:
            n = math.hypot(abs(alpha0), abs(alpha1))
        except OverflowError:  # a finite modulus above the float range
            n = math.inf
        if not _NORMAL_MIN <= n < math.inf:  # also zero and nan
            return cls.normalized(*_prescaled((alpha0, alpha1))[0].tolist())
        # dividing by a normal norm leaves a unit pair to a few ulp
        state = object.__new__(cls)
        object.__setattr__(state, "alpha0", complex(alpha0) / n)
        object.__setattr__(state, "alpha1", complex(alpha1) / n)
        return state

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
        v = np.array(_check_unit(self.vec, "two-qubit state")).reshape(4)
        v.flags.writeable = False
        object.__setattr__(self, "vec", v)

    @classmethod
    def from_vec(cls, vec) -> "TwoQubitState":
        return cls(vec)

    @classmethod
    def unit(cls, vec) -> "TwoQubitState":
        """Rescale ``vec`` to unit norm and construct: the state of
        `_unit_state`, with the norm taken there."""
        return _unit_state(_complex_array(vec, "cannot normalize")
                           .reshape(4), math.nan)[0]


def _unit_state(v: np.ndarray, n: float) -> tuple[TwoQubitState, float]:
    """The frozen unit `TwoQubitState` of a complex 4-vector ``v``, and
    the norm it divided by, given ``v``'s `_norm` ``n`` (nan when not yet
    taken).

    The moduli sum t of ``v`` lies in [n, 2n], so a norm in
    [2^-509, 2^509] is divided by at once and returned.  Otherwise t
    decides: outside [2^-509, 2^510], where the squared norm could leave
    the normal float range, ``v`` is `_prescaled` first, so every finite
    nonzero vector normalizes, and the norm returned is the prescaled
    vector's `_norm` times its scale; ``ValueError`` for zero, inf or nan.
    """
    scale = 1.0
    if not _NORM_MIN <= n <= _NORM_MAX:  # also nan
        c0, c1, c2, c3 = v.tolist()
        try:
            total = abs(c0) + abs(c1) + abs(c2) + abs(c3)
        except OverflowError:  # a finite modulus above the float range
            total = math.inf
        if not _MODULI_MIN <= total <= _MODULI_MAX:  # also zero and nan
            v, scale = _prescaled(v)
        n = _norm(v)
    # a fresh array, unit to a few ulp: no copy or second check needed
    w = v / n
    w.flags.writeable = False
    state = object.__new__(TwoQubitState)
    object.__setattr__(state, "vec", w)
    return state, n * scale


def _norm(v: np.ndarray) -> float:
    """The norm of a complex vector, bit for bit the value of
    ``np.linalg.norm``: the one formula `_unit_state` divides by."""
    re, im = v.real, v.imag
    return math.sqrt(re.dot(re) + im.dot(im))


def _check_unit(amplitudes, what: str) -> np.ndarray:
    """``amplitudes`` as a complex128 array (`_complex_array`); raise
    ``ValueError`` unless their squared norm is 1 to NORM_TOL."""
    v = _complex_array(amplitudes,
                       f"{what} has an amplitude with no complex128 value")
    n2 = float(np.vdot(v, v).real)  # inf, not an error, past the float range
    if not abs(n2 - 1.0) <= NORM_TOL:  # also rejects nan and inf
        raise ValueError(f"{what} not normalized: squared norm {n2!r}")
    return v


def _complex_array(v, failed: str) -> np.ndarray:
    """``v`` as a complex128 array; ``ValueError`` "<failed>: <reason>"
    where an entry, such as an int above the float range, has none."""
    try:
        return np.asarray(v, dtype=np.complex128)
    except OverflowError as exc:
        raise ValueError(f"{failed}: {exc}") from exc


def _is_integer(value) -> bool:
    """An Integral other than a bool, which would print as true/false in
    JSON and pass as 0 or 1."""
    return isinstance(value, Integral) and not isinstance(value, bool)


def _prescaled(v) -> tuple[np.ndarray, float]:
    """``v`` divided by its largest real or imaginary part, so that its
    squared norm is normal, and that part, the scale `_unit_state`
    multiplies its norm by; ``ValueError`` for zero, inf or nan."""
    v = _complex_array(v, "cannot normalize")
    # the largest part; max keeps a nan
    big = float(np.maximum(np.abs(v.real), np.abs(v.imag)).max())
    if not 0.0 < big < math.inf:  # zero, inf or nan
        with np.errstate(over="ignore"):  # finite parts beside an inf
            n = float(np.linalg.norm(v))
        raise ValueError(f"cannot normalize {v!r}: norm {n!r}")
    # part by part: NumPy's complex division takes 1 / big first
    w = np.empty_like(v)
    w.real, w.imag = v.real / big, v.imag / big
    return w, big


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
