"""Masking-condition residuals and verdicts for a concrete (b, Psi0, Psi1).

A qubit state ``b = alpha0|0> + alpha1|1>`` is *masked* by a pair of
two-qubit states when the superposition ``Psi = alpha0 Psi0 + alpha1 Psi1``
and both component states all share the same pair of one-qubit marginals.
This module numbers its residual systems once and for all:

* ``eq4``  — the six marginal-equality lines between Psi0 and Psi1;
* ``eq3``  — the two cross-term matrices that must vanish for the
  superposition's marginals to collapse onto the components';
* ``eq5/eq6`` — the explicit entries A, B, C, D of Tr_A(|Psi0><Psi1|)
  and its adjoint (and primed B-side versions A', B', C', D');
* ``eq7/eq8`` — the simplified three-line scalar systems equivalent to
  the cross-term matrices vanishing.

Every verdict reads the entries of 2x2 blocks from one scalar kernel,
``_blocks(u, v)``: Tr_A|u><v| = M_u^T conj(M_v) (eq5: A, B, C, D_entry)
then Tr_B|u><v| = M_u M_v^dagger (eq6), row-major, ``M[i, j]`` being the
amplitude of |i>_A |j>_B.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import sub

import numpy as np

from .qlinalg import (
    DEFAULT_TOL,
    QubitState,
    TwoQubitState,
    # not called here: the benchmark patches conditions.ptrace_A/B by name
    # until its partial-trace probe goes
    ptrace_A,
    ptrace_B,
)

#: below this norm the superposition alpha0 Psi0 + alpha1 Psi1 is reported
#: as degenerate instead of being renormalized
DEGENERATE_NORM = 1e-6

#: kernel entries whose Psi0 - Psi1 differences are the six eq4 lines
_EQ4_ENTRIES = (4, 0, 3, 7, 1, 5)


@dataclass(frozen=True)
class MaskingReport:
    """Residuals and verdict for one (b, Psi0, Psi1) triple.

    ``verdict`` is True iff every listed residual is <= ``tol``:
    the six eq4 line residuals, both cross-matrix Frobenius norms, and
    the two marginal distances between the normalized superposition and
    Psi0.  When the superposition norm falls below ``DEGENERATE_NORM``
    the superposition residuals are +inf and
    ``degenerate_superposition`` is set (reported, never raised).
    """

    eq4_residuals: tuple[float, float, float, float, float, float]
    crossA_norm: float
    crossB_norm: float
    superposition_residuals: tuple[float, float]
    verdict: bool
    tol: float
    degenerate_superposition: bool = False

    def residuals(self) -> tuple[float, ...]:
        """All residuals that the verdict is the conjunction of."""
        return (*self.eq4_residuals, self.crossA_norm, self.crossB_norm,
                *self.superposition_residuals)


def _blocks(u, v) -> tuple[complex, ...]:
    """Entries of Tr_A|u><v| then Tr_B|u><v|, row-major (module docstring)."""
    u0, u1, u2, u3 = u
    v0, v1, v2, v3 = (c.conjugate() for c in v)
    p00, p11, p22, p33 = u0 * v0, u1 * v1, u2 * v2, u3 * v3
    return (p00 + p22, u0 * v1 + u2 * v3, u1 * v0 + u3 * v2, p11 + p33,
            p00 + p11, u0 * v2 + u1 * v3, u2 * v0 + u3 * v1, p22 + p33)


def _frob(entries) -> float:
    """Frobenius (Euclidean) norm of an iterable of complex entries."""
    return math.hypot(*map(abs, entries))


def _pair(psi0: TwoQubitState, psi1: TwoQubitState):
    """Both states' amplitude lists and marginal blocks."""
    u, v = psi0.vec.tolist(), psi1.vec.tolist()
    return u, v, _blocks(u, u), _blocks(v, v)


def _check_tol(tol: float) -> None:
    """Raise ``ValueError`` unless a residual tolerance is finite and > 0."""
    if not 0 < tol < math.inf:  # also rejects nan
        raise ValueError(f"tol must be positive and finite, got {tol!r}")


def _crosses(b: QubitState, u, v):
    """The A- and B-side cross matrices z T + z* T^dagger, row-major."""
    z = b.alpha0 * b.alpha1.conjugate()
    t = [z * c for c in _blocks(u, v)]
    return [(2.0 * t[k].real, t[k + 1] + t[k + 2].conjugate(),
             t[k + 2] + t[k + 1].conjugate(), 2.0 * t[k + 3].real)
            for k in (0, 4)]


def eq4_residuals(psi0: TwoQubitState, psi1: TwoQubitState,
                  ) -> tuple[float, float, float, float, float, float]:
    """The six eq4 marginal-equality lines as absolute residuals.

    Lines 1-4 are the diagonal marginal differences, lines 5-6 the
    magnitudes of the off-diagonal (complex) differences.
    """
    _, _, m0, m1 = _pair(psi0, psi1)
    return tuple(abs(m0[i] - m1[i]) for i in _EQ4_ENTRIES)


def reduced_pair_residual(psi0: TwoQubitState, psi1: TwoQubitState,
                          ) -> tuple[float, float]:
    """Frobenius distances between the marginals of Psi0 and Psi1.

    Returns ``(rA, rB)`` with ``rA = ||Tr_A(P0) - Tr_A(P1)||_F`` and
    ``rB`` the same for Tr_B; both vanish iff eq4 holds.
    """
    _, _, m0, m1 = _pair(psi0, psi1)
    d = list(map(sub, m0, m1))
    return _frob(d[:4]), _frob(d[4:])


def cross_term_matrix(psi0: TwoQubitState, psi1: TwoQubitState,
                      b: QubitState, subsystem: str) -> np.ndarray:
    """The eq3 cross matrix for one subsystem.

    Returns ``alpha0 alpha1* Tr_x(|Psi0><Psi1|) +
    alpha0* alpha1 Tr_x(|Psi1><Psi0|)`` for ``subsystem`` x in
    ``{"A", "B"}``.  Masking requires the zero matrix.
    """
    if subsystem not in ("A", "B"):
        raise ValueError(f"subsystem must be 'A' or 'B', got {subsystem!r}")
    c = _crosses(b, psi0.vec.tolist(), psi1.vec.tolist())[subsystem == "B"]
    return np.array(c, dtype=np.complex128).reshape(2, 2)


def masks_state(b: QubitState, psi0: TwoQubitState, psi1: TwoQubitState,
                tol: float = DEFAULT_TOL) -> MaskingReport:
    """Full masking verdict for the triple (b, Psi0, Psi1).

    The verdict is true iff every residual in the report is <= tol:

    * the six eq4 lines (marginal equality of Psi0 and Psi1),
    * both eq3 cross-matrix Frobenius norms,
    * the marginal distances between the *renormalized* superposition
      ``Psi = alpha0 Psi0 + alpha1 Psi1`` and Psi0 (defense in depth:
      implied by the first two groups when <Psi0|Psi1> = 0).

    This is the paper's eq3 system (both cross matrices vanish): exact
    for orthogonal pairs, sufficient but not necessary otherwise.  As
    ||Psi||^2 = 1 + 2 Re(z <Psi1|Psi0>), z = alpha0 alpha1*, the
    normalized superposition keeps Psi0's marginals whenever each cross
    matrix C_x = Tr(C_x) rho_x: Psi1 = Psi0 at b = |+> gives a False
    verdict with zero superposition residuals.

    A superposition with norm below ``DEGENERATE_NORM`` is reported via
    ``degenerate_superposition`` with infinite superposition residuals.
    Raises ``ValueError`` unless ``0 < tol < inf``.
    """
    u, v, m0, m1 = _pair(psi0, psi1)
    _check_tol(tol)
    lines = tuple(abs(m0[i] - m1[i]) for i in _EQ4_ENTRIES)
    crossA, crossB = map(_frob, _crosses(b, u, v))
    psi = [b.alpha0 * x + b.alpha1 * y for x, y in zip(u, v)]
    norm = _frob(psi)
    degenerate = norm < DEGENERATE_NORM
    sup = (math.inf, math.inf)
    if not degenerate:
        psi = [c / norm for c in psi]
        d = list(map(sub, _blocks(psi, psi), m0))
        sup = (_frob(d[:4]), _frob(d[4:]))

    verdict = all(r <= tol for r in (*lines, crossA, crossB, *sup))
    return MaskingReport(lines, crossA, crossB, sup, verdict, tol, degenerate)


def masks_all_superpositions(psi0: TwoQubitState, psi1: TwoQubitState,
                             ) -> bool:
    """True iff the pair masks *every* qubit state.

    Quantifying eq3 over all (alpha0, alpha1) forces the bare cross
    traces to vanish: requires both marginal distances of the pair and
    ``||Tr_x(|Psi0><Psi1|)||_F`` for both subsystems to be <= DEFAULT_TOL.
    """
    u, v, m0, m1 = _pair(psi0, psi1)
    d, t = list(map(sub, m0, m1)), _blocks(u, v)
    return max(map(_frob, (d[:4], d[4:], t[:4], t[4:]))) <= DEFAULT_TOL


def eq7_eq8_residuals(psi0: TwoQubitState, psi1: TwoQubitState,
                      b: QubitState) -> tuple[float, ...]:
    """The six eq7/eq8 scalar residuals, entry convention throughout.

    With ``z = alpha0 alpha1*`` and the A-side partial-trace entries
    (A, B, C, D_entry) — where ``D_entry = a1 b1* + a3 b3*`` is the
    (1,1) entry, not the conjugated shorthand D — returns::

        |Re(z A)|, |Re(z D_entry)|, |z B + z* C*|

    followed by the same triple for the B-side (primed) entries.  All
    six <= tol coincides with both cross matrices vanishing at tol (up
    to the bounded factor between entrywise and Frobenius norms).
    """
    crosses = _crosses(b, psi0.vec.tolist(), psi1.vec.tolist())
    return tuple(r for c00, c01, _, c11 in crosses
                 for r in (abs(c00) / 2.0, abs(c11) / 2.0, abs(c01)))
