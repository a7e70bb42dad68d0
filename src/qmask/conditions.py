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

Every verdict is computed from partial-trace matrices; the scalar
entries are read off those matrices (see ``eq7_eq8_residuals``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .qlinalg import (
    DEFAULT_TOL,
    Mat2,
    QubitState,
    TwoQubitState,
    frob_dist,
    outer,
    ptrace_A,
    ptrace_B,
)

#: below this norm the superposition alpha0 Psi0 + alpha1 Psi1 is reported
#: as degenerate instead of being renormalized
DEGENERATE_NORM = 1e-6


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


def _require_normalized(*states: TwoQubitState) -> None:
    for s in states:
        if not s.normalized:
            raise ValueError("expected a normalized two-qubit state")


def eq4_residuals(psi0: TwoQubitState, psi1: TwoQubitState,
                  ) -> tuple[float, float, float, float, float, float]:
    """The six eq4 marginal-equality lines as absolute residuals.

    Lines 1-4 are the diagonal marginal differences, lines 5-6 the
    magnitudes of the off-diagonal (complex) differences.
    """
    _require_normalized(psi0, psi1)
    a = psi0.vec
    b = psi1.vec
    aa = np.abs(a) ** 2
    bb = np.abs(b) ** 2
    return (
        abs(aa[0] + aa[1] - bb[0] - bb[1]),
        abs(aa[0] + aa[2] - bb[0] - bb[2]),
        abs(aa[1] + aa[3] - bb[1] - bb[3]),
        abs(aa[2] + aa[3] - bb[2] - bb[3]),
        abs(a[0] * a[1].conjugate() + a[2] * a[3].conjugate()
            - b[0] * b[1].conjugate() - b[2] * b[3].conjugate()),
        abs(a[0] * a[2].conjugate() + a[1] * a[3].conjugate()
            - b[0] * b[2].conjugate() - b[1] * b[3].conjugate()),
    )


def reduced_pair_residual(psi0: TwoQubitState, psi1: TwoQubitState,
                          ) -> tuple[float, float]:
    """Frobenius distances between the marginals of Psi0 and Psi1.

    Returns ``(rA, rB)`` with ``rA = ||Tr_A(P0) - Tr_A(P1)||_F`` and
    ``rB`` the same for Tr_B.  Both vanish iff the eq4 system holds.
    Rejects unnormalized inputs.
    """
    _require_normalized(psi0, psi1)
    r0 = outer(psi0, psi0)
    r1 = outer(psi1, psi1)
    rA = frob_dist(ptrace_A(r0), ptrace_A(r1))
    rB = frob_dist(ptrace_B(r0), ptrace_B(r1))
    return rA, rB


def cross_term_matrix(psi0: TwoQubitState, psi1: TwoQubitState,
                      b: QubitState, subsystem: str) -> Mat2:
    """The eq3 cross matrix for one subsystem.

    Returns ``alpha0 alpha1* Tr_x(|Psi0><Psi1|) +
    alpha0* alpha1 Tr_x(|Psi1><Psi0|)`` for ``subsystem`` x in
    ``{"A", "B"}``.  Masking requires the zero matrix.
    """
    _require_normalized(psi0, psi1)
    if subsystem not in ("A", "B"):
        raise ValueError(f"subsystem must be 'A' or 'B', got {subsystem!r}")
    ptr = ptrace_A if subsystem == "A" else ptrace_B
    z = b.alpha0 * b.alpha1.conjugate()
    T = ptr(outer(psi0, psi1))
    return z * T + z.conjugate() * T.conj().T


def masks_state(b: QubitState, psi0: TwoQubitState, psi1: TwoQubitState,
                tol: float = DEFAULT_TOL) -> MaskingReport:
    """Full masking verdict for the triple (b, Psi0, Psi1).

    The verdict is true iff every residual in the report is <= tol:

    * the six eq4 lines (marginal equality of Psi0 and Psi1),
    * both eq3 cross-matrix Frobenius norms,
    * the marginal distances between the *renormalized* superposition
      ``Psi = alpha0 Psi0 + alpha1 Psi1`` and Psi0 (defense in depth:
      implied by the first two groups when <Psi0|Psi1> = 0).

    A superposition with norm below ``DEGENERATE_NORM`` is reported via
    ``degenerate_superposition`` with infinite superposition residuals.
    """
    _require_normalized(psi0, psi1)
    if tol <= 0:
        raise ValueError(f"tol must be positive, got {tol!r}")
    lines = eq4_residuals(psi0, psi1)
    crossA = float(np.linalg.norm(cross_term_matrix(psi0, psi1, b, "A")))
    crossB = float(np.linalg.norm(cross_term_matrix(psi0, psi1, b, "B")))

    psi_vec = b.alpha0 * psi0.vec + b.alpha1 * psi1.vec
    norm = float(np.linalg.norm(psi_vec))
    degenerate = norm < DEGENERATE_NORM
    if degenerate:
        sup = (math.inf, math.inf)
    else:
        psi = TwoQubitState.unit(psi_vec)
        rho = outer(psi, psi)
        rho0 = outer(psi0, psi0)
        sup = (frob_dist(ptrace_A(rho), ptrace_A(rho0)),
               frob_dist(ptrace_B(rho), ptrace_B(rho0)))

    residuals = (*lines, crossA, crossB, *sup)
    return MaskingReport(
        eq4_residuals=lines,
        crossA_norm=crossA,
        crossB_norm=crossB,
        superposition_residuals=sup,
        verdict=all(r <= tol for r in residuals),
        tol=tol,
        degenerate_superposition=degenerate,
    )


def masks_all_superpositions(psi0: TwoQubitState, psi1: TwoQubitState,
                             tol: float = DEFAULT_TOL) -> bool:
    """True iff the pair masks *every* qubit state.

    Quantifying eq3 over all (alpha0, alpha1) forces the bare cross
    traces to vanish: requires ``reduced_pair_residual <= tol`` and
    ``||Tr_x(|Psi0><Psi1|)||_F <= tol`` for both subsystems.
    """
    rA, rB = reduced_pair_residual(psi0, psi1)
    cross = outer(psi0, psi1)
    tA = float(np.linalg.norm(ptrace_A(cross)))
    tB = float(np.linalg.norm(ptrace_B(cross)))
    return max(rA, rB, tA, tB) <= tol


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
    _require_normalized(psi0, psi1)
    z = b.alpha0 * b.alpha1.conjugate()
    out = []
    for ptr in (ptrace_A, ptrace_B):
        T = ptr(outer(psi0, psi1))
        A_, B_, C_, D_entry = T[0, 0], T[0, 1], T[1, 0], T[1, 1]
        out.append(abs((z * A_).real))
        out.append(abs((z * D_entry).real))
        out.append(abs(z * B_ + z.conjugate() * C_.conjugate()))
    return tuple(out)
