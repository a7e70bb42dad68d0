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

``masking_partner`` gives the second state with a state's two marginals.

Every verdict reads the entries of 2x2 blocks from one scalar kernel,
``_blocks(u, v)``: Tr_A|u><v| = M_u^T conj(M_v) (eq5: A, B, C, D_entry)
then Tr_B|u><v| = M_u M_v^dagger (eq6), row-major, ``M[i, j]`` being the
amplitude of |i>_A |j>_B.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from math import hypot

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
    v0, v1, v2, v3 = v
    v0, v1, v2, v3 = (v0.conjugate(), v1.conjugate(), v2.conjugate(),
                      v3.conjugate())
    p00, p11, p22, p33 = u0 * v0, u1 * v1, u2 * v2, u3 * v3
    return (p00 + p22, u0 * v1 + u2 * v3, u1 * v0 + u3 * v2, p11 + p33,
            p00 + p11, u0 * v2 + u1 * v3, u2 * v0 + u3 * v1, p22 + p33)


def _check_tol(tol: float) -> None:
    """Raise ``ValueError`` unless a residual tolerance is finite and > 0."""
    if not 0 < tol < math.inf:  # also rejects nan
        raise ValueError(f"tol must be positive and finite, got {tol!r}")


def _crosses(b: QubitState, u, v) -> tuple[complex, ...]:
    """``_blocks(u, v)`` times z = alpha0 alpha1*.

    With these t, the x-side cross matrix z T + z* T^dagger is
    ``[[2 Re t0, t1 + t2*], [t2 + t1*, 2 Re t3]]`` (A: t0..t3, B: t4..t7).
    """
    z = b.alpha0 * b.alpha1.conjugate()
    t0, t1, t2, t3, t4, t5, t6, t7 = _blocks(u, v)
    return (z * t0, z * t1, z * t2, z * t3, z * t4, z * t5, z * t6, z * t7)


def _marginal_gaps(psi0, psi1) -> tuple[complex, ...]:
    """Entries of Tr_A(P0) - Tr_A(P1) then Tr_B(P0) - Tr_B(P1), row-major."""
    u, v = psi0.vec.tolist(), psi1.vec.tolist()
    a0, a1, a2, a3, a4, a5, a6, a7 = _blocks(u, u)
    b0, b1, b2, b3, b4, b5, b6, b7 = _blocks(v, v)
    return (a0 - b0, a1 - b1, a2 - b2, a3 - b3,
            a4 - b4, a5 - b5, a6 - b6, a7 - b7)


def eq4_residuals(psi0: TwoQubitState, psi1: TwoQubitState,
                  ) -> tuple[float, float, float, float, float, float]:
    """The six eq4 marginal-equality lines as absolute residuals.

    Lines 1-4 are the diagonal marginal differences, lines 5-6 the
    magnitudes of the off-diagonal (complex) differences.
    """
    d0, d1, _, d3, d4, d5, _, d7 = _marginal_gaps(psi0, psi1)
    return abs(d4), abs(d0), abs(d3), abs(d7), abs(d1), abs(d5)


def reduced_pair_residual(psi0: TwoQubitState, psi1: TwoQubitState,
                          ) -> tuple[float, float]:
    """Frobenius distances between the marginals of Psi0 and Psi1.

    Returns ``(rA, rB)`` with ``rA = ||Tr_A(P0) - Tr_A(P1)||_F`` and
    ``rB`` the same for Tr_B; both vanish iff eq4 holds.
    """
    d0, d1, d2, d3, d4, d5, d6, d7 = _marginal_gaps(psi0, psi1)
    return (hypot(abs(d0), abs(d1), abs(d2), abs(d3)),
            hypot(abs(d4), abs(d5), abs(d6), abs(d7)))


def cross_term_matrix(psi0: TwoQubitState, psi1: TwoQubitState,
                      b: QubitState, subsystem: str) -> np.ndarray:
    """The eq3 cross matrix for one subsystem.

    Returns ``alpha0 alpha1* Tr_x(|Psi0><Psi1|) +
    alpha0* alpha1 Tr_x(|Psi1><Psi0|)`` for ``subsystem`` x in
    ``{"A", "B"}``.  Masking requires the zero matrix.
    """
    if subsystem not in ("A", "B"):
        raise ValueError(f"subsystem must be 'A' or 'B', got {subsystem!r}")
    t = _crosses(b, psi0.vec.tolist(), psi1.vec.tolist())
    t0, t1, t2, t3 = t[4:] if subsystem == "B" else t[:4]
    return np.array((2.0 * t0.real, t1 + t2.conjugate(),
                     t2 + t1.conjugate(), 2.0 * t3.real),
                    dtype=np.complex128).reshape(2, 2)


def masks_state(b: QubitState, psi0: TwoQubitState, psi1: TwoQubitState,
                tol: float = DEFAULT_TOL) -> MaskingReport:
    """Full masking verdict for the triple (b, Psi0, Psi1).

    The verdict is true iff every residual in the report is <= tol:

    * the six eq4 lines (marginal equality of Psi0 and Psi1),
    * both eq3 cross-matrix Frobenius norms,
    * the marginal distances between the *renormalized* superposition
      ``Psi = alpha0 Psi0 + alpha1 Psi1`` and Psi0.  They are zero
      wherever the first two groups are exactly zero, as a vanishing
      cross matrix has trace 2 Re(z <Psi1|Psi0>) = 0, so ||Psi|| = 1.
      At a tolerance they are not implied: with every other residual
      at most eps they are bounded only by (2|alpha1|^2 + 1 + sqrt(2))
      eps / (1 - sqrt(2) eps), so this group alone can fail the verdict.

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
    _check_tol(tol)
    u, v = psi0.vec.tolist(), psi1.vec.tolist()
    # _marginal_gaps inlined: this runs once per triple, and the
    # superposition residuals below reuse Psi0's blocks a0..a7
    a0, a1, a2, a3, a4, a5, a6, a7 = _blocks(u, u)
    b0, b1, b2, b3, b4, b5, b6, b7 = _blocks(v, v)
    e0, e1, e2, e3, e4, e5 = lines = (
        abs(a4 - b4), abs(a0 - b0), abs(a3 - b3), abs(a7 - b7),
        abs(a1 - b1), abs(a5 - b5))
    # hypot takes the absolute value of each real entry itself
    t0, t1, t2, t3, t4, t5, t6, t7 = _crosses(b, u, v)
    crossA = hypot(2.0 * t0.real, abs(t1 + t2.conjugate()),
                   abs(t2 + t1.conjugate()), 2.0 * t3.real)
    crossB = hypot(2.0 * t4.real, abs(t5 + t6.conjugate()),
                   abs(t6 + t5.conjugate()), 2.0 * t7.real)
    x0, x1 = b.alpha0, b.alpha1
    u0, u1, u2, u3 = u
    v0, v1, v2, v3 = v
    s0, s1 = x0 * u0 + x1 * v0, x0 * u1 + x1 * v1
    s2, s3 = x0 * u2 + x1 * v2, x0 * u3 + x1 * v3
    norm = hypot(abs(s0), abs(s1), abs(s2), abs(s3))
    degenerate = norm < DEGENERATE_NORM
    supA = supB = math.inf
    if not degenerate:
        psi = (s0 / norm, s1 / norm, s2 / norm, s3 / norm)
        c0, c1, c2, c3, c4, c5, c6, c7 = _blocks(psi, psi)
        supA = hypot(abs(c0 - a0), abs(c1 - a1), abs(c2 - a2), abs(c3 - a3))
        supB = hypot(abs(c4 - a4), abs(c5 - a5), abs(c6 - a6), abs(c7 - a7))

    verdict = (e0 <= tol and e1 <= tol and e2 <= tol and e3 <= tol
               and e4 <= tol and e5 <= tol and crossA <= tol
               and crossB <= tol and supA <= tol and supB <= tol)
    return MaskingReport(lines, crossA, crossB, (supA, supB), verdict, tol,
                         degenerate)


#: below this 1 - C^2 `masking_partner` refuses: P is undefined at C = 1,
#: and its marginals drift from Psi's by about 6e-16 / sqrt(1 - C^2), so
#: at most about 6e-14 above it
PARTNER_MIN_GAP = 1e-4


def masking_partner(psi: TwoQubitState) -> TwoQubitState:
    """The masking partner P(Psi) of a state that is not maximally
    entangled: a second state with both of Psi's marginals.

    With M = [[a, b], [c, d]] the amplitude matrix of Psi and C =
    2|det M| its concurrence, P(M) = (M - 2 det(M) [[d*, -c*], [-b*,
    a*]]) / sqrt(1 - C^2), which is (2 Tr_B|Psi><Psi| - 1) M normalised.
    Every state with Psi's marginals is e^{ig}(cos t Psi + i sin t P)
    (Liang, Li and Fei, PRA 100, 030304(R), 2019); <Psi|P> is real.
    Returned at unit norm through `TwoQubitState.unit`.  Raises
    ``ValueError`` when 1 - C^2 < `PARTNER_MIN_GAP`, which includes
    every maximally entangled state (C = 1).
    """
    a, b, c, d = psi.vec.tolist()
    det = a * d - b * c
    gap = 1.0 - 4.0 * abs(det) ** 2
    if gap < PARTNER_MIN_GAP:
        raise ValueError("no masking partner for a state maximally "
                         f"entangled or too close to it: 1 - C^2 = {gap:.3g}"
                         f" < {PARTNER_MIN_GAP:g}")
    two_det = 2.0 * det
    return TwoQubitState.unit([a - two_det * d.conjugate(),
                               b + two_det * c.conjugate(),
                               c + two_det * b.conjugate(),
                               d - two_det * a.conjugate()])


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
    t0, t1, t2, t3, t4, t5, t6, t7 = _crosses(
        b, psi0.vec.tolist(), psi1.vec.tolist())
    return (abs(t0.real), abs(t3.real), abs(t1 + t2.conjugate()),
            abs(t4.real), abs(t7.real), abs(t5 + t6.conjugate()))
