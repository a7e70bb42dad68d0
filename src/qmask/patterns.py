"""Basis-pattern feasibility: verdict tables and the support-theorem scan.

A *basis pattern* is an ordered list of computational-basis kets, each
position carrying a complex coefficient slot constrained away from zero
(duplicate kets are allowed and are summed after assignment).  The
feasibility oracle decides whether a pattern pair admits coefficients
satisfying the marginal-equality system (and, for the support scan, the
full masking system with a non-orthogonality constraint).  An eq4 pair
is first given a certified lower bound on its residual, chiefly the
widest gap between the two patterns' ranges of four linear functions of
the squared moduli; the pairs that bound leaves open, and every
full-system pair, go to a seeded
random-restart damped least-squares search with an analytic Jacobian.
The support scan searches one pair per orbit of its 16 symmetries (X_A,
X_B, the qubit swap, exchanging the states) and relabels that witness.

Outcomes are three-way: Feasible carries an independently re-verified
witness; Infeasible means either that the certified eq4 bound is at or
above a floor (a proof) or that the best constrained residual of the
search stayed above that floor over all restarts (evidence); anything
else is Inconclusive.  Identical config seeds give bit-identical
outcomes.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass, field, replace
from enum import Enum
from importlib import resources
from numbers import Integral

import numpy as np

from . import conditions
from .qlinalg import QubitState, TwoQubitState

KET_LABELS = ("00", "01", "10", "11")

#: relative inflation of the nonzero floor inside the search, so that
#: witnesses still clear the exact floor after normalization
_DELTA_MARGIN = 1e-4

#: numeric slack when re-checking |coeff| >= delta on a witness
_CHECK_SLACK = 1e-12

#: damped least-squares iterations per restart
_ITERS = 2000

#: best residuals at or above this are Infeasible
_INFEASIBLE_FLOOR = 1e-6

#: the masked qubit of the full-system search, (|0> + |1>)/sqrt(2)
_PLUS = QubitState.normalized(1.0, 1.0)

#: the eight relabelings of the basis by X_A, X_B and the qubit swap, each
#: as the image index of 00, 01, 10, 11; the identity first
_KET_MAPS = tuple(
    tuple(2 * (bits[swap] ^ flip_a) + (bits[1 - swap] ^ flip_b)
          for bits in ((0, 0), (0, 1), (1, 0), (1, 1)))
    for swap in (0, 1) for flip_a in (0, 1) for flip_b in (0, 1))


@dataclass(frozen=True)
class BasisPattern:
    """An ordered list of 1-4 two-bit ket labels (duplicates allowed)."""

    kets: tuple[str, ...]

    def __post_init__(self):
        kets = tuple(self.kets)
        if not 1 <= len(kets) <= 4:
            raise ValueError(f"pattern needs 1-4 kets, got {len(kets)}")
        for k in kets:
            if k not in KET_LABELS:
                raise ValueError(f"unknown ket label {k!r}")
        object.__setattr__(self, "kets", kets)
        S = np.zeros((4, len(kets)))
        S[self.indices, range(len(kets))] = 1.0
        S.flags.writeable = False
        object.__setattr__(self, "_slots", S)

    def __len__(self) -> int:
        return len(self.kets)

    @property
    def indices(self) -> tuple[int, ...]:
        """Basis index of each slot (2*bitA + bitB)."""
        return tuple(2 * int(k[0]) + int(k[1]) for k in self.kets)

    @property
    def support(self) -> frozenset[str]:
        return frozenset(self.kets)

    def slot_matrix(self) -> np.ndarray:
        """Read-only (4, n) 0/1 map from slot coefficients to amplitudes."""
        return self._slots


@dataclass(frozen=True)
class FeasibilityConfig:
    """Search configuration for the pattern feasibility oracle."""

    #: fixed floor on every |slot|, |<Psi0|Psi1>| and the qubit's |alpha_i|
    delta: float = field(default=0.1, init=False)
    restarts: int = 200
    #: fixed witness tolerance on the re-verified residual
    tol: float = field(default=1e-8, init=False)
    seed: int = 42

    def __post_init__(self):
        for name, low in (("restarts", 1), ("seed", 0)):
            value = getattr(self, name)
            # bool is an Integral, and would print as true/false in JSON
            if (not isinstance(value, Integral) or isinstance(value, bool)
                    or value < low):
                raise ValueError(
                    f"{name} must be an integer >= {low}, got {value!r}")


class FeasibilityStatus(str, Enum):
    FEASIBLE = "Feasible"
    INFEASIBLE = "Infeasible"
    INCONCLUSIVE = "Inconclusive"


@dataclass(frozen=True)
class Witness:
    """A verified solution: normalized states plus pre-merge coefficients."""

    psi0: TwoQubitState
    psi1: TwoQubitState
    coeffs0: tuple[complex, ...]
    coeffs1: tuple[complex, ...]
    #: the masked qubit, |+> for the full system and None for eq4
    b: QubitState | None = None


@dataclass(frozen=True)
class FeasibilityOutcome:
    """A decision and how it was reached.

    ``decided_by`` is ``"bound"`` when the certified eq4 lower bound
    alone proved the pair Infeasible: ``best_residual`` is then that
    bound, a number no admissible coefficient choice gets below, and
    ``restarts_used`` and ``iterations`` are 0.  It is ``"search"``
    otherwise: ``best_residual`` is the smallest re-verified residual
    over all restarts, the largest marginal distance
    (`conditions.reduced_pair_residual`) for eq4 and the largest
    `conditions.masks_state` residual for the full system, or ``inf``
    when no restart gave a candidate, e.g. none met the overlap floor.
    ``iterations`` counts the damped least-squares steps, accepted or
    not, summed over all restarts.
    """

    status: FeasibilityStatus
    best_residual: float
    restarts_used: int
    iterations: int
    decided_by: str
    witness: Witness | None = None


@dataclass(frozen=True)
class TableRow:
    """One fixture row: patterns plus the bundled expected verdict."""

    table: int
    index: int
    psi0_kets: tuple[str, ...]
    psi1_kets: tuple[str, ...]
    expected: str  # "mask" | "no"


@dataclass(frozen=True)
class TableRowResult:
    row: TableRow
    outcome: FeasibilityOutcome

    @property
    def agree(self) -> bool:
        if self.outcome.status is FeasibilityStatus.FEASIBLE:
            return self.row.expected == "mask"
        if self.outcome.status is FeasibilityStatus.INFEASIBLE:
            return self.row.expected == "no"
        return False  # Inconclusive never agrees


@dataclass(frozen=True)
class ScanViolation:
    """A feasible non-orthogonal pair whose ket-sets differ."""

    psi0_kets: tuple[str, ...]
    psi1_kets: tuple[str, ...]
    outcome: FeasibilityOutcome


def assemble(pattern: BasisPattern, coeffs) -> tuple[TwoQubitState, float]:
    """Sum slot coefficients onto the basis; returns (state, norm).

    Duplicate kets are summed after assignment, so pre-merge
    coefficients carry any nonzero constraints while merged amplitudes
    may vanish.  The state is the merged vector rescaled to unit norm,
    returned with the norm before rescaling; raises ``ValueError`` when
    the merged amplitudes cancel.
    """
    c = np.asarray(coeffs, dtype=np.complex128).reshape(-1)
    if c.shape[0] != len(pattern):
        raise ValueError(
            f"pattern has {len(pattern)} slots, got {c.shape[0]} coefficients")
    merged = pattern.slot_matrix() @ c
    return TwoQubitState.unit(merged), float(np.linalg.norm(merged))


def duplicate_free_patterns() -> list[BasisPattern]:
    """The 15 duplicate-free patterns, ordered by length then labels."""
    out = []
    for mask in range(1, 16):
        kets = tuple(k for i, k in enumerate(KET_LABELS) if mask >> i & 1)
        out.append(BasisPattern(kets))
    out.sort(key=lambda p: (len(p), p.kets))
    return out


# ---------------------------------------------------------------------------
# residual systems (batched over restarts)
# ---------------------------------------------------------------------------

def _complex_slots(theta: np.ndarray, start: int, n: int) -> np.ndarray:
    """View 2n consecutive reals of theta (..., p) as n complex slots."""
    return theta[..., start:start + 2 * n].view(np.complex128)


#: orthonormal basis of the 2x2 Hermitian matrices
_PAULI = [np.diag([1.0, 0.0]), np.diag([0.0, 1.0]),
          np.array([[0, 1], [1, 0]]) / math.sqrt(2.0),
          np.array([[0, -1j], [1j, 0]]) / math.sqrt(2.0)]

#: the eight local observables 1(x)P and P(x)1: <c|O|c> are the Frobenius
#: components of Tr_A|c><c| and Tr_B|c><c|, so two states share both
#: marginals iff they agree on all eight
_LOCAL = np.array([np.kron(np.eye(2), P) for P in _PAULI]
                  + [np.kron(P, np.eye(2)) for P in _PAULI])


class _PairSystem:
    """Residual system and its Jacobian for one pattern pair.

    Parameters are the interleaved re/im of the pre-merge slots
    z = (z0, z1) of both patterns.  The full system fixes the masked
    qubit at b = |+> (see `feasible_full` for why that loses nothing).
    Over one stack of complex matrices K_m, built once from the slot
    matrices S0, S1, every residual row is one of three kinds, in this
    order:

    - a Hermitian form z^dag K_m z - unit_m.  For eq4, K_m = diag(S0^T F
      S0, -S1^T F S1) over the eight `_LOCAL` observables F, then the
      two norms diag(S0^T S0, 0) and diag(0, S1^T S1), with ``unit`` 1
      on the norms only: <c0|F|c0> - <c1|F|c1> and both norms minus one.
      The full system adds the eight cross forms, the off-diagonal
      blocks S1^T F S0 / 2 and their adjoint, so that z^dag K_m z =
      Re<c1|F|c0>: at b = |+>, the Frobenius components of both eq3
      cross matrices;
    - a hinge max(0, delta' - |z_k|) on each slot;
    - (full system) a hinge max(0, delta' - |w|) on the overlap
      w = <c1|c0> = z^dag K z with K = S1^T S0 in its lower-left block,
      followed in the stack by K^dag.

    The Jacobian is closed-form.  Written as one complex number per slot,
    d/dRe + i d/dIm, a form row has the gradient 2 K_m z; a slot hinge is
    -z_k/|z_k| in its own slot; the overlap hinge is c Kz + conj(c) K^dag z
    with c = -conj(w)/|w|.  A hinge row is 0 where inactive.  The squared
    residual norm is rA^2 + rB^2 (+ cross norms) + penalty terms.
    """

    def __init__(self, p0: BasisPattern, p1: BasisPattern,
                 delta: float, full: bool):
        self.p0, self.p1 = p0, p1
        self.n0, self.n1 = len(p0), len(p1)
        self.n = self.n0 + self.n1
        eye = np.eye(4)[None]
        zero = np.zeros_like(eye)
        top = np.concatenate([_LOCAL, eye, zero])
        bottom = np.concatenate([-_LOCAL, zero, eye])
        O = np.zeros_like(top)
        forms = [np.block([[top, O], [O, bottom]])]
        self.unit = np.r_[np.zeros(len(_LOCAL)), 1.0, 1.0]
        if full:
            O = np.zeros_like(_LOCAL)
            forms.append(np.block([[O, _LOCAL], [_LOCAL, O]]) / 2.0)
            forms.append(np.block([[zero, zero], [eye, zero]]))
            forms.append(np.block([[zero, eye], [zero, zero]]))
            self.unit = np.r_[self.unit, np.zeros(len(_LOCAL))]
        S = np.block([[p0.slot_matrix(), np.zeros((4, self.n1))],
                      [np.zeros((4, self.n0)), p1.slot_matrix()]])
        self.K = S.T @ np.concatenate(forms) @ S
        self.n_forms = len(self.unit)
        self.full = full
        self.delta = delta
        self.delta_opt = delta * (1.0 + _DELTA_MARGIN)
        self.n_params = 2 * self.n

    def _products(self, theta: np.ndarray, forms: int):
        """The slots z and K_m z for the first ``forms`` matrices of K."""
        z = np.ascontiguousarray(_complex_slots(theta, 0, self.n))
        # einsum, not a BLAS matmul: threaded BLAS on these thin products ran
        # the search several times slower on a loaded 2-core host
        return z, np.einsum("mij,...j->...mi", self.K[:forms], z)

    def residuals(self, theta: np.ndarray) -> np.ndarray:
        f = self.n_forms
        # every row reads z^dag K_m z; the overlap's K^dag, last in K, is
        # for the Jacobian only
        z, Kz = self._products(theta, f + self.full)
        q = np.einsum("...i,...mi->...m", z.conj(), Kz)
        parts = [q[..., :f].real - self.unit,
                 np.maximum(0.0, self.delta_opt - np.abs(z))]
        if self.full:
            parts.append(np.maximum(0.0, self.delta_opt - np.abs(q[..., f:])))
        return np.concatenate(parts, axis=-1)

    def _hinge_slope(self, w: np.ndarray) -> np.ndarray:
        """1/|w| where max(0, delta' - |w|) is active, else 0; finite at 0."""
        mag = np.abs(w)
        return (mag < self.delta_opt) / np.maximum(mag, 1e-300)

    def jacobian(self, theta: np.ndarray) -> np.ndarray:
        """d residuals / d theta for (R, p) rows of theta: (R, rows, p)."""
        z, Kz = self._products(theta, len(self.K))
        R, f, n = len(theta), self.n_forms, self.n
        J = np.zeros((R, f + n + self.full, self.n_params))
        Jz = _complex_slots(J, 0, n)  # d/dRe + i d/dIm of each slot
        Jz[:, :f] = 2.0 * Kz[:, :f]
        slots = np.arange(n)
        Jz[:, f + slots, slots] = -z * self._hinge_slope(z)
        if self.full:
            w = np.einsum("ri,ri->r", z.conj(), Kz[:, f])
            c = (-w.conj() * self._hinge_slope(w))[:, None]
            Jz[:, -1] = c * Kz[:, f] + c.conj() * Kz[:, f + 1]
        return J

    def initial_points(self, seed: int, restarts: int) -> np.ndarray:
        """Per-restart starts keyed by (seed, restart index)."""
        theta = np.empty((restarts, self.n_params))
        for k in range(restarts):
            rng = np.random.default_rng(np.random.SeedSequence((seed, k)))
            mag = 0.35 + 0.5 * rng.random(self.n)
            phase = 2.0 * math.pi * rng.random(self.n)
            _complex_slots(theta[k], 0, self.n)[:] = mag * np.exp(1j * phase)
        return theta


# ---------------------------------------------------------------------------
# batched damped least squares
# ---------------------------------------------------------------------------

_STEP_STOP = 1e-13       # stop when the accepted step is this small
_OBJ_STOP = 1e-28        # or the objective this small
_LAMBDA_MAX = 1e12       # or damping has grown hopeless


def _minimize_batch(system: _PairSystem, theta: np.ndarray, iters: int,
                    steps: np.ndarray | None = None) -> np.ndarray:
    """Damped least squares on every restart row of ``theta`` at once.

    ``steps``, when given, is an (R,) integer array; each row's count of
    damped steps (accepted or not) is added to it.
    """
    R, p = theta.shape
    steps = np.zeros(R, dtype=np.int64) if steps is None else steps
    lam = np.full(R, 1e-3)
    active = np.ones(R, dtype=bool)
    r = system.residuals(theta)
    obj = np.einsum("rm,rm->r", r, r)
    eye = np.eye(p)

    for _ in range(iters):
        if not active.any():
            break
        steps[active] += 1
        th_a = theta[active]
        J = system.jacobian(th_a)
        r_a = r[active]
        g = np.einsum("rmp,rm->rp", J, r_a)
        H = np.einsum("rmp,rmq->rpq", J, J)
        diag = np.einsum("rpp->rp", H)
        damped = H + lam[active, None, None] * \
            (diag[:, :, None] * eye[None]) + 1e-12 * eye[None]
        step = np.linalg.solve(damped, -g[..., None])[..., 0]

        trial = th_a + step
        r_t = system.residuals(trial)
        obj_t = np.einsum("rm,rm->r", r_t, r_t)
        better = obj_t < obj[active]

        idx = np.flatnonzero(active)
        acc = idx[better]
        rej = idx[~better]
        theta[acc] = trial[better]
        r[acc] = r_t[better]
        obj[acc] = obj_t[better]
        lam[acc] = np.maximum(lam[acc] / 3.0, 1e-12)
        lam[rej] *= 2.0

        step_norm = np.linalg.norm(step, axis=1)
        done = np.zeros(len(idx), dtype=bool)
        done[better] = (step_norm[better] < _STEP_STOP) \
            | (obj[acc] < _OBJ_STOP)
        done[~better] = lam[rej] > _LAMBDA_MAX
        active[idx[done]] = False

    return theta


# ---------------------------------------------------------------------------
# certified lower bound for eq4
# ---------------------------------------------------------------------------

#: Tr_B and Tr_A off-diagonal entries: the ket pairs (i, j) of their
#: products c_i c_j*
_OFF_DIAGONAL = (((0, 2), (1, 3)), ((0, 1), (2, 3)))


def _diagonal_distance(counts0: list[int], counts1: list[int],
                       floor: float) -> float:
    """L-infinity distance between two patterns' sets of diagonals (X, Y).

    X = m00 + m01 and Y = m00 + m10 for merged moduli^2 m with sum 1,
    m >= floor on a single ket, m >= 0 on a duplicated ket and m = 0 on
    an unlisted one; m <= 1 never binds.  That set is the simplex of the
    points lo + (1 - sum(lo)) e_k over listed kets k, so (X, Y) spans
    the hull of corners of one square, with edges normal to X, Y, X+Y or
    X-Y only.  The widest gap between the patterns' ranges of X, Y,
    (X+Y)/2 and (X-Y)/2 (unit L1 normals) is thus the exact distance.
    """
    ranges = []
    for counts in (counts0, counts1):
        lo = [floor if n == 1 else 0.0 for n in counts]
        rest = 1.0 - sum(lo)
        x0, y0 = lo[0] + lo[1], lo[0] + lo[2]
        # e_k adds to X when ket k is 00 or 01, to Y when it is 00 or 10
        corners = [(x0 + rest * (k < 2), y0 + rest * (k % 2 == 0))
                   for k in range(4) if counts[k]]
        axes = zip(*((x, y, (x + y) / 2, (x - y) / 2) for x, y in corners))
        ranges.append([(min(v), max(v)) for v in axes])
    gap = 0.0
    for (lo0, hi0), (lo1, hi1) in zip(*ranges):
        gap = max(gap, lo0 - hi1, lo1 - hi0)
    return gap


def _eq4_bound(p0: BasisPattern, p1: BasisPattern, delta: float) -> float:
    """Certified lower bound on max(`conditions.reduced_pair_residual`).

    Holds for every admissible choice: single-ket |c| >= delta -
    _CHECK_SLACK (the witness check), any duplicated-ket merged value,
    unit merged norm.  A marginal difference with diagonal (d, -d) or
    off-diagonal (o, o*) has Frobenius norm >= sqrt(2)|d| or sqrt(2)|o|.
    (a) |d| >= `_diagonal_distance`, from four axis ranges per pattern.
    (b) |o| >= (delta - _CHECK_SLACK)^2 when one side's entry is a
    single product of two single kets and the other's is 0.
    """
    floor = (delta - _CHECK_SLACK) ** 2
    counts = [[p.kets.count(k) for k in KET_LABELS] for p in (p0, p1)]
    bound = _diagonal_distance(*counts, floor)
    for pairs in _OFF_DIAGONAL:
        # the listed products of each side; [1] is one product of singles
        terms = [[c[i] * c[j] for i, j in pairs if c[i] and c[j]]
                 for c in counts]
        if [] in terms and [1] in terms:
            bound = max(bound, floor)
    return math.sqrt(2.0) * bound


# ---------------------------------------------------------------------------
# feasibility oracle
# ---------------------------------------------------------------------------

def _project_slots(z: np.ndarray, S: np.ndarray,
                   delta: float) -> np.ndarray | None:
    """Nearest point with unit merged norm and every |slot| >= delta.

    Alternates clipping low slots up to the floor (phase preserved)
    with merged-state renormalization; converges geometrically.  Gives
    every restart a *constrained* candidate, so a searched pair that
    fails reports a finite best residual (the search's evidence, not the
    certified eq4 bound) instead of rejecting everything.
    """
    z = np.array(z, dtype=np.complex128)
    target = delta * (1.0 + 1e-12)
    for _ in range(100):
        norm = float(np.linalg.norm(S @ z))
        if norm < 1e-12:
            return None  # hopeless duplicate-ket cancellation
        z = z / norm
        mag = np.abs(z)
        if (mag >= delta - _CHECK_SLACK).all():
            return z
        unit = np.where(mag > 1e-300, z / np.where(mag > 0, mag, 1.0), 1.0)
        z = np.where(mag < target, target * unit, z)
    return None


def _verify_candidate(system: _PairSystem, theta: np.ndarray,
                      ) -> tuple[float, Witness] | None:
    """Re-check one restart's candidate through `assemble` and `conditions`.

    Returns (residual, witness) when the floor/normalization
    constraints (and, for the full system, the overlap floor) hold,
    else None.  The residual is the largest marginal distance for eq4
    and the largest `masks_state` residual for the full system.
    """
    z0 = _project_slots(_complex_slots(theta, 0, system.n0),
                        system.p0.slot_matrix(), system.delta)
    z1 = _project_slots(_complex_slots(theta, 2 * system.n0, system.n1),
                        system.p1.slot_matrix(), system.delta)
    if z0 is None or z1 is None:
        return None
    (psi0, _), (psi1, _) = assemble(system.p0, z0), assemble(system.p1, z1)
    if system.full:
        overlap = abs(complex(np.vdot(psi0.vec, psi1.vec)))
        if overlap < system.delta - _CHECK_SLACK:
            return None
        b = _PLUS
        residual = max(conditions.masks_state(b, psi0, psi1).residuals())
    else:
        b = None
        residual = max(conditions.reduced_pair_residual(psi0, psi1))
    return residual, Witness(psi0, psi1, tuple(map(complex, z0)),
                             tuple(map(complex, z1)), b)


def _decide(p0: BasisPattern, p1: BasisPattern, cfg: FeasibilityConfig,
            full: bool) -> FeasibilityOutcome:
    system = _PairSystem(p0, p1, cfg.delta, full)
    theta = system.initial_points(cfg.seed, cfg.restarts)
    steps = np.zeros(cfg.restarts, dtype=np.int64)
    theta = _minimize_batch(system, theta, _ITERS, steps)
    # the first minimum in restart-index order => deterministic
    checked = filter(None, (_verify_candidate(system, th) for th in theta))
    best_residual, best_witness = min(checked, key=lambda c: c[0],
                                      default=(math.inf, None))

    if best_residual <= cfg.tol:
        status = FeasibilityStatus.FEASIBLE
    elif best_residual >= _INFEASIBLE_FLOOR:
        status = FeasibilityStatus.INFEASIBLE
    else:
        status = FeasibilityStatus.INCONCLUSIVE
    return FeasibilityOutcome(
        status=status,
        best_residual=best_residual,
        restarts_used=cfg.restarts,
        iterations=int(steps.sum()),
        decided_by="search",
        witness=best_witness if status is FeasibilityStatus.FEASIBLE else None,
    )


def feasible_eq4(p0: BasisPattern, p1: BasisPattern,
                 cfg: FeasibilityConfig) -> FeasibilityOutcome:
    """Decide the eq4 (marginal-equality) system over nonzero slots.

    Looks for pre-merge coefficients with every |c| >= cfg.delta and
    both merged states unit norm such that the marginals of the two
    states coincide.  A pair whose certified lower bound (`_eq4_bound`)
    is at or above the Infeasible floor is Infeasible without a search,
    with that bound as ``best_residual``.  Any other pair is searched;
    Feasible outcomes carry a witness whose residual was re-verified
    through `conditions` (never the optimizer state).
    """
    bound = _eq4_bound(p0, p1, cfg.delta)
    if bound >= _INFEASIBLE_FLOOR:
        return FeasibilityOutcome(FeasibilityStatus.INFEASIBLE, bound,
                                  restarts_used=0, iterations=0,
                                  decided_by="bound")
    return _decide(p0, p1, cfg, full=False)


def feasible_full(p0: BasisPattern, p1: BasisPattern,
                  cfg: FeasibilityConfig) -> FeasibilityOutcome:
    """Decide the full masking system with a non-orthogonality constraint.

    On top of the eq4 search this adds the two eq3 cross-matrix
    systems at the masked qubit b = |+> and |<Psi0|Psi1>| >= delta.  No
    other qubit is needed.  The cross terms are real-linear in
    z = alpha0 alpha1*, so for z != 0 the cross matrices of (b; Psi0,
    Psi1) are 2|z| times those of (|+>; Psi0, e^{-i arg z} Psi1).  That
    rephasing keeps Psi1's marginals, the overlap magnitude and every
    |slot|, and Psi1's slot phases already range over it: a pair masks
    some qubit with |alpha_i| >= delta iff it masks |+>.  A candidate is
    accepted by `conditions.masks_state` at b = |+>: Feasible needs
    every residual of its report <= cfg.tol.
    """
    return _decide(p0, p1, cfg, full=True)


# ---------------------------------------------------------------------------
# fixture tables and the support scan
# ---------------------------------------------------------------------------

def fixture_path():
    return resources.files("qmask").joinpath("data/tables.fixture.json")


def load_table_fixture() -> list[TableRow]:
    """Load and validate the bundled verdict tables."""
    try:
        raw = json.loads(fixture_path().read_text())
    except FileNotFoundError:
        raise
    except (OSError, json.JSONDecodeError) as exc:
        raise ValueError(f"fixture file is corrupt: {exc}") from exc
    if not isinstance(raw, list):
        raise ValueError("fixture file must hold a JSON array")
    rows: list[TableRow] = []
    counters: dict[int, int] = {}
    for entry in raw:
        try:
            table, p0, p1, expected = (entry[key] for key in (
                "table", "psi0_kets", "psi1_kets", "expected"))
        except (KeyError, TypeError) as exc:
            raise ValueError(f"malformed fixture row {entry!r}") from exc
        # a JSON integer (never a bool), and lists of ket strings
        if (type(table) is not int or table not in (1, 2, 3, 4)
                or expected not in ("mask", "no")
                or not all(isinstance(kets, list)
                           and all(isinstance(k, str) for k in kets)
                           for kets in (p0, p1))):
            raise ValueError(f"malformed fixture row {entry!r}")
        p0, p1 = BasisPattern(p0).kets, BasisPattern(p1).kets  # checks labels
        counters[table] = counters.get(table, 0) + 1
        rows.append(TableRow(table, counters[table], p0, p1, expected))
    return rows


def reproduce_tables(tables, cfg: FeasibilityConfig) -> list[TableRowResult]:
    """Run the eq4 oracle on every bundled row of the given tables.

    Results keep fixture order; each carries the computed outcome so a
    disagreement always ships evidence (a witness for rows we find
    feasible, the best residual for rows we find infeasible).
    """
    tables = set(tables)
    if not tables <= {1, 2, 3, 4}:
        raise ValueError(f"tables must be 1-4, got {sorted(tables)}")
    return [TableRowResult(row=row, outcome=feasible_eq4(
                BasisPattern(row.psi0_kets), BasisPattern(row.psi1_kets), cfg))
            for row in load_table_fixture() if row.table in tables]


def _relabel(witness: Witness, p0: BasisPattern, p1: BasisPattern,
             ket_map: tuple[int, ...], exchange: bool) -> Witness:
    """The witness of (p0, p1) moved to the image pair under ``ket_map``.

    Ket i becomes ket ket_map[i] in both states, each slot coefficient
    follows its ket into the image pattern's basis order, and the states
    change places when ``exchange`` is set.  b is kept.
    """
    sides = []
    for psi, coeffs, p in ((witness.psi0, witness.coeffs0, p0),
                           (witness.psi1, witness.coeffs1, p1)):
        vec = np.empty(4, dtype=np.complex128)
        vec[list(ket_map)] = psi.vec
        order = sorted(range(len(p)), key=lambda j: ket_map[p.indices[j]])
        sides.append((TwoQubitState(vec), tuple(coeffs[j] for j in order)))
    if exchange:
        sides.reverse()
    (psi0, coeffs0), (psi1, coeffs1) = sides
    return Witness(psi0, psi1, coeffs0, coeffs1, witness.b)


def support_theorem_scan(cfg: FeasibilityConfig) -> list[ScanViolation]:
    """Scan all ordered duplicate-free pattern pairs for counterexamples.

    A violation is a pair with differing ket-sets that is Feasible for
    the full masking system under the non-orthogonality constraint
    |<Psi0|Psi1>| >= delta, with a masked qubit of |alpha_i| >= delta
    (see `feasible_full`).

    At b = |+> the system keeps its form under 16 maps: a relabeling of
    the basis by X_A, X_B or the qubit swap (`_KET_MAPS`), times
    exchanging Psi0 and Psi1.  A local unitary or the swap conjugates
    (or exchanges) both marginals and both eq3 cross matrices; exchanging
    the states takes each cross matrix z T + z* T^dagger to z* T + z
    T^dagger, the same matrix as z = 1/2 is real.  Neither moves
    |<Psi0|Psi1>|, a slot modulus or b.  Of the 28 orbits of the 225
    pairs, only the first pair in scan order is decided by
    `feasible_full`; every other pair gets its representative's outcome,
    and a violation among them the witness relabelled by `_relabel`.
    """
    violations = []
    # (index sets of p0, p1) -> (representative p0, p1, outcome, map,
    # exchange) for every pair of an orbit already decided
    orbit = {}
    for p0, p1 in itertools.product(duplicate_free_patterns(), repeat=2):
        key = (frozenset(p0.indices), frozenset(p1.indices))
        if key not in orbit:
            outcome = feasible_full(p0, p1, cfg)
            for g in _KET_MAPS:
                s0, s1 = (frozenset(g[i] for i in s) for s in key)
                orbit.setdefault((s0, s1), (p0, p1, outcome, g, False))
                orbit.setdefault((s1, s0), (p0, p1, outcome, g, True))
        r0, r1, outcome, g, exchange = orbit[key]
        if (outcome.status is FeasibilityStatus.FEASIBLE
                and p0.support != p1.support):
            witness = _relabel(outcome.witness, r0, r1, g, exchange)
            violations.append(ScanViolation(
                psi0_kets=p0.kets, psi1_kets=p1.kets,
                outcome=replace(outcome, witness=witness)))
    return violations
