"""Basis-pattern feasibility: verdict tables and the support-theorem scan.

A *basis pattern* is an ordered list of computational-basis kets, each
position carrying a complex coefficient slot constrained away from zero
(duplicate kets are allowed and are summed after assignment).  The
feasibility oracle decides, by seeded random-restart damped least
squares, whether a pattern pair admits coefficients satisfying the
marginal-equality system (and, for the support scan, the full masking
system with a non-orthogonality constraint).

Outcomes are three-way: Feasible carries an independently re-verified
witness; Infeasible means the best constrained residual stayed above a
floor over all restarts; anything else is Inconclusive.  Identical
config seeds give bit-identical outcomes.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from enum import Enum
from importlib import resources

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
        """(4, n) 0/1 matrix mapping slot coefficients to amplitudes."""
        S = np.zeros((4, len(self.kets)))
        for slot, idx in enumerate(self.indices):
            S[idx, slot] = 1.0
        return S


@dataclass(frozen=True)
class FeasibilityConfig:
    """Search configuration for the pattern feasibility oracle."""

    delta: float = 0.1
    restarts: int = 200
    tol: float = 1e-8
    seed: int = 42

    def __post_init__(self):
        if not 0 < self.tol < _INFEASIBLE_FLOOR:
            raise ValueError(f"need 0 < tol < {_INFEASIBLE_FLOOR}")
        if not 0 < self.delta < 1:
            raise ValueError("delta must lie in (0, 1)")
        if self.restarts < 1:
            raise ValueError("restarts must be >= 1")


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
    b: QubitState | None = None


@dataclass(frozen=True)
class FeasibilityOutcome:
    status: FeasibilityStatus
    best_residual: float
    restarts_used: int
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
    may vanish.  The state is returned unnormalized together with its
    norm.
    """
    c = np.asarray(coeffs, dtype=np.complex128).reshape(-1)
    if c.shape[0] != len(pattern):
        raise ValueError(
            f"pattern has {len(pattern)} slots, got {c.shape[0]} coefficients")
    merged = pattern.slot_matrix() @ c
    state = TwoQubitState.from_vec(merged, normalized=False)
    return state, float(np.linalg.norm(merged))


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
    t = theta[..., start:start + 2 * n]
    return t[..., 0::2] + 1j * t[..., 1::2]


#: orthonormal basis of the 2x2 Hermitian matrices
_PAULI = [np.diag([1.0, 0.0]), np.diag([0.0, 1.0]),
          np.array([[0, 1], [1, 0]]) / math.sqrt(2.0),
          np.array([[0, -1j], [1j, 0]]) / math.sqrt(2.0)]

#: the eight local observables 1(x)P and P(x)1: <c|O|c> are the Frobenius
#: components of Tr_A|c><c| and Tr_B|c><c|, so two states share both
#: marginals iff they agree on all eight
_LOCAL = np.array([np.kron(np.eye(2), P) for P in _PAULI]
                  + [np.kron(P, np.eye(2)) for P in _PAULI])


def _forms(u: np.ndarray, F: np.ndarray, v: np.ndarray) -> np.ndarray:
    """u^dag F_m v for each matrix F_m of the stack F, batched over rows."""
    uv = u.conj()[..., :, None] * v[..., None, :]
    # einsum, not a BLAS matmul: threaded BLAS on these thin products ran
    # the search several times slower on a loaded 2-core host
    return np.einsum("...ij,mij->...m", uv, F)


class _PairSystem:
    """Residual system for one pattern pair, optionally with the qubit.

    Parameters are the interleaved re/im of the pre-merge slots z0, z1
    of both patterns, followed (full system only) by one phase angle
    phi: the masked qubit is b = (|0> + e^{-i phi}|1>)/sqrt(2), so that
    z = alpha0 alpha1* = e^{i phi}/2 (see `feasible_full` for why one
    angle suffices).

    Every row is a form in the slots over matrices built once from the
    slot matrices S0, S1.  Re z0^dag H0 z0 + Re z1^dag H1 z1
    - (0,...,0, 1, 1) gives <c0|O|c0> - <c1|O|c1> for each `_LOCAL`
    observable O and both norms minus one; the slot floors follow.  The
    full system adds Re(e^{i phi} z1^dag C z0), the Frobenius components
    of both eq3 cross matrices, and the floor on the overlap
    |z1^dag S1^T S0 z0|.  The squared residual norm is
    rA^2 + rB^2 (+ cross norms) + penalty terms.
    """

    def __init__(self, p0: BasisPattern, p1: BasisPattern,
                 delta: float, full: bool):
        self.n0 = len(p0)
        self.n1 = len(p1)
        S0 = p0.slot_matrix()
        S1 = p1.slot_matrix()
        eye, zero = np.eye(4)[None], np.zeros((1, 4, 4))
        self.H0 = S0.T @ np.concatenate([_LOCAL, eye, zero]) @ S0
        self.H1 = S1.T @ np.concatenate([-_LOCAL, zero, eye]) @ S1
        self.C = S1.T @ np.concatenate([_LOCAL, eye]) @ S0
        self.unit = np.r_[np.zeros(len(_LOCAL)), 1.0, 1.0]
        self.full = full
        self.delta_opt = delta * (1.0 + _DELTA_MARGIN)
        self.n_params = 2 * (self.n0 + self.n1) + (1 if full else 0)

    def residuals(self, theta: np.ndarray) -> np.ndarray:
        z0 = _complex_slots(theta, 0, self.n0)
        z1 = _complex_slots(theta, 2 * self.n0, self.n1)
        parts = [_forms(z0, self.H0, z0).real + _forms(z1, self.H1, z1).real
                 - self.unit,
                 np.maximum(0.0, self.delta_opt - np.abs(z0)),
                 np.maximum(0.0, self.delta_opt - np.abs(z1))]
        if self.full:
            cross = _forms(z1, self.C, z0)
            parts.append((np.exp(1j * theta[..., -1:]) * cross[..., :-1]).real)
            overlap = np.abs(cross[..., -1:])
            parts.append(np.maximum(0.0, self.delta_opt - overlap))
        return np.concatenate(parts, axis=-1)

    def initial_points(self, seed: int, restarts: int) -> np.ndarray:
        """Per-restart starts keyed by (seed, restart index)."""
        theta = np.empty((restarts, self.n_params))
        n_slots = self.n0 + self.n1
        for k in range(restarts):
            rng = np.random.default_rng(np.random.SeedSequence((seed, k)))
            mag = 0.35 + 0.5 * rng.random(n_slots)
            phase = 2.0 * math.pi * rng.random(n_slots)
            z = mag * np.exp(1j * phase)
            theta[k, 0:2 * n_slots:2] = z.real
            theta[k, 1:2 * n_slots:2] = z.imag
            if self.full:
                theta[k, -1] = math.pi * rng.random()
        return theta


# ---------------------------------------------------------------------------
# batched damped least squares
# ---------------------------------------------------------------------------

_FD_STEP = 1e-6          # central differences are exact for these
_STEP_STOP = 1e-13       # stop when the accepted step is this small
_OBJ_STOP = 1e-28        # or the objective this small
_LAMBDA_MAX = 1e12       # or damping has grown hopeless


def _minimize_batch(system: _PairSystem, theta: np.ndarray,
                    iters: int) -> np.ndarray:
    """Damped least squares on every restart row of ``theta`` at once."""
    R, p = theta.shape
    lam = np.full(R, 1e-3)
    active = np.ones(R, dtype=bool)
    r = system.residuals(theta)
    obj = np.einsum("rm,rm->r", r, r)
    eye = np.eye(p)

    for _ in range(iters):
        if not active.any():
            break
        th_a = theta[active]
        # central-difference Jacobian, batched over restarts and params
        pert = th_a[None, None, :, :] \
            + (_FD_STEP * np.array([1.0, -1.0]))[:, None, None, None] \
            * eye[None, :, None, :]
        rp = system.residuals(pert.reshape(-1, p))
        rp = rp.reshape(2, p, th_a.shape[0], -1)
        J = (rp[0] - rp[1]).transpose(1, 2, 0) / (2.0 * _FD_STEP)

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
# feasibility oracle
# ---------------------------------------------------------------------------

def _check_delta_domain(delta: float, *slot_counts: int):
    for n in slot_counts:
        if delta >= 1.0 / math.sqrt(n):
            raise ValueError(
                f"delta {delta} too large for a {n}-slot pattern")


def _project_slots(z: np.ndarray, S: np.ndarray,
                   delta: float) -> np.ndarray | None:
    """Nearest point with unit merged norm and every |slot| >= delta.

    Alternates clipping low slots up to the floor (phase preserved)
    with merged-state renormalization; converges geometrically.  Gives
    every restart a *constrained* candidate, so infeasible patterns
    report a finite best residual instead of rejecting everything.
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


def _verify_candidate(p0: BasisPattern, p1: BasisPattern, theta: np.ndarray,
                      cfg: FeasibilityConfig, full: bool,
                      ) -> tuple[float, Witness] | None:
    """Re-check one candidate through `conditions` only.

    Returns (residual, witness) when the floor/normalization
    constraints hold, else None.  The residual is the max of the
    marginal distances (and, for the full system, the cross norms).
    """
    n0, n1 = len(p0), len(p1)
    z0 = _project_slots(_complex_slots(theta, 0, n0),
                        p0.slot_matrix(), cfg.delta)
    z1 = _project_slots(_complex_slots(theta, 2 * n0, n1),
                        p1.slot_matrix(), cfg.delta)
    if z0 is None or z1 is None:
        return None
    psi0 = TwoQubitState.unit(p0.slot_matrix() @ z0)
    psi1 = TwoQubitState.unit(p1.slot_matrix() @ z1)
    rA, rB = conditions.reduced_pair_residual(psi0, psi1)
    residual = max(rA, rB)
    b = None

    if full:
        overlap = abs(complex(np.vdot(psi0.vec, psi1.vec)))
        if overlap < cfg.delta - _CHECK_SLACK:
            return None
        b = QubitState.normalized(1.0, complex(np.exp(-1j * theta[-1])))
        for sub in ("A", "B"):
            cross = conditions.cross_term_matrix(psi0, psi1, b, sub)
            residual = max(residual, float(np.linalg.norm(cross)))

    witness = Witness(
        psi0=psi0, psi1=psi1,
        coeffs0=tuple(complex(v) for v in z0),
        coeffs1=tuple(complex(v) for v in z1),
        b=b,
    )
    return residual, witness


def _decide(p0: BasisPattern, p1: BasisPattern, cfg: FeasibilityConfig,
            full: bool) -> FeasibilityOutcome:
    # the full system's qubit is a 2-slot pattern: |alpha_i| = 1/sqrt(2)
    _check_delta_domain(cfg.delta, len(p0), len(p1), *((2,) if full else ()))
    system = _PairSystem(p0, p1, cfg.delta, full)
    theta = system.initial_points(cfg.seed, cfg.restarts)
    theta = _minimize_batch(system, theta, _ITERS)

    best_residual = math.inf
    best_witness = None
    for k in range(cfg.restarts):  # restart-index order => deterministic
        checked = _verify_candidate(p0, p1, theta[k], cfg, full)
        if checked is None:
            continue
        residual, witness = checked
        if residual < best_residual:
            best_residual = residual
            best_witness = witness

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
        witness=best_witness if status is FeasibilityStatus.FEASIBLE else None,
    )


def feasible_eq4(p0: BasisPattern, p1: BasisPattern,
                 cfg: FeasibilityConfig) -> FeasibilityOutcome:
    """Decide the eq4 (marginal-equality) system over nonzero slots.

    Searches for pre-merge coefficients with every |c| >= cfg.delta and
    both merged states unit norm such that the marginals of the two
    states coincide.  Feasible outcomes carry a witness whose residual
    was re-verified through `conditions` (never the optimizer state).
    """
    return _decide(p0, p1, cfg, full=False)


def feasible_full(p0: BasisPattern, p1: BasisPattern,
                  cfg: FeasibilityConfig) -> FeasibilityOutcome:
    """Decide the full masking system with a non-orthogonality constraint.

    On top of the eq4 search this adds one phase angle phi for the
    masked qubit b = (|0> + e^{-i phi}|1>)/sqrt(2), the two eq3
    cross-matrix systems, and |<Psi0|Psi1>| >= delta.  The cross terms
    are real-linear in z = alpha0 alpha1*, so any qubit with
    |alpha_i| >= delta > 0 masks iff the b with the same arg z does:
    |alpha0| and |alpha1| never decide feasibility.  delta >= 1/sqrt(2)
    is rejected since no qubit meets both floors there.
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
            table = int(entry["table"])
            p0 = tuple(entry["psi0_kets"])
            p1 = tuple(entry["psi1_kets"])
            expected = entry["expected"]
        except (KeyError, TypeError) as exc:
            raise ValueError(f"malformed fixture row {entry!r}") from exc
        if expected not in ("mask", "no") or table not in (1, 2, 3, 4):
            raise ValueError(f"malformed fixture row {entry!r}")
        BasisPattern(p0), BasisPattern(p1)  # label validation
        counters[table] = counters.get(table, 0) + 1
        rows.append(TableRow(table, counters[table], p0, p1, expected))
    return rows


def reproduce_table(n: int, cfg: FeasibilityConfig) -> list[TableRowResult]:
    """Run the eq4 oracle on every bundled row of table ``n``.

    Results keep fixture order; each carries the computed outcome so a
    disagreement always ships evidence (a witness for rows we find
    feasible, the best residual for rows we find infeasible).
    """
    if n not in (1, 2, 3, 4):
        raise ValueError(f"table must be 1-4, got {n}")
    results = []
    for row in load_table_fixture():
        if row.table != n:
            continue
        outcome = feasible_eq4(BasisPattern(row.psi0_kets),
                               BasisPattern(row.psi1_kets), cfg)
        results.append(TableRowResult(row=row, outcome=outcome))
    return results


def support_theorem_scan(cfg: FeasibilityConfig) -> list[ScanViolation]:
    """Scan all ordered duplicate-free pattern pairs for counterexamples.

    A violation is a pair with differing ket-sets that is Feasible for
    the full masking system under the non-orthogonality constraint
    |<Psi0|Psi1>| >= delta, with a masked qubit of |alpha_i| >= delta
    (see `feasible_full`).
    """
    violations = []
    pats = duplicate_free_patterns()
    for p0 in pats:
        for p1 in pats:
            outcome = feasible_full(p0, p1, cfg)
            if (outcome.status is FeasibilityStatus.FEASIBLE
                    and p0.support != p1.support):
                violations.append(ScanViolation(
                    psi0_kets=p0.kets, psi1_kets=p1.kets, outcome=outcome))
    return violations
