"""Basis-pattern feasibility: verdict tables and the support-theorem scan.

A *basis pattern* is an ordered list of computational-basis kets, each
position carrying a complex coefficient slot constrained away from zero
(duplicate kets are allowed and are summed after assignment).  The
feasibility oracle decides whether a pattern pair admits coefficients
satisfying the marginal-equality system (and, for the support scan, the
full masking system with a non-orthogonality constraint).  Both systems
decide a pair with a certified lower bound first (`_bound`), chiefly
the widest gap between the two patterns' ranges of four linear
functions of the squared moduli (for the full system, also the overlap
of disjoint or entangled supports).  The bound depends only on the two
ket multisets, so its verdict is cached per multiset pair and system: a
certified decision is one lookup that returns the one shared Infeasible
outcome.

The pairs the bound leaves open are decided apart from it.  The eq4
system runs a seeded random-restart damped least-squares search with an
analytic Jacobian, in blocks of at most 64 restarts, which looks for a
witness on every call.  The full system runs no search.  Two states
share both marginals when their supports are equal or partners (see
`conditions.masking_partner`), so it takes the first such pair of
supports that the two patterns can take, looked up once per multiset
pair with its two states, and builds its witness from them on every
call.  The support scan asks the same cache, once per delta, which
differing-support pairs the bound leaves open: 16, in two orbits of its
16 symmetries.  It keeps them as a plan: the first pair of each orbit,
which it decides, and for each other pair the slot positions that carry
that witness onto it.  Every scan decides the two and re-verifies the
14 images, each on its own pair.

Outcomes are three-way: Feasible carries an independently re-verified
witness, whoever proposed it; Infeasible is always a certificate, a
bound at or above a floor; an eq4 search that finds no witness is
Inconclusive.  Identical config seeds give bit-identical outcomes.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
from dataclasses import dataclass, field
from enum import Enum
from importlib import resources
from typing import NamedTuple

import numpy as np

from . import conditions
from .qlinalg import (QubitState, TwoQubitState, _is_integer, _norm,
                      _unit_state)

KET_LABELS = ("00", "01", "10", "11")

#: the numbers of the bundled verdict tables
TABLES = (1, 2, 3, 4)

#: relative inflation of the nonzero floor inside the search, so that
#: witnesses still clear the exact floor after normalization
_DELTA_MARGIN = 1e-4

#: numeric slack when re-checking |coeff| >= delta on a witness
_CHECK_SLACK = 1e-12

#: damped least-squares iterations per restart
_ITERS = 2000

#: most restarts the eq4 search builds and minimises at once, so that its
#: memory stays bounded at any restart count
_BLOCK = 64

#: the most restarts a config accepts: NumPy's index range, so that every
#: restart index fits an array index
_MAX_RESTARTS = int(np.iinfo(np.intp).max)

#: a certified bound at or above this decides Infeasible
_INFEASIBLE_FLOOR = 1e-6

#: the masked qubit of the full system, (|0> + |1>)/sqrt(2)
_PLUS = QubitState.normalized(1.0, 1.0)

#: the eight relabellings of the basis by X_A, X_B and the qubit swap, each
#: as the image index of 00, 01, 10, 11: the swap or not, then X_A^a X_B^b
#: flips the index bits (a, b), the identity first
_KET_MAPS = tuple(tuple(swap[i] ^ flips for i in range(4))
                  for swap in ((0, 1, 2, 3), (0, 2, 1, 3))
                  for flips in range(4))


def _check_kets(kets) -> tuple[str, ...]:
    """``kets`` as a tuple; ``ValueError`` unless it holds 1-4 labels of
    `KET_LABELS` (duplicates allowed)."""
    kets = tuple(kets)
    if not 1 <= len(kets) <= 4:
        raise ValueError(f"pattern needs 1-4 kets, got {len(kets)}")
    for k in kets:
        if k not in KET_LABELS:
            raise ValueError(f"unknown ket label {k!r}")
    return kets


@dataclass(frozen=True)
class BasisPattern:
    """An ordered list of 1-4 two-bit ket labels (duplicates allowed)."""

    kets: tuple[str, ...]

    def __post_init__(self):
        kets = _check_kets(self.kets)
        object.__setattr__(self, "kets", kets)
        #: the ket multiset (n00, n01, n10, n11), all the bounds read
        object.__setattr__(self, "counts", tuple(map(kets.count, KET_LABELS)))
        #: basis index of each slot (2*bitA + bitB)
        object.__setattr__(self, "indices", tuple(map(KET_LABELS.index, kets)))
        S = np.zeros((4, len(kets)))
        S[self.indices, range(len(kets))] = 1.0
        S.flags.writeable = False
        object.__setattr__(self, "_slots", S)

    def __len__(self) -> int:
        return len(self.kets)

    def slot_matrix(self) -> np.ndarray:
        """Read-only (4, n) 0/1 map from slot coefficients to amplitudes."""
        return self._slots


@dataclass(frozen=True)
class FeasibilityConfig:
    """Configuration of the pattern feasibility oracle."""

    #: fixed floor on every |slot|, |<Psi0|Psi1>| and the qubit's |alpha_i|
    delta: float = field(default=0.1, init=False)
    #: the eq4 search's budget for finding witnesses: Infeasible is always
    #: a certificate and never depends on it, nor does the full system;
    #: 10 is what the benchmark's tables run
    restarts: int = 10
    #: fixed witness tolerance on the re-verified residual
    tol: float = field(default=1e-8, init=False)
    seed: int = 42

    def __post_init__(self):
        for name, low in (("restarts", 1), ("seed", 0)):
            value = getattr(self, name)
            if not _is_integer(value) or value < low:
                raise ValueError(
                    f"{name} must be an integer >= {low}, got {value!r}")
        if self.restarts > _MAX_RESTARTS:
            raise ValueError(f"restarts must be at most {_MAX_RESTARTS}, "
                             f"got {self.restarts!r}")


class FeasibilityStatus(str, Enum):
    FEASIBLE = "Feasible"
    INFEASIBLE = "Infeasible"
    INCONCLUSIVE = "Inconclusive"


#: the fixture's verdict label of each decided status
_EXPECTED = {FeasibilityStatus.FEASIBLE: "mask",
             FeasibilityStatus.INFEASIBLE: "no"}


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

    Infeasible is always a certificate: ``best_residual`` is then the
    bound, a number no admissible coefficient choice gets below (the
    largest marginal distance for eq4, the largest
    `conditions.masks_state` residual for the full system, see
    `_bound`), and ``iterations`` is 0.  For eq4, Feasible and
    Inconclusive come from the search: ``best_residual`` is the smallest
    re-verified residual `conditions.reduced_pair_residual` over all
    restarts, or ``inf`` when no restart gave a candidate that meets the
    floors, and ``iterations`` counts the damped least-squares steps,
    accepted or not, summed over all ``FeasibilityConfig.restarts``
    restarts.  A Feasible outcome of the full system carries a witness
    built from a formula, or in `support_theorem_scan` another pair's
    witness relabelled: ``best_residual`` is its re-verified largest
    `conditions.masks_state` residual, and ``iterations`` is 0.
    """

    status: FeasibilityStatus
    best_residual: float
    iterations: int = 0
    witness: Witness | None = None

    @property
    def decided_by(self) -> str:
        """Read off the outcome: ``"bound"`` exactly for Infeasible,
        ``"relation"`` for a full-system witness (the one kind that
        carries a masked qubit ``b``), ``"search"`` for any other."""
        if self.status is FeasibilityStatus.INFEASIBLE:
            return "bound"
        if self.witness is not None and self.witness.b is not None:
            return "relation"
        return "search"


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
        # Inconclusive has no label, so it never agrees
        return _EXPECTED.get(self.outcome.status) == self.row.expected


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
    may vanish.  The state and norm are `_unit_state`'s of the merged
    vector: the norm is np.linalg.norm's bit for bit while the squares
    stay normal floats, and past that range the prescaled norm times its
    scale, nonzero, and inf only above the largest float; raises
    ``ValueError`` when the merged amplitudes cancel.
    """
    c = np.asarray(coeffs, dtype=np.complex128).reshape(-1)
    if c.shape[0] != len(pattern):
        raise ValueError(
            f"pattern has {len(pattern)} slots, got {c.shape[0]} coefficients")
    return _unit_state(pattern.slot_matrix() @ c, math.nan)


#: the 15 duplicate-free patterns, ordered by length then labels
_DUPLICATE_FREE = tuple(BasisPattern(kets)
                        for n in range(1, len(KET_LABELS) + 1)
                        for kets in itertools.combinations(KET_LABELS, n))


# ---------------------------------------------------------------------------
# the eq4 residual system (batched over restarts)
# ---------------------------------------------------------------------------

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
    """The eq4 residual system and its Jacobian for one pattern pair.

    Parameters are the interleaved re/im of the pre-merge slots
    z = (z0, z1) of both patterns.  Over one stack of Hermitian matrices
    K_m, built once from the slot matrices S0, S1, every residual row is
    one of two kinds, in this order:

    - a form z^dag K_m z - unit_m: K_m = diag(S0^T F S0, -S1^T F S1) over
      the eight `_LOCAL` observables F, then the two norms diag(S0^T S0,
      0) and diag(0, S1^T S1), with ``unit`` 1 on the norms only:
      <c0|F|c0> - <c1|F|c1> and both norms minus one;
    - a hinge max(0, delta' - |z_k|) on each slot.

    The Jacobian is closed-form.  Written as one complex number per slot,
    d/dRe + i d/dIm, a form row has the gradient 2 K_m z and a slot hinge
    -z_k/|z_k| in its own slot, 0 where inactive.  The squared residual
    norm is rA^2 + rB^2 + slot penalties.
    """

    def __init__(self, p0: BasisPattern, p1: BasisPattern, delta: float):
        n0, n1 = len(p0), len(p1)
        self.n = n0 + n1
        eye = np.eye(4)[None]
        zero = np.zeros_like(eye)
        top = np.concatenate([_LOCAL, eye, zero])
        bottom = np.concatenate([-_LOCAL, zero, eye])
        O = np.zeros_like(top)
        self.unit = np.r_[np.zeros(len(_LOCAL)), 1.0, 1.0]
        S = np.block([[p0.slot_matrix(), np.zeros((4, n1))],
                      [np.zeros((4, n0)), p1.slot_matrix()]])
        self.K = S.T @ np.block([[top, O], [O, bottom]]) @ S
        self.n_forms = len(self.K)
        self.delta_opt = delta * (1.0 + _DELTA_MARGIN)
        self.n_params = 2 * self.n

    def _products(self, theta: np.ndarray):
        """The slots z and K_m z for every matrix of K."""
        z = theta.view(np.complex128)
        # einsum, not a BLAS matmul: threaded BLAS on these thin products ran
        # the search several times slower on a loaded 2-core host
        return z, np.einsum("mij,...j->...mi", self.K, z)

    def residuals(self, theta: np.ndarray) -> np.ndarray:
        z, Kz = self._products(theta)
        q = np.einsum("...i,...mi->...m", z.conj(), Kz).real
        return np.concatenate(
            [q - self.unit, np.maximum(0.0, self.delta_opt - np.abs(z))],
            axis=-1)

    def jacobian(self, theta: np.ndarray) -> np.ndarray:
        """d residuals / d theta for (R, p) rows of theta: (R, rows, p)."""
        z, Kz = self._products(theta)
        R, f, n = len(theta), self.n_forms, self.n
        J = np.zeros((R, f + n, self.n_params))
        Jz = J.view(np.complex128)  # d/dRe + i d/dIm of each slot
        Jz[:, :f] = 2.0 * Kz
        # the hinge slope 1/|z_k| where it is active, else 0; finite at 0
        mag = np.abs(z)
        slots = np.arange(n)
        Jz[:, f + slots, slots] = -z * (
            (mag < self.delta_opt) / np.maximum(mag, 1e-300))
        return J

    def initial_points(self, seed: int, restarts: range) -> np.ndarray:
        """One start per restart index, keyed by (seed, index)."""
        theta = np.empty((len(restarts), self.n_params))
        for row, k in zip(theta, restarts):
            rng = np.random.default_rng(np.random.SeedSequence((seed, k)))
            mag = 0.35 + 0.5 * rng.random(self.n)
            phase = 2.0 * math.pi * rng.random(self.n)
            row.view(np.complex128)[:] = mag * np.exp(1j * phase)
        return theta


# ---------------------------------------------------------------------------
# batched damped least squares
# ---------------------------------------------------------------------------

_STEP_STOP = 1e-13       # stop when the accepted step is this small
_OBJ_STOP = 1e-28        # or the objective this small
_LAMBDA_MAX = 1e12       # or damping has grown hopeless


def _minimize_batch(system: _PairSystem, theta: np.ndarray, iters: int,
                    steps: np.ndarray) -> np.ndarray:
    """Damped least squares on every restart row of ``theta`` at once.

    ``steps`` is an (R,) integer array; each row's count of damped steps
    (accepted or not) is added to it.
    """
    R, p = theta.shape
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
# certified lower bounds
# ---------------------------------------------------------------------------

#: Tr_B and Tr_A off-diagonal entries: the ket pairs (i, j) of their
#: products c_i c_j*
_OFF_DIAGONAL = (((0, 2), (1, 3)), ((0, 1), (2, 3)))

#: the two-ket supports of a maximally entangled state
_ENTANGLED = (frozenset({"00", "11"}), frozenset({"01", "10"}))


@functools.cache
def _profile(counts: tuple[int, ...], floor: float) -> tuple:
    """What both bounds read of a ket multiset (n00, n01, n10, n11) at a
    single-ket floor on moduli^2: the four axis ranges of
    `_diagonal_distance`; each `_OFF_DIAGONAL` entry's listed products,
    as n_i n_j ((1,) is one product of single kets); and bit masks over
    `_ENTANGLED`: support inside pair i, a ket outside it listed once."""
    lo = [floor if n == 1 else 0.0 for n in counts]
    rest = 1.0 - sum(lo)
    x0, y0 = lo[0] + lo[1], lo[0] + lo[2]
    # e_k adds to X when ket k is 00 or 01, to Y when it is 00 or 10
    corners = [(x0 + rest * (k < 2), y0 + rest * (k % 2 == 0))
               for k in range(4) if counts[k]]
    axes = zip(*((x, y, (x + y) / 2, (x - y) / 2) for x, y in corners))
    products = tuple(tuple(counts[i] * counts[j] for i, j in pairs
                           if counts[i] and counts[j])
                     for pairs in _OFF_DIAGONAL)
    outside = [[n for k, n in zip(KET_LABELS, counts) if k not in pair]
               for pair in _ENTANGLED]
    return (tuple((min(v), max(v)) for v in axes), products,
            sum((not any(o)) << i for i, o in enumerate(outside)),
            sum((1 in o) << i for i, o in enumerate(outside)))


def _diagonal_distance(counts0, counts1, floor: float) -> float:
    """L-infinity distance between two patterns' sets of diagonals (X, Y).

    X = m00 + m01 and Y = m00 + m10 for merged moduli^2 m with sum 1,
    m >= floor on a single ket, m >= 0 on a duplicated ket and m = 0 on
    an unlisted one; m <= 1 never binds.  That set is the simplex of the
    points lo + (1 - sum(lo)) e_k over listed kets k, so (X, Y) spans
    the hull of corners of one square, with edges normal to X, Y, X+Y or
    X-Y only.  The widest gap between the patterns' ranges of X, Y,
    (X+Y)/2 and (X-Y)/2 (unit L1 normals) is thus the exact distance.
    """
    gap = 0.0
    for (lo0, hi0), (lo1, hi1) in zip(_profile(tuple(counts0), floor)[0],
                                      _profile(tuple(counts1), floor)[0]):
        gap = max(gap, lo0 - hi1, lo1 - hi0)
    return gap


def _bound(counts0, counts1, delta: float, full: bool) -> float:
    """Certified lower bound of two ket multisets (``counts``) for the
    eq4 system, or for the full system when ``full`` is set.

    eq4: a lower bound on max(`conditions.reduced_pair_residual`).
    Holds for every admissible choice: single-ket |c| >= delta -
    _CHECK_SLACK (the witness check), any duplicated-ket merged value,
    unit merged norm.  A marginal difference with diagonal (d, -d) or
    off-diagonal (o, o*) has Frobenius norm >= sqrt(2)|d| or sqrt(2)|o|.
    (a) |d| >= `_diagonal_distance`, from four axis ranges per pattern.
    (b) |o| >= (delta - _CHECK_SLACK)^2 when one side's entry is a
    single product of two single kets and the other's is 0.

    Full system: a lower bound on max(`conditions.masks_state`
    residuals) at b = |+> when |<Psi0|Psi1>| and every |slot| are >= f =
    delta - _CHECK_SLACK, the floors of the witness check.  Disjoint
    supports give <Psi0|Psi1> = 0, which misses the overlap floor by
    delta: the bound is delta.  Otherwise it is the larger of

    - the eq4 bound / sqrt(2): the eq4 lines of `masks_state` are the
      entrywise |d| and |o| that the eq4 bound bounds times sqrt(2);
    - f^2 / (2f + 1 + sqrt(2)) when one pattern lists only kets of a
      two-ket entangled support and the other lists a ket outside it
      exactly once.  With Psi0 = (a, 0, 0, d), Psi1 = (p, q, r, s), q
      single and eps the largest residual: conj(w) = 2 Re(d s*) +
      (a p* - d* s) for w = <Psi0|Psi1>, where Re(d s*) is an entry of
      cross matrix A, and q (a p* - d* s) = a F* - E s, where F =
      p q* + r s* is an eq4 line and E/2 = (a r* + d* q)/2 an
      off-diagonal entry of the Hermitian cross matrix B.  So |w| <=
      eps (2 + (1 + sqrt(2)) / |q|), and |w|, |q| >= f give the bound.
      X_B, the qubit swap and exchanging the states keep every residual
      and |w|, which covers {01,10}, a single 10 and either order.

    Every clause of both systems reads one cached `_profile` per ket
    multiset.
    """
    if full and not any(n0 and n1 for n0, n1 in zip(counts0, counts1)):
        return delta
    f = delta - _CHECK_SLACK
    floor = f ** 2
    prof0, prof1 = _profile(counts0, floor), _profile(counts1, floor)
    gap = _diagonal_distance(counts0, counts1, floor)
    for terms in zip(prof0[1], prof1[1]):
        if () in terms and (1,) in terms:
            gap = max(gap, floor)
    bound = math.sqrt(2.0) * gap
    if full:
        bound /= math.sqrt(2.0)
        if prof0[2] & prof1[3] or prof1[2] & prof0[3]:
            bound = max(bound, f * f / (2.0 * f + 1.0 + math.sqrt(2.0)))
    return bound


@functools.cache
def _certificate(counts0: tuple[int, ...], counts1: tuple[int, ...],
                 delta: float, full: bool) -> FeasibilityOutcome | None:
    """The Infeasible outcome of two ket multisets when their `_bound`
    is at or above the Infeasible floor, else None.

    Cached per (multiset pair, delta, system): a certified decision is
    one lookup, and every caller shares the one frozen outcome.  Only
    certificates are cached; a pair the bound leaves open is decided on
    every call, by the eq4 search or by a full-system witness checked
    again.
    """
    bound = _bound(counts0, counts1, delta, full)
    if bound < _INFEASIBLE_FLOOR:
        return None
    return FeasibilityOutcome(FeasibilityStatus.INFEASIBLE, bound)


# ---------------------------------------------------------------------------
# feasibility oracle
# ---------------------------------------------------------------------------

def _verify_candidate(p0: BasisPattern, p1: BasisPattern, z: np.ndarray,
                      delta: float, full: bool,
                      ) -> tuple[float, Witness] | None:
    """Check one candidate, the complex slots ``z`` of ``p0`` then ``p1``,
    through `conditions`, whatever proposed it.

    Each side takes one product, its merged vector S z with S the slot
    matrix, and one `_norm` of it.  Its slots are rescaled to z / norm,
    and its state is the one `_unit_state` builds from that same S z
    and norm, bit for bit `TwoQubitState.unit` of S z, which `assemble`
    of the rescaled slots gives back to rounding.  Returns (residual,
    witness) when every rescaled |slot| is >= delta (up to _CHECK_SLACK)
    and, for the full system, the overlap meets the same floor; else
    None, also when the merged amplitudes cancel.  The residual is the largest
    marginal distance for eq4 and the largest `masks_state` residual at
    b = |+> for the full system.
    """
    slots, states = [], []
    for p, zp in ((p0, z[:len(p0)]), (p1, z[len(p0):])):
        merged = p.slot_matrix() @ zp
        norm = _norm(merged)
        if norm < 1e-12:
            return None  # the duplicated kets cancel
        scaled = (zp / norm).tolist()
        # `not >=` also turns down a nan, which `min` may return
        if not min(map(abs, scaled)) >= delta - _CHECK_SLACK:
            return None
        slots.append(tuple(scaled))
        states.append(_unit_state(merged, norm)[0])
    psi0, psi1 = states
    if full:
        overlap = abs(complex(np.vdot(psi0.vec, psi1.vec)))
        if overlap < delta - _CHECK_SLACK:
            return None
        b = _PLUS
        residual = max(conditions.masks_state(b, psi0, psi1).residuals())
    else:
        b = None
        residual = max(conditions.reduced_pair_residual(psi0, psi1))
    return residual, Witness(psi0, psi1, *slots, b)


def _search(p0: BasisPattern, p1: BasisPattern,
            cfg: FeasibilityConfig) -> FeasibilityOutcome:
    """The eq4 search: one candidate per restart, minimised in blocks of
    at most `_BLOCK` restarts, each checked by `_verify_candidate`: a
    witness (Feasible) or Inconclusive.  Rows do not depend on their
    block, so the blocks change no outcome."""
    system = _PairSystem(p0, p1, cfg.delta)
    best_residual, best_witness, steps = math.inf, None, 0
    for start in range(0, cfg.restarts, _BLOCK):
        restarts = range(start, min(start + _BLOCK, cfg.restarts))
        counted = np.zeros(len(restarts), dtype=np.int64)
        theta = _minimize_batch(system, system.initial_points(
            cfg.seed, restarts), _ITERS, counted)
        steps += int(counted.sum())
        for z in theta.view(np.complex128):
            checked = _verify_candidate(p0, p1, z, cfg.delta, full=False)
            # the first minimum in restart-index order => deterministic
            if checked is not None and checked[0] < best_residual:
                best_residual, best_witness = checked
    feasible = best_residual <= cfg.tol
    return FeasibilityOutcome(
        status=(FeasibilityStatus.FEASIBLE if feasible
                else FeasibilityStatus.INCONCLUSIVE),
        best_residual=best_residual,
        iterations=steps,
        witness=best_witness if feasible else None,
    )


def feasible_eq4(p0: BasisPattern, p1: BasisPattern,
                 cfg: FeasibilityConfig) -> FeasibilityOutcome:
    """Decide the eq4 (marginal-equality) system over nonzero slots.

    Looks for pre-merge coefficients with every |c| >= cfg.delta and
    both merged states unit norm such that the marginals of the two
    states coincide.  A pair whose certified lower bound (`_bound`,
    looked up through `_certificate`) is at or above the Infeasible
    floor is Infeasible without a search, with that bound as
    ``best_residual``.  Any other pair is searched for a witness,
    re-verified through `conditions` (never the optimizer state); a
    search that finds none is Inconclusive.
    """
    certified = _certificate(p0.counts, p1.counts, cfg.delta, False)
    return certified if certified is not None else _search(p0, p1, cfg)


# ---------------------------------------------------------------------------
# the full system: witnesses from closed forms
# ---------------------------------------------------------------------------

def _partner_pair(amplitudes) -> tuple[np.ndarray, np.ndarray]:
    """A state M and its masking partner P(M), as amplitude vectors."""
    m = TwoQubitState.unit(amplitudes)
    return m.vec, conditions.masking_partner(m).vec


#: the partner case with the three-ket support missing 11: its state M
#: and P(M), keyed by the ket that P(M) misses, 01 or 10, or None when it
#: has all four kets
_PARTNERS = {None: _partner_pair([1.0, 1.0, 1.0, 0.0]),
             1: _partner_pair([0.5, 0.5, math.sqrt(0.5), 0.0]),
             2: _partner_pair([0.5, math.sqrt(0.5), 0.5, 0.0])}

#: the m-th roots of unity for m = 2, 3, 4; each set sums to 0 exactly
_ROOTS = {2: (1.0, -1.0),
          3: (1.0, complex(-0.5, math.sqrt(0.75)),
              complex(-0.5, -math.sqrt(0.75))),
          4: (1.0, 1j, -1.0, -1j)}


def _fitting_supports(counts: tuple[int, ...]) -> list[int]:
    """The supports a merged state of the ket multiset can have, as bit
    masks over ket indices, ascending: every single ket, and any of the
    duplicated ones, which can merge to 0."""
    singles = sum(1 << k for k, n in enumerate(counts) if n == 1)
    listed = sum(1 << k for k, n in enumerate(counts) if n)
    return [s for s in range(1, 16)
            if s & singles == singles and not s & ~listed]


def _related_states(s0: int, s1: int) -> tuple | None:
    """Psi0 and Psi1 of supports s0 and s1 (bit masks) that share both
    marginals and mask |+>, or None unless the supports are equal or
    partners.

    - Equal supports: uniform amplitudes, and Psi1 = i Psi0.
    - Partners, a three-ket support against all four kets or against
      three kets whose missing ket differs in one bit: moved by the
      X_A, X_B flip of the ket index bits that takes the three-ket
      support's missing ket to 11, they are M and i P(M) of
      `_PARTNERS`; when Psi0 has all four kets, P(M) and i M.  Both
      orders make the two eq3 cross matrices at |+> anti-Hermitian, so
      they vanish.

    The maximally entangled pairs of eq4 are not among them: their
    overlap is 0.
    """
    if s0 == s1:
        psi0 = np.array([s0 >> k & 1 for k in range(4)]) / math.sqrt(
            s0.bit_count())
        return psi0, 1j * psi0
    three, other = (s0, s1) if s0.bit_count() == 3 else (s1, s0)
    if three.bit_count() != 3:
        return None
    # X_A^a X_B^b, (a, b) the bits of flips, takes the ket three lacks
    # to 11; the ket other lacks goes to 01 or 10 exactly for partners
    flips = ((15 ^ three).bit_length() - 1) ^ 3
    if other == 15:
        key = None
    elif other.bit_count() == 3:
        key = ((15 ^ other).bit_length() - 1) ^ flips
        if key not in (1, 2):
            return None
    else:
        return None
    m, partner = _PARTNERS[key]
    states = (m, 1j * partner) if three == s0 else (partner, 1j * m)
    ket_map = [i ^ flips for i in range(4)]
    return tuple(psi[ket_map] for psi in states)


@functools.cache
def _related_supports(counts0: tuple[int, ...], counts1: tuple[int, ...],
                      ) -> tuple | None:
    """The first pair of supports (s0, s1) in `_fitting_supports` order
    that two ket multisets can take and `_related_states` relates, with
    its two states, read-only: (s0, s1, Psi0, Psi1), or None when no pair
    is related.  Cached per multiset pair, so the supports are walked
    once; the states hold no slot, which `_split_slots` places per call.
    """
    for s0, s1 in itertools.product(_fitting_supports(counts0),
                                    _fitting_supports(counts1)):
        states = _related_states(s0, s1)
        if states is not None:
            for psi in states:
                psi.flags.writeable = False
            return (s0, s1, *states)
    return None


def _split_slots(p: BasisPattern, psi: np.ndarray, support: int,
                 delta: float) -> list[complex]:
    """Slot coefficients of ``p`` that merge to ``psi`` on ``support`` and
    to 0 off it.  A single ket takes its amplitude.  A ket listed m >= 2
    times, with merged value a, is split as a/m + r e^{2 pi i j/m} over
    its copies j with r = 2 delta + |a|/m: the copies sum to a, and each
    has modulus >= 2 delta."""
    copies = [0, 0, 0, 0]
    slots = []
    for k in p.indices:
        a = complex(psi[k]) if support >> k & 1 else 0j
        m = p.counts[k]
        if m == 1:
            slots.append(a)
            continue
        r = 2.0 * delta + abs(a) / m
        slots.append(a / m + r * _ROOTS[m][copies[k]])
        copies[k] += 1
    return slots


def _full_check(p0: BasisPattern, p1: BasisPattern, z: np.ndarray,
                cfg: FeasibilityConfig) -> FeasibilityOutcome:
    """One full-system candidate through `_verify_candidate`: Feasible at
    a re-verified residual <= cfg.tol, with ``iterations`` 0, else
    Inconclusive."""
    checked = _verify_candidate(p0, p1, z, cfg.delta, full=True)
    if checked is None:
        return FeasibilityOutcome(FeasibilityStatus.INCONCLUSIVE, math.inf)
    residual, witness = checked
    if residual > cfg.tol:
        return FeasibilityOutcome(FeasibilityStatus.INCONCLUSIVE, residual)
    return FeasibilityOutcome(FeasibilityStatus.FEASIBLE, residual, 0,
                              witness)


def feasible_full(p0: BasisPattern, p1: BasisPattern,
                  cfg: FeasibilityConfig) -> FeasibilityOutcome:
    """Decide the full masking system with a non-orthogonality constraint.

    On top of eq4 this adds the two eq3 cross-matrix systems at the
    masked qubit b = |+> and the floor |<Psi0|Psi1>| >= delta, which
    the bound and the witness check enforce.  No other qubit is needed.
    The cross terms are real-linear in z = alpha0 alpha1*, so for z != 0
    the cross matrices of (b; Psi0, Psi1) are 2|z| times those of (|+>;
    Psi0, e^{-i arg z} Psi1).  That rephasing keeps Psi1's marginals,
    the overlap magnitude and every |slot|, and Psi1's slot phases
    already range over it: a pair masks some qubit with |alpha_i| >=
    delta iff it masks |+>.

    A pair whose certified bound (`_bound`, looked up through
    `_certificate`) is at or above the Infeasible floor is Infeasible,
    with that bound as ``best_residual``.  Every other pair has two
    supports it can take that are equal or partners, and no search
    runs: the first such pair in `_fitting_supports` order and its
    states from `_related_states`, looked up through `_related_supports`,
    give the witness, split onto the slots by `_split_slots` and
    accepted by `_verify_candidate`, which runs
    `conditions.masks_state` at b = |+>: Feasible needs every residual
    <= cfg.tol; it would be Inconclusive only if that check failed,
    which the tests rule out on every pair of ket multisets.
    ``cfg.restarts`` and ``cfg.seed`` play no part.  Of
    the 225 duplicate-free pairs that leaves 31 Feasible: the 15
    same-support pairs and the 16 violations of `support_theorem_scan`.
    The scan itself calls this on two of the 16, one per symmetry
    orbit, and re-verifies relabelled witnesses on the other 14.
    """
    certified = _certificate(p0.counts, p1.counts, cfg.delta, True)
    if certified is not None:
        return certified
    related = _related_supports(p0.counts, p1.counts)
    if related is None:
        # not reached: the bound certifies every pair without such supports
        return FeasibilityOutcome(FeasibilityStatus.INCONCLUSIVE, math.inf)
    s0, s1, psi0, psi1 = related
    z = np.array(_split_slots(p0, psi0, s0, cfg.delta)
                 + _split_slots(p1, psi1, s1, cfg.delta))
    return _full_check(p0, p1, z, cfg)


# ---------------------------------------------------------------------------
# fixture tables and the support scan
# ---------------------------------------------------------------------------

def fixture_path():
    return resources.files("qmask").joinpath("data/tables.fixture.json")


class FixtureError(ValueError):
    """The bundled verdict-table fixture is unreadable or malformed."""


def load_table_fixture() -> list[TableRow]:
    """Load and validate the bundled verdict tables; a missing file raises
    FileNotFoundError, any other fault FixtureError."""
    try:
        raw = json.loads(fixture_path().read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise
    except (OSError, ValueError) as exc:  # also not JSON, not UTF-8
        raise FixtureError(f"fixture file is corrupt: {exc}") from exc
    if not isinstance(raw, list):
        raise FixtureError("fixture file must hold a JSON array")
    rows: list[TableRow] = []
    counters: dict[int, int] = {}
    for entry in raw:
        try:
            table, p0, p1, expected = (entry[key] for key in (
                "table", "psi0_kets", "psi1_kets", "expected"))
        except (KeyError, TypeError) as exc:
            raise FixtureError(f"malformed fixture row {entry!r}") from exc
        # a JSON integer (never a bool), and lists of ket strings
        if (type(table) is not int or table not in TABLES
                or expected not in _EXPECTED.values()
                or not all(isinstance(kets, list)
                           and all(isinstance(k, str) for k in kets)
                           for kets in (p0, p1))):
            raise FixtureError(f"malformed fixture row {entry!r}")
        try:
            p0, p1 = _check_kets(p0), _check_kets(p1)
        except ValueError as exc:  # an unknown label or a bad length
            raise FixtureError(f"malformed fixture row {entry!r}: {exc}") \
                from exc
        counters[table] = counters.get(table, 0) + 1
        rows.append(TableRow(table, counters[table], p0, p1, expected))
    return rows


def reproduce_tables(tables, cfg: FeasibilityConfig) -> list[TableRowResult]:
    """Run the eq4 oracle on every bundled row of the given tables.

    Results keep fixture order; each carries the computed outcome so a
    disagreement always ships evidence (a witness for rows found
    Feasible, the certified bound for rows found Infeasible).
    """
    tables = list(tables)
    if not all(_is_integer(n) and n in TABLES for n in tables):
        raise ValueError(f"tables must be integers 1-4, got {tables!r}")
    return [TableRowResult(row=row, outcome=feasible_eq4(
                BasisPattern(row.psi0_kets), BasisPattern(row.psi1_kets), cfg))
            for row in load_table_fixture() if row.table in tables]


class _ScanStep(NamedTuple):
    """One open pair of the support scan: ``rep`` is None for the first
    pair of its symmetry orbit, which `feasible_full` decides; else it is
    the plan index of that first pair, and ``positions`` holds, for each
    slot of p0 then p1, the position in the representative's witness
    slots (coeffs0 + coeffs1) of the coefficient it carries."""

    p0: BasisPattern
    p1: BasisPattern
    rep: int | None = None
    positions: np.ndarray | None = None


@functools.cache
def _scan_plan(delta: float) -> tuple[_ScanStep, ...]:
    """The pairs `support_theorem_scan` decides, in scan order, built once
    per delta from `_certificate` and `_KET_MAPS` alone.

    Same-support pairs, which have equal ``counts`` here, and pairs with
    a certificate are left out: 16 pairs remain, in two orbits of eight
    under 16 maps, X_A, X_B and the qubit swap on both states times
    exchanging the states.  With no duplicate ket a map moves whole
    slots, so an image pair takes each slot coefficient of its orbit's
    first pair from one fixed position.  Of the maps that give the same
    image pair, the first in `_KET_MAPS` order, states in place before
    exchanged, sets the positions.  The positions are read-only.
    """
    plan, orbits = [], {}  # image pair's ket index sets -> (rep, m0, m1)
    for p0, p1 in itertools.product(_DUPLICATE_FREE, repeat=2):
        if (p0.counts == p1.counts
                or _certificate(p0.counts, p1.counts, delta, True)
                is not None):
            continue
        image = orbits.get((frozenset(p0.indices), frozenset(p1.indices)))
        if image is not None:
            rep, m0, m1 = image
            positions = np.array([m0[i] for i in p0.indices]
                                 + [m1[i] for i in p1.indices])
            positions.flags.writeable = False
            plan.append(_ScanStep(p0, p1, rep, positions))
            continue
        rep = len(plan)
        plan.append(_ScanStep(p0, p1))
        # each side's basis index -> the position of its slot
        sides = (dict(zip(p0.indices, range(len(p0)))),
                 dict(zip(p1.indices, range(len(p0), len(p0) + len(p1)))))
        for ket_map in _KET_MAPS:
            m0, m1 = ({ket_map[i]: j for i, j in side.items()}
                      for side in sides)
            orbits.setdefault((frozenset(m0), frozenset(m1)), (rep, m0, m1))
            orbits.setdefault((frozenset(m1), frozenset(m0)), (rep, m1, m0))
    return tuple(plan)


def support_theorem_scan(cfg: FeasibilityConfig) -> list[ScanViolation]:
    """Scan all ordered duplicate-free pattern pairs for counterexamples.

    A violation is a pair with differing ket-sets that is Feasible for
    the full masking system under the non-orthogonality constraint
    |<Psi0|Psi1>| >= delta, with a masked qubit of |alpha_i| >= delta
    (see `feasible_full`).  Same-support pairs cannot be violations, nor
    can pairs with a `_certificate` (a full-system `_bound` at or above
    the Infeasible floor); neither is decided.  The scan walks the 16 other
    pairs from `_scan_plan`, in scan order, two orbits of eight under 16
    maps that keep every `masks_state` residual at b = |+> and the
    overlap of a witness.  The first pair of each orbit is decided by
    `feasible_full`.  Every other one gets that witness's slots moved to
    the plan's positions, re-verified by `_verify_candidate` on its own
    pair and accepted at a residual <= cfg.tol with ``iterations`` 0.
    An image that fails the check, or whose first pair was not Feasible,
    sends its pair to `feasible_full` as well.  The plan, which depends
    only on delta, is kept once per delta; the outcomes are computed
    again on every call and not kept.
    """
    violations, outcomes = [], []
    for p0, p1, rep, positions in _scan_plan(cfg.delta):
        outcome = None
        witness = None if rep is None else outcomes[rep].witness
        if witness is not None:
            outcome = _full_check(p0, p1, np.array(
                witness.coeffs0 + witness.coeffs1)[positions], cfg)
            if outcome.status is not FeasibilityStatus.FEASIBLE:
                outcome = None
        if outcome is None:
            outcome = feasible_full(p0, p1, cfg)
        outcomes.append(outcome)
        if outcome.status is FeasibilityStatus.FEASIBLE:
            violations.append(ScanViolation(p0.kets, p1.kets, outcome))
    return violations
