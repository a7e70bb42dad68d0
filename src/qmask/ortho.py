"""The orthogonal split-support specialization and its solution surfaces.

For pairs of the form ``Psi0 = a0|00> + a1|11>`` and
``Psi1 = b0|01> + b1|10>`` the masking system reduces to three lines
(numbered eq9 here):

1. ``|a0|^2 = |a1|^2 = |b0|^2 = |b1|^2 = 1/2``,
2. ``alpha0 alpha1* a0 b0* + alpha0* alpha1 a1* b1 = 0``,
3. ``alpha0 alpha1* a0 b1* + alpha0* alpha1 a1* b0 = 0``.

Two worked families ("example 1" and "example 2") fix one side of the
problem and sample the residual zero set of the other side over a cube,
emitting CSV point clouds.  ``complete_masker_unitary`` extends an
orthogonal pair to the full 4x4 unitary that realizes the hiding map.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .conditions import _check_tol
from .qlinalg import NORM_TOL, QubitState, TwoQubitState

#: branch labels for the eliminated sign in the example-1 parameterization
BRANCHES = ("plus", "minus")

#: header used by every surface CSV
SURFACE_CSV_HEADER = ("coord1", "coord2", "coord3", "residual", "branch")

SQRT_HALF = math.sqrt(0.5)


@dataclass(frozen=True)
class OrthoPairParams:
    """Coefficients of the split-support pair a0|00>+a1|11>, b0|01>+b1|10>."""

    a0: complex
    a1: complex
    b0: complex
    b1: complex

    def __post_init__(self):
        for (u, v), what in (((self.a0, self.a1), "a"),
                             ((self.b0, self.b1), "b")):
            # x * x, not x ** 2: a huge amplitude gives inf, not OverflowError
            n2 = abs(u) * abs(u) + abs(v) * abs(v)
            if not abs(n2 - 1.0) <= NORM_TOL:  # also rejects nan and inf
                raise ValueError(
                    f"|{what}0|^2 + |{what}1|^2 = {n2!r}, expected 1")

    def states(self) -> tuple[TwoQubitState, TwoQubitState]:
        psi0 = TwoQubitState([self.a0, 0.0, 0.0, self.a1])
        psi1 = TwoQubitState([0.0, self.b0, self.b1, 0.0])
        return psi0, psi1


@dataclass(frozen=True)
class Example1Point:
    """A point of the example-1 parameter cube.

    ``alpha0 = x0 + y0 i`` and ``alpha1 = x1 + y1 i`` with
    ``y1 = +-sqrt(1 - (x0^2 + y0^2 + x1^2))``; ``branch`` picks the sign.
    """

    x0: float
    y0: float
    x1: float
    branch: str

    def __post_init__(self):
        if self.branch not in BRANCHES:
            raise ValueError(f"branch must be one of {BRANCHES}")
        if not self.radius2() <= 1.0:  # also rejects nan
            raise ValueError(
                f"x0^2 + y0^2 + x1^2 = {self.radius2()!r} is not <= 1: "
                "outside the square-root domain")

    def radius2(self) -> float:
        return self.x0 * self.x0 + self.y0 * self.y0 + self.x1 * self.x1

    def y1(self) -> float:
        root = math.sqrt(1.0 - self.radius2())
        return root if self.branch == "plus" else -root

    def qubit(self) -> QubitState:
        return QubitState(complex(self.x0, self.y0),
                          complex(self.x1, self.y1()))


@dataclass(frozen=True)
class SurfacePoint:
    """One kept lattice point of a sampled residual zero set."""

    coordinates: tuple[float, float, float]
    residual: float
    branch: str


# ---------------------------------------------------------------------------
# eq9 and example 1
# ---------------------------------------------------------------------------

def eq9_residuals(p: OrthoPairParams, b: QubitState,
                  ) -> tuple[float, float, float]:
    """Residuals of the three eq9 lines.

    Line 1 is ``max_i ||c_i|^2 - 1/2|`` over the four coefficients;
    lines 2 and 3 are the magnitudes of the two cross scalars.
    """
    line1 = max(abs(abs(c) ** 2 - 0.5) for c in (p.a0, p.a1, p.b0, p.b1))
    z = b.alpha0 * b.alpha1.conjugate()
    zc = z.conjugate()
    line2 = abs(z * p.a0 * p.b0.conjugate()
                + zc * p.a1.conjugate() * p.b1)
    line3 = abs(z * p.a0 * p.b1.conjugate()
                + zc * p.a1.conjugate() * p.b0)
    return line1, line2, line3


#: the fixed pair used by the example-1 surface
EXAMPLE1_PAIR = OrthoPairParams(SQRT_HALF, SQRT_HALF * 1j,
                                SQRT_HALF, SQRT_HALF)


def example1_residual(pt: Example1Point) -> float:
    """|value| of the example-1 surface equation at ``pt``.

    With ``s = sqrt(1 - (x0^2 + y0^2 + x1^2))`` the equation reads
    ``x0 x1 + y0 s + x0 s - x1 y0 = 0`` on the plus branch and
    ``x0 x1 - y0 s - x0 s - x1 y0 = 0`` on the minus branch; these are
    the two sign resolutions of the phase condition (eq9 lines 2-3 for
    the fixed pair, called eq10/eq11/eq12 internally).
    """
    s = math.sqrt(1.0 - pt.radius2())
    return abs(_example1_value(pt.x0, pt.y0, pt.x1, s, pt.branch))


def _example1_value(x0, y0, x1, s, branch: str):
    """Left side of the example-1 equation; floats or broadcast arrays."""
    if branch == "plus":
        return x0 * x1 + y0 * s + x0 * s - x1 * y0
    return x0 * x1 - y0 * s - x0 * s - x1 * y0


def sample_example1(grid_n: int, branch: str, tol: float,
                    ) -> list[SurfacePoint]:
    """Scan the (x0, y0, x1) cube [-1,1]^3 on a grid_n^3 lattice.

    Keeps domain-valid points whose example-1 residual is <= tol, in
    lattice order (x0 outermost, x1 innermost).  Raises ``ValueError``
    unless ``0 < tol < inf``, as ``masks_state`` does.
    """
    if branch not in BRANCHES:
        raise ValueError(f"branch must be one of {BRANCHES}")

    def residual(x0, y0, x1):  # nan (never kept) outside the domain
        r2 = x0 ** 2 + y0 ** 2 + x1 ** 2
        valid = r2 <= 1.0
        s = np.sqrt(np.where(valid, 1.0 - r2, 0.0))
        val = abs(_example1_value(x0, y0, x1, s, branch))
        return np.where(valid, val, np.nan)

    return _lattice_points(grid_n, residual, tol, branch)


# ---------------------------------------------------------------------------
# example 2
# ---------------------------------------------------------------------------

def example2_qubit(lam: float) -> QubitState:
    """The masked qubit of the example-2 family for parameter lam."""
    d = math.sqrt(1.0 + lam * lam)
    return QubitState(1.0 / d, complex(0.0, lam / d))


def eq13_residuals(a0: complex, a1: complex, b0: complex, b1: complex,
                   ) -> tuple[float, ...]:
    """The five eq13 lines for ``a0 = x0 + y0 i``, ..., ``b1 = x3 + y3 i``.

    Evaluated verbatim as absolute residuals; for lam != 0 they do not
    depend on the masked qubit's parameter lam.
    """
    x0, y0, x1, y1, x2, y2, x3, y3 = (
        t for c in map(complex, (a0, a1, b0, b1)) for t in (c.real, c.imag))
    line1 = max(abs(x * x + y * y - 0.5)
                for x, y in ((x0, y0), (x1, y1), (x2, y2), (x3, y3)))
    return (
        line1,
        abs(-x0 * x2 + x3 * x1 - y0 * y2 + y3 * y1),
        abs(-x0 * x3 + x2 * x1 - y0 * y3 + y2 * y1),
        abs(-x0 * y2 + x2 * y0 + x3 * y1 - x1 * y3),
        abs(x3 * y0 - x0 * y3 + x2 * y1 - x1 * y2),
    )


def build_example2_states(x0: float, y0: float, sign: str,
                          ) -> tuple[TwoQubitState, TwoQubitState]:
    """The example-2 solution pair for a point on the circle x0^2+y0^2=1/2.

    Returns ``Psi0 = (x0+y0 i)|00> +- (1/sqrt2)|11>`` and
    ``Psi1 = (x0+y0 i)|01> +- (1/sqrt2)|10>`` (sign "plus"/"minus").
    Raises ``ValueError`` unless x0^2 + y0^2 = 1/2 to the states'
    unit-norm tolerance ``NORM_TOL`` (1e-12).
    """
    if sign not in BRANCHES:
        raise ValueError(f"sign must be one of {BRANCHES}")
    c = complex(x0, y0)
    w = SQRT_HALF if sign == "plus" else -SQRT_HALF
    return OrthoPairParams(c, w, c, w).states()


def example2_residual(lam, x0, y0):
    """|(-x0^2 - y0^2 + 1/2) * lam / (1 + lam^2)| (the eq17 residual).

    Zero iff lam = 0 or x0^2 + y0^2 = 1/2.  Takes floats or broadcast
    arrays.
    """
    return abs((-x0 * x0 - y0 * y0 + 0.5) * lam / (1.0 + lam * lam))


def sample_example2(grid_n: int, tol: float) -> list[SurfacePoint]:
    """Scan (lam, x0, y0) over [-1,1]^3, keeping eq17 residuals <= tol.

    Raises ``ValueError`` unless ``0 < tol < inf``.
    """
    return _lattice_points(grid_n, example2_residual, tol, "na")


def _axis(grid_n: int) -> np.ndarray:
    # (k - m)/m for k = 0..2m (odd grid_n) keeps 0 and +-0.5 exact in
    # binary; fall back to linspace spacing for even counts.
    if grid_n < 2:
        raise ValueError(f"grid_n must be >= 2, got {grid_n}")
    half = (grid_n - 1) / 2.0
    return (np.arange(grid_n) - half) / half


def _lattice_points(grid_n: int, residual, tol: float,
                    branch: str) -> list[SurfacePoint]:
    """The points of a grid_n^3 cube scan with residual <= tol, in order.

    ``residual(u, v, w)`` gets the broadcast axes of one slab of the
    outermost coordinate (shapes (1,), (n, 1), (1, n)) and returns its
    (n, n) residuals.  One slab at a time keeps memory at grid_n^2
    floats, with the same elementwise arithmetic as the whole cube.
    """
    _check_tol(tol)
    axis = _axis(grid_n)
    v, w = np.ix_(axis, axis)
    points = []
    for i in range(grid_n):
        u = axis[i:i + 1]
        val = residual(u, v, w)
        j, k = np.nonzero(val <= tol)
        points += [SurfacePoint((float(u[0]), y, z), r, branch)
                   for y, z, r in zip(axis[j].tolist(), axis[k].tolist(),
                                      val[j, k].tolist())]
    return points


# ---------------------------------------------------------------------------
# masker completion and CSV output
# ---------------------------------------------------------------------------

def complete_masker_unitary(psi0: TwoQubitState, psi1: TwoQubitState,
                            ) -> np.ndarray:
    """A 4x4 unitary F with F e0 = Psi0 and F e2 = Psi1.

    e0 = |0>|0> and e2 = |1>|0> are the input-side product states; the
    remaining two columns are filled by Gram-Schmidt over the canonical
    basis vectors in fixed order (rejection threshold 1e-8), making the
    completion deterministic.  Raises ``ValueError`` unless
    ||F^dagger F - I||_F <= NORM_TOL; as that norm is about sqrt(2)
    |<Psi0|Psi1>|, this needs |<Psi0|Psi1>| below about 7e-13.
    """
    cols = [psi0.vec, psi1.vec]
    for k in range(4):
        cand = np.zeros(4, dtype=np.complex128)
        cand[k] = 1.0
        for c in cols:
            cand = cand - c * np.vdot(c, cand)
        n = float(np.linalg.norm(cand))
        if n > 1e-8:
            cols.append(cand / n)
        if len(cols) == 4:  # e0..e3 span C^4, so the loop always gets here
            break
    F = np.column_stack([cols[0], cols[2], cols[1], cols[3]])
    if not np.linalg.norm(F.conj().T @ F - np.eye(4)) <= NORM_TOL:
        ov = complex(np.vdot(psi0.vec, psi1.vec))
        raise ValueError(f"no unitary completion: <Psi0|Psi1> = {ov!r}")
    return F


def write_surface_csv(points: list[SurfacePoint], path_or_file) -> None:
    """Write sampled points to CSV with the fixed surface header.

    Accepts a filesystem path or any object with a ``write`` method.
    Floats are written with ``repr`` (shortest round-trip form).
    """
    if hasattr(path_or_file, "write"):
        _write_surface_rows(points, path_or_file)
    else:
        with open(path_or_file, "w", newline="") as fh:
            _write_surface_rows(points, fh)


def _write_surface_rows(points: list[SurfacePoint], fh) -> None:
    writer = csv.writer(fh, lineterminator="\n")
    writer.writerow(SURFACE_CSV_HEADER)
    for p in points:
        writer.writerow([repr(c) for c in p.coordinates]
                        + [repr(p.residual), p.branch])
