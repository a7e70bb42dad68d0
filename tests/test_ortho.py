"""Split-support families, solution surfaces, and the masker unitary."""

import csv
import io
import math

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from qmask import ortho
from qmask.conditions import cross_term_matrix, masks_state
from qmask.qlinalg import QubitState, TwoQubitState

ATOL = 1e-12
SQRT_HALF = math.sqrt(0.5)

unit_disk = st.tuples(
    st.floats(min_value=-0.7, max_value=0.7),
    st.floats(min_value=-0.7, max_value=0.7),
    st.floats(min_value=-0.7, max_value=0.7),
).filter(lambda t: 1e-4 < t[0] ** 2 + t[1] ** 2 + t[2] ** 2 < 0.99)


# ---------------------------------------------------------------------------
# split-support line residuals
# ---------------------------------------------------------------------------

def test_eq9_zero_at_masking_qubit():
    b = QubitState(complex(0.2, -0.2), complex(0.0, -math.sqrt(23.0) / 5.0))
    assert max(ortho.eq9_residuals(ortho.EXAMPLE1_PAIR, b)) <= ATOL


def test_eq9_frozen_at_uniform_qubit():
    b = QubitState(SQRT_HALF, SQRT_HALF)
    np.testing.assert_allclose(
        ortho.eq9_residuals(ortho.EXAMPLE1_PAIR, b),
        (0.0, 1.0 / (2.0 * math.sqrt(2.0)), 1.0 / (2.0 * math.sqrt(2.0))),
        atol=ATOL)


def test_eq9_line1_tracks_coefficient_imbalance():
    p = ortho.OrthoPairParams(0.8, 0.6, SQRT_HALF, SQRT_HALF)
    b = QubitState(SQRT_HALF, SQRT_HALF)
    r = ortho.eq9_residuals(p, b)
    assert r[0] == pytest.approx(0.14, abs=ATOL)


def test_ortho_pair_params_rejects_non_unit_rows():
    with pytest.raises(ValueError):
        ortho.OrthoPairParams(1.0, 1.0, SQRT_HALF, SQRT_HALF)
    with pytest.raises(ValueError):  # |a0|^2 overflows to inf
        ortho.OrthoPairParams(1e200, 0.0, 1.0, 0.0)
    # an int above the float range: ValueError, never OverflowError
    for coeffs, row in (((10 ** 400, 0, 1, 0), r"\(a0, a1\)"),
                        ((1, 0, 0, -10 ** 400), r"\(b0, b1\)")):
        with pytest.raises(ValueError, match=row + " has an amplitude with "
                           "no complex128 value: int too large"):
            ortho.OrthoPairParams(*coeffs)


def test_ortho_pair_params_keeps_ordinary_inputs():
    p = ortho.OrthoPairParams(SQRT_HALF, SQRT_HALF * 1j, 1, 0)
    assert (p.a0, p.a1, p.b0, p.b1) == (SQRT_HALF, SQRT_HALF * 1j, 1, 0)
    assert type(p.b0) is int
    psi0, psi1 = p.states()
    assert psi0.vec.tolist() == [SQRT_HALF, 0.0, 0.0, SQRT_HALF * 1j]
    assert psi1.vec.tolist() == [0.0, 1.0, 0.0, 0.0]


# ---------------------------------------------------------------------------
# first surface: x0*x1 + y0*y1 + x0*y1 - x1*y0 = 0 on the unit sphere
# ---------------------------------------------------------------------------

def test_example1_point_validation():
    with pytest.raises(ValueError):
        ortho.Example1Point(0.9, 0.9, 0.0, "plus")   # radius > 1
    with pytest.raises(ValueError):
        ortho.Example1Point(0.1, 0.1, 0.1, "down")   # unknown branch
    with pytest.raises(ValueError):
        ortho.Example1Point(1e200, 0.0, 0.0, "plus")  # radius overflows
    with pytest.raises(ValueError):
        ortho.Example1Point(math.nan, 0.0, 0.0, "plus")  # radius is nan


def test_example1_point_qubit_is_unit():
    pt = ortho.Example1Point(0.3, -0.4, 0.5, "minus")
    b = pt.qubit()
    assert np.linalg.norm(b.vec) == pytest.approx(1.0, abs=ATOL)
    assert b.vec[1].imag == pytest.approx(pt.y1(), abs=ATOL)
    assert pt.y1() < 0.0
    pt = ortho.Example1Point(0.5, 0.5, 0.5, "plus")
    assert pt.y1() == pytest.approx(0.5, abs=ATOL)


@seed(21)
@settings(max_examples=100, deadline=None)
@given(t=unit_disk, branch=st.sampled_from(ortho.BRANCHES))
def test_surface_residual_equals_cross_norms(t, branch):
    # the scalar surface residual is exactly the Frobenius norm of both
    # cross matrices for the split-support pair
    pt = ortho.Example1Point(*t, branch)
    psi0, psi1 = ortho.EXAMPLE1_PAIR.states()
    r = abs(ortho._example1_value(pt.x0, pt.y0, pt.x1, abs(pt.y1()), branch))
    for s in "AB":
        norm = np.linalg.norm(cross_term_matrix(psi0, psi1, pt.qubit(), s))
        assert norm == pytest.approx(r, abs=1e-12)


def test_sample_example1_frozen_grid():
    pts = ortho.sample_example1(101, "minus", 1e-9)
    assert len(pts) == 191
    coords = {p.coordinates for p in pts}
    assert (0.2, -0.2, 0.0) in coords
    assert (-0.2, 0.2, 0.0) in coords
    # the sign-flipped triple is not on the surface
    assert (-0.2, -0.2, 0.0) not in coords
    assert all(p.branch == "minus" for p in pts)
    assert max(p.residual for p in pts) <= 1e-9


def _full_cube_points(val, keep, axis):
    return [((axis[i], axis[j], axis[k]), val[i, j, k])
            for i, j, k in np.argwhere(keep)]


def _sampled(points):
    return [(p.coordinates, p.residual) for p in points]


@pytest.mark.parametrize("tol", [1e-9, 1e-2])
@pytest.mark.parametrize("branch", ortho.BRANCHES)
def test_sample_example1_matches_full_cube(branch, tol):
    # the whole grid^3 cube at once, in lattice order, float for float
    axis = (np.arange(41) - 20.0) / 20.0
    x0, y0, x1 = np.ix_(axis, axis, axis)
    r2 = x0 ** 2 + y0 ** 2 + x1 ** 2
    valid = r2 <= 1.0
    s = np.sqrt(np.where(valid, 1.0 - r2, 0.0))
    if branch == "plus":
        val = abs(x0 * x1 + y0 * s + x0 * s - x1 * y0)
    else:
        val = abs(x0 * x1 - y0 * s - x0 * s - x1 * y0)
    expected = _full_cube_points(val, valid & (val <= tol), axis)
    assert len(expected) > 0
    assert _sampled(ortho.sample_example1(41, branch, tol)) == expected


@pytest.mark.parametrize("tol", [1e-10, 1e-2])
def test_sample_example2_matches_full_cube(tol):
    axis = (np.arange(41) - 20.0) / 20.0
    lam, x0, y0 = np.ix_(axis, axis, axis)
    val = abs((-x0 * x0 - y0 * y0 + 0.5) * lam / (1.0 + lam * lam))
    expected = _full_cube_points(val, val <= tol, axis)
    assert len(expected) > 41 * 41
    assert _sampled(ortho.sample_example2(41, tol)) == expected


def test_sampled_points_are_slotted_and_share_axis_floats():
    pts = ortho.sample_example2(41, 1e-10)
    assert not hasattr(pts[0], "__dict__")
    # every point holds the axis's own float objects, not copies
    axis = {id(c) for p in pts for c in p.coordinates}
    assert len(axis) <= 41


@pytest.mark.parametrize("grid_n", [2.5, 3.0, True, 1, 0, np.int64(1), "5"])
def test_samplers_reject_a_grid_that_is_not_an_integer_above_one(grid_n):
    # a fractional grid_n would build an axis leaving [-1, 1]
    for sample in (lambda: ortho.sample_example1(grid_n, "plus", 1e-9),
                   lambda: ortho.sample_example2(grid_n, 0.1)):
        with pytest.raises(ValueError,
                           match="grid_n must be an integer >= 2"):
            sample()


def test_samplers_take_a_numpy_integer_grid():
    assert ortho.sample_example2(np.int64(21), 1e-10) \
        == ortho.sample_example2(21, 1e-10)
    assert ortho.sample_example1(np.int64(21), "plus", 1e-9) \
        == ortho.sample_example1(21, "plus", 1e-9)


def test_sample_example1_rejects_bad_branch():
    with pytest.raises(ValueError):
        ortho.sample_example1(11, "sideways", 1e-9)


# ---------------------------------------------------------------------------
# second family: lambda-parameterized masked qubits
# ---------------------------------------------------------------------------

def test_eq13_zero_on_the_balanced_family():
    a0 = b0 = complex(0.5, 0.5)
    a1 = b1 = complex(SQRT_HALF, 0.0)
    assert max(ortho.eq13_residuals(a0, a1, b0, b1)) <= ATOL


def test_eq13_frozen_generic_values():
    coeffs = (complex(0.6, 0.2), complex(0.5, 0.5),
              complex(0.3, 0.4), complex(0.1, 0.7))
    np.testing.assert_allclose(
        ortho.eq13_residuals(*coeffs), (0.25, 0.14, 0.15, 0.48, 0.45),
        atol=1e-10)
    assert ortho.eq13_residuals(1e200, 0.0, 0.0, 0.0)[0] == math.inf


@pytest.mark.parametrize("sign", ["plus", "minus"])
def test_build_example2_states_mask_the_lambda_family(sign):
    psi0, psi1 = ortho.build_example2_states(0.5, 0.5, sign)
    for lam in (0.0, 0.37, -2.4):
        b = QubitState.normalized(1.0, 1j * lam)
        assert masks_state(b, psi0, psi1).verdict


def test_build_example2_states_requires_circle_point():
    with pytest.raises(ValueError):
        ortho.build_example2_states(0.6, 0.6, "plus")
    # x0^2 + y0^2 = 1/2 must hold to the states' unit-norm tolerance 1e-12
    for offset in (4e-10, 2e-9):
        with pytest.raises(ValueError):
            ortho.build_example2_states(math.sqrt(0.5 + offset), 0.0, "plus")
    for sign, w in (("plus", SQRT_HALF), ("minus", -SQRT_HALF)):
        psi0, psi1 = ortho.build_example2_states(math.sqrt(0.5), 0.0, sign)
        assert psi0.vec.tolist() == [SQRT_HALF, 0.0, 0.0, w]
        assert psi1.vec.tolist() == [0.0, SQRT_HALF, w, 0.0]


def test_example2_residual_frozen():
    assert ortho.example2_residual(1.0, 0.6, 0.0) == pytest.approx(0.07, abs=ATOL)
    assert ortho.example2_residual(0.5, 0.5, 0.5) <= ATOL
    assert ortho.example2_residual(0.0, 0.123, 0.456) <= ATOL  # lambda = 0


def test_sample_example2_small_grid_keeps_only_lambda_zero_plane():
    # on a 51-point axis no lattice point hits the circle exactly
    pts = ortho.sample_example2(51, 1e-10)
    assert len(pts) == 51 * 51
    assert all(p.coordinates[0] == 0.0 for p in pts)
    assert all(p.branch == "na" for p in pts)


# ---------------------------------------------------------------------------
# masker completion
# ---------------------------------------------------------------------------

def test_masker_frozen_for_split_support_pair():
    psi0, psi1 = ortho.EXAMPLE1_PAIR.states()
    F = ortho.complete_masker_unitary(psi0, psi1)
    s = SQRT_HALF
    expected = np.array([
        [s, s, 0.0, 0.0],
        [0.0, 0.0, s, s],
        [0.0, 0.0, s, -s],
        [1j * s, -1j * s, 0.0, 0.0],
    ])
    np.testing.assert_allclose(F, expected, atol=ATOL)


def test_masker_columns_and_unitarity():
    psi0 = TwoQubitState.unit([1.0, 2.0j, 0.0, -1.0])
    psi1 = TwoQubitState.unit([2.0j, 1.0, 0.0, 0.0])
    assert abs(np.vdot(psi0.vec, psi1.vec)) <= ATOL
    F = ortho.complete_masker_unitary(psi0, psi1)
    assert np.linalg.norm(F.conj().T @ F - np.eye(4)) <= ATOL
    np.testing.assert_allclose(F[:, 0], psi0.vec, atol=ATOL)
    np.testing.assert_allclose(F[:, 2], psi1.vec, atol=ATOL)


def test_masker_rejects_non_orthogonal_pair():
    psi0 = TwoQubitState.unit([1.0, 0.0, 0.0, 1.0])
    with pytest.raises(ValueError):
        ortho.complete_masker_unitary(psi0, psi0)


@pytest.mark.parametrize("norm2, overlap, accepted", [
    (1.0, 1e-10, False), (1.0, 7.5e-13, False), (1.0, 4e-13, True),
    (1.0 + 0.99e-12, 4e-13, False), (1.0 + 0.99e-12, 0.0, True)])
def test_masker_returns_only_unitary_completions(norm2, overlap, accepted):
    # F holds both states as columns, so ||F^dagger F - I|| is about
    # sqrt(2) |<Psi0|Psi1>| plus Psi0's norm error
    psi0 = TwoQubitState([math.sqrt(norm2), 0.0, 0.0, 0.0])
    psi1 = TwoQubitState.unit([overlap, 1.0, 0.0, 0.0])
    if not accepted:
        with pytest.raises(ValueError, match="no unitary completion"):
            ortho.complete_masker_unitary(psi0, psi1)
        return
    F = ortho.complete_masker_unitary(psi0, psi1)
    assert np.linalg.norm(F.conj().T @ F - np.eye(4)) <= 1e-12
    np.testing.assert_array_equal(F[:, [0, 2]], np.c_[psi0.vec, psi1.vec])


# ---------------------------------------------------------------------------
# CSV export
# ---------------------------------------------------------------------------

def test_write_surface_csv_round_trip(tmp_path):
    pts = ortho.sample_example1(21, "plus", 1e-9)
    path = tmp_path / "surface.csv"
    ortho.write_surface_csv(pts, str(path))
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert tuple(rows[0]) == ortho.SURFACE_CSV_HEADER
    assert len(rows) == len(pts) + 1
    x0, y0, x1, res, branch = rows[1]
    assert branch == "plus"
    assert (float(x0), float(y0), float(x1)) == pts[0].coordinates
    assert float(res) == pts[0].residual


def test_write_surface_csv_accepts_file_object():
    pts = ortho.sample_example1(11, "plus", 1e-9)
    buf = io.StringIO()
    ortho.write_surface_csv(pts, buf)
    first = buf.getvalue().splitlines()[0]
    assert first == ",".join(ortho.SURFACE_CSV_HEADER)
