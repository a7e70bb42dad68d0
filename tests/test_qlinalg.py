"""State containers and partial-trace primitives."""

import math
import unittest

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from qmask.qlinalg import (
    QubitState,
    TwoQubitState,
    basis_ket,
    frob_dist,
    is_unitary,
    outer,
    ptrace_A,
    ptrace_B,
)

ATOL = 1e-12
HALF_I = np.eye(2) / 2.0

complex_amp = st.complex_numbers(
    min_magnitude=0.0, max_magnitude=3.0, allow_nan=False, allow_infinity=False
)
vec4 = arrays(np.complex128, (4,), elements=complex_amp).filter(
    lambda v: np.linalg.norm(v) > 1e-6
)


def unit4(v: np.ndarray) -> TwoQubitState:
    return TwoQubitState.unit(v)


# ---------------------------------------------------------------------------
# containers
# ---------------------------------------------------------------------------

class TestContainers(unittest.TestCase):
    def test_qubit_normalized_scales(self):
        b = QubitState.normalized(3.0, 4.0j)
        np.testing.assert_allclose(b.vec, [0.6, 0.8j], atol=ATOL)

    def test_qubit_rejects_zero_vector(self):
        with self.assertRaises(ValueError):
            QubitState.normalized(0.0, 0.0)

    def test_qubit_rejects_non_unit(self):
        with self.assertRaises(ValueError):
            QubitState(1.0, 1.0)

    def test_qubit_rejects_non_finite(self):
        with self.assertRaises(ValueError):
            QubitState(math.nan, 1.0)
        with self.assertRaises(ValueError):
            QubitState.normalized(math.inf, 0.0)
        with self.assertRaises(ValueError):
            QubitState.normalized(complex(0.0, math.nan), 1.0)

    def test_two_qubit_unit_normalizes(self):
        s = TwoQubitState.unit([2.0, 0.0, 0.0, 2.0j])
        self.assertAlmostEqual(s.norm(), 1.0, places=14)
        np.testing.assert_allclose(s.vec, [math.sqrt(0.5), 0, 0, math.sqrt(0.5) * 1j])

    def test_two_qubit_rejects_non_unit_when_normalized(self):
        with self.assertRaises(ValueError):
            TwoQubitState.from_vec([1.0, 1.0, 0.0, 0.0])

    def test_two_qubit_from_vec_unnormalized_keeps_norm(self):
        s = TwoQubitState.from_vec([1.0, 1.0, 0.0, 0.0], normalized=False)
        self.assertAlmostEqual(s.norm(), math.sqrt(2.0), places=14)

    def test_two_qubit_vec_is_a_read_only_copy(self):
        v = np.array([1.0, 0.0, 0.0, 0.0], dtype=np.complex128)
        s = TwoQubitState.from_vec(v)
        v[0] = 0.0
        self.assertEqual(s.vec[0], 1.0)
        with self.assertRaises(ValueError):
            s.vec[0] = 0

    def test_two_qubit_rejects_non_finite(self):
        with self.assertRaises(ValueError):
            TwoQubitState.unit([np.inf, 0.0, 0.0, 0.0])

    def test_mat_layout_row_is_first_qubit(self):
        # amplitude of |10> must land at mat[1, 0]
        s = basis_ket("10")
        np.testing.assert_allclose(s.mat, [[0.0, 0.0], [1.0, 0.0]], atol=ATOL)

    def test_basis_ket_rejects_bad_label(self):
        with self.assertRaises(ValueError):
            basis_ket("02")


# ---------------------------------------------------------------------------
# partial traces: frozen small cases
# ---------------------------------------------------------------------------

def test_bell_state_marginals_are_maximally_mixed():
    phi_plus = TwoQubitState.unit([1.0, 0.0, 0.0, 1.0])
    rho = outer(phi_plus, phi_plus)
    np.testing.assert_allclose(ptrace_A(rho), HALF_I, atol=ATOL)
    np.testing.assert_allclose(ptrace_B(rho), HALF_I, atol=ATOL)


def test_product_ket_marginals_are_pure():
    rho = outer(basis_ket("10"), basis_ket("10"))
    np.testing.assert_allclose(ptrace_B(rho), [[0.0, 0.0], [0.0, 1.0]], atol=ATOL)
    np.testing.assert_allclose(ptrace_A(rho), [[1.0, 0.0], [0.0, 0.0]], atol=ATOL)


def test_cross_outer_partial_traces_match_matrix_products():
    # Tr_B(|u><v|) = M_u M_v^dag and Tr_A(|u><v|) = M_u^T conj(M_v)
    u = TwoQubitState.unit([1.0, 2.0j, -1.0, 0.5])
    v = TwoQubitState.unit([0.5, 0.0, 1.0j, -2.0])
    rho = outer(u, v)
    np.testing.assert_allclose(ptrace_B(rho), u.mat @ v.mat.conj().T, atol=ATOL)
    np.testing.assert_allclose(ptrace_A(rho), u.mat.T @ v.mat.conj(), atol=ATOL)


def test_frob_dist_of_pauli_pair():
    sx = np.array([[0.0, 1.0], [1.0, 0.0]])
    sz = np.array([[1.0, 0.0], [0.0, -1.0]])
    assert frob_dist(sx, sz) == pytest.approx(2.0, abs=ATOL)
    assert frob_dist(sx, sx) == 0.0


def test_is_unitary():
    h = np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2.0)
    assert is_unitary(np.kron(h, h))
    assert not is_unitary(np.diag([1.0, 1.0, 1.0, 0.5]))


# ---------------------------------------------------------------------------
# partial traces: properties
# ---------------------------------------------------------------------------

@seed(7)
@settings(max_examples=80, deadline=None)
@given(u=vec4, v=vec4)
def test_ptrace_preserves_trace_and_adjoint(u, v):
    rho = outer(unit4(u), unit4(v))
    for pt in (ptrace_A, ptrace_B):
        red = pt(rho)
        assert np.trace(red) == pytest.approx(np.trace(rho), abs=1e-10)
        np.testing.assert_allclose(
            pt(rho.conj().T), red.conj().T, atol=1e-10
        )


@seed(8)
@settings(max_examples=80, deadline=None)
@given(u=vec4, v=vec4, a=complex_amp, b=complex_amp)
def test_ptrace_is_linear(u, v, a, b):
    M = a * outer(unit4(u), unit4(u)) + b * outer(unit4(v), unit4(v))
    for pt in (ptrace_A, ptrace_B):
        np.testing.assert_allclose(
            pt(M),
            a * pt(outer(unit4(u), unit4(u))) + b * pt(outer(unit4(v), unit4(v))),
            atol=1e-10,
        )


@seed(9)
@settings(max_examples=80, deadline=None)
@given(u=vec4)
def test_pure_state_marginals_are_density_matrices(u):
    rho = outer(unit4(u), unit4(u))
    for pt in (ptrace_A, ptrace_B):
        red = pt(rho)
        np.testing.assert_allclose(red, red.conj().T, atol=1e-12)
        assert np.trace(red).real == pytest.approx(1.0, abs=1e-12)
        evals = np.linalg.eigvalsh(red)
        assert evals.min() >= -1e-12


@seed(10)
@settings(max_examples=80, deadline=None)
@given(u=vec4, v=vec4)
def test_cross_ptrace_agrees_with_slot_matrices(u, v):
    su, sv = unit4(u), unit4(v)
    rho = outer(su, sv)
    np.testing.assert_allclose(ptrace_B(rho), su.mat @ sv.mat.conj().T, atol=1e-12)
    np.testing.assert_allclose(ptrace_A(rho), su.mat.T @ sv.mat.conj(), atol=1e-12)
