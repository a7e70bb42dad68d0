"""State containers, and the partial traces behind the test oracle."""

import math
import unittest

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from qmask.qlinalg import (
    NORM_TOL,
    QubitState,
    TwoQubitState,
    _norm,
    _unit_state,
)

from oracle import (
    basis_ket,
    frob_dist,
    normalized_reference,
    outer,
    ptrace_A,
    ptrace_B,
    unit_reference,
)

ATOL = 1e-12
SQRT_HALF = math.sqrt(0.5)
HALF_I = np.eye(2) / 2.0
NON_FINITE = (math.nan, math.inf, -math.inf, complex(math.inf, math.nan))

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
        for bad in NON_FINITE:
            with self.assertRaises(ValueError):
                QubitState(bad, 0.0)
            with self.assertRaises(ValueError):
                QubitState(bad, 1.0)
            with self.assertRaises(ValueError):
                QubitState.normalized(bad, 0.0)
        with self.assertRaises(ValueError):
            QubitState.normalized(complex(0.0, math.nan), 1.0)
        with self.assertRaises(ValueError):  # |alpha0|^2 overflows to inf
            QubitState(1e200, 0.0)

    def test_two_qubit_unit_normalizes(self):
        s = TwoQubitState.unit([2.0, 0.0, 0.0, 2.0j])
        self.assertAlmostEqual(np.linalg.norm(s.vec), 1.0, places=14)
        np.testing.assert_allclose(s.vec, [math.sqrt(0.5), 0, 0, math.sqrt(0.5) * 1j])

    def test_two_qubit_rejects_non_unit_when_normalized(self):
        with self.assertRaises(ValueError):
            TwoQubitState.from_vec([1.0, 1.0, 0.0, 0.0])

    def test_two_qubit_vec_is_a_read_only_copy(self):
        v = np.array([1.0, 0.0, 0.0, 0.0], dtype=np.complex128)
        s = TwoQubitState.from_vec(v)
        v[0] = 0.0
        self.assertEqual(s.vec[0], 1.0)
        with self.assertRaises(ValueError):
            s.vec[0] = 0

    def test_two_qubit_rejects_non_finite(self):
        for bad in NON_FINITE:
            with self.assertRaises(ValueError):
                TwoQubitState([bad, 0.0, 0.0, 0.0])
            with self.assertRaises(ValueError):
                TwoQubitState([bad, 1.0, 0.0, 0.0])
            with self.assertRaises(ValueError):
                TwoQubitState.unit([bad, 0.0, 0.0, 0.0])


# ---------------------------------------------------------------------------
# the rescaling constructors
# ---------------------------------------------------------------------------

def _seeded_vectors(rng, n: int) -> np.ndarray:
    """Gaussian 4-vectors over six decades, some kets zeroed."""
    vecs = rng.standard_normal((n, 4)) + 1j * rng.standard_normal((n, 4))
    vecs *= 10.0 ** rng.uniform(-3.0, 3.0, (n, 1))
    vecs[rng.uniform(size=(n, 4)) < 0.25] = 0.0
    return vecs[np.abs(vecs).max(axis=1) > 0.0]


def test_unit_divides_by_the_numpy_norm_bit_for_bit():
    vecs = _seeded_vectors(np.random.default_rng(2020), 12_000)
    assert len(vecs) >= 10_000
    for k, v in enumerate(vecs):
        vec = v if k % 3 else v.tolist()  # arrays and lists of complex
        assert (TwoQubitState.unit(vec).vec.tobytes()
                == unit_reference(v).tobytes())


def test_unit_state_of_a_taken_norm_is_unit_bit_for_bit():
    # largest moduli from 2^-511 to 2^510, across both ends of the band
    # [2^-509, 2^509] of norms divided at once, where unit prescales or
    # not by the moduli sum: the state of a vector and its _norm is unit's,
    # and inside the band the norm returned is the one passed in
    vecs = _seeded_vectors(np.random.default_rng(2023), 400)
    for v in vecs / np.abs(vecs).max(axis=1, keepdims=True):
        for e in (-511, -510, -509, -508, 0, 508, 509, 510):
            w = v * 2.0 ** e
            n = _norm(w)
            state, norm = _unit_state(w, n)
            assert state.vec.tobytes() == TwoQubitState.unit(w).vec.tobytes()
            if 2.0 ** -509 <= n <= 2.0 ** 509:
                assert norm.hex() == n.hex()


def test_normalized_divides_by_the_hypot_norm_bit_for_bit():
    rng = np.random.default_rng(2021)
    for a0, a1 in _seeded_vectors(rng, 4000)[:, :2]:
        if a0 == 0.0 and a1 == 0.0:
            continue
        b = QubitState.normalized(a0, a1)
        assert (b.alpha0, b.alpha1) == normalized_reference(a0, a1)
        assert type(b.alpha0) is type(b.alpha1) is complex


def test_unit_vec_is_read_only_and_its_own():
    v = np.array([1.0, 2.0j, 0.0, -2.0])
    s = TwoQubitState.unit(v)
    before = s.vec.tobytes()
    v[:] = 7.0
    assert s.vec.tobytes() == before
    assert not s.vec.flags.writeable
    with pytest.raises(ValueError):
        s.vec[0] = 0
    w = np.array([1.0, 0.0, 0.0, 0.0], dtype=np.complex128)
    s = TwoQubitState.unit(w)  # already unit: still a copy
    w[0] = 0.0
    assert s.vec[0] == 1.0


@pytest.mark.parametrize("vec, expected", [
    ([1e200, 0.0, 0.0, 0.0], [1.0, 0.0, 0.0, 0.0]),  # |c|^2 overflows
    ([1e-200, 0.0, 0.0, 0.0], [1.0, 0.0, 0.0, 0.0]),  # |c|^2 underflows
    ([1e-160, 1e-160, 0.0, 0.0],                       # |c|^2 is subnormal
     [math.sqrt(0.5), math.sqrt(0.5), 0.0, 0.0]),
    ([complex(1.5e308, 1.5e308), 0.0, 0.0, 0.0],        # |c| overflows
     [complex(math.sqrt(0.5), math.sqrt(0.5)), 0.0, 0.0, 0.0]),
    ([5e-324, 0.0, 0.0, 0.0], [1.0, 0.0, 0.0, 0.0]),  # 1 / c overflows
])
def test_unit_normalizes_finite_vectors_of_any_magnitude(vec, expected):
    # the suite turns NumPy's overflow warning into an error
    np.testing.assert_allclose(TwoQubitState.unit(vec).vec, expected,
                               rtol=1e-15, atol=0.0)


def test_unit_is_unit_across_the_float_range():
    rng = np.random.default_rng(2022)
    parts = rng.standard_normal((2000, 8)) * 10.0 ** rng.integers(
        -320, 308, (2000, 8))
    for p in parts:
        v = p[:4] + 1j * p[4:]
        if not v.any():
            continue
        s = TwoQubitState.unit(v)
        assert abs(float(np.vdot(s.vec, s.vec).real) - 1.0) <= NORM_TOL


@pytest.mark.parametrize("vec, norm", [
    ([0.0, 0.0, 0.0, 0.0], "0.0"),
    ([math.nan, 0.0, 0.0, 0.0], "nan"),
    ([math.inf, 0.0, 0.0, 0.0], "inf"),
    ([complex(math.inf, math.nan), 0.0, 0.0, 0.0], "nan"),
    ([1.0, math.nan, 1e200, 0.0], "nan"),
    ([1.0, math.inf, 1e200, 0.0], "inf"),
])
def test_unit_rejects_zero_and_non_finite_with_the_numpy_norm(vec, norm):
    v = np.array(vec, dtype=np.complex128)
    with pytest.raises(ValueError) as err:
        TwoQubitState.unit(vec)
    assert str(err.value) == f"cannot normalize {v!r}: norm {norm}"


@pytest.mark.parametrize("alpha", [
    (5e-324, 0.0), (1e-320, 1e-320j), (3e-310, -4e-310), (1e-300, 1e-320)])
def test_normalized_never_returns_a_non_unit_pair(alpha):
    # a subnormal norm keeps as few as 11 significant bits: the pair is
    # prescaled instead of divided by it
    b = QubitState.normalized(*alpha)
    assert abs(abs(b.alpha0) ** 2 + abs(b.alpha1) ** 2 - 1.0) <= NORM_TOL


@pytest.mark.parametrize("alpha, expected", [
    ((1e-320, 1e-320j), (SQRT_HALF, SQRT_HALF * 1j)),   # subnormal norm
    ((complex(1.5e308, 1.5e308), 0.0),                  # |alpha0| overflows
     (complex(SQRT_HALF, SQRT_HALF), 0.0)),
    ((1e200, -1e200j), (SQRT_HALF, -SQRT_HALF * 1j)),   # the norm overflows
    ((5e-324, 0.0), (1.0, 0.0)),                        # 1 / norm overflows
    # the example-2 qubit (1, i lam) where lam^2 overflows
    *(pytest.param((1.0, 1j * lam),
                   (1.0 / abs(lam), complex(0.0, math.copysign(1.0, lam))),
                   id=f"example2-lam={lam:g}")
      for lam in (1e155, 1e200, -1e200, 1.7e308)),
])
def test_normalized_normalizes_finite_pairs_of_any_magnitude(alpha,
                                                             expected):
    b = QubitState.normalized(*alpha)
    np.testing.assert_allclose(b.vec, expected, rtol=1e-15, atol=0.0)
    assert abs(abs(b.alpha0) ** 2 + abs(b.alpha1) ** 2 - 1.0) <= NORM_TOL
    assert type(b.alpha0) is type(b.alpha1) is complex


@pytest.mark.parametrize("alpha", [
    (0.0, 0.0), (0j, -0.0), (math.inf, 0.0), (1.0, complex(0.0, -math.inf)),
    (math.nan, 0.0), (1.0, complex(0.0, math.nan)), (0.0, math.nan),
    (complex(math.inf, math.nan), 1.0), (complex(1e308, 1e308), math.inf),
    (complex(1.5e308, 1.5e308), math.nan), (10 ** 400, 0), (1, -10 ** 400)])
def test_normalized_rejects_zero_and_non_finite_pairs(alpha):
    # never an OverflowError, also where |alpha0| is above the float range
    # or an int has no float value
    with pytest.raises(ValueError, match="cannot normalize"):
        QubitState.normalized(*alpha)


@pytest.mark.parametrize("vec", [[10 ** 400, 0, 0, 0], (0, 1j, -10 ** 400, 0)])
def test_unit_rejects_ints_above_the_float_range(vec):
    with pytest.raises(ValueError, match="cannot normalize: int too large"):
        TwoQubitState.unit(vec)


@pytest.mark.parametrize("make, args, what", [
    (QubitState, (10 ** 400, 0), "qubit state"),
    (QubitState, (1j, -10 ** 400), "qubit state"),
    (TwoQubitState, ([10 ** 400, 0, 0, 0],), "two-qubit state"),
    (TwoQubitState.from_vec, ((0, 1, 0, 10 ** 400),), "two-qubit state"),
], ids=["qubit-alpha0", "qubit-alpha1", "two-qubit", "two-qubit-from-vec"])
def test_constructors_reject_ints_above_the_float_range(make, args, what):
    # a ValueError, never an OverflowError, as from normalized and unit;
    # the constructors check a norm, so the message names the amplitude
    # that failed, not a normalization
    with pytest.raises(ValueError) as err:
        make(*args)
    assert str(err.value) == (f"{what} has an amplitude with no complex128 "
                              "value: int too large to convert to float")


def test_constructors_keep_ordinary_inputs():
    b = QubitState(0.6, 0.8j)
    assert (b.alpha0, b.alpha1) == (0.6, 0.8j)
    assert type(b.alpha0) is float and type(b.alpha1) is complex
    assert QubitState(1, 0).alpha0 == 1
    vec = [SQRT_HALF, 0.0, 0.5j, complex(-0.5, 0.0)]
    s = TwoQubitState(vec)
    assert s.vec.dtype == np.complex128 and s.vec.shape == (4,)
    assert s.vec.tolist() == vec
    with pytest.raises(ValueError, match="qubit state not normalized"):
        QubitState(1.0, 1e-6)
    with pytest.raises(ValueError, match="two-qubit state not normalized"):
        TwoQubitState([1.0, 0.0, 0.0, 1e-6])


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
    Mu, Mv = u.vec.reshape(2, 2), v.vec.reshape(2, 2)
    np.testing.assert_allclose(ptrace_B(rho), Mu @ Mv.conj().T, atol=ATOL)
    np.testing.assert_allclose(ptrace_A(rho), Mu.T @ Mv.conj(), atol=ATOL)


def test_frob_dist_of_pauli_pair():
    sx = np.array([[0.0, 1.0], [1.0, 0.0]])
    sz = np.array([[1.0, 0.0], [0.0, -1.0]])
    assert frob_dist(sx, sz) == pytest.approx(2.0, abs=ATOL)
    assert frob_dist(sx, sx) == 0.0


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
    Mu, Mv = su.vec.reshape(2, 2), sv.vec.reshape(2, 2)
    np.testing.assert_allclose(ptrace_B(rho), Mu @ Mv.conj().T, atol=1e-12)
    np.testing.assert_allclose(ptrace_A(rho), Mu.T @ Mv.conj(), atol=1e-12)
