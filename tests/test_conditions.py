"""Masking-condition residuals and verdicts."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, seed, settings
from hypothesis import strategies as st

from qmask.conditions import (
    DEGENERATE_NORM,
    PARTNER_MIN_GAP,
    cross_term_matrix,
    eq4_residuals,
    eq7_eq8_residuals,
    masking_partner,
    masks_state,
    reduced_pair_residual,
)
from qmask.ortho import (
    EXAMPLE1_PAIR,
    build_example2_states,
    sample_example1,
    sample_example2,
)
from qmask.qlinalg import QubitState, TwoQubitState

from oracle import basis_ket, frob_dist, outer, ptrace_A, ptrace_B

ATOL = 1e-12
SQRT_HALF = math.sqrt(0.5)

PSI0 = TwoQubitState.unit([1.0, 0.0, 0.0, 1.0j])   # (|00> + i|11>)/sqrt(2)
PSI1 = TwoQubitState.unit([0.0, 1.0, 1.0, 0.0])    # (|01> + |10>)/sqrt(2)
# a qubit the pair above masks: alpha = (0.2 - 0.2i, -i sqrt(23)/5)
GOOD_B = QubitState(complex(0.2, -0.2), complex(0.0, -math.sqrt(23.0) / 5.0))

angles = st.floats(min_value=0.0, max_value=2.0 * math.pi)
amp = st.complex_numbers(min_magnitude=0.0, max_magnitude=2.0,
                         allow_nan=False, allow_infinity=False)
vec4 = st.tuples(amp, amp, amp, amp).filter(
    lambda v: math.hypot(*[abs(c) for c in v]) > 1e-6)
qubits = st.tuples(amp, amp).filter(
    lambda v: math.hypot(abs(v[0]), abs(v[1])) > 1e-6)


def _unit(v) -> TwoQubitState:
    return TwoQubitState.unit(list(v))


def _qubit(v) -> QubitState:
    return QubitState.normalized(v[0], v[1])


# ---------------------------------------------------------------------------
# marginal-equality lines
# ---------------------------------------------------------------------------

def test_eq4_all_zero_for_bell_pair():
    psi_minus = TwoQubitState.unit([0.0, 1.0, -1.0, 0.0])
    phi_plus = TwoQubitState.unit([1.0, 0.0, 0.0, 1.0])
    assert max(eq4_residuals(phi_plus, psi_minus)) <= ATOL
    assert max(reduced_pair_residual(phi_plus, psi_minus)) <= ATOL


def test_eq4_frozen_values_for_basis_kets():
    np.testing.assert_allclose(
        eq4_residuals(basis_ket("00"), basis_ket("01")),
        (0.0, 1.0, 1.0, 0.0, 0.0, 0.0), atol=ATOL)
    np.testing.assert_allclose(
        reduced_pair_residual(basis_ket("00"), basis_ket("01")),
        (math.sqrt(2.0), 0.0), atol=ATOL)


def test_eq4_frozen_values_for_unbalanced_pair():
    s0 = TwoQubitState.unit([0.8, 0.0, 0.0, 0.6])
    s1 = TwoQubitState.unit([0.0, 0.6, 0.8, 0.0])
    np.testing.assert_allclose(
        eq4_residuals(s0, s1), (0.28, 0.0, 0.0, 0.28, 0.0, 0.0), atol=ATOL)
    np.testing.assert_allclose(
        reduced_pair_residual(s0, s1),
        (0.0, math.sqrt(2.0) * 0.28), atol=ATOL)


@seed(11)
@settings(max_examples=60, deadline=None)
@given(v=vec4, phase=angles)
def test_eq4_invariant_under_global_phase(v, phase):
    s = _unit(v)
    rotated = _unit(np.exp(1j * phase) * s.vec)
    np.testing.assert_allclose(
        eq4_residuals(s, PSI1), eq4_residuals(rotated, PSI1), atol=1e-10)


@seed(12)
@settings(max_examples=60, deadline=None)
@given(v=vec4, w=vec4)
def test_eq4_lines_bound_the_marginal_distance(v, w):
    # the six lines are entrywise pieces of the two marginal differences,
    # so all-zero lines force zero Frobenius distance and vice versa
    s0, s1 = _unit(v), _unit(w)
    lines = eq4_residuals(s0, s1)
    rA, rB = reduced_pair_residual(s0, s1)
    assert max(lines) <= (rA + rB) + 1e-10
    assert max(rA, rB) <= 2.0 * sum(lines) + 1e-10


# ---------------------------------------------------------------------------
# cross-term matrices
# ---------------------------------------------------------------------------

def test_cross_matrix_rebuilds_from_scalars():
    # the eq5/eq6 shorthands A, B, C, D (primed on the B side) written out
    # are the entries of Tr_x(|Psi0><Psi1|), with amplitudes a_i, b_i
    b = _qubit((0.8, 0.6j))
    z = b.vec[0] * np.conj(b.vec[1])
    a, c = PSI0.vec, np.conj(PSI1.vec)
    T_A = np.array([[a[0] * c[0] + a[2] * c[2], a[0] * c[1] + a[2] * c[3]],
                    [a[1] * c[0] + a[3] * c[2], a[1] * c[1] + a[3] * c[3]]])
    np.testing.assert_allclose(
        cross_term_matrix(PSI0, PSI1, b, "A"),
        z * T_A + np.conj(z) * T_A.conj().T, atol=ATOL)
    T_B = np.array([[a[0] * c[0] + a[1] * c[1], a[0] * c[2] + a[1] * c[3]],
                    [a[2] * c[0] + a[3] * c[1], a[2] * c[2] + a[3] * c[3]]])
    for T in (T_A, T_B):
        np.testing.assert_allclose(T, [[0.0, 0.5], [0.5j, 0.0]], atol=ATOL)
    np.testing.assert_allclose(
        cross_term_matrix(PSI0, PSI1, b, "B"),
        z * T_B + np.conj(z) * T_B.conj().T, atol=ATOL)


@seed(15)
@settings(max_examples=100, deadline=None)
@given(v=vec4, w=vec4, q=qubits)
def test_cross_matrix_depends_on_qubit_only_through_phase(v, w, q):
    # real-linear in z = alpha0 alpha1*: any qubit's cross matrices are
    # 2|z| times those of the equal-magnitude qubit with the same arg z
    s0, s1, b = _unit(v), _unit(w), _qubit(q)
    z = b.alpha0 * b.alpha1.conjugate()
    b_phi = QubitState.normalized(1.0, complex(np.exp(-1j * np.angle(z))))
    for s in "AB":
        np.testing.assert_allclose(
            cross_term_matrix(s0, s1, b, s),
            2.0 * abs(z) * cross_term_matrix(s0, s1, b_phi, s), atol=ATOL)


@seed(16)
@settings(max_examples=100, deadline=None)
@given(v=vec4, w=vec4, q=qubits)
def test_cross_matrix_gauge_moves_qubit_phase_into_psi1(v, w, q):
    # for z = alpha0 alpha1* != 0, the qubit |+> with Psi1 rephased by
    # e^{-i arg z} gives the cross matrices up to the factor 2|z|, and the
    # rephasing keeps the eq4 lines and the overlap magnitude
    s0, s1, b = _unit(v), _unit(w), _qubit(q)
    z = b.alpha0 * b.alpha1.conjugate()
    assume(z != 0)
    rephased = TwoQubitState.unit(np.exp(-1j * np.angle(z)) * s1.vec)
    plus = QubitState.normalized(1.0, 1.0)
    for s in "AB":
        np.testing.assert_allclose(
            cross_term_matrix(s0, s1, b, s),
            2.0 * abs(z) * cross_term_matrix(s0, rephased, plus, s),
            rtol=0, atol=ATOL)
    np.testing.assert_allclose(eq4_residuals(s0, rephased),
                               eq4_residuals(s0, s1), rtol=0, atol=ATOL)
    assert abs(np.vdot(s0.vec, rephased.vec)) == pytest.approx(
        abs(np.vdot(s0.vec, s1.vec)), abs=ATOL)


def test_cross_matrix_rejects_unknown_subsystem():
    with pytest.raises(ValueError):
        cross_term_matrix(PSI0, PSI1, GOOD_B, "C")


# ---------------------------------------------------------------------------
# full verdicts
# ---------------------------------------------------------------------------

def test_masks_state_accepts_good_qubit():
    report = masks_state(GOOD_B, PSI0, PSI1)
    assert report.verdict
    assert max(report.residuals()) <= 1e-12
    assert not report.degenerate_superposition
    # the eq15 pair of the example-2 family masks (1, 0.37i)
    eq15_psi0 = TwoQubitState.unit([0.5 + 0.5j, 0.0, 0.0, SQRT_HALF])
    eq15_psi1 = TwoQubitState.unit([0.0, 0.5 + 0.5j, SQRT_HALF, 0.0])
    assert masks_state(_qubit((1.0, 0.37j)), eq15_psi0, eq15_psi1).verdict


def test_masks_state_rejects_real_second_amplitude():
    # flipping the masked qubit's second amplitude from -i*sqrt(23)/5 to
    # the real value sqrt(23)/5 breaks the cross conditions
    bad = QubitState(complex(0.2, -0.2), math.sqrt(23.0) / 5.0)
    report = masks_state(bad, PSI0, PSI1)
    assert not report.verdict
    assert max(report.residuals()) == pytest.approx(0.38367, abs=1e-4)
    assert max(report.eq4_residuals) <= ATOL  # the pair itself is fine


def test_masks_state_accepts_basis_qubit_on_bell_pair():
    phi_plus = TwoQubitState.unit([1.0, 0.0, 0.0, 1.0])
    psi_plus = TwoQubitState.unit([0.0, 1.0, 1.0, 0.0])
    report = masks_state(QubitState(1.0, 0.0), phi_plus, psi_plus)
    assert report.verdict


def test_masks_state_flags_degenerate_superposition():
    # alpha0|Psi> - alpha1|Psi> with alpha0 = alpha1 cancels; the report
    # must flag it and fail instead of raising
    b = QubitState(SQRT_HALF, -SQRT_HALF)
    report = masks_state(b, PSI0, PSI0)
    assert report.degenerate_superposition
    assert not report.verdict
    assert report.superposition_residuals == (math.inf, math.inf)


def test_masks_state_is_sufficient_not_necessary_for_overlapping_pair():
    # the verdict is the paper's eq3 system: Psi1 = Psi0 keeps every
    # superposition's marginals, yet its cross matrices do not vanish
    psi0, _ = EXAMPLE1_PAIR.states()
    report = masks_state(QubitState(SQRT_HALF, SQRT_HALF), psi0, psi0)
    assert not report.verdict
    assert report.crossA_norm == pytest.approx(SQRT_HALF, abs=1e-12)
    assert report.crossB_norm == pytest.approx(SQRT_HALF, abs=1e-12)
    assert max(report.superposition_residuals) <= 1e-15
    assert max(report.eq4_residuals) == 0.0


@seed(17)
@settings(max_examples=200, deadline=None)
@given(v=vec4)
def test_masks_state_accepts_a_non_orthogonal_masking_pair(v):
    # (Psi0, i Psi0) overlaps by i, yet both cross matrices vanish at
    # |+>, and with them the superposition residuals: a vanishing cross
    # matrix has trace 2 Re(z <Psi1|Psi0>) = 0, so ||Psi|| = 1
    psi0 = _unit(v)
    psi1 = TwoQubitState.unit(1j * psi0.vec)
    assert abs(np.vdot(psi0.vec, psi1.vec)) == pytest.approx(1.0)
    report = masks_state(QubitState.normalized(1.0, 1.0), psi0, psi1)
    assert report.verdict
    assert max(report.superposition_residuals) <= 1e-15


def _local_unitary(a, b, g):
    """A 2x2 unitary from three angles."""
    return np.array([[math.cos(a) * np.exp(1j * b), math.sin(a)],
                     [-math.sin(a) * np.exp(1j * g),
                      math.cos(a) * np.exp(1j * (g - b))]])


def _schmidt_state(digits, u, v) -> TwoQubitState:
    """U diag(cos t, sin t) V^T with 1 - C^2 = 10^-digits, C = sin 2t."""
    t = math.asin(math.sqrt(1.0 - 10.0 ** -digits)) / 2.0
    m = (_local_unitary(*u) @ np.diag([math.cos(t), math.sin(t)])
         @ _local_unitary(*v).T)
    return _unit(m.reshape(4))


#: from product states (digits 0) to maximal entanglement (digits >= 16)
schmidt_states = st.builds(_schmidt_state,
                           st.floats(min_value=0.0, max_value=17.0),
                           st.tuples(angles, angles, angles),
                           st.tuples(angles, angles, angles))


@seed(31)
@settings(max_examples=300, deadline=None)
@given(psi=st.one_of(vec4.map(_unit), schmidt_states))
def test_masking_partner_shares_both_marginals(psi):
    # P(Psi) has both of Psi's marginals to 1e-12, and <Psi|P> is real,
    # at every concurrence C the function accepts; it refuses exactly
    # when 1 - C^2 < PARTNER_MIN_GAP, up to the rounding of C
    c = 2.0 * abs(np.linalg.det(psi.vec.reshape(2, 2)))
    try:
        partner = masking_partner(psi)
    except ValueError as exc:
        assert "maximally entangled" in str(exc)
        assert 1.0 - c * c < PARTNER_MIN_GAP * (1.0 + 1e-9)
        return
    assert 1.0 - c * c >= PARTNER_MIN_GAP * (1.0 - 1e-9)
    assert np.linalg.norm(partner.vec) == pytest.approx(1.0, abs=1e-15)
    rho0, rho1 = outer(psi, psi), outer(partner, partner)
    for trace in (ptrace_A, ptrace_B):
        assert np.abs(trace(rho0) - trace(rho1)).max() <= 1e-12
    assert abs(np.vdot(psi.vec, partner.vec).imag) <= 1e-12


@seed(32)
@settings(max_examples=100, deadline=None)
@given(u=st.tuples(angles, angles, angles), phase=angles)
def test_masking_partner_refuses_maximally_entangled_states(u, phase):
    # U / sqrt(2) for a unitary U has C = 1: no state but its own phases
    # shares its marginals, and P is undefined
    psi = _unit(np.exp(1j * phase) * _local_unitary(*u).reshape(4))
    with pytest.raises(ValueError, match="maximally entangled"):
        masking_partner(psi)


def test_masks_state_rejects_bad_tol():
    # the surface samplers share the check
    for tol in (0.0, -1e-9, math.nan, math.inf):
        with pytest.raises(ValueError, match="tol must be positive"):
            masks_state(GOOD_B, PSI0, PSI1, tol=tol)
        with pytest.raises(ValueError, match="tol must be positive"):
            sample_example1(21, "plus", tol)
        with pytest.raises(ValueError, match="tol must be positive"):
            sample_example2(21, tol)


# ---------------------------------------------------------------------------
# scalar shorthand vs matrix equivalence
# ---------------------------------------------------------------------------

def test_eq7_eq8_zero_iff_cross_matrices_vanish_frozen():
    res = eq7_eq8_residuals(PSI0, PSI1, GOOD_B)
    assert len(res) == 6
    assert max(res) <= 1e-12
    assert max(
        np.linalg.norm(cross_term_matrix(PSI0, PSI1, GOOD_B, s)) for s in "AB"
    ) <= 1e-12


@seed(13)
@settings(max_examples=150, deadline=None)
@given(v=vec4, w=vec4, q=qubits)
def test_eq7_eq8_verdict_matches_matrix_verdict(v, w, q):
    s0, s1, b = _unit(v), _unit(w), _qubit(q)
    scalar_ok = max(eq7_eq8_residuals(s0, s1, b)) <= ATOL
    matrix_ok = max(
        np.linalg.norm(cross_term_matrix(s0, s1, b, s), "fro") for s in "AB"
    ) <= ATOL
    assert scalar_ok == matrix_ok


@seed(14)
@settings(max_examples=60, deadline=None)
@given(q=qubits, phase=angles)
def test_verdict_invariant_under_qubit_global_phase(q, phase):
    b = _qubit(q)
    rotated = QubitState.normalized(*(np.exp(1j * phase) * b.vec))
    r1 = masks_state(b, PSI0, PSI1)
    r2 = masks_state(rotated, PSI0, PSI1)
    assert r1.verdict == r2.verdict
    np.testing.assert_allclose(r1.residuals(), r2.residuals(), atol=1e-10)


# ---------------------------------------------------------------------------
# the 2x2 block kernel against the 4x4 outer-product reference
# ---------------------------------------------------------------------------

def _seeded_triples(rng, n):
    """(b, Psi0, Psi1, masks) in four kinds: the example-1 surface, the
    example-2 family (both mask), Gaussian random triples and degenerate
    superpositions (neither masks)."""
    psi0_ex1, psi1_ex1 = EXAMPLE1_PAIR.states()
    for k in range(n):
        kind = k % 4
        if kind == 0:
            # a qubit on the example-1 surface: alpha1 is fixed by alpha0
            r = math.sqrt(rng.uniform(0.01, 0.9))
            phi = rng.uniform(0.0, 2.0 * math.pi)
            x0, y0 = r * math.cos(phi), r * math.sin(phi)
            scale = math.sqrt(1.0 - r * r) / (math.sqrt(2.0) * r)
            sign = 1.0 if rng.uniform() < 0.5 else -1.0
            alpha1 = sign * scale * complex(-(x0 + y0), x0 - y0)
            yield (QubitState.normalized(complex(x0, y0), alpha1),
                   psi0_ex1, psi1_ex1, True)
        elif kind == 1:
            phi = rng.uniform(0.0, 2.0 * math.pi)
            psi0, psi1 = build_example2_states(
                SQRT_HALF * math.cos(phi), SQRT_HALF * math.sin(phi),
                "plus" if rng.uniform() < 0.5 else "minus")
            lam = rng.uniform(-3.0, 3.0)
            yield QubitState.normalized(1.0, 1j * lam), psi0, psi1, True
        elif kind == 2:
            b, v0, v1 = (rng.standard_normal(m) + 1j * rng.standard_normal(m)
                         for m in (2, 4, 4))
            yield _qubit(b), _unit(v0), _unit(v1), False
        else:
            # Psi1 = e^{i t} Psi0 and alpha1 = -e^{-i t} alpha0 cancel
            t = rng.uniform(0.0, 2.0 * math.pi)
            psi0 = _unit(rng.standard_normal(4) + 1j * rng.standard_normal(4))
            yield (QubitState.normalized(1.0, -np.exp(-1j * t)), psi0,
                   _unit(np.exp(1j * t) * psi0.vec), False)


def _reference(b, psi0, psi1, tol=1e-9):
    """Every masks_state residual, eq7/eq8, both cross matrices and both
    marginal distances from 4x4 outer products and partial traces."""
    z = b.alpha0 * np.conj(b.alpha1)
    r0, r1, x = outer(psi0, psi0), outer(psi1, psi1), outer(psi0, psi1)
    dA, dB = ptrace_A(r0) - ptrace_A(r1), ptrace_B(r0) - ptrace_B(r1)
    marginal = (np.linalg.norm(dA), np.linalg.norm(dB))
    lines = (abs(dB[0, 0]), abs(dA[0, 0]), abs(dA[1, 1]), abs(dB[1, 1]),
             abs(dA[0, 1]), abs(dB[0, 1]))
    Ts = (ptrace_A(x), ptrace_B(x))
    cross = [z * T + np.conj(z) * T.conj().T for T in Ts]
    eq78 = [r for T in Ts for r in (
        abs((z * T[0, 0]).real), abs((z * T[1, 1]).real),
        abs(z * T[0, 1] + np.conj(z) * np.conj(T[1, 0])))]
    sup_vec = b.alpha0 * psi0.vec + b.alpha1 * psi1.vec
    if np.linalg.norm(sup_vec) < DEGENERATE_NORM:
        sup = (math.inf, math.inf)
    else:
        psi = TwoQubitState.unit(sup_vec)
        rho = outer(psi, psi)
        sup = (frob_dist(ptrace_A(rho), ptrace_A(r0)),
               frob_dist(ptrace_B(rho), ptrace_B(r0)))
    residuals = (*lines, *map(np.linalg.norm, cross), *sup)
    return (residuals, eq78, cross, marginal,
            all(r <= tol for r in residuals))


# A triple from the example-1 pair at ~1e-10 from masking: every eq4 line
# and both cross norms are <= 1e-9 (at most 6.6e-10), but the
# superposition residuals (1.6e-9) are not, so the verdict is False
# through that group alone
NEAR_B = QubitState(complex(0.25717120989390235, -0.07283801425596326),
                    complex(-0.4699102688739829, 0.8412739932315366))
NEAR_PSI0 = TwoQubitState([
    complex(0.7071067811795778, 2.3430495866722693e-10),
    complex(7.51821381398108e-11, 8.42628887565989e-11),
    complex(-3.407875625292297e-10, -3.623673848181038e-10),
    complex(-6.601648255120379e-10, 0.7071067811935171)])
NEAR_PSI1 = TwoQubitState([
    complex(4.6100831108094526e-10, 1.4013369148213546e-10),
    complex(0.707106780780869, -2.406415991088984e-10),
    complex(0.7071067815922263, 2.586623901116933e-10),
    complex(1.598601247928132e-10, 3.473165016452625e-11)])


def test_superposition_residuals_can_fail_the_verdict_alone():
    report = masks_state(NEAR_B, NEAR_PSI0, NEAR_PSI1)
    eps = max(*report.eq4_residuals, report.crossA_norm, report.crossB_norm)
    assert eps <= 6.6e-10
    assert min(report.superposition_residuals) >= 1.5e-9
    assert not report.verdict
    assert masks_state(NEAR_B, NEAR_PSI0, NEAR_PSI1, tol=2e-9).verdict
    # the 4x4 oracle agrees: the group is not a rounding artifact
    residuals, *_, verdict = _reference(NEAR_B, NEAR_PSI0, NEAR_PSI1)
    assert not verdict
    assert max(residuals[:8]) <= 6.6e-10
    assert min(residuals[8:]) >= 1.5e-9


def _rephased_pair(rng):
    """(b, Psi0, Psi1) with Psi1 = e^{i(arg z + pi/2)} Psi0: an
    overlapping pair whose cross matrices vanish at b."""
    b = _qubit(rng.standard_normal(2) + 1j * rng.standard_normal(2))
    psi0 = _unit(rng.standard_normal(4) + 1j * rng.standard_normal(4))
    z = b.alpha0 * b.alpha1.conjugate()
    phase = 1j * z / abs(z) if z else 1.0
    return b, psi0, _unit(phase * psi0.vec)


@seed(29)
@settings(max_examples=300, deadline=None)
@given(k=st.integers(min_value=0, max_value=2 ** 32 - 1),
       kind=st.integers(min_value=0, max_value=2),
       kick=st.lists(amp, min_size=10, max_size=10),
       digits=st.floats(min_value=1.0, max_value=16.0))
def test_superposition_residuals_are_bounded_by_the_other_groups(
        k, kind, kick, digits):
    # The superposition's x-marginal is rho_0 - |alpha1|^2 D + C, with D
    # the pair's marginal gap (||D||_F <= 2 eps by the eq4 lines) and C
    # the cross matrix (||C||_F <= eps, so |Tr C| <= sqrt(2) eps).  As
    # ||Psi||^2 = 1 + Tr C, renormalizing gives the bound below for eps
    # the largest eq4 line or cross norm: checked on masking triples
    # (two orthogonal families and one overlapping) moved by 10^-digits
    rng = np.random.default_rng(k)
    if kind < 2:
        b, psi0, psi1, _ = list(_seeded_triples(rng, 2))[kind]
    else:
        b, psi0, psi1 = _rephased_pair(rng)
    step = 10.0 ** -digits * np.array(kick)
    b = _qubit(b.vec + step[:2])
    psi0, psi1 = _unit(psi0.vec + step[2:6]), _unit(psi1.vec + step[6:])
    reference = _reference(b, psi0, psi1)[0]
    for residuals in (reference, masks_state(b, psi0, psi1).residuals()):
        eps = max(residuals[:8])
        assume(math.sqrt(2.0) * eps < 1.0)
        bound = ((2.0 * abs(b.alpha1) ** 2 + 1.0 + math.sqrt(2.0)) * eps
                 / (1.0 - math.sqrt(2.0) * eps))
        assert max(residuals[8:]) <= bound + 1e-15


def test_triple_results_do_not_depend_on_call_order():
    triples = list(_seeded_triples(np.random.default_rng(2025), 200))

    def results(order):
        return {k: (masks_state(*triples[k][:3]),
                    eq7_eq8_residuals(*triples[k][1:3], triples[k][0]),
                    *(cross_term_matrix(*triples[k][1:3], triples[k][0], s)
                      .tobytes() for s in "AB"))
                for k in order}

    forward = results(range(len(triples)))
    assert results(reversed(range(len(triples)))) == forward


def test_block_kernel_matches_outer_product_reference():
    triples = list(_seeded_triples(np.random.default_rng(2024), 2000))
    degenerate = 0
    for b, psi0, psi1, masks in triples:
        residuals, eq78, cross, marginal, verdict = _reference(
            b, psi0, psi1)
        report = masks_state(b, psi0, psi1)
        assert report.verdict == verdict == masks
        got = np.array(report.residuals())
        want = np.array(residuals)
        assert np.array_equal(np.isinf(got), np.isinf(want))
        finite = np.isfinite(want)
        assert np.max(abs(got[finite] - want[finite])) <= 1e-15
        assert np.max(abs(np.subtract(eq7_eq8_residuals(psi0, psi1, b),
                                      eq78))) <= 1e-15
        assert max(abs(eq4_residuals(psi0, psi1) - want[:6])) <= 1e-15
        assert max(map(abs, np.subtract(reduced_pair_residual(psi0, psi1),
                                        marginal))) <= 1e-15
        for s, ref in zip("AB", cross):
            m = cross_term_matrix(psi0, psi1, b, s)
            assert m.shape == (2, 2) and m.dtype == np.complex128
            assert np.max(abs(m - ref)) <= 1e-15
        degenerate += report.degenerate_superposition
    assert degenerate == 500
