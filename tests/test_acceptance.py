"""Acceptance gate: one test per shipped criterion at its stated tolerance.

Run with ``pytest -v tests/test_acceptance.py`` to get one pass/fail
line per criterion.  Three entries are strict xfails: the bundled
reference data makes claims (a quoted fixed point, fifteen "no"
verdicts, an empty violation scan) that the oracles refute with
explicit, re-verified witnesses.  Each xfail has a companion test that
pins down the behavior we actually certify.
"""

import itertools
import math
import time

import numpy as np
import pytest

from qmask import ortho
from qmask.conditions import (
    cross_term_matrix,
    eq7_eq8_residuals,
    masks_state,
    reduced_pair_residual,
)
from qmask.patterns import FeasibilityStatus, assemble, BasisPattern
from qmask.qlinalg import QubitState, TwoQubitState

from oracle import frob_dist, outer, ptrace_A, ptrace_B

SQRT_HALF = math.sqrt(0.5)
HALF_I = np.eye(2) / 2.0

PSI0, PSI1 = ortho.EXAMPLE1_PAIR.states()
QUOTED_B = QubitState(complex(0.2, -0.2), complex(math.sqrt(23.0) / 5.0, 0.0))
CORRECTED_B = QubitState(complex(0.2, -0.2), complex(0.0, -math.sqrt(23.0) / 5.0))

# the fifteen bundled "no" rows that carry verified feasibility witnesses
REFUTED_ROWS = {(3, i) for i in (6, 7, 8, 13, 16, 21, 24, 30, 32)} | {
    (4, i) for i in (4, 5, 6, 7, 8, 12)}


def _six_marginals(b: QubitState):
    psi = TwoQubitState.unit(b.alpha0 * PSI0.vec + b.alpha1 * PSI1.vec)
    for state in (PSI0, PSI1, psi):
        rho = outer(state, state)
        yield ptrace_A(rho)
        yield ptrace_B(rho)


def _surface_point(rng, branch: str) -> ortho.Example1Point:
    """A random point exactly on the example-1 solution surface."""
    while True:
        r = math.sqrt(rng.uniform(0.01, 0.90))
        phi = rng.uniform(0.0, 2.0 * math.pi)
        x0, y0 = r * math.cos(phi), r * math.sin(phi)
        # near x0 == y0 the on-surface direction degenerates and the
        # reconstructed second amplitude loses precision
        if abs(x0 - y0) < 1e-3:
            continue
        rho = math.sqrt(1.0 - x0 * x0 - y0 * y0)
        scale = rho / (math.sqrt(2.0) * r)
        x1, y1 = -scale * (x0 + y0), scale * (x0 - y0)
        if (y1 >= 0.0) != (branch == "plus"):
            x1, y1 = -x1, -y1
        return ortho.Example1Point(x0, y0, x1, branch)


def _surface_residual(pt: ortho.Example1Point) -> float:
    """|value| of the example-1 surface equation at ``pt``."""
    return abs(ortho._example1_value(pt.x0, pt.y0, pt.x1, abs(pt.y1()),
                                     pt.branch))


def _verify_eq4_witness(outcome, p0_kets, p1_kets, tol=1e-8):
    w = outcome.witness
    assert w is not None
    for kets, coeffs, psi in ((p0_kets, w.coeffs0, w.psi0),
                              (p1_kets, w.coeffs1, w.psi1)):
        assert min(abs(c) for c in coeffs) >= 0.1 - 1e-9
        rebuilt, norm = assemble(BasisPattern(kets), coeffs)
        assert norm == pytest.approx(1.0, abs=1e-9)
        np.testing.assert_allclose(rebuilt.vec / norm, psi.vec, atol=1e-9)
    assert max(reduced_pair_residual(w.psi0, w.psi1)) <= tol


# ---------------------------------------------------------------------------
# criterion 1: the masked-qubit fixed point of the split-support pair
# ---------------------------------------------------------------------------

@pytest.mark.xfail(
    reason="the quoted masked qubit fails the cross conditions; only the "
           "phase-corrected qubit below masks", strict=True)
def test_criterion1_quoted_fixed_point():
    for marg in _six_marginals(QUOTED_B):
        assert frob_dist(marg, HALF_I) <= 1e-12
    assert masks_state(QUOTED_B, PSI0, PSI1).verdict


def test_criterion1_phase_corrected_fixed_point():
    t0 = time.perf_counter()
    margs = list(_six_marginals(CORRECTED_B))
    report = masks_state(CORRECTED_B, PSI0, PSI1)
    elapsed = time.perf_counter() - t0
    for marg in margs:
        assert frob_dist(marg, HALF_I) <= 1e-12
    assert report.verdict
    assert max(report.residuals()) <= 1e-12
    assert elapsed < 1e-3


# ---------------------------------------------------------------------------
# criterion 2: the four bundled verdict tables
# ---------------------------------------------------------------------------

@pytest.mark.xfail(
    reason="15 bundled 'no' verdicts are refuted by verified feasibility "
           "witnesses (see the companion certificate test)", strict=True)
def test_criterion2_all_bundled_verdicts_match(tables_run):
    results, _ = tables_run
    mismatched = [(r.row.table, r.row.index)
                  for r in itertools.chain.from_iterable(results.values())
                  if not r.agree]
    assert mismatched == []


def test_criterion2_certificates_and_runtime(tables_run, default_cfg):
    results, elapsed = tables_run
    assert elapsed < 600.0

    all_rows = list(itertools.chain.from_iterable(results.values()))
    assert len(all_rows) == 106
    # the certified bound decides without a step; every other row ran
    # the whole search, at least one damped step per restart
    for r in all_rows:
        if r.outcome.decided_by == "bound":
            assert r.outcome.iterations == 0
        else:
            assert r.outcome.decided_by == "search"
            assert r.outcome.iterations >= default_cfg.restarts
    assert all(r.outcome.status is not FeasibilityStatus.INCONCLUSIVE
               for r in all_rows)

    # every "mask" row reproduces, with the advertised per-table counts
    mask_counts = {n: sum(1 for r in results[n] if r.row.expected == "mask")
                   for n in results}
    assert mask_counts == {1: 4, 2: 6, 3: 4, 4: 1}
    for r in all_rows:
        if r.row.expected == "mask":
            assert r.outcome.status is FeasibilityStatus.FEASIBLE

    for r in all_rows:
        if r.outcome.status is FeasibilityStatus.FEASIBLE:
            _verify_eq4_witness(r.outcome, r.row.psi0_kets, r.row.psi1_kets)
        else:
            assert r.outcome.witness is None
            assert r.outcome.best_residual >= 1e-6

    # the disagreements are exactly the refuted rows, each "no" beaten
    # by a verified witness
    mismatched = {(r.row.table, r.row.index) for r in all_rows if not r.agree}
    assert mismatched == REFUTED_ROWS
    for r in all_rows:
        if (r.row.table, r.row.index) in REFUTED_ROWS:
            assert r.row.expected == "no"
            assert r.outcome.status is FeasibilityStatus.FEASIBLE


# ---------------------------------------------------------------------------
# criterion 3: support scan under the non-orthogonality constraint
# ---------------------------------------------------------------------------

@pytest.mark.xfail(
    reason="16 differing-support pattern pairs admit verified masking "
           "witnesses (see the companion certificate test)", strict=True)
def test_criterion3_scan_returns_no_violations(scan_run):
    violations, _ = scan_run
    assert violations == []


def test_criterion3_violation_certificates(scan_run):
    violations, elapsed = scan_run
    assert elapsed < 10.0

    found = {(v.psi0_kets, v.psi1_kets) for v in violations}
    assert len(found) == len(violations) == 16

    # expected family 1: three-term patterns whose missing kets differ
    # in exactly one bit (both orders)
    all_kets = ("00", "01", "10", "11")
    triples = {k: tuple(x for x in all_kets if x != k) for k in all_kets}
    one_bit = {(a, b) for a in all_kets for b in all_kets
               if sum(x != y for x, y in zip(a, b)) == 1}
    expected = {(triples[a], triples[b]) for a, b in one_bit}
    # expected family 2: every three-term pattern against full support
    for k in all_kets:
        expected.add((triples[k], all_kets))
        expected.add((all_kets, triples[k]))
    assert found == expected

    for v in violations:
        assert v.outcome.status is FeasibilityStatus.FEASIBLE
        w = v.outcome.witness
        assert w is not None and w.b is not None
        report = masks_state(w.b, w.psi0, w.psi1)
        assert report.verdict
        assert max(report.residuals()) <= 1e-8
        assert abs(np.vdot(w.psi0.vec, w.psi1.vec)) >= 0.1 - 1e-9
        assert min(abs(w.b.alpha0), abs(w.b.alpha1)) >= 0.1 - 1e-9


# ---------------------------------------------------------------------------
# criterion 4: necessity of the balanced-coefficient line
# ---------------------------------------------------------------------------

def test_criterion4_balanced_line_is_necessary_and_sufficient():
    rng = np.random.default_rng(20240)

    def split_pair(u: float, v: float):
        mags = [math.sqrt(0.5 + u), math.sqrt(0.5 - u),
                math.sqrt(0.5 + v), math.sqrt(0.5 - v)]
        ph = np.exp(1j * rng.uniform(0.0, 2.0 * math.pi, size=4))
        a0, a1, b0, b1 = (m * p for m, p in zip(mags, ph))
        return (TwoQubitState.unit([a0, 0.0, 0.0, a1]),
                TwoQubitState.unit([0.0, b0, b1, 0.0]))

    for _ in range(1000):
        u = rng.choice([-1.0, 1.0]) * rng.uniform(0.01, 0.45)
        v = rng.uniform(-0.45, 0.45)
        psi0, psi1 = split_pair(u, v)
        assert max(reduced_pair_residual(psi0, psi1)) >= 1e-3

    for _ in range(1000):
        psi0, psi1 = split_pair(0.0, 0.0)
        for state in (psi0, psi1):
            rho = outer(state, state)
            assert frob_dist(ptrace_A(rho), HALF_I) <= 1e-12
            assert frob_dist(ptrace_B(rho), HALF_I) <= 1e-12


# ---------------------------------------------------------------------------
# criterion 5: the sampled zero set equals the analytic zero set
# ---------------------------------------------------------------------------

def test_criterion5_lambda_family_zero_set_equality():
    t0 = time.perf_counter()
    pts = ortho.sample_example2(201, 1e-10)
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0

    kept = {p.coordinates for p in pts}
    axis = [(k - 100) / 100.0 for k in range(201)]
    analytic = set()
    for i, x0 in enumerate(axis):
        for j, y0 in enumerate(axis):
            if (i - 100) ** 2 + (j - 100) ** 2 == 5000:
                analytic.update((lam, x0, y0) for lam in axis)
            else:
                analytic.add((0.0, x0, y0))
    assert len(kept) == len(pts) == 44401
    assert kept == analytic


# ---------------------------------------------------------------------------
# criterion 6: surface membership <=> masking, at sample scale
# ---------------------------------------------------------------------------

def test_criterion6_surface_membership_matches_masking():
    rng = np.random.default_rng(20241)

    for branch in ortho.BRANCHES:
        for _ in range(1000):
            pt = _surface_point(rng, branch)
            assert _surface_residual(pt) <= 1e-9
            assert masks_state(pt.qubit(), PSI0, PSI1, tol=1e-9).verdict

    rejected = 0
    while rejected < 1000:
        x0, y0, x1 = rng.uniform(-0.55, 0.55, size=3)
        branch = "plus" if rng.uniform() < 0.5 else "minus"
        pt = ortho.Example1Point(x0, y0, x1, branch)
        if _surface_residual(pt) < 1e-3:
            continue
        rejected += 1
        assert not masks_state(pt.qubit(), PSI0, PSI1, tol=1e-9).verdict


# ---------------------------------------------------------------------------
# criterion 7: masker completion is unitary and hits its columns
# ---------------------------------------------------------------------------

def test_criterion7_masker_unitarity():
    rng = np.random.default_rng(20242)
    done = 0
    while done < 100:
        u = rng.normal(size=4) + 1j * rng.normal(size=4)
        v = rng.normal(size=4) + 1j * rng.normal(size=4)
        u /= np.linalg.norm(u)
        v -= np.vdot(u, v) * u
        if np.linalg.norm(v) < 1e-3:
            continue
        v /= np.linalg.norm(v)
        psi0 = TwoQubitState.unit(u)
        psi1 = TwoQubitState.unit(v)
        F = ortho.complete_masker_unitary(psi0, psi1)
        assert np.linalg.norm(F.conj().T @ F - np.eye(4)) <= 1e-12
        assert np.linalg.norm(F[:, 0] - psi0.vec) <= 1e-12
        assert np.linalg.norm(F[:, 2] - psi1.vec) <= 1e-12
        done += 1


# ---------------------------------------------------------------------------
# criterion 8: scalar shorthand verdict == cross-matrix verdict
# ---------------------------------------------------------------------------

def test_criterion8_shorthand_agrees_with_matrices():
    rng = np.random.default_rng(20243)
    TOL = 1e-12

    def random_state(n):
        z = rng.normal(size=n) + 1j * rng.normal(size=n)
        return z / np.linalg.norm(z)

    triples = []
    for _ in range(6000):
        triples.append((QubitState.normalized(*random_state(2)),
                        TwoQubitState.unit(random_state(4)),
                        TwoQubitState.unit(random_state(4))))
    for _ in range(2000):
        branch = "plus" if rng.uniform() < 0.5 else "minus"
        pt = _surface_point(rng, branch)
        triples.append((pt.qubit(), PSI0, PSI1))
    for _ in range(2000):
        phi = rng.uniform(0.0, 2.0 * math.pi)
        s0, s1 = ortho.build_example2_states(
            SQRT_HALF * math.cos(phi), SQRT_HALF * math.sin(phi),
            "plus" if rng.uniform() < 0.5 else "minus")
        lam = rng.uniform(-3.0, 3.0)
        triples.append((QubitState.normalized(1.0, 1j * lam), s0, s1))

    agreements = 0
    true_verdicts = 0
    for b, s0, s1 in triples:
        scalar_ok = max(eq7_eq8_residuals(s0, s1, b)) <= TOL
        matrix_ok = max(
            np.linalg.norm(cross_term_matrix(s0, s1, b, sub), "fro")
            for sub in "AB") <= TOL
        agreements += scalar_ok == matrix_ok
        true_verdicts += scalar_ok
    assert agreements == 10000
    assert true_verdicts >= 4000   # both exact families exercise True
