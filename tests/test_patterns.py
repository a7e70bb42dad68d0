"""Pattern feasibility search, verdict tables, and the support scan."""

import itertools
import json
import math

import numpy as np
import pytest
from hypothesis import assume, given, seed, settings
from hypothesis import strategies as st

from qmask.conditions import cross_term_matrix, reduced_pair_residual
from qmask.patterns import (
    _INFEASIBLE_FLOOR,
    BasisPattern,
    FeasibilityConfig,
    FeasibilityStatus,
    _PairSystem,
    assemble,
    duplicate_free_patterns,
    feasible_eq4,
    feasible_full,
    load_table_fixture,
    reproduce_table,
)
from qmask.qlinalg import QubitState, TwoQubitState

DELTA = 0.1
FAST_CFG = FeasibilityConfig(restarts=60, seed=42)


# ---------------------------------------------------------------------------
# containers and the fixture
# ---------------------------------------------------------------------------

def test_pattern_indices_support_and_slots():
    p = BasisPattern(("10", "00", "10"))
    assert p.indices == (2, 0, 2)
    assert p.support == frozenset({"00", "10"})
    assert len(p) == 3
    S = p.slot_matrix()
    assert S.shape == (4, 3)
    np.testing.assert_allclose(S[:, 0], [0, 0, 1, 0])
    np.testing.assert_allclose(S[:, 1], [1, 0, 0, 0])


@pytest.mark.parametrize("kets", [(), ("00",) * 5, ("02",), ("0",)])
def test_pattern_rejects_bad_kets(kets):
    with pytest.raises(ValueError):
        BasisPattern(kets)


def test_assemble_merges_duplicate_kets():
    state, norm = assemble(BasisPattern(("00", "00")), [0.3, -0.3])
    assert norm == pytest.approx(0.0, abs=1e-15)
    state, norm = assemble(BasisPattern(("00", "11", "00")), [0.5, 0.5, 0.5])
    assert norm == pytest.approx(math.sqrt(1.25), abs=1e-12)
    np.testing.assert_allclose(state.vec, [1.0, 0.0, 0.0, 0.5])


def test_assemble_rejects_wrong_length():
    with pytest.raises(ValueError):
        assemble(BasisPattern(("00", "11")), [1.0])


def test_duplicate_free_patterns_enumeration():
    pats = duplicate_free_patterns()
    assert len(pats) == 15
    sizes = [len(p) for p in pats]
    assert sizes == sorted(sizes)
    assert sizes.count(1) == 4 and sizes.count(2) == 6
    assert sizes.count(3) == 4 and sizes.count(4) == 1
    assert len({p.kets for p in pats}) == 15


def test_config_validation():
    with pytest.raises(ValueError):
        FeasibilityConfig(tol=0.0)
    with pytest.raises(ValueError):
        FeasibilityConfig(tol=_INFEASIBLE_FLOOR)
    with pytest.raises(ValueError):
        FeasibilityConfig(delta=1.5)
    with pytest.raises(ValueError):
        FeasibilityConfig(restarts=0)


def test_fixture_row_counts():
    rows = load_table_fixture()
    per_table = {n: [r for r in rows if r.table == n] for n in (1, 2, 3, 4)}
    assert [len(per_table[n]) for n in (1, 2, 3, 4)] == [16, 42, 32, 16]
    masks = {n: sum(r.expected == "mask" for r in per_table[n])
             for n in (1, 2, 3, 4)}
    assert masks == {1: 4, 2: 6, 3: 4, 4: 1}
    # indices are 1-based and contiguous per table
    for n, chunk in per_table.items():
        assert [r.index for r in chunk] == list(range(1, len(chunk) + 1))


def test_fixture_loader_rejects_corrupt_file(tmp_path, monkeypatch):
    from qmask import patterns as mod

    bad = tmp_path / "fixture.json"
    bad.write_text(json.dumps([{"table": 9, "psi0_kets": ["00"],
                                "psi1_kets": ["00"], "expected": "mask"}]))
    monkeypatch.setattr(mod, "fixture_path", lambda: bad)
    with pytest.raises(ValueError):
        mod.load_table_fixture()
    bad.write_text("{not json")
    with pytest.raises(ValueError):
        mod.load_table_fixture()


def test_fixture_loader_keeps_missing_file_error(tmp_path, monkeypatch):
    # a missing fixture is not reported as a corrupt one
    from qmask import patterns as mod

    monkeypatch.setattr(mod, "fixture_path", lambda: tmp_path / "none.json")
    with pytest.raises(FileNotFoundError):
        mod.load_table_fixture()


def test_reproduce_table_rejects_bad_index():
    with pytest.raises(ValueError):
        reproduce_table(5, FAST_CFG)


# ---------------------------------------------------------------------------
# independent oracle: exhaustive grid search over constrained coefficients
# ---------------------------------------------------------------------------

def _coefficient_grid(n_slots: int, n_mag: int = 12, n_phase: int = 12):
    """All coefficient vectors on a magnitude/phase lattice.

    The first slot is real nonnegative (a global phase never moves a
    marginal); every further slot sweeps magnitude and phase.
    """
    mags = np.linspace(DELTA, 1.0, n_mag)
    phases = np.linspace(0.0, 2.0 * math.pi, n_phase, endpoint=False)
    ring = (mags[:, None] * np.exp(1j * phases)[None, :]).ravel()
    axes = [mags] + [ring] * (n_slots - 1)
    out = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)
    return out.reshape(-1, n_slots).astype(np.complex128)


def _grid_min_residual(p0: BasisPattern, p1: BasisPattern) -> float:
    """Smallest marginal-equality residual over the constrained grid."""
    best = math.inf
    m0 = _admissible_marginals(p0, _coefficient_grid(len(p0)))
    m1 = _admissible_marginals(p1, _coefficient_grid(len(p1)))
    for i in range(0, len(m0[0]), 256):
        dA = m0[0][i:i + 256, None] - m1[0][None, :]
        dB = m0[1][i:i + 256, None] - m1[1][None, :]
        r2 = (np.sum(np.abs(dA) ** 2, axis=(2, 3))
              + np.sum(np.abs(dB) ** 2, axis=(2, 3)))
        best = min(best, math.sqrt(float(r2.min())))
    return best


def _admissible_marginals(p: BasisPattern, coeffs: np.ndarray):
    """Both marginals of every grid state obeying floor + unit norm."""
    S = p.slot_matrix()
    merged = coeffs @ S.T
    norms = np.linalg.norm(merged, axis=1)
    ok = norms > 1e-9
    slots_ok = (np.abs(coeffs) / np.where(ok, norms, 1.0)[:, None]
                >= DELTA - 1e-12).all(axis=1)
    keep = ok & slots_ok
    vecs = merged[keep] / norms[keep][:, None]
    mats = vecs.reshape(-1, 2, 2)
    margA = np.einsum("nij,nkj->nik", mats, mats.conj())   # Tr_B
    margB = np.einsum("nji,njk->nik", mats, mats.conj())   # Tr_A
    return margA, margB


GRID_ORACLE_ROWS = [
    # same single ket: trivially feasible
    (("00",), ("00",), FeasibilityStatus.FEASIBLE),
    (("01",), ("01",), FeasibilityStatus.FEASIBLE),
    # different single kets: marginals are distinct pure states
    (("00",), ("01",), FeasibilityStatus.INFEASIBLE),
    (("00",), ("11",), FeasibilityStatus.INFEASIBLE),
    # one ket vs two: the second slot's floor blocks purity
    (("00",), ("00", "01"), FeasibilityStatus.INFEASIBLE),
    # identical two-ket supports: equal coefficients always work
    (("00", "01"), ("00", "01"), FeasibilityStatus.FEASIBLE),
    # Bell-type split supports: balanced coefficients work
    (("00", "11"), ("01", "10"), FeasibilityStatus.FEASIBLE),
    # product states on crossing supports never agree on both sides
    (("00", "01"), ("00", "10"), FeasibilityStatus.INFEASIBLE),
]


@pytest.mark.parametrize("k0,k1,expected", GRID_ORACLE_ROWS,
                         ids=["+".join(r[0]) + "-vs-" + "+".join(r[1])
                              for r in GRID_ORACLE_ROWS])
def test_search_agrees_with_grid_oracle(k0, k1, expected):
    p0, p1 = BasisPattern(k0), BasisPattern(k1)
    outcome = feasible_eq4(p0, p1, FAST_CFG)
    assert outcome.status is expected
    grid_min = _grid_min_residual(p0, p1)
    if expected is FeasibilityStatus.FEASIBLE:
        assert grid_min <= 1e-9
    else:
        assert grid_min >= 1e-4


def test_single_ket_table_matches_grid_oracle(tables_run):
    results, _ = tables_run
    for res in results[1]:
        p0 = BasisPattern(res.row.psi0_kets)
        p1 = BasisPattern(res.row.psi1_kets)
        grid_feasible = _grid_min_residual(p0, p1) <= 1e-9
        assert grid_feasible == (res.outcome.status is FeasibilityStatus.FEASIBLE)


# ---------------------------------------------------------------------------
# search residuals against the reference conditions
# ---------------------------------------------------------------------------

SYSTEM_PATTERNS = duplicate_free_patterns() + [
    BasisPattern(("00", "00", "01")), BasisPattern(("11", "10", "11"))]
slot_values = st.lists(
    st.complex_numbers(min_magnitude=0.3, max_magnitude=1.0,
                       allow_nan=False, allow_infinity=False),
    min_size=4, max_size=4)


def _unit_slots(p: BasisPattern, values) -> np.ndarray:
    z = np.array(values[:len(p)])
    norm = np.linalg.norm(p.slot_matrix() @ z)
    assume(norm > 1e-3)
    return z / norm


@seed(3)
@settings(max_examples=200, deadline=None)
@given(p0=st.sampled_from(SYSTEM_PATTERNS),
       p1=st.sampled_from(SYSTEM_PATTERNS),
       v0=slot_values, v1=slot_values,
       phi=st.floats(min_value=0.0, max_value=2.0 * math.pi),
       full=st.booleans())
def test_search_residuals_match_conditions(p0, p1, v0, v1, phi, full):
    # at unit norm with every slot above the floor, the squared residual
    # norm is the reference marginal distance (plus, for the full system,
    # the cross norms and the overlap floor)
    system = _PairSystem(p0, p1, DELTA, full)
    z0, z1 = _unit_slots(p0, v0), _unit_slots(p1, v1)
    z = np.concatenate([z0, z1])
    assume(np.abs(z).min() >= system.delta_opt)
    theta = np.stack([z.real, z.imag], axis=-1).ravel()
    if full:
        theta = np.append(theta, phi)
    r = system.residuals(theta)

    psi0 = TwoQubitState.unit(p0.slot_matrix() @ z0)
    psi1 = TwoQubitState.unit(p1.slot_matrix() @ z1)
    rA, rB = reduced_pair_residual(psi0, psi1)
    expected = rA ** 2 + rB ** 2
    if full:
        b = QubitState.normalized(1.0, complex(np.exp(-1j * phi)))
        for sub in "AB":
            cross = cross_term_matrix(psi0, psi1, b, sub)
            expected += float(np.linalg.norm(cross)) ** 2
        overlap = abs(complex(np.vdot(psi0.vec, psi1.vec)))
        expected += max(0.0, system.delta_opt - overlap) ** 2
    assert float(r @ r) == pytest.approx(expected, abs=1e-12)


# ---------------------------------------------------------------------------
# search semantics
# ---------------------------------------------------------------------------

def test_feasible_outcome_carries_verified_witness():
    p0 = BasisPattern(("00", "11"))
    p1 = BasisPattern(("01", "10"))
    out = feasible_eq4(p0, p1, FAST_CFG)
    assert out.status is FeasibilityStatus.FEASIBLE
    w = out.witness
    assert w is not None and w.b is None
    for pat, coeffs, psi in ((p0, w.coeffs0, w.psi0), (p1, w.coeffs1, w.psi1)):
        assert min(abs(c) for c in coeffs) >= DELTA - 1e-9
        rebuilt, norm = assemble(pat, coeffs)
        assert norm == pytest.approx(1.0, abs=1e-9)
        np.testing.assert_allclose(rebuilt.vec / norm, psi.vec, atol=1e-9)
    assert max(reduced_pair_residual(w.psi0, w.psi1)) <= FAST_CFG.tol


def test_infeasible_outcome_reports_finite_floor():
    out = feasible_eq4(BasisPattern(("00",)), BasisPattern(("01",)), FAST_CFG)
    assert out.status is FeasibilityStatus.INFEASIBLE
    assert out.witness is None
    assert math.isfinite(out.best_residual)
    assert out.best_residual >= _INFEASIBLE_FLOOR
    assert out.restarts_used == FAST_CFG.restarts


def test_duplicate_ket_pattern_merges_before_deciding():
    # [00,00,01] merges to a two-slot state, so it can share marginals
    # with [00,01]
    out = feasible_eq4(BasisPattern(("00", "01")),
                       BasisPattern(("00", "00", "01")), FAST_CFG)
    assert out.status is FeasibilityStatus.FEASIBLE


def test_three_term_vs_full_support_is_feasible():
    # adding the missing fourth ket to a three-term state always admits
    # an equal-marginal partner
    out = feasible_eq4(BasisPattern(("00", "01", "10")),
                       BasisPattern(("00", "01", "10", "11")),
                       FeasibilityConfig(restarts=120, seed=42))
    assert out.status is FeasibilityStatus.FEASIBLE
    assert max(reduced_pair_residual(out.witness.psi0,
                                     out.witness.psi1)) <= 1e-8


def test_full_system_witness_carries_masked_qubit():
    p = BasisPattern(("00", "01", "10"))
    out = feasible_full(p, p, FeasibilityConfig(restarts=120, seed=42))
    assert out.status is FeasibilityStatus.FEASIBLE
    w = out.witness
    assert w.b is not None
    overlap = abs(np.vdot(w.psi0.vec, w.psi1.vec))
    assert overlap >= DELTA - 1e-9
    assert min(abs(a) for a in (w.b.alpha0, w.b.alpha1)) >= DELTA - 1e-9


def test_search_is_deterministic():
    p0 = BasisPattern(("00", "11"))
    p1 = BasisPattern(("01", "10"))
    a = feasible_eq4(p0, p1, FAST_CFG)
    b = feasible_eq4(p0, p1, FAST_CFG)
    assert a.best_residual == b.best_residual
    assert a.status is b.status
    np.testing.assert_array_equal(a.witness.psi0.vec, b.witness.psi0.vec)
    np.testing.assert_array_equal(a.witness.psi1.vec, b.witness.psi1.vec)


def test_seed_changes_search_path_not_verdicts():
    p0 = BasisPattern(("00", "11"))
    p1 = BasisPattern(("01", "10"))
    alt = feasible_eq4(p0, p1, FeasibilityConfig(restarts=60, seed=7))
    assert alt.status is FeasibilityStatus.FEASIBLE


def test_delta_domain_guard():
    # four slots cannot all carry magnitude >= 0.6 in a unit state
    with pytest.raises(ValueError):
        feasible_eq4(BasisPattern(("00", "01", "10", "11")),
                     BasisPattern(("00",)),
                     FeasibilityConfig(delta=0.6))
    # single kets allow any delta < 1, but the masked qubit cannot have
    # both |alpha_i| >= 0.75
    with pytest.raises(ValueError):
        feasible_full(BasisPattern(("00",)), BasisPattern(("11",)),
                      FeasibilityConfig(delta=0.75))


def test_table_results_keep_fixture_order(tables_run):
    results, _ = tables_run
    for n in (1, 2, 3, 4):
        assert [r.row.index for r in results[n]] == list(
            range(1, len(results[n]) + 1))
        assert all(r.row.table == n for r in results[n])


def test_agree_semantics(tables_run):
    results, _ = tables_run
    seen = set()
    for res in itertools.chain.from_iterable(results.values()):
        seen.add(res.outcome.status)
        expected_feasible = res.row.expected == "mask"
        actually_feasible = res.outcome.status is FeasibilityStatus.FEASIBLE
        assert res.agree == (expected_feasible == actually_feasible)
    assert FeasibilityStatus.INCONCLUSIVE not in seen
