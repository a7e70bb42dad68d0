"""Pattern feasibility: the certified bounds, the eq4 search, the full
system's formula witnesses, verdict tables, and the support scan."""

import collections
import dataclasses
import functools
import hashlib
import itertools
import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, seed, settings
from hypothesis import strategies as st

from qmask import patterns, qlinalg
from qmask.conditions import (
    cross_term_matrix,
    masking_partner,
    masks_state,
    reduced_pair_residual,
)
from qmask.patterns import (
    _DUPLICATE_FREE,
    _INFEASIBLE_FLOOR,
    KET_LABELS,
    BasisPattern,
    FeasibilityConfig,
    FeasibilityOutcome,
    FeasibilityStatus,
    _PairSystem,
    _bound,
    _certificate,
    _diagonal_distance,
    _minimize_batch,
    _verify_candidate,
    assemble,
    feasible_eq4,
    feasible_full,
    load_table_fixture,
    reproduce_tables,
    support_theorem_scan,
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
    assert frozenset(p.kets) == frozenset({"00", "10"})
    assert len(p) == 3
    S = p.slot_matrix()
    assert S.shape == (4, 3)
    assert S is p.slot_matrix() and not S.flags.writeable  # built once
    np.testing.assert_allclose(S[:, 0], [0, 0, 1, 0])
    np.testing.assert_allclose(S[:, 1], [1, 0, 0, 0])


def test_pattern_stores_the_indices_the_labels_spell():
    # indices is stored once per pattern, not rebuilt on each read, and
    # holds 2*bitA + bitB of each label, for every fixture pattern
    fixture = [kets for row in load_table_fixture()
               for kets in (row.psi0_kets, row.psi1_kets)]
    for kets in fixture + [p.kets for p in _DUPLICATE_FREE]:
        p = BasisPattern(kets)
        assert vars(p)["indices"] == p.indices == tuple(
            2 * int(k[0]) + int(k[1]) for k in kets)


@pytest.mark.parametrize("kets", [(), ("00",) * 5, ("02",), ("0",)])
def test_pattern_rejects_bad_kets(kets):
    with pytest.raises(ValueError):
        BasisPattern(kets)


def test_assemble_merges_duplicate_kets():
    with pytest.raises(ValueError):  # the merged amplitudes cancel
        assemble(BasisPattern(("00", "00")), [0.3, -0.3])
    state, norm = assemble(BasisPattern(("00", "11", "00")), [0.5, 0.5, 0.5])
    assert norm == pytest.approx(math.sqrt(1.25), abs=1e-12)
    np.testing.assert_allclose(state.vec * norm, [1.0, 0.0, 0.0, 0.5])


@seed(11)
@settings(max_examples=200, deadline=None)
@given(v=st.lists(st.complex_numbers(max_magnitude=1e150, allow_nan=False,
                                     allow_infinity=False),
                  min_size=4, max_size=4),
       e=st.integers(-1600, 0))
def test_assemble_norm_is_numpys_bit_for_bit(v, e):
    # parts down to the subnormals, the vector scaled by 2^e: where the
    # moduli sum keeps the squares normal floats, the norm that assemble
    # and TwoQubitState.unit divide by is np.linalg.norm's bit for bit;
    # elsewhere the prescaled norm times its scale is math.hypot's of the
    # eight parts to 1e-15, or to one step where it is itself subnormal
    v = [complex(math.ldexp(c.real, e), math.ldexp(c.imag, e)) for c in v]
    assume(any(v))
    _, norm = assemble(BasisPattern(KET_LABELS), v)
    if 2.0 ** -509 <= sum(map(abs, v)) <= 2.0 ** 510:
        assert norm == float(np.linalg.norm(np.array(v, dtype=complex)))
    else:
        expected = math.hypot(*(x for c in v for x in (c.real, c.imag)))
        assert math.isclose(norm, expected, rel_tol=1e-15,
                            abs_tol=math.ulp(0.0))


@pytest.mark.parametrize("coeffs, expected", [
    ([0.6, 0.8j, 0.3], float(np.linalg.norm([0.6, 0.8j, 0.3]))),
    ([1e150, -2e150j, 3e150], float(np.linalg.norm([1e150, 2e150, 3e150]))),
    # |1e200|^2 overflows: _norm([1, 1e-200, 1e-200]) = 1, times 1e200
    ([1e200, 1.0, 1.0], 1e200),
    # prescaled by 2^700 exactly, to a norm of exactly 1.25
    ([0.75 * 2.0 ** 700, -1j * 2.0 ** 700, 1.0], 1.25 * 2.0 ** 700),
    # the squares underflow: prescaled by the largest part
    ([5e-324], 5e-324),
    ([1e-170], 1e-170),
    ([3e-160, 4e-160], 5e-160),
    # the moduli sum 7e-155 lies below 2^-509: subnormal squares lose bits
    ([3e-155, 4e-155], 5e-155),
])
def test_assemble_norm_is_finite_past_the_float_range(coeffs, expected):
    # the bits are np.linalg.norm's where its squares stay normal, and
    # the prescaled norm times the scale where they do not, with no
    # overflow warning (the suite makes it an error); the state is
    # TwoQubitState.unit's bit for bit either way
    pattern = BasisPattern(KET_LABELS[:len(coeffs)])
    state, norm = assemble(pattern, coeffs)
    assert norm == expected
    merged = pattern.slot_matrix() @ np.array(coeffs, dtype=complex)
    assert state.vec.tobytes() == TwoQubitState.unit(merged).vec.tobytes()


def test_assemble_rejects_wrong_length():
    with pytest.raises(ValueError):
        assemble(BasisPattern(("00", "11")), [1.0])


def test_duplicate_free_patterns_enumeration():
    pats = _DUPLICATE_FREE
    assert len(pats) == 15
    sizes = [len(p) for p in pats]
    assert sizes == sorted(sizes)
    assert sizes.count(1) == 4 and sizes.count(2) == 6
    assert sizes.count(3) == 4 and sizes.count(4) == 1
    assert len({p.kets for p in pats}) == 15
    # the order of a loop over the 15 ket bitmasks, sorted by length
    # then labels
    masks = (tuple(k for i, k in enumerate(KET_LABELS) if m >> i & 1)
             for m in range(1, 16))
    expected = sorted(masks, key=lambda kets: (len(kets), kets))
    assert [p.kets for p in pats] == expected


def test_config_validation():
    with pytest.raises(TypeError):  # the witness tolerance is fixed
        FeasibilityConfig(tol=0.0)
    with pytest.raises(TypeError):
        FeasibilityConfig(tol=_INFEASIBLE_FLOOR)
    with pytest.raises(ValueError):
        FeasibilityConfig(restarts=0)
    with pytest.raises(ValueError, match="seed"):
        FeasibilityConfig(seed=-1)
    with pytest.raises(ValueError, match="restarts must be an integer"):
        FeasibilityConfig(restarts=2.5)
    # NumPy's index range bounds the count
    assert FeasibilityConfig(restarts=2 ** 63 - 1).restarts == 2 ** 63 - 1
    with pytest.raises(ValueError, match="restarts must be at most"):
        FeasibilityConfig(restarts=2 ** 63)
    with pytest.raises(ValueError, match="seed must be an integer"):
        FeasibilityConfig(seed=42.0)
    assert FeasibilityConfig(restarts=np.int64(3)).restarts == 3
    assert FeasibilityConfig(seed=np.int64(0)).seed == 0
    # bool is an int subclass, but not a count or a seed
    for kw in ({"restarts": True}, {"seed": False}, {"seed": True}):
        with pytest.raises(ValueError, match="must be an integer"):
            FeasibilityConfig(**kw)
    with pytest.raises(TypeError):  # the floor is fixed
        FeasibilityConfig(delta=0.2)
    assert FeasibilityConfig().delta == 0.1
    assert FeasibilityConfig().tol == 1e-8 < _INFEASIBLE_FLOOR


def test_fixture_row_counts():
    rows = load_table_fixture()
    per_table = {n: [r for r in rows if r.table == n] for n in (1, 2, 3, 4)}
    assert [len(per_table[n]) for n in (1, 2, 3, 4)] == [16, 42, 32, 16]
    assert patterns.TABLES == tuple(sorted({r.table for r in rows}))
    masks = {n: sum(r.expected == "mask" for r in per_table[n])
             for n in (1, 2, 3, 4)}
    assert masks == {1: 4, 2: 6, 3: 4, 4: 1}
    # indices are 1-based and contiguous per table
    for n, chunk in per_table.items():
        assert [r.index for r in chunk] == list(range(1, len(chunk) + 1))


def test_fixture_loader_rejects_corrupt_file(tmp_path, monkeypatch):
    from qmask import patterns as mod

    bad = tmp_path / "fixture.json"
    monkeypatch.setattr(mod, "fixture_path", lambda: bad)
    good = {"table": 1, "psi0_kets": ["00"], "psi1_kets": ["00"],
            "expected": "mask"}
    for field, value in [("table", 9), ("table", 1.5), ("table", True),
                         ("table", "2"), ("psi0_kets", "00"),
                         ("psi1_kets", [0])]:
        bad.write_text(json.dumps([{**good, field: value}]))
        with pytest.raises(ValueError, match="malformed fixture row"):
            mod.load_table_fixture()
    bad.write_text(json.dumps([good]))
    assert mod.load_table_fixture()[0].table == 1
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
    # True == 1 and 1.0 == 1, but neither names a table
    for tables in ([5], [1, 0], [True], [2, False], [1.0], ["1"]):
        with pytest.raises(ValueError):
            reproduce_tables(tables, FAST_CFG)


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
    # the certified bound never exceeds a residual the grid attains,
    # up to the rounding of either side
    assert _bound(p0.counts, p1.counts, DELTA, False) <= grid_min + 1e-12


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

SYSTEM_PATTERNS = [*_DUPLICATE_FREE, BasisPattern(("00", "00", "01")),
                   BasisPattern(("11", "10", "11"))]
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
       v0=slot_values, v1=slot_values)
def test_search_residuals_match_conditions(p0, p1, v0, v1):
    # at unit norm with every slot above the floor, the squared residual
    # norm is the reference marginal distance
    system = _PairSystem(p0, p1, DELTA)
    z0, z1 = _unit_slots(p0, v0), _unit_slots(p1, v1)
    z = np.concatenate([z0, z1])
    assume(np.abs(z).min() >= system.delta_opt)
    theta = np.stack([z.real, z.imag], axis=-1).ravel()
    r = system.residuals(theta)

    psi0 = TwoQubitState.unit(p0.slot_matrix() @ z0)
    psi1 = TwoQubitState.unit(p1.slot_matrix() @ z1)
    rA, rB = reduced_pair_residual(psi0, psi1)
    expected = rA ** 2 + rB ** 2
    assert len(r) == system.n_forms + system.n
    assert float(r @ r) == pytest.approx(expected, abs=1e-12)


def _kink_free_point(rng, low: int, high: int) -> np.ndarray:
    """Random theta with ``low`` slots below the floor and ``high`` above,
    every |slot| at least 1e-2 from the floor delta_opt and from zero."""
    mag = np.r_[rng.uniform(0.02, 0.09, low), rng.uniform(0.3, 1.0, high)]
    z = rng.permutation(mag) * np.exp(2j * math.pi * rng.random(len(mag)))
    return np.stack([z.real, z.imag], axis=-1).ravel()


def test_pair_system_jacobian_matches_central_differences():
    # slots clear of the floor, some slots on the active side of their
    # hinge, and every slot below the floor
    rng = np.random.default_rng(11)
    h = 1e-6
    for p0, p1 in itertools.product(SYSTEM_PATTERNS, repeat=2):
        system = _PairSystem(p0, p1, DELTA)
        n = system.n
        theta = np.stack([_kink_free_point(rng, 0, n),
                          _kink_free_point(rng, n // 2, n - n // 2),
                          _kink_free_point(rng, n, 0)])
        J = system.jacobian(theta)
        step = h * np.eye(system.n_params)[:, None, :]
        fd = (system.residuals(theta + step)
              - system.residuals(theta - step)) / (2.0 * h)
        np.testing.assert_allclose(J, fd.transpose(1, 2, 0), rtol=0,
                                   atol=1e-7)
        r = system.residuals(theta)
        np.testing.assert_array_equal(system.residuals(theta[0]), r[0])
        # the last point has every slot hinge active
        assert (r[2, system.n_forms:] > 0).all()


@pytest.mark.parametrize("kets0, kets1", [
    (("00", "11"), ("01", "10")),
    (("00", "00", "01"), ("00", "01")),
])
def test_search_rows_do_not_depend_on_batch(kets0, kets1):
    # each restart row converges to the same bits alone, in a subset of
    # rows, or in the whole batch
    system = _PairSystem(BasisPattern(kets0), BasisPattern(kets1), DELTA)
    start = system.initial_points(42, range(6))
    steps = np.zeros(6, dtype=np.int64)
    whole = _minimize_batch(system, start.copy(), 300, steps)
    for rows in [[k] for k in range(6)] + [[1, 4]]:
        counted = np.zeros(len(rows), dtype=np.int64)
        np.testing.assert_array_equal(
            _minimize_batch(system, start[rows], 300, counted), whole[rows])
        np.testing.assert_array_equal(counted, steps[rows])
    # a later block draws its starts by restart index
    np.testing.assert_array_equal(system.initial_points(42, range(2, 5)),
                                  start[2:5])


def test_search_minimises_restarts_in_blocks_of_64(monkeypatch):
    # 200 restarts are built and minimised as blocks of 64, 64, 64 and 8
    # rows, never as one (200, p) batch, and give the outcome of the
    # whole batch bit for bit: the first minimum in restart-index order
    p0, p1 = BasisPattern(("00", "11")), BasisPattern(("01", "10"))
    cfg = FeasibilityConfig(restarts=200, seed=42)
    shapes = []

    def recording(system, theta, iters, steps):
        shapes.append(theta.shape)
        return _minimize_batch(system, theta, iters, steps)

    monkeypatch.setattr(patterns, "_minimize_batch", recording)
    out = feasible_eq4(p0, p1, cfg)
    n_params = 2 * (len(p0) + len(p1))
    assert shapes == [(64, n_params)] * 3 + [(8, n_params)]

    system = _PairSystem(p0, p1, DELTA)
    steps = np.zeros(200, dtype=np.int64)
    whole = _minimize_batch(system, system.initial_points(42, range(200)),
                            patterns._ITERS, steps)
    checked = [c for c in (_verify_candidate(p0, p1, z, DELTA, False)
                           for z in whole.view(np.complex128))
               if c is not None]
    residual, witness = min(checked, key=lambda c: c[0])
    assert out.status is FeasibilityStatus.FEASIBLE
    assert (out.best_residual, out.iterations) == (residual, steps.sum())
    assert (out.witness.coeffs0, out.witness.coeffs1) == (witness.coeffs0,
                                                          witness.coeffs1)


# ---------------------------------------------------------------------------
# the certified eq4 lower bound
# ---------------------------------------------------------------------------

pattern_kets = st.lists(st.sampled_from(KET_LABELS), min_size=1, max_size=4)
bound_slots = st.lists(
    st.complex_numbers(min_magnitude=DELTA, max_magnitude=1.0,
                       allow_nan=False, allow_infinity=False),
    min_size=4, max_size=4)


def _admissible_slots(p: BasisPattern, values, pinned) -> np.ndarray:
    """Slots from ``values``; a pinned or low slot moves onto the floor
    |c| = delta (relative to the merged norm), or a pinned copy of a ket
    cancels its first copy."""
    c = np.array(values[:len(p)])
    for _ in range(30):
        norm = np.linalg.norm(p.slot_matrix() @ c)
        if norm <= 1e-6:
            break
        c /= norm
        for k, ket in enumerate(p.kets):
            if pinned[k] and ket in p.kets[:k]:
                c[k] = -c[p.kets.index(ket)]
            elif pinned[k] or abs(c[k]) < DELTA:
                c[k] *= DELTA / abs(c[k])
    norm = np.linalg.norm(p.slot_matrix() @ c)
    # admissible: merged norm > 0 and every pre-merge |c| >= delta, up
    # to the witness check's slack, once the merged state has unit norm
    assume(norm > 1e-6 and np.abs(c).min() >= (DELTA - 1e-12) * norm)
    return c


@seed(5)
@settings(max_examples=300, deadline=None)
@given(kets0=pattern_kets, kets1=pattern_kets, v0=bound_slots, v1=bound_slots,
       pin0=st.lists(st.booleans(), min_size=4, max_size=4),
       pin1=st.lists(st.booleans(), min_size=4, max_size=4))
def test_eq4_bound_is_below_every_admissible_residual(kets0, kets1, v0, v1,
                                                      pin0, pin1):
    p0, p1 = BasisPattern(tuple(kets0)), BasisPattern(tuple(kets1))
    states = [assemble(p, _admissible_slots(p, v, pin))[0]
              for p, v, pin in ((p0, v0, pin0), (p1, v1, pin1))]
    bound = _bound(p0.counts, p1.counts, DELTA, False)
    assert max(reduced_pair_residual(*states)) >= bound - 1e-12
    # the eq4 lines of masks_state are entrywise, so the full system's
    # bound drops the factor sqrt(2)
    plus = QubitState.normalized(1.0, 1.0)
    assert max(masks_state(plus, *states).eq4_residuals) >= \
        bound / math.sqrt(2.0) - 1e-12


def test_eq4_bound_uses_the_witness_check_floor():
    # Y = |c00|^2 <= 1 - |c01|^2 stays a floor below 1: the floor the
    # witness check admits, (delta - 1e-12)^2, not delta^2
    bound = _bound(BasisPattern(("00",)).counts,
                   BasisPattern(("00", "01")).counts, DELTA, False)
    assert bound == pytest.approx(math.sqrt(2.0) * (DELTA - 1e-12) ** 2,
                                  rel=1e-13)


def test_eq4_bound_separates_table_verdicts(tables_run):
    # positive on exactly the Infeasible rows, which it decides alone
    results, _ = tables_run
    for res in itertools.chain.from_iterable(results.values()):
        out = res.outcome
        bound = _bound(BasisPattern(res.row.psi0_kets).counts,
                       BasisPattern(res.row.psi1_kets).counts, DELTA, False)
        if out.status is FeasibilityStatus.FEASIBLE:
            assert bound < 1e-6
            assert out.decided_by == "search"
        else:
            assert bound >= 0.0141
            assert out.decided_by == "bound"
            assert out.best_residual == bound


_MAXIMALLY_ENTANGLED = {frozenset({"00", "11"}), frozenset({"01", "10"}),
                        frozenset(KET_LABELS)}


def _partners(s0: frozenset, s1: frozenset) -> bool:
    """A three-ket support against full support, or two three-ket
    supports whose missing kets differ in one bit."""
    if {len(s0), len(s1)} == {3, 4}:
        return True
    if len(s0) == len(s1) == 3:
        (m0,), (m1,) = set(KET_LABELS) - s0, set(KET_LABELS) - s1
        return sum(a != b for a, b in zip(m0, m1)) == 1
    return False


def _related(s0: frozenset, s1: frozenset) -> bool:
    """Supports that two pure states with equal marginals can have: equal,
    both of a maximally entangled state, or `_partners`."""
    return (s0 == s1 or {s0, s1} <= _MAXIMALLY_ENTANGLED
            or _partners(s0, s1))


#: the 69 sorted multisets of 1-4 kets
_MULTISETS = [kets for n in range(1, 5) for kets in
              itertools.combinations_with_replacement(KET_LABELS, n)]


def _fitting_supports(kets) -> list[frozenset]:
    """The nonempty supports S with single kets <= S <= listed kets: a
    ket listed twice or more can merge to any value, 0 included."""
    singles = {k for k in kets if kets.count(k) == 1}
    optional = sorted(set(kets) - singles)
    return [frozenset(singles.union(extra))
            for n in range(len(optional) + 1)
            for extra in itertools.combinations(optional, n)
            if singles or extra]


def test_eq4_bound_certifies_exactly_the_unrelated_support_pairs():
    assert len(_MULTISETS) == 69
    related, duplicate_free = 0, []
    for kets0, kets1 in itertools.product(_MULTISETS, repeat=2):
        r = any(_related(s0, s1) for s0 in _fitting_supports(kets0)
                for s1 in _fitting_supports(kets1))
        certified = _bound(BasisPattern(kets0).counts,
                           BasisPattern(kets1).counts, DELTA,
                           False) >= _INFEASIBLE_FLOOR
        assert certified is not r, (kets0, kets1)
        related += r
        if len(set(kets0)) == len(kets0) and len(set(kets1)) == len(kets1):
            duplicate_free.append(r)
    assert related == 1301
    assert (len(duplicate_free), sum(duplicate_free)) == (225, 37)


def test_full_bound_certifies_exactly_the_pairs_no_witness_can_fit():
    # for the full system the maximally entangled supports do not count:
    # a pair is open iff two fitting supports are equal or partners
    open_pairs = 0
    for kets0, kets1 in itertools.product(_MULTISETS, repeat=2):
        fits = any(s0 == s1 or _partners(s0, s1)
                   for s0 in _fitting_supports(kets0)
                   for s1 in _fitting_supports(kets1))
        certified = _bound(BasisPattern(kets0).counts,
                           BasisPattern(kets1).counts, DELTA,
                           True) >= _INFEASIBLE_FLOOR
        assert certified is not fits, (kets0, kets1)
        open_pairs += fits
    assert open_pairs == 1157


def _assert_witness_is_its_candidate(p0, p1, z, witness):
    """The check contract: each side's state is `TwoQubitState.unit` of
    its merged vector S z, bit for bit, its coefficients are z / |S z|
    exactly, and they assemble back to the state."""
    for p, zp, coeffs, psi in ((p0, z[:len(p0)], witness.coeffs0,
                                witness.psi0),
                               (p1, z[len(p0):], witness.coeffs1,
                                witness.psi1)):
        merged = p.slot_matrix() @ zp
        np.testing.assert_array_equal(psi.vec,
                                      TwoQubitState.unit(merged).vec)
        assert coeffs == tuple(zp / np.linalg.norm(merged))
        state, norm = assemble(p, coeffs)
        assert norm == pytest.approx(1.0, abs=1e-15)
        np.testing.assert_allclose(state.vec, psi.vec, rtol=0, atol=1e-15)


def test_full_system_decides_every_multiset_pair_without_a_search(
        monkeypatch):
    # on all 4761 ordered multiset pairs: Feasible exactly where no
    # certificate applies, never Inconclusive, and no search, solve or
    # einsum runs; every witness re-verifies at |+>, with the overlap
    # and slot floors, and holds the check contract on the one slot
    # vector it was checked on
    def no_search(*args, **kwargs):
        raise AssertionError("the full system ran a search")

    for module, name in ((patterns, "_minimize_batch"), (np.linalg, "solve"),
                         (np, "einsum")):
        monkeypatch.setattr(module, name, no_search)
    given = []
    verify = patterns._verify_candidate

    def recording(p0, p1, z, delta, full):
        given.append(z)
        return verify(p0, p1, z, delta, full)

    monkeypatch.setattr(patterns, "_verify_candidate", recording)
    plus = QubitState.normalized(1.0, 1.0)
    cfg = FeasibilityConfig(restarts=1)
    feasible = 0
    for kets0, kets1 in itertools.product(_MULTISETS, repeat=2):
        p0, p1 = BasisPattern(kets0), BasisPattern(kets1)
        out = feasible_full(p0, p1, cfg)
        certified = _certificate(p0.counts, p1.counts, DELTA, True)
        if certified is not None:
            assert out is certified
            continue
        feasible += 1
        assert out.status is FeasibilityStatus.FEASIBLE, (kets0, kets1)
        assert (out.decided_by, out.iterations) == ("relation", 0)
        w = out.witness
        assert w.b == plus
        residuals = masks_state(plus, w.psi0, w.psi1).residuals()
        assert max(residuals) == out.best_residual <= 1e-8
        assert abs(np.vdot(w.psi0.vec, w.psi1.vec)) >= DELTA - 1e-12
        assert min(map(abs, w.coeffs0 + w.coeffs1)) >= DELTA - 1e-12
        (z,) = given
        given.clear()
        _assert_witness_is_its_candidate(p0, p1, z, w)
    assert feasible == 1157


def test_entangled_support_identities_hold_exactly():
    # with Psi0 = (a, 0, 0, d) and Psi1 = (p, q, r, s): conj(w) for
    # w = <Psi0|Psi1> is 2 Re(d s*) + (a p* - d* s), and
    # q (a p* - d* s) = a F* - E s with F = p q* + r s*, E = a r* + d* q
    import sympy as sp

    a, d, p, q, r, s = (sp.Symbol(f"{n}r", real=True)
                        + sp.I * sp.Symbol(f"{n}i", real=True)
                        for n in "adpqrs")
    c = sp.conjugate
    w = c(a) * p + c(d) * s
    F = p * c(q) + r * c(s)
    E = a * c(r) + c(d) * q
    assert sp.expand(c(w) - (2 * sp.re(d * c(s)) + a * c(p) - c(d) * s)) == 0
    assert sp.expand(q * (a * c(p) - c(d) * s) - (a * c(F) - E * s)) == 0


def test_masking_partner_shares_both_marginals_exactly():
    # for M = [[a, b], [c, d]] and N = M - 2 det(M) [[d*, -c*], [-b*, a*]]:
    # N N^dag - (1 - 4|det M|^2) M M^dag = 4|det M|^2 (||M||^2 - 1) I, and
    # the same for N^dag N, so at unit norm N / sqrt(1 - C^2), C = 2|det M|,
    # has both marginals of M; and tr(M^dag N) is real
    import sympy as sp

    a, b, c, d = (sp.Symbol(f"{n}r", real=True)
                  + sp.I * sp.Symbol(f"{n}i", real=True) for n in "abcd")
    M = sp.Matrix([[a, b], [c, d]])
    det = M.det()
    N = M - 2 * det * sp.Matrix([[d, -c], [-b, a]]).conjugate()
    det2 = det * sp.conjugate(det)
    norm2 = sum(x * sp.conjugate(x) for x in (a, b, c, d))
    for NN, MM in ((N * N.H, M * M.H), (N.H * N, M.H * M)):
        gap = NN - (1 - 4 * det2) * MM - 4 * det2 * (norm2 - 1) * sp.eye(2)
        assert sp.expand(gap) == sp.zeros(2, 2)
    overlap = (M.H * N).trace()
    assert sp.expand(overlap - sp.conjugate(overlap)) == 0


_THREE = ("00", "01", "10")


@pytest.mark.parametrize("m, kets1, overlap", [
    (np.array([1.0, 1.0, 1.0, 0.0]) / math.sqrt(3.0), KET_LABELS, 0.745),
    (np.array([0.5, 0.5, math.sqrt(0.5), 0.0]), ("00", "10", "11"), 0.707),
    (np.array([0.5, math.sqrt(0.5), 0.5, 0.0]), ("00", "01", "11"), 0.707),
], ids=["full-support", "drops-01", "drops-10"])
def test_witness_check_accepts_masking_partners(m, kets1, overlap):
    # a witness built from a formula, not found by a search: P(M) has
    # M's marginals (eq4), and i P(M) masks |+> (the full system)
    p0, p1 = BasisPattern(_THREE), BasisPattern(kets1)
    partner = masking_partner(TwoQubitState.unit(m)).vec[list(p1.indices)]
    for full, phase in ((False, 1.0), (True, 1j)):
        z = np.r_[m[:3], phase * partner].astype(complex)
        residual, w = _verify_candidate(p0, p1, z, DELTA, full)
        assert residual <= 1e-15
        assert (w.b is not None) is full
        assert abs(np.vdot(w.psi0.vec, w.psi1.vec)) == pytest.approx(
            overlap, abs=1e-3)
        # the check rescales each pattern's slots to unit merged norm
        scaled, _ = _verify_candidate(p0, p1, np.r_[3.0 * z[:3], z[3:]],
                                      DELTA, full)
        assert scaled == pytest.approx(residual, abs=1e-15)


def test_witness_check_applies_the_floors():
    # Psi1 = i Psi0 on full support masks |+> at overlap 1
    u = np.full(4, 0.5 + 0j)
    full_support = BasisPattern(KET_LABELS)
    for full in (False, True):
        residual, _ = _verify_candidate(full_support, full_support,
                                        np.r_[u, 1j * u], DELTA, full)
        assert residual <= 1e-15
    # two Bell states share their marginals, but have overlap 0
    bell0, bell1 = BasisPattern(("00", "11")), BasisPattern(("01", "10"))
    z = np.full(4, math.sqrt(0.5) + 0j)
    residual, _ = _verify_candidate(bell0, bell1, z, DELTA, False)
    assert residual <= 1e-15
    assert _verify_candidate(bell0, bell1, z, DELTA, True) is None
    # a slot of 0.1 = delta falls to 0.1 / sqrt(3.01) < delta at unit
    # norm: rejected at delta, accepted at a floor below it
    v = np.array([1.0, 1.0, 1.0, 0.1], dtype=complex)
    for full in (False, True):
        assert _verify_candidate(full_support, full_support,
                                 np.r_[v, 1j * v], DELTA, full) is None
        residual, w = _verify_candidate(full_support, full_support,
                                        np.r_[v, 1j * v], 0.05, full)
        assert residual <= 1e-15
        assert min(map(abs, w.coeffs0)) == pytest.approx(
            0.1 / math.sqrt(3.01))


def test_witness_check_takes_a_full_support_maximally_entangled_state():
    # (1,1,1,-1)/2 and (1,0,0,1)/sqrt2 are both maximally entangled, so
    # they share their marginals, but their overlap is 0
    p0, p1 = BasisPattern(KET_LABELS), BasisPattern(("00", "11"))
    z = np.r_[np.array([1.0, 1.0, 1.0, -1.0]) / 2.0,
              np.full(2, math.sqrt(0.5))].astype(complex)
    residual, w = _verify_candidate(p0, p1, z, DELTA, False)
    assert residual <= 1e-15
    assert abs(np.vdot(w.psi0.vec, w.psi1.vec)) <= 1e-15
    assert _verify_candidate(p0, p1, z, DELTA, True) is None


def test_witness_check_takes_a_duplicated_ket_merged_to_zero():
    # 00 is listed twice with slots 0.3 and -0.3: it merges to 0, while
    # every slot keeps the floor, so Psi0 = |11> and Psi1 = i|11> mask
    p0, p1 = BasisPattern(("00", "00", "11")), BasisPattern(("11",))
    for full, phase in ((False, 1.0), (True, 1j)):
        z = np.array([0.3, -0.3, 1.0, phase], dtype=complex)
        residual, w = _verify_candidate(p0, p1, z, DELTA, full)
        assert residual <= 1e-15
        assert min(map(abs, w.coeffs0 + w.coeffs1)) >= DELTA
        np.testing.assert_array_equal(w.psi0.vec, [0, 0, 0, 1])
        np.testing.assert_array_equal(w.psi1.vec, [0, 0, 0, phase])


@pytest.mark.parametrize("full", [False, True])
def test_a_passing_check_normalises_each_side_once(monkeypatch, full):
    # one _norm call per side, on a witness with a duplicated ket and a
    # rescaling: each state is built from the norm its side already took,
    # counted through qlinalg and the name patterns imports
    calls = []
    norm = qlinalg._norm

    def counting(v):
        calls.append(v)
        return norm(v)

    monkeypatch.setattr(qlinalg, "_norm", counting)
    monkeypatch.setattr(patterns, "_norm", counting)
    p0, p1 = BasisPattern(("00", "00", "11")), BasisPattern(("11",))
    z = np.array([0.3, -0.3, 1.3, 0.7j if full else 0.7], dtype=complex)
    residual, w = _verify_candidate(p0, p1, z, DELTA, full)
    assert residual <= 1e-15
    assert len(calls) == 2
    _assert_witness_is_its_candidate(p0, p1, z, w)


@pytest.mark.parametrize("full", [False, True])
@pytest.mark.parametrize("norm", [5e153, 1.0, 1e-11])
def test_check_states_are_unit_of_the_merged_vector_at_any_norm(norm, full):
    # each side's slots scaled to a merged norm above 2^509, where the
    # moduli sum can pass 2^510 and unit prescales, at 1, and at 1e-11,
    # just above the check's cancellation floor: every state is
    # TwoQubitState.unit of its merged vector bit for bit
    p0, p1 = (BasisPattern(("00", "01", "01", "11")),
              BasisPattern(("00", "10", "11")))
    z0 = np.array([0.7, 0.4 - 0.3j, 0.9, 0.35j, 0.5j, 0.6, 0.45])
    z = np.concatenate([zp / np.linalg.norm(p.slot_matrix() @ zp) * norm
                        for p, zp in ((p0, z0[:4]), (p1, z0[4:]))])
    _, w = _verify_candidate(p0, p1, z, DELTA, full)
    for p, zp, psi in ((p0, z[:4], w.psi0), (p1, z[4:], w.psi1)):
        merged = p.slot_matrix() @ zp
        n = float(np.linalg.norm(merged))
        assert n == pytest.approx(norm, rel=1e-15)
        assert psi.vec.tobytes() == TwoQubitState.unit(merged).vec.tobytes()
        # only the prescaled path gives other bits than merged / n here
        prescaled = n > 2.0 ** 509
        assert prescaled is not np.array_equal(psi.vec, merged / n)
    _assert_witness_is_its_candidate(p0, p1, z, w)


def test_entangled_support_bound_holds_on_random_states():
    # the clause's inequality |w| <= eps (2 + (1 + sqrt(2)) / |q|), eps the
    # largest masks_state residual at |+>, for Psi0 on {00,11} or {01,10}
    # and q any amplitude of Psi1 outside that support, in either order
    rng = np.random.default_rng(29)
    plus = QubitState.normalized(1.0, 1.0)
    for support in ((0, 3), (1, 2)):
        for _ in range(500):
            v0 = np.zeros(4, dtype=complex)
            v0[list(support)] = rng.normal(size=2) + 1j * rng.normal(size=2)
            psi0 = TwoQubitState.unit(v0)
            psi1 = TwoQubitState.unit(rng.normal(size=4)
                                      + 1j * rng.normal(size=4))
            w = abs(np.vdot(psi0.vec, psi1.vec))
            if support == (0, 3):
                # the identities' terms are entries of the residuals
                (a, _, _, d), (p, q, r, s) = psi0.vec, psi1.vec
                A = cross_term_matrix(psi0, psi1, plus, "A")
                B = cross_term_matrix(psi0, psi1, plus, "B")
                assert A[1, 1] == pytest.approx((d * s.conjugate()).real,
                                                abs=1e-15)
                assert B[0, 1] == pytest.approx(
                    (a * r.conjugate() + d.conjugate() * q) / 2, abs=1e-15)
            for pair in ((psi0, psi1), (psi1, psi0)):
                eps = max(masks_state(plus, *pair).residuals())
                for k in set(range(4)) - set(support):
                    floored = abs(psi1.vec[k])
                    assert w <= eps * (
                        2.0 + (1.0 + math.sqrt(2.0)) / floored) + 1e-12


def test_entangled_support_bound_decides_the_last_scan_pairs():
    # {00,11} or {01,10} against full support, in either order: no eq4
    # bound applies (both supports can be maximally entangled), and the
    # clause gives f^2 / (2f + 1 + sqrt(2)) ~ 3.83e-3 exactly.  It is not
    # tight: a random-restart search of the full system once reached
    # residuals of 0.1000000000000527 there, and none smaller
    f = DELTA - 1e-12  # the witness check's floor on |slot| and overlap
    bound = f * f / (2.0 * f + 1.0 + math.sqrt(2.0))
    assert 3.82e-3 < bound < 3.83e-3
    assert bound < 0.099  # below the residual that search reached
    full = BasisPattern(KET_LABELS)
    for kets in (("00", "11"), ("01", "10")):
        for p0, p1 in ((BasisPattern(kets), full), (full, BasisPattern(kets))):
            assert _bound(p0.counts, p1.counts, DELTA,
                          False) < _INFEASIBLE_FLOOR
            assert _bound(p0.counts, p1.counts, DELTA, True) == bound
            out = feasible_full(p0, p1, FeasibilityConfig(restarts=2))
            assert out == FeasibilityOutcome(FeasibilityStatus.INFEASIBLE,
                                             bound)


def _diagonal_lp(kets0, kets1) -> float:
    """min ||(X0, Y0) - (X1, Y1)||_inf over both moduli^2 boxes, by linprog."""
    from scipy.optimize import linprog

    floor = (DELTA - 1e-12) ** 2
    bounds = []
    for kets in (kets0, kets1):
        for k in KET_LABELS:
            n = kets.count(k)
            bounds.append((floor if n == 1 else 0.0, 1.0 if n else 0.0))
    bounds.append((0.0, None))
    X, Y = [1, 1, 0, 0], [1, 0, 1, 0]
    A_ub = [[s * a for a in line] + [-s * a for a in line] + [-1.0]
            for line in (X, Y) for s in (1.0, -1.0)]
    A_eq = [[1.0] * 4 + [0.0] * 4 + [0.0], [0.0] * 4 + [1.0] * 4 + [0.0]]
    res = linprog([0.0] * 8 + [1.0], A_ub=A_ub, b_ub=[0.0] * 4, A_eq=A_eq,
                  b_eq=[1.0, 1.0], bounds=bounds, method="highs")
    assert res.status == 0
    return res.fun


def _counts(kets) -> list[int]:
    return [kets.count(k) for k in KET_LABELS]


def test_diagonal_bound_matches_linprog():
    pairs = [(r.psi0_kets, r.psi1_kets) for r in load_table_fixture()]
    pats = [p.kets for p in _DUPLICATE_FREE]
    pairs += list(itertools.product(pats, repeat=2))
    assert len(pairs) == 106 + 225
    floor = (DELTA - 1e-12) ** 2
    for kets0, kets1 in pairs:
        assert _diagonal_distance(_counts(kets0), _counts(kets1), floor) \
            == pytest.approx(_diagonal_lp(kets0, kets1), abs=1e-9)


def _vertex_polygon(counts: list[int], floor: float) -> set:
    """(X, Y) at every vertex of the moduli^2 box cut by sum(m) = 1: all
    coordinates but one at a box bound."""
    lo = [floor if n == 1 else 0.0 for n in counts]
    hi = [1.0 if n else 0.0 for n in counts]
    points = set()
    for free in (k for k in range(4) if counts[k]):
        others = [k for k in range(4) if k != free]
        for bits in range(8):
            m = [0.0] * 4
            for j, k in enumerate(others):
                m[k] = hi[k] if bits >> j & 1 else lo[k]
            m[free] = 1.0 - sum(m)
            if lo[free] <= m[free] <= hi[free]:
                points.add((m[0] + m[1], m[0] + m[2]))
    return points


def _pairwise_linf_distance(P: set, Q: set) -> float:
    """max over |w|_1 = 1 of min_P <w, p> - max_Q <w, q>, or 0: tried at
    the L1 ball's vertices and at every normal to a difference of two
    points of one set, where the concave maximand can turn."""
    dirs = [(1.0, 0.0), (-1.0, 0.0), (0.0, 1.0), (0.0, -1.0)]
    for pts in (P, Q):
        for x0, y0 in pts:
            for x1, y1 in pts:
                s = abs(x1 - x0) + abs(y1 - y0)
                if s > 0.0:
                    dirs.append(((y1 - y0) / s, (x0 - x1) / s))
    return max(0.0, max(min(wx * x + wy * y for x, y in P)
                        - max(wx * x + wy * y for x, y in Q)
                        for wx, wy in dirs))


@functools.cache
def _exact_ranges(counts: tuple, floor: Fraction) -> tuple:
    """A pattern's (min, max) of X, Y, (X+Y)/2 and (X-Y)/2 in rational
    arithmetic, from the definition: the moduli^2 set is the simplex with
    vertices lo + (1 - sum(lo)) e_k over listed kets k, mapped to
    (X, Y) = (m00 + m01, m00 + m10).  Cached: 69 multisets, 4761 pairs."""
    normals = [(1, 0), (0, 1), (Fraction(1, 2), Fraction(1, 2)),
               (Fraction(1, 2), Fraction(-1, 2))]
    lo = [floor if n == 1 else Fraction(0) for n in counts]
    corners = []
    for k in (k for k in range(4) if counts[k]):
        m = list(lo)
        m[k] += 1 - sum(lo)
        corners.append((m[0] + m[1], m[0] + m[2]))
    return tuple((min(v), max(v)) for v in (
        [wx * x + wy * y for x, y in corners] for wx, wy in normals))


def _exact_diagonal_distance(counts0, counts1, floor: Fraction) -> Fraction:
    """`_diagonal_distance` in rational arithmetic: the widest gap between
    the two patterns' `_exact_ranges`, over the unit-L1 normals of their
    hulls."""
    return max([Fraction(0)] + [
        max(lo0 - hi1, lo1 - hi0) for (lo0, hi0), (lo1, hi1) in zip(
            _exact_ranges(tuple(counts0), floor),
            _exact_ranges(tuple(counts1), floor))])


def test_diagonal_bound_sides_with_its_exact_value():
    # the float bound sqrt(2) d falls on the same side of the Infeasible
    # floor as sqrt(2) times the exact d, on all 4761 multiset pairs
    floor = (DELTA - 1e-12) ** 2
    exact_floor = (Fraction(DELTA) - Fraction(1e-12)) ** 2
    limit = Fraction(_INFEASIBLE_FLOOR) ** 2
    smallest = Fraction(1)
    for kets0, kets1 in itertools.product(_MULTISETS, repeat=2):
        counts = _counts(kets0), _counts(kets1)
        d = _diagonal_distance(*counts, floor)
        exact = _exact_diagonal_distance(*counts, exact_floor)
        assert abs(d - exact) <= 1e-15
        assert (math.sqrt(2.0) * d >= _INFEASIBLE_FLOOR) \
            is (2 * exact * exact >= limit), (kets0, kets1)
        if exact:
            smallest = min(smallest, exact)
    # the closest positive gap is half the single-ket floor, about
    # 0.005: no rounding could move a pair across the Infeasible floor
    assert smallest == exact_floor / 2


#: rational brackets of sqrt(2): a coarse one for the side of the
#: Infeasible floor, and the correctly rounded float +- half an ulp for
#: agreement to 1e-15
_ROOT2_COARSE = (Fraction(14142, 10000), Fraction(14143, 10000))
_ROOT2_FINE = (Fraction(math.sqrt(2.0)) - Fraction(1, 2 ** 53),
               Fraction(math.sqrt(2.0)) + Fraction(1, 2 ** 53))

#: the Tr_B then Tr_A off-diagonal entry, as the ket pairs (i, j) of its
#: products c_i c_j*
_OFF_DIAGONAL_KETS = ((("00", "10"), ("01", "11")),
                      (("00", "01"), ("10", "11")))


def _lone_off_diagonal(kets0, kets1) -> bool:
    """Some off-diagonal entry is 0 for one pattern and one product of
    two single kets for the other: |o| >= f^2, f the slot floor."""
    for entry in _OFF_DIAGONAL_KETS:
        listed = [[(i, j) for i, j in entry if i in kets and j in kets]
                  for kets in (kets0, kets1)]
        for (zero, one), kets in ((listed, kets1), (listed[::-1], kets0)):
            if not zero and len(one) == 1 and all(
                    kets.count(k) == 1 for k in one[0]):
                return True
    return False


def _entangled_overlap(kets0, kets1) -> bool:
    """One pattern lists only kets of {00,11} or {01,10}, the other a
    ket outside that pair exactly once."""
    return any(set(a) <= pair and any(b.count(k) == 1 for k in b
                                      if k not in pair)
               for a, b in ((kets0, kets1), (kets1, kets0))
               for pair in ({"00", "11"}, {"01", "10"}))


#: the witness check's floor on |slot| and overlap, exact
_F = Fraction(DELTA) - Fraction(1e-12)


def _exact_clauses(kets0, kets1):
    """The clauses of the eq4 and full-system `_bound` as rational
    intervals (lo, hi) by name, with delta and the 1e-12 slack at their
    exact binary values: one (eq4, full) pair of dicts per bracket of
    sqrt(2), fine then coarse."""
    diagonal = _exact_diagonal_distance(_counts(kets0), _counts(kets1),
                                        _F * _F)
    off = _F * _F if _lone_off_diagonal(kets0, kets1) else Fraction(0)
    disjoint = not set(kets0) & set(kets1)
    overlap = _entangled_overlap(kets0, kets1)
    for lo, hi in (_ROOT2_FINE, _ROOT2_COARSE):
        eq4 = {"diagonal": (lo * diagonal, hi * diagonal),
               "off-diagonal": (lo * off, hi * off)}
        if disjoint:
            yield eq4, {"disjoint": (Fraction(DELTA), Fraction(DELTA))}
            continue
        full = {"diagonal": (diagonal, diagonal), "off-diagonal": (off, off)}
        if overlap:
            full["overlap"] = (_F * _F / (2 * _F + 1 + hi),
                               _F * _F / (2 * _F + 1 + lo))
        yield eq4, full


def test_every_bound_clause_sides_with_its_exact_value():
    # on all 4761 ordered multiset pairs each float bound is within 1e-15
    # of its exact value and on the same side of the Infeasible floor, and
    # every clause decides some pair; the clauses are symmetric in the
    # pair, so each unordered pair is rebuilt once and checked both ways
    for lo, hi in (_ROOT2_COARSE, _ROOT2_FINE):
        assert lo * lo < 2 < hi * hi
    floor, eps = Fraction(_INFEASIBLE_FLOOR), Fraction(1e-15)
    patterns_by_kets = {kets: BasisPattern(kets) for kets in _MULTISETS}
    deciding = collections.Counter()
    for kets0, kets1 in itertools.combinations_with_replacement(_MULTISETS,
                                                                2):
        fine, coarse = _exact_clauses(kets0, kets1)
        for order in {(kets0, kets1), (kets1, kets0)}:
            p0, p1 = (patterns_by_kets[kets] for kets in order)
            values = (_bound(p0.counts, p1.counts, DELTA, False),
                      _bound(p0.counts, p1.counts, DELTA, True))
            for name, value, clauses, bracket in zip(
                    ("eq4", "full"), values, fine, coarse):
                lo, hi = (max(ends) for ends in zip(*clauses.values()))
                assert lo - eps <= Fraction(value) <= hi + eps, order
                lo, hi = (max(ends) for ends in zip(*bracket.values()))
                assert (value >= _INFEASIBLE_FLOOR) is (lo >= floor) \
                    is (hi >= floor), order
                if lo >= floor:
                    deciding[name, max(bracket,
                                       key=lambda c: bracket[c][0])] += 1
    # 4761 - 1301 and 4761 - 1157 certified pairs
    assert deciding == {("eq4", "diagonal"): 3124,
                        ("eq4", "off-diagonal"): 336,
                        ("full", "disjoint"): 1112,
                        ("full", "diagonal"): 2084,
                        ("full", "off-diagonal"): 336,
                        ("full", "overlap"): 72}


#: some multisets in another ket order than `_MULTISETS`
_PERMUTED = [("01", "00"), ("10", "00", "01"), ("11", "00"),
             ("10", "01", "00"), ("00", "11", "00"), ("01", "10", "01", "00")]


def test_diagonal_bound_matches_vertex_enumeration():
    # the 69 sorted multisets, plus some in another ket order
    floor = (DELTA - 1e-12) ** 2
    for kets0, kets1 in itertools.product(_MULTISETS + _PERMUTED, repeat=2):
        counts = [_counts(kets0), _counts(kets1)]
        oracle = _pairwise_linf_distance(*(_vertex_polygon(c, floor)
                                           for c in counts))
        assert _diagonal_distance(*counts, floor) == pytest.approx(
            oracle, abs=1e-15)
        # the off-diagonal floor (b) is unchanged: the diagonal part
        # decides the bound whenever it is the larger term
        bound = _bound(BasisPattern(kets0).counts, BasisPattern(kets1).counts,
                       DELTA, False)
        assert bound >= math.sqrt(2.0) * oracle - 1e-15
        if bound > math.sqrt(2.0) * floor:
            assert bound == pytest.approx(math.sqrt(2.0) * oracle,
                                          abs=1e-15)


def _uncached_diagonal_distance(counts0, counts1, floor):
    """`_diagonal_distance` as computed per call, before its ranges were
    cached per ket multiset."""
    ranges = []
    for counts in (counts0, counts1):
        lo = [floor if n == 1 else 0.0 for n in counts]
        rest = 1.0 - sum(lo)
        x0, y0 = lo[0] + lo[1], lo[0] + lo[2]
        corners = [(x0 + rest * (k < 2), y0 + rest * (k % 2 == 0))
                   for k in range(4) if counts[k]]
        axes = zip(*((x, y, (x + y) / 2, (x - y) / 2) for x, y in corners))
        ranges.append([(min(v), max(v)) for v in axes])
    gap = 0.0
    for (lo0, hi0), (lo1, hi1) in zip(*ranges):
        gap = max(gap, lo0 - hi1, lo1 - hi0)
    return gap


def _uncached_eq4_bound(p0, p1, delta):
    floor = (delta - 1e-12) ** 2
    counts = [[p.kets.count(k) for k in KET_LABELS] for p in (p0, p1)]
    bound = _uncached_diagonal_distance(*counts, floor)
    for pairs in (((0, 2), (1, 3)), ((0, 1), (2, 3))):
        terms = [[c[i] * c[j] for i, j in pairs if c[i] and c[j]]
                 for c in counts]
        if [] in terms and [1] in terms:
            bound = max(bound, floor)
    return math.sqrt(2.0) * bound


def _uncached_full_bound(p0, p1, delta):
    if not frozenset(p0.kets) & frozenset(p1.kets):
        return delta
    bound = _uncached_eq4_bound(p0, p1, delta) / math.sqrt(2.0)
    if any(frozenset(a.kets) <= pair
           and any(b.kets.count(k) == 1 for k in set(KET_LABELS) - pair)
           for a, b in ((p0, p1), (p1, p0))
           for pair in (frozenset({"00", "11"}), frozenset({"01", "10"}))):
        f = delta - 1e-12
        bound = max(bound, f * f / (2.0 * f + 1.0 + math.sqrt(2.0)))
    return bound


@pytest.mark.parametrize("delta", [DELTA, 0.25])
def test_cached_bounds_equal_the_per_call_computation_bit_for_bit(delta):
    # every ordered pair of the 69 sorted multisets and of `_PERMUTED`; a
    # second delta checks that no profile or certificate is read at
    # another floor.  The cached certificate is Infeasible exactly when
    # the per-call bound is at or above the floor, and carries that bound
    floor = (delta - 1e-12) ** 2
    kets = _MULTISETS + _PERMUTED
    pats = [BasisPattern(k) for k in kets]
    for (k0, p0), (k1, p1) in itertools.product(zip(kets, pats), repeat=2):
        counts = _counts(k0), _counts(k1)
        assert (p0.counts, p1.counts) == tuple(map(tuple, counts))
        assert _diagonal_distance(*counts, floor) \
            == _uncached_diagonal_distance(*counts, floor), (k0, k1)
        for full, uncached in ((False, _uncached_eq4_bound),
                               (True, _uncached_full_bound)):
            value = uncached(p0, p1, delta)
            assert _bound(p0.counts, p1.counts, delta, full) == value, \
                (k0, k1)
            assert _certificate(p0.counts, p1.counts, delta, full) == (
                None if value < _INFEASIBLE_FLOOR else FeasibilityOutcome(
                    FeasibilityStatus.INFEASIBLE, value)), (k0, k1)


def test_certified_decisions_share_one_outcome_and_searches_do_not():
    cfg = FeasibilityConfig(restarts=1, seed=42)
    infeasible = BasisPattern(("00",)), BasisPattern(("01",))
    feasible = BasisPattern(("00", "01")), BasisPattern(("00", "01"))
    for decide in (feasible_eq4, feasible_full):
        first, again = (decide(*infeasible, cfg) for _ in range(2))
        assert first.status is FeasibilityStatus.INFEASIBLE
        assert first is again
        first, again = (decide(*feasible, cfg) for _ in range(2))
        assert first.status is FeasibilityStatus.FEASIBLE
        assert first.best_residual == again.best_residual
        assert first is not again


def test_bounds_cache_one_profile_per_ket_multiset():
    # a table run and a scan, from empty caches, compute the certificate
    # of each distinct (multiset pair, system) key once and each
    # multiset's profile at most once, at the one floor; a second run is
    # all lookups
    cfg = FeasibilityConfig(restarts=1, seed=42)
    keys = {(BasisPattern(row.psi0_kets).counts,
             BasisPattern(row.psi1_kets).counts, False)
            for row in load_table_fixture()}
    # the scan skips same-support pairs before it asks
    keys |= {(p0.counts, p1.counts, True) for p0, p1 in itertools.product(
        _DUPLICATE_FREE, repeat=2)
        if frozenset(p0.kets) != frozenset(p1.kets)}
    multisets = {counts for key in keys for counts in key[:2]}
    caches = (patterns._certificate, patterns._profile, patterns._scan_plan,
              patterns._related_supports)
    for cache in caches:
        cache.cache_clear()
    for run in range(2):
        reproduce_tables((1, 2, 3, 4), cfg)
        support_theorem_scan(cfg)
        certificates, profiles, plans, related = (cache.cache_info()
                                                  for cache in caches)
        assert certificates.currsize == certificates.misses == len(keys)
        assert profiles.currsize == profiles.misses <= len(multisets) <= 69
        # one scan plan per delta, and one support lookup per multiset
        # pair that the scan sends to feasible_full: its 2 representatives
        assert (plans.currsize, plans.misses, plans.hits) == (1, 1, run)
        assert (related.currsize, related.misses, related.hits) \
            == (2, 2, 2 * run)


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
    # decided_by is read off the outcome, never stored: an eq4 witness
    # has no masked qubit, a full-system witness has one
    assert out.decided_by == "search"
    for status in (FeasibilityStatus.FEASIBLE, FeasibilityStatus.INCONCLUSIVE):
        assert FeasibilityOutcome(status, 0.0).decided_by == "search"
    with_qubit = dataclasses.replace(w, b=QubitState.normalized(1.0, 1.0))
    assert FeasibilityOutcome(FeasibilityStatus.FEASIBLE, 0.0, 0,
                              with_qubit).decided_by == "relation"


def test_infeasible_outcome_reports_finite_floor():
    # the certified bound decides without a search: the diagonal points
    # (1, 1) and (1, 0) are at L-infinity distance 1
    out = feasible_eq4(BasisPattern(("00",)), BasisPattern(("01",)), FAST_CFG)
    assert out.status is FeasibilityStatus.INFEASIBLE
    assert out.witness is None
    assert math.isfinite(out.best_residual)
    assert out.best_residual >= _INFEASIBLE_FLOOR
    assert out.best_residual == pytest.approx(math.sqrt(2.0), rel=1e-15)
    assert out.decided_by == "bound"
    assert out.iterations == 0
    # a certificate is a status and a bound: decided_by and iterations
    # follow from them
    assert out == FeasibilityOutcome(FeasibilityStatus.INFEASIBLE,
                                     out.best_residual)
    assert FeasibilityOutcome(FeasibilityStatus.INFEASIBLE,
                              0.5).decided_by == "bound"


def test_duplicate_ket_pattern_merges_before_deciding():
    # [00,00,01] merges to a two-slot state, so it can share marginals
    # with [00,01]; its 00 slots may also cancel, leaving |01>, so the
    # product c00 c01* carries no floor
    for kets0 in (("00", "01"), ("01",)):
        out = feasible_eq4(BasisPattern(kets0),
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
    assert w.b.alpha0 == w.b.alpha1 == pytest.approx(math.sqrt(0.5),
                                                     abs=1e-15)
    # the witness was accepted by the check that re-verifies it
    report = masks_state(w.b, w.psi0, w.psi1)
    assert report.verdict
    assert max(report.residuals()) <= 1e-8


def test_full_system_decides_every_scan_pair():
    # the support scan's config in the benchmark: Feasible on exactly the
    # 15 same-support pairs and the 16 partner pairs, each with a
    # re-verified witness at b = |+> built from a formula, and Infeasible
    # on the other 194, each certified by its bound
    cfg = FeasibilityConfig(restarts=2, seed=42)
    plus = QubitState.normalized(1.0, 1.0)
    differing = []  # Feasible pairs with differing supports, scan order
    certified = 0
    for p0, p1 in itertools.product(_DUPLICATE_FREE, repeat=2):
        out = feasible_full(p0, p1, cfg)
        s0, s1 = frozenset(p0.kets), frozenset(p1.kets)
        bounded = not (s0 == s1 or _partners(s0, s1))
        certified += bounded
        assert (out.status is FeasibilityStatus.INFEASIBLE) is bounded
        if bounded:
            assert out.decided_by == "bound"
            assert out.best_residual == _bound(p0.counts, p1.counts,
                                               DELTA, True)
            continue
        assert out.status is FeasibilityStatus.FEASIBLE
        assert out.decided_by == "relation"
        assert out.iterations == 0
        if s0 != s1:
            differing.append((p0.kets, p1.kets))
        w = out.witness
        assert w.b == plus
        assert max(masks_state(w.b, w.psi0, w.psi1).residuals()) <= 1e-8
        assert abs(np.vdot(w.psi0.vec, w.psi1.vec)) >= DELTA - 1e-9
    assert certified == 194
    assert len(differing) == 16

    # the scan must find the same violations in scan order, each witness
    # re-verified and re-assembled from its coefficients
    violations = support_theorem_scan(cfg)
    assert [(v.psi0_kets, v.psi1_kets) for v in violations] == differing
    for v in violations:
        assert v.outcome.status is FeasibilityStatus.FEASIBLE
        assert v.outcome.decided_by == "relation"
        w = v.outcome.witness
        assert w.b == plus
        assert max(masks_state(w.b, w.psi0, w.psi1).residuals()) <= 1e-8
        assert abs(np.vdot(w.psi0.vec, w.psi1.vec)) >= DELTA - 1e-9
        for kets, coeffs, psi in ((v.psi0_kets, w.coeffs0, w.psi0),
                                  (v.psi1_kets, w.coeffs1, w.psi1)):
            state, _ = assemble(BasisPattern(kets), coeffs)
            np.testing.assert_allclose(state.vec, psi.vec, rtol=0, atol=1e-12)
            assert min(map(abs, coeffs)) >= DELTA - 1e-12


#: the scan's config in the benchmark
SCAN_CFG = FeasibilityConfig(restarts=2, seed=42)

#: the first open pair of each orbit in scan order: the two the scan
#: decides through feasible_full
_SCAN_REPRESENTATIVES = ((("00", "01", "10"), ("00", "01", "11")),
                         (("00", "01", "10"), ("00", "01", "10", "11")))


def _relabellings(kets0, kets1, coeffs0, coeffs1) -> dict:
    """Every image of a witness's slots under the 16 scan maps of the
    oracle `_KET_MAPS`: image pair (sorted ket tuples) -> the set of
    slot vectors some map carries the slots to, in the image's order."""
    images = collections.defaultdict(set)
    for g, exchange in itertools.product(_KET_MAPS, (False, True)):
        sides = [{KET_LABELS[g[KET_LABELS.index(k)]]: c
                  for k, c in zip(kets, coeffs)}
                 for kets, coeffs in ((kets0, coeffs0), (kets1, coeffs1))]
        if exchange:
            sides.reverse()
        pair = tuple(tuple(sorted(side)) for side in sides)
        images[pair].add(tuple(side[k] for side, kets in zip(sides, pair)
                               for k in kets))
    return images


def test_scan_decides_only_the_pairs_the_bound_leaves_open(monkeypatch):
    # counted through the name the benchmark's tracer patches, at the
    # benchmark's config: no same-support or bound-certified pair is
    # decided, and of the 16 open pairs only the first of each symmetry
    # orbit goes to feasible_full; the other 14 carry a representative's
    # slots, relabelled exactly and re-verified on their own pair
    decided, checked = [], []
    search, verify = patterns.feasible_full, patterns._verify_candidate

    def counting(p0, p1, cfg):
        out = search(p0, p1, cfg)
        decided.append(((p0.kets, p1.kets), out))
        return out

    def recording(p0, p1, z, delta, full):
        checked.append(((p0.kets, p1.kets), tuple(z)))
        return verify(p0, p1, z, delta, full)

    monkeypatch.setattr(patterns, "feasible_full", counting)
    monkeypatch.setattr(patterns, "_verify_candidate", recording)
    violations = support_theorem_scan(SCAN_CFG)
    assert [pair for pair, _ in decided] == list(_SCAN_REPRESENTATIVES)
    pats = _DUPLICATE_FREE
    assert [(v.psi0_kets, v.psi1_kets) for v in violations] == [
        (p0.kets, p1.kets) for p0, p1 in itertools.product(pats, repeat=2)
        if _partners(frozenset(p0.kets), frozenset(p1.kets))]
    searched = dict(decided)
    images = {}
    for (k0, k1), out in decided:
        assert out.status is FeasibilityStatus.FEASIBLE
        w = out.witness
        images.update(_relabellings(k0, k1, w.coeffs0, w.coeffs1))
    for v in violations:
        pair = (v.psi0_kets, v.psi1_kets)
        out = v.outcome
        assert out.decided_by == "relation"
        assert out.iterations == 0
        # one check per violation, whose witness holds the check contract
        # on the slots it was given
        (z,) = [z for checked_pair, z in checked if checked_pair == pair]
        w = out.witness
        _assert_witness_is_its_candidate(BasisPattern(pair[0]),
                                         BasisPattern(pair[1]),
                                         np.array(z), w)
        if pair in searched:
            assert out is searched[pair]
            continue
        assert out.status is FeasibilityStatus.FEASIBLE
        assert out.best_residual <= SCAN_CFG.tol
        # an image is checked on the relabelled slots bit for bit
        assert z in images[pair]
        assert w.b == QubitState.normalized(1.0, 1.0)
        # the check rescales the slots to unit merged norm, by at most a
        # rounding error
        np.testing.assert_allclose(w.coeffs0 + w.coeffs1, z,
                                   rtol=1e-15, atol=0)
        assert max(masks_state(w.b, w.psi0, w.psi1).residuals()) \
            == out.best_residual
        assert abs(np.vdot(w.psi0.vec, w.psi1.vec)) >= DELTA - 1e-9


def test_open_scan_pairs_form_two_orbits_of_eight():
    # the pairs the bounds leave open with differing supports, under the
    # eight ket maps times exchanging the states: every image of an open
    # pair is open, and the 16 fall into two orbits of eight
    pats = _DUPLICATE_FREE
    open_pairs = {(frozenset(p0.kets), frozenset(p1.kets)) for p0, p1 in
                  itertools.product(pats, repeat=2)
                  if _partners(frozenset(p0.kets), frozenset(p1.kets))}
    assert len(open_pairs) == 16
    orbits = set()
    for s0, s1 in open_pairs:
        orbit = set()
        for g in _KET_MAPS:
            i0, i1 = (frozenset(KET_LABELS[g[KET_LABELS.index(k)]]
                                for k in s) for s in (s0, s1))
            orbit |= {(i0, i1), (i1, i0)}
        assert orbit <= open_pairs
        orbits.add(frozenset(orbit))
    assert sorted(map(len, orbits)) == [8, 8]
    assert frozenset().union(*orbits) == open_pairs
    # each orbit's first pair in scan order is a searched representative
    order = [(frozenset(p0.kets), frozenset(p1.kets))
             for p0, p1 in itertools.product(pats, repeat=2)]
    assert sorted(min(orbit, key=order.index) for orbit in orbits) \
        == sorted((frozenset(k0), frozenset(k1))
                  for k0, k1 in _SCAN_REPRESENTATIVES)


def test_scan_relabels_by_the_eight_ket_maps():
    # the runtime maps, built from the swap and bit flips of an index,
    # are the oracle's eight permutations, built from the bits of a ket
    assert len(set(patterns._KET_MAPS)) == len(patterns._KET_MAPS) == 8
    assert set(patterns._KET_MAPS) == set(_KET_MAPS)


@pytest.mark.parametrize("rejection", ["floors", "residual"])
def test_a_rejected_image_is_searched_on_its_own_pair(monkeypatch,
                                                      rejection):
    # an image the check turns down, by its floors (None) or by a
    # residual above tol, sends its pair to feasible_full, which builds
    # that pair's own witness; the violations stay the same
    expected = [(v.psi0_kets, v.psi1_kets)
                for v in support_theorem_scan(SCAN_CFG)]
    target = (("00", "01", "11"), ("00", "01", "10"))
    searched, rejected = [], []
    search, verify = patterns.feasible_full, patterns._verify_candidate

    def counting(p0, p1, cfg):
        out = search(p0, p1, cfg)
        searched.append(((p0.kets, p1.kets), out))
        return out

    def rejecting(p0, p1, z, delta, full):
        checked = verify(p0, p1, z, delta, full)
        if (p0.kets, p1.kets) != target or rejected:
            return checked
        rejected.append(checked)
        return None if rejection == "floors" else (
            2.0 * SCAN_CFG.tol, checked[1])

    monkeypatch.setattr(patterns, "feasible_full", counting)
    monkeypatch.setattr(patterns, "_verify_candidate", rejecting)
    violations = support_theorem_scan(SCAN_CFG)
    # the image itself would have passed
    assert len(rejected) == 1 and rejected[0][0] <= SCAN_CFG.tol
    assert [pair for pair, _ in searched] == [*_SCAN_REPRESENTATIVES, target]
    assert [(v.psi0_kets, v.psi1_kets) for v in violations] == expected
    (out,) = [v.outcome for v in violations
              if (v.psi0_kets, v.psi1_kets) == target]
    assert out is searched[-1][1]
    assert out.status is FeasibilityStatus.FEASIBLE and out.iterations == 0
    w = out.witness
    assert max(masks_state(w.b, w.psi0, w.psi1).residuals()) <= SCAN_CFG.tol


#: sha256 of `_scan_serialisation` of the scan's violations at SCAN_CFG,
#: recorded while each check still normalised each side twice
SCAN_SHA256 = \
    "5e34f10a6f2fbbf6ab27ecce51fa08cfa3422ee3e12f1b6b7b497d2624b385db"


def _scan_serialisation(violations) -> bytes:
    """One line per violation, in scan order: both ket tuples, status,
    ``best_residual.hex()``, iterations, the ``float.hex`` parts of every
    slot, the bytes of psi0 and psi1, and the parts of b."""
    def parts(c):
        c = complex(c)
        return f"{c.real.hex()},{c.imag.hex()}"

    lines = []
    for v in violations:
        out, w = v.outcome, v.outcome.witness
        lines.append(" ".join([
            "+".join(v.psi0_kets), "+".join(v.psi1_kets), out.status.value,
            out.best_residual.hex(), str(out.iterations),
            ";".join(map(parts, w.coeffs0)), ";".join(map(parts, w.coeffs1)),
            w.psi0.vec.tobytes().hex(), w.psi1.vec.tobytes().hex(),
            parts(w.b.alpha0), parts(w.b.alpha1)]))
    return "\n".join(lines).encode()


def test_scan_violations_are_golden():
    # the benchmark's scan, bit for bit: kets, outcomes, slots, states, b
    violations = support_theorem_scan(SCAN_CFG)
    assert len(violations) == 16
    assert hashlib.sha256(_scan_serialisation(violations)).hexdigest() \
        == SCAN_SHA256


def test_two_scans_give_identical_violations_and_witnesses(monkeypatch):
    # only the plan is kept between scans, never an outcome: each scan
    # decides its representatives again, and gets the same outcomes bit
    # for bit
    searched = []
    search = patterns.feasible_full

    def counting(p0, p1, cfg):
        searched.append((p0.kets, p1.kets))
        return search(p0, p1, cfg)

    monkeypatch.setattr(patterns, "feasible_full", counting)
    first, again = (support_theorem_scan(SCAN_CFG) for _ in range(2))
    assert searched == 2 * list(_SCAN_REPRESENTATIVES)
    assert len(first) == len(again) == 16
    for a, b in zip(first, again):
        assert (a.psi0_kets, a.psi1_kets) == (b.psi0_kets, b.psi1_kets)
        assert a.outcome is not b.outcome
        assert (a.outcome.status, a.outcome.best_residual,
                a.outcome.iterations) == (b.outcome.status,
                                          b.outcome.best_residual,
                                          b.outcome.iterations)
        wa, wb = a.outcome.witness, b.outcome.witness
        assert (wa.coeffs0, wa.coeffs1, wa.b) == (wb.coeffs0, wb.coeffs1,
                                                  wb.b)
        for psi_a, psi_b in ((wa.psi0, wb.psi0), (wa.psi1, wb.psi1)):
            np.testing.assert_array_equal(psi_a.vec, psi_b.vec)


def test_scan_plan_lists_the_open_pairs_and_their_representatives():
    # the 16 partner pairs in scan order; the first of each orbit is a
    # representative, and every other entry names one
    plan = patterns._scan_plan(DELTA)
    assert plan is patterns._scan_plan(DELTA)
    pats = _DUPLICATE_FREE
    assert [(step.p0.kets, step.p1.kets) for step in plan] == [
        (p0.kets, p1.kets) for p0, p1 in itertools.product(pats, repeat=2)
        if _partners(frozenset(p0.kets), frozenset(p1.kets))]
    reps = [i for i, step in enumerate(plan) if step.rep is None]
    assert [(plan[i].p0.kets, plan[i].p1.kets) for i in reps] \
        == list(_SCAN_REPRESENTATIVES)
    assert all(step.positions is None for step in plan if step.rep is None)
    assert collections.Counter(step.rep for step in plan
                               if step.rep is not None) \
        == {i: 7 for i in reps}


def test_scan_plan_positions_are_the_relabellings_of_the_oracle():
    # with a distinct label per representative slot, each image's
    # positions give one of the oracle's slot vectors for that pair, and
    # a representative's images are exactly the other pairs of its orbit
    plan = patterns._scan_plan(DELTA)
    for r, rep in enumerate(plan):
        if rep.rep is not None:
            continue
        labels = range(len(rep.p0) + len(rep.p1))
        oracle = _relabellings(rep.p0.kets, rep.p1.kets,
                               labels[:len(rep.p0)], labels[len(rep.p0):])
        images = {(step.p0.kets, step.p1.kets): step for step in plan
                  if step.rep == r}
        assert set(images) | {(rep.p0.kets, rep.p1.kets)} == set(oracle)
        for pair, step in images.items():
            assert tuple(labels[j] for j in step.positions) in oracle[pair]


def test_scan_plan_is_built_without_deciding_a_pair(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the plan decided a pair")

    patterns._scan_plan.cache_clear()
    monkeypatch.setattr(patterns, "feasible_full", refuse)
    monkeypatch.setattr(patterns, "_verify_candidate", refuse)
    assert len(patterns._scan_plan(DELTA)) == 16


def test_first_scan_of_a_process_decides_two_pairs(monkeypatch):
    # with every cache cleared, building the plan decides nothing: the
    # scan still sends its 2 representatives to feasible_full and checks
    # 16 candidates, 14 of them images
    for cache in (patterns._certificate, patterns._profile,
                  patterns._scan_plan, patterns._related_supports):
        cache.cache_clear()
    decided, checked = [], []
    search, verify = patterns.feasible_full, patterns._verify_candidate

    def counting(p0, p1, cfg):
        decided.append((p0.kets, p1.kets))
        return search(p0, p1, cfg)

    def recording(p0, p1, z, delta, full):
        checked.append((p0.kets, p1.kets))
        return verify(p0, p1, z, delta, full)

    monkeypatch.setattr(patterns, "feasible_full", counting)
    monkeypatch.setattr(patterns, "_verify_candidate", recording)
    violations = support_theorem_scan(SCAN_CFG)
    assert decided == list(_SCAN_REPRESENTATIVES)
    assert checked == [(v.psi0_kets, v.psi1_kets) for v in violations]
    assert len(checked) == 16


def test_scan_caches_refuse_writes():
    support_theorem_scan(SCAN_CFG)
    arrays = [step.positions for step in patterns._scan_plan(DELTA)
              if step.positions is not None]
    for kets0, kets1 in _SCAN_REPRESENTATIVES:
        related = patterns._related_supports(BasisPattern(kets0).counts,
                                             BasisPattern(kets1).counts)
        arrays += related[2:]
    assert len(arrays) == 14 + 4
    for array in arrays:
        with pytest.raises(ValueError, match="read-only"):
            array[0] = array[1]


@pytest.mark.parametrize("failed", _SCAN_REPRESENTATIVES)
def test_a_failed_representative_sends_its_orbit_to_feasible_full(
        monkeypatch, failed):
    # a representative whose check fails leaves no witness to relabel:
    # every other pair of its orbit is decided by feasible_full, and the
    # other orbit still takes images
    plan = patterns._scan_plan(DELTA)
    (r,) = [i for i, step in enumerate(plan)
            if (step.p0.kets, step.p1.kets) == failed]
    decided = []
    search, verify = patterns.feasible_full, patterns._verify_candidate

    def counting(p0, p1, cfg):
        decided.append((p0.kets, p1.kets))
        return search(p0, p1, cfg)

    def failing(p0, p1, z, delta, full):
        if (p0.kets, p1.kets) == failed:
            return None
        return verify(p0, p1, z, delta, full)

    monkeypatch.setattr(patterns, "feasible_full", counting)
    monkeypatch.setattr(patterns, "_verify_candidate", failing)
    violations = support_theorem_scan(SCAN_CFG)
    assert decided == [(step.p0.kets, step.p1.kets)
                       for i, step in enumerate(plan)
                       if step.rep is None or step.rep == r]
    assert [(v.psi0_kets, v.psi1_kets) for v in violations] == [
        (step.p0.kets, step.p1.kets) for i, step in enumerate(plan)
        if i != r]
    assert all(v.outcome.status is FeasibilityStatus.FEASIBLE
               for v in violations)


#: the eight relabelings of the basis by X_A, X_B and the qubit swap, each
#: as the image index of 00, 01, 10, 11
_KET_MAPS = tuple(
    tuple(2 * (bits[swap] ^ flip_a) + (bits[1 - swap] ^ flip_b)
          for bits in ((0, 0), (0, 1), (1, 0), (1, 1)))
    for swap in (0, 1) for flip_a in (0, 1) for flip_b in (0, 1))


unit_vectors = st.lists(
    st.complex_numbers(min_magnitude=0.05, max_magnitude=1.0,
                       allow_nan=False, allow_infinity=False),
    min_size=4, max_size=4).map(TwoQubitState.unit)


def _invariants(psi0, psi1):
    """What the ket maps and exchanging the states keep: the sorted eq4
    lines and cross norms of `masks_state` at |+>, its sorted
    superposition residuals, the sorted marginal distances and
    |<Psi0|Psi1>|."""
    r = masks_state(QubitState.normalized(1.0, 1.0), psi0, psi1).residuals()
    return (sorted(r[:8]), sorted(r[8:]),
            sorted(reduced_pair_residual(psi0, psi1)),
            [abs(np.vdot(psi0.vec, psi1.vec))])


@seed(17)
@settings(max_examples=100, deadline=None)
@given(psi0=unit_vectors, psi1=unit_vectors,
       phases=st.tuples(st.floats(0.0, 2 * math.pi),
                        st.floats(0.0, 2 * math.pi)))
def test_scan_symmetries_keep_the_masking_residuals(psi0, psi1, phases):
    # Psi0 with its Schmidt terms rephased shares both marginals with it,
    # as the two states of every Feasible witness do
    U, s, Vh = np.linalg.svd(psi0.vec.reshape(2, 2))
    same_marginals = TwoQubitState(
        (U @ np.diag(s * np.exp(1j * np.array(phases))) @ Vh).reshape(4))
    for pair in ((psi0, psi1), (psi0, same_marginals)):
        expected = _invariants(*pair)
        for g, exchange in itertools.product(_KET_MAPS, (False, True)):
            images = []
            for psi in pair:
                vec = np.empty(4, dtype=complex)
                vec[list(g)] = psi.vec
                images.append(TwoQubitState(vec))
            if exchange:
                images.reverse()
            got = _invariants(*images)
            # the superposition residuals compare the superposition with
            # Psi0, so exchanging the states keeps them only when the
            # two states share their marginals
            for k in range(4):
                if k == 1 and exchange and pair[1] is psi1:
                    continue
                np.testing.assert_allclose(got[k], expected[k],
                                           rtol=0, atol=1e-15)


def test_full_system_has_one_parameter_per_slot_coordinate():
    # the masked qubit is fixed at |+>, so a full-system witness is one
    # complex coefficient per slot, as is an eq4 search point: the slots'
    # re/im alone, under a K stack of 10 Hermitian forms (eight marginal
    # components and two norms)
    p0, p1 = BasisPattern(("00", "01", "10")), BasisPattern(("00", "11"))
    system = _PairSystem(p0, p1, DELTA)
    assert system.n_params == 2 * (len(p0) + len(p1))
    assert len(system.K) == 10
    w = feasible_full(p0, BasisPattern(("00", "01", "10")), SCAN_CFG).witness
    assert (len(w.coeffs0), len(w.coeffs1)) == (3, 3)
    assert w.b == QubitState.normalized(1.0, 1.0)


def test_full_system_certifies_disjoint_supports():
    # disjoint supports are orthogonal for every coefficient choice, so
    # the overlap misses its floor by delta and no search runs, also
    # when a duplicated ket could merge to 0
    cfg = FeasibilityConfig(restarts=20, seed=42)
    for kets0, kets1 in ((("00",), ("01",)), (("00", "00", "11"), ("01",))):
        out = feasible_full(BasisPattern(kets0), BasisPattern(kets1), cfg)
        assert out == FeasibilityOutcome(FeasibilityStatus.INFEASIBLE, DELTA)
    # a shared ket leaves it to the eq4 bound: the Tr_A off-diagonal of
    # {00,11} is 0, that of {01,10,11} one product of single kets
    out = feasible_full(BasisPattern(("00", "11")),
                        BasisPattern(("01", "10", "11")), cfg)
    assert out == FeasibilityOutcome(FeasibilityStatus.INFEASIBLE,
                                     (DELTA - 1e-12) ** 2)


@pytest.mark.parametrize("decide, kets0, kets1", [
    (feasible_eq4, ("00", "11"), ("01", "10")),
    (feasible_full, ("00", "01", "10"), ("00", "01", "10", "11")),
])
def test_search_without_a_witness_is_inconclusive(monkeypatch, decide,
                                                  kets0, kets1):
    # every Infeasible verdict is a certificate, so an eq4 search that
    # finds no witness, here one that takes no step from its random
    # starts, can only say Inconclusive; the full system runs no search,
    # so it is Feasible even then
    monkeypatch.setattr(patterns, "_ITERS", 0)
    out = decide(BasisPattern(kets0), BasisPattern(kets1),
                 FeasibilityConfig(restarts=3, seed=42))
    assert out.iterations == 0
    if decide is feasible_full:
        assert out.status is FeasibilityStatus.FEASIBLE
        assert out.decided_by == "relation"
        assert out.best_residual <= FeasibilityConfig().tol
        return
    assert out.status is FeasibilityStatus.INCONCLUSIVE
    assert out.decided_by == "search"
    assert out.witness is None
    assert out.best_residual > FeasibilityConfig().tol


def test_search_is_deterministic():
    p0 = BasisPattern(("00", "11"))
    p1 = BasisPattern(("01", "10"))
    a = feasible_eq4(p0, p1, FAST_CFG)
    b = feasible_eq4(p0, p1, FAST_CFG)
    assert a.best_residual == b.best_residual
    assert a.status is b.status
    np.testing.assert_array_equal(a.witness.psi0.vec, b.witness.psi0.vec)
    np.testing.assert_array_equal(a.witness.psi1.vec, b.witness.psi1.vec)


@pytest.mark.parametrize("decide", [feasible_eq4, feasible_full])
def test_outcome_counts_damped_steps(decide):
    # every eq4 restart takes at least one damped step, and the count is
    # part of the seeded, deterministic outcome; the full system takes
    # none
    p0 = BasisPattern(("00", "01", "10"))
    p1 = BasisPattern(("00", "01", "10", "11"))
    cfg = FeasibilityConfig(restarts=6, seed=42)
    a, b = decide(p0, p1, cfg), decide(p0, p1, cfg)
    if decide is feasible_full:
        assert a.iterations == 0
    else:
        assert a.iterations >= cfg.restarts
    assert a.iterations == b.iterations


def test_seed_changes_search_path_not_verdicts():
    p0 = BasisPattern(("00", "11"))
    p1 = BasisPattern(("01", "10"))
    alt = feasible_eq4(p0, p1, FeasibilityConfig(restarts=60, seed=7))
    assert alt.status is FeasibilityStatus.FEASIBLE


@pytest.mark.parametrize("seed", [7, 13])
def test_default_budget_finds_every_witness(seed):
    # seeds where 1 or 2 restarts leave a searched table row Inconclusive;
    # the default budget finds every witness there too
    cfg = FeasibilityConfig(seed=seed)
    rows = reproduce_tables(patterns.TABLES, cfg)
    statuses = collections.Counter(r.outcome.status for r in rows)
    assert statuses == {FeasibilityStatus.FEASIBLE: 30,
                        FeasibilityStatus.INFEASIBLE: 76}
    for r in rows:
        w = r.outcome.witness
        if w is not None:
            assert max(reduced_pair_residual(w.psi0, w.psi1)) <= cfg.tol
    pats = _DUPLICATE_FREE
    pinned = {(p0.kets, p1.kets) for p0 in pats for p1 in pats
              if _partners(frozenset(p0.kets), frozenset(p1.kets))}
    violations = support_theorem_scan(cfg)
    assert {(v.psi0_kets, v.psi1_kets) for v in violations} == pinned
    assert len(pinned) == 16
    for v in violations:
        w = v.outcome.witness
        assert max(masks_state(w.b, w.psi0, w.psi1).residuals()) <= cfg.tol


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
