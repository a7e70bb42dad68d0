"""Pattern feasibility search, verdict tables, and the support scan."""

import itertools
import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, seed, settings
from hypothesis import strategies as st

from qmask import patterns
from qmask.conditions import (
    cross_term_matrix,
    masks_state,
    reduced_pair_residual,
)
from qmask.patterns import (
    _INFEASIBLE_FLOOR,
    _KET_MAPS,
    KET_LABELS,
    BasisPattern,
    FeasibilityConfig,
    FeasibilityStatus,
    _PairSystem,
    _diagonal_distance,
    _eq4_bound,
    _minimize_batch,
    assemble,
    duplicate_free_patterns,
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
    assert p.support == frozenset({"00", "10"})
    assert len(p) == 3
    S = p.slot_matrix()
    assert S.shape == (4, 3)
    assert S is p.slot_matrix() and not S.flags.writeable  # built once
    np.testing.assert_allclose(S[:, 0], [0, 0, 1, 0])
    np.testing.assert_allclose(S[:, 1], [1, 0, 0, 0])


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
    for tables in ([5], [1, 0]):
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
    assert _eq4_bound(p0, p1, DELTA) <= grid_min + 1e-12


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
       v0=slot_values, v1=slot_values, full=st.booleans())
def test_search_residuals_match_conditions(p0, p1, v0, v1, full):
    # at unit norm with every slot above the floor, the squared residual
    # norm is the reference marginal distance (plus, for the full system,
    # the cross norms at b = |+> and the overlap floor)
    system = _PairSystem(p0, p1, DELTA, full)
    z0, z1 = _unit_slots(p0, v0), _unit_slots(p1, v1)
    z = np.concatenate([z0, z1])
    assume(np.abs(z).min() >= system.delta_opt)
    theta = np.stack([z.real, z.imag], axis=-1).ravel()
    r = system.residuals(theta)

    psi0 = TwoQubitState.unit(p0.slot_matrix() @ z0)
    psi1 = TwoQubitState.unit(p1.slot_matrix() @ z1)
    rA, rB = reduced_pair_residual(psi0, psi1)
    expected = rA ** 2 + rB ** 2
    if full:
        b = QubitState.normalized(1.0, 1.0)
        for sub in "AB":
            cross = cross_term_matrix(psi0, psi1, b, sub)
            expected += float(np.linalg.norm(cross)) ** 2
        overlap = abs(complex(np.vdot(psi0.vec, psi1.vec)))
        expected += max(0.0, system.delta_opt - overlap) ** 2
    assert float(r @ r) == pytest.approx(expected, abs=1e-12)


def _kink_free_point(system, rng, low: int, high: int) -> np.ndarray:
    """Random theta with ``low`` slots below the floor and ``high`` above.

    Every |slot|, and the overlap unless it vanishes identically, stays
    at least 1e-3 from the floor delta_opt and from zero.
    """
    overlap = system.p1.slot_matrix().T @ system.p0.slot_matrix()
    for _ in range(100):
        mag = np.r_[rng.uniform(0.02, 0.09, low), rng.uniform(0.3, 1.0, high)]
        z = rng.permutation(mag) * np.exp(2j * math.pi * rng.random(len(mag)))
        w = abs(z[system.n0:].conj() @ overlap @ z[:system.n0])
        if system.full and overlap.any() and (
                w < 1e-3 or abs(w - system.delta_opt) < 1e-3):
            continue
        return np.stack([z.real, z.imag], axis=-1).ravel()
    raise AssertionError("no kink-free point in 100 draws")


@pytest.mark.parametrize("full", [False, True])
def test_pair_system_jacobian_matches_central_differences(full):
    # slots clear of the floor, some slots on the active side of their
    # hinge, and (every slot small) an overlap below its floor
    rng = np.random.default_rng(11)
    h = 1e-6
    for p0, p1 in itertools.product(SYSTEM_PATTERNS, repeat=2):
        system = _PairSystem(p0, p1, DELTA, full)
        n = system.n
        theta = np.stack([_kink_free_point(system, rng, 0, n),
                          _kink_free_point(system, rng, n // 2, n - n // 2),
                          _kink_free_point(system, rng, n, 0)])
        J = system.jacobian(theta)
        step = h * np.eye(system.n_params)[:, None, :]
        fd = (system.residuals(theta + step)
              - system.residuals(theta - step)) / (2.0 * h)
        np.testing.assert_allclose(J, fd.transpose(1, 2, 0), rtol=0,
                                   atol=1e-7)
        r = system.residuals(theta)
        np.testing.assert_array_equal(system.residuals(theta[0]), r[0])
        # the last point has every slot hinge active, and so the overlap
        # hinge wherever the supports meet
        assert (r[2, system.n_forms:system.n_forms + n] > 0).all()
        if full and p0.support & p1.support:
            assert r[2, -1] > 0


@pytest.mark.parametrize("kets0, kets1, full", [
    (("00", "11"), ("01", "10"), False),
    (("00", "00", "01"), ("00", "01"), False),
    (("00", "01", "10"), ("00", "01", "10"), True),
    (("00", "01"), ("00", "11"), True),
])
def test_search_rows_do_not_depend_on_batch(kets0, kets1, full):
    # each restart row converges to the same bits alone, in a subset of
    # rows, or in the whole batch
    system = _PairSystem(BasisPattern(kets0), BasisPattern(kets1), DELTA, full)
    start = system.initial_points(42, 6)
    whole = _minimize_batch(system, start.copy(), 300)
    for rows in [[k] for k in range(6)] + [[1, 4]]:
        np.testing.assert_array_equal(
            _minimize_batch(system, start[rows], 300), whole[rows])


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
    assert max(reduced_pair_residual(*states)) >= \
        _eq4_bound(p0, p1, DELTA) - 1e-12


def test_eq4_bound_uses_the_witness_check_floor():
    # Y = |c00|^2 <= 1 - |c01|^2 stays a floor below 1: the floor the
    # witness check admits, (delta - 1e-12)^2, not delta^2
    bound = _eq4_bound(BasisPattern(("00",)), BasisPattern(("00", "01")),
                       DELTA)
    assert bound == pytest.approx(math.sqrt(2.0) * (DELTA - 1e-12) ** 2,
                                  rel=1e-13)


def test_eq4_bound_separates_table_verdicts(tables_run):
    # positive on exactly the Infeasible rows, which it decides alone
    results, _ = tables_run
    for res in itertools.chain.from_iterable(results.values()):
        out = res.outcome
        bound = _eq4_bound(BasisPattern(res.row.psi0_kets),
                           BasisPattern(res.row.psi1_kets), DELTA)
        if out.status is FeasibilityStatus.FEASIBLE:
            assert bound < 1e-6
            assert out.decided_by == "search"
        else:
            assert bound >= 0.0141
            assert out.decided_by == "bound"
            assert out.best_residual == bound


_MAXIMALLY_ENTANGLED = {frozenset({"00", "11"}), frozenset({"01", "10"}),
                        frozenset(KET_LABELS)}


def _related(s0: frozenset, s1: frozenset) -> bool:
    """Supports that two pure states with equal marginals can have: equal,
    both of a maximally entangled state, or partners (three kets whose
    missing kets differ in one bit, or three kets against all four)."""
    if s0 == s1 or {s0, s1} <= _MAXIMALLY_ENTANGLED:
        return True
    if {len(s0), len(s1)} == {3, 4}:
        return True
    if len(s0) == len(s1) == 3:
        (m0,), (m1,) = set(KET_LABELS) - s0, set(KET_LABELS) - s1
        return sum(a != b for a, b in zip(m0, m1)) == 1
    return False


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
        certified = _eq4_bound(BasisPattern(kets0), BasisPattern(kets1),
                               DELTA) >= _INFEASIBLE_FLOOR
        assert certified is not r, (kets0, kets1)
        related += r
        if len(set(kets0)) == len(kets0) and len(set(kets1)) == len(kets1):
            duplicate_free.append(r)
    assert related == 1301
    assert (len(duplicate_free), sum(duplicate_free)) == (225, 37)


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
    pats = [p.kets for p in duplicate_free_patterns()]
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


def _exact_diagonal_distance(counts0, counts1, floor: Fraction) -> Fraction:
    """`_diagonal_distance` in rational arithmetic, from its definition:
    the moduli^2 sets are simplices with vertices lo + (1 - sum(lo)) e_k
    over listed kets k, mapped to (X, Y) = (m00 + m01, m00 + m10), and
    the gap is the widest over the unit-L1 normals of their hulls."""
    normals = [(1, 0), (0, 1), (Fraction(1, 2), Fraction(1, 2)),
               (Fraction(1, 2), Fraction(-1, 2))]
    extents = []
    for counts in (counts0, counts1):
        lo = [floor if n == 1 else Fraction(0) for n in counts]
        corners = []
        for k in (k for k in range(4) if counts[k]):
            m = list(lo)
            m[k] += 1 - sum(lo)
            corners.append((m[0] + m[1], m[0] + m[2]))
        extents.append([[wx * x + wy * y for x, y in corners]
                        for wx, wy in normals])
    return max([Fraction(0)] + [max(min(a) - max(b), min(b) - max(a))
                                for a, b in zip(*extents)])


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


def test_diagonal_bound_matches_vertex_enumeration():
    # the 69 sorted multisets, plus some in another ket order
    permuted = [("01", "00"), ("10", "00", "01"), ("11", "00"),
                ("10", "01", "00"), ("00", "11", "00"),
                ("01", "10", "01", "00")]
    floor = (DELTA - 1e-12) ** 2
    for kets0, kets1 in itertools.product(_MULTISETS + permuted, repeat=2):
        counts = [_counts(kets0), _counts(kets1)]
        oracle = _pairwise_linf_distance(*(_vertex_polygon(c, floor)
                                           for c in counts))
        assert _diagonal_distance(*counts, floor) == pytest.approx(
            oracle, abs=1e-15)
        # the off-diagonal floor (b) is unchanged: the diagonal part
        # decides the bound whenever it is the larger term
        bound = _eq4_bound(BasisPattern(kets0), BasisPattern(kets1), DELTA)
        assert bound >= math.sqrt(2.0) * oracle - 1e-15
        if bound > math.sqrt(2.0) * floor:
            assert bound == pytest.approx(math.sqrt(2.0) * oracle,
                                          abs=1e-15)


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
    # the certified bound decides without a search: the diagonal points
    # (1, 1) and (1, 0) are at L-infinity distance 1
    out = feasible_eq4(BasisPattern(("00",)), BasisPattern(("01",)), FAST_CFG)
    assert out.status is FeasibilityStatus.INFEASIBLE
    assert out.witness is None
    assert math.isfinite(out.best_residual)
    assert out.best_residual >= _INFEASIBLE_FLOOR
    assert out.best_residual == pytest.approx(math.sqrt(2.0), rel=1e-15)
    assert out.decided_by == "bound"
    assert out.restarts_used == 0 and out.iterations == 0


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
    # the search accepted the witness by the check that re-verifies it
    report = masks_state(w.b, w.psi0, w.psi1)
    assert report.verdict
    assert max(report.residuals()) <= 1e-8


def _partner_supports(s0: frozenset, s1: frozenset) -> bool:
    """A three-ket support against full support, or two three-ket
    supports whose missing kets differ in one bit."""
    missing = sorted((set(KET_LABELS) - s for s in (s0, s1)), key=len)
    if [len(m) for m in missing] == [0, 1]:
        return True
    if [len(m) for m in missing] == [1, 1]:
        (a,), (b,) = missing
        return sum(x != y for x, y in zip(a, b)) == 1
    return False


def test_full_system_decides_every_scan_pair():
    # the support scan's config in the benchmark: Feasible on exactly the
    # 15 same-support pairs and the 16 partner pairs, each with a
    # re-verified witness at b = |+>, and Infeasible on the other 194
    cfg = FeasibilityConfig(restarts=2, seed=42)
    plus = QubitState.normalized(1.0, 1.0)
    feasible = set()
    differing = []  # Feasible pairs with differing supports, scan order
    for p0, p1 in itertools.product(duplicate_free_patterns(), repeat=2):
        out = feasible_full(p0, p1, cfg)
        if out.status is FeasibilityStatus.INFEASIBLE:
            continue
        assert out.status is FeasibilityStatus.FEASIBLE
        feasible.add((p0.support, p1.support))
        if p0.support != p1.support:
            differing.append((p0.kets, p1.kets))
        w = out.witness
        assert w.b == plus
        assert max(masks_state(w.b, w.psi0, w.psi1).residuals()) <= 1e-8
        assert abs(np.vdot(w.psi0.vec, w.psi1.vec)) >= DELTA - 1e-9
    same = {(s0, s1) for s0, s1 in feasible if s0 == s1}
    assert len(same) == 15
    assert feasible - same == {
        (s0, s1) for s0, s1 in itertools.product(
            (p.support for p in duplicate_free_patterns()), repeat=2)
        if _partner_supports(s0, s1)}
    assert len(feasible) == 31

    # the scan decides one pair per orbit and relabels the rest: it must
    # find the same violations in scan order, each witness re-verified
    # and re-assembled from its relabelled coefficients
    violations = support_theorem_scan(cfg)
    assert [(v.psi0_kets, v.psi1_kets) for v in violations] == differing
    for v in violations:
        assert v.outcome.status is FeasibilityStatus.FEASIBLE
        w = v.outcome.witness
        assert w.b == plus
        assert max(masks_state(w.b, w.psi0, w.psi1).residuals()) <= 1e-8
        assert abs(np.vdot(w.psi0.vec, w.psi1.vec)) >= DELTA - 1e-9
        for kets, coeffs, psi in ((v.psi0_kets, w.coeffs0, w.psi0),
                                  (v.psi1_kets, w.coeffs1, w.psi1)):
            state, _ = assemble(BasisPattern(kets), coeffs)
            np.testing.assert_allclose(state.vec, psi.vec, rtol=0, atol=1e-12)
            assert min(map(abs, coeffs)) >= DELTA - 1e-12


def _scan_orbits() -> list[set]:
    """The duplicate-free pattern pairs, as index sets, split into orbits
    under the ket maps and exchanging the two patterns."""
    supports = [frozenset(p.indices) for p in duplicate_free_patterns()]
    orbits, seen = [], set()
    for pair in itertools.product(supports, repeat=2):
        if pair in seen:
            continue
        orbit = set()
        for g in _KET_MAPS:
            s0, s1 = (frozenset(g[i] for i in s) for s in pair)
            orbit |= {(s0, s1), (s1, s0)}
        seen |= orbit
        orbits.append(orbit)
    return orbits


def test_ket_maps_are_a_group_of_basis_permutations():
    # X_A, X_B and the swap generate the eight symmetries of the square
    # 00-01-11-10, listed identity first
    assert _KET_MAPS[0] == (0, 1, 2, 3)
    assert len(set(_KET_MAPS)) == 8
    for g in _KET_MAPS:
        assert sorted(KET_LABELS[i] for i in g) == list(KET_LABELS)
    for g, h in itertools.product(_KET_MAPS, repeat=2):
        assert tuple(g[h[i]] for i in range(4)) in _KET_MAPS


def test_scan_pairs_form_28_orbits():
    orbits = _scan_orbits()
    assert len(orbits) == 28
    assert sum(map(len, orbits)) == 225


def test_scan_decides_one_pair_per_orbit(monkeypatch):
    # counted through the name the benchmark's tracer patches
    decided = []
    search = patterns.feasible_full

    def counting(p0, p1, cfg):
        decided.append((frozenset(p0.indices), frozenset(p1.indices)))
        return search(p0, p1, cfg)

    monkeypatch.setattr(patterns, "feasible_full", counting)
    support_theorem_scan(FeasibilityConfig(restarts=1, seed=42))
    assert len(decided) == 28
    assert all(sum(pair in orbit for pair in decided) == 1
               for orbit in _scan_orbits())


unit_vectors = st.lists(
    st.complex_numbers(min_magnitude=0.05, max_magnitude=1.0,
                       allow_nan=False, allow_infinity=False),
    min_size=4, max_size=4).map(TwoQubitState.unit)


def _invariants(psi0, psi1):
    """What the scan's symmetries keep: the sorted eq4 lines and cross
    norms of `masks_state` at |+>, its sorted superposition residuals,
    the sorted marginal distances and |<Psi0|Psi1>|."""
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
    # the masked qubit is fixed at |+>: the parameters are the slots'
    # re/im alone, and the K stack holds 18 Hermitian forms plus the
    # overlap matrix and its adjoint
    p0, p1 = BasisPattern(("00", "01", "10")), BasisPattern(("00", "11"))
    for full, forms in ((False, 10), (True, 20)):
        system = _PairSystem(p0, p1, DELTA, full)
        assert system.n_params == 2 * (len(p0) + len(p1))
        assert len(system.K) == forms


def test_full_system_without_overlap_is_infeasible_without_residual():
    # distinct single kets are orthogonal, so no restart meets the
    # overlap floor and none yields a candidate
    out = feasible_full(BasisPattern(("00",)), BasisPattern(("01",)),
                        FeasibilityConfig(restarts=20, seed=42))
    assert out.status is FeasibilityStatus.INFEASIBLE
    assert out.best_residual == math.inf
    assert out.witness is None


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
    # every restart takes at least one damped step, and the count is
    # part of the seeded, deterministic outcome
    p0 = BasisPattern(("00", "01", "10"))
    p1 = BasisPattern(("00", "01", "10", "11"))
    cfg = FeasibilityConfig(restarts=6, seed=42)
    a, b = decide(p0, p1, cfg), decide(p0, p1, cfg)
    assert a.iterations >= cfg.restarts
    assert a.iterations == b.iterations
    assert a.restarts_used == cfg.restarts


def test_seed_changes_search_path_not_verdicts():
    p0 = BasisPattern(("00", "11"))
    p1 = BasisPattern(("01", "10"))
    alt = feasible_eq4(p0, p1, FeasibilityConfig(restarts=60, seed=7))
    assert alt.status is FeasibilityStatus.FEASIBLE


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
