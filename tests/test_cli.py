"""End-to-end CLI behavior: exit codes, reports, determinism."""

import contextlib
import hashlib
import io
import json
import math
import subprocess
import sys
import warnings

import pytest
from hypothesis import example, given, seed, settings
from hypothesis import strategies as st

from qmask.cli import main

SQRT_HALF = math.sqrt(0.5)

GOOD_B = {"re": [0.2, 0.0], "im": [-0.2, -math.sqrt(23.0) / 5.0]}
UNIFORM_B = {"re": [SQRT_HALF, SQRT_HALF], "im": [0.0, 0.0]}
PSI0 = {"re": [SQRT_HALF, 0.0, 0.0, 0.0], "im": [0.0, 0.0, 0.0, SQRT_HALF]}
PSI1 = {"re": [0.0, SQRT_HALF, SQRT_HALF, 0.0], "im": [0.0, 0.0, 0.0, 0.0]}


@pytest.fixture
def triple(tmp_path):
    """Paths for a (b, Psi0, Psi1) triple the pair masks."""
    paths = []
    for name, payload in (("b", GOOD_B), ("psi0", PSI0), ("psi1", PSI1)):
        p = tmp_path / f"{name}.json"
        p.write_text(json.dumps(payload))
        paths.append(str(p))
    return paths


def _write(tmp_path, name, payload) -> str:
    p = tmp_path / name
    p.write_text(json.dumps(payload) if not isinstance(payload, str)
                 else payload)
    return str(p)


# ---------------------------------------------------------------------------
# check
# ---------------------------------------------------------------------------

def test_check_masking_triple_exits_zero(triple, capsys):
    assert main(["check", *triple]) == 0
    captured = capsys.readouterr()
    # GOOD_B's norm is 1 - 1.1e-16: full float precision, no warning
    assert captured.err == ""
    report = json.loads(captured.out)
    assert report["verdict"] is True
    assert report["tol"] == 1e-9
    assert len(report["eq4_residuals"]) == 6


def test_check_non_masking_qubit_exits_one(triple, tmp_path, capsys):
    b = _write(tmp_path, "uniform.json", UNIFORM_B)
    assert main(["check", b, triple[1], triple[2]]) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["verdict"] is False
    assert max(report["crossA_norm"], report["crossB_norm"]) > 0.1


def test_check_writes_report_file(triple, tmp_path, capsys):
    out = tmp_path / "report.json"
    assert main(["check", *triple, "--out", str(out)]) == 0
    assert capsys.readouterr().out == ""
    assert json.loads(out.read_text())["verdict"] is True


def test_check_tight_tol_flag(triple):
    assert main(["check", *triple, "--tol", "1e-30"]) == 1


def test_check_corrects_small_norm_drift(triple, tmp_path, capsys):
    drifted = {k: [v * (1.0 + 2e-10) for v in GOOD_B[k]] for k in GOOD_B}
    b = _write(tmp_path, "drift.json", drifted)
    assert main(["check", b, triple[1], triple[2]]) == 0
    err = capsys.readouterr().err
    assert "norm drift" in err and "corrected" in err


@pytest.mark.parametrize("drift, warns", [(1e-13, False), (9e-13, False),
                                          (3e-12, True)])
def test_check_warns_only_on_drift_past_the_unit_tolerance(
        triple, tmp_path, capsys, drift, warns):
    # qlinalg.NORM_TOL is 1e-12; the drift of |0> scaled by 1 + drift is
    # drift to within a rounding error
    b = _write(tmp_path, "b.json",
               {"re": [1.0 + drift, 0.0], "im": [0.0, 0.0]})
    assert main(["check", b, triple[1], triple[2]]) in (0, 1)
    err = capsys.readouterr().err
    assert ("norm drift" in err) is warns
    assert err.count("\n") == warns


@pytest.mark.parametrize("payload", [
    {"re": [1.001, 0.0], "im": [0.0, 0.0]},           # drift too large
    {"re": [1.0], "im": [0.0]},                        # wrong length
    {"re": [1.0, 0.0]},                                # missing key
    {"re": [1.0, 0.0], "im": [0.0, 0.0], "x": 1},      # extra key
    {"re": [1.0, "a"], "im": [0.0, 0.0]},              # non-numeric
    {"re": [0.0, 0.0], "im": [0.0, 0.0]},              # zero vector
    {"re": [[1, 0], [0, 0]], "im": [[0, 0], [0, 0]]},  # nested qubit
    {"re": [[1], [0], [0], [0]],                       # nested two-qubit
     "im": [[0], [0], [0], [0]]},
    {"re": ["1", "0"], "im": [0.0, 0.0]},              # string
    {"re": [1.0, 0.0], "im": [False, False]},          # boolean
    {"re": [1.0, None], "im": [0.0, 0.0]},             # null
    {"re": [10 ** 400, 0], "im": [0, 0]},              # beyond float range
    "{not json",                                       # unparseable
])
def test_check_rejects_bad_state_file(triple, tmp_path, payload, capsys):
    bad = _write(tmp_path, "bad.json", payload)
    for slot in range(3):  # the bad file as b, Psi0 and Psi1 in turn
        files = list(triple)
        files[slot] = bad
        assert main(["check", *files]) == 2
        assert "error:" in capsys.readouterr().err


def test_check_reports_null_amplitude_as_non_numeric(triple, tmp_path,
                                                      capsys):
    b = _write(tmp_path, "null.json", {"re": [1.0, None], "im": [0.0, 0.0]})
    assert main(["check", b, triple[1], triple[2]]) == 2
    assert "non-numeric amplitude" in capsys.readouterr().err


def test_check_missing_file_exits_two(triple, tmp_path, capsys):
    missing = str(tmp_path / "nope.json")
    assert main(["check", missing, triple[1], triple[2]]) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("data, message", [
    # nested past the decoder's recursion limit (a RecursionError)
    (b"[" * 100_000, "JSON nested too deeply"),
    # not UTF-8 (a UTF-16 byte-order mark)
    (b'\xff\xfe{"re": [1, 0], "im": [0, 0]}',
     "'utf-8' codec can't decode byte 0xff"),
    # a norm above the float range, and no overflow warning before it
    (b'{"re": [1e308, 1e308], "im": [0, 0]}',
     "state norm inf is too far from 1 to correct"),
    # json would keep the last value
    (b'{"re": [1, 0], "im": [0, 0], "re": [0, 1]}', "duplicate key 're'"),
    # an infinite imaginary part, and no invalid-value warning before it
    (b'{"re": [1, 0], "im": [Infinity, 0]}', "non-finite amplitude"),
    # past Python's limit on integer digits
    (b'{"re": [1%s, 0], "im": [0, 0]}' % (b"0" * 5000),
     "Exceeds the limit (4300 digits)"),
], ids=["deep-nesting", "utf-16-bom", "norm-overflow", "duplicate-key",
        "infinity", "long-integer"])
def test_check_load_errors_name_the_file(triple, tmp_path, data, message,
                                         capsys):
    bad = tmp_path / "bad.json"
    bad.write_bytes(data)
    assert main(["check", str(bad), triple[1], triple[2]]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: {bad}: {message}")
    assert captured.err.count("\n") == 1 and captured.out == ""


def _state_json(n: int):
    """JSON text of a unit state of length ``n``."""
    def unit(amps):
        norm = math.sqrt(sum(abs(a) ** 2 for a in amps))
        return json.dumps({"re": [a.real / norm for a in amps],
                           "im": [a.imag / norm for a in amps]})
    return st.lists(st.complex_numbers(min_magnitude=0.1, max_magnitude=1.0),
                    min_size=n, max_size=n).map(unit)


#: 1 +- 1e-9 and the floats next to them: as the one nonzero amplitude,
#: norm drifts on both sides of the 1e-9 limit
_EDGE_AMPLITUDES = [a for b in (1.0 + 1e-9, 1.0 - 1e-9)
                    for a in (math.nextafter(b, 0.0), b, math.nextafter(b, 2.0))]


def _drifted(n: int):
    """A state of length ``n`` with one edge amplitude, valid iff its
    drift is within the limit (see `_state_files`)."""
    def state(args):
        amp, slot = args
        re = [amp if k == slot else 0.0 for k in range(n)]
        return (json.dumps({"re": re, "im": [0.0] * n}).encode(),
                abs(amp - 1.0) <= 1e-9)
    return st.tuples(st.sampled_from(_EDGE_AMPLITUDES),
                     st.integers(0, n - 1)).map(state)


_json_values = st.recursive(
    st.none() | st.booleans() | st.floats() | st.integers() | st.text(),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.sampled_from(["re", "im", "x"]), inner,
                      max_size=3),
    max_leaves=10)


def _state_files(n: int):
    """(file bytes, valid) for a state of length ``n``: valid is True for
    a unit state (exit 0 or 1), False for a file that must exit 2, and
    None where either may come up."""
    number = (st.floats() | st.integers(-10 ** 400, 10 ** 400)
              | st.sampled_from([1e308, -1e308, 5e-324, 2.0 ** -1074]))
    amps = st.lists(number, min_size=n, max_size=n)
    valid = _state_json(n).map(lambda text: (text.encode(), True))
    return st.one_of(
        valid,
        _drifted(n),
        # malformed JSON; wrong types and shapes, where a valid state may
        # still come up
        st.text(max_size=30).map(lambda text: (text.encode(), False)),
        _json_values.map(lambda v: (json.dumps(v).encode(), None)),
        st.tuples(_json_values, _json_values).map(lambda p: (
            json.dumps({"re": p[0], "im": p[1]}).encode(), None)),
        # extreme magnitudes: inf and nan as the Infinity/NaN literals
        st.tuples(amps, amps).map(lambda p: (
            json.dumps({"re": p[0], "im": p[1]}).encode(), None)),
        # bad encodings
        st.tuples(_state_json(n), st.sampled_from(
            ["utf-16", "utf-32", "utf-8-sig"])).map(
                lambda p: (p[0].encode(p[1]), False)),
        st.binary(max_size=30).map(lambda data: (data, None)),
    )


#: the generated state files of a qubit and of a two-qubit state
_STATE_FILES = {n: _state_files(n) for n in (2, 4)}


@seed(29)
@settings(max_examples=250, deadline=None)
@given(slot=st.integers(0, 2), data=st.data())
@example(slot=1, data=None)  # data=None: 100 000 nested "[" as Psi0
def test_check_exits_zero_one_or_two_with_the_file_named(
        slot, data, tmp_path_factory):
    directory = tmp_path_factory.getbasetemp()
    files = []
    for name, payload in zip(("b", "psi0", "psi1"), (GOOD_B, PSI0, PSI1)):
        path = directory / f"prop_{name}.json"
        path.write_text(json.dumps(payload))
        files.append(str(path))
    if data is None:
        content, valid = b"[" * 100_000, False
    else:
        content, valid = data.draw(_STATE_FILES[2 if slot == 0 else 4])
    bad = directory / "prop_generated.json"
    bad.write_bytes(content)
    files[slot] = str(bad)
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(err):
        warnings.simplefilter("error")  # a warning raises out of main
        code = main(["check", *files])
    err = err.getvalue()
    assert code in ((0, 1) if valid else (2,) if valid is False
                    else (0, 1, 2)), (content, err)
    assert "Traceback" not in err
    if code == 2:  # the fixed files load without a drift warning
        assert err.count("\n") == 1, (content, err)
        assert err.startswith(f"error: {bad}: "), (content, err)


# golden output, recorded before the triple path was unrolled: the
# report's floats must keep every bit
MASKING_REPORT = """\
{
 "crossA_norm": 0.0,
 "crossB_norm": 0.0,
 "degenerate_superposition": false,
 "eq4_residuals": [
  0.0,
  0.0,
  0.0,
  0.0,
  0.0,
  0.0
 ],
 "superposition_residuals": [
  1.5700924586837752e-16,
  1.5700924586837752e-16
 ],
 "tol": 1e-09,
 "verdict": true
}
"""
# a generic triple, each state rounded to 9 digits, so the constructors
# rescale a drifted norm
GENERIC_TRIPLE = (
    {"re": [0.220415508, -0.808190194], "im": [0.514302851, 0.18367959]},
    {"re": [0.636284763, 0.127256953, -0.254513905, 0.190885429],
     "im": [0.063628476, -0.381770858, 0.0, 0.572656287]},
    {"re": [-0.405553553, 0.0, 0.648885685, 0.162221421],
     "im": [0.243332132, 0.567774974, -0.081110711, 0.0]},
)
NON_MASKING_REPORT = """\
{
 "crossA_norm": 0.1756551319885123,
 "crossB_norm": 0.2096691869858074,
 "degenerate_superposition": false,
 "eq4_residuals": [
  0.024797570983867367,
  0.1776315796596914,
  0.17763157965969145,
  0.0247975709838672,
  0.29606344458608275,
  0.3860861766761071
 ],
 "superposition_residuals": [
  0.3710554642560115,
  0.4271724922610332
 ],
 "tol": 1e-09,
 "verdict": false
}
"""


def test_check_stdout_is_golden(triple, tmp_path, capsys):
    assert main(["check", *triple]) == 0
    assert capsys.readouterr().out == MASKING_REPORT
    files = [_write(tmp_path, f"{name}.json", payload)
             for name, payload in zip(("b", "psi0", "psi1"), GENERIC_TRIPLE)]
    assert main(["check", *files]) == 1
    assert capsys.readouterr().out == NON_MASKING_REPORT


# ---------------------------------------------------------------------------
# tables
# ---------------------------------------------------------------------------

def test_tables_single_table_report(capsys):
    assert main(["tables", "--table", "1", "--restarts", "80"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["row_count"] == 16
    assert report["mismatch_count"] == 0
    assert report["config"] == {"delta": 0.1, "restarts": 80, "seed": 42,
                                "tol": 1e-8}
    feasible = [r for r in report["rows"] if r["status"] == "Feasible"]
    assert len(feasible) == 4
    assert all("witness" in r for r in feasible)
    # the restart count lives in "config" only
    assert {k for r in report["rows"] for k in r} == {
        "table", "index", "psi0_kets", "psi1_kets", "expected", "status",
        "best_residual", "decided_by", "agree", "witness"}


def test_tables_output_is_deterministic(capsys):
    args = ["tables", "--table", "1", "--restarts", "40"]
    main(args)
    first = capsys.readouterr().out
    main(args)
    assert capsys.readouterr().out == first


def test_tables_corrupt_fixture_exits_two(tmp_path, monkeypatch, capsys):
    from qmask import patterns

    bad = tmp_path / "fixture.json"
    bad.write_text("[{]")
    monkeypatch.setattr(patterns, "fixture_path", lambda: bad)
    assert main(["tables", "--table", "1"]) == 2
    assert "error:" in capsys.readouterr().err


def test_tables_missing_fixture_exits_two(tmp_path, monkeypatch, capsys):
    from qmask import patterns

    monkeypatch.setattr(patterns, "fixture_path",
                        lambda: tmp_path / "gone.json")
    assert main(["tables", "--table", "1"]) == 2
    assert "error:" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# surface
# ---------------------------------------------------------------------------

def test_surface_example1_csv_file(tmp_path, capsys):
    out = tmp_path / "surf.csv"
    rc = main(["surface", "1", "--branch", "minus", "--grid", "41",
               "--out", str(out)])
    assert rc == 0
    stdout = capsys.readouterr().out
    lines = out.read_text().splitlines()
    assert lines[0] == "coord1,coord2,coord3,residual,branch"
    kept = len(lines) - 1
    assert stdout.strip() == f"kept {kept} of {41 ** 3} grid points"
    assert any(line.startswith("0.2,-0.2,0.0,") for line in lines[1:])


def test_surface_example1_byte_identical_reruns(tmp_path):
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    for out in (out1, out2):
        main(["surface", "1", "--branch", "plus", "--grid", "31",
              "--out", str(out)])
    assert out1.read_bytes() == out2.read_bytes()


def test_surface_example2_stdout(capsys):
    assert main(["surface", "2", "--grid", "21"]) == 0
    captured = capsys.readouterr()
    lines = captured.out.splitlines()
    assert lines[0] == "coord1,coord2,coord3,residual,branch"
    # lambda = 0 plane plus 12 full circle columns, overlap removed
    assert len(lines) - 1 == 21 * 21 + 12 * 21 - 12
    assert f"kept {len(lines) - 1} of {21 ** 3} grid points" in captured.err
    assert all(line.endswith(",na") for line in lines[1:])


@pytest.mark.parametrize("args, sha256", [
    (["1", "--branch", "plus"],
     "0dbd0ee0b11395abb609625658eade107a600072f1bbf270c429d601284eb976"),
    (["1", "--branch", "minus"],
     "c9100f7bfca55c1ee2366f01949b059625f50de4fb998214e649d91d318bd2f2"),
    (["2"],
     "609156aad05981d7e724312a2ff62e88097c6d10f24bfd0b8294e3f090bab10f"),
])
def test_surface_csv_at_grid_201_is_golden(args, sha256, tmp_path, capsys):
    out = tmp_path / "surf.csv"
    assert main(["surface", *args, "--grid", "201", "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == sha256


def test_surface_unwritable_path_exits_two(capsys):
    rc = main(["surface", "1", "--grid", "11",
               "--out", "/nonexistent-dir/surf.csv"])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


def test_surface_rejects_unknown_example():
    with pytest.raises(SystemExit):
        main(["surface", "3"])


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def test_verify_reports_failing_bundled_claims(capsys):
    # the bundled reference data contains claims the oracles refute
    # (the quoted fixed point and some expected verdicts), so a clean
    # build reports those failures and exits 1
    rc = main(["verify"])
    out = capsys.readouterr().out
    assert rc == 1
    lines = out.splitlines()
    assert lines[-1].endswith("/5 checks passed")
    by_name = {line.split()[1].rstrip(":"): line.split()[0]
               for line in lines[:-1]}
    assert by_name["example1-fixed-point"] == "FAIL"
    # eq9 at the phase-corrected qubit: all three lines vanish (lines 2-3
    # stay below 1/2 at every qubit, so a looser gate could never fail)
    assert ("ok   eq9-spot-check: line residuals "
            "('1.110e-16', '0.000e+00', '0.000e+00')") in lines
    assert by_name["eq17-spot-check"] == "ok"


# golden output, recorded before the search defaults, the table numbers
# and the unit check each got one home; verify prints no search residual
VERIFY_STDOUT = (
    "FAIL example1-fixed-point: max residual 3.837e-01\n"
    "ok   eq9-spot-check: line residuals ('1.110e-16', '0.000e+00', "
    "'0.000e+00')\n"
    "ok   eq17-spot-check: on-circle 0.000e+00, off-circle 9.706e-02\n"
    "FAIL tables: 15 mismatched rows: [(3, 6, 'no', 'Feasible'), (3, 7, "
    "'no', 'Feasible'), (3, 8, 'no', 'Feasible'), (3, 13, 'no', "
    "'Feasible'), (3, 16, 'no', 'Feasible'), (3, 21, 'no', 'Feasible'), "
    "(3, 24, 'no', 'Feasible'), (3, 30, 'no', 'Feasible'), (3, 32, 'no', "
    "'Feasible'), (4, 4, 'no', 'Feasible'), (4, 5, 'no', 'Feasible'), "
    "(4, 6, 'no', 'Feasible'), (4, 7, 'no', 'Feasible'), (4, 8, 'no', "
    "'Feasible'), (4, 12, 'no', 'Feasible')]\n"
    "FAIL support-scan: 16 feasible differing-support pairs: [(('00', "
    "'01', '10'), ('00', '01', '11')), (('00', '01', '10'), ('00', '10', "
    "'11')), (('00', '01', '10'), ('00', '01', '10', '11')), (('00', "
    "'01', '11'), ('00', '01', '10')), (('00', '01', '11'), ('01', '10', "
    "'11')), (('00', '01', '11'), ('00', '01', '10', '11')), (('00', "
    "'10', '11'), ('00', '01', '10')), (('00', '10', '11'), ('01', '10', "
    "'11')), (('00', '10', '11'), ('00', '01', '10', '11')), (('01', "
    "'10', '11'), ('00', '01', '11')), (('01', '10', '11'), ('00', '10', "
    "'11')), (('01', '10', '11'), ('00', '01', '10', '11')), (('00', "
    "'01', '10', '11'), ('00', '01', '10')), (('00', '01', '10', '11'), "
    "('00', '01', '11')), (('00', '01', '10', '11'), ('00', '10', "
    "'11')), (('00', '01', '10', '11'), ('01', '10', '11'))]\n"
    "2/5 checks passed\n"
)


def test_verify_stdout_is_golden(capsys):
    assert main(["verify"]) == 1
    assert capsys.readouterr() == (VERIFY_STDOUT, "")


@pytest.mark.parametrize("flag", [["--restarts", "10"], ["--seed", "42"]])
def test_verify_takes_no_search_options(flag, capsys):
    # verify runs at the default config, the one the benchmark measures
    with pytest.raises(SystemExit) as exc:
        main(["verify", *flag])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert f"unrecognized arguments: {flag[0]}" in captured.err
    assert captured.out == ""


#: sha256 of the ``tables --restarts 10 --seed 42`` JSON with each Feasible
#: row's search numbers masked, recorded with the verify golden above
TABLES_MASKED_SHA256 = (
    "44e396d9096b9ba46f517b78b91e7b760a13ef8e8e0db9cc91719d4cf0199c5c")


def test_tables_json_is_golden_up_to_the_search_numbers(tmp_path, capsys):
    # a Feasible row's best residual and witness are what the damped
    # least-squares search converged to, so they may move in the last
    # bits with the LAPACK build; every other byte is pinned
    out = tmp_path / "tables.json"
    argv = ["tables", "--restarts", "10", "--seed", "42", "--out", str(out)]
    assert main(argv) == 1
    assert capsys.readouterr() == ("", "")
    raw = out.read_text()
    report = json.loads(raw)
    assert json.dumps(report, indent=1, sort_keys=True) + "\n" == raw
    assert (report["row_count"], report["mismatch_count"]) == (106, 15)
    feasible = [r for r in report["rows"] if r["status"] == "Feasible"]
    assert len(feasible) == 30
    for row in feasible:
        row["best_residual"] = row["witness"] = "masked"
    masked = json.dumps(report, indent=1, sort_keys=True) + "\n"
    assert hashlib.sha256(masked.encode()).hexdigest() == TABLES_MASKED_SHA256


def test_tables_search_errors_are_not_fixture_errors(tmp_path, monkeypatch,
                                                     capsys):
    # the config refuses more restarts than NumPy can index, before any
    # search; the error is the config's, and only fixture errors say
    # "fixture"
    assert main(["tables", "--restarts", "9" * 20]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and captured.out == ""
    assert "fixture" not in captured.err
    # an unknown ket label is the fixture's error, not the pattern's
    from qmask import patterns

    bad = tmp_path / "fixture.json"
    bad.write_text(json.dumps([{"table": 1, "psi0_kets": ["02"],
                                "psi1_kets": ["00"], "expected": "no"}]))
    monkeypatch.setattr(patterns, "fixture_path", lambda: bad)
    assert main(["tables", "--table", "1"]) == 2
    assert capsys.readouterr().err.startswith(
        "error: table fixture: malformed fixture row")


@pytest.mark.parametrize("command", ["tables"])
def test_search_options_default_to_the_config(command):
    # only tables takes them: the benchmark passes both explicitly
    from qmask.cli import build_parser
    from qmask.patterns import FeasibilityConfig

    args = build_parser().parse_args([command])
    defaults = FeasibilityConfig()
    assert (args.restarts, args.seed) == (defaults.restarts, defaults.seed)
    assert (args.restarts, args.seed) == (10, 42)


# ---------------------------------------------------------------------------
# --tol
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("tol", ["nan", "inf", "0", "-1e-9", "tiny"])
@pytest.mark.parametrize("command", ["check", "surface"])
def test_tol_must_be_finite_and_positive(command, tol, triple, capsys):
    argv = {"check": ["check", *triple],
            "surface": ["surface", "1", "--grid", "3"]}[command]
    with pytest.raises(SystemExit) as exc:
        main([*argv, f"--tol={tol}"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert "argument --tol" in captured.err and captured.out == ""


@pytest.mark.parametrize("tol", ["nan", "inf", "0", "-1e-9", "tiny"])
@pytest.mark.parametrize("command", ["verify", "tables"])
def test_verify_and_tables_take_no_tol(command, tol, capsys):
    # their tolerances are fixed, so any --tol is an unknown argument
    with pytest.raises(SystemExit) as exc:
        main([command, f"--tol={tol}"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert "unrecognized arguments: --tol" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("command", ["tables"])
def test_negative_seed_is_named_in_the_error(command, capsys):
    assert main([command, "--restarts", "1", "--seed", "-1"]) == 2
    captured = capsys.readouterr()
    assert "seed" in captured.err and "fixture" not in captured.err
    assert captured.out == ""


# ---------------------------------------------------------------------------
# script plumbing
# ---------------------------------------------------------------------------

def test_console_script_help_runs():
    proc = subprocess.run([sys.executable, "-m", "qmask.cli", "--help"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "tables" in proc.stdout and "surface" in proc.stdout
