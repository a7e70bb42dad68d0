"""End-to-end CLI behavior: exit codes, reports, determinism."""

import json
import math
import subprocess
import sys

import pytest

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
    report = json.loads(capsys.readouterr().out)
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
    rc = main(["verify", "--restarts", "8"])
    out = capsys.readouterr().out
    assert rc == 1
    lines = out.splitlines()
    assert lines[-1].endswith("/5 checks passed")
    by_name = {line.split()[1].rstrip(":"): line.split()[0]
               for line in lines[:-1]}
    assert by_name["example1-fixed-point"] == "FAIL"
    assert by_name["eq9-spot-check"] == "ok"
    assert by_name["eq17-spot-check"] == "ok"


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
        main([command, "--restarts", "1", f"--tol={tol}"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert "unrecognized arguments: --tol" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("command", ["verify", "tables"])
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
