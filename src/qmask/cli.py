"""Command-line entry point: reproducible masking-verification runs.

Subcommands::

    qmask check B PSI0 PSI1    verdict for one (b, Psi0, Psi1) triple
    qmask tables               reproduce the bundled verdict tables
    qmask surface {1,2}        sample an example solution surface to CSV
    qmask verify               one-shot regression over the built-in claims

State files are JSON objects ``{"re": [...], "im": [...]}`` with flat
lists of JSON numbers of length 2 (qubit) or 4 (two-qubit state, basis
order 00,01,10,11).  Norm drift up to 1e-9 is corrected, with a warning
when it exceeds the states' own unit tolerance ``qlinalg.NORM_TOL``
(1e-12), so a state written at full float precision loads silently;
larger drift is an input error.

Exit codes: 0 success, 1 verdict/mismatch failure, 2 input failure, with
one ``error:`` line that names the state file at fault, if any.
Identical flags and seed give byte-identical output.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys

import numpy as np

from . import conditions, ortho, patterns
from .qlinalg import DEFAULT_TOL, NORM_TOL, QubitState, TwoQubitState

DRIFT_LIMIT = 1e-9


class InputError(Exception):
    """Malformed input file or argument (CLI exit code 2)."""


def _tolerance(text: str) -> float:
    """argparse type of ``--tol``: a number `conditions._check_tol` takes."""
    value = float(text)
    try:
        conditions._check_tol(value)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc
    return value


def _unique_keys(pairs: list) -> dict:
    """``object_pairs_hook`` of the state files: a repeated key is an
    error, where ``json`` would keep its last value."""
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise ValueError(f"duplicate key {key!r}")
        obj[key] = value
    return obj


def _load_amplitudes(path, expected_len: int) -> np.ndarray:
    """The file's amplitudes, norm checked; the state constructors rescale."""
    try:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh, object_pairs_hook=_unique_keys)
    except OSError as exc:
        raise InputError(f"{path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InputError(f"{path}: not valid JSON ({exc})") from exc
    except RecursionError as exc:
        raise InputError(f"{path}: JSON nested too deeply") from exc
    except ValueError as exc:  # not UTF-8, a duplicate key, too many digits
        raise InputError(f"{path}: {exc}") from exc
    if not isinstance(raw, dict) or set(raw) != {"re", "im"}:
        raise InputError(f'{path}: expected an object {{"re": [...], "im": [...]}}')
    parts = (raw["re"], raw["im"])
    if not all(isinstance(p, list) and len(p) == expected_len for p in parts):
        raise InputError(
            f"{path}: re/im must be flat lists of length {expected_len}")
    # JSON numbers only: bool is an int subclass, and strings would coerce
    if not all(type(v) in (int, float) for p in parts for v in p):
        raise InputError(f"{path}: non-numeric amplitude")
    try:
        re, im = (np.array(p, dtype=float) for p in parts)
    except OverflowError as exc:
        raise InputError(f"{path}: amplitude out of float range") from exc
    if not (np.isfinite(re).all() and np.isfinite(im).all()):
        raise InputError(f"{path}: non-finite amplitude")
    vec = re + 1j * im
    with np.errstate(over="ignore"):  # a norm above the float range is inf
        norm = float(np.linalg.norm(vec))
    if norm == 0.0 or abs(norm - 1.0) > DRIFT_LIMIT:
        raise InputError(
            f"{path}: state norm {norm!r} is too far from 1 to correct")
    if abs(norm - 1.0) > NORM_TOL:
        print(f"warning: {path}: norm drift {abs(norm - 1.0):.3e} corrected",
              file=sys.stderr)
    return vec


def _state_dict(vec: np.ndarray) -> dict:
    return {"re": [float(v.real) for v in vec],
            "im": [float(v.imag) for v in vec]}


def _jsonable(value):
    if isinstance(value, float):
        return "inf" if math.isinf(value) else value
    if isinstance(value, tuple):
        return [_jsonable(v) for v in value]
    return value


def _emit(text: str, out_path) -> None:
    if out_path:
        try:
            with open(out_path, "w") as fh:
                fh.write(text)
        except OSError as exc:
            raise InputError(f"{out_path}: {exc}") from exc
    else:
        print(text, end="")


def _report_json(obj) -> str:
    return json.dumps(obj, indent=1, sort_keys=True) + "\n"


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_check(args) -> int:
    b = QubitState.normalized(*_load_amplitudes(args.b, 2).tolist())
    psi0 = TwoQubitState.unit(_load_amplitudes(args.psi0, 4))
    psi1 = TwoQubitState.unit(_load_amplitudes(args.psi1, 4))
    report = conditions.masks_state(b, psi0, psi1, tol=args.tol)
    payload = {k: _jsonable(v)
               for k, v in dataclasses.asdict(report).items()}
    _emit(_report_json(payload), args.out)
    return 0 if report.verdict else 1


def _witness_dict(w: patterns.Witness) -> dict:
    out = {
        "psi0": _state_dict(w.psi0.vec),
        "psi1": _state_dict(w.psi1.vec),
        "coeffs0": [[v.real, v.imag] for v in w.coeffs0],
        "coeffs1": [[v.real, v.imag] for v in w.coeffs1],
    }
    if w.b is not None:
        out["b"] = _state_dict(w.b.vec)
    return out


def _row_dict(res: patterns.TableRowResult) -> dict:
    out = {
        "table": res.row.table,
        "index": res.row.index,
        "psi0_kets": list(res.row.psi0_kets),
        "psi1_kets": list(res.row.psi1_kets),
        "expected": res.row.expected,
        "status": res.outcome.status.value,
        "best_residual": _jsonable(res.outcome.best_residual),
        "decided_by": res.outcome.decided_by,
        "agree": res.agree,
    }
    if res.outcome.witness is not None:
        out["witness"] = _witness_dict(res.outcome.witness)
    return out


def cmd_tables(args) -> int:
    cfg = patterns.FeasibilityConfig(restarts=args.restarts, seed=args.seed)
    try:
        results = patterns.reproduce_tables(
            [args.table] if args.table else patterns.TABLES, cfg)
    except (FileNotFoundError, patterns.FixtureError) as exc:
        raise InputError(f"table fixture: {exc}") from exc
    rows = [_row_dict(r) for r in results]
    mismatches = [r for r in rows if not r["agree"]]
    payload = {
        "config": dataclasses.asdict(cfg),
        "rows": rows,
        "row_count": len(rows),
        "mismatch_count": len(mismatches),
        "mismatches": [{"table": r["table"], "index": r["index"],
                        "expected": r["expected"], "status": r["status"]}
                       for r in mismatches],
    }
    _emit(_report_json(payload), args.out)
    return 0 if not mismatches else 1


def cmd_surface(args) -> int:
    if args.example == 1:
        points = ortho.sample_example1(args.grid, args.branch, args.tol)
    else:
        points = ortho.sample_example2(args.grid, args.tol)
    summary = f"kept {len(points)} of {args.grid ** 3} grid points"
    if args.out:
        try:
            ortho.write_surface_csv(points, args.out)
        except OSError as exc:
            raise InputError(f"{args.out}: {exc}") from exc
        print(summary)
    else:
        ortho.write_surface_csv(points, sys.stdout)
        print(summary, file=sys.stderr)
    return 0


def _verify_checks():
    """Yield (name, passed, detail) for every built-in claim."""
    # fixed-point check: the quoted example-1 masked qubit
    psi0, psi1 = ortho.EXAMPLE1_PAIR.states()
    b = QubitState.normalized(complex(0.2, -0.2), math.sqrt(23.0) / 5.0)
    report = conditions.masks_state(b, psi0, psi1)
    yield ("example1-fixed-point", report.verdict,
           f"max residual {max(report.residuals()):.3e}")

    # orthogonal-family spot checks; eq9 at the phase-corrected qubit
    b = QubitState.normalized(complex(0.2, -0.2),
                              complex(0.0, -math.sqrt(23.0) / 5.0))
    r9 = ortho.eq9_residuals(ortho.EXAMPLE1_PAIR, b)
    tol = DEFAULT_TOL
    yield ("eq9-spot-check", max(r9) <= tol,
           f"line residuals {tuple(f'{v:.3e}' for v in r9)}")
    on = ortho.example2_residual(0.6, 0.5, 0.5)
    off = ortho.example2_residual(0.6, 0.6, 0.6)
    yield ("eq17-spot-check", on <= tol and off > 1e-3,
           f"on-circle {on:.3e}, off-circle {off:.3e}")

    # table reproduction
    cfg = patterns.FeasibilityConfig()
    mismatches = [(res.row.table, res.row.index, res.row.expected,
                   res.outcome.status.value)
                  for res in patterns.reproduce_tables(patterns.TABLES, cfg)
                  if not res.agree]
    yield ("tables", not mismatches,
           f"{len(mismatches)} mismatched rows: {mismatches}")

    # support-theorem scan
    violations = patterns.support_theorem_scan(cfg)
    pairs = [(v.psi0_kets, v.psi1_kets) for v in violations]
    yield ("support-scan", not violations,
           f"{len(violations)} feasible differing-support pairs: {pairs}")


def cmd_verify(args) -> int:
    try:
        checks = list(_verify_checks())
    except (FileNotFoundError, ValueError) as exc:
        raise InputError(str(exc)) from exc
    failed = 0
    for name, passed, detail in checks:
        status = "ok" if passed else "FAIL"
        print(f"{status:4s} {name}: {detail}")
        failed += 0 if passed else 1
    print(f"{len(checks) - failed}/{len(checks)} checks passed")
    return 0 if failed == 0 else 1


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qmask",
        description="verify qubit information-masking conditions")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="check one (b, Psi0, Psi1) triple")
    p.add_argument("b", help="qubit state JSON file")
    p.add_argument("psi0", help="two-qubit state JSON file")
    p.add_argument("psi1", help="two-qubit state JSON file")
    p.add_argument("--tol", type=_tolerance, default=DEFAULT_TOL,
                   help="residual tolerance (default %(default)g)")
    p.add_argument("--out", default=None, help="write report here")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("tables", help="reproduce the bundled verdict tables")
    p.add_argument("--table", type=int, choices=patterns.TABLES, default=None,
                   help="restrict to one table (default: all)")
    defaults = patterns.FeasibilityConfig()
    p.add_argument("--restarts", type=int, default=defaults.restarts)
    p.add_argument("--seed", type=int, default=defaults.seed)
    p.add_argument("--out", default=None, help="write JSON report here")
    p.set_defaults(func=cmd_tables)

    p = sub.add_parser("surface", help="sample an example surface to CSV")
    p.add_argument("example", type=int, choices=(1, 2))
    p.add_argument("--branch", choices=ortho.BRANCHES, default="plus",
                   help="example-1 sign branch (default plus)")
    p.add_argument("--grid", type=int, default=201,
                   help="lattice points per axis (default 201)")
    p.add_argument("--tol", type=_tolerance, default=DEFAULT_TOL,
                   help="keep threshold (default %(default)g)")
    p.add_argument("--out", default=None, help="CSV path (default stdout)")
    p.set_defaults(func=cmd_surface)

    p = sub.add_parser("verify", help="run every built-in claim check")
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (InputError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
