"""Run one qmask benchmark workload and print its metrics.

    python3 perfbench/run.py --workload {tables,scan,verdicts} \
        --seed N --seconds S --trace {0,1}

Run it from the root of a qmask checkout: qmask is imported from
``src`` there, single-threaded (the BLAS/OpenMP thread variables are set
to 1).  A run first times fresh interpreters that import qmask (set-up),
then repeats whole passes of the workload, at least two and more while
the next one should end within ``--seconds``, checking every pass
against the certified results.  With
``--trace 1`` it then makes one more pass with every layer's public
functions wrapped in spans, and reports per-layer metrics instead of
the end-to-end ones.

Every gated time is in nominal seconds: a reference block, timed
between the passes' work every 0.2 s (``measure.Speedometer``) and in
each set-up child after its import, gives the host's speed at each
moment, and work times are converted to that block's nominal speed.
The raw times are printed and recorded beside them.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Details (the
environment, the ungated ``decision_ms_tail`` with its percentile and
sample count, the raw times, failures, and for traced runs the span
file) go to
``perfbench/out/``.  The exit code is 0 only
when every check passed.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

from measure import (
    BLAS_ENV_VARS,
    Speedometer,
    Tracer,
    environment,
    percentile,
    reference_block,
    setup_seconds,
    tail_percentile,
)

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"

#: fresh interpreters timed for setup_s (after one warm-up)
SETUP_REPEATS = 11
#: passes a run makes even when one already fills the time: each decision
#: needs a repeat, and two passes with one seed must give identical output
MIN_PASSES = 2


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("tables", "scan", "verdicts"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    return args


def import_qmask():
    """Import qmask from this checkout's ``src`` and nowhere else."""
    if not (SRC / "qmask" / "__init__.py").is_file():
        raise SystemExit(f"error: no qmask sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import qmask

    if not Path(qmask.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"error: qmask imported from {qmask.__file__}")


def pass_times(passes, duration) -> dict:
    """Wall, CPU and decision times of ``passes``, medians over passes.

    ``duration(start, end)`` converts a work-clock interval to seconds.
    A pass's CPU time is scaled as its wall time is, and a decision's
    latency is the median of its repeats over the passes.
    """
    if any(len(p.decisions) != len(passes[0].decisions) for p in passes):
        raise ValueError("passes made different numbers of decisions")
    walls = [duration(p.start, p.end) for p in passes]
    cpus = [p.cpu_s * w / p.wall_s for p, w in zip(passes, walls)]
    latencies = [statistics.median(duration(*d) for d in repeats)
                 for repeats in zip(*(p.decisions for p in passes))]
    tail = tail_percentile(len(latencies))
    return {"wall_s": statistics.median(walls),
            "cpu_s": statistics.median(cpus),
            "decision_ms_p50": 1e3 * percentile(latencies, 50.0),
            "decision_ms_tail": 1e3 * percentile(latencies, tail),
            "tail_percentile": tail, "decisions": len(latencies)}


def end_to_end_metrics(passes, setup, timeline) -> tuple[dict, dict]:
    """Gated metrics in nominal seconds, and the raw times beside them."""
    times = pass_times(passes, timeline.nominal)
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "wall_s": (times["wall_s"], "s"),
        "cpu_s": (times["cpu_s"], "s"),
        "decision_ms_p50": (times["decision_ms_p50"], "ms"),
        "peak_rss_mb": (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    # printed and recorded, but not a gated metric: its spread across
    # runs is above a third of the largest bound allowed (see README)
    detail = {k: times[k] for k in
              ("decision_ms_tail", "tail_percentile", "decisions")}
    detail["raw"] = pass_times(passes, lambda a, b: b - a)
    return metrics, detail


def main(argv=None) -> int:
    args = parse_args(argv)
    for var in BLAS_ENV_VARS:
        os.environ[var] = "1"
    import_qmask()
    from workloads import (
        WORKLOADS,
        install_decision_spans,
        install_layer_spans,
        layer_metrics,
    )

    def run_pass(workload, install):
        # collect, then keep the collector off while timing, as timeit
        # does, so its pauses do not fall on some passes and not others
        gc.collect()
        tracer = Tracer(speed.clock, speed.cpu_clock)
        install(tracer)
        gc.disable()
        try:
            result = workload.timed_pass(tracer)
        finally:
            gc.enable()
            tracer.restore()
        workload.check(result)
        return result, tracer

    speed = Speedometer(reference_block())
    OUT.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    tmpdir = Path(tempfile.mkdtemp(prefix=f"{tag}-", dir=OUT))
    try:
        workload = WORKLOADS[args.workload](args.seed, tmpdir)
        setup, setup_raw = ([], []) if args.trace else \
            setup_seconds(SRC, SETUP_REPEATS)
        passes, lengths = [], []
        with speed.running():
            start = time.perf_counter()
            while True:
                t0 = time.perf_counter()
                passes.append(run_pass(workload, install_decision_spans)[0])
                lengths.append(time.perf_counter() - t0)
                # start another pass only if it should end within the time
                elapsed = time.perf_counter() - start
                if (len(passes) >= MIN_PASSES
                        and elapsed + statistics.median(lengths)
                        > args.seconds):
                    break
            if args.trace:
                traced, tracer = run_pass(workload, install_layer_spans)
        timeline = speed.timeline()
        if args.trace:
            untraced_wall = statistics.median(
                timeline.nominal(p.start, p.end) for p in passes)
            passes.append(traced)
            for span in tracer.spans:
                span.start, span.end = timeline(span.start), timeline(span.end)
            spans_file = OUT / f"{tag}.spans.csv"
            tracer.write_csv(spans_file)
            metrics = layer_metrics(
                tracer.spans, traced, workload,
                timeline.nominal(traced.start, traced.end) / untraced_wall)
            detail = {"spans": len(tracer.spans), "spans_file": spans_file.name}
        else:
            metrics, detail = end_to_end_metrics(passes, setup, timeline)
            detail["raw"]["setup_s"] = statistics.median(setup_raw)
            detail["setup_runs"] = setup
        detail["reference_blocks"] = len(speed.blocks)
        detail["host_slowness_p50"] = statistics.median(timeline.slow)
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)

    attempted = sum(p.attempted for p in passes)
    failures = [f for p in passes for f in p.failures]
    env = environment(ROOT)
    record = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "params": workload.params,
        "passes": [{"raw_wall_s": p.wall_s, "raw_cpu_s": p.cpu_s,
                    "wall_s": timeline.nominal(p.start, p.end)}
                   for p in passes],
        "attempted": attempted, "failed": len(failures),
        "fail_frac": len(failures) / attempted,
        "failures": failures[:50],
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
        **detail, "environment": env,
    }
    (OUT / f"{tag}.json").write_text(json.dumps(record, indent=1) + "\n")

    for f in failures[:20]:
        print(f"FAIL {f}")
    print(f"{args.workload} seed {args.seed}: {len(passes)} passes, "
          f"fail_frac {len(failures)}/{attempted} = "
          f"{len(failures) / attempted:.6g}")
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value!r} {unit}")
    if not args.trace:
        print(f"  decision_ms_tail = {detail['decision_ms_tail']!r} ms "
              f"(p{detail['tail_percentile']:g} of {detail['decisions']} "
              "decisions; not gated)")
        raw = detail["raw"]
        print("  raw (not gated): " + ", ".join(
            f"{k} = {raw[k]:.6g}" for k in ("setup_s", "wall_s", "cpu_s",
                                            "decision_ms_p50",
                                            "decision_ms_tail")))
    print(f"  host slowness p50 = {detail['host_slowness_p50']:.4g} "
          f"({detail['reference_blocks']} reference blocks)")
    print("environment: " + json.dumps(env, sort_keys=True))
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures),
                      "metrics": record["metrics"]}))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
