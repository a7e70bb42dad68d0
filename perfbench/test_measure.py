"""Tests of the benchmark's own arithmetic: tail percentiles, self time and
the conversion of work time to nominal seconds.

Run with ``python3 -m pytest perfbench``.
"""

import signal
import time
from types import SimpleNamespace

import pytest

from measure import (
    Span,
    Speedometer,
    Timeline,
    Tracer,
    has_ancestor,
    percentile,
    self_times,
    tail_percentile,
)


@pytest.mark.parametrize("n, expected", [
    (106, 90.0),      # 10.6 beyond p90, 5.3 beyond p95
    (225, 95.0),      # 11.25 beyond p95, 2.25 beyond p99
    (4000, 99.0),     # 40 beyond p99, 4 beyond p99.9
    (10000, 99.9),    # exactly 10 beyond p99.9
    (9999, 99.0),
    (200, 95.0),      # exactly 10 beyond p95
    (199, 90.0),
    (100, 90.0),      # exactly 10 beyond p90
    (99, 75.0),
    (19, 50.0),
])
def test_tail_is_highest_percentile_with_ten_beyond(n, expected):
    assert tail_percentile(n) == expected


def test_tail_leaves_ten_synthetic_samples_above_it():
    for n in (40, 106, 225, 4000, 10000):
        samples = [float(k) for k in range(n)]
        tail = percentile(samples, tail_percentile(n))
        assert sum(s > tail for s in samples) >= 10


def test_percentile_interpolates_linearly():
    xs = [5.0, 1.0, 3.0, 2.0, 4.0]
    assert percentile(xs, 50.0) == 3.0
    assert percentile(xs, 0.0) == 1.0
    assert percentile(xs, 100.0) == 5.0
    assert percentile(xs, 90.0) == pytest.approx(4.6)
    with pytest.raises(ValueError):
        percentile([], 50.0)


def test_timeline_converts_work_time_at_each_moments_speed():
    # blocks at work times 0..3: nominal speed, then half speed from t=2
    timeline = Timeline([(0.0, 1.0), (1.0, 1.0), (2.0, 2.0), (3.0, 2.0)],
                        block_s=1.0)
    assert timeline.nominal(0.0, 1.0) == pytest.approx(1.0)
    # between a nominal and a half-speed block: slowness 1.5
    assert timeline.nominal(1.0, 2.0) == pytest.approx(1.0 / 1.5)
    assert timeline.nominal(2.0, 3.0) == pytest.approx(0.5)
    # outside the blocks, the first or last block's speed holds
    assert timeline.nominal(-1.0, 0.0) == pytest.approx(1.0)
    assert timeline.nominal(3.0, 5.0) == pytest.approx(1.0)
    assert timeline.nominal(0.5, 2.5) == pytest.approx(0.5 + 1 / 1.5 + 0.25)
    with pytest.raises(ValueError):
        Timeline([], block_s=1.0)


def test_pass_times_take_medians_over_passes():
    from run import pass_times

    def made(start, end, cpu, decisions):
        return SimpleNamespace(start=start, end=end, wall_s=end - start,
                               cpu_s=cpu, decisions=decisions)

    passes = [made(0.0, 10.0, 9.0, [(1.0, 2.0), (3.0, 7.0)]),
              made(20.0, 26.0, 6.0, [(21.0, 24.0), (24.0, 25.0)]),
              made(30.0, 38.0, 4.0, [(31.0, 33.0), (33.0, 36.0)])]
    raw = pass_times(passes, lambda a, b: b - a)
    assert raw["wall_s"] == 8.0
    assert raw["cpu_s"] == 6.0
    # decision latencies: medians of (1, 3, 2) and (4, 1, 3)
    assert raw["decision_ms_p50"] == pytest.approx(2500.0)
    assert raw["decisions"] == 2
    # at half speed every time halves, CPU time with its pass's wall time
    half = pass_times(passes, lambda a, b: (b - a) / 2)
    assert half["wall_s"] == 4.0
    assert half["cpu_s"] == pytest.approx(3.0)
    assert half["decision_ms_p50"] == pytest.approx(1250.0)
    with pytest.raises(ValueError):
        pass_times([made(0.0, 1.0, 1.0, []), made(1.0, 2.0, 1.0, [(1, 2)])],
                   lambda a, b: b - a)


def test_speedometer_keeps_reference_blocks_off_the_work_clock():
    handler = signal.getsignal(signal.SIGALRM)
    speed = Speedometer(lambda: time.sleep(0.02), block_s=0.02,
                        interval=0.01)
    with speed.running():
        w0, t0 = speed.clock(), time.perf_counter()
        while time.perf_counter() < t0 + 0.3:
            pass
        w1, t1 = speed.clock(), time.perf_counter()
    assert signal.getsignal(signal.SIGALRM) is handler
    inside = [d for t, d in speed.blocks if w0 <= t <= w1]
    assert len(inside) >= 5
    # a block may run between the two clock readings at either end
    assert (t1 - t0) - (w1 - w0) == pytest.approx(sum(inside), abs=0.05)
    # the blocks took about block_s, so the host ran at nominal speed
    assert speed.timeline().nominal(w0, w1) == pytest.approx(w1 - w0,
                                                             rel=0.5)


def test_self_time_subtracts_nested_children():
    # root [0, 10] -> a [1, 4] -> a1 [2, 3]; root -> b [5, 9]
    spans = [Span("root", 0.0, 10.0, -1), Span("a", 1.0, 4.0, 0),
             Span("a1", 2.0, 3.0, 1), Span("b", 5.0, 9.0, 0)]
    assert self_times(spans) == pytest.approx([3.0, 2.0, 1.0, 4.0])


def test_self_time_merges_overlapping_and_clips_children():
    # children overlap each other and stick out of their parent
    spans = [Span("p", 0.0, 10.0, -1), Span("c1", 2.0, 6.0, 0),
             Span("c2", 4.0, 8.0, 0), Span("c3", 9.0, 12.0, 0)]
    assert self_times(spans)[0] == pytest.approx(10.0 - 6.0 - 1.0)


def test_has_ancestor_walks_the_parent_chain():
    spans = [Span("decision", 0.0, 5.0, -1), Span("mid", 1.0, 4.0, 0),
             Span("leaf", 2.0, 3.0, 1), Span("other", 6.0, 7.0, -1)]
    assert has_ancestor(spans, 2, {"decision"})
    assert not has_ancestor(spans, 0, {"decision"})
    assert not has_ancestor(spans, 3, {"decision"})


class _Owner:
    @staticmethod
    def leaf(x):
        return x + 1

    @classmethod
    def build(cls, x):
        return cls.leaf(x) * 2


def test_tracer_nests_spans_and_restores_originals():
    import sys

    module = sys.modules[__name__]
    original, outer_fn = vars(_Owner)["build"], _outer
    tracer = Tracer()
    tracer.patch(_Owner, "build", "build", lambda args, out: out)
    tracer.patch(module, "_outer", "outer")
    try:
        assert _outer(3) == 8
    finally:
        tracer.restore()
    assert vars(_Owner)["build"] is original and _outer is outer_fn

    names = [s.name for s in tracer.spans]
    assert names == ["outer", "build"]
    outer, build = tracer.spans
    assert (outer.parent, build.parent) == (-1, 0)
    assert build.tag == 8
    assert outer.start <= build.start <= build.end <= outer.end


def _outer(x):
    return _Owner.build(x)
