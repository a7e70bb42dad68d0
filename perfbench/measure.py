"""Measurement helpers for the qmask benchmark: host speed, percentiles,
spans, set-up.

Uses only the standard library at import time, so it can be imported (and
tested) before NumPy or qmask are on the path.
"""

from __future__ import annotations

import bisect
import os
import platform
import signal
import subprocess
import sys
import time
from contextlib import contextmanager
from pathlib import Path

#: candidate tail percentiles, highest first
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)

#: samples that must lie beyond a reported tail percentile
TAIL_MIN_BEYOND = 10

#: thread-count variables of the BLAS/OpenMP runtimes NumPy may load
BLAS_ENV_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                 "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


# ---------------------------------------------------------------------------
# percentiles
# ---------------------------------------------------------------------------

def tail_percentile(n: int) -> float:
    """Highest candidate percentile with at least ten of ``n`` samples beyond.

    A percentile ``p`` leaves ``n * (1 - p/100)`` samples above it; e.g.
    106 samples give p90 (10.6 beyond) and 225 give p95 (11.25 beyond).
    Fewer than 20 samples fall back to the median.
    """
    for p in TAIL_PERCENTILES:
        # in per-mille, so 99.9 compares exactly
        if n * round(1000 - 10 * p) >= 1000 * TAIL_MIN_BEYOND:
            return p
    return 50.0


def percentile(values, p: float) -> float:
    """Linear-interpolated percentile ``p`` (0-100) of ``values``."""
    xs = sorted(values)
    if not xs:
        raise ValueError("percentile of no samples")
    pos = (len(xs) - 1) * p / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


# ---------------------------------------------------------------------------
# host speed
# ---------------------------------------------------------------------------

#: rounds of the reference block: about 4.6 ms on the baseline host
REF_ROUNDS = 150
#: duration of one reference block at nominal speed (its median on the
#: baseline host, see README); every gated time is in these seconds
REF_BLOCK_S = 0.0046
#: wall-clock seconds between two reference blocks during a run
TICK_S = 0.2


def reference_block():
    """A fixed piece of work like qmask's hot path, without calling qmask.

    Each round makes a batched complex ``einsum``, a batched small
    ``solve`` and a scalar ``vdot``, as the damped least-squares search
    and the verdicts do, so the host's contention slows it about as
    much as it slows them.
    """
    import numpy as np

    rng = np.random.default_rng(0)
    x = rng.standard_normal((8, 4, 4)) + 1j * rng.standard_normal((8, 4, 4))
    a = rng.standard_normal((8, 6, 6))
    h = a @ a.transpose(0, 2, 1) + 6.0 * np.eye(6)
    g = rng.standard_normal((8, 6, 1))
    v = x[0, 0]

    def block():
        for _ in range(REF_ROUNDS):
            np.einsum("rij,rkj->rik", x, x.conj())
            np.linalg.solve(h, g)
            abs(complex(np.vdot(v, v)))

    return block


class Speedometer:
    """Times a reference block every ``interval`` s while a run measures.

    A shared host (a 2-vCPU VM, see README) can change speed by up to 2x
    within seconds and stay slow or fast for minutes, so raw times move
    with the other tenants more than with the program.  While
    ``running()``, a SIGALRM handler runs ``block`` (fixed work)
    ``interval`` s after the previous one ended and records how long it
    took.  Its own time is kept off the work clocks ``clock()`` and
    ``cpu_clock()``, which the workloads time with, and ``timeline()``
    converts work-clock times to nominal seconds.
    """

    def __init__(self, block, block_s: float = REF_BLOCK_S,
                 interval: float = TICK_S):
        self.block = block
        self.block_s = block_s
        self.interval = interval
        #: (work-clock time, duration) of every reference block
        self.blocks: list[tuple[float, float]] = []
        self._spent = 0.0
        self._spent_cpu = 0.0

    def clock(self) -> float:
        return time.perf_counter() - self._spent

    def cpu_clock(self) -> float:
        return time.process_time() - self._spent_cpu

    def _tick(self, signum, frame) -> None:
        cpu0 = time.process_time()
        t0 = time.perf_counter()
        self.block()
        t1 = time.perf_counter()
        self.blocks.append((t0 - self._spent, t1 - t0))
        self._spent += t1 - t0
        self._spent_cpu += time.process_time() - cpu0
        # one shot at a time, so a slow block never has a tick nested in it
        signal.setitimer(signal.ITIMER_REAL, self.interval)

    @contextmanager
    def running(self):
        previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.interval)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)

    def timeline(self) -> Timeline:
        return Timeline(self.blocks, self.block_s)


class Timeline:
    """Maps work-clock times to nominal seconds, from timed reference blocks.

    A block that took ``k * block_s`` ran at ``1/k`` of nominal speed.
    Between two consecutive blocks the host's slowness is the mean of
    theirs; before the first block and after the last it is that block's.
    ``nominal(a, b)`` is then how long the work done between ``a`` and
    ``b`` would have taken at nominal speed.
    """

    def __init__(self, blocks: list[tuple[float, float]], block_s: float):
        if not blocks:
            raise ValueError("no reference blocks were timed")
        self.times = [t for t, _ in blocks]
        self.slow = [d / block_s for _, d in blocks]
        self.cum = [0.0]
        for k in range(1, len(blocks)):
            self.cum.append(self.cum[-1] + (self.times[k] - self.times[k - 1])
                            / self._gap_slowness(k - 1))

    def _gap_slowness(self, k: int) -> float:
        return 0.5 * (self.slow[k] + self.slow[k + 1])

    def __call__(self, t: float) -> float:
        k = bisect.bisect_right(self.times, t) - 1
        if k < 0:
            return (t - self.times[0]) / self.slow[0]
        if k == len(self.times) - 1:
            return self.cum[k] + (t - self.times[k]) / self.slow[k]
        return self.cum[k] + (t - self.times[k]) / self._gap_slowness(k)

    def nominal(self, start: float, end: float) -> float:
        return self(end) - self(start)


# ---------------------------------------------------------------------------
# spans
# ---------------------------------------------------------------------------

class Span:
    """One traced call: name, start and end (s), parent, tag."""

    __slots__ = ("name", "start", "end", "parent", "tag")

    def __init__(self, name: str, start: float, end: float, parent: int,
                 tag=None):
        self.name = name
        self.start = start
        self.end = end
        self.parent = parent
        self.tag = tag

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans around calls to patched attributes, kept in memory.

    ``patch(owner, attr, name, tag)`` replaces ``owner.attr`` (a
    function on a module, or a classmethod on a class) by a wrapper that
    records a span whose parent is the innermost span open when the call
    began; ``tag(args, result)``, if given, labels the span.  Spans are
    timed with ``clock``; ``cpu_clock`` is the CPU clock that goes with
    it.  ``restore()`` puts every original back.
    """

    def __init__(self, clock=time.perf_counter, cpu_clock=time.process_time):
        self.clock = clock
        self.cpu_clock = cpu_clock
        self.spans: list[Span] = []
        self._open: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn, tag=None):
        spans, stack = self.spans, self._open
        clock = self.clock

        def traced(*args, **kwargs):
            span = Span(name, 0.0, 0.0, stack[-1] if stack else -1)
            stack.append(len(spans))
            spans.append(span)
            span.start = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()
            if tag is not None:
                span.tag = tag(args, out)
            return out

        return traced

    def patch(self, owner, attr: str, name: str, tag=None) -> None:
        original = vars(owner)[attr]
        if isinstance(original, classmethod):
            replacement = classmethod(
                self.wrap(name, original.__func__, tag))
        else:
            replacement = self.wrap(name, original, tag)
        self._patched.append((owner, attr, original))
        setattr(owner, attr, replacement)

    def restore(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def write_csv(self, path: Path) -> None:
        """Write every span as ``index,name,start,end,parent,tag``."""
        with open(path, "w") as fh:
            fh.write("index,name,start,end,parent,tag\n")
            for i, s in enumerate(self.spans):
                tag = "" if s.tag is None else s.tag
                fh.write(f"{i},{s.name},{s.start!r},{s.end!r},{s.parent},{tag}\n")


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of its interval its children cover.

    Child intervals are clipped to the parent and merged before they are
    subtracted, so overlapping or out-of-range children are not counted
    twice.
    """
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent >= 0:
            children.setdefault(s.parent, []).append(s)
    out = []
    for i, s in enumerate(spans):
        covered = 0.0
        reach = s.start
        for c in sorted(children.get(i, ()), key=lambda c: c.start):
            lo, hi = max(c.start, reach), min(c.end, s.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(s.duration - covered)
    return out


def has_ancestor(spans: list[Span], i: int, names) -> bool:
    """True iff some ancestor of span ``i`` has a name in ``names``."""
    p = spans[i].parent
    while p >= 0:
        if spans[p].name in names:
            return True
        p = spans[p].parent
    return False


# ---------------------------------------------------------------------------
# set-up time and the environment
# ---------------------------------------------------------------------------

#: run by each set-up child: argv is the ``src`` and ``perfbench`` paths
#: and the number of reference blocks to time
SETUP_CHILD = """\
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import qmask
qmask.load_table_fixture()
elapsed = time.perf_counter() - t0
from pathlib import Path
if not Path(qmask.__file__).resolve().is_relative_to(
        Path(sys.argv[1]).resolve()):
    sys.exit(f"qmask imported from {qmask.__file__}")
sys.path.insert(0, sys.argv[2])
from measure import reference_block
block, blocks = reference_block(), []
for _ in range(int(sys.argv[3])):
    b0 = time.perf_counter()
    block()
    blocks.append(time.perf_counter() - b0)
print(elapsed, sorted(blocks)[len(blocks) // 2])
"""

#: reference blocks each set-up child times after its import
SETUP_BLOCKS = 5


def setup_seconds(src: Path, repeats: int) -> tuple[list, list]:
    """Fresh interpreters that import qmask and load the fixture.

    One untimed warm-up run compiles the bytecode first.  Each child runs
    isolated from the caller's ``PYTHON*`` variables, imports qmask from
    ``src`` only (a child that imports it from anywhere else fails), and
    times its own import and fixture load.  It then times reference
    blocks, whose median gives the host's slowness in that process at
    that moment.  Returns the nominal and the raw seconds of the timed
    children.
    """
    here = Path(__file__).resolve().parent
    cmd = [sys.executable, "-I", "-c", SETUP_CHILD, str(src), str(here),
           str(SETUP_BLOCKS)]
    nominal, raw = [], []
    for k in range(repeats + 1):
        # no timeout: with one, the wait polls in sleeps of up to 50 ms
        out = subprocess.run(cmd, check=True, capture_output=True,
                             text=True).stdout.split()
        elapsed, block = float(out[0]), float(out[1])
        if k:
            raw.append(elapsed)
            nominal.append(elapsed * REF_BLOCK_S / block)
    return nominal, raw


def git_commit(root: Path) -> str:
    """The commit checked out at ``root``, read from ``.git`` if it exists."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git / ref
        if ref_file.exists():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(root: Path) -> dict:
    """Machine and software facts recorded with every result."""
    import numpy as np

    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_env": {v: os.environ.get(v) for v in BLAS_ENV_VARS},
        "git_commit": git_commit(root),
        "platform": platform.platform(),
    }
