"""Timers, percentiles, host facts, host speed and memory readings for the benchmark.

Everything here is independent of the program under test: a later change to
``repro`` cannot move the yardstick.
"""

from __future__ import annotations

import math
import os
import platform
import signal
import statistics
import subprocess
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

#: Percentiles a tail is reported at, highest first.
TAIL_PERCENTILES = (99.9, 99.0, 90.0)
#: A percentile is reported only with at least this many samples beyond it.
MIN_BEYOND = 10


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-th percentile (0-100) with linear interpolation."""
    if not values:
        raise ValueError("percentile of an empty sample")
    ordered = sorted(values)
    position = (len(ordered) - 1) * q / 100.0
    lower = math.floor(position)
    upper = min(lower + 1, len(ordered) - 1)
    return ordered[lower] + (ordered[upper] - ordered[lower]) * (position - lower)


def samples_beyond(n: int, q: float) -> int:
    """How many of ``n`` samples lie beyond the ``q``-th percentile."""
    return n - math.ceil(n * q / 100.0 - 1e-9)


def tail_percentile(values: Sequence[float], q: float) -> Optional[float]:
    """The ``q``-th percentile, or None when fewer than ten samples lie beyond it."""
    if samples_beyond(len(values), q) < MIN_BEYOND:
        return None
    return percentile(values, q)


def highest_tail(values: Sequence[float]) -> Optional[Tuple[float, float]]:
    """``(q, value)`` for the highest percentile the sample supports, or None."""
    for q in TAIL_PERCENTILES:
        value = tail_percentile(values, q)
        if value is not None:
            return q, value
    return None


# --------------------------------------------------------------------------- #
# Host facts
# --------------------------------------------------------------------------- #
def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _cc_fingerprint() -> str:
    try:
        out = subprocess.run(
            ["cc", "--version"], capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return "none"
    first = out.stdout.splitlines()[0] if out.stdout else ""
    return first.strip() or "none"


def host_block() -> Dict[str, object]:
    """CPU, core count, interpreter, numpy, compiler and native-engine facts."""
    import numpy

    from repro.perf.native import native_available

    return {
        "cpu_model": _cpu_model(),
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cc": _cc_fingerprint(),
        "native_available": bool(native_available()),
    }


def _probe_loop(n: int) -> int:
    acc = 0
    for i in range(n):
        acc += i * i % 7
    return acc


def host_probe(calls: int = 30, n: int = 300_000) -> float:
    """Median ms of a fixed pure-Python loop (~1 s in all on this kind of host).

    Stored beside each run, it tells a slow host phase from a slow change.
    """
    times = []
    for _ in range(calls):
        start = time.perf_counter()
        _probe_loop(n)
        times.append((time.perf_counter() - start) * 1e3)
    return statistics.median(times)


# --------------------------------------------------------------------------- #
# Host speed
# --------------------------------------------------------------------------- #
#: CPU time (ns) of one :meth:`HostSpeed.probe` at the reference host speed.
#: Compute-bound times are reported at this speed; never change it, or every
#: earlier measurement stops being comparable.
REFERENCE_PROBE_NS = 500_000
#: Shortest window whose probes give an op its factor.
MIN_WINDOW_S = 1.0


class HostSpeed:
    """Samples the host's speed while compute-bound work runs.

    On a shared 2-vCPU VM the host's speed moves by up to ~1.9x in phases
    lasting seconds to minutes, whatever the program does.  Every ``interval_s`` a ``SIGALRM``
    handler in the benchmark process runs :meth:`probe` and records its CPU
    time; :meth:`factor` turns the probes seen while some work ran into the
    factor that scales the work's host time to the reference speed.  The
    handler runs between bytecodes of the main thread, so it costs ~0.5% of
    the run and never runs concurrently with the op.
    """

    def __init__(self, interval_s: float = 0.1) -> None:
        import numpy

        self.interval_s = interval_s
        #: ``(perf_counter_ns when the probe ended, probe CPU ns)``.
        self.samples: List[Tuple[int, int]] = []
        self._table: Dict[int, int] = {}
        self._a = numpy.arange(32, dtype=float)
        self._b = numpy.ones(32)
        self._previous = None
        self._running = False
        self.probe()  # first calls run slower; keep them out of the samples

    def probe(self) -> None:
        """A fixed ~0.5 ms mix of an integer loop, dict updates and small numpy calls.

        The mix follows what the workloads spend their time on, so host
        phases slow it about as much as they slow an op.
        """
        _probe_loop(2000)
        table = self._table
        for i in range(1000):
            table[i & 63] = table.get((i * 7) & 63, 0) + 1
        a, b = self._a, self._b
        for _ in range(200):
            a.dot(b)

    def _on_alarm(self, signum, frame) -> None:
        start = time.thread_time_ns()
        self.probe()
        self.samples.append((time.perf_counter_ns(), time.thread_time_ns() - start))

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, self.interval_s, self.interval_s)
        self._running = True

    def stop(self) -> None:
        if not self._running:
            return
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        self._running = False

    def factor(self, start_ns: int, end_ns: int) -> float:
        """Reference probe time over the mean probe time seen during ``[start, end]``.

        The window is widened to :data:`MIN_WINDOW_S` around its middle, so
        a short op still sees several probes; with no probe in it, the
        nearest probe stands in.  Without any probe the factor is 1 (host
        time).
        """
        if not self.samples:
            return 1.0
        middle = (start_ns + end_ns) // 2
        half = max(end_ns - start_ns, int(MIN_WINDOW_S * 1e9)) // 2
        seen = [ns for at, ns in self.samples if middle - half <= at <= middle + half]
        if not seen:
            seen = [min(self.samples, key=lambda sample: abs(sample[0] - middle))[1]]
        return REFERENCE_PROBE_NS / statistics.fmean(seen)

    def scale(self, phase: "Phase") -> None:
        """Give each op of ``phase`` the factor of its own window."""
        phase.speed = [self.factor(start, end) for start, end in phase.windows]


# --------------------------------------------------------------------------- #
# Resident memory
# --------------------------------------------------------------------------- #
def vm_hwm_mb(pid: int) -> float:
    """Peak resident set (``VmHWM``) of one live process, in MB; 0 if gone."""
    try:
        with open(f"/proc/{pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except (OSError, ValueError):
        pass
    return 0.0


def children_of(pid: int) -> List[int]:
    """Pids whose parent is ``pid``."""
    found = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as handle:
                stat = handle.read()
        except OSError:
            continue
        # Field 4 (ppid) follows the parenthesised command name.
        fields = stat.rsplit(")", 1)[-1].split()
        if len(fields) > 1 and fields[1] == str(pid):
            found.append(int(entry))
    return found


class TreeMemory:
    """Peak of the summed ``VmHWM`` over a process and its children.

    :meth:`sample` adds up the current peaks of ``root`` and every child;
    :meth:`start` samples on a background thread every ``interval_s`` so
    short-lived children are seen while they live.
    """

    def __init__(self, root: int, interval_s: float = 0.25) -> None:
        self.root = root
        self.interval_s = interval_s
        self.peak_mb = 0.0
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None

    def sample(self) -> float:
        total = vm_hwm_mb(self.root) + sum(vm_hwm_mb(c) for c in children_of(self.root))
        self.peak_mb = max(self.peak_mb, total)
        return total

    def _loop(self) -> None:
        while not self._stop.wait(self.interval_s):
            self.sample()

    def start(self) -> None:
        self._stop.clear()
        self._thread = threading.Thread(target=self._loop, name="perfbench-rss", daemon=True)
        self._thread.start()

    def stop(self) -> float:
        if self._thread is not None:
            self._stop.set()
            self._thread.join(timeout=5.0)
            self._thread = None
        self.sample()
        return self.peak_mb


# --------------------------------------------------------------------------- #
# Measured phases
# --------------------------------------------------------------------------- #
@dataclass
class Phase:
    """What one measured phase did: op latencies, work done, failures.

    ``start_ns``/``end_ns`` bound the time the ops took: wall time for the
    concurrent HTTP clients, the sum of op times for a serial phase (its
    untimed per-op preparation left out).  A serial phase sampled by
    :class:`HostSpeed` carries one ``speed`` factor per op, and its
    :attr:`op_s` and :attr:`work_per_s` are at the reference host speed;
    :attr:`host_work_per_s` and ``latencies_s`` stay in host time.
    """

    latencies_s: List[float] = field(default_factory=list)
    #: ``(start_ns, end_ns)`` of each op, for the traced run's ``other_s``.
    windows: List[Tuple[int, int]] = field(default_factory=list)
    work: float = 0.0
    attempted: int = 0
    failed: int = 0
    start_ns: int = 0
    end_ns: int = 0
    #: Per-op host-speed factors; empty when the phase is in host time.
    speed: List[float] = field(default_factory=list)

    @property
    def elapsed_s(self) -> float:
        return max(self.end_ns - self.start_ns, 1) * 1e-9

    @property
    def host_work_per_s(self) -> float:
        return self.work / self.elapsed_s

    @property
    def op_s(self) -> List[float]:
        """Op latencies, at the reference host speed when the phase was sampled."""
        if not self.speed:
            return self.latencies_s
        return [latency * f for latency, f in zip(self.latencies_s, self.speed)]

    @property
    def work_per_s(self) -> float:
        if not self.speed:
            return self.host_work_per_s
        # Only serial phases are sampled: their elapsed time is the sum of op times.
        return self.work / max(sum(self.op_s), 1e-9)

    def add(self, start_ns: int, end_ns: int, work: float, ok: bool) -> None:
        self.latencies_s.append((end_ns - start_ns) * 1e-9)
        self.windows.append((start_ns, end_ns))
        self.attempted += 1
        if ok:
            self.work += work
        else:
            self.failed += 1


def serial_phase(
    op: Callable[[int], Tuple[float, bool]],
    seconds: float,
    prepare: Optional[Callable[[int], None]] = None,
) -> Phase:
    """Run ``op(i)`` back to back until ``seconds`` of ops have passed.

    ``op`` returns ``(work units, output correct)``; ``prepare(i)`` runs
    before op ``i`` outside its timer, and its time is left out of the
    phase.  At least one op always runs.
    """
    phase = Phase()
    budget_ns = int(seconds * 1e9)
    spent_ns = 0
    index = 0
    while True:
        if prepare is not None:
            prepare(index)
        start = time.perf_counter_ns()
        try:
            work, ok = op(index)
        except Exception as error:  # a crashing op is a failed op, not a crash
            print(f"op {index} raised {type(error).__name__}: {error}", flush=True)
            work, ok = 0.0, False
        end = time.perf_counter_ns()
        phase.add(start, end, work, ok)
        spent_ns += end - start
        index += 1
        if spent_ns >= budget_ns:
            break
    phase.start_ns, phase.end_ns = phase.windows[0][0], phase.windows[0][0] + spent_ns
    return phase


def end_to_end(phase: Phase, setup_samples: Sequence[float], peak_rss_mb: float) -> Dict[str, float]:
    """The ``end_to_end`` metrics of ``BENCHMARK.json`` for one run."""
    return {
        "setup_s": statistics.median(setup_samples),
        "work_per_s": phase.work_per_s,
        "op_p50_ms": percentile(phase.op_s, 50.0) * 1e3,
        "peak_rss_mb": peak_rss_mb,
    }
