"""Self-tests of the benchmark's own code: percentiles, spans, inputs, checks."""

import json
import time
from pathlib import Path

import pytest

from perfbench import harness, httpload, workloads
from perfbench.harness import Phase
from perfbench.layers import PhaseSpans, Tracer, layer_metrics
from perfbench.spans import SpanRecorder, self_times_ns, union_ns

ROOT = Path(__file__).resolve().parents[2]


# --------------------------------------------------------------------------- #
# Tail rule
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize(
    "n, q, reported",
    [(99, 90.0, False), (100, 90.0, True), (999, 99.0, False), (1000, 99.0, True),
     (9999, 99.9, False), (10000, 99.9, True)],
)
def test_tail_needs_ten_samples_beyond_the_percentile(n, q, reported):
    values = [float(i) for i in range(n)]
    assert harness.samples_beyond(n, q) >= 10 if reported else harness.samples_beyond(n, q) < 10
    assert (harness.tail_percentile(values, q) is not None) is reported


def test_highest_tail_picks_the_highest_supported_percentile():
    assert harness.highest_tail([1.0] * 50) is None
    assert harness.highest_tail([1.0] * 200)[0] == 90.0
    assert harness.highest_tail([1.0] * 1500)[0] == 99.0


def test_percentile_interpolates():
    assert harness.percentile([1.0, 2.0, 3.0, 4.0], 50.0) == 2.5
    assert harness.percentile([5.0], 90.0) == 5.0


# --------------------------------------------------------------------------- #
# Host speed
# --------------------------------------------------------------------------- #
def test_speed_factor_uses_the_probes_seen_in_the_widened_window():
    speed = harness.HostSpeed()
    assert speed.factor(0, 10) == 1.0  # no probe yet: host time
    ref = harness.REFERENCE_PROBE_NS
    second = 1_000_000_000
    speed.samples = [(0, ref), (int(0.4 * second), 2 * ref), (3 * second, 4 * ref)]
    # A 0.2 s op at 0.2-0.4 s sees both probes of its MIN_WINDOW_S (1 s) window.
    assert speed.factor(int(0.2 * second), int(0.4 * second)) == pytest.approx(1 / 1.5)
    # No probe within 2.2-2.4 s: the nearest one (at 3 s) stands in.
    assert speed.factor(int(2.2 * second), int(2.4 * second)) == pytest.approx(0.25)


def test_scaled_phase_keeps_host_time_beside_it():
    phase = Phase([1.0, 3.0], [(0, 1), (1, 4)], work=2.0, attempted=2, start_ns=0,
                  end_ns=4_000_000_000)
    assert phase.op_s == phase.latencies_s
    assert phase.work_per_s == phase.host_work_per_s == pytest.approx(0.5)
    phase.speed = [2.0, 0.5]
    assert phase.op_s == [2.0, 1.5]
    assert phase.work_per_s == pytest.approx(2.0 / 3.5)
    assert phase.host_work_per_s == pytest.approx(0.5)
    assert phase.latencies_s == [1.0, 3.0]


def test_sampler_probes_while_running_and_restores_the_handler():
    import signal

    before = signal.getsignal(signal.SIGALRM)
    speed = harness.HostSpeed(interval_s=0.01)
    speed.start()
    try:
        deadline = time.monotonic() + 5.0
        while len(speed.samples) < 3 and time.monotonic() < deadline:
            time.sleep(0.005)
    finally:
        speed.stop()
    assert len(speed.samples) >= 3
    assert all(ns > 0 for _, ns in speed.samples)
    assert signal.getsignal(signal.SIGALRM) is before
    count = len(speed.samples)
    time.sleep(0.05)
    assert len(speed.samples) == count


# --------------------------------------------------------------------------- #
# Spans and self time
# --------------------------------------------------------------------------- #
def test_self_time_of_nested_and_overlapping_spans():
    spans = [
        ["op", 0, 100, -1, 0.0],
        ["a", 10, 30, 0, 0.0],
        ["b", 20, 50, 0, 0.0],  # overlaps a: the parent loses 10..50 once
        ["a.child", 12, 15, 1, 0.0],
        ["late", 90, 120, 0, 0.0],  # clipped to the parent's end
    ]
    assert self_times_ns(spans) == [100 - 40 - 10, 20 - 3, 30, 3, 30]
    assert union_ns([(0, 10), (5, 20), (30, 40)]) == 30


def test_other_s_is_op_time_no_span_covers():
    spans = [
        ["a", 10, 30, -1, 0.0],
        ["b", 20, 40, -1, 0.0],  # overlaps a: 10..40 covered once
        ["c", 95, 130, -1, 0.0],  # straddles both ops
        ["elsewhere", 0, 200, -1, 0.0],  # another process: ignored
    ]
    phase = PhaseSpans([(1, spans[:3]), (2, spans[3:])], (0, 1000), bench_pid=1)
    ops = [(0, 100), (100, 150)]
    # op 1: 100 - 30 (10..40) - 5 (95..100); op 2: 50 - 30 (100..130)
    assert phase.other_s(ops) == pytest.approx((65 + 20) / 2 * 1e-9)


def test_recorder_nests_per_thread_and_resets():
    recorder = SpanRecorder()
    outer = recorder.wrap("outer", lambda: inner())
    inner = recorder.wrap("inner", lambda: 7, measure=lambda a, k, r: r)
    assert outer() == 7
    by_name = {span[0]: span for span in recorder.spans}
    assert by_name["inner"][3] == recorder.spans.index(by_name["outer"])
    assert by_name["inner"][4] == 7.0
    assert by_name["outer"][3] == -1
    recorder.reset()
    assert recorder.spans == []


def test_tracer_installs_and_restores_every_target(tmp_path):
    from perfbench.layers import CHILD_MAINS, TARGETS, _resolve

    paths = [(m, p) for m, p, _name, _measure in TARGETS] + list(CHILD_MAINS)
    paths.append(("repro.serve.batching", "MicroBatcher.submit"))
    before = [vars(owner).get(attr) for owner, attr in (_resolve(m, p) for m, p in paths)]
    tracer = Tracer(SpanRecorder(), str(tmp_path))
    tracer.install()
    try:
        during = [vars(owner).get(attr) for owner, attr in (_resolve(m, p) for m, p in paths)]
        assert all(a is not b for a, b in zip(before, during))
    finally:
        tracer.uninstall()
    after = [vars(owner).get(attr) for owner, attr in (_resolve(m, p) for m, p in paths)]
    assert all(a is b for a, b in zip(before, after))


# --------------------------------------------------------------------------- #
# Seeded inputs
# --------------------------------------------------------------------------- #
def test_same_seed_gives_same_inputs():
    import numpy as np

    for make in (
        lambda s: workloads.gates_stimuli(s, [3, 5], 64),
        lambda s: workloads.serve_rows(s, [80, 40, 10]),
        lambda s: workloads.seeded_order(s, workloads.DATASETS),
        lambda s: [httpload.request_plan(s, c).randrange(160) for c in range(2) for _ in range(20)],
    ):
        first, again, other = make(3), make(3), make(4)
        assert json.dumps(_plain(first)) == json.dumps(_plain(again))
        assert json.dumps(_plain(first)) != json.dumps(_plain(other))
    assert all(isinstance(x, np.ndarray) for x in workloads.gates_stimuli(1, [2], 4))


def _plain(value):
    if hasattr(value, "tolist"):
        return value.tolist()
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    return value


def test_seeded_order_keeps_every_item():
    assert sorted(workloads.seeded_order(11, workloads.DATASETS)) == sorted(workloads.DATASETS)


# --------------------------------------------------------------------------- #
# Output checks fail on corrupted answers
# --------------------------------------------------------------------------- #
def _rows(n=18, energy=1.0):
    return tuple(("d", f"m{i}", 90.0, 1.0, 2.0, 3.0, energy, 4) for i in range(n))


def test_table1_check_fails_on_corrupted_answers():
    verified = [(True, True)] * 5
    assert workloads.check_table1(_rows(), verified, None)
    assert workloads.check_table1(_rows(), verified, _rows())
    assert not workloads.check_table1(_rows(17), verified, None)
    assert not workloads.check_table1(_rows(), [(True, False)] + verified[1:], None)
    assert not workloads.check_table1(_rows(), [(None, True)] + verified[1:], None)
    assert not workloads.check_table1(_rows(energy=1.5), verified, _rows())


def test_gates_check_fails_unless_verified():
    assert workloads.check_gates(True)
    assert not workloads.check_gates(False)
    assert not workloads.check_gates(None)


def test_serve_check_fails_on_corrupted_answers():
    good = json.dumps({"class_id": 2}).encode()
    assert httpload.check_prediction(200, good, 2)
    assert not httpload.check_prediction(200, good, 1)
    assert not httpload.check_prediction(503, good, 2)
    assert not httpload.check_prediction(200, b"not json", 2)
    assert not httpload.check_prediction(200, b"{}", 2)


def test_jobs_check_fails_on_corrupted_answers():
    assert workloads.check_jobs(0, 40, 40, b"x", None, 80)
    assert workloads.check_jobs(0, 40, 40, b"x", b"x", 80)
    assert not workloads.check_jobs(1, 40, 39, b"x", None, 80)
    assert not workloads.check_jobs(0, 40, 39, b"x", None, 80)
    assert not workloads.check_jobs(0, 40, 40, b"y", b"x", 80)
    assert not workloads.check_jobs(0, 40, 40, b"", None, 80)


def test_table1_deviation_is_a_mean_relative_error():
    class Row:
        def __init__(self, scale):
            for column in workloads.DEVIATION_COLUMNS:
                setattr(self, column, 10.0 * scale)

    assert workloads.table1_deviation_pct([(Row(1.1), Row(1.0))]) == pytest.approx(10.0)
    assert workloads.table1_deviation_pct([]) == 0.0


# --------------------------------------------------------------------------- #
# The traced run and its overhead
# --------------------------------------------------------------------------- #
class _FakeWorkload(workloads.Workload):
    """Ops call one function the traced phase wraps."""

    name = "fake"
    unit = "ops"

    def setup(self):
        pass

    def work(self):
        time.sleep(0.002)

    def _op(self, index):
        self.work()
        return 1.0, True

    def run_phase(self, seconds):
        return harness.serial_phase(self._op, seconds)

    def begin_trace(self, tracer):
        self.recorder = tracer.recorder
        self.work = tracer.recorder.wrap("datasets.load", self.work)


def test_traced_run_reports_its_overhead(tmp_path):
    from perfbench import run

    report = run.measure(_FakeWorkload(1, tmp_path, ROOT), 0.2, True, tmp_path)
    layers = report["layers"]
    untraced, traced = report["phase"], report["traced"]
    assert layers["trace.untraced_work_per_s"] == untraced.work_per_s
    assert layers["trace.work_per_s"] == traced.work_per_s
    assert layers["trace.overhead_ratio"] == pytest.approx(untraced.work_per_s / traced.work_per_s)
    # The wrapped call covers nearly every op; the rest is other_s.
    per_op = traced.elapsed_s / traced.attempted
    assert 0.0 < layers["datasets.load_s"] <= per_op
    assert layers["other_s"] < 0.5 * per_op


def test_per_layer_metrics_match_benchmark_json(tmp_path):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    phase = PhaseSpans([(1, [])], (0, 1), bench_pid=1)
    produced = set(layer_metrics(phase, [(0, 1)], {}))
    produced |= {"trace.untraced_work_per_s", "trace.work_per_s", "trace.overhead_ratio"}
    produced |= set(workloads.Workload(1, tmp_path, ROOT).modelled())
    assert produced == {entry["name"] for entry in spec["per_layer"]}
    assert {e["name"] for e in spec["end_to_end"]} == set(
        harness.end_to_end(Phase([0.001], [(0, 10)], 1.0, 1, 0, 0, 10), [1.0], 1.0)
    )
