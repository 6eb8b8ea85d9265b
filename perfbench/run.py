"""Run one benchmark workload and print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload table1_cold --seed 1 --seconds 20 --trace 0

Workloads: ``table1_cold``, ``gates_verify``, ``serve_http``, ``jobs_grid``
(see ``perfbench/workloads.py`` and ``BENCHMARK.json``).  ``--trace 0``
measures the end-to-end metrics with no instrumentation; ``--trace 1`` runs
the workload untraced for half of ``--seconds``, then for ``--seconds`` with
span wrappers on every layer's public functions, and reports the per-layer
metrics plus the tracing overhead.

On a shared 2-vCPU VM the host's speed moves by up to ~1.9x in phases of
seconds to minutes, so compute-bound times are reported at a reference host
speed: a sampler in the benchmark process (``harness.HostSpeed``) times a
fixed probe every 100 ms, and set-up and each op of ``table1_cold``,
``gates_verify`` and ``jobs_grid`` are scaled by the reference probe time over
the probe time seen while they ran.  ``serve_http`` requests wait on the network stack, not the CPU, and
stay in host time.  The host-time figures are printed too.

The last line of standard output is one JSON object::

    {"correct": true, "attempted": 4, "failed": 0, "metrics": {...}}

The exit status is 0 when every output check passed, 1 when one failed and
2 when the program under test is missing or the arguments are bad.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Set-up repeats in fresh interpreters, beside the run's own set-up.
EXTRA_SETUPS = 2


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--setup-only", action="store_true",
        help="set the workload up, tear it down and print the set-up time",
    )
    return parser.parse_args(argv)


def load_spec():
    with open(ROOT / "BENCHMARK.json") as handle:
        return json.load(handle)


def extra_setup(args) -> dict:
    """Set the workload up once more in a fresh interpreter; its set-up times."""
    cmd = [
        sys.executable, str(Path(__file__).resolve()),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", "0", "--setup-only",
    ]
    out = subprocess.run(cmd, capture_output=True, text=True, timeout=170, cwd=ROOT)
    if out.returncode != 0:
        raise RuntimeError(f"set-up repeat failed:\n{out.stdout}\n{out.stderr}")
    return json.loads(out.stdout.strip().splitlines()[-1])


def measure(workload, seconds: float, trace: bool, base: Path, setup_only: bool = False) -> dict:
    """Set ``workload`` up and measure it; the traced run measures twice.

    Untraced: one phase of ``seconds``.  Traced: an untraced reference phase
    of ``seconds / 2``, then the span wrappers go in and a traced phase of
    ``seconds`` follows; the ratio of the two ``work_per_s`` is the tracing
    overhead.
    """
    from perfbench.harness import HostSpeed
    from perfbench.layers import PhaseSpans, Tracer, layer_metrics
    from perfbench.spans import SpanRecorder, load_span_files

    start = time.perf_counter_ns()
    speed = HostSpeed()
    speed.start()
    tracer = None
    try:
        workload.setup()
        end = time.perf_counter_ns()
        host_setup_s = (end - start) * 1e-9
        setup_s = host_setup_s * speed.factor(start, end)
        if setup_only:
            return {"setup_s": setup_s, "host_setup_s": host_setup_s}
        if not workload.host_bound:
            speed.stop()
        phase = workload.run_phase(seconds / 2 if trace else seconds)
        if workload.host_bound:
            speed.scale(phase)
        report = {
            "phase": phase,
            "setup_s": [setup_s],
            "host_setup_s": [host_setup_s],
            "modelled": workload.modelled(),
        }
        if not trace:
            report["peak_rss_mb"] = workload.peak_rss_mb()
            return report
        span_dir = base / "spans"
        span_dir.mkdir()
        recorder = SpanRecorder()
        tracer = Tracer(recorder, str(span_dir))
        workload.begin_trace(tracer)
        window_start = time.perf_counter_ns()
        traced = workload.run_phase(seconds)
        window_end = time.perf_counter_ns()
        if workload.host_bound:
            speed.scale(traced)
        totals = workload.totals()
    finally:
        speed.stop()
        workload.teardown()
        if tracer is not None:
            tracer.uninstall()
    spans = [(os.getpid(), recorder.spans)]
    spans += load_span_files(sorted(glob.glob(str(span_dir / "spans-*.json"))))
    metrics = layer_metrics(
        PhaseSpans(spans, (window_start, window_end), os.getpid()), traced.windows, totals
    )
    metrics["trace.untraced_work_per_s"] = phase.work_per_s
    metrics["trace.work_per_s"] = traced.work_per_s
    metrics["trace.overhead_ratio"] = (
        phase.work_per_s / traced.work_per_s if traced.work_per_s else 0.0
    )
    metrics.update(report["modelled"])
    report["traced"] = traced
    report["layers"] = metrics
    return report


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program to measure under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT), str(SRC)]
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    )
    from perfbench import harness
    from perfbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    spec = load_spec()
    base = ROOT / ".perfbench" / f"run-{os.getpid()}"
    base.mkdir(parents=True)
    # Never the shared ~/.cache/repro: workloads point ops at fresh dirs below.
    os.environ["REPRO_CACHE_DIR"] = str(base / "cache")
    workload = WORKLOADS[args.workload](args.seed, base, ROOT)
    try:
        if args.setup_only:
            print(json.dumps(measure(workload, 0.0, False, base, setup_only=True)))
            return 0
        probe_before = harness.host_probe()
        report = measure(workload, args.seconds, bool(args.trace), base)
    finally:
        shutil.rmtree(base, ignore_errors=True)
    if not args.trace:
        for _ in range(EXTRA_SETUPS):
            repeat = extra_setup(args)
            report["setup_s"].append(float(repeat["setup_s"]))
            report["host_setup_s"].append(float(repeat["host_setup_s"]))
    probe_after = harness.host_probe()
    return emit(args, spec, report, probe_before, probe_after)


def emit(args, spec, report, probe_before, probe_after) -> int:
    """Print the human-readable block, then the one-line JSON result."""
    from perfbench import harness
    from perfbench.workloads import WORKLOADS

    phase = report["phase"]
    phases = [phase] + ([report["traced"]] if args.trace else [])
    attempted = sum(p.attempted for p in phases)
    failed = sum(p.failed for p in phases)
    print("host " + json.dumps(harness.host_block()))
    print(f"probe_ms before={probe_before:.3f} after={probe_after:.3f}")
    print("modelled " + json.dumps(report["modelled"]))
    if args.trace:
        section, values = spec["per_layer"], report["layers"]
    else:
        section = spec["end_to_end"]
        values = harness.end_to_end(phase, report["setup_s"], report["peak_rss_mb"])
        print("setup_s samples " + json.dumps([round(s, 4) for s in report["setup_s"]]))
        tail = harness.highest_tail(phase.op_s)
        if tail is None:
            print(f"op tail: none reported ({len(phase.op_s)} ops; "
                  f"p90 needs >= {harness.MIN_BEYOND * 10})")
        else:
            q, value = tail
            print(f"op_p{q:g}_ms {value * 1e3:.4f} ms (n={len(phase.op_s)})")
        if phase.speed:
            print(f"host time: setup_s {statistics.median(report['host_setup_s']):.6g} s, "
                  f"work_per_s {phase.host_work_per_s:.6g} 1/s, "
                  f"op_p50_ms {harness.percentile(phase.latencies_s, 50.0) * 1e3:.6g} ms; "
                  f"mean speed factor {statistics.fmean(phase.speed):.4f}")
        else:
            print(f"host time: setup_s {statistics.median(report['host_setup_s']):.6g} s; "
                  "the measured phase is in host time")
        print(f"fail_ratio {failed / attempted:.6f} 1 ({failed}/{attempted})")
        print(f"work unit: {WORKLOADS[args.workload].unit}")
    metrics = {}
    for entry in section:
        value = float(values[entry["name"]])
        metrics[entry["name"]] = {"value": value, "unit": entry["unit"]}
        print(f"{entry['name']} {value:.6g} {entry['unit']}")
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
