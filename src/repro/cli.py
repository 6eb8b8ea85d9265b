"""Command-line entry points.

Four commands, run from a checkout with ``PYTHONPATH=src`` (no
installation required; see ``docs/cli.md`` for the full flag reference):

* ``repro-table1`` — regenerate the paper's Table I (optionally a subset of
  datasets) and print measured-vs-published rows plus the aggregate claims.
* ``repro-flow`` — run the full design flow for one (dataset, model) pair and
  print the detailed report, optionally dumping the generated Verilog.
* ``repro-serve`` (also ``python -m repro.serve``) — load trained designs
  through the persistent flow cache and answer predict requests over an HTTP
  JSON endpoint with micro-batched inference (see ``docs/serving.md``).
* ``repro-jobs`` — the resumable flow-job service: submit a (dataset x
  model) grid into a durable manifest, drain it through pooled workers,
  inspect status, resume after a crash, and query the result store (see
  ``docs/jobs.md``).  Exit codes follow the shared contract: 0 ok, 1 the
  run had failed jobs, 2 bad input (one clear line on stderr).
"""

from __future__ import annotations

import argparse
import socket
import sys
from pathlib import Path
from typing import List, Optional

from repro.core.design_flow import FlowConfig, MODEL_KINDS, fast_config
from repro.core.flow_executor import CacheSpec, FlowResultCache, run_flow_cached
from repro.datasets import available_datasets
from repro.eval.reference import PAPER_CLAIMS
from repro.perf.engines import ENGINES
from repro.eval.reporting import breakdown_summary, markdown_claims
from repro.eval.table1 import (
    design_mac_netlist,
    format_table1,
    format_table1_optimization,
    generate_table1,
    table1_aggregates,
)


def _add_flow_arguments(parser: argparse.ArgumentParser) -> None:
    """Flags selecting the flow configuration (shared by every command)."""
    parser.add_argument(
        "--fast",
        action="store_true",
        help="use the reduced configuration (smaller datasets, fewer training iterations)",
    )
    parser.add_argument(
        "--samples",
        type=int,
        default=None,
        help="override the number of samples generated per dataset",
    )


def _add_cache_arguments(parser: argparse.ArgumentParser) -> None:
    """Flags selecting the persistent flow-result cache."""
    parser.add_argument(
        "--cache-dir",
        type=str,
        default=None,
        help="directory of the persistent flow-result cache "
        "(default: ~/.cache/repro or $REPRO_CACHE_DIR)",
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="disable the persistent flow-result cache (always retrain)",
    )


def _add_common_arguments(parser: argparse.ArgumentParser) -> None:
    _add_flow_arguments(parser)
    _add_cache_arguments(parser)
    parser.add_argument(
        "--opt-level",
        type=int,
        default=None,
        choices=(0, 1, 2),
        help="run the netlist optimization pass pipeline at this level over "
        "each design's hardwired constant-MAC datapath and report "
        "optimized-vs-raw gate counts (0 = raw, 1 = const-prop + dead-gate, "
        "2 = + buffer collapse and structural hashing)",
    )


def _build_config(args: argparse.Namespace) -> FlowConfig:
    config = fast_config() if args.fast else FlowConfig()
    if args.samples is not None:
        config = FlowConfig(**{**config.__dict__, "n_samples": args.samples})
    return config


def _build_cache(args: argparse.Namespace) -> CacheSpec:
    """The persistent-cache selection implied by the common CLI flags."""
    if args.no_cache:
        return False
    if args.cache_dir is not None:
        return FlowResultCache(args.cache_dir)
    return None


def _report_verification(table, attribute: str, label: str, claim: str) -> int:
    """Print one verification summary block; returns 1 on any mismatch."""
    checked = [e for e in table.entries if getattr(e, attribute) is not None]
    failed = [e for e in checked if not getattr(e, attribute)]
    print()
    print(
        f"{label}: {len(checked) - len(failed)}/{len(checked)} "
        f"proposed designs {claim}."
    )
    for entry in failed:
        print(f"  MISMATCH: {entry.dataset}")
    return 1 if failed else 0


def main_table1(argv: Optional[List[str]] = None) -> int:
    """Entry point of ``repro-table1``."""
    parser = argparse.ArgumentParser(
        description="Regenerate Table I of the sequential printed SVM paper."
    )
    parser.add_argument(
        "--datasets",
        nargs="+",
        default=None,
        choices=available_datasets(),
        help="datasets to include (default: all five)",
    )
    parser.add_argument(
        "--verify-hardware",
        action="store_true",
        help="also check the cycle-accurate simulation of every proposed "
        "design against its integer model (bit-exact, vectorized)",
    )
    parser.add_argument(
        "--verify-sequential",
        action="store_true",
        help="also clock every proposed design's explicit gate-level netlist "
        "(counter + MUX storage + MAC + voter) over its test set on the "
        "bit-parallel sequential engine and check per-cycle bit-exact "
        "agreement with the behavioural oracle trace",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="shard flow runs across this many worker processes (0 = all cores)",
    )
    parser.add_argument(
        "--engine",
        choices=ENGINES,
        default="auto",
        help="bit-parallel execution engine for the gate-level verification "
        "sweeps: auto = interpret each cone for its first 64 calls, then "
        "compile it into one generated Python kernel, native = that kernel "
        "compiled as C and called through ctypes (degrades to auto with a "
        "warning when no C toolchain exists); both bit-exact, speed only",
    )
    _add_common_arguments(parser)
    args = parser.parse_args(argv)
    config = _build_config(args)

    exit_code = 0
    table = generate_table1(
        datasets=args.datasets,
        config=config,
        verify_hardware=args.verify_hardware,
        verify_sequential=args.verify_sequential,
        jobs=args.jobs,
        cache=_build_cache(args),
        opt_level=args.opt_level,
        engine=args.engine,
    )
    print(format_table1(table))
    optimization = format_table1_optimization(table)
    if optimization:
        print()
        print(optimization)
    if args.verify_hardware:
        exit_code |= _report_verification(
            table,
            "hardware_verified",
            "Hardware verification",
            "match their integer model bit-exactly",
        )
    if args.verify_sequential:
        exit_code |= _report_verification(
            table,
            "sequential_verified",
            "Sequential gate-level verification",
            "match the behavioural oracle cycle by cycle",
        )
    print()
    aggregates = table1_aggregates(table)
    print("Aggregate claims (measured vs paper):")
    print(markdown_claims(aggregates, PAPER_CLAIMS))
    return exit_code


def main_flow(argv: Optional[List[str]] = None) -> int:
    """Entry point of ``repro-flow``."""
    parser = argparse.ArgumentParser(
        description="Run the design flow for one dataset and model kind."
    )
    parser.add_argument("dataset", choices=available_datasets())
    parser.add_argument("kind", choices=list(MODEL_KINDS))
    parser.add_argument(
        "--verilog",
        type=str,
        default=None,
        help="write the generated behavioural Verilog to this path (proposed design only)",
    )
    parser.add_argument(
        "--verify-hardware",
        action="store_true",
        help="run the cycle-accurate datapath simulation over the test set "
        "and check bit-exact agreement with the integer model "
        "(proposed design only)",
    )
    _add_common_arguments(parser)
    args = parser.parse_args(argv)
    config = _build_config(args)

    result = run_flow_cached(args.dataset, args.kind, config, cache=_build_cache(args))
    print(result.report)
    print(breakdown_summary(result.report))
    print(f"float accuracy      : {result.float_accuracy_percent:.2f} %")
    print(f"weight bits used    : {result.weight_bits_used}")

    if args.opt_level is not None:
        from repro.hw.opt import optimize

        netlist = design_mac_netlist(result.design)
        if netlist is None:
            print("netlist optimization: no hardwired linear datapath for this model kind")
        else:
            stats = optimize(netlist, level=args.opt_level).stats
            print(
                f"netlist optimization: {stats.gates_before} gates raw -> "
                f"{stats.gates_after} optimized "
                f"({stats.reduction_percent:.1f}% removed at level {stats.level})"
            )

    if args.verify_hardware:
        design = result.design
        if not hasattr(design, "verify_against_model"):
            print("Hardware verification is only available for the proposed sequential design.")
            return 1
        ok = design.verify_against_model(result.split.X_test)
        n_test = result.split.X_test.shape[0]
        print(
            f"hardware verification: "
            f"{'bit-exact match' if ok else 'MISMATCH'} on {n_test} test samples"
        )
        if not ok:
            return 1

    if args.verilog is not None:
        design = result.design
        if not hasattr(design, "to_verilog"):
            print("Verilog export is only available for the proposed sequential design.")
            return 1
        with open(args.verilog, "w", encoding="utf-8") as handle:
            handle.write(design.to_verilog())
        print(f"Verilog written to {args.verilog}")
    return 0


def _serve_parser() -> argparse.ArgumentParser:
    """The argument parser of ``repro-serve``."""
    from repro.serve.batching import DEFAULT_MAX_BATCH_SIZE, DEFAULT_MAX_LATENCY_MS

    parser = argparse.ArgumentParser(
        description="Serve trained designs over an HTTP JSON endpoint with "
        "micro-batched inference."
    )
    parser.add_argument(
        "--models",
        nargs="+",
        default=["redwine/ours"],
        help="models to preload and serve, each '<dataset>/<kind>' "
        "(other models load lazily on first request)",
    )
    parser.add_argument(
        "--host",
        type=str,
        default="127.0.0.1",
        help="interface the HTTP endpoint binds (default: loopback only)",
    )
    parser.add_argument(
        "--port",
        type=int,
        default=8000,
        help="TCP port of the HTTP endpoint (0 = pick an ephemeral port)",
    )
    parser.add_argument(
        "--max-batch-size",
        type=int,
        default=DEFAULT_MAX_BATCH_SIZE,
        help="micro-batch ceiling: concurrent requests coalesce into "
        "vectorized batches of at most this many samples",
    )
    parser.add_argument(
        "--max-latency-ms",
        type=float,
        default=DEFAULT_MAX_LATENCY_MS,
        help="how long a partial micro-batch waits for stragglers before "
        "flushing (0 = flush as soon as the queue drains)",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="shard cold preload training across this many worker processes "
        "(0 = all cores)",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=0,
        help="serving processes: 0 serves every model in this process; "
        "N >= 1 forks N copies of that server behind a supervisor that hands "
        "each accepted connection to the next child in turn",
    )
    _add_common_arguments(parser)
    return parser


def main_serve(argv: Optional[List[str]] = None) -> int:
    """Entry point of ``repro-serve`` (also ``python -m repro.serve``).

    Loads every requested model through the persistent flow cache (training
    only the ones never seen before), then serves the HTTP JSON endpoint
    until interrupted.  Routes: ``POST /predict``, ``GET /stats``,
    ``GET /models``, ``GET /healthz`` — see ``docs/serving.md``.
    """
    parser = _serve_parser()
    args = parser.parse_args(argv)
    config = _build_config(args)

    from repro.serve import ModelRegistry, ModelServer, build_http_server
    from repro.serve.registry import parse_model_name
    from repro.serve.worker import Supervisor

    try:
        for name in args.models:
            parse_model_name(name)
    except ValueError as error:
        parser.error(str(error))

    if args.workers < 0:
        parser.error("--workers must be >= 0")

    registry = ModelRegistry(
        config=config,
        cache=_build_cache(args),
        jobs=args.jobs,
        opt_level=args.opt_level,
    )
    print(f"loading {len(args.models)} model(s): {', '.join(args.models)}")
    registry.preload(args.models)
    knobs = {"max_batch_size": args.max_batch_size, "max_latency_ms": args.max_latency_ms}
    settings = (
        f"max_batch_size={args.max_batch_size}, "
        f"max_latency_ms={args.max_latency_ms:g}"
    )
    if args.workers:
        # Bound before the fork, so every child serves the same address; the
        # supervisor drains the fleet itself on SIGINT or SIGTERM.
        listener = socket.create_server((args.host, args.port))
        host, port = listener.getsockname()[:2]
        Supervisor(registry, args.models, args.workers, listener, **knobs).run(
            on_ready=lambda: print(
                f"serving on http://{host}:{port} ({settings}, "
                f"workers={args.workers})",
                flush=True,
            )
        )
        return 0

    server = ModelServer(registry, **knobs)
    for name in args.models:
        server.open_lane(name)  # open a serving lane per requested model
    httpd = build_http_server(server, host=args.host, port=args.port)
    host, port = httpd.server_address[:2]
    print(f"serving on http://{host}:{port} ({settings})", flush=True)
    try:
        httpd.serve_forever()
    except KeyboardInterrupt:
        print("shutting down (draining in-flight requests)")
    finally:
        httpd.server_close()
        server.shutdown(drain=True)
    return 0


# --------------------------------------------------------------------------- #
# repro-jobs
# --------------------------------------------------------------------------- #
def _add_jobs_dir(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--dir",
        type=str,
        default="jobs-run",
        help="run directory holding the job manifest (manifest.jsonl) and "
        "the result store (results.jsonl)",
    )


def _add_scheduler_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--workers",
        type=int,
        default=2,
        help="flow-worker pool size (one forked worker process per slot)",
    )
    parser.add_argument(
        "--job-timeout",
        type=float,
        default=600.0,
        help="per-job deadline in seconds; a job exceeding it is treated "
        "like a worker crash (the worker is killed and the job retried)",
    )
    parser.add_argument(
        "--max-retries",
        type=int,
        default=2,
        help="crash/timeout retries per job beyond the first attempt "
        "(worker-reported failures are permanent and never retried)",
    )


def _jobs_paths(args: argparse.Namespace):
    run_dir = Path(args.dir)
    return run_dir / "manifest.jsonl", run_dir / "results.jsonl"


def _jobs_progress(event: str, record) -> None:
    spec = record.spec
    print(f"[{event}] {spec.dataset}/{spec.kind} ({spec.job_id})")


def _jobs_drain(args: argparse.Namespace, tool: str) -> int:
    """Open the durable pair and drain the pending set; shared exit codes."""
    from repro.core.benchcompare import bad_input_exit
    from repro.jobs import ManifestError, StoreError, run_jobs

    manifest_path, store_path = _jobs_paths(args)
    if not manifest_path.is_file():
        return bad_input_exit(
            tool, FileNotFoundError(f"no job manifest at {manifest_path}")
        )
    try:
        summary = run_jobs(
            manifest_path,
            store_path,
            cache=_build_cache(args),
            workers=args.workers,
            job_timeout_s=args.job_timeout,
            max_retries=args.max_retries,
            progress=_jobs_progress,
        )
    except (ManifestError, StoreError) as error:
        return bad_input_exit(tool, error)
    counts = summary.manifest_counts
    print(
        f"drained: {summary.completed} done this run "
        f"({summary.cache_hits} from cache, {summary.trained} trained), "
        f"{summary.retries} retries, {summary.workers_replaced} workers "
        f"replaced; manifest now {counts.get('done', 0)} done / "
        f"{counts.get('failed', 0)} failed"
    )
    return 1 if summary.failed else 0


def _jobs_submit(args: argparse.Namespace) -> int:
    from repro.core.benchcompare import bad_input_exit
    from repro.jobs import JobManifest, ManifestError, submit_grid

    manifest_path, _ = _jobs_paths(args)
    manifest_path.parent.mkdir(parents=True, exist_ok=True)
    datasets = args.datasets or available_datasets()
    try:
        with JobManifest(manifest_path) as manifest:
            ids = submit_grid(manifest, datasets, args.kinds, _build_config(args))
    except ManifestError as error:
        return bad_input_exit("repro-jobs submit", error)
    print(
        f"submitted {len(ids)} job(s) "
        f"({len(datasets)} dataset(s) x {len(args.kinds)} kind(s)) "
        f"into {manifest_path}"
    )
    if args.no_run:
        return 0
    return _jobs_drain(args, "repro-jobs submit")


def _jobs_status(args: argparse.Namespace) -> int:
    from repro.core.benchcompare import bad_input_exit
    from repro.jobs import ManifestError, replay_journal

    manifest_path, store_path = _jobs_paths(args)
    if not manifest_path.is_file():
        return bad_input_exit(
            "repro-jobs status",
            FileNotFoundError(f"no job manifest at {manifest_path}"),
        )
    try:
        state = replay_journal(manifest_path.read_text())
    except ManifestError as error:
        return bad_input_exit("repro-jobs status", error)
    counts = state.counts()
    print(
        f"{manifest_path}: {len(state.jobs)} job(s) — "
        + ", ".join(f"{counts[s]} {s}" for s in counts)
        + (" (torn final journal line discarded)" if state.discarded_torn_tail else "")
    )
    for record in state.jobs.values():
        spec = record.spec
        extra = ""
        if record.source is not None:
            extra = f" [{record.source}]"
        elif record.error:
            extra = f" [{record.error}]"
        print(
            f"  {record.state:8s} {spec.dataset}/{spec.kind} "
            f"({spec.job_id}, attempts={record.attempts}){extra}"
        )
    if store_path.is_file():
        print(f"result store: {store_path}")
    return 0


def _jobs_query(args: argparse.Namespace) -> int:
    import json as _json

    from repro.core.benchcompare import bad_input_exit
    from repro.jobs import ResultStore, StoreError

    _, store_path = _jobs_paths(args)
    if not store_path.is_file():
        return bad_input_exit(
            "repro-jobs query",
            FileNotFoundError(f"no result store at {store_path}"),
        )
    try:
        store = ResultStore(store_path)
    except StoreError as error:
        return bad_input_exit("repro-jobs query", error)
    records = store.query(
        dataset=args.dataset,
        kind=args.kind,
        min_accuracy_percent=args.min_accuracy,
    )
    if args.table:
        from repro.eval.table1 import format_table1, table1_from_store

        class _Filtered:
            def records(self_inner):
                return records

        print(format_table1(table1_from_store(_Filtered())))
    elif args.pareto:
        from repro.eval.pareto import pareto_front, tradeoff_points_from_rows

        points = tradeoff_points_from_rows([r["row"] for r in records])
        front = {p.label for p in pareto_front(points)}
        for point in points:
            marker = "*" if point.label in front else " "
            print(
                f" {marker} {point.label:28s} acc {point.maximise_value:6.2f}% "
                f"energy {point.minimise_value:8.3f} mJ"
            )
    else:
        for record in records:
            print(_json.dumps(record, sort_keys=True))
    return 0


def main_jobs(argv: Optional[List[str]] = None) -> int:
    """Entry point of ``repro-jobs`` (``submit``/``status``/``resume``/``query``).

    The CLI face of :mod:`repro.jobs`: grids are journaled into a durable
    manifest, drained through pooled flow workers, and the results land in
    a queryable store — all of it resumable after a crash with
    ``repro-jobs resume``.
    """
    parser = argparse.ArgumentParser(
        prog="repro-jobs",
        description="Resumable distributed flow-job service: submit grids, "
        "drain them through pooled workers, resume after crashes, query "
        "results.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    submit = sub.add_parser(
        "submit", help="journal a (dataset x kind) grid and drain it"
    )
    _add_jobs_dir(submit)
    submit.add_argument(
        "--datasets",
        nargs="+",
        default=None,
        choices=available_datasets(),
        help="datasets of the grid (default: all)",
    )
    submit.add_argument(
        "--kinds",
        nargs="+",
        default=["ours"],
        choices=list(MODEL_KINDS),
        help="model kinds of the grid (default: ours)",
    )
    _add_flow_arguments(submit)
    _add_cache_arguments(submit)
    _add_scheduler_arguments(submit)
    submit.add_argument(
        "--no-run",
        action="store_true",
        help="journal the submissions only; drain later with 'resume'",
    )

    status = sub.add_parser("status", help="replay the manifest and print per-job state")
    _add_jobs_dir(status)

    resume = sub.add_parser(
        "resume", help="drain the pending set left by a previous (crashed) run"
    )
    _add_jobs_dir(resume)
    _add_cache_arguments(resume)
    _add_scheduler_arguments(resume)

    query = sub.add_parser("query", help="query the result store")
    _add_jobs_dir(query)
    query.add_argument(
        "--dataset", type=str, default=None, help="filter results to one dataset"
    )
    query.add_argument(
        "--kind", type=str, default=None, help="filter results to one model kind"
    )
    query.add_argument(
        "--min-accuracy",
        type=float,
        default=None,
        help="only results with at least this accuracy (percent)",
    )
    query.add_argument(
        "--table",
        action="store_true",
        help="render the matching results in the Table I column layout",
    )
    query.add_argument(
        "--pareto",
        action="store_true",
        help="print the accuracy/energy points, marking the Pareto front with *",
    )

    args = parser.parse_args(argv)
    if args.command == "submit":
        return _jobs_submit(args)
    if args.command == "status":
        return _jobs_status(args)
    if args.command == "resume":
        return _jobs_drain(args, "repro-jobs resume")
    return _jobs_query(args)


if __name__ == "__main__":  # pragma: no cover - manual invocation helper
    sys.exit(main_table1())
