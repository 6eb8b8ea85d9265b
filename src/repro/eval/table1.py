"""Regeneration of the paper's Table I.

:func:`generate_table1` runs the full design flow for every (dataset, model)
pair the paper reports and returns the measured rows;
:func:`format_table1` renders them in the paper's column layout, optionally
side by side with the published values; :func:`table1_aggregates` computes
the headline aggregates (energy improvements, accuracy gains, power
statistics) used by the claims benchmark and by ``EXPERIMENTS.md``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.core.design_flow import FlowConfig, FlowResult
from repro.core.flow_executor import CacheSpec, execute_flow_grid
from repro.core.report import ClassifierHardwareReport
from repro.eval.comparison import (
    ImprovementSummary,
    compare_against_baseline,
    overall_energy_improvement,
    power_statistics,
)
from repro.eval.reference import (
    MODEL_TO_KIND,
    TABLE1_DATASETS,
    models_reported_for,
    reference_row,
)


@dataclass
class Table1Entry:
    """One measured Table I row, paired with its published reference."""

    dataset: str
    model: str
    measured: ClassifierHardwareReport
    reference: Optional[object] = None
    flow_result: Optional[FlowResult] = None
    #: Result of the cycle-accurate hardware-vs-model check (None = not run /
    #: not applicable for this model kind).
    hardware_verified: Optional[bool] = None
    #: Result of the gate-level sequential check: the proposed design's
    #: explicit clocked netlist simulated cycle by cycle on the bit-parallel
    #: engine and compared against the behavioural oracle trace (None = not
    #: run / not applicable for this model kind).
    sequential_verified: Optional[bool] = None
    #: Netlist-optimizer statistics for this design's hardwired constant-MAC
    #: datapath (None = ``opt_level`` not requested / model has no linear
    #: coefficient table).  ``opt_stats.gates_before`` is the raw explicit
    #: gate count, ``opt_stats.gates_after`` the optimized one.
    opt_stats: Optional[object] = None


@dataclass
class Table1:
    """The regenerated table plus its aggregates."""

    entries: List[Table1Entry] = field(default_factory=list)

    def rows_for_model(self, model: str) -> List[ClassifierHardwareReport]:
        """Measured rows of one model id (e.g. ``"ours"``), dataset-ordered."""
        return [e.measured for e in self.entries if e.model == model]

    def row(self, dataset: str, model: str) -> Table1Entry:
        """One specific entry; raises if the pair was not generated."""
        for entry in self.entries:
            if entry.dataset == dataset and entry.model == model:
                return entry
        raise KeyError(f"no entry for ({dataset!r}, {model!r})")

    def datasets(self) -> List[str]:
        """Datasets present in the table, in first-seen order."""
        seen: List[str] = []
        for entry in self.entries:
            if entry.dataset not in seen:
                seen.append(entry.dataset)
        return seen


def design_mac_netlist(design: object):
    """Explicit constant-MAC datapath netlist of a linear design, or None.

    Builds the naive (unoptimized) hardwired multiply-accumulate datapath of
    the design's *first* classifier — one tied-operand multiplier per
    coefficient magnitude plus ripple accumulation — which is what the
    :mod:`repro.hw.opt` optimizer consumes for the optimized-vs-raw gate
    counts surfaced in the Table I report.  Designs without a linear
    coefficient table (the MLP baseline) return None.
    """
    from repro.hw.rtl.multipliers import build_constant_mac_netlist

    model = getattr(design, "model", None)
    weight_codes = getattr(model, "weight_codes", None)
    input_format = getattr(model, "input_format", None)
    # The MLP baseline stores per-layer weight lists, not one linear table.
    if (
        input_format is None
        or not isinstance(weight_codes, np.ndarray)
        or weight_codes.ndim != 2
        or weight_codes.shape[0] < 1
    ):
        return None
    weights = [int(w) for w in weight_codes[0]]
    return build_constant_mac_netlist(
        weights,
        int(input_format.total_bits),
        name=f"mac_{getattr(design, 'dataset', 'design') or 'design'}",
    )


def _attach_opt_stats(entry: Table1Entry, opt_level: int) -> None:
    """Optimize the entry's constant-MAC datapath and record the stats."""
    from repro.hw.opt import optimize

    netlist = design_mac_netlist(entry.flow_result.design)
    if netlist is None:
        return
    entry.opt_stats = optimize(netlist, level=opt_level).stats


def generate_table1(
    datasets: Optional[Sequence[str]] = None,
    config: Optional[FlowConfig] = None,
    include_reference: bool = True,
    models: Optional[Sequence[str]] = None,
    verify_hardware: bool = False,
    verify_sequential: bool = False,
    jobs: Optional[int] = None,
    cache: CacheSpec = None,
    opt_level: Optional[int] = None,
    engine: str = "auto",
) -> Table1:
    """Run the flow for every (dataset, model) pair the paper reports.

    Parameters
    ----------
    datasets:
        Datasets to include (defaults to all five of Table I).
    config:
        Flow configuration; pass :func:`repro.core.design_flow.fast_config`
        for quick runs.
    include_reference:
        Attach the published row to each measured row when the paper reports
        one.
    models:
        Restrict to a subset of model ids (``"ours"``, ``"svm[2]"``, ...).
    verify_hardware:
        Additionally run the cycle-accurate datapath simulator over every
        proposed-design test set and record bit-exact agreement with the
        integer model in :attr:`Table1Entry.hardware_verified`.  Cheap since
        the batch simulation path is vectorized (see :mod:`repro.perf`).
    verify_sequential:
        Additionally clock every proposed design's explicit gate-level
        netlist (counter + MUX storage + MAC + voter,
        :meth:`~repro.core.sequential_svm.SequentialSVMDesign.gate_netlist`)
        over its test set on the bit-parallel sequential engine
        (:mod:`repro.perf.seqsim`) and record per-cycle bit-exact agreement
        with the behavioural oracle trace in
        :attr:`Table1Entry.sequential_verified`.
    jobs:
        Shard flow runs across this many worker processes (``None``/1 =
        serial, 0 = all cores).  Training seeds are fixed, so the sharded
        table is bit-identical to the serial one.
    cache:
        Persistent result cache: ``None`` uses the default on-disk layer
        (``~/.cache/repro`` keyed by config + code fingerprint), ``False``
        disables it, or pass an explicit
        :class:`~repro.core.flow_executor.FlowResultCache`.
    opt_level:
        When set, run the :mod:`repro.hw.opt` netlist optimizer at this
        level over each design's hardwired constant-MAC datapath and attach
        the optimized-vs-raw gate counts to :attr:`Table1Entry.opt_stats`
        (rendered by :func:`format_table1_optimization`).
    engine:
        Bit-parallel execution engine used by the gate-level verification
        sweeps: ``'auto'`` or ``'native'`` (see :mod:`repro.perf.engines`;
        ``'native'`` degrades to ``'auto'`` on hosts without a C
        toolchain).  Both engines are bit-exact; this only trades
        verification wall-clock.
    """
    datasets = list(datasets) if datasets is not None else list(TABLE1_DATASETS)
    rows: List[tuple] = []
    for dataset in datasets:
        for model in models_reported_for(dataset):
            if models is not None and model not in models:
                continue
            rows.append((dataset, model, MODEL_TO_KIND[model]))

    results = execute_flow_grid(
        [(dataset, kind) for dataset, _, kind in rows],
        config=config,
        jobs=jobs,
        cache=cache,
    )

    table = Table1()
    for dataset, model, kind in rows:
        result = results[(dataset, kind)]
        reference = reference_row(dataset, model) if include_reference else None
        verified: Optional[bool] = None
        if verify_hardware and kind == "ours":
            verified = bool(result.design.verify_against_model(result.split.X_test))
        seq_verified: Optional[bool] = None
        if verify_sequential and kind == "ours":
            seq_verified = bool(
                result.design.verify_gate_level(result.split.X_test, engine=engine)
            )
        entry = Table1Entry(
            dataset=dataset,
            model=model,
            measured=result.report,
            reference=reference,
            flow_result=result,
            hardware_verified=verified,
            sequential_verified=seq_verified,
        )
        if opt_level is not None:
            _attach_opt_stats(entry, opt_level)
        table.entries.append(entry)
    return table


def report_from_store_record(record: Dict) -> ClassifierHardwareReport:
    """Rebuild a Table-I-shaped report from one ``repro.jobs`` store record.

    Store records carry the rounded Table I columns (``row``) plus the
    cycle count — enough to rebuild the report the table formatters and the
    Pareto helpers consume.  Breakdowns (static/dynamic power, cell counts)
    are not persisted and come back as their defaults.

    Example::

        report = report_from_store_record(store.query(dataset="redwine")[0])
        report.energy_mj
    """
    row = record["row"]
    return ClassifierHardwareReport(
        dataset=row["dataset"],
        model=row["model"],
        accuracy_percent=float(row["accuracy_percent"]),
        area_cm2=float(row["area_cm2"]),
        power_mw=float(row["power_mw"]),
        frequency_hz=float(row["frequency_hz"]),
        latency_ms=float(row["latency_ms"]),
        energy_mj=float(row["energy_mj"]),
        cycles_per_classification=int(record.get("cycles_per_classification", 1)),
        notes=f"rebuilt from job store record {record.get('id', '?')}",
    )


def table1_from_store(
    store,
    datasets: Optional[Sequence[str]] = None,
    models: Optional[Sequence[str]] = None,
    include_reference: bool = True,
) -> Table1:
    """Assemble a :class:`Table1` from a ``repro.jobs`` result store.

    The read-side counterpart of :func:`generate_table1`: no flows run —
    every entry is rebuilt from the store's persisted records (one grid run
    by ``repro-jobs`` serves every later table/front/report query).  Rows
    are rounded exactly as ``ClassifierHardwareReport.as_row`` rounds them,
    so a store-built table formats identically to a freshly generated one.

    Example::

        store = ResultStore(run_dir / "results.jsonl")
        print(format_table1(table1_from_store(store)))
    """
    table = Table1()
    for record in store.records():
        if datasets is not None and record.get("dataset") not in datasets:
            continue
        measured = report_from_store_record(record)
        if models is not None and measured.model not in models:
            continue
        reference = None
        if include_reference:
            try:
                reference = reference_row(measured.dataset, measured.model)
            except (KeyError, ValueError):
                reference = None
        table.entries.append(
            Table1Entry(
                dataset=measured.dataset,
                model=measured.model,
                measured=measured,
                reference=reference,
            )
        )
    return table


def format_table1(table: Table1, show_reference: bool = True) -> str:
    """Render the regenerated table in the paper's column layout."""
    header = (
        f"{'Dataset':12s} {'Model':10s} "
        f"{'Acc(%)':>8s} {'Area(cm2)':>10s} {'Power(mW)':>10s} "
        f"{'Freq(Hz)':>9s} {'Lat(ms)':>9s} {'Energy(mJ)':>11s}"
    )
    lines = [header, "-" * len(header)]
    for entry in table.entries:
        m = entry.measured
        lines.append(
            f"{entry.dataset:12s} {entry.model:10s} "
            f"{m.accuracy_percent:8.1f} {m.area_cm2:10.2f} {m.power_mw:10.2f} "
            f"{m.frequency_hz:9.1f} {m.latency_ms:9.1f} {m.energy_mj:11.3f}"
        )
        if show_reference and entry.reference is not None:
            r = entry.reference
            lines.append(
                f"{'':12s} {'(paper)':10s} "
                f"{r.accuracy_percent:8.1f} {r.area_cm2:10.2f} {r.power_mw:10.2f} "
                f"{r.frequency_hz:9.1f} {r.latency_ms:9.1f} {r.energy_mj:11.3f}"
            )
    return "\n".join(lines)


def format_table1_optimization(table: Table1) -> str:
    """Render the optimized-vs-raw netlist gate counts attached to a table.

    One line per entry that carries :attr:`Table1Entry.opt_stats`; empty
    string when ``generate_table1`` ran without ``opt_level``.
    """
    lines: List[str] = []
    for entry in table.entries:
        stats = entry.opt_stats
        if stats is None:
            continue
        if not lines:
            lines.append(
                f"Constant-MAC datapath netlists "
                f"(pass pipeline level {stats.level}, classifier 0):"
            )
        lines.append(
            f"  {entry.dataset:12s} {entry.model:10s} "
            f"{stats.gates_before:5d} gates raw -> {stats.gates_after:5d} optimized "
            f"({stats.reduction_percent:5.1f}% removed)"
        )
    return "\n".join(lines)


def table1_aggregates(table: Table1) -> Dict[str, float]:
    """The paper's headline aggregates computed from a regenerated table."""
    ours = table.rows_for_model("ours")
    if not ours:
        raise ValueError("the table contains no proposed-design rows")
    summaries: List[ImprovementSummary] = []
    aggregates: Dict[str, float] = {}
    for model, claim_suffix in (
        ("svm[2]", "svm2"),
        ("svm[3]", "svm3"),
        ("mlp[4]", "mlp4"),
    ):
        baseline_rows = table.rows_for_model(model)
        if not baseline_rows:
            continue
        summary = compare_against_baseline(ours, baseline_rows, baseline_name=model)
        summaries.append(summary)
        # The paper's headline figures are ratios of average energies; the
        # per-dataset-ratio mean is kept as a secondary key for analysis.
        aggregates[f"energy_improvement_vs_{claim_suffix}"] = (
            summary.energy_improvement_of_averages
        )
        aggregates[f"energy_ratio_mean_vs_{claim_suffix}"] = summary.mean_energy_improvement
        aggregates[f"accuracy_gain_vs_{claim_suffix}"] = summary.mean_accuracy_gain
    if summaries:
        aggregates["energy_improvement_average"] = overall_energy_improvement(summaries)
    aggregates.update(power_statistics(ours))
    return aggregates
