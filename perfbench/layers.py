"""Per-layer metrics: harness phases, traced spans and the cost ledger.

Times are per timed step (warm-up excluded) unless the name is a set-up
span.  Span times are those of the critical worker, the one whose timed
loop took longest, which is the worker ``RunReport`` breaks down; counts
are summed over all workers.
"""

import statistics

LEDGER_PHASES = {"create_rhs": "create_rhs", "dss": "dss_comm",
                 "filter": "filter", "update": "update"}
HALO = ("storage.PartitionLayout.accumulate_own",
        "storage.PartitionLayout.serialize_shared",
        "storage.PartitionLayout.outgoing",
        "storage.PartitionLayout.fold_shared")
FOLD = "storage.PartitionLayout.fold_shared"

# per-layer metric -> unit; BENCHMARK.json lists the same names and units
UNITS = {
    "harness.create_rhs_ms": "ms",
    "harness.dss_comm_ms": "ms",
    "harness.filter_ms": "ms",
    "harness.update_ms": "ms",
    "harness.phase_gap_ms": "ms",
    "harness.outside_phases_ms": "ms",
    "harness.dss_comm_residual_ms": "ms",
    "harness.worker_busy_imbalance": "ratio",
    "dynamics.rhs_element_contributions_self_ms": "ms",
    "dynamics.flux_ms": "ms",
    "dynamics.pressure_ms": "ms",
    "dynamics.pressure_calls": "count/step",
    "dynamics.filter_element_ms": "ms",
    "storage.accumulate_own_ms": "ms",
    "storage.serialize_shared_ms": "ms",
    "storage.fold_shared_ms": "ms",
    "storage.halo_messages_per_step": "count/step",
    "storage.halo_bytes_per_step": "B/step",
    "storage.write_snapshot_ms": "ms",
    "storage.snapshot_bytes": "B",
    "storage.partition_layout_ms": "ms",
    "mesh.compute_metrics_ms": "ms",
    "mesh.build_cg_numbering_ms": "ms",
    "mesh.build_box_mesh_ms": "ms",
    "mesh.partition_columns_ms": "ms",
    "mesh.n_unique": "count",
    "mesh.n_elements": "count",
    "reference_element.create_ms": "ms",
    "time_integration.compute_dt_ms": "ms",
    "time_integration.rk_step_calls": "count/step",
    **{f"perf_model.{kind}.{ph}": unit
       for kind, unit in (("ledger_gflop", "Gflop/step"),
                          ("ledger_mb", "MB/step"),
                          ("ledger_intensity", "flop/B"),
                          ("achieved_gflops", "Gflop/s"))
       for ph in LEDGER_PHASES},
    "trace.step_ms": "ms",
    "trace.overhead_ms": "ms",
}

# set-up span -> metric; the value is ms per set-up
SETUP_SPANS = {
    "reference_element.ReferenceElement.create": "reference_element.create_ms",
    "mesh.build_box_mesh": "mesh.build_box_mesh_ms",
    "mesh.compute_metrics": "mesh.compute_metrics_ms",
    "mesh.build_cg_numbering": "mesh.build_cg_numbering_ms",
    "mesh.partition_columns": "mesh.partition_columns_ms",
    "storage.PartitionLayout.__init__": "storage.partition_layout_ms",
    "time_integration.compute_dt": "time_integration.compute_dt_ms",
}


def harness_metrics(report) -> dict:
    """Phase split of one untraced run, from its ``RunReport``."""
    per_step = 1e3 / report.timed_steps
    out = {f"harness.{ph}_ms": s * per_step
           for ph, s in report.phase_seconds.items()}
    step = report.total_seconds * per_step
    out["harness.phase_gap_ms"] = step - sum(out.values())
    out["harness.outside_phases_ms"] = (
        (report.wall_seconds - report.total_seconds) * 1e3 / report.n_steps)
    out["step_ms"] = step
    return out


def setup_metrics(spans) -> dict:
    """Set-up span totals (ms) of one traced set-up."""
    out = dict.fromkeys(SETUP_SPANS.values(), 0.0)
    for s in spans:
        if s.name in SETUP_SPANS:
            out[SETUP_SPANS[s.name]] += s.duration * 1e3
    return out


def worker_windows(spans, n_steps: int, warmup: int) -> dict:
    """Timed-loop interval (start, end) of every worker thread.

    Every exchange ends in one ``fold_shared`` call, and each step makes
    the same number of exchanges, so the end of the warm-up's last fold
    opens a worker's timed window and its final fold closes it.
    """
    folds = {}
    for s in spans:
        if s.name == FOLD:
            folds.setdefault(s.thread, []).append(s)
    if not folds:
        raise ValueError("no fold_shared spans: cannot delimit the steps")
    windows = {}
    for thread, fs in folds.items():
        per_step, rem = divmod(len(fs), n_steps)
        if rem:
            raise ValueError(f"{len(fs)} exchanges over {n_steps} steps")
        lo = fs[per_step * warmup - 1].end if warmup else float("-inf")
        windows[thread] = (lo, fs[-1].end)
    return windows


def traced_run_metrics(spans, report, warmup: int) -> dict:
    """Span metrics of one traced run."""
    timed = report.timed_steps
    windows = worker_windows(spans, report.n_steps, warmup)
    timed_spans = [s for s in spans if s.thread in windows
                   and windows[s.thread][0] <= s.start
                   and s.end <= windows[s.thread][1]]
    critical = max(windows, key=lambda th: windows[th][1] - windows[th][0])
    on_crit = [s for s in timed_spans if s.thread == critical]

    def ms(name, self_time=False):
        return 1e3 / timed * sum(s.self_s if self_time else s.duration
                                 for s in on_crit if s.name == name)

    def per_step(name, attr=None):
        return sum(1 if attr is None else getattr(s, attr)
                   for s in timed_spans if s.name == name) / timed

    busy = {}
    for s in timed_spans:
        busy[s.thread] = busy.get(s.thread, 0.0) + s.self_s
    snaps = [s for s in spans if s.name == "storage.write_snapshot"]
    dss_comm = report.phase_seconds["dss_comm"] * 1e3 / timed
    return {
        "harness.dss_comm_residual_ms": dss_comm - sum(ms(n) for n in HALO),
        "harness.worker_busy_imbalance":
            max(busy.values()) / statistics.fmean(busy.values()),
        "dynamics.rhs_element_contributions_self_ms":
            ms("dynamics.rhs_element_contributions", self_time=True),
        "dynamics.flux_ms": ms("dynamics.flux"),
        "dynamics.pressure_ms": ms("dynamics.pressure"),
        "dynamics.pressure_calls": per_step("dynamics.pressure"),
        "dynamics.filter_element_ms": ms("dynamics.filter_element"),
        "storage.accumulate_own_ms": ms("storage.PartitionLayout.accumulate_own"),
        "storage.serialize_shared_ms":
            ms("storage.PartitionLayout.serialize_shared"),
        "storage.fold_shared_ms": ms(FOLD),
        "storage.halo_messages_per_step":
            per_step("storage.PartitionLayout.outgoing", "count"),
        "storage.halo_bytes_per_step":
            per_step("storage.PartitionLayout.outgoing", "nbytes"),
        "storage.write_snapshot_ms":
            sum(s.duration for s in snaps) * 1e3 / timed,
        "storage.snapshot_bytes": sum(s.nbytes for s in snaps),
        "time_integration.rk_step_calls": per_step("time_integration.rk_step"),
        "trace.step_ms": report.total_seconds * 1e3 / timed,
    }


def ledger_metrics(costs: dict, timed_steps: int, harness: dict) -> dict:
    """Ledger flops, bytes and intensity per timed step for each phase,
    and the ledger flops over the measured phase time."""
    out = {}
    for ph, phase in LEDGER_PHASES.items():
        c = costs[ph]
        flops = c.flops / timed_steps
        out[f"perf_model.ledger_gflop.{ph}"] = flops / 1e9
        out[f"perf_model.ledger_mb.{ph}"] = c.bytes_moved / timed_steps / 1e6
        out[f"perf_model.ledger_intensity.{ph}"] = c.intensity
        out[f"perf_model.achieved_gflops.{ph}"] = (
            flops / (harness[f"harness.{phase}_ms"] / 1e3) / 1e9)
    return out


def medians(rows: list[dict]) -> dict:
    """Per-key median over a list of metric dicts with the same keys."""
    return {k: statistics.median(r[k] for r in rows) for k in rows[0]}
