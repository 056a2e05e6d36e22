"""Measure one workload in this process; ``run.py`` starts it.

    python3 perfbench/measure.py --workload W --seed N --seconds S --trace 0|1

It prints one ``@run {json}`` line per engine run and one
``@summary {json}`` line at the end on standard output.  With ``--once``
it makes a single engine run and prints no summary: its peak resident
set is the workload's memory metric.  The engine is imported from
``src/`` of the checkout that holds this file and from nowhere else.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import sys
import tempfile
import time
import traceback

import host
import layers
from tracer import Tracer
from workloads import WORKLOADS, bubble_config

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
TMP = os.path.join(ROOT, ".perfbench_tmp")
EXIT_NO_ENGINE = 3

MASS_DRIFT_GATE = 1e-6      # the acceptance gate's mass-conservation bound
TRACED_SETUPS = 5           # traced set-ups for the set-up span metrics
MIN_RUNS = 4                # timed engine runs, even past --seconds


def import_engine():
    sys.path.insert(0, SRC)
    try:
        import sembox
    except ImportError as exc:
        print(f"engine not importable from {SRC}: {exc}", file=sys.stderr)
        sys.exit(EXIT_NO_ENGINE)
    if not os.path.abspath(sembox.__file__).startswith(SRC + os.sep):
        print(f"engine imported from {sembox.__file__}, not {SRC}",
              file=sys.stderr)
        sys.exit(EXIT_NO_ENGINE)


def emit(tag, payload):
    print(f"@{tag} {json.dumps(payload)}", flush=True)


def set_up(cfg, partitions):
    """The set-up calls ``run_bubble`` makes, through module attributes so
    that traced wrappers apply; returns the discretization."""
    from sembox import dynamics, harness, mesh, storage, time_integration
    const = dynamics.GasConstants()
    disc = harness.build_discretization(cfg)
    state0, _ = harness.init_bubble(cfg, disc, const)
    control = time_integration.TimestepControl(
        courant_h=cfg.courant_h, courant_v=cfg.courant_v,
        end_time=cfg.end_time, n_steps=cfg.n_steps)
    time_integration.compute_dt(state0, disc, const, control)
    parts = mesh.partition_columns(disc.mesh, partitions)
    storage.PartitionLayout(disc.mesh, disc.numbering, parts)
    return disc


def timed_setup(cfg, partitions) -> float:
    t0 = time.perf_counter()
    set_up(cfg, partitions)
    return time.perf_counter() - t0


def digest(state) -> str:
    import numpy as np
    return hashlib.sha256(np.ascontiguousarray(state).tobytes()).hexdigest()


def output_checks(out_dir, report, final, workload) -> dict:
    """The files a run with an output directory must leave behind."""
    import numpy as np
    from sembox.storage import read_snapshot
    values, _ = read_snapshot(os.path.join(out_dir, "state.bin"))
    with open(os.path.join(out_dir, "theta.csv")) as f:
        theta_rows = sum(1 for _ in f) - 1
    with open(os.path.join(out_dir, "diagnostics.csv")) as f:
        diag_rows = sum(1 for _ in f) - 1
    snaps_ok = True
    for step in range(workload.snapshot_every, report.n_steps + 1,
                      workload.snapshot_every):
        snap, _ = read_snapshot(os.path.join(out_dir, f"state_{step:06d}.bin"))
        snaps_ok &= snap.shape == final.shape and bool(np.all(np.isfinite(snap)))
    return {
        "state_file_matches": bool(np.array_equal(values, final)),
        "theta_csv_rows": theta_rows == final.shape[0],
        "diagnostics_csv_rows": diag_rows == report.n_steps + 1,
        "snapshots_readable": snaps_ok,
    }


def engine_run(workload, cfg):
    """One timed ``run_bubble`` call with its correctness checks."""
    import numpy as np
    from sembox import harness
    out_dir = tempfile.mkdtemp(dir=TMP) if workload.snapshot_every else None
    try:
        t0 = time.perf_counter()
        report, final = harness.run_bubble(cfg, n_partitions=workload.partitions,
                                           out_dir=out_dir)
        run_s = time.perf_counter() - t0
        cz = np.array([d["centroid_z"] for d in report.diagnostics])
        checks = {
            "no_divergence": report.failed_step is None,
            "mass_drift": report.mass_drift < MASS_DRIFT_GATE,
            "centroid_rises": (cz.size == report.n_steps + 1
                               and bool(np.all(np.diff(cz) > 0.0))),
        }
        if out_dir is not None:
            checks.update(output_checks(out_dir, report, final, workload))
    finally:
        if out_dir is not None:
            shutil.rmtree(out_dir, ignore_errors=True)
    return report, final, run_s, checks


def one_run(workload, cfg, reference=None, tracer=None):
    """One checked engine run as a record; traced when given a tracer.

    ``reference`` is the state digest the run must reproduce bit for bit.
    """
    rec = {"traced": tracer is not None}
    try:
        if tracer is not None:
            with tracer:
                report, final, run_s, checks = engine_run(workload, cfg)
            rec["spans"] = layers.traced_run_metrics(
                tracer.take(), report, cfg.warmup_steps)
        else:
            report, final, run_s, checks = engine_run(workload, cfg)
        rec.update(run_s=run_s, digest=digest(final),
                   mass_drift=report.mass_drift,
                   **layers.harness_metrics(report))
        checks["phases_within_step"] = rec["harness.phase_gap_ms"] >= 0.0
        checks["state_equals_reference"] = reference in (None, rec["digest"])
        rec["checks"] = checks
    except Exception:   # a crashed run counts as failed; keep measuring
        rec.update(checks={"no_crash": False},
                   error=traceback.format_exc(limit=3))
    rec["ok"] = all(rec["checks"].values())
    emit("run", rec)
    return rec


def timed_loop(workload, cfg, seconds, tracer=None):
    """Engine runs for ``seconds`` after one warm-up run; a timed set-up
    precedes each run, so set-ups sample the same stretch of time.

    Every run must reproduce one state digest: that of the same bubble on
    one worker when the workload has more, else the warm-up run's.  With
    a tracer, traced and untraced runs alternate, so that both see the
    same drift in the host's speed.  The warm-up run and its set-up are
    checked but not timed: they pay the process's first-touch costs.
    Returns the run records and the set-up times.
    """
    reference = None
    if workload.partitions > 1:
        from sembox import harness
        reference = digest(harness.run_bubble(cfg, n_partitions=1)[1])
    timed_setup(cfg, workload.partitions)
    runs = [dict(one_run(workload, cfg, reference), warmup=True)]
    reference = reference or runs[0].get("digest")
    setup_s = []
    deadline = time.perf_counter() + seconds
    while len(runs) <= MIN_RUNS or time.perf_counter() < deadline:
        setup_s.append(timed_setup(cfg, workload.partitions))
        traced = tracer is not None and len(runs) % 2 == 0
        runs.append(dict(one_run(workload, cfg, reference,
                                 tracer if traced else None), warmup=False))
    return runs, setup_s


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--once", action="store_true",
                    help="make one engine run and exit (for peak memory)")
    args = ap.parse_args(argv)

    import_engine()
    from sembox.perf_model import SimConfig, count_costs, working_set_bytes

    workload = WORKLOADS[args.workload]
    cfg = bubble_config(workload, args.seed)
    os.makedirs(TMP, exist_ok=True)
    if args.once:
        one_run(workload, cfg)
        return
    facts = host.describe()
    sim = SimConfig(order=cfg.order, elements=(cfg.nx, cfg.ny, cfg.layers),
                    machines=1, timesteps=cfg.n_steps - cfg.warmup_steps,
                    scheme=cfg.scheme)
    facts["ledger_working_set_bytes"] = working_set_bytes(sim)
    summary = {"workload": workload.name, "seed": args.seed,
               "config": {"center": cfg.center, "theta_pert": cfg.theta_pert,
                          "n_steps": cfg.n_steps, "partitions": workload.partitions},
               "host": facts}

    tracer = Tracer() if args.trace else None
    runs, setup_s = timed_loop(workload, cfg, args.seconds, tracer)
    timed = [r for r in runs if not r["warmup"]]
    plain = [r for r in timed if not r["traced"]]
    metrics = {}
    if args.trace == 0:
        if all(r["ok"] for r in runs):
            metrics = {"step_ms": statistics.median(r["step_ms"] for r in plain),
                       "run_s": statistics.median(r["run_s"] for r in plain),
                       "setup_s": statistics.median(setup_s)}
    else:
        traced = [r for r in timed if r["traced"]]
        setup_rows = []
        for _ in range(TRACED_SETUPS):
            with tracer:
                set_up(cfg, workload.partitions)
            setup_rows.append(layers.setup_metrics(tracer.take()))
        summary["missing_trace_targets"] = tracer.missing
        if all(r["ok"] for r in runs):
            harness = layers.medians([
                {k: v for k, v in r.items() if k.startswith("harness.")}
                for r in plain])
            spans = layers.medians([r["spans"] for r in traced])
            disc = set_up(cfg, workload.partitions)
            costs = count_costs(sim, raw=True)
            step_plain = statistics.median(r["step_ms"] for r in plain)
            metrics = {
                **harness, **spans, **layers.medians(setup_rows),
                "mesh.n_unique": disc.numbering.n_unique,
                "mesh.n_elements": disc.mesh.n_elements,
                **layers.ledger_metrics(costs, sim.timesteps, harness),
                "trace.overhead_ms": spans["trace.step_ms"] - step_plain,
            }
            metrics = {k: metrics[k] for k in layers.UNITS}
    checks = {}
    for r in runs:
        for k, v in r["checks"].items():
            checks[k] = checks.get(k, True) and v
    summary.update(
        attempted=len(runs), failed=sum(not r["ok"] for r in runs),
        checks=checks, digest=runs[0].get("digest"),
        metrics=metrics,
        samples={"step_ms": [r["step_ms"] for r in plain if "step_ms" in r],
                 "run_s": [r["run_s"] for r in plain if "run_s" in r],
                 "setup_s": setup_s})
    emit("summary", summary)


if __name__ == "__main__":
    main()
