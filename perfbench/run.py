"""Rising-bubble benchmark of the sembox engine.

    python3 perfbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Each workload runs in a fresh child process (``measure.py``) whose
environment has the BLAS thread variables removed, so the engine runs at
the BLAS library's default thread count, as a user gets it.  The child's
peak resident set is read when it is reaped.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` (the end-to-end metrics with ``--trace 0``, the per-layer
ones with ``--trace 1``).  Exit code 0 means every check passed; 1 that
a check or a run failed; 2 that the engine source is not there.
"""

import argparse
import json
import os
import subprocess
import sys
import threading
import time

from host import BLAS_THREAD_VARS
from layers import UNITS as LAYER_UNITS
from measure import EXIT_NO_ENGINE
from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOAD_TIMEOUT_S = 170.0   # for both children of one workload
E2E_UNITS = {"step_ms": "ms", "run_s": "s", "setup_s": "s", "peak_rss_mb": "MiB"}
PEAK_NOTE = ("% of peak omitted: a sound bandwidth probe needs arrays of "
             ">= 1.2 GB each on a 7 GB host; ledger intensity is reported "
             "without the ratio")


def run_child(name, args, deadline, *extra):
    """Run ``measure.py`` on one workload in a child process, killing it
    at ``deadline`` (a ``time.monotonic`` value).

    Returns (exit code, summary or None, run records, peak RSS in MiB).
    """
    env = {k: v for k, v in os.environ.items() if k not in BLAS_THREAD_VARS}
    cmd = [sys.executable, os.path.join(HERE, "measure.py"), "--workload", name,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), *extra]
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            text=True)
    lines = []
    reader = threading.Thread(target=lambda: lines.extend(proc.stdout))
    reader.start()
    pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
    while pid == 0:
        if time.monotonic() > deadline:
            print(f"{name}: timed out", file=sys.stderr)
            proc.kill()
            pid, status, usage = os.wait4(proc.pid, 0)
            break
        time.sleep(0.05)
        pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
    proc.returncode = os.waitstatus_to_exitcode(status)
    reader.join()
    proc.stdout.close()
    runs, summary = [], None
    for line in lines:
        tag, _, payload = line.partition(" ")
        if tag == "@run":
            runs.append(json.loads(payload))
        elif tag == "@summary":
            summary = json.loads(payload)
    return proc.returncode, summary, runs, usage.ru_maxrss / 1024.0


def measure(name, args):
    """One workload's result object."""
    deadline = time.monotonic() + WORKLOAD_TIMEOUT_S
    code, summary, runs, _ = run_child(name, args, deadline)
    if code == EXIT_NO_ENGINE:
        sys.exit(2)
    if summary is None:
        # crash or timeout: the run in flight counts as attempted and failed
        return {"correct": False, "attempted": len(runs) + 1,
                "failed": sum(not r["ok"] for r in runs) + 1, "metrics": {}}
    attempted, failed = summary["attempted"], summary["failed"]
    units = E2E_UNITS if args.trace == 0 else LAYER_UNITS
    values = dict(summary["metrics"])
    if args.trace == 0:
        # peak memory of a fresh process that makes one run
        code_once, _, once, rss_mb = run_child(name, args, deadline,
                                               "--once")
        ok = code_once == 0 and len(once) == 1 and once[0]["ok"]
        attempted, failed = attempted + 1, failed + (not ok)
        if ok and values:
            values["peak_rss_mb"] = rss_mb
    correct = (code == 0 and failed == 0
               and all(summary["checks"].values()) and set(values) == set(units))
    report(summary, values, units, correct, attempted, failed)
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": values[k], "unit": units[k]}
                        for k in units if k in values}}


def report(summary, values, units, correct, attempted, failed):
    h = summary["host"]
    caches = ", ".join(f"{k} {v // 1024} KiB" for k, v in h["cache_bytes"].items())
    l3 = h["cache_bytes"].get("L3")
    ws = h["ledger_working_set_bytes"]
    print(f"== {summary['workload']}  seed {summary['seed']}  "
          f"config {summary['config']}")
    print(f"host: {h['cpu_count']} CPUs ({h['affinity_count']} in affinity), "
          f"{h['cpu_model']}; {caches}")
    removed = {v: os.environ[v] for v in BLAS_THREAD_VARS if v in os.environ}
    print(f"      Python {h['python']}, numpy {h['numpy']}, BLAS {h['blas']}, "
          f"{h['blas_threads']} BLAS threads at the library default "
          f"(removed from the child's environment: {removed or 'none set'})")
    if l3:
        verdict = "fits in" if ws < l3 else "SPILLS"
        print(f"      ledger working set {ws / 2**20:.1f} MiB {verdict} "
              f"the {l3 / 2**20:.0f} MiB L3")
    print(f"      {PEAK_NOTE}")
    if summary.get("missing_trace_targets"):
        print(f"      not traced (absent): {summary['missing_trace_targets']}")
    print("checks: " + ", ".join(f"{k}={'pass' if v else 'FAIL'}"
                                 for k, v in summary["checks"].items()))
    print(f"final-state sha256: {summary['digest']}")
    s = summary["samples"]
    for k in units:
        if k in values:
            extra = ""
            if k in s and s[k]:
                extra = (f"  (median of {len(s[k])}, range "
                         f"{min(s[k]):.6g}..{max(s[k]):.6g})")
            print(f"  {k:44s} {values[k]:14.6g} {units[k]}{extra}")
    print(f"runs: {failed} failed / {attempted} attempted; "
          f"verdict: {'correct' if correct else 'NOT CORRECT'}", flush=True)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "sembox", "__init__.py")):
        print(f"no engine source under {ROOT}/src", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {name: measure(name, args) for name in names}
    if args.workload == "all":
        print(json.dumps(results))
    else:
        print(json.dumps(results[args.workload]))
    return 0 if all(r["correct"] for r in results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
