"""Checks of the benchmark itself:  python3 -m pytest perfbench -q"""

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import layers  # noqa: E402
import measure  # noqa: E402
import run  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS, bubble_config  # noqa: E402

from sembox import harness, mesh, storage  # noqa: E402


def test_halo_state_digest_equals_serial():
    seed = 5
    serial = bubble_config(WORKLOADS["bubble_p3_serial"], seed)
    halo = bubble_config(WORKLOADS["bubble_p3_halo"], seed)
    assert serial == halo
    _, final_serial = harness.run_bubble(serial, n_partitions=1)
    _, final_halo = harness.run_bubble(
        halo, n_partitions=WORKLOADS["bubble_p3_halo"].partitions)
    assert measure.digest(final_halo) == measure.digest(final_serial)


def test_seed_gives_same_valid_config():
    for w in WORKLOADS.values():
        for seed in range(20):
            cfg = bubble_config(w, seed)
            assert cfg == bubble_config(w, seed)
            cx, cy, cz = cfg.center
            layer = cfg.extents[2] / cfg.layers
            assert (2 * cz / layer) == round(2 * cz / layer)


def test_tracer_spans_and_restore():
    originals = (harness.rhs_element_contributions, mesh.compute_metrics,
                 storage.PartitionLayout.accumulate_own)
    cfg = harness.BubbleConfig(nx=2, ny=2, layers=3, n_steps=3)
    with Tracer() as tracer:
        assert harness.rhs_element_contributions is not originals[0]
        report, _ = harness.run_bubble(cfg, n_partitions=2)
    assert (harness.rhs_element_contributions, mesh.compute_metrics,
            storage.PartitionLayout.accumulate_own) == originals
    spans = tracer.take()
    m = layers.traced_run_metrics(spans, report, cfg.warmup_steps)
    assert m["time_integration.rk_step_calls"] == 0     # never called
    assert m["dynamics.pressure_calls"] == 2 * 5        # 2 workers, 5 stages
    assert m["storage.halo_messages_per_step"] == 2 * 6  # 6 exchanges a step
    kernel = [s for s in spans if s.name == "dynamics.rhs_element_contributions"]
    assert len(kernel) == 2 * 5 * cfg.n_steps
    flux = [s for s in spans if s.name == "dynamics.flux"]
    assert all(s.parent.name == "dynamics.rhs_element_contributions"
               for s in flux)
    assert all(s.self_s <= s.duration for s in kernel)


def test_benchmark_json_matches_code():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    assert set(bench) == {"command", "paths", "run_seconds", "workloads",
                          "end_to_end", "per_layer"}
    assert {w["name"]: w["why"] for w in bench["workloads"]} == {
        w.name: w.why for w in WORKLOADS.values()}
    assert all(set(w) == {"name", "why"} for w in bench["workloads"])
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.E2E_UNITS
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == layers.UNITS
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    assert max(bounds.values()) == bounds["setup_s"] <= 0.25
