from dataclasses import replace

import numpy as np
import pytest

from sembox.storage import SCHEME_CG, SCHEME_DG, SCHEME_HYBRID, SCHEMES
from sembox.perf_model import (
    BUBBLE_CALIBRATIONS, BUBBLE_CONFIG, PLANETARY_CONFIG, PRESET_SHEETS,
    Calibration, KernelCost, MachineModel, SimConfig, contraction_flops,
    count_costs, derived_columns, emit_csv, emit_table, fit_calibration,
    line_inflation, model_table, order_sweep, percent_max,
    percent_peak, random_access_penalty, roofline_time, sheet_table,
    working_set_bytes,
)
from oracles import parse_csv

MACHINE = MachineModel()
RAW_BUBBLE = replace(BUBBLE_CONFIG, calibration=Calibration())

# published derived rows: (sheet, row) -> per-scheme expected values, which
# must be reproduced to +-1 in the last printed digit
PUBLISHED = {
    ("table1", "arithmetic intensity in Flops/Bytes"): (1.08, 0.93, 0.86),
    ("table1", "optimal runtime in seconds"): (97.94, 113.18, 163.45),
    ("table1", "% of theoretical peak of processor"): (14.99, 12.97, 12.02),
    ("table2", "arithmetic intensity in Flops/Bytes"): (0.69, 0.75, 0.80),
    ("table2", "optimal runtime in seconds"): (152.16, 141.00, 176.95),
    ("table2", "% of theoretical peak of processor"): (9.65, 10.41, 11.10),
    ("table3", "arithmetic intensity in Flops/Bytes"): (0.76, 0.73, 0.63),
    ("table3", "optimal runtime in seconds"): (2.84, 2.97, 4.59),
    ("table3", "% of theoretical peak of processor"): (10.64, 10.18, 8.82),
}


def last_digit_tol(value: float) -> float:
    # printed to 2 decimals: +-1 in the last digit
    return 0.01 + 1e-12


class TestDerivedColumns:
    @pytest.mark.parametrize("key", sorted(PUBLISHED))
    def test_published_rows(self, key):
        sheet, row = key
        table = sheet_table(PRESET_SHEETS[sheet], MACHINE)
        for scheme, expect in zip(SCHEMES, PUBLISHED[key]):
            got = table[scheme][row]
            assert abs(got - expect) <= last_digit_tol(expect), \
                f"{sheet}/{row}/{scheme}: {got} vs {expect}"

    def test_roofline_memory_bound_branch(self):
        cost = KernelCost(flops=1e9, read_bytes=28.5e9, write_bytes=0.0)
        assert roofline_time(cost, MACHINE) == pytest.approx(1.0)

    def test_roofline_compute_bound_branch(self):
        cost = KernelCost(flops=2 * 204.8e9, read_bytes=1.0, write_bytes=0.0)
        assert roofline_time(cost, MACHINE) == pytest.approx(2.0)

    def test_percent_peak(self):
        cost = KernelCost(flops=3007.00e9, read_bytes=0, write_bytes=1)
        assert percent_peak(cost, 97.94, MACHINE) == pytest.approx(14.99, abs=0.01)


class TestPercentMax:
    def test_exactly_on_roofline(self):
        ai = 1.5
        attained = ai * MACHINE.bandwidth
        assert percent_max(attained, ai, MACHINE) == pytest.approx(100.0)

    def test_measured_kernel_row(self):
        # measured optimized kernel: 2503.7 GF over 88.1 s at intensity 1.2
        rate = 2503.7e9 / 88.1
        got = percent_max(rate, 1.2, MACHINE)
        assert got == pytest.approx(83.1, abs=0.1)
        # reported value was 81.6 with a rounded intensity: within 2 points
        assert abs(got - 81.6) < 2.0

    def test_above_ridge_uses_peak(self):
        ai = 2 * MACHINE.ridge_intensity
        assert percent_max(MACHINE.peak_flops, ai, MACHINE) == pytest.approx(100.0)


class TestCountCosts:
    def test_linear_in_timesteps(self):
        c1 = count_costs(RAW_BUBBLE)["total"]
        c2 = count_costs(replace(RAW_BUBBLE, timesteps=1380))["total"]
        assert c2.flops == pytest.approx(2 * c1.flops, rel=1e-12)
        assert c2.read_bytes == pytest.approx(2 * c1.read_bytes, rel=1e-12)
        assert c2.write_bytes == pytest.approx(2 * c1.write_bytes, rel=1e-12)

    def test_linear_in_elements(self):
        c1 = count_costs(RAW_BUBBLE)["total"]
        big = replace(RAW_BUBBLE, elements=(528, 264, 396))
        c2 = count_costs(big)["total"]
        # doubling one direction doubles duplicated-point work; unique
        # points grow slightly sublinearly, so compare per-kernel pieces
        assert c2.flops > 1.9 * c1.flops

    def test_contraction_unit(self):
        assert contraction_flops(3) == 512.0
        assert contraction_flops(3, n_elements=2, n_vars=5, n_directions=3) \
            == 512.0 * 30

    def test_dg_over_cg_flop_ratio(self):
        cg = count_costs(RAW_BUBBLE)["total"]
        dg = count_costs(replace(RAW_BUBBLE, scheme=SCHEME_DG))["total"]
        ratio = dg.flops / cg.flops
        assert abs(ratio / 1.338 - 1.0) < 0.05

    def test_hybrid_flops_equal_cg(self):
        cg = count_costs(RAW_BUBBLE)["total"]
        hy = count_costs(replace(RAW_BUBBLE, scheme=SCHEME_HYBRID))["total"]
        assert hy.flops == cg.flops
        assert hy.read_bytes > cg.read_bytes  # duplicated background reads

    def test_kernel_breakdown_sums(self):
        costs = count_costs(RAW_BUBBLE)
        total = sum((v for k, v in costs.items() if k != "total"),
                    KernelCost())
        assert total.flops == pytest.approx(costs["total"].flops)
        assert total.bytes_moved == pytest.approx(costs["total"].bytes_moved)

    def test_metric_recompute_trades_bytes_for_flops(self):
        stored = count_costs(RAW_BUBBLE)["total"]
        recomp = count_costs(replace(RAW_BUBBLE, metric_scheme="recompute"))["total"]
        assert recomp.flops > stored.flops
        assert recomp.read_bytes < stored.read_bytes
        assert recomp.intensity > stored.intensity


class TestRandomAccessPenalty:
    def test_guard_below_l2(self):
        cfg = replace(PLANETARY_CONFIG, calibration=Calibration())
        assert working_set_bytes(cfg) < MACHINE.l2_bytes
        costs = count_costs(cfg)
        pen = random_access_penalty(costs, cfg, MACHINE)
        assert pen["total"].bytes_moved == costs["total"].bytes_moved

    def test_applies_above_l2(self):
        assert working_set_bytes(RAW_BUBBLE) > MACHINE.l2_bytes
        costs = count_costs(RAW_BUBBLE)
        pen = random_access_penalty(costs, RAW_BUBBLE, MACHINE)
        assert pen["total"].read_bytes > costs["total"].read_bytes

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_monotone_and_flops_unchanged(self, scheme):
        cfg = replace(RAW_BUBBLE, scheme=scheme)
        costs = count_costs(cfg)
        pen = random_access_penalty(costs, cfg, MACHINE, force=True)
        for k in costs:
            assert pen[k].flops == costs[k].flops
            assert pen[k].read_bytes >= costs[k].read_bytes
            assert pen[k].write_bytes >= costs[k].write_bytes

    def test_isolated_access_inflation(self):
        # a read pattern of isolated 8-byte accesses costs a full line each
        assert line_inflation(8.0) == 16.0
        assert line_inflation(128.0) == 1.0
        assert line_inflation(256.0) == 1.0

    def test_read_ratio_near_published(self):
        costs = count_costs(RAW_BUBBLE)
        pen = random_access_penalty(costs, RAW_BUBBLE, MACHINE, force=True)
        ratio = pen["total"].read_bytes / costs["total"].read_bytes
        published = 3483.05 / 2129.42
        assert abs(ratio / published - 1.0) < 0.10


class TestSchemeOrderings:
    def test_without_penalty(self):
        t = {}
        for s in SCHEMES:
            cfg = replace(RAW_BUBBLE, scheme=s)
            t[s] = roofline_time(count_costs(cfg)["total"], MACHINE)
        assert t[SCHEME_CG] < t[SCHEME_HYBRID] < t[SCHEME_DG]

    def test_with_penalty(self):
        t = {}
        for s in SCHEMES:
            cfg = replace(RAW_BUBBLE, scheme=s)
            costs = random_access_penalty(count_costs(cfg), cfg, MACHINE,
                                          force=True)
            t[s] = roofline_time(costs["total"], MACHINE)
        assert t[SCHEME_HYBRID] < t[SCHEME_CG] < t[SCHEME_DG]

    def test_published_sheet_orderings(self):
        t1 = sheet_table(PRESET_SHEETS["table1"], MACHINE)
        runtimes = [t1[s]["optimal runtime in seconds"] for s in SCHEMES]
        assert runtimes[0] < runtimes[1] < runtimes[2]
        t2 = sheet_table(PRESET_SHEETS["table2"], MACHINE)
        runtimes = [t2[s]["optimal runtime in seconds"] for s in SCHEMES]
        assert runtimes[1] < runtimes[0] < runtimes[2]


class TestOrderSweep:
    def test_time_per_step_monotone(self):
        sweep = order_sweep(RAW_BUBBLE, range(1, 8), MACHINE)
        for scheme in SCHEMES:
            tps = [r["time_per_step"] for r in sweep[scheme]]
            assert all(a >= b for a, b in zip(tps, tps[1:]))

    def test_time_to_solution_minimum_at_p2(self):
        sweep = order_sweep(RAW_BUBBLE, range(1, 8), MACHINE)
        for scheme in (SCHEME_CG, SCHEME_HYBRID):
            rows = sweep[scheme]
            tts = [r["time_to_solution"] for r in rows]
            assert rows[int(np.argmin(tts))]["order"] == 2

    def test_p3_entry_anchored_to_published_sheet(self):
        sweep = order_sweep(RAW_BUBBLE, range(2, 5), MACHINE, penalized=True,
                            calibrations=BUBBLE_CALIBRATIONS)
        for scheme in SCHEMES:
            entry = [r for r in sweep[scheme] if r["order"] == 3][0]
            target = roofline_time(PRESET_SHEETS["table2"].cost(scheme), MACHINE)
            assert abs(entry["time_to_solution"] / target - 1.0) < 0.10

    def test_range_validation(self):
        with pytest.raises(ValueError):
            order_sweep(RAW_BUBBLE, range(0, 4))
        with pytest.raises(ValueError):
            order_sweep(RAW_BUBBLE, range(5, 12))


class TestCalibration:
    def test_frozen_values_reproducible(self):
        for scheme, frozen in BUBBLE_CALIBRATIONS.items():
            fit = fit_calibration(RAW_BUBBLE, PRESET_SHEETS["table2"], MACHINE,
                                  penalized=True, scheme=scheme)
            assert fit.flops == pytest.approx(frozen.flops, abs=1e-5)
            assert fit.read == pytest.approx(frozen.read, abs=1e-5)
            assert fit.write == pytest.approx(frozen.write, abs=1e-5)

    def test_calibrated_totals_match_sheet(self):
        for scheme, cal in BUBBLE_CALIBRATIONS.items():
            cfg = replace(RAW_BUBBLE, scheme=scheme, calibration=cal)
            costs = random_access_penalty(count_costs(cfg), cfg, MACHINE,
                                          force=True)
            got = roofline_time(costs["total"], MACHINE)
            want = roofline_time(PRESET_SHEETS["table2"].cost(scheme), MACHINE)
            assert got == pytest.approx(want, rel=2e-5)


class TestTables:
    def test_emit_and_reparse(self):
        table = sheet_table(PRESET_SHEETS["table1"], MACHINE)
        text = emit_csv(table)
        back = parse_csv(text)
        for s in SCHEMES:
            for row, val in table[s].items():
                assert back[s][row] == val

    def test_empty_results_header_only(self):
        out = emit_table({})
        assert out.strip() == ""  # header carries no scheme columns
        assert emit_csv({}).strip() == "row,"

    def test_text_table_has_all_rows(self):
        text = emit_table(sheet_table(PRESET_SHEETS["table3"], MACHINE))
        for row in ("GFlops per node", "read traffic in GB",
                    "optimal runtime in seconds"):
            assert row in text

    def test_model_table_runs(self):
        table = model_table(RAW_BUBBLE, MACHINE, penalized=False)
        assert set(table) == set(SCHEMES)
        for s in SCHEMES:
            assert table[s]["optimal runtime in seconds"] > 0


class TestMachineModel:
    def test_validation(self):
        with pytest.raises(ValueError):
            MachineModel(bandwidth=0.0)

    def test_ridge(self):
        assert MACHINE.ridge_intensity == pytest.approx(204.8 / 28.5, rel=1e-12)

    def test_derived_columns_consistency(self):
        cost = PRESET_SHEETS["table1"].cost(SCHEME_CG)
        cols = derived_columns(cost, MACHINE)
        assert cols["arithmetic intensity in Flops/Bytes"] == \
            pytest.approx(cost.flops / cost.bytes_moved)
