"""Acceptance gate: every criterion at its stated tolerance.

Each test prints one PASS/FAIL line through the conftest hook.  The
strong-scaling criterion needs at least eight physical cores and reports
a skip where the hardware cannot ground it.
"""

from dataclasses import replace
import math
import os

import numpy as np
import pytest

from sembox.reference_element import ReferenceElement, lobatto_points, diff_matrix
from sembox.mesh import (build_box_mesh, build_cg_numbering,
                         morton_decode, morton_encode, partition_columns,
                         partition_quality)
from sembox.storage import SCHEME_CG, SCHEME_DG, SCHEME_HYBRID, SCHEMES
from sembox.dynamics import GasConstants, create_rhs
from sembox.harness import (BubbleConfig, build_discretization, init_bubble,
                            run_bubble, scale_experiment)
from sembox.time_integration import rk_step
from sembox.perf_model import (
    BUBBLE_CONFIG, Calibration, MachineModel, PRESET_SHEETS, count_costs,
    order_sweep, random_access_penalty, roofline_time, sheet_table)

MACHINE = MachineModel()
CONST = GasConstants()


# -------------------------------------------------------------------------
# Performance-model table reproduction (tolerance: +-1 last printed digit)
# -------------------------------------------------------------------------

def test_performance_model_table_reproduction():
    expected = {
        "table1": {
            "arithmetic intensity in Flops/Bytes": (1.08, 0.93, 0.86),
            "optimal runtime in seconds": (97.94, 113.18, 163.45),
            "% of theoretical peak of processor": (14.99, 12.97, 12.02),
        },
        "table2": {
            "arithmetic intensity in Flops/Bytes": (0.69, 0.75, 0.80),
            "optimal runtime in seconds": (152.16, 141.00, 176.95),
            "% of theoretical peak of processor": (9.65, 10.41, 11.10),
        },
        "table3": {
            "arithmetic intensity in Flops/Bytes": (0.76, 0.73, 0.63),
            "optimal runtime in seconds": (2.84, 2.97, 4.59),
            "% of theoretical peak of processor": (10.64, 10.18, 8.82),
        },
    }
    for sheet_name, rows in expected.items():
        table = sheet_table(PRESET_SHEETS[sheet_name], MACHINE)
        for row, values in rows.items():
            for scheme, want in zip(SCHEMES, values):
                got = table[scheme][row]
                assert abs(got - want) <= 0.01 + 1e-12, \
                    f"{sheet_name}/{row}/{scheme}: {got:.4f} vs {want}"


def test_scheme_ordering_properties():
    base = replace(BUBBLE_CONFIG, calibration=Calibration())
    plain, priced = {}, {}
    for scheme in SCHEMES:
        cfg = replace(base, scheme=scheme)
        costs = count_costs(cfg)
        plain[scheme] = roofline_time(costs["total"], MACHINE)
        repriced = random_access_penalty(costs, cfg, MACHINE, force=True)
        priced[scheme] = roofline_time(repriced["total"], MACHINE)
    assert plain[SCHEME_CG] < plain[SCHEME_HYBRID] < plain[SCHEME_DG]
    assert priced[SCHEME_HYBRID] < priced[SCHEME_CG] < priced[SCHEME_DG]


def test_order_sweep_shape():
    base = replace(BUBBLE_CONFIG, calibration=Calibration())
    sweep = order_sweep(base, range(1, 8), MACHINE)
    for scheme in SCHEMES:
        tps = [r["time_per_step"] for r in sweep[scheme]]
        assert all(a >= b for a, b in zip(tps, tps[1:])), \
            f"time-per-step not monotone for {scheme}: {tps}"
    for scheme in (SCHEME_CG, SCHEME_HYBRID):
        rows = sweep[scheme]
        tts = [r["time_to_solution"] for r in rows]
        best = rows[int(np.argmin(tts))]["order"]
        assert best == 2, f"time-to-solution minimum at p={best} for {scheme}"


# -------------------------------------------------------------------------
# Numerics property suite
# -------------------------------------------------------------------------

def test_numerics_property_suite():
    # quadrature exactness to degree 2p-1 (1e-12)
    for p in range(1, 9):
        x, w = lobatto_points(p)
        for k in range(2 * p):
            exact = 0.0 if k % 2 else 2.0 / (k + 1)
            assert abs(w @ x ** k - exact) < 1e-12

    # derivative exactness to degree p (1e-12, scaled)
    for p in range(1, 9):
        x, _ = lobatto_points(p)
        D = diff_matrix(x)
        for k in range(p + 1):
            f = x ** k
            df = k * x ** (k - 1) if k else np.zeros_like(x)
            assert np.abs(D @ f - df).max() < 1e-12 * max(1.0, np.abs(f).max())

    # storage-scheme RHS equivalence (relative 1e-12)
    cfg = BubbleConfig(nx=2, ny=2, layers=3, n_steps=1)
    disc = build_discretization(cfg)
    state, ra = init_bubble(cfg, disc, CONST)
    rng = np.random.default_rng(21)
    state = state.copy()
    state[:, 1:4] += 0.5 * rng.standard_normal((state.shape[0], 3))
    state[:, 4] *= 1.0 + 0.005 * rng.standard_normal(state.shape[0])
    rhs = {s: create_rhs(state, disc, CONST, ra, scheme=s)
           for s in (SCHEME_CG, SCHEME_DG)}
    scale = np.abs(rhs[SCHEME_CG]).max()
    assert np.abs(rhs[SCHEME_DG] - rhs[SCHEME_CG]).max() < 1e-12 * scale

    # hydrostatic rest state (1e-10 * rho g)
    rest_cfg = BubbleConfig(nx=2, ny=2, layers=3, theta_pert=0.0, n_steps=1)
    rest_disc = build_discretization(rest_cfg)
    rest, rest_ra = init_bubble(rest_cfg, rest_disc, CONST)
    rest_rhs = create_rhs(rest, rest_disc, CONST, rest_ra)
    assert np.abs(rest_rhs).max() < 1e-10 * float((rest_ra.rho * CONST.gravity).max())

    # Runge-Kutta observed order >= 2.9
    errs = []
    for dt in (0.1, 0.05, 0.025):
        y = 1.0
        for _ in range(round(1.0 / dt)):
            y = rk_step(y, dt, lambda s: -s)
        errs.append(abs(y - math.exp(-1.0)))
    order = math.log(errs[0] / errs[-1]) / math.log(4.0)
    assert order >= 2.9

    # filter preserves constants (1e-13) and scales the top mode by sigma_p
    ref = ReferenceElement.create(3)
    F = ref.filter_matrix
    assert np.abs(F @ np.ones(4) - 1.0).max() < 1e-13
    Vi = ref.vandermonde_inv
    top = ref.vandermonde[:, 3]
    sigma_p = (Vi @ (F @ top))[3]
    # the transfer value the diagonal was built with
    from sembox.reference_element import boyd_vandeven_damping
    want = 1.0 - ref.filter_mu * boyd_vandeven_damping(1.0, ref.filter_s)
    assert abs(sigma_p - want) < 1e-12


# -------------------------------------------------------------------------
# Partition invariance: 8x8x10 elements, p=3, 50 steps, T in {1,2,4,8}
# -------------------------------------------------------------------------

def test_partition_invariance_bubble():
    cfg = BubbleConfig(nx=8, ny=8, layers=10, n_steps=50)
    _, base_state = run_bubble(cfg, n_partitions=1)
    for T in (2, 4, 8):
        _, state = run_bubble(cfg, n_partitions=T)
        assert np.array_equal(base_state, state), \
            f"T={T}: max rel diff {np.abs(state - base_state).max()}"


# -------------------------------------------------------------------------
# Mesh and partition invariants
# -------------------------------------------------------------------------

def test_mesh_partition_invariants():
    # Morton bijection to level 8
    for level in range(9):
        idx = np.arange(4 ** level)
        decoded = [morton_decode(int(i), level) for i in idx]
        assert len(set(decoded)) == idx.size
        for i, (a, b) in zip(idx, decoded):
            assert morton_encode(a, b, level) == i

    # contiguous balanced segments with intact columns
    mesh = build_box_mesh(8, 8, 5, 1000.0, 1000.0, 1000.0)
    for P in (1, 2, 3, 4, 7, 8, 16):
        parts = partition_columns(mesh, P)
        assert parts[0].col_start == 0 and parts[-1].col_stop == mesh.n_columns
        for a, b in zip(parts, parts[1:]):
            assert a.col_stop == b.col_start
        counts = [p.n_elements for p in parts]
        assert max(counts) - min(counts) <= int(mesh.col_layers.max())
        assert all(c % 5 == 0 for c in counts)  # whole columns only

    # unique-point counts match the closed-form lattice formula
    for nx, layers, p in ((2, 3, 2), (4, 2, 3), (8, 4, 1)):
        ref = ReferenceElement.create(p)
        m = build_box_mesh(nx, nx, layers, 1.0, 1.0, 1.0)
        num = build_cg_numbering(m, ref)
        assert num.n_unique == (p * nx + 1) ** 2 * (p * layers + 1)

    # Morton quadrant split of 8x8 columns beats the strip split
    m = build_box_mesh(8, 8, 1, 1.0, 1.0, 1.0)
    _, morton_max, _ = partition_quality(partition_columns(m, 4), m)
    grid = {tuple(ij): c for c, ij in enumerate(m.col_ij)}
    order = np.lexsort((m.col_ij[:, 0], m.col_ij[:, 1]))
    strip = np.empty(m.n_columns, dtype=int)
    strip[order] = np.arange(m.n_columns) // 16
    faces = np.zeros(4)
    counts = np.zeros(4)
    for c, (i, j) in enumerate(m.col_ij):
        counts[strip[c]] += 1
        for di, dj in ((1, 0), (-1, 0), (0, 1), (0, -1)):
            nb = grid.get((i + di, j + dj))
            if nb is not None and strip[nb] != strip[c]:
                faces[strip[c]] += 1
    assert morton_max <= (faces / counts).max()


# -------------------------------------------------------------------------
# Desk-scale strong scaling (hardware-conditional)
# -------------------------------------------------------------------------

def test_desk_scale_strong_scaling():
    cores = os.cpu_count() or 1
    if cores < 8:
        pytest.skip(f"needs >= 8 physical cores to ground the 70% target; "
                    f"this host has {cores}")
    cfg = BubbleConfig(nx=16, ny=16, layers=10, n_steps=20)
    points = scale_experiment(cfg, [1, 8])
    table_lines = []
    for pt in points:
        table_lines.append(f"T={pt.n_partitions}: {pt.seconds:.3f}s "
                           f"eff={pt.efficiency:.3f} phases={pt.phase_efficiency}")
    print("\n".join(table_lines))
    assert points[1].efficiency >= 0.70, table_lines


# -------------------------------------------------------------------------
# Physical sanity: buoyant ascent and mass conservation
# -------------------------------------------------------------------------

def test_physical_sanity_bubble():
    cfg = BubbleConfig(nx=8, ny=8, layers=10, n_steps=100)
    report, _ = run_bubble(cfg, n_partitions=1)
    assert report.failed_step is None
    cz = np.array([d["centroid_z"] for d in report.diagnostics])
    assert cz.size == 101
    assert np.all(np.diff(cz) > 0.0), "centroid height must rise every step"
    assert report.mass_drift < 1e-6
    # stability: the bounded-amplitude check at the vertical Courant limit
    tmax = np.array([d["theta_max"] for d in report.diagnostics])
    assert tmax.max() <= 2.0 * tmax[0]
