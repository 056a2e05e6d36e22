from collections import Counter
import hashlib
import os
import time

import numpy as np
import pytest

from sembox import harness
from sembox.dynamics import GasConstants, apply_boundary
from sembox.harness import (
    BubbleConfig, ConfigError, build_discretization, init_bubble, run_bubble,
    scale_csv, scale_experiment, scale_table, strong_scaling_efficiency,
)
from sembox.mesh import partition_columns
from sembox.storage import read_snapshot
from sembox.time_integration import DEFAULT_SCHEME, TimestepControl, compute_dt

from oracles import (apply_filter, create_rhs, hydrostatic_residual, rk_step,
                     speed_squared, write_theta_csv_rows)

CONST = GasConstants()

# small configuration shared by the functional tests
SMALL = dict(nx=4, ny=4, layers=4, n_steps=4)


@pytest.fixture(scope="module")
def small_run():
    report, state = run_bubble(BubbleConfig(**SMALL), n_partitions=1)
    return report, state


class TestBubbleConfig:
    def test_defaults_valid(self):
        BubbleConfig().validate()

    def test_sphere_must_fit(self):
        with pytest.raises(ConfigError):
            BubbleConfig(center=(100.0, 500.0, 350.0)).validate()
        with pytest.raises(ConfigError):
            BubbleConfig(center=(500.0, 500.0, 900.0)).validate()

    def test_needs_some_duration(self):
        with pytest.raises(ConfigError):
            BubbleConfig(n_steps=None, end_time=None).validate()

    def test_positive_background(self):
        with pytest.raises(ConfigError):
            BubbleConfig(theta0=-10.0).validate()

    @pytest.mark.parametrize("field,value", [
        ("n_steps", -1), ("end_time", 0.0), ("end_time", -1.0),
        ("snapshot_every", -2), ("warmup_steps", -1), ("radius", 0.0),
        ("radius", -5.0), ("radius", float("nan")),
        ("end_time", float("nan")), ("courant_h", float("nan")),
        ("center", (500.0, 500.0, float("nan"))),
        ("filter_mu", float("inf"))])
    def test_rejects_out_of_range_run_control(self, field, value):
        with pytest.raises(ConfigError):
            BubbleConfig(**{field: value}).validate()


class TestInitBubble:
    def test_surface_values(self):
        cfg = BubbleConfig(nx=2, ny=2, layers=2, n_steps=1)
        disc = build_discretization(cfg)
        state, ra = init_bubble(cfg, disc, CONST)
        surface = disc.numbering.node_coords[:, 2] == 0.0
        # at z=0 the background pressure is p0 and the density p0/(R theta0)
        assert np.allclose(ra.pressure[surface], CONST.p0, rtol=1e-14)
        rho0 = CONST.p0 / (CONST.R * cfg.theta0)
        assert np.allclose(ra.cg[surface, 0], rho0, rtol=1e-14)

    def test_peak_amplitude_at_center(self):
        cfg = BubbleConfig(nx=4, ny=4, layers=8, n_steps=1,
                           center=(500.0, 500.0, 500.0))
        disc = build_discretization(cfg)
        state, ra = init_bubble(cfg, disc, CONST)
        theta_p = state[:, 4] / state[:, 0] - cfg.theta0
        # the exact center is a grid point of this mesh
        at_center = np.all(disc.numbering.node_coords
                           == np.array(cfg.center), axis=1)
        assert at_center.any()
        assert theta_p[at_center] == pytest.approx(cfg.theta_pert, abs=1e-12)

    def test_zero_outside_with_smooth_edge(self):
        cfg = BubbleConfig(nx=4, ny=4, layers=4, n_steps=1)
        disc = build_discretization(cfg)
        state, ra = init_bubble(cfg, disc, CONST)
        r = np.linalg.norm(disc.numbering.node_coords - np.array(cfg.center),
                           axis=1)
        theta_p = state[:, 4] / state[:, 0] - cfg.theta0
        assert np.all(theta_p[r > cfg.radius] == 0.0)
        near = (r > 0.96 * cfg.radius) & (r <= cfg.radius)
        # cosine profile: continuous approach to zero at the edge
        assert np.abs(theta_p[near]).max() < 0.01 * cfg.theta_pert

    def test_hydrostatic_residual(self):
        cfg = BubbleConfig(nx=2, ny=2, layers=4, n_steps=1)
        disc = build_discretization(cfg)
        _, ra = init_bubble(cfg, disc, CONST)
        z = disc.numbering.node_coords[:, 2]
        assert hydrostatic_residual(ra, z, CONST) < 1e-8

    def test_winds_at_rest(self, small_run):
        cfg = BubbleConfig(**SMALL)
        disc = build_discretization(cfg)
        state, _ = init_bubble(cfg, disc, CONST)
        assert np.all(state[:, 1:4] == 0.0)


class TestRunBubble:
    def test_zero_steps_reports_initial_diagnostics(self):
        report, state = run_bubble(BubbleConfig(nx=2, ny=2, layers=2,
                                                n_steps=0))
        assert report.n_steps == 0
        assert len(report.diagnostics) == 1
        assert report.diagnostics[0]["step"] == 0

    def test_partition_invariance_small(self, small_run):
        _, state1 = small_run
        for T in (2, 4):
            _, stateT = run_bubble(BubbleConfig(**SMALL), n_partitions=T)
            assert np.array_equal(state1, stateT)

    def test_partition_invariance_at_odd_worker_counts(self):
        # on 4x4x3, partition 1 of 3 touches points that partitions 0 and
        # 2 touch too, so its fold takes messages from a lower and a
        # higher partition at one point: the run pins the fold's
        # [lower, own, higher] order
        cfg = BubbleConfig(nx=4, ny=4, layers=3, order=2, n_steps=3)
        disc = build_discretization(cfg)
        own = [disc.numbering.restrict(part.elem_start, part.elem_stop)[1]
               for part in partition_columns(disc.mesh, 3)]
        assert np.intersect1d(np.intersect1d(own[0], own[1]), own[2]).size
        digests = {T: hashlib.sha256(
                       run_bubble(cfg, n_partitions=T)[1].tobytes()).hexdigest()
                   for T in (1, 3, 5, 8)}
        assert len(set(digests.values())) == 1, digests

    def test_partition_invariance_after_every_step(self):
        # agreement holds after each full timestep, not only at the end
        for k in (1, 2, 3):
            cfg = BubbleConfig(nx=4, ny=4, layers=2, n_steps=k)
            _, s1 = run_bubble(cfg, n_partitions=1)
            _, s4 = run_bubble(cfg, n_partitions=4)
            assert np.array_equal(s1, s4), f"divergence after step {k}"

    def test_reproducible_diagnostics(self):
        cfg = BubbleConfig(**SMALL)
        rep1, _ = run_bubble(cfg, n_partitions=2)
        rep2, _ = run_bubble(cfg, n_partitions=2)
        assert rep1.diagnostics == rep2.diagnostics

    def test_mass_drift_small(self, small_run):
        report, _ = small_run
        assert report.mass_drift < 1e-10

    def test_phase_times_recorded(self, small_run):
        report, _ = small_run
        for ph in ("create_rhs", "dss_comm", "filter", "update"):
            assert report.phase_seconds[ph] > 0.0
        assert report.total_seconds > 0.0

    def test_phase_times_bounded_by_total(self):
        report, _ = run_bubble(BubbleConfig(**SMALL), n_partitions=4)
        assert sum(report.phase_seconds.values()) <= report.total_seconds * 1.001

    def test_outputs_written(self, tmp_path):
        cfg = BubbleConfig(nx=2, ny=2, layers=2, n_steps=2)
        report, state = run_bubble(cfg, n_partitions=1, out_dir=str(tmp_path))
        assert (tmp_path / "diagnostics.csv").exists()
        got, meta = read_snapshot(tmp_path / "state.bin")
        assert np.array_equal(got, state)
        theta = (tmp_path / "theta.csv").read_text().splitlines()
        assert theta[0] == "x,y,z,theta_prime"
        assert len(theta) == 1 + state.shape[0]
        # every field a number: the node coordinates and theta' bit for bit
        got = np.array([[float(v) for v in line.split(",")]
                        for line in theta[1:]])
        coords = build_discretization(cfg).numbering.node_coords
        theta_p = state[:, 4] / state[:, 0] - cfg.theta0
        assert np.array_equal(got, np.column_stack([coords, theta_p]))
        assert np.any(theta_p != 0.0)

    @pytest.mark.parametrize("mesh", [dict(nx=2, ny=2, layers=2),
                                      dict(nx=4, ny=4, layers=8, order=5)])
    def test_theta_csv_equals_the_row_by_row_writer(self, tmp_path, mesh):
        # a stepped state, negative theta' included; coordinates formatted
        # once per distinct value must give the row-by-row bytes
        cfg = BubbleConfig(n_steps=2, **mesh)
        _, state = run_bubble(cfg)
        coords = build_discretization(cfg).numbering.node_coords
        assert np.any(state[:, 4] / state[:, 0] - cfg.theta0 < 0.0)
        harness._write_theta_csv(tmp_path / "theta.csv", state, coords,
                                 cfg.theta0)
        write_theta_csv_rows(tmp_path / "rows.csv", state, coords, cfg.theta0)
        assert ((tmp_path / "theta.csv").read_bytes()
                == (tmp_path / "rows.csv").read_bytes())

    def test_speed_squared_equals_the_one_reduction_bytes(self):
        # density and momentum over ten decades, momentum of either sign
        # and with signed zeros; the diagnostics' column sum must give the
        # bytes of the reduction along the velocity axis
        rng = np.random.default_rng(20)
        for _ in range(20):
            q = rng.standard_normal((19375, 5)) * 10.0 ** rng.uniform(
                -5.0, 5.0, (19375, 5))
            q[rng.random(q.shape) < 0.05] = -0.0
            q[:, 0] = 10.0 ** rng.uniform(-5.0, 5.0, 19375)
            assert harness._speed2(q).tobytes() == speed_squared(q).tobytes()

    def test_diagnostics_csv_schema(self, small_run):
        report, _ = small_run
        lines = report.diagnostics_csv().splitlines()
        assert lines[0] == "step,time,mass,theta_min,theta_max,max_speed,centroid_z"
        assert len(lines) == 1 + len(report.diagnostics)

    def test_summary_mentions_phases(self, small_run):
        report, _ = small_run
        text = report.summary()
        assert "create_rhs" in text and "filter" in text
        assert "steps: 4" in text

    def test_setup_time_reported_apart_from_the_run(self):
        t0 = time.perf_counter()
        report, _ = run_bubble(BubbleConfig(**SMALL), n_partitions=1)
        elapsed = time.perf_counter() - t0
        assert report.setup_seconds > 0.0
        assert report.setup_seconds + report.wall_seconds <= elapsed
        assert "set-up" in report.summary()

    def test_model_estimated_flop_rate(self, small_run):
        # the report carries a ledger-based rate, labeled as an estimate
        report, _ = small_run
        assert report.est_flops > 0.0
        assert report.est_flop_rate > 0.0
        assert "model-estimated" in report.summary()


class TestSerialEquivalence:
    """The partition workers step exactly as ``rk_step`` over the serial
    reference operators (``oracles``) does, with the filter on and off,
    under either scheme.  At four partitions every column of the 2x2 mesh
    is its own partition."""

    @pytest.mark.parametrize("n_partitions", [1, 2, 4])
    @pytest.mark.parametrize("filter_mu", [BubbleConfig().filter_mu, 0.0])
    @pytest.mark.parametrize("scheme", ["cg", "dg"])
    def test_run_bubble_equals_rk_step_loop(self, scheme, filter_mu,
                                             n_partitions):
        cfg = BubbleConfig(nx=2, ny=2, layers=2, n_steps=3, scheme=scheme,
                           filter_mu=filter_mu)
        _, final = run_bubble(cfg, n_partitions=n_partitions)

        disc = build_discretization(cfg)
        state0, ra = init_bubble(cfg, disc, CONST)
        control = TimestepControl(courant_h=cfg.courant_h,
                                  courant_v=cfg.courant_v,
                                  n_steps=cfg.n_steps)
        dt = compute_dt(state0, disc, CONST, control)

        def walls(s):
            return apply_boundary(s, disc.numbering)

        state = walls(state0.copy())
        for _ in range(cfg.n_steps):
            state = rk_step(state, dt,
                            lambda s: create_rhs(s, disc, CONST, ra),
                            filter_fn=lambda s: walls(apply_filter(s, disc)),
                            boundary_fn=walls)
        assert np.array_equal(final, state)


class TestStageHooks:
    """Each worker projects onto the walls once at the start, after every
    stage and after the filter's exchange, and filters once a step; with
    the filter off its pass returns the state unchanged, without walls."""

    @pytest.mark.parametrize("n_partitions", [1, 2])
    @pytest.mark.parametrize("filter_mu", [BubbleConfig().filter_mu, 0.0])
    def test_walls_and_filter_calls_per_worker(self, monkeypatch, filter_mu,
                                               n_partitions):
        walls, filters = Counter(), Counter()
        apply_boundary, filter_contributions = (harness.apply_boundary,
                                                harness.filter_contributions)

        def counted_walls(state, numbering):
            walls[id(numbering)] += 1
            return apply_boundary(state, numbering)

        def counted_filter(state, gids, *args):
            filters[id(gids)] += 1
            return filter_contributions(state, gids, *args)

        monkeypatch.setattr(harness, "apply_boundary", counted_walls)
        monkeypatch.setattr(harness, "filter_contributions", counted_filter)
        steps = 3
        run_bubble(BubbleConfig(nx=2, ny=2, layers=2, n_steps=steps,
                                filter_mu=filter_mu),
                   n_partitions=n_partitions)
        per_step = DEFAULT_SCHEME.stages + (1 if filter_mu else 0)
        assert sorted(walls.values()) == [1 + steps * per_step] * n_partitions
        assert sorted(filters.values()) == [steps] * n_partitions


class TestSchemeIsALedgerLabel:
    """The engine runs the same code under every scheme; ``scheme`` only
    chooses the ledger that prices the run report."""

    @pytest.mark.parametrize("n_partitions", [1, 2])
    @pytest.mark.parametrize("order", [3, 5])
    def test_cg_and_dg_give_equal_bits(self, order, n_partitions):
        runs = {scheme: run_bubble(BubbleConfig(nx=2, ny=2, layers=2,
                                                order=order, n_steps=3,
                                                scheme=scheme),
                                   n_partitions=n_partitions)
                for scheme in ("cg", "dg")}
        (cg_report, cg_final), (dg_report, dg_final) = runs.values()
        assert np.array_equal(cg_final, dg_final)
        assert cg_report.est_flops < dg_report.est_flops


# the default bubble at one and two workers, one final-state digest a line;
# run in a subprocess by the run_python fixture (conftest.py)
DIGEST_SCRIPT = """
import hashlib
from sembox.harness import BubbleConfig, run_bubble

for n_partitions in (1, 2):
    _, state = run_bubble(BubbleConfig(n_steps=3), n_partitions=n_partitions)
    print(hashlib.sha256(state.tobytes()).hexdigest())
"""


def test_state_is_independent_of_blas_threads(run_python):
    """The bitwise contract holds whatever thread count OpenBLAS runs at:
    every contraction batch entry is one element's product."""
    digests = []
    for threads in ("1", "2"):
        proc = run_python(DIGEST_SCRIPT, OPENBLAS_NUM_THREADS=threads)
        assert proc.returncode == 0, proc.stderr
        digests += proc.stdout.split()
    assert len(digests) == 4 and len(set(digests)) == 1, digests


# the diagnostics of the default bubble at one and two workers, one digest
# of diagnostics_csv() a line; run in a subprocess by the run_python fixture
DIAGNOSTICS_SCRIPT = """
import hashlib
from sembox.harness import BubbleConfig, run_bubble

for n_partitions in (1, 2):
    report, _ = run_bubble(BubbleConfig(n_steps=3), n_partitions=n_partitions)
    print(hashlib.sha256(report.diagnostics_csv().encode()).hexdigest())
"""


def test_diagnostics_are_independent_of_blas_threads(run_python):
    """Mass and centroid are reduced in a fixed order, with no BLAS call
    whose summation order follows the thread count."""
    runs = []
    for threads in ("1", "2"):
        proc = run_python(DIAGNOSTICS_SCRIPT, OPENBLAS_NUM_THREADS=threads)
        assert proc.returncode == 0, proc.stderr
        runs.append(proc.stdout.split())
    assert len(runs[0]) == 2 and runs[0] == runs[1], runs


# CPU clock ticks of the main thread and of the threads that were already
# there before run_bubble and still are after it (OpenBLAS's pool; the
# partition workers come and go inside the run), one line per mesh and
# worker count: the default bubble, and p = 6 4x4x8, whose x GEMM alone
# would start the pool at both counts; run in a subprocess by the
# run_python fixture (conftest.py)
POOL_SCRIPT = """
import os
import time
from sembox.harness import BubbleConfig, run_bubble

def ticks():
    out = {}
    for tid in os.listdir("/proc/self/task"):
        try:
            with open(f"/proc/self/task/{tid}/stat") as f:
                fields = f.read().rsplit(")", 1)[1].split()
        except FileNotFoundError:   # the thread ended meanwhile
            continue
        out[tid] = int(fields[11]) + int(fields[12])   # utime + stime
    return out

main = str(os.getpid())

def pool_ticks():
    return sum(v for t, v in ticks().items() if t != main)

# OpenBLAS's pool spins for a while after numpy's import, before any run:
# open the first window once its ticks stop changing (2 s at most)
deadline = time.monotonic() + 2.0
prev = pool_ticks()
while time.monotonic() < deadline:
    time.sleep(0.05)
    cur = pool_ticks()
    if cur == prev:
        break
    prev = cur

for config in (BubbleConfig(n_steps=5),
               BubbleConfig(nx=4, ny=4, layers=8, order=6, n_steps=5)):
    for n_partitions in (1, 2):
        before = ticks()
        run_bubble(config, n_partitions=n_partitions)
        after = ticks()
        pool = sum(after[t] - before[t] for t in before
                   if t in after and t != main)
        print(config.order, n_partitions, after[main] - before[main], pool)
"""


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"),
                    reason="needs per-thread CPU times from /proc")
def test_blas_pool_stays_idle(run_python):
    """No BLAS call of a run is large enough to start OpenBLAS's threads,
    whose busy-wait would take the core a second worker needs.  CPU
    accounting with a wide margin, not a timing: a woken pool spins about
    as long as the main thread works.  The first window opens only once
    the pool's spin after numpy's import has ended."""
    proc = run_python(POOL_SCRIPT, OPENBLAS_NUM_THREADS="2")
    assert proc.returncode == 0, proc.stderr
    rows = [[int(v) for v in line.split()] for line in proc.stdout.splitlines()]
    assert len(rows) == 4, proc.stdout
    for order, n_partitions, main, pool in rows:
        assert main > 0 and 10 * pool <= main, rows


class TestDivergence:
    def test_unstable_run_reports_failure_step(self):
        # a Courant number far past the stability limit blows up quickly;
        # the report survives with the failing step recorded
        cfg = BubbleConfig(nx=2, ny=2, layers=2, n_steps=40,
                           courant_h=40.0, courant_v=40.0)
        report, _ = run_bubble(cfg, n_partitions=1)
        assert report.failed_step is not None
        assert report.failed_step <= 40

    def test_threaded_divergence_does_not_deadlock(self):
        cfg = BubbleConfig(nx=2, ny=2, layers=2, n_steps=40,
                           courant_h=40.0, courant_v=40.0)
        report, _ = run_bubble(cfg, n_partitions=4)
        assert report.failed_step is not None

    @pytest.mark.parametrize("n_partitions", [1, 2, 4])
    def test_diagnostics_stop_before_failed_step(self, n_partitions):
        # every step before the failure has diagnostics from all workers
        cfg = BubbleConfig(nx=2, ny=2, layers=2, n_steps=40,
                           courant_h=2.0, courant_v=2.0)
        report, _ = run_bubble(cfg, n_partitions=n_partitions)
        assert report.failed_step is not None
        assert ([d["step"] for d in report.diagnostics]
                == list(range(report.failed_step)))


# run in a subprocess by the run_python fixture (conftest.py)
FAULT_SCRIPT = """
import sys
from sembox import harness

real = harness.filter_contributions

def faulty(*args):
    if sys._getframe(1).f_locals["self"].t == {target}:
        raise KeyError("injected")
    return real(*args)

harness.filter_contributions = faulty
try:
    harness.run_bubble(harness.BubbleConfig(nx={side}, ny={side}, layers=2,
                                            n_steps=3),
                       n_partitions={n_partitions})
except KeyError as exc:
    print("raised", exc.__notes__)
"""


class TestWorkerFaults:
    @pytest.mark.parametrize("n_partitions,target", [(1, 0), (2, 1), (4, 1),
                                                     (4, 3)])
    def test_fault_is_raised_with_its_partition(self, n_partitions, target,
                                                 run_python):
        proc = run_python(FAULT_SCRIPT.format(target=target,
                                              n_partitions=n_partitions,
                                              side=2))
        assert proc.returncode == 0, proc.stderr
        assert f"raised ['partition {target}, step 1']" in proc.stdout

    def test_stop_reaches_partitions_beyond_the_neighbours(self, run_python):
        # on 4x4 columns, partition 0 does not border partition 7: it waits
        # on partitions that stopped because 7 did, and must stop in turn
        proc = run_python(FAULT_SCRIPT.format(target=7, n_partitions=8,
                                              side=4))
        assert proc.returncode == 0, proc.stderr
        assert "raised ['partition 7, step 1']" in proc.stdout


# run in a subprocess by the run_python fixture (conftest.py)
LOST_MESSAGE_SCRIPT = """
from sembox import harness, storage

class DropOne(storage.Mailboxes):
    # loses partition 1's message to partition 0 in exchange {lost}
    def post(self, t, messages):
        if t == 1 and self.n_posts[1] == {lost}:
            messages = {{u: m for u, m in messages.items() if u != 0}}
        super().post(t, messages)

storage.WAIT_TIMEOUT_S = 1.0
harness.Mailboxes = DropOne
try:
    harness.run_bubble(harness.BubbleConfig(nx=2, ny=2, layers=2, n_steps=1),
                       n_partitions={n_partitions})
except storage.MessageLost as exc:
    print("raised", exc, exc.__notes__)
"""


class TestLostMessage:
    # a step has six exchanges: a lost message is refused when the next
    # one comes, and the last one's loss ends the run by the bounded wait
    @pytest.mark.parametrize("lost,cause", [
        (2, "exchange 3's came instead"), (5, "none came in 1.0 s")])
    @pytest.mark.parametrize("n_partitions", [2, 4])
    def test_run_ends_naming_pair_and_exchange(self, n_partitions, lost,
                                               cause, run_python):
        proc = run_python(LOST_MESSAGE_SCRIPT.format(
            n_partitions=n_partitions, lost=lost))
        assert proc.returncode == 0, proc.stderr
        assert (f"raised message 1 -> 0 of exchange {lost} lost: {cause} "
                "['partition 0, step 1']") in proc.stdout


class TestSnapshots:
    def test_cadence_files(self, tmp_path):
        cfg = BubbleConfig(nx=2, ny=2, layers=2, n_steps=4, snapshot_every=2)
        report, final = run_bubble(cfg, n_partitions=2, out_dir=str(tmp_path))
        assert (tmp_path / "state_000002.bin").exists()
        got, _ = read_snapshot(tmp_path / "state_000004.bin")
        assert np.array_equal(got, final)

    @pytest.mark.parametrize("n_partitions", [1, 2])
    def test_no_pieces_without_out_dir(self, monkeypatch, n_partitions):
        # nothing writes snapshots without an output directory, so the
        # workers must not collect them
        workers = []

        class Recorded(harness._Worker):
            def __init__(self, *args):
                super().__init__(*args)
                workers.append(self)

        monkeypatch.setattr(harness, "_Worker", Recorded)
        cfg = BubbleConfig(nx=2, ny=2, layers=2, n_steps=2, snapshot_every=1)
        run_bubble(cfg, n_partitions=n_partitions)
        assert len(workers) == n_partitions
        assert all(w.snapshots == [] for w in workers)


class TestScaling:
    def test_efficiency_arithmetic(self):
        # synthetic inputs: hand-computed efficiencies come out exactly
        assert strong_scaling_efficiency(10.0, 1, 10.0, 1) == 1.0
        assert strong_scaling_efficiency(10.0, 1, 5.0, 2) == 1.0
        assert strong_scaling_efficiency(10.0, 1, 2.0, 8) == pytest.approx(0.625)
        assert strong_scaling_efficiency(8.0, 2, 5.0, 4) == pytest.approx(0.8)

    def test_experiment_structure(self):
        cfg = BubbleConfig(nx=4, ny=4, layers=2, n_steps=3)
        points = scale_experiment(cfg, [1, 2])
        assert points[0].efficiency == 1.0  # baseline by definition
        assert all(p.efficiency > 0.0 for p in points)
        for pt in points:
            for ph in ("create_rhs", "dss_comm", "filter"):
                assert ph in pt.phase_efficiency
        table = scale_table(points)
        assert "workers" in table and "efficiency" in table
        csv = scale_csv(points)
        assert csv.splitlines()[0].startswith("workers,seconds,efficiency")
        assert len(csv.splitlines()) == 3
