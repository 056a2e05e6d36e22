import numpy as np
import pytest

from sembox.dynamics import (GasConstants, apply_boundary, apply_filter,
                             create_rhs)
from sembox.harness import (
    BubbleConfig, ConfigError, build_discretization, init_bubble, run_bubble,
    scale_csv, scale_experiment, scale_table, strong_scaling_efficiency,
)
from sembox.storage import read_snapshot
from sembox.time_integration import TimestepControl, compute_dt, rk_step

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


class TestInitBubble:
    def test_surface_values(self):
        cfg = BubbleConfig(nx=2, ny=2, layers=2, n_steps=1)
        disc = build_discretization(cfg)
        state, ra = init_bubble(cfg, disc, CONST)
        surface = disc.numbering.node_coords[:, 2] == 0.0
        # at z=0 the background pressure is p0 and the density p0/(R theta0)
        assert np.allclose(ra.pressure[surface], CONST.p0, rtol=1e-14)
        rho0 = CONST.p0 / (CONST.R * cfg.theta0)
        assert np.allclose(ra.rho[surface], rho0, rtol=1e-14)

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
        assert ra.hydrostatic_residual(CONST.gravity) < 1e-8

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

    def test_model_estimated_flop_rate(self, small_run):
        # the report carries a ledger-based rate, labeled as an estimate
        report, _ = small_run
        assert report.est_flops > 0.0
        assert report.est_flop_rate > 0.0
        assert "model-estimated" in report.summary()


class TestSerialEquivalence:
    """The partition workers step exactly as ``rk_step`` over the serial
    operators does, with the filter on and off."""

    @pytest.mark.parametrize("n_partitions", [1, 2])
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
                            lambda s: create_rhs(s, disc, CONST, ra, scheme),
                            filter_fn=lambda s: walls(apply_filter(s, disc)),
                            boundary_fn=walls)
        assert np.array_equal(final, state)


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


class TestSnapshots:
    def test_cadence_files(self, tmp_path):
        cfg = BubbleConfig(nx=2, ny=2, layers=2, n_steps=4, snapshot_every=2)
        report, final = run_bubble(cfg, n_partitions=2, out_dir=str(tmp_path))
        assert (tmp_path / "state_000002.bin").exists()
        got, _ = read_snapshot(tmp_path / "state_000004.bin")
        assert np.array_equal(got, final)


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
