import math

import numpy as np
import pytest

from sembox.dynamics import Discretization, GasConstants, StateValidityError
from sembox.harness import BubbleConfig, build_discretization
from sembox.mesh import build_box_mesh, build_cg_numbering, compute_metrics
from sembox.reference_element import ReferenceElement
from sembox.time_integration import (
    DEFAULT_SCHEME, RkScheme, TimestepControl, compute_dt,
    verify_order_conditions,
)
from oracles import (combine_step, forward_euler_scheme, gathered_dt,
                     mapped_box_mesh, rk_step)

CONST = GasConstants()


class TestOrderConditions:
    def test_default_scheme_residuals(self):
        res = verify_order_conditions(DEFAULT_SCHEME)
        assert max(abs(v) for v in res.values()) < 1e-13
        assert DEFAULT_SCHEME.stages == 5
        assert DEFAULT_SCHEME.order == 3

    def test_genuinely_third_order(self):
        # the fourth-order condition must NOT hold
        A, b, c = DEFAULT_SCHEME.butcher()
        assert abs(b @ c ** 3 - 0.25) > 1e-3

    def test_forward_euler_fails_order_two(self):
        res = verify_order_conditions(forward_euler_scheme())
        assert abs(res["order1"]) < 1e-15
        assert abs(res["order2"]) == pytest.approx(0.5)

    def test_perturbed_weights_report_linearly(self):
        eps = 1e-4
        alpha = list(DEFAULT_SCHEME.alpha)
        beta = list(DEFAULT_SCHEME.beta)
        k, bt = beta[-1]
        beta[-1] = (k, bt + eps)
        bad = RkScheme(stages=5, order=3, alpha=tuple(alpha), beta=tuple(beta))
        res = verify_order_conditions(bad)
        assert res["order1"] == pytest.approx(eps, rel=1e-8)

    def test_corrupted_scheme_detected(self):
        alpha = list(DEFAULT_SCHEME.alpha)
        beta = list(DEFAULT_SCHEME.beta)
        beta[2] = (beta[2][0], beta[2][1] * 1.01)
        bad = RkScheme(stages=5, order=3, alpha=tuple(alpha), beta=tuple(beta))
        res = verify_order_conditions(bad)
        assert max(abs(v) for v in res.values()) > 1e-4


class TestReleasedStages:
    def test_default_scheme_drops_stage_3_then_all_but_the_last(self):
        assert DEFAULT_SCHEME.released == ((), (), (), (3,), (0, 1, 2, 4))

    @pytest.mark.parametrize("scheme", [DEFAULT_SCHEME, forward_euler_scheme()])
    def test_no_later_stage_reads_a_released_one(self, scheme):
        released = scheme.released
        for i, spent in enumerate(released):
            for later in range(i + 1, scheme.stages):
                read = {j for j, _ in scheme.alpha[later]}
                read.add(scheme.beta[later][0])
                assert not read & set(spent)
        # every stage but the result is released exactly once
        assert sorted(j for spent in released for j in spent) == list(
            range(scheme.stages))


class TestRkStep:
    """The engine's stage arithmetic, ``RkScheme.combine`` in the
    worker's loop (``oracles.combine_step``)."""

    def test_zero_rhs_is_identity(self):
        y = np.array([1.0, -2.0, 3.0])
        out = combine_step(DEFAULT_SCHEME, y, 0.25, lambda s: np.zeros_like(s))
        assert np.allclose(out, y, atol=1e-15)

    def test_single_step_error_scales_like_dt4(self):
        dt = 0.1
        y1 = combine_step(DEFAULT_SCHEME, np.array([1.0]), dt, lambda y: -y)
        err = abs(y1[0] - math.exp(-dt))
        assert err < 2.0 * dt ** 4  # third-order local truncation

    def test_observed_order_three(self):
        errs = []
        for dt in (0.1, 0.05, 0.025):
            y = np.array([1.0])
            n = round(1.0 / dt)
            for _ in range(n):
                y = combine_step(DEFAULT_SCHEME, y, dt, lambda s: -s)
            errs.append(abs(y[0] - math.exp(-1.0)))
        slopes = [math.log(errs[i] / errs[i + 1]) / math.log(2.0)
                  for i in range(2)]
        for s in slopes:
            assert abs(s - 3.0) < 0.1

    @pytest.mark.parametrize("scheme", [DEFAULT_SCHEME, forward_euler_scheme()],
                             ids=["default", "forward-euler"])
    def test_combine_bytes_equal_the_reference_stepper(self, scheme):
        # in place through one scratch array against rk_step's out-of-place
        # sums: the same IEEE operations in the same order, signed zeros too
        rng = np.random.default_rng(30)
        state = rng.standard_normal((1000, 5))
        state[rng.random(state.shape) < 0.3] = -0.0

        def rhs(s):
            return -np.sin(3.0 * s)

        for dt in (0.1, 0.37):
            got = combine_step(scheme, state.copy(), dt, rhs)
            want = rk_step(state.copy(), dt, rhs, scheme=scheme)
            assert got.tobytes() == want.tobytes()


class TestComputeDt:
    def make_quiescent_300k(self):
        # uniform 300 K air: acoustic speed is sqrt(gamma R 300) everywhere
        cfg = BubbleConfig(nx=1, ny=1, layers=1, n_steps=1,
                           center=(500.0, 500.0, 500.0), radius=100.0)
        disc = build_discretization(cfg)
        n = disc.numbering.n_unique
        rho = CONST.p0 / (CONST.R * 300.0)
        state = np.zeros((n, 5))
        state[:, 0] = rho
        state[:, 4] = rho * 300.0
        return disc, state

    def test_single_element_lobatto_gap(self):
        disc, state = self.make_quiescent_300k()
        ctrl = TimestepControl(courant_h=1.0, courant_v=1.0, n_steps=1)
        dt = compute_dt(state, disc, CONST, ctrl)
        # oracle: brute-force minimum over adjacent node pairs
        c = math.sqrt(CONST.gamma * CONST.R * 300.0)
        gap = (1.0 - 1.0 / math.sqrt(5.0)) * 500.0
        assert dt == pytest.approx(gap / c, rel=1e-12)
        assert dt == pytest.approx(0.796, abs=5e-4)

    def test_brute_force_oracle(self):
        disc, state = self.make_quiescent_300k()
        ctrl = TimestepControl(courant_h=1.0, courant_v=1.0, n_steps=1)
        dt = compute_dt(state, disc, CONST, ctrl)
        c = math.sqrt(CONST.gamma * CONST.R * 300.0)
        coords = disc.metrics.coords[0]
        best = np.inf
        n = 4
        for k in range(n):
            for j in range(n):
                for i in range(n):
                    for dk, dj, di in ((0, 0, 1), (0, 1, 0), (1, 0, 0)):
                        if k + dk < n and j + dj < n and i + di < n:
                            gap = np.linalg.norm(coords[k + dk, j + dj, i + di]
                                                 - coords[k, j, i])
                            best = min(best, gap / c)
        assert dt == pytest.approx(best, rel=1e-12)

    def test_doubling_resolution_halves_dt(self):
        cfg1 = BubbleConfig(nx=2, ny=2, layers=2, n_steps=1)
        cfg2 = BubbleConfig(nx=4, ny=4, layers=4, n_steps=1)
        out = []
        for cfg in (cfg1, cfg2):
            disc = build_discretization(cfg)
            n = disc.numbering.n_unique
            rho = CONST.p0 / (CONST.R * 300.0)
            state = np.zeros((n, 5))
            state[:, 0] = rho
            state[:, 4] = rho * 300.0
            ctrl = TimestepControl(courant_h=0.5, courant_v=0.5, n_steps=1)
            out.append(compute_dt(state, disc, CONST, ctrl))
        assert out[0] == pytest.approx(2.0 * out[1], rel=1e-12)

    def test_zero_courant_rejected(self):
        disc, state = self.make_quiescent_300k()
        ctrl = TimestepControl(courant_h=0.0, courant_v=1.0, n_steps=1)
        with pytest.raises(ValueError):
            compute_dt(state, disc, CONST, ctrl)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), 0.0, -1.0])
    @pytest.mark.parametrize("field", ["courant_h", "courant_v"])
    def test_courant_must_be_finite_and_positive(self, field, value):
        disc, state = self.make_quiescent_300k()
        ctrl = TimestepControl(n_steps=1, **{field: value})
        with pytest.raises(ValueError, match="Courant number along axis"):
            compute_dt(state, disc, CONST, ctrl)

    @pytest.mark.parametrize("mapped,order", [
        (False, 1), (False, 3), (False, 5), (True, 2), (True, 4)])
    def test_matches_gathered_oracle(self, mapped, order):
        # random wind on a stratified state; the step is a minimum, so it
        # equals the oracle's bit for bit when every gap and speed does
        ref = ReferenceElement.create(order)
        mesh = (mapped_box_mesh() if mapped
                else build_box_mesh(2, 2, 3, 600.0, 800.0, 900.0))
        metrics = compute_metrics(mesh, ref)
        num = build_cg_numbering(mesh, ref, metrics)
        disc = Discretization(mesh=mesh, ref=ref, metrics=metrics,
                              numbering=num)
        rng = np.random.default_rng(order)
        rho = 1.1 + 0.1 * rng.random(num.n_unique)
        state = np.empty((num.n_unique, 5))
        state[:, 0] = rho
        state[:, 1:4] = rho[:, None] * rng.normal(0.0, 20.0, (num.n_unique, 3))
        state[:, 4] = rho * (300.0 + rng.random(num.n_unique))
        ctrl = TimestepControl(courant_h=0.4, courant_v=0.7, n_steps=1)
        assert compute_dt(state, disc, CONST, ctrl) == gathered_dt(
            state, disc, CONST, 0.4, 0.7)

    def test_invalid_state_rejected(self):
        disc, state = self.make_quiescent_300k()
        bad = state.copy()
        bad[0, 0] = -1.0
        ctrl = TimestepControl(n_steps=1)
        with pytest.raises(ValueError):
            compute_dt(bad, disc, CONST, ctrl)

    @pytest.mark.parametrize("value", [0.0, -1.0])
    @pytest.mark.parametrize("column", [0, 4], ids=["rho", "Theta"])
    def test_refuses_nonpositive_rho_or_theta(self, column, value):
        disc, state = self.make_quiescent_300k()
        state[3, column] = value
        ctrl = TimestepControl(n_steps=1)
        with pytest.raises(StateValidityError, match="rho > 0 and Theta > 0"):
            compute_dt(state, disc, CONST, ctrl)

    def test_steps_for(self):
        ctrl = TimestepControl(end_time=1.0)
        assert ctrl.steps_for(0.3) == 4
        ctrl2 = TimestepControl(n_steps=7)
        assert ctrl2.steps_for(0.001) == 7
        with pytest.raises(ValueError):
            TimestepControl().steps_for(0.1)
