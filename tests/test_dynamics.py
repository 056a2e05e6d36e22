import numpy as np
import pytest
import sympy as sp

from sembox.reference_element import ReferenceElement, gemm_chunks, legendre
from sembox.mesh import (build_cg_numbering, compute_metrics, node_major,
                         partition_columns)
from sembox.perf_model import SCHEME_CG, SCHEME_DG
from sembox.storage import N_VARS, ReferenceAtmosphere
from sembox.dynamics import (
    Discretization, DivergedStateError, GasConstants, StateValidityError,
    apply_boundary, element_pressure, filter_contributions, pressure,
)
from sembox.kernels import load
from sembox.harness import BubbleConfig, build_discretization, init_bubble

import oracles
from oracles import (apply_filter, create_rhs, flux, local_derivative,
                     total_mass)

CONST = GasConstants()


@pytest.fixture(scope="module")
def disc222():
    cfg = BubbleConfig(nx=2, ny=2, layers=2, extents=(400.0, 400.0, 400.0),
                       center=(200.0, 200.0, 200.0), radius=150.0)
    return build_discretization(cfg), cfg


def uniform_atmosphere(disc, p_ref=CONST.p0, theta0=300.0):
    """Constant background: valid reference data for g = 0 experiments."""
    n = disc.numbering.n_unique
    rho = p_ref / (CONST.R * theta0)
    return ReferenceAtmosphere(theta0=theta0, cg=np.tile([rho, p_ref], (n, 1)))


class TestGasConstants:
    def test_defaults_consistent(self):
        assert CONST.cp == CONST.cv + CONST.R
        assert CONST.gamma == pytest.approx(1.4, abs=1e-12)

    def test_inconsistent_rejected(self):
        with pytest.raises(ValueError):
            GasConstants(R=287.0, cp=1000.0, cv=717.5)


class TestPressure:
    def test_reference_point(self):
        # Theta = p0 / R makes the base of the exponent exactly one
        assert pressure(1.0, CONST.p0 / CONST.R, CONST) == pytest.approx(CONST.p0)

    def test_against_log_form(self):
        theta_d = 300.0 * 1.2  # rho * theta
        expect = CONST.p0 * np.exp(CONST.gamma * np.log(CONST.R * theta_d / CONST.p0))
        assert pressure(1.2, theta_d, CONST) == pytest.approx(expect, rel=1e-13)

    def test_derivative_matches_finite_difference(self):
        theta_d = CONST.p0 / CONST.R
        h = theta_d * 1e-6
        fd = (pressure(1.0, theta_d + h, CONST)
              - pressure(1.0, theta_d - h, CONST)) / (2 * h)
        assert fd == pytest.approx(CONST.gamma * CONST.R, rel=1e-6)

    def test_invalid_state(self):
        with pytest.raises(StateValidityError):
            pressure(-1.0, 300.0, CONST)
        with pytest.raises(StateValidityError):
            pressure(1.0, 0.0, CONST)


class TestFlux:
    def test_quiescent_zero(self):
        q = np.array([1.2, 0.0, 0.0, 0.0, 360.0])
        F = flux(q, np.array(0.0))
        assert np.all(F == 0.0)

    def test_unit_substitution(self):
        q = np.array([1.0, 1.0, 0.0, 0.0, 300.0])
        F = flux(q, np.array(0.0))
        assert np.allclose(F[0], [1.0, 0.0, 0.0])        # mass row
        assert F[1, 0] == pytest.approx(1.0)             # x-momentum diag
        assert np.allclose(F[4], [300.0, 0.0, 0.0])      # theta row

    def test_yz_swap_symmetry(self):
        rng = np.random.default_rng(4)
        rho, mu, mv, mw, th = 1.1, *rng.uniform(-1, 1, 3), 310.0
        Fa = flux(np.array([rho, mu, mv, mw, th]), np.array(17.0))
        Fb = flux(np.array([rho, mu, mw, mv, th]), np.array(17.0))
        swap = [0, 1, 3, 2, 4]
        assert np.allclose(Fa[swap][:, [0, 2, 1]], Fb, atol=1e-14)


class TestLocalDerivative:
    def test_constant_is_zero(self, disc222):
        disc, _ = disc222
        vals = np.full(disc.metrics.jacobian.shape, 4.2)
        for axis in range(3):
            d = local_derivative(vals, disc.metrics, disc.ref, axis)
            assert np.abs(d).max() < 1e-13

    def test_linear_coordinate(self, disc222):
        disc, _ = disc222
        x = disc.metrics.coords[..., 0]
        d = local_derivative(x, disc.metrics, disc.ref, 0)
        assert np.abs(d - 1.0).max() < 1e-12
        assert np.abs(local_derivative(x, disc.metrics, disc.ref, 1)).max() < 1e-12

    def test_quadratic_exactness(self, disc222):
        disc, _ = disc222
        c = disc.metrics.coords
        f = c[..., 0] ** 2 * c[..., 1]
        expect = 2.0 * c[..., 0] * c[..., 1]
        d = local_derivative(f, disc.metrics, disc.ref, 0)
        scale = np.abs(expect).max()
        assert np.abs(d - expect).max() < 1e-12 * scale


class TestCreateRhs:
    def test_hydrostatic_rest_state(self):
        cfg = BubbleConfig(nx=2, ny=2, layers=3, theta_pert=0.0)
        disc = build_discretization(cfg)
        state, ra = init_bubble(cfg, disc, CONST)
        z = disc.numbering.node_coords[:, 2]
        assert oracles.hydrostatic_residual(ra, z, CONST) < 1e-8
        rhs = create_rhs(state, disc, CONST, ra)
        scale = float((ra.cg[:, 0] * CONST.gravity).max())
        assert np.abs(rhs).max() < 1e-10 * scale

    def test_free_stream_uniform_velocity(self, disc222):
        disc, _ = disc222
        g0 = GasConstants(gravity=0.0)
        ra = uniform_atmosphere(disc)
        n = disc.numbering.n_unique
        state = np.tile([1.0, 0.7, -0.4, 0.25, 320.0], (n, 1))
        rhs = create_rhs(state, disc, g0, ra)
        assert np.abs(rhs).max() < 1e-12 * 320.0

    def test_manufactured_divergence(self):
        # independent oracle: symbolic divergence of the flux for a state
        # with constant density and temperature and linear momenta; every
        # flux entry is then polynomial of degree <= 2 and the tensor
        # derivatives are exact
        cfg = BubbleConfig(nx=2, ny=2, layers=2, extents=(400.0, 400.0, 400.0),
                           center=(200.0, 200.0, 200.0), radius=150.0)
        disc = build_discretization(cfg)
        g0 = GasConstants(gravity=0.0)
        ra = uniform_atmosphere(disc)

        x, y, z = sp.symbols("x y z")
        rho0, th0 = 1.1, 330.0
        mom = (0.2 + 0.001 * x - 0.002 * y + 0.0005 * z,
               -0.1 + 0.0015 * y + 0.001 * z,
               0.05 - 0.0005 * x + 0.002 * z)
        prim = [sp.Float(rho0), *mom, sp.Float(rho0 * th0)]
        u = [m / rho0 for m in mom]
        p_prime = sp.Float(CONST.p0) * (CONST.R * rho0 * th0 / CONST.p0) ** sp.Rational(7, 5) \
            - sp.Float(CONST.p0)
        Fx = [prim[0] * 0 + mom[0], mom[0] * u[0] + p_prime, mom[1] * u[0],
              mom[2] * u[0], prim[4] * u[0]]
        Fy = [mom[1], mom[0] * u[1], mom[1] * u[1] + p_prime, mom[2] * u[1],
              prim[4] * u[1]]
        Fz = [mom[2], mom[0] * u[2], mom[1] * u[2], mom[2] * u[2] + p_prime,
              prim[4] * u[2]]
        expect_fns = [
            sp.lambdify((x, y, z),
                        -(sp.diff(fx, x) + sp.diff(fy, y) + sp.diff(fz, z)),
                        "numpy")
            for fx, fy, fz in zip(Fx, Fy, Fz)
        ]

        coords = disc.numbering.node_coords
        state = np.empty((disc.numbering.n_unique, N_VARS))
        state[:, 0] = rho0
        for k, m in enumerate(mom):
            f = sp.lambdify((x, y, z), m, "numpy")
            state[:, 1 + k] = f(coords[:, 0], coords[:, 1], coords[:, 2])
        state[:, 4] = rho0 * th0

        rhs = create_rhs(state, disc, g0, ra)
        for v in range(N_VARS):
            expect = np.asarray(expect_fns[v](coords[:, 0], coords[:, 1],
                                              coords[:, 2]))
            expect = np.broadcast_to(expect, rhs[:, v].shape)
            scale = max(1.0, np.abs(expect).max())
            assert np.abs(rhs[:, v] - expect).max() < 1e-10 * scale

    @pytest.mark.parametrize("scheme", [SCHEME_CG, SCHEME_DG])
    @pytest.mark.parametrize("seed", [7, 11, 23])
    def test_scheme_equivalence(self, disc222, scheme, seed):
        # dg: the per-node pressure of the chain-rule oracle
        disc, cfg = disc222
        state, ra = init_bubble(cfg, disc, CONST)
        rng = np.random.default_rng(seed)
        state = state.copy()
        state[:, 1:4] += 0.3 * rng.standard_normal((state.shape[0], 3))
        state[:, 4] *= 1.0 + 0.01 * rng.standard_normal(state.shape[0])
        base = create_rhs(state, disc, CONST, ra, scheme=SCHEME_CG)
        other = create_rhs(state, disc, CONST, ra, scheme=scheme)
        scale = np.abs(base).max()
        assert np.abs(other - base).max() < 1e-12 * scale

    def test_diverged_state_names_element(self, disc222):
        disc, cfg = disc222
        state, ra = init_bubble(cfg, disc, CONST)
        state = state.copy()
        bad_gid = disc.numbering.global_ids[3, 17]
        state[bad_gid, 1] = np.nan
        with pytest.raises(DivergedStateError) as err:
            oracles.engine_kernel(state, disc, ra, CONST)
        assert err.value.element == 3

    @pytest.mark.parametrize("where", ["state", "right-hand side"])
    def test_non_finite_value_names_its_element(self, disc222, where):
        # a NaN at an interior node of element 5: in the state it stops the
        # kernel on entry, in the background density only the contribution
        # of element 5 turns non-finite
        disc, cfg = disc222
        state, ra = init_bubble(cfg, disc, CONST)
        state = state.copy()
        ra = ReferenceAtmosphere(ra.theta0, ra.cg.copy())
        gid = disc.numbering.global_ids[5, 1 * 16 + 1 * 4 + 1]
        if where == "state":
            state[gid, 1] = np.nan
        else:
            ra.cg[gid, 0] = np.nan
        with pytest.raises(DivergedStateError) as err:
            oracles.engine_kernel(state, disc, ra, CONST)
        assert err.value.element == 5
        assert str(err.value).startswith(f"diverged {where}:")

    @pytest.mark.parametrize("value", [np.inf, -np.inf])
    def test_an_infinite_state_diverges(self, disc222, value):
        disc, cfg = disc222
        state, ra = init_bubble(cfg, disc, CONST)
        state = state.copy()
        state[disc.numbering.global_ids[6, 21], 2] = value
        with pytest.raises(DivergedStateError) as err:
            oracles.engine_kernel(state, disc, ra, CONST)
        assert err.value.element == 6
        assert str(err.value).startswith("diverged state:")

    @pytest.mark.parametrize("kernel", ["engine_kernel", "numpy_kernel"])
    def test_a_bad_state_outranks_an_earlier_bad_contribution(self, disc222,
                                                              kernel):
        # element 2's contribution turns non-finite (a NaN in the
        # background density at its interior node) and element 5's state
        # (a NaN at its interior node): the whole gather is checked before
        # any contribution, so the state error names element 5
        disc, cfg = disc222
        state, ra = init_bubble(cfg, disc, CONST)
        state = state.copy()
        ra = ReferenceAtmosphere(ra.theta0, ra.cg.copy())
        interior = 1 * 16 + 1 * 4 + 1
        ra.cg[disc.numbering.global_ids[2, interior], 0] = np.nan
        state[disc.numbering.global_ids[5, interior], 1] = np.nan
        with pytest.raises(DivergedStateError) as err:
            getattr(oracles, kernel)(state, disc, ra, CONST)
        assert err.value.element == 5
        assert str(err.value).startswith("diverged state:")

    def test_mass_conservation_diagnostic(self):
        cfg = BubbleConfig(nx=4, ny=4, layers=4)
        disc = build_discretization(cfg)
        state, ra = init_bubble(cfg, disc, CONST)
        rhs = create_rhs(state, disc, CONST, ra)
        mass_rate = abs(float(disc.numbering.mass @ rhs[:, 0]))
        mass = total_mass(state, disc.numbering)
        # characteristic acoustic frequency c / L
        freq = np.sqrt(CONST.gamma * CONST.R * 300.0) / 1000.0
        assert mass_rate < 1e-8 * mass * freq


def mapped_discretization(order):
    mesh = oracles.mapped_box_mesh()
    ref = ReferenceElement.create(order)
    metrics = compute_metrics(mesh, ref)
    return Discretization(mesh=mesh, ref=ref, metrics=metrics,
                          numbering=build_cg_numbering(mesh, ref, metrics))


class TestContravariantKernel:
    """The engine's contravariant kernel against the chain-rule oracle."""

    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize("order", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("scheme", [SCHEME_CG, SCHEME_DG])
    def test_equals_chain_rule_on_affine_elements(self, scheme, order, seed):
        # the oracle takes the engine's pressure (cg) or evaluates it per
        # duplicated element node (dg)
        cfg = BubbleConfig(nx=2, ny=2, layers=3, order=order,
                           extents=(400.0, 600.0, 900.0),
                           center=(200.0, 300.0, 400.0), radius=150.0)
        disc = build_discretization(cfg)
        state, ra = init_bubble(cfg, disc, CONST)
        rng = np.random.default_rng(seed)
        state[:, 1:4] += 0.5 * rng.standard_normal((state.shape[0], 3))
        state[:, 4] *= 1.0 + 0.01 * rng.standard_normal(state.shape[0])
        gids = disc.numbering.global_ids
        p_el = element_pressure(state, ra, CONST)[gids]
        got = oracles.engine_kernel(state, disc, ra, CONST)
        assert got.flags.c_contiguous
        got = node_major(got)
        want = oracles.rhs_element_contributions(
            state[gids], ra.cg[gids], disc.metrics, disc.ref, CONST,
            p_prime_el=p_el if scheme == SCHEME_CG else None)
        assert got.shape == want.shape
        for v in range(N_VARS):
            scale = np.abs(want[..., v]).max()
            assert np.abs(got[..., v] - want[..., v]).max() < 1e-13 * scale

    @pytest.mark.parametrize("order", [2, 3, 4])
    def test_free_stream_on_mapped_elements(self, order):
        # uniform flow and pressure: every element's divergence must vanish,
        # measured against the flux change across one element
        disc = mapped_discretization(order)
        g0 = GasConstants(gravity=0.0)
        ra = uniform_atmosphere(disc)
        n = disc.numbering.n_unique
        state = np.tile([1.0, 0.7, -0.4, 0.25, 320.0], (n, 1))
        rhs = create_rhs(state, disc, g0, ra)
        p_prime = pressure(1.0, 320.0, g0) - CONST.p0
        scale = np.abs(flux(state[0], p_prime)).max() / 500.0
        assert np.abs(rhs).max() < 1e-12 * scale


def perturbed_case(mapped, order, seed):
    """A discretization, a perturbed state and its background: the
    bubble on a 2x2x3 box, or a uniform background on the mapped mesh."""
    rng = np.random.default_rng(seed)
    if mapped:
        disc = mapped_discretization(order)
        ra = uniform_atmosphere(disc)
        state = np.tile([1.1, 0.0, 0.0, 0.0, 330.0], (disc.numbering.n_unique, 1))
    else:
        cfg = BubbleConfig(nx=2, ny=2, layers=3, order=order,
                           extents=(400.0, 600.0, 900.0),
                           center=(200.0, 300.0, 400.0), radius=150.0)
        disc = build_discretization(cfg)
        state, ra = init_bubble(cfg, disc, CONST)
    state[:, 1:4] += 0.5 * rng.standard_normal((state.shape[0], 3))
    state[:, 4] *= 1.0 + 0.01 * rng.standard_normal(state.shape[0])
    return disc, state, ra


class TestOneDirectionKernel:
    """The numpy kernel (the compiled kernel's byte oracle) against the
    element-major direction-major kernel it replaced, byte for byte once
    turned element-major; its result lives in the workspace."""

    @staticmethod
    def both(disc, state, ra, ws):
        gids = disc.numbering.global_ids
        args = (state, gids, element_pressure(state, ra, CONST)[gids],
                ra.cg[:, 0][gids], disc.metrics.jg, disc.metrics.jw,
                disc.ref, CONST)
        return (oracles.numpy_kernel(state, disc, ra, CONST, ws),
                oracles.direction_major_contributions(*args))

    @pytest.mark.parametrize("mapped", [False, True])
    @pytest.mark.parametrize("order", [1, 2, 3, 4, 5, 6])
    def test_equals_the_direction_major_bytes(self, mapped, order):
        disc, state, ra = perturbed_case(mapped, order, seed=order)
        ws = oracles.RhsWorkspace.create(disc.mesh.n_elements,
                                         disc.ref.n_nodes)
        got, want = self.both(disc, state, ra, ws)
        assert got.flags.c_contiguous
        assert node_major(got).shape == want.shape
        assert node_major(got).tobytes() == want.tobytes()

    def test_next_call_on_the_workspace_overwrites_the_result(self):
        disc, state, ra = perturbed_case(False, 3, seed=5)
        ws = oracles.RhsWorkspace.create(disc.mesh.n_elements,
                                         disc.ref.n_nodes)
        first, want_first = self.both(disc, state, ra, ws)
        assert node_major(first).tobytes() == want_first.tobytes()
        _, other, _ = perturbed_case(False, 3, seed=6)
        second, want_second = self.both(disc, other, ra, ws)
        assert node_major(second).tobytes() == want_second.tobytes()
        assert np.shares_memory(first, ws.flux)
        assert (node_major(first).tobytes() == node_major(second).tobytes()
                != want_first.tobytes())


def byte_case(mesh, order, seed):
    """A discretization and a state with randomised momentum, a tenth of
    the momentum entries -0.0, and its background: the bubble on an
    nx x ny x layers box, or a uniform background on the mapped mesh."""
    if mesh == "mapped":
        disc, state, ra = perturbed_case(True, order, seed)
    else:
        nx, ny, layers = mesh
        cfg = BubbleConfig(nx=nx, ny=ny, layers=layers, order=order)
        disc = build_discretization(cfg)
        state, ra = init_bubble(cfg, disc, CONST)
        rng = np.random.default_rng(seed)
        state[:, 1:4] += 0.5 * rng.standard_normal((state.shape[0], 3))
    rng = np.random.default_rng(seed + 100)
    momentum = state[:, 1:4]
    momentum[rng.random(momentum.shape) < 0.1] = -0.0
    return disc, state, ra


BYTE_MESHES = [(order, mesh) for order in range(1, 7)
               for mesh in [(4, 4, 4), (4, 4, 8), "mapped"]] + [(3, (8, 8, 10))]


class TestCompiledKernelBytes:
    """The compiled kernels (``kernels.c``) against the numpy kernels
    they replaced (``oracles.numpy_kernel``,
    ``oracles.numpy_filter_contributions``), byte for byte.

    The equality rests on the BLAS's kernel choice on the host: the C
    code writes every contraction as an fma chain from +0.0 in ascending
    l because that is what the small-k dgemm of the OpenBLAS build the
    tests were written with computes.  With another BLAS, or another
    kernel of this one, these tests can fail while the engine is sound
    and partition invariance (the run tests) still holds; the check is
    kept exact all the same, as every digest of the engine rests on it.
    """

    @pytest.mark.parametrize("order,mesh", BYTE_MESHES)
    def test_rhs_equals_the_numpy_kernel_bytes(self, order, mesh):
        disc, state, ra = byte_case(mesh, order, seed=order)
        got = oracles.engine_kernel(state, disc, ra, CONST)
        want = oracles.numpy_kernel(state, disc, ra, CONST)
        assert got.flags.c_contiguous and got.shape == want.shape
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("order,mesh", BYTE_MESHES)
    def test_filter_equals_the_numpy_filter_bytes(self, order, mesh):
        disc, state, _ = byte_case(mesh, order, seed=order)
        gids, _, jw = oracles.node_major_batch(disc)
        got = oracles.engine_filter_kernel(state, disc)
        want = oracles.numpy_filter_contributions(state, gids, jw, disc.ref)
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()

    def test_kernels_write_into_the_given_array(self):
        disc, state, ra = byte_case((2, 2, 2), 3, seed=1)
        gids, jg, jw = oracles.node_major_batch(disc)
        kernels = load(disc.ref.n_nodes)
        out = np.full((*gids.shape, N_VARS), np.nan)
        got = oracles.engine_contributions(
            state, gids, element_pressure(state, ra, CONST),
            np.ascontiguousarray(ra.cg[:, 0]), jg, jw, disc.ref, CONST,
            kernels, out)
        assert got is out
        assert out.tobytes() == oracles.numpy_kernel(
            state, disc, ra, CONST).tobytes()
        assert filter_contributions(state, gids, jw, disc.ref, kernels,
                                    out) is out

    def test_a_batch_the_kernels_cannot_read_is_refused(self):
        disc, state, ra = byte_case((2, 2, 2), 3, seed=1)
        gids, jg, jw = oracles.node_major_batch(disc)
        out = np.empty((*gids.shape, N_VARS))
        with pytest.raises(ValueError, match="nodes per direction"):
            filter_contributions(state, gids, jw, disc.ref, load(5), out)
        with pytest.raises(ValueError, match="point field must have shape"):
            filter_contributions(state[:, :4].copy(), gids, jw, disc.ref,
                                 load(4), out)
        with pytest.raises(ValueError, match="C-contiguous"):
            filter_contributions(state, gids, np.asfortranarray(jw),
                                 disc.ref, load(4), out)
        with pytest.raises(ValueError, match="out must have shape"):
            filter_contributions(state, gids, jw, disc.ref, load(4),
                                 out[..., :4])
        # the pressure and background density come per point, not per node
        with pytest.raises(ValueError, match="p_prime must have shape"):
            oracles.engine_contributions(
                state, gids, element_pressure(state, ra, CONST)[gids],
                np.ascontiguousarray(ra.cg[:, 0]), jg, jw, disc.ref, CONST,
                load(4), out)

    @pytest.mark.parametrize("index", [-1, "rows"])
    def test_an_index_outside_the_point_field_is_refused(self, index):
        disc, state, ra = byte_case((2, 2, 2), 3, seed=1)
        gids, jg, jw = oracles.node_major_batch(disc)
        bad = gids.copy()
        bad[1, 2, 5, 3] = state.shape[0] if index == "rows" else index
        kernels = load(disc.ref.n_nodes)
        out = np.empty((*gids.shape, N_VARS))
        with pytest.raises(IndexError, match="outside the point field"):
            filter_contributions(state, bad, jw, disc.ref, kernels, out)
        with pytest.raises(IndexError, match="outside the point field"):
            oracles.engine_contributions(
                state, bad, element_pressure(state, ra, CONST),
                np.ascontiguousarray(ra.cg[:, 0]), jg, jw, disc.ref, CONST,
                kernels, out)


class TestNodeMajorGemms:
    def test_the_default_bubble_takes_ninety_gemms_a_call(self,
                                                          recorded_gemms):
        # the numpy kernels (the compiled kernels' byte oracles) on
        # 8x8x10 at p = 3: x as row GEMMs over every variable, y as one
        # product per variable, z one per variable and y slab, each in
        # chunks of at most GEMM_ROWS; element-major batches took one GEMM
        # per element and node for y and z, 25,600 a call
        cfg = BubbleConfig()
        disc = build_discretization(cfg)
        state, ra = init_bubble(cfg, disc, CONST)
        E, n = disc.mesh.n_elements, disc.ref.n_nodes
        rows = N_VARS * E * n ** 3 // n
        want = (len(gemm_chunks(rows)) + N_VARS * len(gemm_chunks(rows // 5))
                + N_VARS * n * len(gemm_chunks(E * n)))
        assert want == 90
        gids, _, jw = oracles.node_major_batch(disc)
        recorded_gemms.clear()      # set-up's own contractions
        oracles.numpy_kernel(state, disc, ra, CONST)
        assert len(recorded_gemms) == want
        recorded_gemms.clear()
        oracles.numpy_filter_contributions(state, gids, jw, disc.ref)
        assert len(recorded_gemms) == want


class TestFilterApplication:
    @pytest.mark.parametrize("order", [1, 2, 3, 4, 5, 6])
    def test_contributions_equal_the_aos_oracle_bytes(self, order):
        # every batch a run hands the compiled filter: the whole mesh and
        # each partition of a 2-way and a 3-way split; signed zeros
        # included
        cfg = BubbleConfig(nx=4, ny=4, layers=2, order=order)
        disc = build_discretization(cfg)
        rng = np.random.default_rng(order)
        state = rng.standard_normal((disc.numbering.n_unique, N_VARS))
        state[rng.random(state.shape) < 0.3] = -0.0
        gids, jw = disc.numbering.global_ids, disc.metrics.jw
        batches = [slice(0, gids.shape[0])] + [
            slice(part.elem_start, part.elem_stop)
            for k in (2, 3) for part in partition_columns(disc.mesh, k)]
        for sl in batches:
            got = oracles.engine_filter_kernel(state, disc, sl)
            want = oracles.aos_filter_contributions(state, gids[sl], jw[sl],
                                                    disc.ref)
            assert got.flags.c_contiguous
            got = node_major(got)
            assert got.shape == want.shape
            assert got.tobytes() == want.tobytes()

    def test_zero_strength_bitwise_identity(self):
        cfg = BubbleConfig(nx=2, ny=2, layers=2, filter_mu=0.0)
        disc = build_discretization(cfg)
        state, _ = init_bubble(cfg, disc, CONST)
        out = apply_filter(state, disc)
        assert out is state
        assert oracles.engine_filter_kernel(state, disc) is None

    def test_constant_state_preserved(self, disc222):
        disc, _ = disc222
        n = disc.numbering.n_unique
        state = np.tile([1.1, 0.2, -0.3, 0.15, 340.0], (n, 1))
        out = apply_filter(state, disc)
        assert np.abs(out / state - 1.0).max() < 1e-13

    def test_top_mode_scaled_single_element(self):
        cfg = BubbleConfig(nx=1, ny=1, layers=1, filter_mu=1.0,
                           center=(500.0, 500.0, 500.0))
        disc = build_discretization(cfg)
        ref = disc.ref
        # field: P_3 along x only, constant elsewhere
        xi = 2.0 * disc.numbering.node_coords[:, 0] / 1000.0 - 1.0
        p3, _ = legendre(3, xi)
        state = np.zeros((disc.numbering.n_unique, N_VARS))
        state[:, 0] = p3
        out = apply_filter(state, disc)
        # modal content along each x-line of the element
        Vi = ref.vandermonde_inv
        el = out[disc.numbering.global_ids, 0].reshape(4, 4, 4)
        sigma3 = ref.filter_matrix @ ref.vandermonde[:, 3]
        expect_mode3 = (Vi @ sigma3)[3]
        for k in range(4):
            for j in range(4):
                coeffs = Vi @ el[k, j]
                assert abs(coeffs[3] - expect_mode3) < 1e-12
                assert np.abs(coeffs[:3]).max() < 1e-12


class TestBoundary:
    def test_interior_untouched_and_walls_zeroed(self, disc222):
        disc, _ = disc222
        rng = np.random.default_rng(13)
        state = rng.standard_normal((disc.numbering.n_unique, N_VARS))
        orig = state.copy()
        apply_boundary(state, disc.numbering)
        num = disc.numbering
        wall = set()
        for axis in range(3):
            ids = num.boundary_ids[axis]
            assert np.all(state[ids, 1 + axis] == 0.0)
            wall.update(ids.tolist())
        interior = np.setdiff1d(np.arange(num.n_unique), np.array(sorted(wall)))
        assert np.array_equal(state[interior], orig[interior])

    def test_corner_gets_both_components(self, disc222):
        disc, _ = disc222
        num = disc.numbering
        corner = np.intersect1d(num.boundary_ids[0], num.boundary_ids[2])[0]
        state = np.ones((num.n_unique, N_VARS))
        apply_boundary(state, num)
        assert state[corner, 1] == 0.0 and state[corner, 3] == 0.0
        assert state[corner, 0] == 1.0 and state[corner, 4] == 1.0

    def test_density_and_theta_never_touched(self, disc222):
        disc, _ = disc222
        state = np.ones((disc.numbering.n_unique, N_VARS))
        apply_boundary(state, disc.numbering)
        assert np.all(state[:, 0] == 1.0)
        assert np.all(state[:, 4] == 1.0)
