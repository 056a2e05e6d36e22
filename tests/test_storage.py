import numpy as np
import pytest

from sembox.reference_element import ReferenceElement
from sembox.mesh import (build_box_mesh, build_cg_numbering, compute_metrics,
                         partition_columns)
from sembox.storage import (
    N_VARS, PartitionLayout, ProtocolError, dss, gather_bytes, halo_exchange,
    read_snapshot, scatter, write_snapshot,
)


@pytest.fixture(scope="module")
def setup443():
    ref = ReferenceElement.create(3)
    mesh = build_box_mesh(4, 4, 3, 1000.0, 1000.0, 1000.0)
    metrics = compute_metrics(mesh, ref)
    numbering = build_cg_numbering(mesh, ref, metrics)
    return ref, mesh, metrics, numbering


def weighted(cg, metrics, numbering, mesh):
    dg = scatter(cg, numbering)
    return dg * metrics.jw.reshape(mesh.n_elements, -1)[:, :, None]


class TestScatterDss:
    def test_scatter_constant(self, setup443):
        _, mesh, _, num = setup443
        cg = np.full((num.n_unique, N_VARS), 7.5)
        dg = scatter(cg, num)
        assert np.all(dg == 7.5)
        assert dg.shape == (mesh.n_elements, 64, N_VARS)

    def test_single_element_is_copy(self):
        ref = ReferenceElement.create(2)
        mesh = build_box_mesh(1, 1, 1, 1.0, 1.0, 1.0)
        num = build_cg_numbering(mesh, ref)
        cg = np.arange(num.n_unique * N_VARS, dtype=float).reshape(-1, N_VARS)
        dg = scatter(cg, num)
        assert np.array_equal(dg[0], cg[num.global_ids[0]])

    def test_interface_duplicates_equal(self, setup443):
        _, mesh, _, num = setup443
        rng = np.random.default_rng(0)
        cg = rng.standard_normal((num.n_unique, N_VARS))
        dg = scatter(cg, num)
        flat_ids = num.global_ids.ravel()
        flat_vals = dg.reshape(-1, N_VARS)
        # group by id: all copies identical
        order = np.argsort(flat_ids, kind="stable")
        ids_sorted = flat_ids[order]
        vals_sorted = flat_vals[order]
        same_group = ids_sorted[1:] == ids_sorted[:-1]
        assert np.all(vals_sorted[1:][same_group] == vals_sorted[:-1][same_group])

    def test_scatter_then_dss_roundtrip(self, setup443):
        ref, mesh, metrics, num = setup443
        rng = np.random.default_rng(1)
        cg = rng.standard_normal((num.n_unique, N_VARS))
        back = dss(weighted(cg, metrics, num, mesh), num)
        assert np.abs(back - cg).max() < 1e-14

    def test_two_stacked_elements_hand_assembly(self):
        # one column, two layers: elements share one horizontal face
        ref = ReferenceElement.create(3)
        mesh = build_box_mesh(1, 1, 2, 2.0, 2.0, 4.0)
        metrics = compute_metrics(mesh, ref)
        num = build_cg_numbering(mesh, ref, metrics)
        c = 3.25
        contrib = np.full((2, 64, 1), c)
        out = dss(contrib, num)
        # every point receives c per touching element, divided by the
        # assembled mass: face points have twice the mass and twice the sum
        expect = c * np.array([num.global_ids.ravel().tolist().count(g)
                               for g in range(num.n_unique)]) / num.mass
        assert np.abs(out[:, 0] - expect).max() < 1e-15 * np.abs(expect).max()
        # shared-face mass really is the two-element sum
        jw = metrics.jw.reshape(2, -1)
        face_g = np.intersect1d(num.global_ids[0], num.global_ids[1])
        single = dict(zip(num.global_ids[0], jw[0]))
        for g in face_g:
            assert num.mass[g] == pytest.approx(2 * single[g], rel=1e-12)

    def test_consistency_recovers_function(self, setup443):
        # contributions that are f(x) * local weight recover f exactly
        ref, mesh, metrics, num = setup443
        f = (lambda c: np.sin(c[:, 0] / 300.0) + 0.1 * c[:, 2] / 1000.0)
        cg = np.repeat(f(num.node_coords)[:, None], N_VARS, axis=1)
        out = dss(weighted(cg, metrics, num, mesh), num)
        assert np.abs(out - cg).max() < 1e-13


# one partition's contribution has too few nodes per element; run in a
# subprocess by the run_python fixture (conftest.py)
BAD_SHAPE_SCRIPT = """
import numpy as np
from sembox.reference_element import ReferenceElement
from sembox.mesh import build_box_mesh, build_cg_numbering, partition_columns
from sembox.storage import N_VARS, PartitionLayout, halo_exchange

mesh = build_box_mesh(4, 4, 3, 1000.0, 1000.0, 1000.0)
num = build_cg_numbering(mesh, ReferenceElement.create(3))
parts = partition_columns(mesh, {n_parts})
contribs = [np.ones((p.n_elements, 64, N_VARS)) for p in parts]
contribs[{target}] = np.ones((parts[{target}].n_elements, 8, N_VARS))
try:
    halo_exchange(PartitionLayout(mesh, num, parts), contribs)
except IndexError:
    print("raised IndexError")
"""

# eight partitions on the two-core host, switching threads every microsecond:
# a lost or misrouted message breaks the bitwise match or hangs
STRESS_SCRIPT = """
import sys
import numpy as np
from sembox.reference_element import ReferenceElement
from sembox.mesh import build_box_mesh, build_cg_numbering, partition_columns
from sembox.storage import N_VARS, PartitionLayout, dss, halo_exchange

mesh = build_box_mesh(4, 4, 3, 1000.0, 1000.0, 1000.0)
num = build_cg_numbering(mesh, ReferenceElement.create(3))
parts = partition_columns(mesh, 8)
layout = PartitionLayout(mesh, num, parts)
contrib = np.random.default_rng(7).standard_normal((mesh.n_elements, 64, N_VARS))
serial = dss(contrib, num)
sys.setswitchinterval(1e-6)
for _ in range(50):
    outs = halo_exchange(layout, [contrib[p.elem_start:p.elem_stop]
                                  for p in parts])
    assert all(np.array_equal(out, serial[plan.own_gids])
               for out, plan in zip(outs, layout.plans))
print("identical")
"""


class TestPartitionedAssembly:
    @pytest.mark.parametrize("n_parts", [1, 2, 4, 8])
    def test_bitwise_matches_serial(self, setup443, n_parts):
        ref, mesh, metrics, num = setup443
        rng = np.random.default_rng(5)
        contrib = rng.standard_normal((mesh.n_elements, 64, N_VARS))
        # both sums start from +0.0, so a point whose contributions are all
        # -0.0 assembles to +0.0; np.array_equal cannot see a sign flip
        signed_zeros = np.where(rng.random(contrib.shape) < 0.3, -0.0, contrib)
        parts = partition_columns(mesh, n_parts)
        layout = PartitionLayout(mesh, num, parts)
        for c in (contrib, signed_zeros):
            serial = dss(c, num)
            outs = halo_exchange(layout, [c[p.elem_start:p.elem_stop]
                                          for p in parts])
            for t, out in enumerate(outs):
                own = layout.plans[t].own_gids
                assert out.tobytes() == serial[own].tobytes()

    @pytest.mark.parametrize("n_parts", [1, 2, 4])
    def test_outputs_hold_local_points_only(self, setup443, n_parts):
        _, mesh, _, num = setup443
        parts = partition_columns(mesh, n_parts)
        layout = PartitionLayout(mesh, num, parts)
        outs = halo_exchange(layout, [np.ones((p.n_elements, 64, N_VARS))
                                      for p in parts])
        for t, out in enumerate(outs):
            assert out.shape == (layout.plans[t].own_gids.size, N_VARS)

    def test_shared_values_identical_across_owners(self, setup443):
        ref, mesh, metrics, num = setup443
        rng = np.random.default_rng(6)
        contrib = rng.standard_normal((mesh.n_elements, 64, N_VARS))
        parts = partition_columns(mesh, 4)
        layout = PartitionLayout(mesh, num, parts)
        outs = halo_exchange(layout, [contrib[p.elem_start:p.elem_stop]
                                      for p in parts])
        plans = layout.plans
        for t in range(4):
            for u in range(t + 1, 4):
                common = np.intersect1d(plans[t].own_gids[plans[t].shared],
                                        plans[u].own_gids[plans[u].shared])
                at_t = np.searchsorted(plans[t].own_gids, common)
                at_u = np.searchsorted(plans[u].own_gids, common)
                assert np.array_equal(outs[t][at_t], outs[u][at_u])

    @pytest.mark.parametrize("n_parts,target", [(2, 1), (4, 2)])
    def test_faulty_partition_raises_without_hang(self, n_parts, target,
                                                  run_python):
        proc = run_python(BAD_SHAPE_SCRIPT.format(n_parts=n_parts,
                                                  target=target))
        assert proc.returncode == 0, proc.stderr
        assert "raised IndexError" in proc.stdout

    def test_repeated_exchange_under_fast_switching(self, run_python):
        proc = run_python(STRESS_SCRIPT)
        assert proc.returncode == 0, proc.stderr
        assert "identical" in proc.stdout

    def test_single_partition_no_messages(self, setup443):
        _, mesh, _, num = setup443
        layout = PartitionLayout(mesh, num, partition_columns(mesh, 1))
        assert layout.plans[0].shared.size == 0
        assert layout.plans[0].msg_send == {}

    def test_halo_symmetry(self, setup443):
        _, mesh, _, num = setup443
        parts = partition_columns(mesh, 4)
        layout = PartitionLayout(mesh, num, parts)
        for t in range(4):
            for u in range(4):
                if t == u:
                    continue
                sends = u in layout.plans[t].msg_send
                recvs = t in layout.plans[u].recv_slots
                assert sends == recvs
                if sends:
                    assert (layout.plans[t].msg_send[u].size
                            == layout.plans[u].recv_slots[t].size)

    def test_protocol_error_on_bad_length(self, setup443):
        _, mesh, _, num = setup443
        parts = partition_columns(mesh, 2)
        layout = PartitionLayout(mesh, num, parts)
        contrib = np.zeros((parts[0].n_elements, 64, N_VARS))
        ser = layout.serialize_shared(0, contrib)
        acc = layout.accumulate_own(0, contrib)
        for bad in ({1: np.zeros((3, N_VARS))}, {}):
            with pytest.raises(ProtocolError):
                layout.fold_shared(0, acc, ser, bad)


class TestRestrict:
    def test_whole_mesh_is_the_same_numbering(self, setup443):
        _, mesh, _, num = setup443
        local, own = num.restrict(0, mesh.n_elements)
        assert local is num
        assert np.array_equal(own, np.arange(num.n_unique))

    @pytest.mark.parametrize("n_parts", [2, 4])
    def test_local_arrays_are_global_ones_at_own_gids(self, setup443, n_parts):
        _, mesh, _, num = setup443
        for part in partition_columns(mesh, n_parts):
            local, own = num.restrict(part.elem_start, part.elem_stop)
            assert np.all(np.diff(own) > 0)
            assert local.n_unique == own.size
            assert np.array_equal(own[local.global_ids],
                                  num.global_ids[part.elem_start:part.elem_stop])
            assert np.array_equal(local.mass, num.mass[own])
            assert np.array_equal(local.node_coords, num.node_coords[own])
            for axis, ids in num.boundary_ids.items():
                assert np.array_equal(own[local.boundary_ids[axis]],
                                      np.intersect1d(ids, own))


class TestMemoryAccounting:
    def test_duplication_factor(self, setup443):
        _, mesh, _, num = setup443
        dg_bytes, cg_bytes = gather_bytes(num, mesh.n_elements)
        assert dg_bytes / cg_bytes == pytest.approx(
            64 * mesh.n_elements / num.n_unique, rel=1e-12)

    def test_dg_layout_stride(self, setup443):
        # element blocks are contiguous, (p+1)^3 * n_vars values apart
        _, mesh, _, num = setup443
        dg = scatter(np.zeros((num.n_unique, N_VARS)), num)
        assert dg.flags["C_CONTIGUOUS"]
        assert dg.strides[0] == 64 * N_VARS * 8

    def test_matches_model_duplication(self, setup443):
        # the byte ratio equals what the cost model charges DG storage
        from sembox.perf_model import SimConfig
        _, mesh, _, num = setup443
        dg_bytes, cg_bytes = gather_bytes(num, mesh.n_elements)
        sim = SimConfig(order=3, elements=(4, 4, 3), machines=1, timesteps=1)
        assert dg_bytes / cg_bytes == pytest.approx(sim.duplication, rel=1e-12)


class TestSnapshot:
    def test_roundtrip_cg(self, tmp_path, setup443):
        _, mesh, _, num = setup443
        rng = np.random.default_rng(2)
        state = rng.standard_normal((num.n_unique, N_VARS))
        path = tmp_path / "state.bin"
        write_snapshot(path, state, order=3, layout="cg")
        got, meta = read_snapshot(path)
        assert np.array_equal(got, state)
        assert meta["order"] == 3 and meta["layout"] == "cg"

    def test_roundtrip_dg(self, tmp_path):
        rng = np.random.default_rng(3)
        vals = rng.standard_normal((5, 27, N_VARS))
        path = tmp_path / "dg.bin"
        write_snapshot(path, vals, order=2, layout="dg", n_elements=5)
        got, meta = read_snapshot(path)
        assert np.array_equal(got, vals)
        assert meta["n_elements"] == 5

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"NOPE" + b"\x00" * 60)
        with pytest.raises(ProtocolError):
            read_snapshot(path)

    def test_truncated_payload(self, tmp_path, setup443):
        _, mesh, _, num = setup443
        state = np.zeros((num.n_unique, N_VARS))
        path = tmp_path / "state.bin"
        write_snapshot(path, state, order=3, layout="cg")
        data = path.read_bytes()
        path.write_bytes(data[:-16])
        with pytest.raises(ProtocolError):
            read_snapshot(path)
