import re
import struct
import threading

import numpy as np
import pytest

from sembox.reference_element import ReferenceElement
from sembox.mesh import (build_box_mesh, build_cg_numbering, compute_metrics,
                         node_major, partition_columns)
from sembox import storage
from sembox.storage import (
    N_VARS, Mailboxes, MessageLost, NeighborStopped, PartitionLayout,
    ProtocolError, halo_exchange, read_snapshot, write_snapshot,
)
from oracles import accumulate_by_element, dss, node_major_contrib


@pytest.fixture(scope="module")
def setup443():
    ref = ReferenceElement.create(3)
    mesh = build_box_mesh(4, 4, 3, 1000.0, 1000.0, 1000.0)
    metrics = compute_metrics(mesh, ref)
    numbering = build_cg_numbering(mesh, ref, metrics)
    return ref, mesh, metrics, numbering


def weighted(cg, metrics, numbering, mesh):
    """J*w-weighted copies of ``cg`` at every element node (DG layout)."""
    return cg[numbering.global_ids] * metrics.jw.reshape(mesh.n_elements,
                                                         -1)[:, :, None]


def assemble(contrib, mesh, numbering):
    """The engine's assembly of the whole mesh: one-partition exchange of
    the element-major ``contrib``, handed over node-major."""
    layout = PartitionLayout(mesh, numbering, partition_columns(mesh, 1))
    return halo_exchange(
        layout, [node_major_contrib(contrib, numbering.order)])[0]


class TestScatterDss:
    """Properties of the engine's assembly on one partition: scatter a
    field to the element nodes (``cg[global_ids]``), weight it by J*w,
    assemble."""

    def test_scatter_then_dss_roundtrip(self, setup443):
        ref, mesh, metrics, num = setup443
        rng = np.random.default_rng(1)
        cg = rng.standard_normal((num.n_unique, N_VARS))
        back = assemble(weighted(cg, metrics, num, mesh), mesh, num)
        assert np.abs(back - cg).max() < 1e-14

    def test_two_stacked_elements_hand_assembly(self):
        # one column, two layers: elements share one horizontal face
        ref = ReferenceElement.create(3)
        mesh = build_box_mesh(1, 1, 2, 2.0, 2.0, 4.0)
        metrics = compute_metrics(mesh, ref)
        num = build_cg_numbering(mesh, ref, metrics)
        c = 3.25
        contrib = np.full((2, 64, 1), c)
        out = assemble(contrib, mesh, num)
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
        out = assemble(weighted(cg, metrics, num, mesh), mesh, num)
        assert np.abs(out - cg).max() < 1e-13


# one partition's contribution has too few nodes per element, handed to
# the per-step exchange as the run's workers call it (``halo_exchange``
# refuses the shape before any exchange starts); run in a subprocess by
# the run_python fixture (conftest.py)
BAD_SHAPE_SCRIPT = """
import numpy as np
from sembox.reference_element import ReferenceElement
from sembox.mesh import build_box_mesh, build_cg_numbering, partition_columns
from sembox.storage import N_VARS, Mailboxes, NeighborStopped, PartitionLayout

mesh = build_box_mesh(4, 4, 3, 1000.0, 1000.0, 1000.0)
num = build_cg_numbering(mesh, ReferenceElement.create(3))
parts = partition_columns(mesh, {n_parts})
layout = PartitionLayout(mesh, num, parts)
contribs = [np.ones((4, 4, p.n_elements, 4, N_VARS)) for p in parts]
contribs[{target}] = np.ones((parts[{target}].n_elements, 8, N_VARS))
mail = Mailboxes(layout)
_, errors = mail.run(lambda t: layout.exchange(t, contribs[t], mail))
faults = [e for e in errors if e is not None
          and not isinstance(e, NeighborStopped)]
if isinstance(errors[{target}], IndexError) and len(faults) == 1:
    print("raised IndexError")
"""

# eight partitions on the two-core host, switching threads every microsecond:
# a lost or misrouted message breaks the bitwise match or hangs
STRESS_SCRIPT = """
import sys
import numpy as np
from sembox.reference_element import ReferenceElement
from sembox.mesh import build_box_mesh, build_cg_numbering, partition_columns
from sembox.storage import N_VARS, PartitionLayout, halo_exchange
from oracles import dss, node_major_contrib

mesh = build_box_mesh(4, 4, 3, 1000.0, 1000.0, 1000.0)
num = build_cg_numbering(mesh, ReferenceElement.create(3))
parts = partition_columns(mesh, 8)
layout = PartitionLayout(mesh, num, parts)
contrib = np.random.default_rng(7).standard_normal((mesh.n_elements, 64, N_VARS))
serial = dss(contrib, num)
sys.setswitchinterval(1e-6)
for _ in range(50):
    outs = halo_exchange(layout, [node_major_contrib(
        contrib[p.elem_start:p.elem_stop], 3) for p in parts])
    assert all(np.array_equal(out, serial[plan.own_gids])
               for out, plan in zip(outs, layout.plans))
print("identical")
"""


class TestPartitionedAssembly:
    @pytest.mark.parametrize("order,n_parts", [
        pytest.param(order, n, id=str(n) if order == 3 else f"p{order}-{n}")
        for order in (1, 2, 3, 5) for n in (1, 2, 3, 4, 8)])
    def test_bitwise_matches_serial(self, order, n_parts):
        mesh = build_box_mesh(4, 4, 3, 1000.0, 1000.0, 1000.0)
        num = build_cg_numbering(mesh, ReferenceElement.create(order))
        rng = np.random.default_rng(5)
        contrib = rng.standard_normal((*num.global_ids.shape, N_VARS))
        # both sums start from +0.0, so a point whose contributions are all
        # -0.0 assembles to +0.0; np.array_equal cannot see a sign flip
        signed_zeros = np.where(rng.random(contrib.shape) < 0.3, -0.0, contrib)
        parts = partition_columns(mesh, n_parts)
        layout = PartitionLayout(mesh, num, parts)
        for c in (contrib, signed_zeros):
            serial = dss(c, num)
            outs = halo_exchange(layout, [node_major_contrib(
                c[p.elem_start:p.elem_stop], order) for p in parts])
            for t, out in enumerate(outs):
                own = layout.plans[t].own_gids
                assert out.tobytes() == serial[own].tobytes()

    @pytest.mark.parametrize("n_parts", [1, 2, 4])
    def test_outputs_hold_local_points_only(self, setup443, n_parts):
        _, mesh, _, num = setup443
        parts = partition_columns(mesh, n_parts)
        layout = PartitionLayout(mesh, num, parts)
        outs = halo_exchange(layout, [np.ones((4, 4, p.n_elements, 4, N_VARS))
                                      for p in parts])
        for t, out in enumerate(outs):
            assert out.shape == (layout.plans[t].own_gids.size, N_VARS)

    def test_shared_values_identical_across_owners(self, setup443):
        ref, mesh, metrics, num = setup443
        rng = np.random.default_rng(6)
        contrib = rng.standard_normal((mesh.n_elements, 64, N_VARS))
        parts = partition_columns(mesh, 4)
        layout = PartitionLayout(mesh, num, parts)
        outs = halo_exchange(layout, [node_major_contrib(
            contrib[p.elem_start:p.elem_stop], 3) for p in parts])
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

    @pytest.mark.parametrize("n_parts,target", [(1, 0), (2, 1), (4, 2)])
    def test_element_major_contributions_are_refused(self, setup443, n_parts,
                                                     target):
        # the (E, n^3, 5) batches the exchange read before node-major ones
        _, mesh, metrics, num = setup443
        contrib = weighted(np.ones((num.n_unique, N_VARS)), metrics, num, mesh)
        parts = partition_columns(mesh, n_parts)
        contribs = [node_major_contrib(contrib[p.elem_start:p.elem_stop], 3)
                    for p in parts]
        E = parts[target].n_elements
        contribs[target] = contrib[parts[target].elem_start:
                                   parts[target].elem_stop]
        message = (f"partition {target}: contributions of shape "
                   f"({E}, 64, 5), expected node-major (4, 4, {E}, 4, "
                   f"variables)")
        with pytest.raises(ValueError, match=re.escape(message)):
            halo_exchange(PartitionLayout(mesh, num, parts), contribs)

    def test_repeated_exchange_under_fast_switching(self, run_python):
        proc = run_python(STRESS_SCRIPT)
        assert proc.returncode == 0, proc.stderr
        assert "identical" in proc.stdout

    @pytest.mark.parametrize("spans,message", [
        ([(0, 21), (24, 48)], "partition 1 starts at element 24, not 21"),
        ([(0, 27), (24, 48)], "partition 1 starts at element 24, not 27"),
        ([(0, 24), (24, 45)], "partition 1 ends at element 45, not 48"),
        ([(3, 24), (24, 48)], "partition 0 starts at element 3, not 0"),
        # every start meets the previous stop, but the middle runs backwards
        ([(0, 16), (16, 10), (10, 48)],
         "partition 1 stops at element 10, before its start 16"),
    ], ids=["gap", "overlap", "short-end", "late-start", "backwards"])
    def test_partitions_must_tile_the_elements(self, setup443, spans, message):
        _, mesh, _, num = setup443
        parts = partition_columns(mesh, len(spans))
        for part, (start, stop) in zip(parts, spans):
            part.elem_start, part.elem_stop = start, stop
        with pytest.raises(ValueError, match=message):
            PartitionLayout(mesh, num, parts)

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
                recvs = t in layout.plans[u].recv_len
                assert sends == recvs
                if sends:
                    assert (layout.plans[t].msg_send[u].size
                            == layout.plans[u].recv_len[t])

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


def restricted_numberings(order, n_parts):
    """The numbering of each of ``n_parts`` partitions of a 4x4x3 mesh."""
    mesh = build_box_mesh(4, 4, 3, 1000.0, 1000.0, 1000.0)
    num = build_cg_numbering(mesh, ReferenceElement.create(order))
    return [num.restrict(part.elem_start, part.elem_stop)[0]
            for part in partition_columns(mesh, n_parts)]


class TestAssemblyPlan:
    @pytest.mark.parametrize("n_parts", [1, 2, 4])
    @pytest.mark.parametrize("order", [1, 2, 3, 4, 5])
    def test_bytes_equal_color_batch_loop(self, order, n_parts):
        """The plan's sum has the bytes of two element-order oracles: the
        per-element loop, and one ``np.bincount`` per variable over the
        entries in element order (it adds in array order from 0.0).  The
        name is the colour-batch loop's, the order before element order.
        """
        rng = np.random.default_rng(order)
        for num in restricted_numberings(order, n_parts):
            c = rng.standard_normal((*num.global_ids.shape, N_VARS))
            c = np.where(rng.random(c.shape) < 0.3, -0.0, c)
            got = storage._accumulate(node_major_contrib(c, order),
                                      num.assembly_plan).tobytes()
            assert got == accumulate_by_element(c, num).tobytes()
            flat = c.reshape(-1, N_VARS)
            by_bincount = np.stack(
                [np.bincount(num.global_ids.ravel(), weights=flat[:, v],
                             minlength=num.n_unique)
                 for v in range(N_VARS)], axis=1)
            assert got == by_bincount.tobytes()

    @pytest.mark.parametrize("n_parts", [1, 2, 4])
    @pytest.mark.parametrize("order", [1, 3, 5])
    def test_chunks_are_ranks_in_element_order(self, order, n_parts):
        n = order + 1
        for num in restricted_numberings(order, n_parts):
            # the plan indexes node-major rows (mesh.node_major)
            point_pos, chunks = num.assembly_plan
            E = num.global_ids.shape[0]
            shape = (E, n, n, n)
            gids = node_major(num.global_ids.reshape(shape)).ravel()
            elem = node_major(np.repeat(np.arange(E), num.n_node_per_elem)
                              .reshape(shape)).ravel()
            count = np.bincount(gids, minlength=num.n_unique)
            assert np.array_equal(np.sort(np.concatenate(chunks)),
                                  np.arange(gids.size))
            sizes = [chunk.size for chunk in chunks]
            assert sizes == sorted(sizes, reverse=True)
            assert sizes[0] == num.n_unique
            for r, chunk in enumerate(chunks):
                assert np.array_equal(point_pos[gids[chunk]],
                                      np.arange(chunk.size))
                assert np.array_equal(np.sort(gids[chunk]),
                                      np.flatnonzero(count > r))
                if r:
                    assert np.all(elem[chunk]
                                  > elem[chunks[r - 1][:chunk.size]])


class TestBoundedWait:
    def test_lost_message_names_pair_and_exchange(self, setup443,
                                                  monkeypatch):
        monkeypatch.setattr(storage, "WAIT_TIMEOUT_S", 0.05)
        _, mesh, _, num = setup443
        layout = PartitionLayout(mesh, num, partition_columns(mesh, 2))
        mail = Mailboxes(layout)
        sent = [{u: np.zeros((sel.size, N_VARS))
                 for u, sel in plan.msg_send.items()} for plan in layout.plans]
        mail.post(0, sent[0])
        mail.post(1, sent[1])
        assert set(mail.wait(0)) == {1}
        mail.post(0, sent[0])           # partition 1's next message is lost
        with pytest.raises(MessageLost, match="message 1 -> 0 of exchange 1 "
                                              "lost: none came in 0.05 s"):
            mail.wait(0)
        assert set(mail.wait(1)) == {0}

    def test_message_of_another_exchange_is_refused(self, setup443):
        _, mesh, _, num = setup443
        layout = PartitionLayout(mesh, num, partition_columns(mesh, 2))
        mail = Mailboxes(layout)
        mail.n_posts[1] = 1             # partition 1 lost exchange 0's
        mail.post(1, {0: np.zeros((layout.plans[1].msg_send[0].size,
                                   N_VARS))})
        with pytest.raises(MessageLost, match="message 1 -> 0 of exchange 0 "
                                              "lost: exchange 1's came"):
            mail.wait(0)


# the launcher tests' faults: partitions 1 and 3 of four raise different ones
FAILING = {1: KeyError("partition 1"), 3: IndexError("partition 3")}


class TestLauncher:
    """``Mailboxes.run`` in process, with a 1 s bound on every wait, so a
    missing abort fails a test (``MessageLost``) instead of hanging it."""

    @pytest.fixture
    def traced(self, monkeypatch):
        """Record each thread started and the thread each exchange ran on;
        an exchange of a partition in ``failing`` raises before posting."""
        monkeypatch.setattr(storage, "WAIT_TIMEOUT_S", 1.0)
        started, ran_on, failing = [], {}, {}
        start, exchange = threading.Thread.start, PartitionLayout.exchange

        def recorded_start(thread):
            started.append(thread)
            start(thread)

        def recorded_exchange(layout, t, contrib, mail):
            ran_on[t] = threading.get_ident()
            if t in failing:
                raise failing[t]
            return exchange(layout, t, contrib, mail)

        monkeypatch.setattr(threading.Thread, "start", recorded_start)
        monkeypatch.setattr(PartitionLayout, "exchange", recorded_exchange)
        return started, ran_on, failing

    @staticmethod
    def layout_and_contribs(setup443, n_parts):
        _, mesh, _, num = setup443
        parts = partition_columns(mesh, n_parts)
        return (PartitionLayout(mesh, num, parts),
                [np.ones((4, 4, p.n_elements, 4, N_VARS)) for p in parts])

    def test_one_partition_runs_on_the_calling_thread(self, setup443, traced):
        started, ran_on, _ = traced
        layout, contribs = self.layout_and_contribs(setup443, 1)
        outs = halo_exchange(layout, contribs)
        assert ran_on == {0: threading.get_ident()}
        assert started == []
        assert outs[0].shape == (layout.plans[0].own_gids.size, N_VARS)

    def test_halo_exchange_raises_the_lowest_fault(self, setup443, traced):
        started, ran_on, failing = traced
        failing.update(FAILING)
        layout, contribs = self.layout_and_contribs(setup443, 4)
        with pytest.raises(KeyError) as info:
            halo_exchange(layout, contribs)
        assert info.value is FAILING[1]
        assert ran_on[0] == threading.get_ident()
        assert len(started) == 3
        assert not any(th.is_alive() for th in started)

    def test_run_returns_every_partition_outcome(self, setup443, traced):
        started, _, failing = traced
        failing.update(FAILING)
        layout, contribs = self.layout_and_contribs(setup443, 4)
        mail = Mailboxes(layout)
        outs, errors = mail.run(
            lambda t: layout.exchange(t, contribs[t], mail))
        assert errors[1] is FAILING[1] and errors[3] is FAILING[3]
        for t in (0, 2):
            assert (isinstance(errors[t], NeighborStopped)
                    or (errors[t] is None and outs[t] is not None))
        assert outs[1] is None and outs[3] is None
        assert len(started) == 3
        assert not any(th.is_alive() for th in started)


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
        # DG storage holds every element's (p+1)^3 points, CG each point once
        _, mesh, _, num = setup443
        cg = np.zeros((num.n_unique, N_VARS))
        dg_bytes, cg_bytes = cg[num.global_ids].nbytes, cg.nbytes
        assert dg_bytes / cg_bytes == pytest.approx(
            64 * mesh.n_elements / num.n_unique, rel=1e-12)

    def test_matches_model_duplication(self, setup443):
        # the byte ratio of the two layouts' prognostic state equals what
        # the cost model charges DG storage
        from sembox.perf_model import SimConfig
        _, mesh, _, num = setup443
        cg = np.zeros((num.n_unique, N_VARS))
        dg_bytes, cg_bytes = cg[num.global_ids].nbytes, cg.nbytes
        assert dg_bytes == mesh.n_elements * 64 * N_VARS * 8
        sim = SimConfig(order=3, elements=(4, 4, 3), machines=1, timesteps=1)
        assert dg_bytes / cg_bytes == pytest.approx(
            sim.points_dg / sim.points_cg, rel=1e-12)


class TestSnapshot:
    def test_roundtrip_cg(self, tmp_path, setup443):
        _, mesh, _, num = setup443
        rng = np.random.default_rng(2)
        state = rng.standard_normal((num.n_unique, N_VARS))
        path = tmp_path / "state.bin"
        write_snapshot(path, state, order=3)
        got, meta = read_snapshot(path)
        assert np.array_equal(got, state)
        assert meta["order"] == 3 and meta["layout"] == "cg"

    @pytest.mark.parametrize("layout", ["contiguous", "strided", "float32"])
    def test_file_bytes_equal_the_tobytes_writer(self, tmp_path, setup443,
                                                 layout):
        # the header, then the rows as ``tobytes`` lays them out, whether
        # the values are written as they lie or converted first
        _, mesh, _, num = setup443
        rng = np.random.default_rng(3)
        wide = rng.standard_normal((num.n_unique, 2 * N_VARS))
        wide[::7, 0] = -0.0
        values = {"contiguous": wide[:, :N_VARS].copy(),
                  "strided": wide[:, ::2],
                  "float32": wide[:, :N_VARS].astype(np.float32)}[layout]
        path = tmp_path / "state.bin"
        write_snapshot(path, values, order=3)
        head = struct.pack("<4sIIIQQI4x", b"SBXS", 1, 3, 0, num.n_unique, 0,
                           N_VARS)
        assert path.read_bytes() == head + np.ascontiguousarray(
            values, dtype="<f8").tobytes()

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"NOPE" + b"\x00" * 60)
        with pytest.raises(ProtocolError):
            read_snapshot(path)

    def test_unknown_layout_tag(self, tmp_path):
        path = tmp_path / "state.bin"
        write_snapshot(path, np.zeros((4, N_VARS)), order=1)
        for tag in (1, 7):              # 1 was the DG layout's tag
            data = bytearray(path.read_bytes())
            data[12] = tag              # the tag follows magic, version, p
            path.with_name("tagged.bin").write_bytes(bytes(data))
            with pytest.raises(ProtocolError, match=f"layout tag {tag}$"):
                read_snapshot(path.with_name("tagged.bin"))

    def test_dg_snapshot_is_refused(self, tmp_path):
        # a whole DG file as the layout's writer laid it out: header with
        # tag 1 and the element count, then (E, (p+1)^3, 5) values
        path = tmp_path / "dg.bin"
        head = struct.pack("<4sIIIQQI4x", b"SBXS", 1, 2, 1, 5 * 27, 5, N_VARS)
        path.write_bytes(head + np.zeros((5, 27, N_VARS)).tobytes())
        with pytest.raises(ProtocolError, match="layout tag 1$"):
            read_snapshot(path)

    def test_truncated_payload(self, tmp_path, setup443):
        # whole values cut off, and a ragged payload: 3 bytes cut or added
        _, mesh, _, num = setup443
        state = np.zeros((num.n_unique, N_VARS))
        path = tmp_path / "state.bin"
        write_snapshot(path, state, order=3)
        data = path.read_bytes()
        for bad in (data[:-16], data[:-3], data + b"\x00" * 3):
            path.write_bytes(bad)
            with pytest.raises(ProtocolError, match="snapshot payload has"):
                read_snapshot(path)
