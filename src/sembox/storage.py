"""Field layouts, direct stiffness summation, and halo exchange.

Two layouts hold the five prognostic variables (rho, rho*u, rho*v,
rho*w, Theta):

* CG storage: one row per unique grid point, shape (n_unique, 5);
* DG storage: per-element blocks with duplicated interface values,
  shape (E, (p+1)^3, 5), x fastest within the block.

Assembly (DSS) sums the weighted per-element contributions at every
grid point and multiplies by the inverse of the diagonal mass matrix.
The summation follows one canonical order everywhere -- ascending
(element color, element id) -- so runs with different partition counts
produce bit-identical results: a partition accumulates its interior
nodes color batch by color batch, and contributions at nodes shared
between partitions are exchanged raw (one value per contributing
element) and folded positionally in the same global order.

:meth:`PartitionLayout.exchange` is the one partitioned assembly; its
caller supplies only the transport.  The engine runs the CG and DG
layouts; the hybrid (``cg-dg``) is priced by the performance model only.
"""

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
import struct
import threading

import numpy as np

from .mesh import ColumnMesh, CgNumbering, Partition

N_VARS = 5

SCHEME_CG = "cg"
SCHEME_HYBRID = "cg-dg"
SCHEME_DG = "dg"
SCHEMES = (SCHEME_CG, SCHEME_HYBRID, SCHEME_DG)   # priced by perf_model
ENGINE_SCHEMES = (SCHEME_CG, SCHEME_DG)          # run by the engine


class ProtocolError(RuntimeError):
    """Halo message does not match the precomputed exchange plan."""


def scatter(cg: np.ndarray, numbering: CgNumbering) -> np.ndarray:
    """CG field -> per-element duplicated (DG-layout) field."""
    return cg[numbering.global_ids]


def gather_bytes(numbering: CgNumbering, n_elements: int) -> tuple[int, int]:
    """(bytes of DG layout, bytes of CG layout) for the prognostic state."""
    nn = numbering.n_node_per_elem
    return n_elements * nn * N_VARS * 8, numbering.n_unique * N_VARS * 8


def dss(contrib: np.ndarray, numbering: CgNumbering) -> np.ndarray:
    """Serial direct stiffness summation of per-element contributions.

    ``contrib`` has DG layout and already carries the J*w weighting, as the
    right-hand-side kernel produces it.  Contributions at a shared point are
    summed in ascending (color, element) order, then multiplied by the
    inverse mass.
    """
    nv = contrib.shape[-1]
    acc = np.zeros((numbering.n_unique, nv))
    flat = contrib.reshape(numbering.global_ids.shape[0], -1, nv)
    for batch in numbering.color_batches:
        acc[numbering.global_ids[batch].ravel()] += flat[batch].reshape(-1, nv)
    acc *= numbering.inv_mass[:, None]
    return acc


# ---------------------------------------------------------------------------
# Partitioned assembly
# ---------------------------------------------------------------------------

@dataclass
class _PartPlan:
    """Static per-partition pieces of the exchange and fold."""

    elem_start: int
    elem_stop: int
    color_batches: list            # local element indices per color
    batch_gids: list               # flattened target gids per color batch
    own_gids: np.ndarray           # sorted gids this partition touches
    shared_gids: np.ndarray        # subset also touched by other partitions
    ser_elem: np.ndarray           # serialization: local element index
    ser_slot: np.ndarray           # serialization: node slot within element
    msg_send: dict = field(default_factory=dict)   # u -> index into serialization
    msg_len_recv: dict = field(default_factory=dict)  # u -> expected entries
    fold_steps: list = field(default_factory=list)
    # fold_steps[r] = list of (source_partition, target_gids, source_indices)


class PartitionLayout:
    """Everything static that partitioned assembly needs, built once.

    The serialization of a partition's contributions at shared points is
    ordered by (gid, color, element); a halo message to a neighbor is a
    sub-slice of that serialization, so send and receive sides agree on
    the layout by construction.  The fold plan replays the global
    (color, element) order positionally, which keeps results bit-identical
    to the serial assembly.
    """

    def __init__(self, mesh: ColumnMesh, numbering: CgNumbering,
                 parts: list[Partition]):
        self.mesh = mesh
        self.numbering = numbering
        self.parts = parts
        self.n_parts = len(parts)
        gids = numbering.global_ids
        n_elem, nn = gids.shape

        owner_elem = np.empty(n_elem, dtype=np.int64)
        for part in parts:
            owner_elem[part.elem_start:part.elem_stop] = part.part_id
        self.owner_elem = owner_elem

        touched = []
        for part in parts:
            touched.append(np.unique(gids[part.elem_start:part.elem_stop]))
        touch_count = np.zeros(numbering.n_unique, dtype=np.int32)
        for tg in touched:
            touch_count[tg] += 1
        is_shared = touch_count >= 2

        # all raw contributions at shared points, in canonical global order
        mask = is_shared[gids]
        e_all, slot_all = np.nonzero(mask)
        g_all = gids[e_all, slot_all]
        key = np.lexsort((e_all, numbering.elem_color[e_all], g_all))
        e_all, slot_all, g_all = e_all[key], slot_all[key], g_all[key]
        own_all = owner_elem[e_all]
        # rank of each contribution within its grid point's list
        uniq, start_idx, counts = np.unique(g_all, return_index=True,
                                            return_counts=True)
        pos_all = np.arange(g_all.size) - np.repeat(start_idx, counts)
        max_pos = int(counts.max()) if counts.size else 0

        # per-partition serialization order: (gid, color, elem) restricted to
        # the partition's own entries; a stable sort by owner preserves it
        ser_of = [np.flatnonzero(own_all == t) for t in range(self.n_parts)]
        ser_rank = np.empty(g_all.size, dtype=np.int64)
        for t in range(self.n_parts):
            ser_rank[ser_of[t]] = np.arange(ser_of[t].size)

        self.plans: list[_PartPlan] = []
        for part in parts:
            t = part.part_id
            local = np.arange(part.elem_start, part.elem_stop)
            batches = []
            batch_gids = []
            for batch in numbering.color_batches:
                sel = batch[(batch >= part.elem_start) & (batch < part.elem_stop)]
                batches.append(sel - part.elem_start)
                batch_gids.append(gids[sel].ravel())
            own = touched[t]
            shared = own[is_shared[own]]
            mine = ser_of[t]
            plan = _PartPlan(
                elem_start=part.elem_start, elem_stop=part.elem_stop,
                color_batches=batches, batch_gids=batch_gids,
                own_gids=own, shared_gids=shared,
                ser_elem=e_all[mine] - part.elem_start,
                ser_slot=slot_all[mine],
            )
            self.plans.append(plan)

        # messages: t sends the entries of its serialization whose gid is
        # also touched by u; both sides can derive the same slice
        for t in range(self.n_parts):
            mine = ser_of[t]
            for u in range(self.n_parts):
                if u == t:
                    continue
                sel = np.flatnonzero(np.isin(g_all[mine], self.plans[u].own_gids))
                if sel.size:
                    self.plans[t].msg_send[u] = sel
                    self.plans[u].msg_len_recv[t] = sel.size

        # fold plan: replay the canonical order at each partition's shared
        # points, reading from its own serialization or received messages
        for t in range(self.n_parts):
            plan = self.plans[t]
            relevant = np.flatnonzero(np.isin(g_all, plan.shared_gids))
            steps = []
            for r in range(max_pos):
                at_r = relevant[pos_all[relevant] == r]
                per_source = []
                for s in range(self.n_parts):
                    ent = at_r[own_all[at_r] == s]
                    if ent.size == 0:
                        continue
                    if s == t:
                        src = ser_rank[ent]
                    else:
                        # position within the message s -> t
                        msg = self.plans[s].msg_send[t]
                        src = np.searchsorted(msg, ser_rank[ent])
                        if not np.array_equal(msg[src], ser_rank[ent]):
                            raise ProtocolError(
                                f"exchange plan {s}->{t} missing entries")
                    per_source.append((s, g_all[ent], src))
                if per_source:
                    steps.append(per_source)
            plan.fold_steps = steps

    # -- runtime pieces ----------------------------------------------------

    def accumulate_own(self, t: int, contrib: np.ndarray,
                       out: np.ndarray | None = None) -> np.ndarray:
        """Color-batch accumulation of partition t's contributions."""
        plan = self.plans[t]
        nv = contrib.shape[-1]
        if out is None:
            out = np.zeros((self.numbering.n_unique, nv))
        flat = contrib.reshape(plan.elem_stop - plan.elem_start, -1, nv)
        for batch, gids in zip(plan.color_batches, plan.batch_gids):
            if batch.size:
                out[gids] += flat[batch].reshape(-1, nv)
        return out

    def serialize_shared(self, t: int, contrib: np.ndarray) -> np.ndarray:
        """Raw contributions of partition t at shared points, canonical order."""
        plan = self.plans[t]
        nv = contrib.shape[-1]
        flat = contrib.reshape(plan.elem_stop - plan.elem_start, -1, nv)
        return flat[plan.ser_elem, plan.ser_slot]

    def outgoing(self, t: int, ser: np.ndarray) -> dict[int, np.ndarray]:
        """Halo messages from partition t, keyed by destination."""
        return {u: ser[sel] for u, sel in self.plans[t].msg_send.items()}

    def fold_shared(self, t: int, acc: np.ndarray, ser: np.ndarray,
                    received: dict[int, np.ndarray]) -> None:
        """Overwrite acc at t's shared points with the canonical full sum."""
        plan = self.plans[t]
        for u, expect in plan.msg_len_recv.items():
            got = received.get(u)
            if got is None or got.shape[0] != expect:
                raise ProtocolError(
                    f"partition {t}: message from {u} has "
                    f"{None if got is None else got.shape[0]} entries, expected {expect}")
        if plan.shared_gids.size == 0:
            return
        acc[plan.shared_gids] = 0.0
        for per_source in plan.fold_steps:
            for s, tgt, src in per_source:
                buf = ser if s == t else received[s]
                acc[tgt] += buf[src]

    def exchange(self, t: int, contrib: np.ndarray, post, wait) -> np.ndarray:
        """Partition t's assembled CG array, exact at its own points.

        Serialize, ``post`` the halo messages (destination -> array),
        accumulate own elements while they travel, fold what ``wait()``
        returns (source -> array), scale by the inverse mass.
        """
        ser = self.serialize_shared(t, contrib)
        post(self.outgoing(t, ser))
        acc = self.accumulate_own(t, contrib)
        self.fold_shared(t, acc, ser, wait())
        own = self.plans[t].own_gids
        acc[own] *= self.numbering.inv_mass[own, None]
        return acc


def halo_exchange(layout: PartitionLayout,
                  contribs: list[np.ndarray]) -> list[np.ndarray]:
    """In-process transport for :meth:`PartitionLayout.exchange`.

    One thread per partition; mailboxes are read once all have posted.
    Returns one assembled CG array per partition; all copies of a shared
    point hold the identical value.
    """
    n = layout.n_parts
    mail: list[dict[int, np.ndarray]] = [dict() for _ in range(n)]
    all_posted = threading.Barrier(n)

    def assemble(t):
        def post(messages):
            for u, msg in messages.items():
                mail[u][t] = msg
            all_posted.wait()

        try:
            return layout.exchange(t, contribs[t], post, lambda: mail[t])
        except threading.BrokenBarrierError:
            return None           # another partition failed; it raises
        except BaseException:
            all_posted.abort()    # release the partitions waiting on t
            raise

    with ThreadPoolExecutor(max_workers=n) as pool:
        return list(pool.map(assemble, range(n)))


# ---------------------------------------------------------------------------
# Reference atmosphere
# ---------------------------------------------------------------------------

@dataclass
class ReferenceAtmosphere:
    """Frozen hydrostatic background (rho_bar, p_bar, Theta_bar).

    Held at unique points, built once from the analytic profile; the
    element kernels read a gathered per-element copy.  ``dp_dz`` is the
    profile's analytic pressure gradient at the nodes, kept so the
    hydrostatic-balance residual can be audited exactly.
    """

    theta0: float
    cg: np.ndarray        # (n_unique, 3)
    dp_dz: np.ndarray     # (n_unique,)

    @property
    def rho(self) -> np.ndarray:
        return self.cg[:, 0]

    @property
    def pressure(self) -> np.ndarray:
        return self.cg[:, 1]

    @property
    def theta_density(self) -> np.ndarray:
        return self.cg[:, 2]

    def hydrostatic_residual(self, gravity: float) -> float:
        """max |dp_bar/dz + rho_bar g| / (rho_bar g) over all nodes."""
        rg = self.cg[:, 0] * gravity
        return float(np.max(np.abs(self.dp_dz + rg) / rg))


# ---------------------------------------------------------------------------
# Binary snapshots
# ---------------------------------------------------------------------------

_MAGIC = b"SBXS"
_VERSION = 1
_LAYOUT_TAGS = {"cg": 0, "dg": 1}
_HEADER = struct.Struct("<4sIIIQQI4x")  # magic, version, p, layout, rows, elems, vars


def write_snapshot(path, values: np.ndarray, order: int, layout: str = "cg",
                   n_elements: int = 0) -> None:
    """Write a field snapshot: fixed header then little-endian float64 rows.

    CG layout stores (n_unique, n_vars) in ascending grid-point id; DG
    layout stores (E, (p+1)^3, n_vars) in element order, x fastest.
    """
    arr = np.ascontiguousarray(values, dtype="<f8")
    rows = arr.shape[0] if layout == "cg" else arr.shape[0] * arr.shape[1]
    nv = arr.shape[-1]
    with open(path, "wb") as f:
        f.write(_HEADER.pack(_MAGIC, _VERSION, order, _LAYOUT_TAGS[layout],
                             rows, n_elements, nv))
        f.write(arr.tobytes())


def read_snapshot(path):
    """Read a snapshot written by :func:`write_snapshot`.

    Returns (values, meta) where meta carries order, layout, and counts.
    """
    with open(path, "rb") as f:
        head = f.read(_HEADER.size)
        if len(head) != _HEADER.size:
            raise ProtocolError("snapshot header truncated")
        magic, version, order, tag, rows, n_elements, nv = _HEADER.unpack(head)
        if magic != _MAGIC:
            raise ProtocolError(f"bad snapshot magic {magic!r}")
        if version != _VERSION:
            raise ProtocolError(f"unsupported snapshot version {version}")
        payload = np.frombuffer(f.read(), dtype="<f8")
    if payload.size != rows * nv:
        raise ProtocolError(f"snapshot payload has {payload.size} values, "
                            f"expected {rows * nv}")
    layout = "cg" if tag == 0 else "dg"
    values = payload.reshape(rows, nv)
    if layout == "dg":
        nn = (order + 1) ** 3
        values = values.reshape(n_elements, nn, nv)
    meta = {"order": order, "layout": layout, "rows": rows,
            "n_elements": n_elements, "n_vars": nv}
    return values, meta
