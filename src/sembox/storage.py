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
produce bit-identical results: a partition accumulates its elements
color batch by color batch, as serial assembly does over the whole
mesh, and contributions at nodes shared between partitions are
exchanged raw (one value per contributing element) into fixed rank
slots -- the rank being the contribution's place in that global order
at its point -- and the slots are summed rank by rank.

:meth:`PartitionLayout.exchange` is the one partitioned assembly, and
:class:`Mailboxes` its one in-process transport (one FIFO per sending
pair), used by the run's workers and by :func:`halo_exchange` alike.
It returns partition-local arrays: one row per point the partition's
elements touch, in ascending global order (``plans[t].own_gids``); one
partition is the whole mesh.  The
engine runs the CG and DG layouts; the hybrid (``cg-dg``) is priced by
the performance model only.
"""

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
import queue
import struct

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


def _accumulate(contrib: np.ndarray, numbering: CgNumbering) -> np.ndarray:
    """Color-batch sum of per-element contributions at each point."""
    nv = contrib.shape[-1]
    acc = np.zeros((numbering.n_unique, nv))
    flat = contrib.reshape(numbering.global_ids.shape[0], -1, nv)
    for batch, tgt in zip(numbering.color_batches, numbering.batch_targets):
        acc[tgt] += flat[batch].reshape(-1, nv)
    return acc


def dss(contrib: np.ndarray, numbering: CgNumbering) -> np.ndarray:
    """Serial direct stiffness summation of per-element contributions.

    ``contrib`` has DG layout and already carries the J*w weighting, as the
    right-hand-side kernel produces it.  Contributions at a shared point are
    summed in ascending (color, element) order, then multiplied by the
    inverse mass.
    """
    acc = _accumulate(contrib, numbering)
    acc *= numbering.inv_mass[:, None]
    return acc


# ---------------------------------------------------------------------------
# Partitioned assembly
# ---------------------------------------------------------------------------

@dataclass
class _PartPlan:
    """Static per-partition pieces of the exchange and fold.

    A raw contribution at the partition's i-th shared point whose rank
    in the canonical (color, element) order at that point is r has slot
    ``r * shared.size + i``; every contribution there has its own slot.
    """

    elem_start: int
    elem_stop: int
    numbering: CgNumbering         # of the points the partition touches
    own_gids: np.ndarray           # global id of each local point
    owned: np.ndarray              # local ids no lower partition touches
    shared: np.ndarray             # local ids also touched by other partitions
    ser_elem: np.ndarray           # serialization: local element index
    ser_slot: np.ndarray           # serialization: node slot within element
    ser_slots: np.ndarray          # rank slot of each serialized entry
    n_ranks: int = 0               # most contributions at one shared point
    msg_send: dict = field(default_factory=dict)    # u -> serialization index
    recv_slots: dict = field(default_factory=dict)  # s -> slot of each entry


class PartitionLayout:
    """Everything static that partitioned assembly needs, built once.

    Each partition numbers the points its elements touch locally
    (:meth:`CgNumbering.restrict`); its arrays hold only those rows.  The
    serialization of a partition's contributions at shared points is
    ordered by (gid, color, element); a halo message to a neighbor is a
    sub-slice of that serialization, so send and receive sides agree on
    the layout by construction.  Own and received entries land in their
    rank slots (:class:`_PartPlan`), and the fold sums the slots rank by
    rank from +0.0, which is the serial assembly's order at every shared
    point and keeps results bit-identical to it.
    """

    def __init__(self, mesh: ColumnMesh, numbering: CgNumbering,
                 parts: list[Partition]):
        self.n_parts = len(parts)
        gids = numbering.global_ids

        owner_elem = np.empty(gids.shape[0], dtype=np.int64)
        for part in parts:
            owner_elem[part.elem_start:part.elem_stop] = part.part_id

        local = [numbering.restrict(part.elem_start, part.elem_stop)
                 for part in parts]
        touch_count = np.zeros(numbering.n_unique, dtype=np.int32)
        owned = []
        for _, own in local:
            owned.append(np.flatnonzero(touch_count[own] == 0))
            touch_count[own] += 1
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

        # per-partition serialization order: (gid, color, elem) restricted to
        # the partition's own entries; a stable sort by owner preserves it
        ser_of = [np.flatnonzero(own_all == t) for t in range(self.n_parts)]

        def rank_slots(at, k):
            """Rank slots of contributions k among the shared gids ``at``."""
            return pos_all[k] * at.size + np.searchsorted(at, g_all[k])

        self.plans: list[_PartPlan] = []
        for part, (num, own), first in zip(parts, local, owned):
            mine = ser_of[part.part_id]
            shared = np.flatnonzero(is_shared[own])
            self.plans.append(_PartPlan(
                elem_start=part.elem_start, elem_stop=part.elem_stop,
                numbering=num, own_gids=own, owned=first, shared=shared,
                ser_elem=e_all[mine] - part.elem_start,
                ser_slot=slot_all[mine],
                ser_slots=rank_slots(own[shared], mine),
            ))

        # messages: t sends the entries of its serialization whose gid is
        # also touched by u; both sides can derive the same slice
        for t in range(self.n_parts):
            mine = ser_of[t]
            for u, plan in enumerate(self.plans):
                if u == t:
                    continue
                sel = np.flatnonzero(np.isin(g_all[mine], plan.own_gids))
                if sel.size:
                    self.plans[t].msg_send[u] = sel
                    plan.recv_slots[t] = rank_slots(plan.own_gids[plan.shared],
                                                    mine[sel])

        # own and received entries fill the slot of every contribution at
        # a partition's shared points exactly once
        for t, plan in enumerate(self.plans):
            n_at = counts[np.searchsorted(uniq, plan.own_gids[plan.shared])]
            plan.n_ranks = int(n_at.max(initial=0))
            filled = np.concatenate([plan.ser_slots,
                                     *plan.recv_slots.values()])
            if (filled.size != n_at.sum()
                    or np.unique(filled).size != filled.size):
                raise ProtocolError(f"partition {t}: own and received entries "
                                    "do not fill each shared slot once")

    # -- runtime pieces ----------------------------------------------------

    def accumulate_own(self, t: int, contrib: np.ndarray) -> np.ndarray:
        """Color-batch accumulation of partition t's contributions."""
        return _accumulate(contrib, self.plans[t].numbering)

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
        n, nv = plan.shared.size, acc.shape[1]
        if n == 0:                     # one partition: nothing is shared
            return
        slots = np.zeros((plan.n_ranks * n, nv))
        slots[plan.ser_slots] = ser
        for u, at in plan.recv_slots.items():
            got = received.get(u)
            if got is None or got.shape[0] != at.size:
                raise ProtocolError(
                    f"partition {t}: message from {u} has "
                    f"{None if got is None else got.shape[0]} entries, "
                    f"expected {at.size}")
            slots[at] = got
        # rank by rank from +0.0, as the serial sum runs at every point
        acc[plan.shared] = sum(slots.reshape(plan.n_ranks, n, nv),
                               np.zeros((n, nv)))

    def exchange(self, t: int, contrib: np.ndarray,
                 mail: "Mailboxes") -> np.ndarray:
        """Partition t's assembled array, one row per local point.

        Serialize, post the halo messages, accumulate own elements while
        they travel, fold what arrives, scale by the inverse mass.
        """
        ser = self.serialize_shared(t, contrib)
        mail.post(t, self.outgoing(t, ser))
        acc = self.accumulate_own(t, contrib)
        self.fold_shared(t, acc, ser, mail.wait(t))
        acc *= self.plans[t].numbering.inv_mass[:, None]
        return acc


class NeighborStopped(RuntimeError):
    """A partition this one waits on stopped before posting."""


class Mailboxes:
    """In-process transport: one FIFO per sending pair of partitions.

    Every partition runs the same sequence of exchanges, so the n-th
    message on a pair belongs to the n-th exchange.  A partition that
    stops for any reason calls :meth:`abort`; the neighbours waiting on
    it raise :class:`NeighborStopped`, stop and abort in turn.
    """

    def __init__(self, layout: PartitionLayout):
        self.plans = layout.plans
        self.fifo = {(t, u): queue.SimpleQueue()
                     for t, plan in enumerate(self.plans) for u in plan.msg_send}

    def post(self, t: int, messages: dict[int, np.ndarray]) -> None:
        for u, msg in messages.items():
            self.fifo[t, u].put(msg)

    def wait(self, t: int) -> dict[int, np.ndarray]:
        """Block until every neighbour's message to t is in."""
        received = {}
        for s in self.plans[t].recv_slots:
            received[s] = self.fifo[s, t].get()
            if received[s] is None:
                raise NeighborStopped(f"partition {s} stopped")
        return received

    def abort(self, t: int) -> None:
        for u in self.plans[t].msg_send:
            self.fifo[t, u].put(None)


def halo_exchange(layout: PartitionLayout,
                  contribs: list[np.ndarray]) -> list[np.ndarray]:
    """One :meth:`PartitionLayout.exchange` per partition, one thread each.

    Returns one assembled array per partition, with a row for each of its
    local points (``plans[t].own_gids``); all copies of a shared point
    hold the identical value.
    """
    mail = Mailboxes(layout)

    def assemble(t):
        try:
            return layout.exchange(t, contribs[t], mail)
        except BaseException as exc:
            mail.abort(t)
            if isinstance(exc, NeighborStopped):
                return None       # the partition that stopped first raises
            raise

    with ThreadPoolExecutor(max_workers=layout.n_parts) as pool:
        return list(pool.map(assemble, range(layout.n_parts)))


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
