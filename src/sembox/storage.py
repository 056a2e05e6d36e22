"""Field layouts, direct stiffness summation, and halo exchange.

Two layouts hold the five prognostic variables (rho, rho*u, rho*v,
rho*w, Theta):

* CG storage: one row per unique grid point, shape (n_unique, 5);
* DG storage: per-element blocks with duplicated interface values,
  shape (E, (p+1)^3, 5), x fastest within the block.

Assembly (DSS) sums the weighted per-element contributions at every
grid point and multiplies by the inverse of the diagonal mass matrix.
Every point sums its entries in ascending global element id from +0.0,
so every partition count gives the same bits.  One kernel sums them
rank by rank, a rank being an entry's place in that order at its point
(:func:`_accumulate` over a :func:`~sembox.mesh.rank_major_plan`: one
gather per rank, added into the prefix of points that have that rank),
over a partition's own elements and over the contributions at points
shared between partitions.  Partitions are contiguous element ranges
that serialize their shared contributions in element order and exchange
them raw (one value per contributing element); the fold takes the
messages from lower partitions, its own serialization, then those from
higher partitions: global element order at every shared point.  The
contributions come node-major, as the element kernels write them
(:func:`~sembox.mesh.node_major`, (p+1, p+1, E, p+1, 5)); the own-point
plan (:attr:`CgNumbering.assembly_plan`) and the serialization index
take their rows from :func:`~sembox.mesh.node_major_rows`.

:meth:`PartitionLayout.exchange` is the engine's one assembly (serial is
its one-partition case),
:class:`Mailboxes` its one in-process transport (one FIFO per sending
pair) and :meth:`Mailboxes.run` the one launcher of partitioned work
(partition 0 on the calling thread), used by the run's workers and by
:func:`halo_exchange` alike.  The exchange returns partition-local
arrays: one row per point the partition's elements touch, in ascending
global order (``plans[t].own_gids``); one partition is the whole mesh.

The engine keeps its state in CG storage; element kernels read
DG-layout blocks gathered from it.  DG and hybrid storage are priced by
the performance model only (``perf_model.SCHEMES``).
"""

from dataclasses import dataclass, field
import queue
import struct
import threading

import numpy as np

from .mesh import (ColumnMesh, CgNumbering, Partition, node_major_rows,
                   rank_major_plan)

N_VARS = 5


class ProtocolError(RuntimeError):
    """Halo message does not match the precomputed exchange plan."""


def _accumulate(values: np.ndarray, plan: tuple[np.ndarray, list]) -> np.ndarray:
    """Sum of the entries (rows of ``values`` over its last axis) at each
    point: a :func:`~sembox.mesh.rank_major_plan` run as rank 0 of every
    point plus +0.0, then each further rank added into the prefix of
    points that have it, then the points put back in their own order.
    """
    point_pos, chunks = plan
    flat = values.reshape(-1, values.shape[-1])
    acc = np.take(flat, chunks[0], axis=0)
    acc += 0.0                     # the sum starts from +0.0
    for chunk in chunks[1:]:
        acc[:chunk.size] += np.take(flat, chunk, axis=0)
    return np.take(acc, point_pos, axis=0)


# ---------------------------------------------------------------------------
# Partitioned assembly
# ---------------------------------------------------------------------------

@dataclass
class _PartPlan:
    """Static per-partition pieces of the exchange and fold.

    The partition's entries at shared points (one per element node there)
    are serialized in element order; ``fold_plan`` sums them with the
    received ones rank by rank at each shared point, lower partitions'
    messages first and higher ones' last: global element order.
    """

    elem_start: int
    elem_stop: int
    numbering: CgNumbering         # of the points the partition touches
    own_gids: np.ndarray           # global id of each local point
    owned: np.ndarray              # local ids no lower partition touches
    shared: np.ndarray             # local ids also touched by other partitions
    ser_idx: np.ndarray            # serialization: row of contrib.reshape(-1, 5)
                                   # (node-major), in element order
    msg_send: dict = field(default_factory=dict)  # u -> serialization index
    recv_len: dict = field(default_factory=dict)  # s -> entries s sends
    fold_plan: tuple | None = None  # rank_major_plan of the fold's entries


class PartitionLayout:
    """Everything static that partitioned assembly needs, built once.

    Each partition numbers the points its elements touch locally
    (:meth:`CgNumbering.restrict`); its arrays hold only those rows.  A
    partition serializes its contributions at shared points in element
    order; a halo message to a neighbor is a sub-slice of that
    serialization, so send and receive sides agree on the layout by
    construction.  The fold sums own and received entries rank by rank
    from +0.0 in global element order (:class:`_PartPlan`), the order
    the own-point plan sums in too, so every partition count, one
    included, sums each point in the same order and gives the same bits.
    """

    def __init__(self, mesh: ColumnMesh, numbering: CgNumbering,
                 parts: list[Partition]):
        ends = [0] + [part.elem_stop for part in parts]
        for part, start in zip(parts, ends):
            if part.elem_start != start:
                raise ValueError(f"partition {part.part_id} starts at element "
                                 f"{part.elem_start}, not {start}")
            if part.elem_stop < start:
                raise ValueError(f"partition {part.part_id} stops at element "
                                 f"{part.elem_stop}, before its start {start}")
        if ends[-1] != mesh.n_elements:
            raise ValueError(f"partition {parts[-1].part_id} ends at element "
                             f"{ends[-1]}, not {mesh.n_elements}")

        local = [numbering.restrict(part.elem_start, part.elem_stop)
                 for part in parts]
        touch_count = np.zeros(numbering.n_unique, dtype=np.int32)
        owned = []
        for _, own in local:
            owned.append(np.flatnonzero(touch_count[own] == 0))
            touch_count[own] += 1
        is_shared = touch_count >= 2

        # every element node at a shared point, by flat id; partition t's
        # are a contiguous run, its serialization
        gids = numbering.global_ids.ravel()
        entries = np.flatnonzero(is_shared[gids])
        point = gids[entries]
        nn = numbering.n_node_per_elem
        bounds = np.searchsorted(entries, np.multiply(ends, nn))
        mine = [np.arange(a, b) for a, b in zip(bounds[:-1], bounds[1:])]

        # the serialization keeps element order and indexes the rows of
        # the node-major contributions (one partition has none to index)
        self.plans = []
        for part, (num, own), first, m in zip(parts, local, owned, mine):
            ser = entries[m] - part.elem_start * nn
            if ser.size:
                ser = node_major_rows(part.n_elements, num.order + 1)[ser]
            self.plans.append(_PartPlan(
                elem_start=part.elem_start, elem_stop=part.elem_stop,
                numbering=num, own_gids=own, owned=first,
                shared=np.flatnonzero(is_shared[own]), ser_idx=ser))

        n_at = np.bincount(point)      # the whole mesh's entries per point
        for u, plan in enumerate(self.plans):
            # t sends u the entries of its serialization at points u
            # touches; both sides derive the same slice.  The fold takes
            # them in partition order, u's own in its place, so each
            # point's entries come in global element order
            k = []
            for t, src in enumerate(self.plans):
                if t == u:
                    k.append(mine[u])
                    continue
                sel = np.flatnonzero(np.isin(point[mine[t]], plan.own_gids))
                if sel.size:
                    src.msg_send[u] = sel
                    plan.recv_len[t] = sel.size
                    k.append(mine[t][sel])
            if not plan.shared.size:   # one partition: nothing is shared
                continue
            k = np.concatenate(k)
            at = plan.own_gids[plan.shared]
            slot = np.searchsorted(at, point[k])
            if not np.array_equal(np.bincount(slot, minlength=at.size),
                                  n_at[at]):
                raise ProtocolError(f"partition {u}: own and received entries "
                                    "do not hold the whole mesh's entries "
                                    "at each shared point")
            plan.fold_plan = rank_major_plan(slot, at.size)

    # -- runtime pieces ----------------------------------------------------

    def accumulate_own(self, t: int, contrib: np.ndarray) -> np.ndarray:
        """Element-order sum of partition t's contributions at its points."""
        return _accumulate(contrib, self.plans[t].numbering.assembly_plan)

    def serialize_shared(self, t: int, contrib: np.ndarray) -> np.ndarray:
        """Raw contributions of partition t at shared points, element order."""
        return contrib.reshape(-1, contrib.shape[-1])[self.plans[t].ser_idx]

    def outgoing(self, t: int, ser: np.ndarray) -> dict[int, np.ndarray]:
        """Halo messages from partition t, keyed by destination."""
        return {u: ser[sel] for u, sel in self.plans[t].msg_send.items()}

    def fold_shared(self, t: int, acc: np.ndarray, ser: np.ndarray,
                    received: dict[int, np.ndarray]) -> None:
        """Overwrite acc at t's shared points with their element-order sum."""
        plan = self.plans[t]
        if plan.fold_plan is None:     # one partition: nothing is shared
            return
        for u, n in plan.recv_len.items():
            got = received.get(u)
            if got is None or got.shape[0] != n:
                raise ProtocolError(
                    f"partition {t}: message from {u} has "
                    f"{None if got is None else got.shape[0]} entries, "
                    f"expected {n}")
        acc[plan.shared] = _accumulate(
            np.concatenate([ser if u == t else received[u]
                            for u in sorted([*plan.recv_len, t])]),
            plan.fold_plan)

    def exchange(self, t: int, contrib: np.ndarray,
                 mail: "Mailboxes") -> np.ndarray:
        """Partition t's assembled array, one row per local point, from
        its node-major contributions ``contrib`` (..., 5).

        Serialize, post the halo messages, accumulate own elements while
        they travel, fold what arrives, scale by the inverse mass.
        """
        ser = self.serialize_shared(t, contrib)
        mail.post(t, self.outgoing(t, ser))
        acc = self.accumulate_own(t, contrib)
        self.fold_shared(t, acc, ser, mail.wait(t))
        acc *= self.plans[t].numbering.inv_mass[:, None]
        return acc


# longest wait, in seconds, for one halo message before it counts as lost
WAIT_TIMEOUT_S = 60.0


class NeighborStopped(RuntimeError):
    """A partition this one waits on stopped before posting."""


class MessageLost(ProtocolError):
    """A halo message did not arrive, or another exchange's came instead."""


class Mailboxes:
    """In-process transport: one FIFO per sending pair of partitions.

    Every partition runs the same sequence of exchanges, counted from 0;
    a message carries its sender's count, so one that is lost is noticed
    at its own exchange, raising :class:`MessageLost` when another
    exchange's message comes instead or none comes in ``WAIT_TIMEOUT_S``.
    A partition that stops for any reason calls :meth:`abort`; the
    neighbours waiting on it raise :class:`NeighborStopped`, stop and
    abort in turn; :meth:`run` applies that rule to every partition.
    """

    def __init__(self, layout: PartitionLayout):
        self.plans = layout.plans
        self.fifo = {(t, u): queue.SimpleQueue()
                     for t, plan in enumerate(self.plans) for u in plan.msg_send}
        self.n_posts = [0] * len(self.plans)
        self.n_waits = [0] * len(self.plans)

    def post(self, t: int, messages: dict[int, np.ndarray]) -> None:
        for u, msg in messages.items():
            self.fifo[t, u].put((self.n_posts[t], msg))
        self.n_posts[t] += 1

    def wait(self, t: int) -> dict[int, np.ndarray]:
        """Block until every neighbour's message to t is in."""
        exchange = self.n_waits[t]
        self.n_waits[t] += 1
        received = {}
        for s in self.plans[t].recv_len:
            lost = f"message {s} -> {t} of exchange {exchange} lost"
            try:
                item = self.fifo[s, t].get(timeout=WAIT_TIMEOUT_S)
            except queue.Empty:
                raise MessageLost(f"{lost}: none came in {WAIT_TIMEOUT_S} s"
                                  ) from None
            if item is None:
                raise NeighborStopped(f"partition {s} stopped")
            if item[0] != exchange:
                raise MessageLost(f"{lost}: exchange {item[0]}'s came instead")
            received[s] = item[1]
        return received

    def abort(self, t: int) -> None:
        for u in self.plans[t].msg_send:
            self.fifo[t, u].put(None)

    def run(self, work) -> tuple[list, list]:
        """Call ``work(t)`` for every partition t: partition 0 on the
        calling thread, each other one on a daemon thread of its own.

        A call that raises aborts t's mailboxes.  Returns each partition's
        result and exception: None where the call finished, and
        :class:`NeighborStopped` where a neighbour's stop ended it."""
        n = len(self.plans)
        results, errors = [None] * n, [None] * n

        def call(t):
            try:
                results[t] = work(t)
            except BaseException as exc:   # an interrupt releases them too
                self.abort(t)
                errors[t] = exc

        threads = [threading.Thread(target=call, args=(t,), daemon=True)
                   for t in range(1, n)]
        for th in threads:
            th.start()
        call(0)
        for th in threads:
            th.join()
        return results, errors


def halo_exchange(layout: PartitionLayout,
                  contribs: list[np.ndarray]) -> list[np.ndarray]:
    """One :meth:`PartitionLayout.exchange` per partition, started by
    :meth:`Mailboxes.run`; the lowest partition's fault is raised.

    Returns one assembled array per partition, with a row for each of its
    local points (``plans[t].own_gids``); all copies of a shared point
    hold the identical value.  Partition t's contributions must be
    node-major, (p+1, p+1, E_t, p+1, variables); any other shape raises
    ``ValueError`` before an exchange starts.
    """
    for t, (plan, contrib) in enumerate(zip(layout.plans, contribs)):
        n, E = plan.numbering.order + 1, plan.elem_stop - plan.elem_start
        if contrib.ndim != 5 or contrib.shape[:4] != (n, n, E, n):
            raise ValueError(f"partition {t}: contributions of shape "
                             f"{contrib.shape}, expected node-major "
                             f"({n}, {n}, {E}, {n}, variables)")
    mail = Mailboxes(layout)
    outs, errors = mail.run(lambda t: layout.exchange(t, contribs[t], mail))
    for exc in errors:
        if exc is not None and not isinstance(exc, NeighborStopped):
            raise exc
    return outs


# ---------------------------------------------------------------------------
# Reference atmosphere
# ---------------------------------------------------------------------------

@dataclass
class ReferenceAtmosphere:
    """Frozen hydrostatic background (rho_bar, p_bar) at unique points,
    built once from the analytic profile.

    The perturbation pressure subtracts p_bar at unique points
    (:func:`~sembox.dynamics.element_pressure`); the element kernel reads
    only rho_bar, gathered to its element nodes, for the gravity source.
    """

    theta0: float
    cg: np.ndarray        # (n_unique, 2)

    @property
    def pressure(self) -> np.ndarray:
        return self.cg[:, 1]


# ---------------------------------------------------------------------------
# Binary snapshots
# ---------------------------------------------------------------------------

_MAGIC = b"SBXS"
_VERSION = 1
_LAYOUT_CG = 0      # the one layout tag; elems is always 0
_HEADER = struct.Struct("<4sIIIQQI4x")  # magic, version, p, layout, rows, elems, vars


def write_snapshot(path, values: np.ndarray, order: int) -> None:
    """Write a field snapshot: fixed header then little-endian float64 rows,
    (n_unique, n_vars) in ascending grid-point id.  The rows go out
    through the buffer protocol, so a C-contiguous float64 ``values`` is
    written without a copy."""
    arr = np.ascontiguousarray(values, dtype="<f8")
    nv = arr.shape[-1]
    with open(path, "wb") as f:
        f.write(_HEADER.pack(_MAGIC, _VERSION, order, _LAYOUT_CG,
                             arr.size // nv, 0, nv))
        f.write(arr)


def read_snapshot(path):
    """Read a snapshot written by :func:`write_snapshot`.

    Returns (values, meta) where meta carries order, layout and counts.
    Any layout tag but CG's (DG's 1 included) is refused.
    """
    with open(path, "rb") as f:
        head = f.read(_HEADER.size)
        if len(head) != _HEADER.size:
            raise ProtocolError("snapshot header truncated")
        magic, version, order, tag, rows, _, nv = _HEADER.unpack(head)
        if magic != _MAGIC:
            raise ProtocolError(f"bad snapshot magic {magic!r}")
        if version != _VERSION:
            raise ProtocolError(f"unsupported snapshot version {version}")
        if tag != _LAYOUT_CG:
            raise ProtocolError(f"unknown snapshot layout tag {tag}")
        payload = f.read()
    if len(payload) != 8 * rows * nv:
        raise ProtocolError(f"snapshot payload has {len(payload)} bytes, "
                            f"expected {8 * rows * nv}")
    values = np.frombuffer(payload, dtype="<f8").reshape(rows, nv)
    meta = {"order": order, "layout": "cg", "rows": rows, "n_vars": nv}
    return values, meta
