"""Rising-bubble driver: initialization, time loop, scaling experiments.

The driver owns the end-to-end pattern: build the discretization, freeze
the Courant-limited timestep, then march stages of
right-hand-side -> exchange/assemble -> update -> wall projection, with
the low-pass filter (and its own exchange) closing each step.  Every
partition runs in its own worker (a thread when there are several) and
the only cross-worker data are the halo messages.  A worker keeps only
its transport, phase timing and stage loop; pressure, filter, walls and
the exchange sequence are the serial operators' own code
(``dynamics``, ``PartitionLayout.exchange``), so any worker count gives
``rk_step`` over ``create_rhs`` bit for bit.
"""

from dataclasses import dataclass
import os
import queue
import threading
import time

import numpy as np

from .reference_element import ReferenceElement
from .mesh import (MetricTerms, build_box_mesh, compute_metrics,
                   build_cg_numbering, partition_columns)
from .storage import (N_VARS, SCHEME_CG, ENGINE_SCHEMES, PartitionLayout,
                      ReferenceAtmosphere, write_snapshot)
from .dynamics import (Discretization, GasConstants, RhsWorkspace,
                       DivergedStateError, StateValidityError, apply_boundary,
                       element_pressure, filter_contributions,
                       rhs_element_contributions)
from .time_integration import (DEFAULT_SCHEME, TimestepControl, compute_dt)
from .perf_model import SimConfig, count_costs


class ConfigError(ValueError):
    pass


@dataclass
class BubbleConfig:
    """Rising thermal bubble in a box: geometry, physics and run control."""

    extents: tuple = (1000.0, 1000.0, 1000.0)
    theta0: float = 300.0          # K, neutral background
    theta_pert: float = 0.5        # K, bubble amplitude
    radius: float = 250.0          # m
    center: tuple = (500.0, 500.0, 350.0)
    nx: int = 8
    ny: int = 8
    layers: int = 10
    order: int = 3
    courant_h: float = 0.4
    courant_v: float = 0.7
    end_time: float | None = None
    n_steps: int | None = 100
    filter_mu: float = 0.05
    filter_s: int = 12
    filter_cutoff: int | None = None
    scheme: str = SCHEME_CG
    snapshot_every: int = 0
    warmup_steps: int = 1

    def validate(self):
        if self.theta0 <= 0.0:
            raise ConfigError("background potential temperature must be positive")
        if self.scheme not in ENGINE_SCHEMES:
            raise ConfigError(f"unknown storage scheme {self.scheme!r}")
        for c, L, name in zip(self.center, self.extents, "xyz"):
            if c - self.radius < 0.0 or c + self.radius > L:
                raise ConfigError(
                    f"perturbation sphere leaves the domain along {name}")
        if self.end_time is None and self.n_steps is None:
            raise ConfigError("need end_time or n_steps")
        return self


def build_discretization(config: BubbleConfig) -> Discretization:
    ref = ReferenceElement.create(config.order, filter_mu=config.filter_mu,
                                  filter_s=config.filter_s,
                                  filter_cutoff=config.filter_cutoff)
    mesh = build_box_mesh(config.nx, config.ny, config.layers, *config.extents)
    metrics = compute_metrics(mesh, ref)
    numbering = build_cg_numbering(mesh, ref, metrics)
    return Discretization(mesh=mesh, ref=ref, metrics=metrics,
                          numbering=numbering)


def init_bubble(config: BubbleConfig, disc: Discretization,
                const: GasConstants):
    """Initial state and frozen background for the bubble test.

    Background: constant potential temperature theta0 in hydrostatic
    balance, p(z) = p0 (1 - g z / (cp theta0))^(cp/R), density from the
    state equation.  Perturbation: cosine bump of potential temperature
    of amplitude theta_pert inside the given sphere, carried by Theta at
    unperturbed density; winds start at rest.
    """
    config.validate()
    coords = disc.numbering.node_coords
    z = coords[:, 2]
    th0 = config.theta0
    exner = 1.0 - const.gravity * z / (const.cp * th0)
    if np.any(exner <= 0.0):
        raise ConfigError("domain too tall for the neutral background")
    p_bar = const.p0 * exner ** (const.cp / const.R)
    t_bar = th0 * exner
    rho_bar = p_bar / (const.R * t_bar)
    dp_dz = -(const.gravity * const.p0 / (const.R * th0)) \
        * exner ** (const.cp / const.R - 1.0)
    ra = ReferenceAtmosphere(
        theta0=th0,
        cg=np.stack([rho_bar, p_bar, rho_bar * th0], axis=1),
        dp_dz=dp_dz,
    )

    r = np.linalg.norm(coords - np.asarray(config.center), axis=1)
    theta_p = np.where(
        r <= config.radius,
        0.5 * config.theta_pert * (1.0 + np.cos(np.pi * np.minimum(r, config.radius)
                                                / config.radius)),
        0.0,
    )
    state = np.zeros((disc.numbering.n_unique, N_VARS))
    state[:, 0] = rho_bar
    state[:, 4] = rho_bar * (th0 + theta_p)
    return state, ra


# ---------------------------------------------------------------------------
# Diagnostics and reporting
# ---------------------------------------------------------------------------

DIAG_FIELDS = ("step", "time", "mass", "theta_min", "theta_max",
               "max_speed", "centroid_z")
PHASES = ("create_rhs", "dss_comm", "filter", "update")


def _diag_partials(state, ra, numbering, node_sel):
    """Mass/extrema partial sums over one owner's node subset."""
    q = state[node_sel]
    M = numbering.mass[node_sel]
    theta_p = q[:, 4] / q[:, 0] - ra.theta0
    w = M * np.maximum(theta_p, 0.0)
    speed2 = np.sum((q[:, 1:4] / q[:, 0:1]) ** 2, axis=1)
    return {
        "mass": float(M @ q[:, 0]),
        "theta_min": float(theta_p.min()),
        "theta_max": float(theta_p.max()),
        "max_speed2": float(speed2.max()),
        "wz": float(w @ numbering.node_coords[node_sel, 2]),
        "w": float(w.sum()),
    }


def _reduce_diags(parts_data, step, t):
    agg = {k: 0.0 for k in ("mass", "wz", "w")}
    tmin, tmax, s2 = np.inf, -np.inf, 0.0
    for d in parts_data:
        agg["mass"] += d["mass"]
        agg["wz"] += d["wz"]
        agg["w"] += d["w"]
        tmin = min(tmin, d["theta_min"])
        tmax = max(tmax, d["theta_max"])
        s2 = max(s2, d["max_speed2"])
    centroid = agg["wz"] / agg["w"] if agg["w"] > 0.0 else float("nan")
    return {"step": step, "time": t, "mass": agg["mass"], "theta_min": tmin,
            "theta_max": tmax, "max_speed": float(np.sqrt(s2)),
            "centroid_z": centroid}


@dataclass
class RunReport:
    """Timings, per-step diagnostics and run metadata.

    ``total_seconds`` covers the timed step loop (warm-up excluded) on the
    slowest worker; ``wall_seconds`` the whole run including setup.
    """

    n_partitions: int
    n_steps: int
    dt: float
    phase_seconds: dict
    total_seconds: float
    wall_seconds: float
    timed_steps: int
    diagnostics: list
    cores: int
    oversubscribed: bool
    est_flops: float = 0.0   # ledger estimate for the timed steps
    failed_step: int | None = None

    @property
    def est_flop_rate(self) -> float:
        """Model-estimated flops over measured wall time (no counters)."""
        if self.total_seconds <= 0.0 or self.est_flops <= 0.0:
            return 0.0
        return self.est_flops / self.total_seconds

    @property
    def mass_drift(self) -> float:
        m0 = self.diagnostics[0]["mass"]
        return max(abs(d["mass"] - m0) for d in self.diagnostics) / abs(m0)

    def diagnostics_csv(self) -> str:
        lines = [",".join(DIAG_FIELDS)]
        for d in self.diagnostics:
            lines.append(",".join(repr(d[k]) for k in DIAG_FIELDS))
        return "\n".join(lines) + "\n"

    def summary(self) -> str:
        lines = [
            f"partitions: {self.n_partitions}  steps: {self.n_steps}  dt: {self.dt:.6g} s",
            f"wall time: {self.total_seconds:.3f} s over {self.timed_steps} timed steps",
        ]
        if self.oversubscribed:
            lines.append(f"note: {self.n_partitions} workers oversubscribe "
                         f"{self.cores} available cores")
        for ph in PHASES:
            lines.append(f"  {ph:10s} {self.phase_seconds.get(ph, 0.0):9.3f} s")
        if self.est_flop_rate > 0.0:
            lines.append(f"model-estimated flop rate: "
                         f"{self.est_flop_rate / 1e9:.3f} Gflop/s "
                         f"(ledger flops over wall time, no hardware counters)")
        if self.failed_step is not None:
            lines.append(f"DIVERGED at step {self.failed_step}")
        if self.diagnostics:
            d = self.diagnostics[-1]
            lines.append("final diagnostics: mass %.6e  theta' in [%.4g, %.4g]  "
                         "max|u| %.4g  centroid z %.2f"
                         % (d["mass"], d["theta_min"], d["theta_max"],
                            d["max_speed"], d["centroid_z"]))
        return "\n".join(lines)


def strong_scaling_efficiency(t_base: float, n_base: int, t: float, n: int) -> float:
    """Efficiency of a run against a baseline: t0*T0 / (t*T)."""
    return (t_base * n_base) / (t * n)


# ---------------------------------------------------------------------------
# Partition worker
# ---------------------------------------------------------------------------

class _Channels:
    """Point-to-point queues between workers plus collector sinks."""

    def __init__(self, n):
        self.inbox = [queue.Queue() for _ in range(n)]
        self.diag = queue.Queue()
        self.snapshots = queue.Queue()

    def send(self, dest, phase, source, payload):
        self.inbox[dest].put((phase, source, payload))

    def abort(self, source):
        # unblock every neighbor; sentinels cascade until all workers stop
        for dest, box in enumerate(self.inbox):
            if dest != source:
                box.put((-1, source, None))


class _AbortedByNeighbor(RuntimeError):
    pass


class _Worker:
    """One partition's full time loop; communicates only through channels."""

    def __init__(self, part_id: int, layout: PartitionLayout,
                 disc: Discretization, const: GasConstants,
                 ra: ReferenceAtmosphere, config: BubbleConfig,
                 channels: _Channels, dt: float, n_steps: int):
        self.t = part_id
        self.layout = layout
        self.disc = disc
        self.const = const
        self.ra = ra
        self.config = config
        self.ch = channels
        self.dt = dt
        self.n_steps = n_steps
        plan = layout.plans[part_id]
        self.plan = plan
        self.elems = slice(plan.elem_start, plan.elem_stop)
        self.gids = disc.numbering.global_ids[self.elems]
        n = disc.ref.n_nodes
        self.metrics_view = _metric_slice(disc.metrics, self.elems)
        self.ws = RhsWorkspace.create(plan.elem_stop - plan.elem_start, n)
        self.ra_el = ra.cg[self.gids]
        self.phase_counter = 0
        self.pending = {}
        self.phase_seconds = {ph: 0.0 for ph in PHASES}
        self.timing = False
        self.failed: Exception | None = None

    # -- messaging ---------------------------------------------------------

    def _post(self, messages):
        for dest, msg in messages.items():
            self.ch.send(dest, self.phase_counter, self.t, msg)

    def _receive(self):
        """Block until every neighbor's message of this exchange is in."""
        phase = self.phase_counter
        received = self.pending.pop(phase, {})
        expected = set(self.plan.msg_len_recv)
        while expected - set(received):
            ph, src, payload = self.ch.inbox[self.t].get()
            if payload is None:
                raise _AbortedByNeighbor(f"partition {src} stopped")
            if ph == phase:
                received[src] = payload
            else:
                self.pending.setdefault(ph, {})[src] = payload
        return received

    def _exchange(self, contrib):
        t0 = time.perf_counter()
        out = self.layout.exchange(self.t, contrib, self._post, self._receive)
        self.phase_counter += 1
        self._time("dss_comm", t0)
        return out

    def _time(self, phase, t0):
        if self.timing:
            self.phase_seconds[phase] += time.perf_counter() - t0

    # -- physics phases ------------------------------------------------------

    def _rhs(self, state):
        t0 = time.perf_counter()
        p_el = element_pressure(state, self.gids, self.plan.own_gids, self.ra,
                                self.const, self.config.scheme)
        contrib = rhs_element_contributions(
            state[self.gids], self.ra_el, self.metrics_view, self.disc.ref,
            self.const, ws=self.ws, p_prime_el=p_el)
        self._time("create_rhs", t0)
        return self._exchange(contrib)

    def _filter(self, state):
        t0 = time.perf_counter()
        contrib = filter_contributions(state, self.gids, self.metrics_view.jw,
                                       self.disc.ref)
        self._time("filter", t0)
        if contrib is None:
            return state
        return apply_boundary(self._exchange(contrib), self.disc.numbering)

    # -- the loop ------------------------------------------------------------

    def run(self, state0):
        scheme = DEFAULT_SCHEME
        state = apply_boundary(state0.copy(), self.disc.numbering)
        self.ch.diag.put((0, self.t, _diag_partials(
            state, self.ra, self.disc.numbering, self.diag_nodes)))
        self.loop_seconds = 0.0
        self.failed_step = None
        try:
            for step in range(1, self.n_steps + 1):
                self.timing = step > self.config.warmup_steps
                step_t0 = time.perf_counter()
                stages = [state]
                for i in range(scheme.stages):
                    k, bt = scheme.beta[i]
                    f = self._rhs(stages[k])
                    t0 = time.perf_counter()
                    new = None
                    for j, a in scheme.alpha[i]:
                        term = a * stages[j]
                        new = term if new is None else new + term
                    new += (self.dt * bt) * f
                    apply_boundary(new, self.disc.numbering)
                    self._time("update", t0)
                    stages.append(new)
                state = self._filter(stages[-1])
                if self.timing:
                    self.loop_seconds += time.perf_counter() - step_t0
                self.ch.diag.put((step, self.t, _diag_partials(
                    state, self.ra, self.disc.numbering, self.diag_nodes)))
                every = self.config.snapshot_every
                if every and step % every == 0:
                    self.ch.snapshots.put((step, self.t, state[self.diag_nodes]))
        except (DivergedStateError, StateValidityError) as exc:
            self.failed = exc
            self.failed_step = step
            self.ch.abort(self.t)
        except _AbortedByNeighbor:
            self.failed_step = step
        self.final_state = state


def _metric_slice(metrics, sl):
    return MetricTerms(coords=metrics.coords[sl], jacobian=metrics.jacobian[sl],
                       dxi_dx=metrics.dxi_dx[sl], jw=metrics.jw[sl])


def _ledger_flops(config: BubbleConfig, timed_steps: int) -> float:
    """Analytic flop estimate for the timed portion of a run."""
    if timed_steps <= 0:
        return 0.0
    sim = SimConfig(order=config.order,
                    elements=(config.nx, config.ny, config.layers),
                    machines=1, timesteps=timed_steps, scheme=config.scheme)
    return count_costs(sim, raw=True)["total"].flops


# ---------------------------------------------------------------------------
# Run driver
# ---------------------------------------------------------------------------

def run_bubble(config: BubbleConfig, n_partitions: int = 1,
               const: GasConstants | None = None,
               out_dir: str | None = None):
    """Run the bubble test on ``n_partitions`` workers.

    Returns (RunReport, final_state).  Snapshots and the diagnostics CSV
    land in ``out_dir`` when given.
    """
    config.validate()
    const = const or GasConstants()
    disc = build_discretization(config)
    state0, ra = init_bubble(config, disc, const)

    control = TimestepControl(courant_h=config.courant_h,
                              courant_v=config.courant_v,
                              end_time=config.end_time, n_steps=config.n_steps)
    dt = compute_dt(state0, disc, const, control)
    n_steps = control.steps_for(dt) if config.n_steps is None else config.n_steps

    parts = partition_columns(disc.mesh, n_partitions)
    layout = PartitionLayout(disc.mesh, disc.numbering, parts)
    channels = _Channels(n_partitions)

    # node ownership for diagnostics: lowest-id partition touching a node
    owner_node = np.full(disc.numbering.n_unique, -1, dtype=np.int64)
    for t in range(n_partitions - 1, -1, -1):
        owner_node[layout.plans[t].own_gids] = t
    workers = []
    for part in parts:
        w = _Worker(part.part_id, layout, disc, const, ra, config, channels,
                    dt, n_steps)
        w.diag_nodes = np.flatnonzero(owner_node == part.part_id)
        workers.append(w)

    wall0 = time.perf_counter()
    if n_partitions == 1:
        workers[0].run(state0)
    else:
        threads = [threading.Thread(target=w.run, args=(state0,), daemon=True)
                   for w in workers]
        for th in threads:
            th.start()
        for th in threads:
            th.join()
    wall = time.perf_counter() - wall0

    failed_step = min((w.failed_step for w in workers
                       if w.failed_step is not None), default=None)

    # diagnostics: reduce partials in partition order, step by step
    raw: dict[int, dict[int, dict]] = {}
    while not channels.diag.empty():
        step, t, partial = channels.diag.get_nowait()
        raw.setdefault(step, {})[t] = partial
    diags = []
    for step in sorted(raw):
        if len(raw[step]) == n_partitions:
            ordered = [raw[step][t] for t in range(n_partitions)]
            diags.append(_reduce_diags(ordered, step, step * dt))

    final = np.zeros_like(state0)
    for t, w in enumerate(workers):
        sel = np.flatnonzero(owner_node == t)
        final[sel] = w.final_state[sel]

    # breakdown of the critical-path worker, so phases sum to <= total
    slowest = max(workers, key=lambda w: w.loop_seconds)
    cores = os.cpu_count() or 1
    timed_steps = max(0, n_steps - config.warmup_steps)
    report = RunReport(
        n_partitions=n_partitions, n_steps=n_steps, dt=dt,
        phase_seconds=dict(slowest.phase_seconds),
        total_seconds=slowest.loop_seconds,
        wall_seconds=wall,
        timed_steps=timed_steps,
        diagnostics=diags, cores=cores,
        oversubscribed=n_partitions > cores,
        est_flops=_ledger_flops(config, timed_steps),
        failed_step=failed_step,
    )

    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        with open(os.path.join(out_dir, "diagnostics.csv"), "w") as f:
            f.write(report.diagnostics_csv())
        write_snapshot(os.path.join(out_dir, "state.bin"), final,
                       config.order, layout="cg")
        _write_theta_csv(os.path.join(out_dir, "theta.csv"), final, ra, disc)
        snaps: dict[int, np.ndarray] = {}
        while not channels.snapshots.empty():
            step, t, piece = channels.snapshots.get_nowait()
            snap = snaps.setdefault(step, np.zeros_like(state0))
            snap[np.flatnonzero(owner_node == t)] = piece
        for step, snap in sorted(snaps.items()):
            write_snapshot(os.path.join(out_dir, f"state_{step:06d}.bin"),
                           snap, config.order, layout="cg")
    return report, final


def _write_theta_csv(path, state, ra, disc):
    coords = disc.numbering.node_coords
    theta_p = state[:, 4] / state[:, 0] - ra.theta0
    with open(path, "w") as f:
        f.write("x,y,z,theta_prime\n")
        for (x, y, z), tp in zip(coords, theta_p):
            f.write(f"{x!r},{y!r},{z!r},{tp!r}\n")


# ---------------------------------------------------------------------------
# Scaling experiment
# ---------------------------------------------------------------------------

@dataclass
class ScalePoint:
    n_partitions: int
    seconds: float
    phase_seconds: dict
    efficiency: float
    phase_efficiency: dict


def scale_experiment(config: BubbleConfig, partition_counts,
                     const: GasConstants | None = None) -> list[ScalePoint]:
    """Strong scaling over worker counts at fixed problem size.

    Efficiency of T workers over the baseline T0 (the first entry) is
    t0*T0/(t*T), per phase and for the whole timed loop.
    """
    points = []
    base = None
    for T in partition_counts:
        report, _ = run_bubble(config, n_partitions=T, const=const)
        timed = report.total_seconds
        if base is None:
            base = (T, timed, dict(report.phase_seconds))
        T0, t0, ph0 = base
        eff = strong_scaling_efficiency(t0, T0, timed, T)
        ph_eff = {
            ph: strong_scaling_efficiency(ph0[ph], T0, report.phase_seconds[ph], T)
            for ph in PHASES if report.phase_seconds[ph] > 0.0
        }
        points.append(ScalePoint(n_partitions=T, seconds=timed,
                                 phase_seconds=dict(report.phase_seconds),
                                 efficiency=eff, phase_efficiency=ph_eff))
    return points


def scale_table(points: list[ScalePoint]) -> str:
    lines = ["workers     seconds  efficiency   " +
             "  ".join(f"{ph}" for ph in PHASES)]
    for pt in points:
        ph = "  ".join(f"{pt.phase_efficiency.get(p, float('nan')):{len(p)}.2f}"
                       for p in PHASES)
        lines.append(f"{pt.n_partitions:7d}  {pt.seconds:10.3f}  "
                     f"{pt.efficiency:10.3f}   {ph}")
    return "\n".join(lines)


def scale_csv(points: list[ScalePoint]) -> str:
    cols = ["workers", "seconds", "efficiency"] + \
        [f"{ph}_seconds" for ph in PHASES] + [f"{ph}_efficiency" for ph in PHASES]
    lines = [",".join(cols)]
    for pt in points:
        row = [str(pt.n_partitions), repr(pt.seconds), repr(pt.efficiency)]
        row += [repr(pt.phase_seconds.get(ph, 0.0)) for ph in PHASES]
        row += [repr(pt.phase_efficiency.get(ph, float("nan"))) for ph in PHASES]
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"
