"""Rising-bubble driver: initialization, time loop, scaling experiments.

The driver owns the end-to-end pattern: build the discretization, freeze
the Courant-limited timestep, then march stages of
right-hand-side -> exchange/assemble -> update -> wall projection, with
the low-pass filter (and its own exchange) closing each step.  Every
partition runs in its own worker, started by ``storage.Mailboxes.run``
(partition 0 on the calling thread, as for ``halo_exchange``), and the
only cross-worker data are the halo messages, which travel through those
mailboxes.  A worker holds its state, stages and diagnostics only at the
points its partition touches, in the partition's local numbering, and
keeps only its phase timing and stage loop.  Its ``_rhs`` and ``_filter``
(``dynamics`` kernels, then ``PartitionLayout.exchange``) are the
engine's only RHS and filter; one worker is the serial run, and any
worker count gives ``rk_step`` over a serial assembly bit for bit.  A
worker that stops, for instance with ``storage.MessageLost``, stops the
others through ``Mailboxes.run``; ``run_bubble`` raises the lowest fault.
Each worker's diagnostics are partial sums over its owned points, taken
with numpy's own reductions and combined in partition order; no BLAS
dot product, whose bits would follow the BLAS thread count and whose
thread pool, once woken, would spin on the core a second worker needs.
"""

from dataclasses import dataclass, fields
import math
import os
import re
import time

import numpy as np

from .reference_element import ReferenceElement
from .mesh import (MetricTerms, build_box_mesh, compute_metrics,
                   build_cg_numbering, partition_columns)
from .storage import (N_VARS, Mailboxes, NeighborStopped, PartitionLayout,
                      ReferenceAtmosphere, write_snapshot)
from .dynamics import (Discretization, GasConstants, RhsWorkspace,
                       DivergedStateError, StateValidityError, apply_boundary,
                       element_pressure, filter_contributions,
                       rhs_element_contributions)
from .time_integration import (DEFAULT_SCHEME, TimestepControl, compute_dt)
from .perf_model import SCHEME_CG, ENGINE_SCHEMES, SimConfig, count_costs


class ConfigError(ValueError):
    pass


class DivergedRunError(RuntimeError):
    """A run of a scaling sweep diverged, so its timings cover no full run."""

    def __init__(self, n_partitions: int, failed_step: int):
        super().__init__(f"the {n_partitions}-worker run diverged at step "
                         f"{failed_step}")
        self.n_partitions = n_partitions
        self.failed_step = failed_step


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
    scheme: str = SCHEME_CG        # cg or dg: a label for the ledger that
                                   # prices the report; the engine runs CG
    snapshot_every: int = 0
    warmup_steps: int = 1

    def validate(self):
        for f in fields(self):      # NaN passes every comparison below
            value = getattr(self, f.name)
            for v in value if isinstance(value, tuple) else (value,):
                if isinstance(v, float) and not math.isfinite(v):
                    raise ConfigError(f"{f.name} must be finite")
        if self.theta0 <= 0.0:
            raise ConfigError("background potential temperature must be positive")
        if self.scheme not in ENGINE_SCHEMES:
            raise ConfigError(f"unknown storage scheme {self.scheme!r}")
        if self.radius <= 0.0:
            raise ConfigError("bubble radius must be positive")
        for name in ("n_steps", "snapshot_every", "warmup_steps"):
            if (getattr(self, name) or 0) < 0:
                raise ConfigError(f"{name} must not be negative")
        if self.end_time is not None and self.end_time <= 0.0:
            raise ConfigError("end_time must be positive")
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
    ra = ReferenceAtmosphere(theta0=th0, cg=np.stack([rho_bar, p_bar], axis=1))

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
    """Mass/extrema partial sums over one partition's owned points."""
    q = state[node_sel]
    M = numbering.mass[node_sel]
    theta_p = q[:, 4] / q[:, 0] - ra.theta0
    w = M * np.maximum(theta_p, 0.0)
    speed2 = np.sum((q[:, 1:4] / q[:, 0:1]) ** 2, axis=1)
    # numpy sums, not BLAS dot products (see the module docstring)
    return {
        "mass": float(np.sum(M * q[:, 0])),
        "theta_min": float(theta_p.min()),
        "theta_max": float(theta_p.max()),
        "max_speed2": float(speed2.max()),
        "wz": float(np.sum(w * numbering.node_coords[node_sel, 2])),
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
    slowest worker; ``wall_seconds`` the partitioned run, from starting
    the workers to their join, warm-up included; ``setup_seconds`` what
    comes before it, from building the discretization to constructing
    the workers.
    """

    n_partitions: int
    n_steps: int
    dt: float
    phase_seconds: dict
    total_seconds: float
    wall_seconds: float
    setup_seconds: float
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
            f"set-up time: {self.setup_seconds:.3f} s",
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

class _Worker:
    """One partition's full time loop on partition-local arrays;
    communicates only through the mailboxes.  It takes its rows of the
    initial state ``state0`` at construction.  Diagnostic partials and
    snapshot pieces of the points the partition owns collect in
    ``diags`` and ``snapshots``, read by the driver after the join."""

    def __init__(self, part_id: int, layout: PartitionLayout,
                 disc: Discretization, const: GasConstants,
                 ra: ReferenceAtmosphere, state0: np.ndarray,
                 config: BubbleConfig, mail: Mailboxes, dt: float,
                 n_steps: int, snapshot_every: int):
        self.t = part_id
        self.layout = layout
        self.ref = disc.ref
        self.const = const
        self.config = config
        self.mail = mail
        self.dt = dt
        self.n_steps = n_steps
        self.snapshot_every = snapshot_every
        self.plan = plan = layout.plans[part_id]
        self.num = plan.numbering
        self.whole = self.num is disc.numbering
        self.ra = ReferenceAtmosphere(ra.theta0, self._local(ra.cg))
        self.gids = self.num.global_ids
        self.metrics_view = _metric_slice(
            disc.metrics, slice(plan.elem_start, plan.elem_stop))
        self.ws = RhsWorkspace.create(len(self.gids), disc.ref.n_nodes)
        self.rho_bar_el = self.ra.cg[:, 0][self.gids]
        self.diags = []
        self.snapshots = []
        self.phase_seconds = {ph: 0.0 for ph in PHASES}
        self.timing = False
        self.loop_seconds = 0.0
        self.step = 0  # the step in progress; final_state: the last completed
        self.final_state = self._local(state0)

    def _local(self, rows):
        """A whole-mesh array's rows at the partition's points: the array
        itself when the partition is the whole mesh (T = 1 copies none)."""
        return rows if self.whole else rows[self.plan.own_gids]

    def _exchange(self, contrib):
        t0 = time.perf_counter()
        out = self.layout.exchange(self.t, contrib, self.mail)
        self._time("dss_comm", t0)
        return out

    def _time(self, phase, t0):
        if self.timing:
            self.phase_seconds[phase] += time.perf_counter() - t0

    # -- physics phases ------------------------------------------------------

    def _rhs(self, state):
        t0 = time.perf_counter()
        contrib = rhs_element_contributions(
            state, self.gids,
            element_pressure(state, self.gids, self.ra, self.const),
            self.rho_bar_el, self.metrics_view, self.ref, self.const, self.ws)
        self._time("create_rhs", t0)
        return self._exchange(contrib)

    def _filter(self, state):
        t0 = time.perf_counter()
        contrib = filter_contributions(state, self.gids, self.metrics_view.jw,
                                       self.ref)
        self._time("filter", t0)
        if contrib is None:
            return state
        return apply_boundary(self._exchange(contrib), self.num)

    # -- the loop ------------------------------------------------------------

    def _stage(self, stages, i):
        """Stage i + 1 of the scheme from ``stages``; its RHS and the
        combination's terms die on return, before the next kernel call."""
        k, bt = DEFAULT_SCHEME.beta[i]
        f = self._rhs(stages[k])
        t0 = time.perf_counter()
        new = None
        for j, a in DEFAULT_SCHEME.alpha[i]:
            term = a * stages[j]
            new = term if new is None else new + term
        new += (self.dt * bt) * f
        apply_boundary(new, self.num)
        self._time("update", t0)
        return new

    def run(self):
        state = self.final_state
        owned = self.plan.owned
        apply_boundary(state, self.num)
        self.diags.append(_diag_partials(state, self.ra, self.num, owned))
        for step in range(1, self.n_steps + 1):
            self.step = step
            self.timing = step > self.config.warmup_steps
            step_t0 = time.perf_counter()
            # a stage is dropped once no later stage reads it, so only the
            # newest goes through the filter (final_state keeps the last
            # completed step)
            stages = [state]
            for i, spent in enumerate(DEFAULT_SCHEME.released):
                stages.append(self._stage(stages, i))
                for j in spent:
                    stages[j] = None
            self.final_state = state = self._filter(stages.pop())
            if self.timing:
                self.loop_seconds += time.perf_counter() - step_t0
            self.diags.append(_diag_partials(state, self.ra, self.num, owned))
            every = self.snapshot_every
            if every and step % every == 0:
                self.snapshots.append((step, state[owned]))


_FAULT_NOTE = "partition {}, step {}"
_FAULT_NOTE_RE = re.compile(r"partition \d+, step \d+")


def worker_fault_note(exc: BaseException) -> str | None:
    """The ``partition t, step s`` note a worker puts on a fault that
    ``run_bubble`` raises, or None for an exception raised elsewhere."""
    return next((note for note in getattr(exc, "__notes__", ())
                 if _FAULT_NOTE_RE.fullmatch(note)), None)


def _metric_slice(metrics, sl):
    return MetricTerms(coords=metrics.coords[sl], jacobian=metrics.jacobian[sl],
                       jg=metrics.jg[:, :, sl], jw=metrics.jw[sl])


def _ledger_flops(config: BubbleConfig, timed_steps: int) -> float:
    """Ledger flop estimate for the timed steps, priced under the scheme."""
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
               out_dir: str | None = None):
    """Run the bubble test on ``n_partitions`` workers, with the default
    gas constants.

    Returns (RunReport, final_state).  Snapshots and the diagnostics CSV
    land in ``out_dir`` when given; without it no snapshot is collected.
    A fault in a worker is raised here with a ``partition t, step s``
    note (see :func:`worker_fault_note`); a diverged run ends normally,
    with ``failed_step`` set in the report.
    """
    config.validate()
    const = GasConstants()
    setup0 = time.perf_counter()
    disc = build_discretization(config)
    state0, ra = init_bubble(config, disc, const)

    control = TimestepControl(courant_h=config.courant_h,
                              courant_v=config.courant_v,
                              end_time=config.end_time, n_steps=config.n_steps)
    dt = compute_dt(state0, disc, const, control)
    n_steps = control.steps_for(dt)

    parts = partition_columns(disc.mesh, n_partitions)
    layout = PartitionLayout(disc.mesh, disc.numbering, parts)
    mail = Mailboxes(layout)
    snapshot_every = config.snapshot_every if out_dir is not None else 0
    workers = [_Worker(part.part_id, layout, disc, const, ra, state0, config,
                       mail, dt, n_steps, snapshot_every) for part in parts]
    del state0      # the workers hold their rows: none is kept past step 1

    wall0 = time.perf_counter()
    setup = wall0 - setup0
    _, errors = mail.run(lambda t: workers[t].run())
    wall = time.perf_counter() - wall0
    stopped = [(w, exc) for w, exc in zip(workers, errors) if exc is not None]
    for w, exc in stopped:   # physics failures end in the report, faults raise
        if not isinstance(exc, (NeighborStopped, DivergedStateError,
                                StateValidityError)):
            # what BaseException.add_note does, also on Python 3.10
            exc.__notes__ = [*getattr(exc, "__notes__", []),
                             _FAULT_NOTE.format(w.t, w.step)]
            raise exc
    failed_step = min((w.step for w, _ in stopped), default=None)

    # diagnostics: reduce partials in partition order, step by step,
    # over the steps every worker finished
    diags = [_reduce_diags([w.diags[step] for w in workers], step, step * dt)
             for step in range(min(len(w.diags) for w in workers))]

    owned = [w.plan.own_gids[w.plan.owned] for w in workers]
    final = np.empty((disc.numbering.n_unique, N_VARS))
    for w, gids in zip(workers, owned):
        final[gids] = w.final_state[w.plan.owned]

    # breakdown of the critical-path worker, so phases sum to <= total
    slowest = max(workers, key=lambda w: w.loop_seconds)
    cores = os.cpu_count() or 1
    timed_steps = max(0, n_steps - config.warmup_steps)
    report = RunReport(
        n_partitions=n_partitions, n_steps=n_steps, dt=dt,
        phase_seconds=dict(slowest.phase_seconds),
        total_seconds=slowest.loop_seconds,
        wall_seconds=wall,
        setup_seconds=setup,
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
                       config.order)
        _write_theta_csv(os.path.join(out_dir, "theta.csv"), final, ra, disc)
        snaps: dict[int, np.ndarray] = {}
        for w, gids in zip(workers, owned):
            for step, piece in w.snapshots:
                snaps.setdefault(step, np.zeros_like(final))[gids] = piece
        for step, snap in sorted(snaps.items()):
            write_snapshot(os.path.join(out_dir, f"state_{step:06d}.bin"),
                           snap, config.order)
    return report, final


def _write_theta_csv(path, state, ra, disc):
    theta_p = state[:, 4] / state[:, 0] - ra.theta0
    table = np.column_stack([disc.numbering.node_coords, theta_p])
    with open(path, "w") as f:     # row by row as Python floats: plain digits
        f.write("x,y,z,theta_prime\n")
        f.writelines(f"{x!r},{y!r},{z!r},{tp!r}\n"
                     for x, y, z, tp in map(np.ndarray.tolist, table))


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


def scale_experiment(config: BubbleConfig, partition_counts) -> list[ScalePoint]:
    """Strong scaling over worker counts at fixed problem size.

    Efficiency of T workers over the baseline T0 (the first entry) is
    t0*T0/(t*T), per phase and for the whole timed loop.  A diverged run
    raises :class:`DivergedRunError`, and a run with no timed step
    :class:`ConfigError`.
    """
    points = []
    base = None
    for T in partition_counts:
        report, _ = run_bubble(config, n_partitions=T)
        if report.failed_step is not None:
            raise DivergedRunError(T, report.failed_step)
        if report.timed_steps == 0:
            raise ConfigError(f"a {report.n_steps}-step run has no timed step "
                              f"after warmup_steps = {config.warmup_steps}")
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
