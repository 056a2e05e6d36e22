"""Analytical roofline model of the solver's kernels.

The model prices one simulation: closed-form flop and byte ledgers for
the four kernel families (right-hand side, assembly scale, filter, state
update) under the three storage layouts, an optional cache-line penalty
for the random access that unique-point (CG) storage forces on
element-wise kernels, and roofline arithmetic that turns the ledgers
into predicted runtimes and percent-of-peak figures.

Counting conventions (documented so the numbers are auditable):

* flops: multiply/add = 1 each (MAC = 2), reciprocal and sqrt = 10,
  power = 96 (vendor-library exp+log polynomial cost);
* pointwise thermodynamics (primitive recovery, pressure closure, flux
  assembly) is charged once per *stored* state point: unique points
  under CG/hybrid storage, duplicated points under DG storage;
* element-wise work (metric rotation of the flux, the tensor-contraction
  derivatives, quadrature weighting) is charged per duplicated point;
* traffic counts each persistent array once per kernel sweep at its
  stored size; intermediates are cache-blocked per element batch and
  move no DRAM traffic; the element kernel accumulates its weighted
  contributions straight into the destination-sorted assembly target;
* the random-access penalty re-prices the element kernel's gathers of
  CG-stored fields at cache-line granularity: each along-x run of p+1
  values pays a full line, with one element face discounted because the
  bottom-to-top column sweep re-uses it.  It applies only when the
  per-node working set exceeds the L2 capacity, and never changes flops.

Flop counts in published studies of this kind are usually tuned against
hardware measurements, so every ledger accepts calibration multipliers;
raw analytic counts stay available alongside.
"""

from dataclasses import dataclass, field, replace
import io
import math

import numpy as np

from .reference_element import lobatto_points

GIGA = 1.0e9

# storage schemes the ledger prices; the engine runs CG under each of
# ENGINE_SCHEMES, where the scheme only picks the run report's ledger
SCHEME_CG = "cg"
SCHEME_HYBRID = "cg-dg"
SCHEME_DG = "dg"
SCHEMES = (SCHEME_CG, SCHEME_HYBRID, SCHEME_DG)
ENGINE_SCHEMES = (SCHEME_CG, SCHEME_DG)          # accepted by ``sembox run``

# flop-cost conventions
FLOPS_DIV = 10
FLOPS_POW = 96
N_PROGNOSTIC = 5
N_REF_FIELDS = 3
N_METRIC_FIELDS = 10  # nine metric-cofactor entries (jg) plus the J*w weight
DOUBLE_BYTES = 8.0


@dataclass(frozen=True)
class MachineModel:
    """Per-node hardware parameters of the modeled machine.

    Defaults: a 16-core 1.6 GHz node with 8 flops/cycle per core
    (204.8 Gflop/s peak), 28.5 GB/s measured stream bandwidth, 128-byte
    cache lines and a 32 MiB shared L2.
    """

    bandwidth: float = 28.5e9
    peak_flops: float = 204.8e9
    cache_line: int = 128
    l2_bytes: int = 32 * 2 ** 20

    def __post_init__(self):
        if not all(math.isfinite(v) and v > 0
                   for v in (self.bandwidth, self.peak_flops, self.cache_line,
                             self.l2_bytes)):
            raise ValueError("machine parameters must be finite and positive")

    @property
    def ridge_intensity(self) -> float:
        return self.peak_flops / self.bandwidth


@dataclass
class KernelCost:
    """Flop and byte totals for one kernel over a whole simulation."""

    flops: float = 0.0
    read_bytes: float = 0.0
    write_bytes: float = 0.0

    def __add__(self, other: "KernelCost") -> "KernelCost":
        return KernelCost(self.flops + other.flops,
                          self.read_bytes + other.read_bytes,
                          self.write_bytes + other.write_bytes)

    def scaled(self, flops: float, read: float, write: float) -> "KernelCost":
        return KernelCost(self.flops * flops, self.read_bytes * read,
                          self.write_bytes * write)

    @property
    def bytes_moved(self) -> float:
        return self.read_bytes + self.write_bytes

    @property
    def intensity(self) -> float:
        return self.flops / self.bytes_moved


@dataclass(frozen=True)
class Calibration:
    """Per-ledger multipliers fitting the model to measured totals."""

    flops: float = 1.0
    read: float = 1.0
    write: float = 1.0


@dataclass(frozen=True)
class SimConfig:
    """One modeled simulation.

    Element counts may be fractional: the model extrapolates across
    polynomial orders at fixed point count, where integer meshes do not
    exist.  ``machines`` divides the global totals into per-node ones.
    """

    order: int = 3
    elements: tuple = (264, 264, 396)
    machines: int = 768
    timesteps: int = 690
    stages: int = 5
    scheme: str = SCHEME_CG
    metric_scheme: str = "dg"     # "dg" (stored duplicated) or "recompute"
    calibration: Calibration = Calibration()

    def __post_init__(self):
        if self.scheme not in SCHEMES:
            raise ValueError(f"unknown storage scheme {self.scheme!r}")
        if self.metric_scheme not in ("dg", "recompute"):
            raise ValueError(f"unknown metric scheme {self.metric_scheme!r}")
        if self.order < 1 or self.timesteps < 1 or self.machines < 1:
            raise ValueError("order, timesteps and machines must be positive")
        if self.stages < 1:
            raise ValueError("stages must be at least 1")
        if not all(math.isfinite(n) and n > 0 for n in self.elements):
            raise ValueError(f"element counts {self.elements} must be finite "
                             "and positive")

    @property
    def n_elements(self) -> float:
        nx, ny, nz = self.elements
        return nx * ny * nz

    @property
    def points_dg(self) -> float:
        return self.n_elements * (self.order + 1) ** 3

    @property
    def points_cg(self) -> float:
        nx, ny, nz = self.elements
        p = self.order
        return (p * nx + 1) * (p * ny + 1) * (p * nz + 1)

    @property
    def points_stored(self) -> float:
        return self.points_dg if self.scheme == SCHEME_DG else self.points_cg


def line_inflation(run_bytes: float, line_bytes: int = 128) -> float:
    """Traffic factor when a contiguous run is fetched by whole lines."""
    return line_bytes / min(run_bytes, line_bytes)


# element-kernel gathers of CG-stored fields per stage: the five prognostic
# variables plus the precomputed perturbation pressure; CG storage also
# gathers the background density for the buoyancy source
_GATHERED_PASSES = {SCHEME_CG: N_PROGNOSTIC + 2, SCHEME_HYBRID: N_PROGNOSTIC + 1,
                    SCHEME_DG: 0}


def count_costs(config: SimConfig, raw: bool = False) -> dict[str, KernelCost]:
    """Per-kernel flop/byte ledger for the whole simulation, per node.

    Keys: ``create_rhs``, ``dss``, ``filter``, ``update``, ``diagnostics``
    and ``total``.  ``raw=True`` skips the calibration multipliers.
    """
    p = config.order
    nv = N_PROGNOSTIC
    steps = config.timesteps
    stages = config.stages
    B = DOUBLE_BYTES

    n_dg = config.points_dg / config.machines
    n_cg = config.points_cg / config.machines
    stored = config.points_stored / config.machines
    assembled = stored  # assembly target: unique points, or every duplicate
    ra = n_dg if config.scheme in (SCHEME_HYBRID, SCHEME_DG) else n_cg
    ra_source = n_cg if config.scheme == SCHEME_CG else n_dg

    # --- flops ------------------------------------------------------------
    pointwise = (FLOPS_DIV + 3          # primitive recovery
                 + FLOPS_POW + 4        # pressure closure and perturbation
                 + 18                   # flux tensor assembly
                 + 2)                   # buoyancy source prep
    element = (2 * 9 * nv               # contravariant rotation, 9 MACs/var
               + 3 * nv * 2 * (p + 1)   # derivative contractions
               + 2 * nv                 # divergence accumulation
               + 3 * nv)                # quadrature weighting and source
    metric_flops = 0.0
    metric_reads = N_METRIC_FIELDS * n_dg
    if config.metric_scheme == "recompute":
        # trade the stored metric fields for recomputing them every stage
        metric_flops = 200.0 * n_dg
        metric_reads = 0.0

    create = KernelCost(
        flops=stages * (pointwise * stored + element * n_dg + metric_flops),
        read_bytes=stages * B * (nv * stored            # state, pointwise pass
                                 + N_REF_FIELDS * ra    # background, pointwise
                                 + (nv + 1) * stored    # element gather: q, P'
                                 + 1 * ra_source        # background density
                                 + metric_reads
                                 + nv * assembled),     # accumulation rmw
        write_bytes=stages * B * (1 * stored            # perturbation pressure
                                  + nv * assembled),    # accumulation rmw
    )
    dss = KernelCost(
        flops=stages * (nv * n_dg + nv * assembled),
        read_bytes=stages * B * nv * assembled,
        write_bytes=stages * B * nv * assembled,
    )
    update = KernelCost(
        flops=stages * 2 * 3.2 * nv * stored,
        read_bytes=stages * B * 3.2 * nv * stored,
        write_bytes=stages * B * nv * stored,
    )
    filt = KernelCost(
        flops=(3 * nv * 2 * (p + 1) + 2 * nv) * n_dg + nv * (n_dg + assembled),
        read_bytes=B * (nv * stored + nv * assembled),
        write_bytes=B * (nv * assembled + nv * stored),
    )
    diag = KernelCost(
        flops=3 * nv * stored,
        read_bytes=B * (nv + 3) * stored,
        write_bytes=0.0,
    )

    costs = {"create_rhs": create, "dss": dss, "filter": filt,
             "update": update, "diagnostics": diag}
    costs = {k: v.scaled(steps, steps, steps) for k, v in costs.items()}
    if not raw:
        c = config.calibration
        costs = {k: v.scaled(c.flops, c.read, c.write) for k, v in costs.items()}
    costs["total"] = sum(costs.values(), KernelCost())
    return costs


def working_set_bytes(config: SimConfig) -> float:
    """State + metric + background bytes touched each step, per node."""
    return DOUBLE_BYTES * (N_PROGNOSTIC * config.points_stored
                           + N_METRIC_FIELDS * config.points_dg
                           + N_REF_FIELDS * config.points_stored) / config.machines


def random_access_penalty(costs: dict[str, KernelCost], config: SimConfig,
                          machine: MachineModel,
                          force: bool | None = None) -> dict[str, KernelCost]:
    """Re-price partial-cache-line accesses when the working set spills L2.

    Under CG/hybrid storage the element kernels gather unique-point
    arrays in short along-x runs; each run is charged a full cache line
    (minus the column-sweep face reuse).  Under DG storage only the
    duplicate-face summation touches remote memory.  Flops are never
    changed, and no byte count ever decreases.
    """
    apply = force if force is not None else (
        working_set_bytes(config) > machine.l2_bytes)
    if not apply:
        return dict(costs)

    p = config.order
    nv = N_PROGNOSTIC
    B = DOUBLE_BYTES
    steps = config.timesteps
    n_dg = config.points_dg / config.machines
    n_cg = config.points_cg / config.machines
    out = {k: v for k, v in costs.items() if k != "total"}
    read_cal = config.calibration.read
    write_cal = config.calibration.write

    if config.scheme in (SCHEME_CG, SCHEME_HYBRID):
        kappa = line_inflation((p + 1) * B, machine.cache_line) * p / (p + 1)
        kappa = max(kappa, 1.0)
        per_pass = (kappa * n_dg - n_cg) * B  # extra bytes per gathered field
        per_step = _GATHERED_PASSES[config.scheme] * config.stages + nv
        extra = steps * per_step * per_pass * read_cal
        rhs_share = (per_step - nv) / per_step
        out["create_rhs"] = out["create_rhs"] + KernelCost(0.0, extra * rhs_share, 0.0)
        out["filter"] = out["filter"] + KernelCost(0.0, extra * (1 - rhs_share), 0.0)
    else:
        # remote halves of element faces, fetched by whole lines
        n_elem = config.n_elements / config.machines
        face_nodes = 3.0 * (p + 1) ** 2 * n_elem
        waste = (line_inflation((p + 1) * B, machine.cache_line)
                 - 1.0) * face_nodes * B
        out["dss"] = out["dss"] + KernelCost(
            0.0,
            steps * config.stages * nv * waste * read_cal,
            steps * config.stages * nv * 0.5 * waste * write_cal,
        )
    out["total"] = sum(out.values(), KernelCost())
    return out


# ---------------------------------------------------------------------------
# Roofline arithmetic
# ---------------------------------------------------------------------------

def roofline_time(cost: KernelCost, machine: MachineModel) -> float:
    """Best-case runtime: limited by bandwidth or by peak flops."""
    return max(cost.flops / machine.peak_flops,
               cost.bytes_moved / machine.bandwidth)


def percent_peak(cost: KernelCost, seconds: float, machine: MachineModel) -> float:
    """Achieved flop rate over the given runtime, as % of machine peak."""
    if seconds <= 0.0:
        raise ValueError("runtime must be positive")
    return 100.0 * (cost.flops / seconds) / machine.peak_flops


def percent_max(attained_flops_per_s: float, intensity: float,
                machine: MachineModel) -> float:
    """Attained rate as % of the roofline ceiling at this intensity."""
    if intensity <= 0.0:
        raise ValueError("arithmetic intensity must be positive")
    ceiling = min(machine.peak_flops, intensity * machine.bandwidth)
    return 100.0 * attained_flops_per_s / ceiling


# ---------------------------------------------------------------------------
# Scenario presets: published reference cost sheets
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CostSheet:
    """Per-scheme simulation totals (per node), ready for the roofline.

    ``gflops``/``read_gb``/``write_gb`` map scheme name -> totals in
    gigaflops and gigabytes over the whole simulation.
    """

    name: str
    description: str
    gflops: dict
    read_gb: dict
    write_gb: dict

    def cost(self, scheme: str) -> KernelCost:
        return KernelCost(self.gflops[scheme] * GIGA,
                          self.read_gb[scheme] * GIGA,
                          self.write_gb[scheme] * GIGA)


PRESET_SHEETS = {
    # rising thermal bubble, p=3, 7.4e8 points, 690 steps, 768 nodes;
    # no random-access repricing
    "table1": CostSheet(
        name="table1",
        description="rising bubble cost sheet, cache-friendly pricing",
        gflops={SCHEME_CG: 3007.00, SCHEME_HYBRID: 3007.00, SCHEME_DG: 4023.19},
        read_gb={SCHEME_CG: 2129.42, SCHEME_HYBRID: 2537.28, SCHEME_DG: 3489.66},
        write_gb={SCHEME_CG: 661.83, SCHEME_HYBRID: 688.34, SCHEME_DG: 1168.69},
    ),
    # same run with the random-access estimate applied
    "table2": CostSheet(
        name="table2",
        description="rising bubble cost sheet with random-access repricing",
        gflops={SCHEME_CG: 3007.00, SCHEME_HYBRID: 3007.00, SCHEME_DG: 4023.19},
        read_gb={SCHEME_CG: 3483.05, SCHEME_HYBRID: 3138.46, SCHEME_DG: 3682.77},
        write_gb={SCHEME_CG: 853.44, SCHEME_HYBRID: 879.95, SCHEME_DG: 1360.30},
    ),
    # planetary wave test, p=3, 4.4e7 points, 947 steps, 972 nodes
    "table3": CostSheet(
        name="table3",
        description="planetary wave cost sheet, cache-friendly pricing",
        gflops={SCHEME_CG: 61.96, SCHEME_HYBRID: 61.96, SCHEME_DG: 83.00},
        read_gb={SCHEME_CG: 58.55, SCHEME_HYBRID: 62.18, SCHEME_DG: 94.22},
        write_gb={SCHEME_CG: 22.48, SCHEME_HYBRID: 22.48, SCHEME_DG: 36.69},
    ),
}

# Model-generated scenarios matching the preset sheets' mesh/step counts.
BUBBLE_CONFIG = SimConfig(order=3, elements=(264, 264, 396), machines=768,
                          timesteps=690)
PLANETARY_CONFIG = SimConfig(order=3, elements=(396, 396, 10), machines=972,
                             timesteps=947)


def fit_calibration(config: SimConfig, sheet: CostSheet,
                    scheme: str) -> Calibration:
    """Multipliers matching the ledger to a cost sheet for one storage
    scheme: three exact ratios of the sheet's totals to the ledger's,
    repriced for random access on the default machine.
    """
    cfg = replace(config, scheme=scheme, calibration=Calibration())
    model = random_access_penalty(count_costs(cfg), cfg, MachineModel(),
                                  force=True)["total"]
    target = sheet.cost(scheme)

    def ratio(m, t):
        # the one-term least-squares quotient, not t / m: the multipliers
        # keep the bits they were first fitted with
        return (m * t) / (m * m)

    return Calibration(flops=ratio(model.flops, target.flops),
                       read=ratio(model.read_bytes, target.read_bytes),
                       write=ratio(model.write_bytes, target.write_bytes))


# Per-scheme multipliers fitting the raw ledger to the repriced bubble sheet.
BUBBLE_CALIBRATIONS = {s: fit_calibration(BUBBLE_CONFIG, PRESET_SHEETS["table2"],
                                          scheme=s) for s in SCHEMES}


# ---------------------------------------------------------------------------
# Derived tables
# ---------------------------------------------------------------------------

SCHEME_LABELS = {SCHEME_CG: "CG", SCHEME_HYBRID: "CG/DG", SCHEME_DG: "DG"}
TABLE_ROWS = ("GFlops per node", "read traffic in GB", "write traffic in GB",
              "arithmetic intensity in Flops/Bytes",
              "optimal runtime in seconds",
              "% of theoretical peak of processor")


def derived_columns(cost: KernelCost, machine: MachineModel) -> dict:
    """The six report rows for one storage scheme."""
    t = roofline_time(cost, machine)
    return {
        "GFlops per node": cost.flops / GIGA,
        "read traffic in GB": cost.read_bytes / GIGA,
        "write traffic in GB": cost.write_bytes / GIGA,
        "arithmetic intensity in Flops/Bytes": cost.intensity,
        "optimal runtime in seconds": t,
        "% of theoretical peak of processor": percent_peak(cost, t, machine),
    }


def sheet_table(sheet: CostSheet, machine: MachineModel | None = None) -> dict:
    """scheme -> derived rows for a preset cost sheet."""
    machine = machine or MachineModel()
    return {s: derived_columns(sheet.cost(s), machine) for s in SCHEMES}


def model_table(config: SimConfig, machine: MachineModel | None = None,
                penalized: bool | None = None) -> dict:
    """scheme -> derived rows from the analytic ledger."""
    machine = machine or MachineModel()
    out = {}
    for scheme in SCHEMES:
        cfg = replace(config, scheme=scheme)
        costs = count_costs(cfg)
        costs = random_access_penalty(costs, cfg, machine, force=penalized)
        out[scheme] = derived_columns(costs["total"], machine)
    return out


def emit_table(results: dict, title: str = "") -> str:
    """Render scheme->rows as the three-column text table."""
    buf = io.StringIO()
    if title:
        buf.write(title + "\n")
    schemes = [s for s in SCHEMES if s in results]
    header = f"{'':42s}" + "".join(f"{SCHEME_LABELS[s]:>12s}" for s in schemes)
    buf.write(header.rstrip() + "\n")
    if not schemes:
        return buf.getvalue()
    for row in TABLE_ROWS:
        vals = "".join(f"{results[s][row]:12.2f}" for s in schemes)
        buf.write(f"{row:42s}{vals}\n")
    return buf.getvalue()


def emit_csv(results: dict) -> str:
    """CSV twin of :func:`emit_table`, full precision."""
    buf = io.StringIO()
    schemes = [s for s in SCHEMES if s in results]
    buf.write("row," + ",".join(SCHEME_LABELS[s] for s in schemes) + "\n")
    if not schemes:
        return buf.getvalue()
    for row in TABLE_ROWS:
        vals = ",".join(repr(results[s][row]) for s in schemes)
        buf.write(f"{row},{vals}\n")
    return buf.getvalue()


# ---------------------------------------------------------------------------
# Polynomial-order sweep
# ---------------------------------------------------------------------------

def _min_gap_fraction(p: int) -> float:
    pts, _ = lobatto_points(p)
    return float(np.diff(pts).min()) / 2.0


def order_sweep(base: SimConfig, p_range=range(1, 8), *,
                penalized: bool = False,
                calibrations: dict | None = None) -> dict:
    """Runtime per step and time to solution across polynomial orders.

    Every order keeps the base configuration's point count per direction
    (fixed effective resolution) and Courant number: element counts are
    rescaled, and the step count follows the smallest physical node gap,
    which shrinks as the Lobatto nodes cluster at higher order.  With
    ``penalized`` the cache-line repricing is forced on; the default
    prices every order cache-friendly, since the line-waste factors are
    anchored at the base order and do not extrapolate across p.  Every
    order is priced on the default machine.
    """
    if not p_range:
        raise ValueError(f"order sweep got an empty order range {p_range}")
    if min(p_range) < 1 or max(p_range) > 10:
        raise ValueError("order sweep supports p in [1, 10]")
    machine = MachineModel()
    p0 = base.order
    points_dir = [p0 * n for n in base.elements]  # point intervals per direction
    dt0 = p0 * _min_gap_fraction(p0)
    out = {s: [] for s in SCHEMES}
    for p in p_range:
        elements = tuple(nd / p for nd in points_dir)
        dt_rel = p * _min_gap_fraction(p) / dt0
        steps = max(1, math.ceil(base.timesteps / dt_rel))
        for scheme in SCHEMES:
            cal = (calibrations or {}).get(scheme, base.calibration)
            cfg = replace(base, order=p, elements=elements, timesteps=steps,
                          scheme=scheme, calibration=cal)
            costs = count_costs(cfg)
            costs = random_access_penalty(costs, cfg, machine, force=penalized)
            total = roofline_time(costs["total"], machine)
            out[scheme].append({
                "order": p,
                "timesteps": steps,
                "time_per_step": total / steps,
                "time_to_solution": total,
            })
    return out
