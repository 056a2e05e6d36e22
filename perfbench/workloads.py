"""Workload definitions and the seed -> bubble-config generator.

Every workload is a rising thermal bubble driven through the public
``run_bubble`` API.  The seed only moves the bubble's centre and
amplitude; the mesh, order, scheme and step count are fixed per
workload, so the work per step does not depend on the seed.
"""

from dataclasses import dataclass
import random

EXTENT = 1000.0   # m, cube side (the engine's default box)
RADIUS = 250.0    # m, bubble radius (the engine's default)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str              # includes the layers predicted not to move
    scheme: str
    nx: int
    layers: int
    order: int
    partitions: int
    n_steps: int
    snapshot_every: int = 0   # > 0: snapshots and output files in a temp dir


WORKLOADS = {w.name: w for w in (
    Workload(
        name="bubble_p3_serial",
        why="CG 8x8x10 p=3 on 1 worker: element kernel and serial DSS "
            "dominate; the single-threaded baseline. No change expected: halo "
            "pack/fold/messages, snapshot writes",
        scheme="cg", nx=8, layers=10, order=3, partitions=1, n_steps=10),
    Workload(
        name="bubble_p3_halo",
        why="Same CG p=3 run on 2 threads: halo exchange, thread harness, BLAS "
            "oversubscription; final state equals the serial one. No change "
            "expected: snapshot writes",
        scheme="cg", nx=8, layers=10, order=3, partitions=2, n_steps=10),
    Workload(
        name="bubble_p5_dg_out",
        why="DG 4x4x8 p=5, snapshots every 10 steps: n=6 contractions, "
            "in-kernel pressure, larger filter share, snapshot writes. No "
            "change expected: halo pack/fold/messages",
        scheme="dg", nx=4, layers=8, order=5, partitions=1, n_steps=20,
        snapshot_every=10),
)}


def bubble_params(workload: Workload, seed: int) -> dict:
    """Bubble centre and amplitude drawn from the seed.

    The centre keeps the whole sphere inside the box (the limit
    ``BubbleConfig.validate`` enforces) and in the lower half.  Its
    height is a mirror plane of the workload's layering (an element face
    or mid-plane): the per-element filter then moves the anomaly's
    centroid only sideways, so the buoyant rise shows from the first
    step.  Off such a plane the filter shifts the centroid by a few
    millimetres per step, more than the rise in the first second.
    """
    rng = random.Random(seed)
    lo, hi = RADIUS + 50.0, EXTENT - RADIUS - 50.0
    half_layer = 0.5 * EXTENT / workload.layers
    planes = [half_layer * i for i in range(2 * workload.layers + 1)
              if RADIUS <= half_layer * i <= 0.5 * EXTENT]
    return {
        "center": (rng.uniform(lo, hi), rng.uniform(lo, hi), rng.choice(planes)),
        "theta_pert": rng.uniform(0.3, 1.0),
    }


def bubble_config(workload: Workload, seed: int):
    """The engine config for one workload and seed (imports the engine)."""
    from sembox.harness import BubbleConfig
    return BubbleConfig(
        extents=(EXTENT, EXTENT, EXTENT), radius=RADIUS,
        nx=workload.nx, ny=workload.nx, layers=workload.layers,
        order=workload.order, scheme=workload.scheme,
        n_steps=workload.n_steps, snapshot_every=workload.snapshot_every,
        **bubble_params(workload, seed)).validate()
