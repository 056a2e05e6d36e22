"""What the step holds, read with tracemalloc (numpy reports its array
buffers to it); no wall clock.

The bounds are byte counts of named arrays, or, for a whole run, a
measured peak with a stated margin.
"""

import tracemalloc
import weakref

import numpy as np
import pytest

from sembox import harness
from sembox.dynamics import (GasConstants, RhsWorkspace, element_pressure,
                             minus_weights, rhs_element_contributions)
from sembox.harness import (BubbleConfig, build_discretization, init_bubble,
                            run_bubble)
from sembox.storage import N_VARS

from oracles import node_major_batch

CONST = GasConstants()
MiB = 2 ** 20

# traced peak of a 2-step default-bubble run (8x8x10, p=3), set-up
# included, by worker count: 14.60 MiB on one worker and 14.62 MiB on two
# measured (16.33 and 17.5-17.7 MiB while the driver held the discretization
# through the run and a stage's combination allocated a fresh array per
# term; 24.14 MiB on one worker with a (3, 5, M) flux, fresh
# contributions, every RK stage held through the step and the driver's
# initial state held through the run); the bounds keep a 10% margin over
# the measurements
RUN_PEAK_MEASURED_MIB = {1: 14.60, 2: 14.62}
RUN_PEAK_MARGIN = 1.10


def traced(fn):
    """Bytes ``fn()`` raises the traced memory by: at its peak, and
    while its result is held."""
    if tracemalloc.is_tracing():
        pytest.skip("tracemalloc is already tracing")
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        result = fn()
        held, peak = tracemalloc.get_traced_memory()
        del result
        return peak - base, held - base
    finally:
        tracemalloc.stop()


@pytest.fixture(scope="module")
def bubble():
    cfg = BubbleConfig()
    disc = build_discretization(cfg)
    state, ra = init_bubble(cfg, disc, CONST)
    return disc, state, ra


@pytest.mark.parametrize("E,n", [(1, 2), (640, 4), (128, 6)])
def test_workspace_holds_eleven_doubles_per_node(E, n):
    ws = RhsWorkspace.create(E, n)
    buffers = [ws.U, ws.flux, ws.div]
    assert sum(b.nbytes for b in buffers) == 11 * E * n ** 3 * 8
    assert all(b.dtype == np.float64 for b in buffers)
    assert all(b.shape[0] != 3 for b in buffers if b.ndim > 1)


def test_kernel_call_raises_memory_by_one_gather(bubble):
    # after a warm-up call: the (5, M) gather, element_soa's transposed
    # copy of the point field, and the three (E, n^3) temporaries of the
    # gravity source (g * jw, rho - rho_bar, their product); the result
    # lives in the workspace, so the call leaves no array behind
    disc, state, ra = bubble
    gids, jg, jw = node_major_batch(disc)
    E, n = disc.mesh.n_elements, disc.ref.n_nodes
    m = E * n ** 3
    args = (state, gids, element_pressure(state, gids, ra, CONST),
            ra.cg[:, 0][gids], jg, jw, minus_weights(disc.ref, E), disc.ref,
            CONST, RhsWorkspace.create(E, n))
    rhs_element_contributions(*args)
    bound = 8 * (N_VARS * m + state.size + 3 * E * n ** 3)
    peak, held = traced(lambda: rhs_element_contributions(*args))
    assert peak <= bound
    assert held < 8 * E * n ** 3


def run_peak(n_partitions):
    """Traced peak of the 2-step default bubble on ``n_partitions``
    workers, after a warm-up run."""
    run_bubble(BubbleConfig(nx=2, ny=2, layers=2, n_steps=1))
    peak, _ = traced(lambda: run_bubble(BubbleConfig(n_steps=2),
                                        n_partitions=n_partitions))
    return peak


def test_run_peak_stays_under_the_measured_bound():
    assert run_peak(1) <= RUN_PEAK_MARGIN * RUN_PEAK_MEASURED_MIB[1] * MiB


def test_two_worker_run_peak_stays_under_the_measured_bound():
    assert run_peak(2) <= RUN_PEAK_MARGIN * RUN_PEAK_MEASURED_MIB[2] * MiB


def _owner(arr):
    return arr if arr.base is None else arr.base


@pytest.mark.parametrize("n_partitions", [1, 2])
def test_set_up_data_is_unreferenced_at_step_1(monkeypatch, n_partitions):
    # the mesh, the metric terms with their node coordinates and Jacobian
    # and, on more than one worker, the whole mesh's numbering serve
    # set-up only: nothing may hold them once the workers start
    refs = {}

    def build(config):
        disc = build_discretization(config)
        refs.update(mesh=weakref.ref(disc.mesh),
                    metrics=weakref.ref(disc.metrics),
                    coords=weakref.ref(_owner(disc.metrics.coords)),
                    jacobian=weakref.ref(_owner(disc.metrics.jacobian)))
        if n_partitions > 1:
            refs["numbering"] = weakref.ref(disc.numbering)
        return disc

    alive = []

    class Checked(harness._Worker):
        def run(self):
            alive.append(sorted(k for k, ref in refs.items()
                                if ref() is not None))
            super().run()

    monkeypatch.setattr(harness, "build_discretization", build)
    monkeypatch.setattr(harness, "_Worker", Checked)
    run_bubble(BubbleConfig(nx=2, ny=2, layers=2, n_steps=1),
               n_partitions=n_partitions)
    assert len(refs) == 4 + (n_partitions > 1)
    assert alive == [[]] * n_partitions
