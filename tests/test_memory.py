"""What the step holds, read with tracemalloc (numpy reports its array
buffers to it); no wall clock.

The bounds are byte counts of named arrays, or, for a whole run, a
measured peak with a stated margin.
"""

import tracemalloc

import numpy as np
import pytest

from sembox.dynamics import (GasConstants, RhsWorkspace, element_pressure,
                             rhs_element_contributions)
from sembox.harness import (BubbleConfig, build_discretization, init_bubble,
                            run_bubble)
from sembox.storage import N_VARS

CONST = GasConstants()
MiB = 2 ** 20

# traced peak of a 2-step default-bubble run on one worker (8x8x10, p=3),
# set-up included: 16.33 MiB measured (24.14 MiB with a (3, 5, M) flux,
# fresh contributions, every RK stage held through the step and the
# driver's initial state held through the run); the bound keeps a 10%
# margin over the measurement
RUN_PEAK_MEASURED_MIB = 16.33
RUN_PEAK_BOUND_MIB = 1.10 * RUN_PEAK_MEASURED_MIB


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
    gids = disc.numbering.global_ids
    E, n = gids.shape[0], disc.ref.n_nodes
    m = E * n ** 3
    args = (state, gids, element_pressure(state, gids, ra, CONST),
            ra.cg[:, 0][gids], disc.metrics, disc.ref, CONST,
            RhsWorkspace.create(E, n))
    rhs_element_contributions(*args)
    bound = 8 * (N_VARS * m + state.size + 3 * E * n ** 3)
    peak, held = traced(lambda: rhs_element_contributions(*args))
    assert peak <= bound
    assert held < 8 * E * n ** 3


def test_run_peak_stays_under_the_measured_bound():
    run_bubble(BubbleConfig(nx=2, ny=2, layers=2, n_steps=1))   # warm-up
    peak, _ = traced(lambda: run_bubble(BubbleConfig(n_steps=2)))
    assert peak <= RUN_PEAK_BOUND_MIB * MiB
