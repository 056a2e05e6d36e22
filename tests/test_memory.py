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
from sembox.dynamics import (GasConstants, element_pressure,
                             rhs_element_contributions)
from sembox.harness import (BubbleConfig, build_discretization, init_bubble,
                            run_bubble)
from sembox.kernels import load
from sembox.storage import N_VARS

from oracles import node_major_batch

CONST = GasConstants()
MiB = 2 ** 20

# traced peak of a 2-step default-bubble run (8x8x10, p=3), set-up
# included, by worker count: 12.48 MiB on one worker and 13.02 MiB on two
# measured with the compiled kernels writing into one array per worker
# and gathering the pressure and background density themselves
# (14.60 and 14.62 MiB with the numpy kernel's 11 M-double workspace and
# the filter's fresh gather and scratch; 16.33 and 17.5-17.7 MiB while
# the driver held the discretization
# through the run and a stage's combination allocated a fresh array per
# term; 24.14 MiB on one worker with a (3, 5, M) flux, fresh
# contributions, every RK stage held through the step and the driver's
# initial state held through the run); the bounds keep a 10% margin over
# the measurements
RUN_PEAK_MEASURED_MIB = {1: 12.48, 2: 13.02}
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


def test_kernel_call_raises_memory_by_one_gather(bubble):
    # after a warm-up call, a worker's call with its pressure argument:
    # the pressure at the points, whose numpy evaluation holds two
    # point arrays at once (an operand and its result), and a few
    # hundred bytes of the quadrature weights; the compiled kernel
    # gathers the state, the pressure and the background density into
    # stack arrays and writes into the caller's array, so neither the
    # (5, M) gather, a node-major pressure nor an 11 M-double workspace
    # is allocated, and the call leaves no array behind
    disc, state, ra = bubble
    gids, jg, jw = node_major_batch(disc)
    kernels = load(disc.ref.n_nodes)
    out = np.empty((*gids.shape, N_VARS))
    rho_bar = np.ascontiguousarray(ra.cg[:, 0])

    def call():
        return rhs_element_contributions(
            state, gids, element_pressure(state, ra, CONST), rho_bar, jg,
            jw, disc.ref, CONST, kernels, out)

    call()
    peak, held = traced(call)
    assert peak <= 8 * 2 * state.shape[0] + 4096
    assert held < 4096


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
