"""Explicit five-stage, third-order Runge-Kutta stepping.

The scheme is stored in Shu-Osher form: every stage is a convex
combination of earlier stage states plus one weighted right-hand-side
evaluation, which keeps all coefficients non-negative
(strong-stability-preserving structure).  The default coefficient set
was solved to full precision against the third-order conditions; the
constructor re-verifies them and refuses schemes that fail.

The scheme holds the stage arithmetic (:meth:`RkScheme.combine`) and
says when a stage is dead (:attr:`RkScheme.released`).  The stage loop
that calls them is the partition worker's in ``harness``: right-hand
side (with its exchange) -> combine -> wall projection, five times, then
the filter (with its own exchange).  Every configuration here is fully
explicit.
"""

from dataclasses import dataclass
import math

import numpy as np

from .dynamics import pressure


class SchemeOrderError(ValueError):
    """Scheme coefficients violate the requested order conditions."""


# Stage-combination weights: each row lists (source stage, weight) convex
# pairs; the matching entry of _BETA weights dt * L(previous stage).
_ALPHA = (
    ((0, 1.0),),
    ((1, 1.0),),
    ((0, 0.56656131914033), (2, 0.43343868085967)),
    ((0, 0.09299483444413), (1, 0.00002090369620), (3, 0.90698426185967)),
    ((0, 0.00736132260920), (1, 0.20127980325145), (2, 0.00182955389682),
     (4, 0.78952932024253)),
)
_BETA = (
    (0, 0.38744172698694495649),
    (1, 0.38744172698694495649),
    (2, 0.15461608830776324419),
    (3, 0.33310524208090463993),
    (4, 0.30636681979799640363),
)


@dataclass(frozen=True)
class RkScheme:
    """Explicit Runge-Kutta scheme in Shu-Osher form.

    ``alpha[i]`` are the (stage, weight) pairs combined into stage i+1;
    ``beta[i]`` the (stage, weight) pair for its single RHS evaluation.
    """

    stages: int
    order: int
    alpha: tuple
    beta: tuple

    @classmethod
    def default(cls) -> "RkScheme":
        scheme = cls(stages=5, order=3, alpha=_ALPHA, beta=_BETA)
        residuals = verify_order_conditions(scheme)
        worst = max(abs(v) for v in residuals.values())
        if worst > 1e-13:
            raise SchemeOrderError(f"order-condition residual {worst:.2e}")
        return scheme

    @property
    def released(self) -> tuple:
        """``released[i]``: the stages that no later stage reads once
        stage i + 1 is formed, so a stepper can drop them there.  Stage j
        is read by every ``alpha`` and ``beta`` that names it; the last
        stage, the step's result, is never listed."""
        last = list(range(-1, self.stages - 1))  # unread: dropped at once
        for i in range(self.stages):
            for j in (*(j for j, _ in self.alpha[i]), self.beta[i][0]):
                last[j] = i
        return tuple(tuple(j for j, at in enumerate(last) if at == i)
                     for i in range(self.stages))

    def combine(self, stages, i: int, f, dt: float):
        """Stage i + 1 from the earlier ``stages`` and ``f``, the RHS of
        ``stages[beta[i][0]]``, which it consumes: the first weighted
        stage starts a fresh array, each further one is added through one
        scratch array, and ``f`` is scaled by dt * beta where it lies and
        added last."""
        (j0, a0), *rest = self.alpha[i]
        new = a0 * stages[j0]
        term = np.empty_like(new) if rest else None
        for j, a in rest:
            new += np.multiply(a, stages[j], out=term)
        f *= dt * self.beta[i][1]
        new += f
        return new

    def butcher(self):
        """Equivalent Butcher arrays (A, b, c)."""
        s = self.stages
        A = np.zeros((s + 1, s))
        for i in range(1, s + 1):
            for k, a in self.alpha[i - 1]:
                A[i] += a * A[k]
            k, bt = self.beta[i - 1]
            A[i, k] += bt
        return A[:s], A[s], A[:s].sum(axis=1)


def verify_order_conditions(scheme: RkScheme) -> dict:
    """Residuals of consistency and the third-order conditions.

    Returned keys: ``consistency`` (max |row sum of alpha - 1|), ``order1``
    (sum b - 1), ``order2`` (sum b c - 1/2), ``order3a`` (sum b c^2 - 1/3),
    ``order3b`` (sum b A c - 1/6).
    """
    cons = max(abs(sum(a for _, a in row) - 1.0) for row in scheme.alpha)
    A, b, c = scheme.butcher()
    return {
        "consistency": cons,
        "order1": float(b.sum() - 1.0),
        "order2": float(b @ c - 0.5),
        "order3a": float(b @ (c * c) - 1.0 / 3.0),
        "order3b": float(b @ (A @ c) - 1.0 / 6.0),
    }


DEFAULT_SCHEME = RkScheme.default()


# ---------------------------------------------------------------------------
# Courant-limited timestep
# ---------------------------------------------------------------------------

@dataclass
class TimestepControl:
    """Courant numbers per direction and the run extent.

    The timestep is frozen at step 0 (no adaptivity), matching fixed
    step-count experiment design.
    """

    courant_h: float = 0.4
    courant_v: float = 0.7
    end_time: float | None = None
    n_steps: int | None = None

    def steps_for(self, dt: float) -> int:
        if self.n_steps is not None:
            return self.n_steps
        if self.end_time is None:
            raise ValueError("need end_time or n_steps")
        return max(1, math.ceil(self.end_time / dt))


def compute_dt(state_cg, disc, const, control: TimestepControl) -> float:
    """Largest stable dt: min over nodes of C_d * gap_d / (|u_d| + c).

    The effective spacing is the actual distance between adjacent nodes
    in each direction, so the clustered Lobatto spacing near element
    faces is what limits the step.  The acoustic speed is sqrt(gamma R T)
    from the local full state.  Each axis gathers its own speed
    component to the element nodes and takes the minimum over every
    element's node pairs along that axis.  A state with rho <= 0 or
    Theta <= 0 raises ``StateValidityError`` from the equation of state
    (:func:`~sembox.dynamics.pressure`).
    """
    courant = (control.courant_h, control.courant_h, control.courant_v)
    for axis, c in enumerate(courant):
        if not (math.isfinite(c) and c > 0.0):
            raise ValueError(f"Courant number along axis {axis} must be positive")
    q = state_cg
    T = pressure(q[:, 0], q[:, 4], const) / (q[:, 0] * const.R)
    c_snd = np.sqrt(const.gamma * const.R * T)
    if not np.all(np.isfinite(c_snd)):
        raise ValueError("non-finite wave speed")

    gids = disc.numbering.global_ids
    n = disc.ref.n_nodes
    coords = disc.metrics.coords
    dt = np.inf
    for axis, node_ax in ((0, 3), (1, 2), (2, 1)):
        lo = [slice(None)] * 4
        hi = [slice(None)] * 4
        lo[node_ax] = slice(None, -1)
        hi[node_ax] = slice(1, None)
        lo, hi = tuple(lo), tuple(hi)
        # |x_hi - x_lo|, summed in the order np.linalg.norm sums
        gap = sum((coords[..., d][hi] - coords[..., d][lo]) ** 2
                  for d in range(3))
        np.sqrt(gap, out=gap)
        speed = (np.abs(q[:, 1 + axis] / q[:, 0]) + c_snd)[gids]
        speed = speed.reshape(-1, n, n, n)
        gap /= np.maximum(speed[lo], speed[hi])
        dt = min(dt, courant[axis] * float(gap.min()))
    if not math.isfinite(dt) or dt <= 0.0:
        raise ValueError(f"computed dt = {dt}")
    return dt
