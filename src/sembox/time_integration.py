"""Explicit five-stage, third-order Runge-Kutta stepping.

The scheme is stored in Shu-Osher form: every stage is a convex
combination of earlier stage states plus one weighted right-hand-side
evaluation, which keeps all coefficients non-negative
(strong-stability-preserving structure).  The default coefficient set
was solved to full precision against the third-order conditions; the
constructor re-verifies them and refuses schemes that fail.

The step driver owns the synchronization pattern of the whole solver:
right-hand side (with its exchange) -> state update -> wall projection,
five times, then the filter (with its own exchange).  Every
configuration here is fully explicit.  The partition workers in
``harness`` run the same stage loop with their own phase timing; a test
pins them bit for bit to this stepper over the tests' serial operators.
"""

from dataclasses import dataclass
import math

import numpy as np


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


def rk_step(state, dt: float, rhs_fn, scheme: RkScheme | None = None,
            filter_fn=None, boundary_fn=None):
    """Advance one step: five RHS stages, then the filter pass.

    ``rhs_fn(state)`` returns the assembled tendency; ``boundary_fn`` is
    applied to each stage state in place; ``filter_fn(state)`` runs after
    the stage loop (it performs its own assembly/exchange).
    """
    if scheme is None:
        scheme = DEFAULT_SCHEME
    stages = [state]
    for i in range(scheme.stages):
        k, bt = scheme.beta[i]
        f = rhs_fn(stages[k])
        new = None
        for j, a in scheme.alpha[i]:
            term = a * stages[j]
            new = term if new is None else new + term
        new = new + (dt * bt) * f
        if boundary_fn is not None:
            boundary_fn(new)
        stages.append(new)
    out = stages[-1]
    if filter_fn is not None:
        out = filter_fn(out)
    return out


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
    element's node pairs along that axis.
    """
    courant = (control.courant_h, control.courant_h, control.courant_v)
    for axis, c in enumerate(courant):
        if not (math.isfinite(c) and c > 0.0):
            raise ValueError(f"Courant number along axis {axis} must be positive")
    q = state_cg
    if np.any(q[:, 0] <= 0.0) or np.any(q[:, 4] <= 0.0):
        raise ValueError("timestep needs a valid thermodynamic state")
    P = const.p0 * (const.R * q[:, 4] / const.p0) ** const.gamma
    T = P / (q[:, 0] * const.R)
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
