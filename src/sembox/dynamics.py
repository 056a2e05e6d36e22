"""Compressible Euler right-hand side on the spectral-element mesh.

Prognostic vector per grid point: (rho, rho*u, rho*v, rho*w, Theta) with
Theta the density-weighted potential temperature.  Pressure and gravity
enter in perturbation form about the frozen hydrostatic background, so
the resting reference atmosphere is a machine-exact steady state.

The element kernel works on whole batches of elements (one fused set of
tensor contractions per batch) and produces J*w-weighted contributions;
the storage module assembles them into unique grid points.  The pressure,
filter and wall policies serve the serial operators and the partition
workers alike.
"""

from dataclasses import dataclass

import numpy as np

from .mesh import MetricTerms, CgNumbering
from .reference_element import ReferenceElement
from .storage import (N_VARS, SCHEME_CG, SCHEME_DG, ENGINE_SCHEMES,
                      ReferenceAtmosphere, dss)


class StateValidityError(ValueError):
    """Non-physical thermodynamic state (rho <= 0 or Theta <= 0)."""


class DivergedStateError(RuntimeError):
    """NaN/Inf appeared; carries the first offending element."""

    def __init__(self, element: int, what: str = "state"):
        super().__init__(f"diverged {what}: non-finite values in element {element}")
        self.element = element


@dataclass(frozen=True)
class GasConstants:
    """Dry-air thermodynamic constants (SI units)."""

    R: float = 287.0
    cp: float = 1004.5
    cv: float = 717.5
    p0: float = 1.0e5
    gravity: float = 9.81

    def __post_init__(self):
        if abs(self.cp - (self.cv + self.R)) > 1e-9 * self.cp:
            raise ValueError("inconsistent gas constants: cp must equal cv + R")

    @property
    def gamma(self) -> float:
        return self.cp / self.cv


def pressure(rho, theta_density, const: GasConstants):
    """Equation of state: P = p0 (R*Theta/p0)^gamma, Theta = rho*theta."""
    rho = np.asarray(rho, dtype=float)
    theta_density = np.asarray(theta_density, dtype=float)
    if np.any(rho <= 0.0) or np.any(theta_density <= 0.0):
        raise StateValidityError("pressure needs rho > 0 and Theta > 0")
    return const.p0 * (const.R * theta_density / const.p0) ** const.gamma


def flux(q, p_prime, out=None):
    """Flux tensor per node: rows rho*u; rho*u (x) u + P' I; Theta*u.

    ``q`` has shape (..., 5); ``p_prime`` the perturbation pressure
    (..., ).  Returns (..., 5, 3).
    """
    q = np.asarray(q, dtype=float)
    p_prime = np.asarray(p_prime, dtype=float)
    mom = q[..., 1:4]
    u = mom / q[..., 0:1]
    F = np.empty(q.shape + (3,)) if out is None else out
    F[..., 0, :] = mom
    F[..., 1:4, :] = mom[..., :, None] * u[..., None, :]
    for d in range(3):
        F[..., 1 + d, d] += p_prime
    F[..., 4, :] = q[..., 4:5] * u
    return F


def local_derivative(values: np.ndarray, metrics: MetricTerms,
                     ref: ReferenceElement, axis: int) -> np.ndarray:
    """Physical derivative of element-nodal data along x, y, or z.

    Three 1D differentiation sweeps (along xi, eta, zeta), each weighted
    by the matching inverse-Jacobian column and summed.  ``values`` has
    shape (E, n, n, n) with node axes ordered z, y, x.
    """
    D = ref.diff_matrix
    d_xi = np.einsum("im,ekjm->ekji", D, values)
    d_eta = np.einsum("jm,ekmi->ekji", D, values)
    d_zeta = np.einsum("km,emji->ekji", D, values)
    g = metrics.dxi_dx
    return (d_xi * g[..., 0, axis] + d_eta * g[..., 1, axis]
            + d_zeta * g[..., 2, axis])


@dataclass
class RhsWorkspace:
    """Reusable element-batch buffers for the right-hand-side kernel."""

    flux: np.ndarray     # (E, n, n, n, 5, 3)
    deriv: np.ndarray    # (E, n, n, n, 5, 3)
    div: np.ndarray      # (E, n, n, n, 5)

    @classmethod
    def create(cls, n_elements: int, n: int) -> "RhsWorkspace":
        shape = (n_elements, n, n, n)
        return cls(flux=np.empty(shape + (N_VARS, 3)),
                   deriv=np.empty(shape + (N_VARS, 3)),
                   div=np.empty(shape + (N_VARS,)))


def _first_bad_element(arr: np.ndarray) -> int:
    bad = ~np.isfinite(arr.reshape(arr.shape[0], -1))
    return int(np.argmax(np.any(bad, axis=1)))


def _contract(D: np.ndarray, src: np.ndarray, dst: np.ndarray, axis: int):
    """Apply D along one node axis of (E, n, n, n, ...) into dst.

    The contraction runs as a batched matrix product on reshaped views:
    grouping the leading axes and flattening the trailing ones leaves the
    contracted axis in the middle, which is much faster than the general
    einsum path.  ``axis`` counts node axes: 0 = z, 1 = y, 2 = x.
    """
    E, n = src.shape[0], D.shape[0]
    lead = E * n ** axis
    trail = src.size // (lead * n)
    np.matmul(D, src.reshape(lead, n, trail), out=dst.reshape(lead, n, trail))
    return dst


def _flux_divergence(ws: RhsWorkspace, metrics: MetricTerms,
                     ref: ReferenceElement) -> np.ndarray:
    """div of the tensor in ws.flux via per-direction contractions."""
    D = ref.diff_matrix
    _contract(D, ws.flux, ws.deriv, 2)
    np.einsum("ekjivd,ekjid->ekjiv", ws.deriv, metrics.dxi_dx[..., 0, :],
              out=ws.div)
    _contract(D, ws.flux, ws.deriv, 1)
    ws.div += np.einsum("ekjivd,ekjid->ekjiv", ws.deriv,
                        metrics.dxi_dx[..., 1, :])
    _contract(D, ws.flux, ws.deriv, 0)
    ws.div += np.einsum("ekjivd,ekjid->ekjiv", ws.deriv,
                        metrics.dxi_dx[..., 2, :])
    return ws.div


def rhs_element_contributions(state_el: np.ndarray, ra_el: np.ndarray,
                              metrics: MetricTerms, ref: ReferenceElement,
                              const: GasConstants,
                              ws: RhsWorkspace | None = None,
                              p_prime_el: np.ndarray | None = None) -> np.ndarray:
    """J*w-weighted RHS contribution of every element in the batch.

    ``state_el``/``ra_el`` are element views (E, n, n, n, vars).  When the
    perturbation pressure was already evaluated at unique points (CG
    storage), it is passed in; DG storage evaluates it here, per
    duplicated node.  Output = -J*w*(div F - S).
    """
    n = ref.n_nodes
    E = state_el.shape[0]
    state = state_el.reshape(E, n, n, n, N_VARS)
    ra = ra_el.reshape(E, n, n, n, 3)
    if not np.all(np.isfinite(state)):
        raise DivergedStateError(_first_bad_element(state))
    if ws is None:
        ws = RhsWorkspace.create(E, n)

    if p_prime_el is None:
        p_prime = pressure(state[..., 0], state[..., 4], const) - ra[..., 1]
    else:
        p_prime = p_prime_el.reshape(E, n, n, n)

    flux(state, p_prime, out=ws.flux)
    div = _flux_divergence(ws, metrics, ref)
    # source: gravity acting on the density perturbation only
    div[..., 3] += (state[..., 0] - ra[..., 0]) * const.gravity
    contrib = div * -metrics.jw[..., None]
    if not np.all(np.isfinite(contrib)):
        raise DivergedStateError(_first_bad_element(contrib), "right-hand side")
    return contrib


@dataclass
class Discretization:
    """The static pieces every kernel needs, bundled once."""

    mesh: object
    ref: ReferenceElement
    metrics: MetricTerms
    numbering: CgNumbering


def element_pressure(state_cg: np.ndarray, gids: np.ndarray,
                     ra: ReferenceAtmosphere, const: GasConstants,
                     scheme: str) -> np.ndarray | None:
    """Perturbation pressure at the nodes ``gids`` of an element range.

    ``state_cg`` and ``ra`` hold the points the range touches (the whole
    mesh, or a partition's local points), so CG evaluates the pressure
    once per row and gathers; DG returns None, and the kernel evaluates
    it per duplicated node.
    """
    if scheme == SCHEME_DG:
        return None
    p_cg = pressure(state_cg[:, 0], state_cg[:, 4], const) - ra.pressure
    return p_cg[gids]


def create_rhs(state_cg: np.ndarray, disc: Discretization, const: GasConstants,
               ra: ReferenceAtmosphere, scheme: str = SCHEME_CG) -> np.ndarray:
    """Assembled RHS (CG layout) of the discrete equations, serial path.

    Both storage schemes run the same mathematics; they differ in whether
    the pressure is evaluated at unique points (CG) or per duplicated
    element node (DG).  Results agree to round-off.
    """
    if scheme not in ENGINE_SCHEMES:
        raise ValueError(f"unknown storage scheme {scheme!r}")
    gids = disc.numbering.global_ids
    p_el = element_pressure(state_cg, gids, ra, const, scheme)
    contrib = rhs_element_contributions(state_cg[gids], ra.cg[gids],
                                        disc.metrics, disc.ref, const,
                                        p_prime_el=p_el)
    return dss(contrib, disc.numbering)


def filter_element(state_el: np.ndarray, ref: ReferenceElement) -> np.ndarray:
    """Tensor-product application of the modal filter inside each element.

    Three sequential one-direction transforms, ping-ponged through a
    scratch buffer.
    """
    F = ref.filter_matrix
    n = ref.n_nodes
    E = state_el.shape[0]
    q = np.ascontiguousarray(state_el.reshape(E, n, n, n, -1))
    scratch = np.empty_like(q)
    _contract(F, q, scratch, 0)
    out = np.empty_like(q)
    _contract(F, scratch, out, 1)
    _contract(F, out, scratch, 2)
    return scratch


def filter_contributions(state_cg: np.ndarray, gids: np.ndarray,
                         jw: np.ndarray, ref: ReferenceElement):
    """J*w-weighted filtered values of the elements at ``gids``, to be
    assembled by DSS; None when the filter is off (``filter_mu == 0``)."""
    if ref.filter_mu == 0.0:
        return None
    return filter_element(state_cg[gids], ref) * jw[..., None]


def apply_filter(state_cg: np.ndarray, disc: Discretization) -> np.ndarray:
    """Filter each element, then restore continuity by mass-weighted DSS."""
    num = disc.numbering
    contrib = filter_contributions(state_cg, num.global_ids, disc.metrics.jw,
                                   disc.ref)
    return state_cg if contrib is None else dss(contrib, num)


def apply_boundary(state_cg: np.ndarray, numbering: CgNumbering) -> np.ndarray:
    """Free-slip walls: zero the normal momentum on each boundary plane.

    Walls are axis-aligned, so corner and edge nodes just get every
    relevant component zeroed; the projections commute.  In place.
    """
    for axis, ids in numbering.boundary_ids.items():
        state_cg[ids, 1 + axis] = 0.0
    return state_cg


def total_mass(state_cg: np.ndarray, numbering: CgNumbering) -> float:
    """Mass integral sum(M_g * rho_g) over the domain."""
    return float(numbering.mass @ state_cg[:, 0])
