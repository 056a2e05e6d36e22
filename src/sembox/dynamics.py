"""Compressible Euler right-hand side on the spectral-element mesh.

Prognostic vector per grid point: (rho, rho*u, rho*v, rho*w, Theta) with
Theta the density-weighted potential temperature.  Pressure and gravity
enter in perturbation form about the frozen hydrostatic background, so
the resting reference atmosphere is a machine-exact steady state.

The element kernel works on whole batches of elements in the
contravariant flux form (Kopriva, *Implementing Spectral Methods for
PDEs*, 2009): the physical flux is rotated once per node by the metric
cofactor J d(xi_a)/d(x_d) into one flux per reference direction, and
each is differentiated along its own direction only, 15 one-direction
contractions per node (3 directions x 5 variables) on
structure-of-arrays data.  On affine elements this equals the chain-rule
form to round-off; on trilinear mapped elements it is the conservative
form and keeps a uniform flow uniform only for p >= 2, where the
discrete metric identities hold (at p = 1 a mapped 2x2x2 box leaves a
free-stream residual of order 1e-3 relative to the flux change across an
element).  The kernel produces J*w-weighted contributions; the storage
module assembles them into unique grid points.  The pressure, filter and
wall policies serve the serial operators and the partition workers
alike.
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


def flux(q, p_prime, jg, F, U):
    """Contravariant flux of every node, direction-major, into ``F``.

    ``q`` is the conserved state (5, M), ``p_prime`` the perturbation
    pressure (M,) and ``jg`` the metric cofactor (3, 3, M),
    jg[a, d] = J d(xi_a)/d(x_d).  With the contravariant velocity
    U_a = sum_d jg[a, d] u_d, the flux along xi_a is
    Fc[a] = q U_a plus jg[a, c] P' on the momentum rows 1 + c.
    ``F`` is (3, 5, M); ``U`` is a (3, M) scratch buffer.
    """
    np.multiply(jg[:, 0], q[1], out=U)
    U += jg[:, 1] * q[2]
    U += jg[:, 2] * q[3]
    U /= q[0]
    np.multiply(U[:, None, :], q[None, :, :], out=F)
    for a in range(3):
        np.multiply(jg[a], p_prime, out=U)      # U is spent: reuse it
        F[a, 1:4] += U
    return F


@dataclass
class RhsWorkspace:
    """Reusable structure-of-arrays buffers of the right-hand-side kernel
    for a batch of M = E n^3 element nodes."""

    U: np.ndarray        # (3, M) contravariant velocity
    flux: np.ndarray     # (3, 5, M) contravariant flux, direction-major
    div: np.ndarray      # (5, M) reference-space divergence

    @classmethod
    def create(cls, n_elements: int, n: int) -> "RhsWorkspace":
        m = n_elements * n ** 3
        return cls(U=np.empty((3, m)), flux=np.empty((3, N_VARS, m)),
                   div=np.empty((N_VARS, m)))


def element_soa(cg: np.ndarray, gids: np.ndarray) -> np.ndarray:
    """Rows of the point field ``cg`` (points, vars) at the element nodes
    ``gids`` (E, n^3), as a structure of arrays (vars, E, n^3)."""
    return np.take(cg.T, gids, axis=1)


def _first_bad_element(arr: np.ndarray, axis: int = 0) -> int:
    """First element with a non-finite value; ``axis`` is the element axis."""
    bad = ~np.isfinite(np.moveaxis(arr, axis, 0).reshape(arr.shape[axis], -1))
    return int(np.argmax(np.any(bad, axis=1)))


def _contract(D: np.ndarray, src: np.ndarray, dst: np.ndarray, axis: int):
    """Apply D along one node axis of (E, n, n, n, ...) into dst.

    The contraction runs as a batched matrix product on reshaped views:
    grouping the leading axes and flattening the trailing ones leaves the
    contracted axis in the middle, which is much faster than the general
    einsum path.  ``axis`` counts node axes: 0 = z, 1 = y, 2 = x.  Each
    batch entry is a product within one element, so the result does not
    depend on how many elements the batch holds.
    """
    E, n = src.shape[0], D.shape[0]
    lead = E * n ** axis
    trail = src.size // (lead * n)
    np.matmul(D, src.reshape(lead, n, trail), out=dst.reshape(lead, n, trail))
    return dst


def rhs_element_contributions(state_cg: np.ndarray, gids: np.ndarray,
                              ra_el: np.ndarray, metrics: MetricTerms,
                              ref: ReferenceElement, const: GasConstants,
                              ws: RhsWorkspace | None = None,
                              p_prime_el: np.ndarray | None = None) -> np.ndarray:
    """J*w-weighted RHS contribution of every element at ``gids`` (E, n^3).

    Contravariant (conservative) flux form: with Fc[a] the flux along
    xi_a (see :func:`flux`), the element divergence is
    J div F = D_xi Fc[0] + D_eta Fc[1] + D_zeta Fc[2], fifteen
    one-direction contractions on structure-of-arrays (vars, nodes) data,
    and the contribution is -w (J div F) - J w S with the gravity source
    S on the vertical momentum.  On affine elements this equals the
    chain-rule form to round-off.  On trilinear mapped elements it keeps
    a uniform flow uniform only where the discrete metric identities
    hold, which needs p >= 2 (at p = 1 the cofactor is not differentiated
    exactly).

    ``state_cg`` holds the points ``gids`` indexes; ``ra_el`` is the
    background at the element nodes, (3, E, n^3) as :func:`element_soa`
    gathers it.  When the perturbation pressure was already evaluated at
    unique points (CG storage), it is passed in; DG storage evaluates it
    here, per duplicated node.  Returns a C-contiguous (E, n, n, n, 5).
    """
    n = ref.n_nodes
    E = gids.shape[0]
    m = gids.size
    q = element_soa(state_cg, gids).reshape(N_VARS, m)
    if not np.all(np.isfinite(q)):
        raise DivergedStateError(
            _first_bad_element(q.reshape(N_VARS, E, -1), axis=1))
    if ws is None:
        ws = RhsWorkspace.create(E, n)
    ra = ra_el.reshape(3, m)

    if p_prime_el is None:
        p_prime = pressure(q[0], q[4], const) - ra[1]
    else:
        p_prime = p_prime_el.reshape(m)

    F = flux(q, p_prime, metrics.jg.reshape(3, 3, m), ws.flux, ws.U)
    # x runs as one GEMM against D^T (its rows do not depend on how many
    # the batch holds, which partition invariance needs); each spent flux
    # block then takes the next direction's result
    D = ref.diff_matrix
    np.matmul(F[0].reshape(-1, n), np.ascontiguousarray(D.T),
              out=ws.div.reshape(-1, n))
    _contract(D, F[1].reshape(-1, n, n, n), F[0], 1)
    ws.div += F[0]
    _contract(D, F[2].reshape(-1, n, n, n), F[1], 0)
    ws.div += F[1]

    contrib = np.empty((E, n, n, n, N_VARS))
    flat = contrib.reshape(E, n ** 3, N_VARS)
    np.multiply(ws.div.reshape(N_VARS, E, -1), -ref.weights_3d.reshape(-1),
                out=flat.transpose(2, 0, 1))
    # source: gravity acting on the density perturbation only
    flat[..., 3] -= (const.gravity * metrics.jw.reshape(E, -1)
                     * (q[0] - ra[0]).reshape(E, -1))
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
    contrib = rhs_element_contributions(state_cg, gids,
                                        element_soa(ra.cg, gids),
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
