"""Compressible Euler right-hand side on the spectral-element mesh.

Prognostic vector per grid point: (rho, rho*u, rho*v, rho*w, Theta) with
Theta the density-weighted potential temperature.  Pressure and gravity
enter in perturbation form about the frozen hydrostatic background, so
the resting reference atmosphere is a machine-exact steady state.

Both element operators, the right-hand side (contravariant flux form;
Kopriva, *Implementing Spectral Methods for PDEs*, 2009) and the modal
filter, run on one pipeline: :func:`element_soa` gathers a batch of
elements as a structure of arrays, ``contract`` applies a 1D operator
along z, y or x of it, and :func:`_weight_into` writes the J*w-weighted
result into the (E, n, n, n, 5) contributions that the workers in
``harness`` assemble (``storage.PartitionLayout.exchange``, the engine's
one assembly).  The perturbation pressure is evaluated once per unique
point and gathered (:func:`element_pressure`); the kernel evaluates none.
"""

from dataclasses import dataclass

import numpy as np

from .mesh import MetricTerms, CgNumbering
from .reference_element import ReferenceElement, contract
from .storage import N_VARS, ReferenceAtmosphere


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


def _weight_into(contrib, values, weights) -> np.ndarray:
    """``values`` (5, E, n^3) times ``weights`` (broadcast against
    (E, n^3)) into the contributions ``contrib`` (E, n, n, n, 5)."""
    E = contrib.shape[0]
    np.multiply(values.reshape(N_VARS, E, -1), weights,
                out=contrib.reshape(E, -1, N_VARS).transpose(2, 0, 1))
    return contrib


def _first_bad_element(arr: np.ndarray, axis: int = 0) -> int:
    """First element with a non-finite value; ``axis`` is the element axis."""
    bad = ~np.isfinite(np.moveaxis(arr, axis, 0).reshape(arr.shape[axis], -1))
    return int(np.argmax(np.any(bad, axis=1)))


def rhs_element_contributions(state_cg: np.ndarray, gids: np.ndarray,
                              p_prime_el: np.ndarray, rho_bar_el: np.ndarray,
                              metrics: MetricTerms, ref: ReferenceElement,
                              const: GasConstants,
                              ws: RhsWorkspace) -> np.ndarray:
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

    ``state_cg`` holds the points ``gids`` indexes; ``p_prime_el`` is the
    perturbation pressure and ``rho_bar_el`` the background density at
    the element nodes, both (E, n^3) (:func:`element_pressure`,
    ``ReferenceAtmosphere.cg[:, 0][gids]``); ``ws`` holds the kernel's
    buffers for E elements (:meth:`RhsWorkspace.create`).  The kernel
    evaluates no pressure.  Returns a C-contiguous (E, n, n, n, 5).
    """
    n = ref.n_nodes
    E = gids.shape[0]
    m = gids.size
    q = element_soa(state_cg, gids).reshape(N_VARS, m)
    if not np.all(np.isfinite(q)):
        raise DivergedStateError(
            _first_bad_element(q.reshape(N_VARS, E, -1), axis=1))
    F = flux(q, p_prime_el.reshape(m), metrics.jg.reshape(3, 3, m),
             ws.flux, ws.U)
    # x runs as GEMMs against D^T in row chunks small enough that OpenBLAS
    # starts no pool thread (see contract); each spent flux block then
    # takes the next direction's result
    D = ref.diff_matrix
    contract(D, F[0].reshape(-1, n, n, n), ws.div, 2)
    contract(D, F[1].reshape(-1, n, n, n), F[0], 1)
    ws.div += F[0]
    contract(D, F[2].reshape(-1, n, n, n), F[1], 0)
    ws.div += F[1]

    contrib = _weight_into(np.empty((E, n, n, n, N_VARS)), ws.div,
                           -ref.weights_3d.reshape(-1))
    flat = contrib.reshape(E, n ** 3, N_VARS)
    # source: gravity acting on the density perturbation only
    flat[..., 3] -= (const.gravity * metrics.jw.reshape(E, -1)
                     * (q[0].reshape(E, -1) - rho_bar_el))
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
                     ra: ReferenceAtmosphere,
                     const: GasConstants) -> np.ndarray:
    """Perturbation pressure at the nodes ``gids`` of an element range.

    ``state_cg`` and ``ra`` hold the points the range touches (the whole
    mesh, or a partition's local points): the pressure is evaluated once
    per row, then gathered.
    """
    p_cg = pressure(state_cg[:, 0], state_cg[:, 4], const) - ra.pressure
    return p_cg[gids]


def filter_element(q: np.ndarray, ref: ReferenceElement) -> np.ndarray:
    """The modal filter along z, y and x of the structure-of-arrays batch
    ``q`` (B, n, n, n), between one scratch buffer and ``q``, which it
    overwrites; returns the filtered batch."""
    F = ref.filter_matrix
    scratch = np.empty_like(q)
    contract(F, q, scratch, 0)
    contract(F, scratch, q, 1)
    contract(F, q, scratch, 2)
    return scratch


def filter_contributions(state_cg: np.ndarray, gids: np.ndarray,
                         jw: np.ndarray, ref: ReferenceElement):
    """J*w-weighted filtered values of the elements at ``gids`` (E, n^3),
    for DSS; None when the filter is off (``filter_mu == 0``)."""
    if ref.filter_mu == 0.0:
        return None
    E, n = gids.shape[0], ref.n_nodes
    # the gather is freed before the contributions come: with three batch
    # arrays live, glibc gave back its heap top and faulted it in each call
    filtered = filter_element(
        element_soa(state_cg, gids).reshape(-1, n, n, n), ref)
    return _weight_into(np.empty((E, n, n, n, N_VARS)), filtered,
                        jw.reshape(E, -1))


def apply_boundary(state_cg: np.ndarray, numbering: CgNumbering) -> np.ndarray:
    """Free-slip walls: zero the normal momentum on each boundary plane.

    Walls are axis-aligned, so corner and edge nodes just get every
    relevant component zeroed; the projections commute.  In place.
    """
    for axis, ids in numbering.boundary_ids.items():
        state_cg[ids, 1 + axis] = 0.0
    return state_cg
