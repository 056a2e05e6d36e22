"""Compressible Euler right-hand side on the spectral-element mesh.

Prognostic vector per grid point: (rho, rho*u, rho*v, rho*w, Theta) with
Theta the density-weighted potential temperature.  Pressure and gravity
enter in perturbation form about the frozen hydrostatic background, so
the resting reference atmosphere is a machine-exact steady state.

Both element operators, the right-hand side (contravariant flux form;
Kopriva, *Implementing Spectral Methods for PDEs*, 2009) and the modal
filter, run on one pipeline: :func:`element_soa` gathers a batch of
elements as a structure of arrays, ``contract`` applies a 1D operator
along z, y or x of it, and :func:`_weight_into` writes the weighted
result into the (n, n, E, n, 5) contributions that the workers in
``harness`` assemble (``storage.PartitionLayout.exchange``, the engine's
one assembly).  Every element-node batch the operators read or write is
node-major, (y, z, element, x) (:func:`~sembox.mesh.node_major`): the
gather index, the geometry, the gathered state and pressure, the
workspace and the contributions.  So a y derivative is one matrix
product D @ S over every element, a z derivative one per y slab and an
x derivative row GEMMs against D^T, each in chunks of at most
``GEMM_ROWS`` columns or rows: a few dozen GEMMs a stage, where an
element-major batch takes one per element and node.  Set-up, the
numbering and the metric terms stay element-major; a worker holds its
elements' node-major copies.  The perturbation pressure is evaluated
once per unique point and gathered (:func:`element_pressure`); the
kernel evaluates none.  Both take only the geometry they read, the
metric cofactors ``jg``, the weighted Jacobian ``jw`` and, for the
kernel, the negated quadrature weights (:func:`minus_weights`), not a
whole :class:`~sembox.mesh.MetricTerms`, so a worker holds its
partition's copies of those and no node coordinates or Jacobian.

Every phase of the step is memory-bound, so the operators hold only
live data: the kernel forms the flux one direction at a time in a
(5, M) buffer of its :class:`RhsWorkspace` and writes the contributions
into that buffer once the last direction is spent; the filter writes
them into its own gather once the third contraction has read it.
Neither allocates a contributions array, and the kernel's result is
valid only until the next call on the same workspace (``exchange``
copies what it keeps).
"""

from dataclasses import dataclass

import numpy as np

from .mesh import MetricTerms, CgNumbering, node_major
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


def flux(q, p_prime, jg_a, F, U):
    """Contravariant flux along one reference direction xi_a, into ``F``.

    ``q`` is the conserved state (5, M), ``p_prime`` the perturbation
    pressure (M,) and ``jg_a`` the metric cofactor row (3, M) of xi_a,
    jg_a[d] = J d(xi_a)/d(x_d).  With the contravariant velocity
    U_a = sum_d jg_a[d] u_d, the flux is F = q U_a plus jg_a[c] P' on
    the momentum rows 1 + c.  ``F`` is (5, M); ``U`` is an (M,) scratch
    buffer, free again on return.
    """
    np.multiply(jg_a[0], q[1], out=U)
    U += jg_a[1] * q[2]
    U += jg_a[2] * q[3]
    U /= q[0]
    np.multiply(U, q, out=F)
    for c in range(3):
        np.multiply(jg_a[c], p_prime, out=U)    # U is spent: reuse it
        F[1 + c] += U
    return F


@dataclass
class RhsWorkspace:
    """Reusable structure-of-arrays buffers of the right-hand-side kernel
    for a batch of M = E n^3 element nodes, each row node-major
    (y, z, E, x): 11 M doubles.

    The kernel forms one direction's flux at a time and returns its
    contributions in ``flux``, so a result lives only until the next
    call on the same workspace.
    """

    U: np.ndarray        # (M,) contravariant velocity, then a scratch row
    flux: np.ndarray     # (5, M) flux along one direction, then the result
    div: np.ndarray      # (5, M) reference-space divergence

    @classmethod
    def create(cls, n_elements: int, n: int) -> "RhsWorkspace":
        m = n_elements * n ** 3
        return cls(U=np.empty(m), flux=np.empty((N_VARS, m)),
                   div=np.empty((N_VARS, m)))


def element_soa(cg: np.ndarray, gids: np.ndarray) -> np.ndarray:
    """Rows of the point field ``cg`` (points, vars) at the element nodes
    ``gids``, as a structure of arrays (vars, *gids.shape)."""
    return np.take(cg.T, gids, axis=1)


def minus_weights(ref: ReferenceElement, n_elements: int) -> np.ndarray:
    """-w, the negated tensor-product quadrature weight, at every node of
    ``n_elements`` elements, node-major (M,).  The kernel weights its
    contributions with it at full length, so that the write into the
    (M, 5) contributions runs one loop over M, not one per x row."""
    n = ref.n_nodes
    return node_major(np.broadcast_to(-ref.weights_3d,
                                      (n_elements, n, n, n))).ravel()


def _weight_into(contrib, values, weights) -> np.ndarray:
    """``values`` (5, M) times ``weights`` (M,) into the contributions
    ``contrib`` (..., 5) of the same M nodes."""
    np.multiply(values.reshape(N_VARS, -1), weights,
                out=contrib.reshape(-1, N_VARS).T)
    return contrib


def _first_bad_element(arr: np.ndarray, axis: int) -> int:
    """First element with a non-finite value; ``axis`` is the element axis."""
    bad = ~np.isfinite(np.moveaxis(arr, axis, 0).reshape(arr.shape[axis], -1))
    return int(np.argmax(np.any(bad, axis=1)))


def rhs_element_contributions(state_cg: np.ndarray, gids: np.ndarray,
                              p_prime_el: np.ndarray, rho_bar_el: np.ndarray,
                              jg: np.ndarray, jw: np.ndarray,
                              minus_w: np.ndarray, ref: ReferenceElement,
                              const: GasConstants,
                              ws: RhsWorkspace) -> np.ndarray:
    """J*w-weighted RHS contribution of every element node at ``gids``.

    Contravariant (conservative) flux form: with F_a the flux along
    xi_a (see :func:`flux`), the element divergence is
    J div F = D_xi F_0 + D_eta F_1 + D_zeta F_2, fifteen one-direction
    contractions on structure-of-arrays (vars, nodes) data, and the
    contribution is -w (J div F) - J w S with the gravity source S on
    the vertical momentum.  On affine elements this equals the
    chain-rule form to round-off.  On trilinear mapped elements it keeps
    a uniform flow uniform only where the discrete metric identities
    hold, which needs p >= 2 (at p = 1 the cofactor is not differentiated
    exactly).

    Every batch is node-major (:func:`~sembox.mesh.node_major`): ``gids``
    (n, n, E, n) indexes the points ``state_cg`` holds; ``p_prime_el`` is
    the perturbation pressure and ``rho_bar_el`` the background density
    at those nodes (:func:`element_pressure`,
    ``ReferenceAtmosphere.cg[:, 0][gids]``); ``jg`` (3, 3, n, n, E, n)
    and ``jw`` (n, n, E, n) are the elements' metric cofactors and
    weighted Jacobian (:class:`~sembox.mesh.MetricTerms`, node-major),
    the only geometry the kernel reads, and ``minus_w`` (M,) is
    :func:`minus_weights`; ``ws`` holds the kernel's buffers for E
    elements (:meth:`RhsWorkspace.create`).  The kernel evaluates no
    pressure.  Returns a C-contiguous (n, n, E, n, 5) view of
    ``ws.flux``: valid until the next call on ``ws``, which overwrites
    it.
    """
    n = ref.n_nodes
    m = gids.size
    q = element_soa(state_cg, gids).reshape(N_VARS, m)
    if not np.all(np.isfinite(q)):
        raise DivergedStateError(
            _first_bad_element(q.reshape(N_VARS, *gids.shape), axis=3))
    p_prime = p_prime_el.reshape(m)
    jg = jg.reshape(3, 3, m)
    D = ref.diff_matrix
    # one direction's flux at a time: x contracts into div as row GEMMs
    # against D^T, y and z one variable at a time into U, free once the
    # flux is formed, as D @ S over every element (y) or per y slab (z);
    # each adds to div in the order x+y+z
    F = flux(q, p_prime, jg[0], ws.flux, ws.U)
    contract(D, F.reshape(-1, n), ws.div, 1)
    for a in (1, 2):
        F = flux(q, p_prime, jg[a], ws.flux, ws.U)
        for v in range(N_VARS):
            contract(D, F[v].reshape(gids.shape), ws.U, a - 1)
            ws.div[v] += ws.U
    # source: gravity acting on the density perturbation only
    source = const.gravity * jw.reshape(m) * (q[0] - rho_bar_el.reshape(m))
    del q           # the gather is freed before the contributions come
    contrib = _weight_into(ws.flux.reshape(*gids.shape, N_VARS), ws.div,
                           minus_w)
    contrib.reshape(m, N_VARS)[:, 3] -= source
    if not np.all(np.isfinite(contrib)):
        raise DivergedStateError(_first_bad_element(contrib, axis=2),
                                 "right-hand side")
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
    """The modal filter along z, y and x of the node-major
    structure-of-arrays batch ``q`` (vars, n, n, E, n), between one
    scratch buffer and ``q``, which it overwrites; returns the filtered
    batch."""
    F = ref.filter_matrix
    scratch = np.empty_like(q)
    contract(F, q, scratch, 2)
    contract(F, scratch, q, 1)
    contract(F, q, scratch, 4)
    return scratch


def filter_contributions(state_cg: np.ndarray, gids: np.ndarray,
                         jw: np.ndarray, ref: ReferenceElement):
    """J*w-weighted filtered values of the element nodes at ``gids``
    (n, n, E, n), for DSS, node-major (n, n, E, n, 5) like ``gids`` and
    ``jw``; None when the filter is off (``filter_mu == 0``)."""
    if ref.filter_mu == 0.0:
        return None
    # the gather is spent once the third contraction has read it, so the
    # contributions go into it: two batch arrays live, not three
    q = element_soa(state_cg, gids)
    filtered = filter_element(q, ref)
    return _weight_into(q.reshape(*gids.shape, N_VARS), filtered,
                        jw.reshape(-1))


def apply_boundary(state_cg: np.ndarray, numbering: CgNumbering) -> np.ndarray:
    """Free-slip walls: zero the normal momentum on each boundary plane.

    Walls are axis-aligned, so corner and edge nodes just get every
    relevant component zeroed; the projections commute.  In place.
    """
    for axis, ids in numbering.boundary_ids.items():
        state_cg[ids, 1 + axis] = 0.0
    return state_cg
