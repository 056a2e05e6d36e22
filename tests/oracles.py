"""Reference implementations the tests check the engine against.

Chain-rule element kernel: the engine evaluates the divergence in
contravariant form (rotate the flux with the metric cofactor, then one
contraction per direction and variable).  This module keeps the
physical form it replaced: the
(E, n, n, n, 5, 3) flux tensor, all fifteen components differentiated
along each of the three reference directions, and the inverse Jacobian
applied by the chain rule.  On affine elements the two agree to
round-off; ``mapped_box_mesh`` builds elements where they do not.

The small helpers at the end evaluate, by definition, what the engine
computes in bulk: a Lagrange cardinal polynomial, the mass integral, a
column's elements, the forward Euler scheme, and the CSV table read back.
"""

import numpy as np

from sembox.dynamics import pressure
from sembox.mesh import build_box_mesh
from sembox.perf_model import SCHEME_LABELS
from sembox.storage import N_VARS
from sembox.time_integration import RkScheme


def mapped_box_mesh():
    """2x2x2 trilinear elements in a 1000 m box whose interior vertex is
    moved, so no element is affine; the walls stay planar."""
    L = 1000.0

    def mapping(x, y, z):
        return (x + 30.0 * np.sin(np.pi * x / L) * np.sin(np.pi * y / L),
                y - 25.0 * np.sin(np.pi * y / L) * np.sin(np.pi * z / L),
                z + 20.0 * np.sin(np.pi * x / L) * np.sin(np.pi * z / L))

    return build_box_mesh(2, 2, 2, L, L, L, mapping=mapping)


def inverse_jacobian(metrics) -> np.ndarray:
    """(E, n, n, n, 3, 3) with [..., a, d] = d(xi_a)/d(x_d)."""
    return (np.moveaxis(metrics.jg, (0, 1), (-2, -1))
            / metrics.jacobian[..., None, None])


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


def local_derivative(values, metrics, ref, axis):
    """Physical derivative of element-nodal data along x, y, or z.

    Three 1D differentiation sweeps (along xi, eta, zeta), each weighted
    by the matching inverse-Jacobian column and summed.  ``values`` has
    shape (E, n, n, n) with node axes ordered z, y, x.
    """
    D = ref.diff_matrix
    d_xi = np.einsum("im,ekjm->ekji", D, values)
    d_eta = np.einsum("jm,ekmi->ekji", D, values)
    d_zeta = np.einsum("km,emji->ekji", D, values)
    g = inverse_jacobian(metrics)
    return (d_xi * g[..., 0, axis] + d_eta * g[..., 1, axis]
            + d_zeta * g[..., 2, axis])


def flux_divergence(F, metrics, ref):
    """Physical divergence of the (E, n, n, n, 5, 3) flux tensor: every
    component contracted along each reference direction (45
    contractions), then rotated by the inverse Jacobian."""
    D = ref.diff_matrix
    g = inverse_jacobian(metrics)
    d_xi = np.einsum("im,ekjmvd->ekjivd", D, F)
    d_eta = np.einsum("jm,ekmivd->ekjivd", D, F)
    d_zeta = np.einsum("km,emjivd->ekjivd", D, F)
    return (np.einsum("ekjivd,ekjid->ekjiv", d_xi, g[..., 0, :])
            + np.einsum("ekjivd,ekjid->ekjiv", d_eta, g[..., 1, :])
            + np.einsum("ekjivd,ekjid->ekjiv", d_zeta, g[..., 2, :]))


def rhs_element_contributions(state_el, ra_el, metrics, ref, const,
                              p_prime_el=None):
    """-J*w*(div F - S) per element node, in the chain-rule form.

    ``state_el``/``ra_el`` are (E, n^3, vars) element views; a given
    ``p_prime_el`` (E, n^3) replaces the per-node pressure evaluation.
    Returns (E, n, n, n, 5).
    """
    n = ref.n_nodes
    E = state_el.shape[0]
    state = state_el.reshape(E, n, n, n, N_VARS)
    ra = ra_el.reshape(E, n, n, n, 3)
    if p_prime_el is None:
        p_prime = pressure(state[..., 0], state[..., 4], const) - ra[..., 1]
    else:
        p_prime = p_prime_el.reshape(E, n, n, n)
    div = flux_divergence(flux(state, p_prime), metrics, ref)
    div[..., 3] += (state[..., 0] - ra[..., 0]) * const.gravity
    return div * -metrics.jw[..., None]


def lagrange_eval(points, i: int, xi: float) -> float:
    """Value of the i-th Lagrange cardinal polynomial at ``xi``."""
    points = np.asarray(points, dtype=float)
    if not 0 <= i < points.size:
        raise IndexError(f"node index {i} out of range for {points.size} points")
    val = 1.0
    for m, xm in enumerate(points):
        if m != i:
            val *= (xi - xm) / (points[i] - xm)
    return val


def total_mass(state_cg, numbering) -> float:
    """Mass integral sum(M_g * rho_g) over the domain."""
    return float(numbering.mass @ state_cg[:, 0])


def elements_of_column(mesh, c: int) -> range:
    """Element ids of column c, bottom to top."""
    return range(int(mesh.col_elem_start[c]), int(mesh.col_elem_start[c + 1]))


def forward_euler_scheme() -> RkScheme:
    """One-stage scheme; fails the second-order condition."""
    return RkScheme(stages=1, order=1, alpha=(((0, 1.0),),), beta=((0, 1.0),))


def parse_csv(text: str) -> dict:
    """Inverse of ``perf_model.emit_csv`` (labels back to scheme keys)."""
    lines = [ln for ln in text.strip().splitlines() if ln]
    labels = lines[0].split(",")[1:]
    inv = {v: k for k, v in SCHEME_LABELS.items()}
    out = {inv[lab]: {} for lab in labels}
    for ln in lines[1:]:
        parts = ln.split(",")
        row = parts[0]
        for lab, val in zip(labels, parts[1:]):
            out[inv[lab]][row] = float(val)
    return out
