"""Reference implementations the tests check the engine against.

Chain-rule element kernel: the engine evaluates the divergence in
contravariant form (rotate the flux with the metric cofactor, then one
contraction per direction and variable).  This module keeps the
physical form it replaced: the
(E, n, n, n, 5, 3) flux tensor, all fifteen components differentiated
along each of the three reference directions, and the inverse Jacobian
applied by the chain rule.  On affine elements the two agree to
round-off; ``mapped_box_mesh`` builds elements where they do not.
Without a given perturbation pressure it evaluates the pressure per
duplicated element node, as DG storage would; the engine evaluates it
once per unique point under every scheme.

Direction-major kernel: the engine forms the contravariant flux one
direction at a time in a (5, M) buffer and returns its contributions in
that buffer.  ``direction_major_contributions`` keeps the form it
replaced: the flux along all three directions in one (3, 5, M) array,
each spent direction's block taking the next contraction, and a fresh
contributions array; the engine must give the same bytes.

Serial operators: the engine assembles only through
``PartitionLayout.exchange`` (serial is its one-partition case).  The
serial right-hand side, filter and direct stiffness summation here run
the engine's element kernels on the whole mesh and assemble them with
the color-batch loop, the canonical summation order by definition; the
partitioned runs must match them bit for bit.  The filter's reference
is the array-of-structures form the engine replaced: a gathered
(E, n, n, n, 5) copy filtered along z, y and x, then weighted; the
engine's structure-of-arrays filter must give the same bytes.

Set-up references: the engine builds the metric terms by separable
contractions and takes the Courant step one axis at a time.  The
general ``einsum`` metrics and the per-element Courant step over a
gathered (E, n^3, 3) speed field are kept here as the forms they must
reproduce.

Hydrostatic balance: the engine keeps only the background density and
pressure.  ``hydrostatic_residual`` audits the density against the
analytic derivative of the neutral pressure profile.

The small helpers at the end evaluate, by definition, what the engine
computes in bulk: a Lagrange cardinal polynomial, the mass integral, a
column's elements, the forward Euler scheme, and the CSV table read back.
"""

import dataclasses

import numpy as np

from sembox.dynamics import (RhsWorkspace, _weight_into, element_pressure,
                             element_soa, filter_contributions, pressure,
                             rhs_element_contributions as engine_contributions)
from sembox.mesh import MetricTerms, build_box_mesh
from sembox.perf_model import SCHEME_CG, SCHEME_DG, SCHEME_LABELS
from sembox.reference_element import contract
from sembox.storage import N_VARS
from sembox.time_integration import RkScheme


def mapped_box_mesh():
    """2x2x2 trilinear elements in a 1000 m box whose interior vertex is
    moved, so no element is affine; the walls stay planar."""
    L = 1000.0
    mesh = build_box_mesh(2, 2, 2, L, L, L)
    x, y, z = np.moveaxis(mesh.vertices, -1, 0)
    moved = (x + 30.0 * np.sin(np.pi * x / L) * np.sin(np.pi * y / L),
             y - 25.0 * np.sin(np.pi * y / L) * np.sin(np.pi * z / L),
             z + 20.0 * np.sin(np.pi * x / L) * np.sin(np.pi * z / L))
    return dataclasses.replace(mesh, vertices=np.stack(moved, axis=-1))


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
    ra = ra_el.reshape(E, n, n, n, 2)
    if p_prime_el is None:
        p_prime = pressure(state[..., 0], state[..., 4], const) - ra[..., 1]
    else:
        p_prime = p_prime_el.reshape(E, n, n, n)
    div = flux_divergence(flux(state, p_prime), metrics, ref)
    div[..., 3] += (state[..., 0] - ra[..., 0]) * const.gravity
    return div * -metrics.jw[..., None]


def direction_major_contributions(state_cg, gids, p_prime_el, rho_bar_el,
                                  metrics, ref, const) -> np.ndarray:
    """The contravariant kernel on a direction-major (3, 5, M) flux:
    U_a for all three directions at once, F[a] = U_a q plus jg[a, c] P'
    on the momentum rows, x contracted into ``div``, y into the spent x
    block and z into the spent y block, each added to ``div``.  Returns
    a new (E, n, n, n, 5) array."""
    n = ref.n_nodes
    E, m = gids.shape[0], gids.size
    q = element_soa(state_cg, gids).reshape(N_VARS, m)
    jg = metrics.jg.reshape(3, 3, m)
    U = np.multiply(jg[:, 0], q[1])
    U += jg[:, 1] * q[2]
    U += jg[:, 2] * q[3]
    U /= q[0]
    F = U[:, None, :] * q[None, :, :]
    for a in range(3):
        F[a, 1:4] += jg[a] * p_prime_el.reshape(m)
    D = ref.diff_matrix
    div = np.empty((N_VARS, m))
    contract(D, F[0].reshape(-1, n, n, n), div, 2)
    contract(D, F[1].reshape(-1, n, n, n), F[0], 1)
    div += F[0]
    contract(D, F[2].reshape(-1, n, n, n), F[1], 0)
    div += F[1]
    contrib = _weight_into(np.empty((E, n, n, n, N_VARS)), div,
                           -ref.weights_3d.reshape(-1))
    contrib.reshape(E, n ** 3, N_VARS)[..., 3] -= (
        const.gravity * metrics.jw.reshape(E, -1)
        * (q[0].reshape(E, -1) - rho_bar_el))
    return contrib


def accumulate_by_color(contrib, numbering) -> np.ndarray:
    """Per-point sum of element contributions, one scatter-add per color
    batch in color order from +0.0: the canonical order by definition."""
    nv = contrib.shape[-1]
    acc = np.zeros((numbering.n_unique, nv))
    flat = contrib.reshape(numbering.global_ids.shape[0], -1, nv)
    for batch in numbering.color_batches:
        acc[numbering.global_ids[batch].ravel()] += flat[batch].reshape(-1, nv)
    return acc


def dss(contrib, numbering) -> np.ndarray:
    """Serial direct stiffness summation of J*w-weighted DG-layout
    contributions: the color-batch sum times the inverse mass."""
    return accumulate_by_color(contrib, numbering) * numbering.inv_mass[:, None]


def create_rhs(state_cg, disc, const, ra, scheme=SCHEME_CG) -> np.ndarray:
    """Assembled RHS (CG layout) of the whole mesh: element contributions
    over every element, then :func:`dss`.

    ``cg``: the engine's element kernel, with the pressure evaluated once
    per unique point.  ``dg``: the chain-rule
    :func:`rhs_element_contributions` with the pressure evaluated per
    duplicated element node, where DG storage places it; the engine
    runs CG under either scheme, so this is the one per-node path left.
    """
    gids = disc.numbering.global_ids
    if scheme == SCHEME_DG:
        contrib = rhs_element_contributions(state_cg[gids], ra.cg[gids],
                                            disc.metrics, disc.ref, const)
    else:
        contrib = engine_contributions(
            state_cg, gids, element_pressure(state_cg, gids, ra, const),
            ra.cg[:, 0][gids], disc.metrics, disc.ref, const,
            RhsWorkspace.create(gids.shape[0], disc.ref.n_nodes))
    return dss(contrib, disc.numbering)


def apply_filter(state_cg, disc) -> np.ndarray:
    """Filter each element, then restore continuity by :func:`dss`; the
    state itself when the filter is off."""
    num = disc.numbering
    contrib = filter_contributions(state_cg, num.global_ids, disc.metrics.jw,
                                   disc.ref)
    return state_cg if contrib is None else dss(contrib, num)


def aos_filter_contributions(state_cg, gids, jw, ref) -> np.ndarray:
    """J*w-weighted filtered values of the elements at ``gids`` (E, n^3)
    on an array-of-structures (E, n, n, n, 5) copy: the filter matrix
    along z, y and x, ping-ponged through a scratch buffer, then times
    ``jw`` (E, n, n, n)."""
    F = ref.filter_matrix
    n = ref.n_nodes
    q = state_cg[gids].reshape(gids.shape[0], n, n, n, -1)
    scratch = np.empty_like(q)
    contract(F, q, scratch, 0)
    out = np.empty_like(q)
    contract(F, scratch, out, 1)
    contract(F, out, scratch, 2)
    return scratch * jw[..., None]


def einsum_metrics(mesh, ref) -> MetricTerms:
    """Metric terms by general ``einsum`` contractions: the trilinear
    coordinate map at the Lobatto nodes, its covariant vectors
    g_b = dx/dxi_b by nodal differentiation, and the cofactor rows as
    their cross products (no inverted-element check)."""
    x = ref.points
    D = ref.diff_matrix
    shape = 0.5 * np.stack([1.0 - x, 1.0 + x], axis=1)
    coords = np.einsum("kc,jb,ia,ecbad->ekjid", shape, shape, shape,
                       mesh.vertices, optimize=True)
    xyz = np.moveaxis(coords, -1, 0)
    g = np.empty((3,) + xyz.shape)
    np.einsum("im,dekjm->dekji", D, xyz, out=g[0])
    np.einsum("jm,dekmi->dekji", D, xyz, out=g[1])
    np.einsum("km,demji->dekji", D, xyz, out=g[2])
    jg = np.empty_like(g)
    for a in range(3):
        u, v = g[(a + 1) % 3], g[(a + 2) % 3]
        for d in range(3):
            e, f = (d + 1) % 3, (d + 2) % 3
            jg[a, d] = u[e] * v[f] - u[f] * v[e]
    jac = g[0, 0] * jg[0, 0] + g[0, 1] * jg[0, 1] + g[0, 2] * jg[0, 2]
    return MetricTerms(coords=coords, jacobian=jac, jg=jg,
                       jw=jac * ref.weights_3d)


def gathered_dt(state_cg, disc, const, courant_h, courant_v) -> float:
    """Courant step by definition: the minimum over every element's
    adjacent node pairs of C_d * |x_hi - x_lo| / max(s_lo, s_hi), with the
    per-point speeds |u_d| + c gathered to all element nodes at once."""
    q = state_cg
    P = const.p0 * (const.R * q[:, 4] / const.p0) ** const.gamma
    T = P / (q[:, 0] * const.R)
    c_snd = np.sqrt(const.gamma * const.R * T)
    u = q[:, 1:4] / q[:, 0:1]
    gids = disc.numbering.global_ids
    n = disc.ref.n_nodes
    speed = (np.abs(u) + c_snd[:, None])[gids].reshape(-1, n, n, n, 3)
    coords = disc.metrics.coords
    dt = np.inf
    for axis, node_ax, c in ((0, 3, courant_h), (1, 2, courant_h),
                             (2, 1, courant_v)):
        lo = [slice(None)] * 4
        hi = [slice(None)] * 4
        lo[node_ax] = slice(None, -1)
        hi[node_ax] = slice(1, None)
        gap = np.linalg.norm(coords[tuple(hi)] - coords[tuple(lo)], axis=-1)
        spd = np.maximum(speed[tuple(lo) + (axis,)], speed[tuple(hi) + (axis,)])
        dt = min(dt, c * float((gap / spd).min()))
    return dt


def hydrostatic_residual(ra, z, const) -> float:
    """max |dp_bar/dz + rho_bar g| / (rho_bar g) over the nodes at heights
    ``z``, with dp_bar/dz the analytic derivative of the neutral profile
    p_bar(z) = p0 (1 - g z / (cp theta0))^(cp/R)."""
    g, th0 = const.gravity, ra.theta0
    exner = 1.0 - g * z / (const.cp * th0)
    dp_dz = -(g * const.p0 / (const.R * th0)) * exner ** (const.cp / const.R - 1.0)
    rg = ra.cg[:, 0] * g
    return float(np.max(np.abs(dp_dz + rg) / rg))


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
