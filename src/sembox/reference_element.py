"""One-dimensional Gauss-Lobatto-Legendre operators on the reference interval.

Everything the 3D solver needs is composed from the objects built here:
Lobatto nodes and quadrature weights, the nodal differentiation matrix,
the Legendre Vandermonde pair for nodal<->modal transforms, and the
erfc-log low-pass filter matrix used for stabilization.  All operators
are built once at startup and shared read-only afterwards.
"""

from dataclasses import dataclass, field
import math

import numpy as np


class InvalidOrderError(ValueError):
    """Polynomial degree outside the supported range."""


def legendre(p: int, x):
    """Evaluate P_p and its first derivative at ``x`` by the three-term recurrence.

    Works on scalars or arrays.  Returns ``(P_p(x), P_p'(x))``.
    """
    x = np.asarray(x, dtype=float)
    pm1 = np.ones_like(x)
    if p == 0:
        return pm1, np.zeros_like(x)
    pk = x.copy()
    dpm1 = np.zeros_like(x)
    dpk = np.ones_like(x)
    for k in range(1, p):
        pk1 = ((2 * k + 1) * x * pk - k * pm1) / (k + 1)
        dpk1 = dpm1 + (2 * k + 1) * pk
        pm1, pk = pk, pk1
        dpm1, dpk = dpk, dpk1
    return pk, dpk


def lobatto_points(p: int):
    """Gauss-Lobatto-Legendre nodes and weights for polynomial degree ``p``.

    The p+1 nodes are the roots of (1-x^2) P_p'(x); the weights are
    2 / (p (p+1) P_p(x_i)^2).  Interior roots are found by Newton
    iteration from Chebyshev-Lobatto initial guesses and symmetrized so
    the set is exactly antisymmetric about zero.
    """
    if p < 1:
        raise InvalidOrderError(f"polynomial degree must be >= 1, got {p}")
    n = p + 1
    x = -np.cos(np.pi * np.arange(n) / p)  # Chebyshev-Lobatto initial guess
    x[0], x[-1] = -1.0, 1.0
    for i in range(1, p):
        xi = x[i]
        for _ in range(100):
            _, dp = legendre(p, xi)
            # g = (1-x^2) P_p'; g' = -2x P_p' + (1-x^2) P_p'' and the Legendre
            # ODE gives (1-x^2) P_p'' = 2x P_p' - p(p+1) P_p, so g' = -p(p+1) P_p.
            pp, _ = legendre(p, xi)
            g = (1.0 - xi * xi) * dp
            dg = -p * (p + 1) * pp
            dx = -g / dg
            xi += dx
            if abs(dx) < 1e-15:
                break
        x[i] = xi
    x = 0.5 * (x - x[::-1])  # enforce antisymmetry to the last bit
    pp, _ = legendre(p, x)
    w = 2.0 / (p * (p + 1) * pp * pp)
    return x, w


def diff_matrix(points):
    """Nodal differentiation matrix: D[i, m] = d(psi_m)/dxi at node i.

    Barycentric form; the diagonal is set so every row sums to zero,
    which makes the derivative of a constant exactly zero.
    """
    x = np.asarray(points, dtype=float)
    n = x.size
    # barycentric weights
    c = np.ones(n)
    for i in range(n):
        for j in range(n):
            if j != i:
                c[i] *= x[i] - x[j]
    D = np.zeros((n, n))
    for i in range(n):
        for m in range(n):
            if m != i:
                D[i, m] = c[i] / (c[m] * (x[i] - x[m]))
    D[np.diag_indices(n)] = -D.sum(axis=1)
    return D


def legendre_vandermonde(points):
    """Legendre Vandermonde pair (V, V^-1) on the given nodes.

    V[i, k] = P_k(x_i); V^-1 maps nodal values to modal coefficients.
    Sizes are tiny (<= 17), so direct inversion with partial pivoting
    is unproblematic.
    """
    x = np.asarray(points, dtype=float)
    n = x.size
    V = np.empty((n, n))
    for k in range(n):
        V[:, k] = legendre(k, x)[0]
    return V, np.linalg.inv(V)


def boyd_vandeven_damping(theta: float, s: int) -> float:
    """Erfc-log transfer for the mode fraction ``theta`` in [0, 1].

    Returns the damping fraction: 0 at the cutoff (theta=0), 1/2 at
    theta=1/2, approaching 1 at the top mode (theta=1).  ``s`` is the
    filter order controlling the steepness of the transition.
    """
    theta = min(max(theta, 0.0), 1.0)
    if theta <= 0.0:
        return 0.0
    if theta >= 1.0:
        return 1.0
    th = theta - 0.5
    if th == 0.0:
        chi = 0.0
    else:
        q = 1.0 - 4.0 * th * th
        chi = -th * math.sqrt(-math.log(q) / (4.0 * th * th))
    return 0.5 * math.erfc(2.0 * math.sqrt(s) * chi)


def filter_matrix(points, mu: float, s: int = 12, cutoff: int | None = None):
    """Nodal low-pass filter matrix F = V diag(sigma) V^-1.

    Modes below ``cutoff`` pass unchanged (sigma=1); modes k >= cutoff are
    scaled by 1 - mu * damping((k - cutoff)/(p - cutoff)).  Mode 0 is never
    touched, so constants are preserved exactly up to round-off.
    """
    x = np.asarray(points, dtype=float)
    p = x.size - 1
    if cutoff is None:
        cutoff = default_filter_cutoff(p)
    if not 0.0 <= mu <= 1.0:
        raise ValueError(f"filter strength must be in [0, 1], got {mu}")
    if not 0 <= cutoff <= p:
        raise ValueError(f"filter cutoff must be in [0, {p}], got {cutoff}")
    if s < 1:
        raise ValueError(f"filter order must be >= 1, got {s}")
    if mu == 0.0:
        return np.eye(p + 1)
    sigma = np.ones(p + 1)
    for k in range(cutoff, p + 1):
        if p == cutoff:
            theta = 1.0  # single filtered mode: damp it fully
        else:
            theta = (k - cutoff) / (p - cutoff)
        sigma[k] = 1.0 - mu * boyd_vandeven_damping(theta, s)
    V, Vinv = legendre_vandermonde(x)
    return V @ np.diag(sigma) @ Vinv


def default_filter_cutoff(p: int) -> int:
    """Cutoff mode below which the filter leaves the spectrum alone."""
    return min(p, math.ceil(2 * (p + 1) / 3))


@dataclass(frozen=True)
class ReferenceElement:
    """Precomputed 1D operators for polynomial degree ``order``.

    Immutable; one instance is shared read-only by every worker.
    ``filter_mu``/``filter_s``/``filter_cutoff`` record the parameters the
    filter matrix was built with (strength per application, erfc-log order,
    first damped mode).
    """

    order: int
    points: np.ndarray
    weights: np.ndarray
    diff_matrix: np.ndarray
    filter_matrix: np.ndarray
    filter_mu: float
    filter_s: int
    filter_cutoff: int
    vandermonde: np.ndarray = field(repr=False, default=None)
    vandermonde_inv: np.ndarray = field(repr=False, default=None)

    @classmethod
    def create(cls, order: int, filter_mu: float = 0.05, filter_s: int = 12,
               filter_cutoff: int | None = None) -> "ReferenceElement":
        pts, wts = lobatto_points(order)
        if filter_cutoff is None:
            filter_cutoff = default_filter_cutoff(order)
        V, Vinv = legendre_vandermonde(pts)
        obj = cls(
            order=order,
            points=pts,
            weights=wts,
            diff_matrix=diff_matrix(pts),
            filter_matrix=filter_matrix(pts, filter_mu, filter_s, filter_cutoff),
            filter_mu=filter_mu,
            filter_s=filter_s,
            filter_cutoff=filter_cutoff,
            vandermonde=V,
            vandermonde_inv=Vinv,
        )
        for arr in (obj.points, obj.weights, obj.diff_matrix, obj.filter_matrix,
                    obj.vandermonde, obj.vandermonde_inv):
            arr.setflags(write=False)
        return obj

    @property
    def n_nodes(self) -> int:
        return self.order + 1

    @property
    def weights_3d(self) -> np.ndarray:
        """Tensor-product quadrature weights of the element nodes, [k, j, i]."""
        w = self.weights
        return w[:, None, None] * w[None, :, None] * w[None, None, :]
