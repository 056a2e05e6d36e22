"""Compressible Euler right-hand side on the spectral-element mesh.

Prognostic vector per grid point: (rho, rho*u, rho*v, rho*w, Theta) with
Theta the density-weighted potential temperature.  Pressure and gravity
enter in perturbation form about the frozen hydrostatic background, so
the resting reference atmosphere is a machine-exact steady state.

Both element operators, the right-hand side (contravariant flux form;
Kopriva, *Implementing Spectral Methods for PDEs*, 2009) and the modal
filter, are compiled C loops (``kernels.c``, built and loaded by
:mod:`~sembox.kernels`): one fused pass per element gathers its state
into stack arrays, applies the 1D operators along x, y and z as fma
chains and writes the weighted result into the (n, n, E, n, 5)
contributions that the workers in ``harness`` assemble
(``storage.PartitionLayout.exchange``, the engine's one assembly).  The
functions here are their Python entry points: they check the arrays,
call the kernel and turn its verdict into :class:`DivergedStateError`.
Every element-node batch is node-major, (y, z, element, x)
(:func:`~sembox.mesh.node_major`): the gather index, the geometry and
the contributions.  The kernels write into an output
array the caller holds (one per worker); ``exchange`` copies what it
keeps, so the array is free again once the exchange returns.

The perturbation pressure is evaluated in numpy once per unique point
(:func:`element_pressure`); the kernel gathers it at the element nodes
with the state and the background density, and evaluates none.  The
kernels take only the geometry they read, the metric cofactors
``jg`` and the weighted Jacobian ``jw``, not a whole
:class:`~sembox.mesh.MetricTerms`, so a worker holds its partition's
copies of those and no node coordinates or Jacobian.
"""

from dataclasses import dataclass

import numpy as np

from .kernels import BAD_INDEX, CompiledKernels, pointer
from .mesh import MetricTerms, CgNumbering
from .reference_element import ReferenceElement
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


def _check_batch(kernels: CompiledKernels, ref: ReferenceElement,
                 state_cg: np.ndarray, gids: np.ndarray, out: np.ndarray,
                 **batches):
    """Raise ValueError unless ``ref`` has the kernels' n nodes per
    direction, ``state_cg`` is a (points, 5) field, ``gids`` an
    (n, n, E, n) node-major index, ``out`` its (n, n, E, n, 5)
    contributions and every other batch shaped like ``gids`` (``jg``:
    (3, 3) of them; ``p_prime`` and ``rho_bar``: one value per point).
    The kernels check each index against the field's rows."""
    n = kernels.n_nodes
    if ref.n_nodes != n:
        raise ValueError(f"kernels for {n} nodes per direction cannot apply "
                         f"the operators of order {ref.order}")
    if state_cg.ndim != 2 or state_cg.shape[1] != N_VARS:
        raise ValueError(f"the point field must have shape (points, {N_VARS}), "
                         f"got {state_cg.shape}")
    shape = gids.shape
    if len(shape) != 4 or (shape[0], shape[1], shape[3]) != (n, n, n):
        raise ValueError(f"a kernel for {n} nodes per direction needs an "
                         f"(n, n, E, n) gather index, got {shape}")
    shapes = {"p_prime": state_cg.shape[:1], "rho_bar": state_cg.shape[:1],
              "jg": (3, 3, *shape), "out": (*shape, N_VARS)}
    for name, a in (("out", out), *batches.items()):
        want = shapes.get(name, shape)
        if a.shape != want:
            raise ValueError(f"{name} must have shape {want}, got {a.shape}")


def _check_gathered(verdict: int, state_cg: np.ndarray):
    """Raise IndexError for a kernel's verdict on a gather index outside
    the point field."""
    if verdict == BAD_INDEX:
        raise IndexError(f"a gather index lies outside the point field's "
                         f"{state_cg.shape[0]} rows")


def rhs_element_contributions(state_cg: np.ndarray, gids: np.ndarray,
                              p_prime: np.ndarray, rho_bar: np.ndarray,
                              jg: np.ndarray, jw: np.ndarray,
                              ref: ReferenceElement, const: GasConstants,
                              kernels: CompiledKernels,
                              out: np.ndarray) -> np.ndarray:
    """J*w-weighted RHS contribution of every element node at ``gids``,
    into ``out``, which it returns.

    Contravariant (conservative) flux form: with F_a = q U_a plus
    jg_a[c] P' on the momentum rows 1 + c, U_a = sum_d jg_a[d] u_d the
    contravariant velocity along xi_a, the element divergence is
    J div F = D_xi F_0 + D_eta F_1 + D_zeta F_2, and the contribution is
    -w (J div F) - J w S with the gravity source S on the vertical
    momentum.  On affine elements this equals the chain-rule form to
    round-off.  On trilinear mapped elements it keeps a uniform flow
    uniform only where the discrete metric identities hold, which needs
    p >= 2 (at p = 1 the cofactor is not differentiated exactly).

    Every batch is node-major (:func:`~sembox.mesh.node_major`): ``gids``
    (n, n, E, n) indexes the points ``state_cg`` holds, and
    ``p_prime`` and ``rho_bar``, the perturbation pressure
    (:func:`element_pressure`) and the background density
    (``ReferenceAtmosphere.cg[:, 0]``, contiguous) at those points, which
    the kernel gathers with the state; ``jg`` (3, 3, n, n, E, n)
    and ``jw`` (n, n, E, n) are the elements' metric cofactors and
    weighted Jacobian (:class:`~sembox.mesh.MetricTerms`, node-major),
    the only geometry the kernel reads; ``kernels`` are the compiled
    kernels of the order (:func:`~sembox.kernels.load`) and ``out``
    (n, n, E, n, 5) takes the contributions.

    A non-finite value in the gathered state raises
    :class:`DivergedStateError` for its first element before any
    contribution counts; else a non-finite contribution raises it for
    the first such element, as ``"right-hand side"``.
    """
    _check_batch(kernels, ref, state_cg, gids, out, p_prime=p_prime,
                 rho_bar=rho_bar, jg=jg, jw=jw)
    f64 = np.float64
    weights = ref.weights_3d    # a new array: held through the call
    verdict = kernels.rhs(
        pointer(state_cg, f64), pointer(p_prime, f64), pointer(rho_bar, f64),
        state_cg.shape[0], pointer(gids, np.int64), pointer(jg, f64),
        pointer(jw, f64), pointer(ref.diff_matrix, f64),
        pointer(weights, f64), const.gravity, gids.shape[2],
        pointer(out, f64))
    _check_gathered(verdict, state_cg)
    if verdict < 0:
        raise DivergedStateError(-verdict - 1)
    if verdict > 0:
        raise DivergedStateError(verdict - 1, "right-hand side")
    return out


@dataclass
class Discretization:
    """The static pieces every kernel needs, bundled once."""

    mesh: object
    ref: ReferenceElement
    metrics: MetricTerms
    numbering: CgNumbering


def element_pressure(state_cg: np.ndarray, ra: ReferenceAtmosphere,
                     const: GasConstants) -> np.ndarray:
    """Perturbation pressure of the points an element range touches, the
    rows of ``state_cg`` and ``ra`` (the whole mesh, or a partition's
    local points), evaluated once per row; the RHS kernel gathers it at
    the element nodes."""
    return pressure(state_cg[:, 0], state_cg[:, 4], const) - ra.pressure


def filter_contributions(state_cg: np.ndarray, gids: np.ndarray,
                         jw: np.ndarray, ref: ReferenceElement,
                         kernels: CompiledKernels, out: np.ndarray):
    """J*w-weighted filtered values of the element nodes at ``gids``
    (n, n, E, n): the modal filter along z, y and x of each element,
    times ``jw``, into ``out`` (n, n, E, n, 5), node-major like ``gids``
    and ``jw``; None when the filter is off (``filter_mu == 0``)."""
    if ref.filter_mu == 0.0:
        return None
    _check_batch(kernels, ref, state_cg, gids, out, jw=jw)
    f64 = np.float64
    _check_gathered(kernels.filter(
        pointer(state_cg, f64), state_cg.shape[0], pointer(gids, np.int64),
        pointer(jw, f64), pointer(ref.filter_matrix, f64), gids.shape[2],
        pointer(out, f64)), state_cg)
    return out


def apply_boundary(state_cg: np.ndarray, numbering: CgNumbering) -> np.ndarray:
    """Free-slip walls: zero the normal momentum on each boundary plane.

    Walls are axis-aligned, so corner and edge nodes just get every
    relevant component zeroed; the projections commute.  In place.
    """
    for axis, ids in numbering.boundary_ids.items():
        state_cg[ids, 1 + axis] = 0.0
    return state_cg
