"""Column-structured hexahedral box mesh.

The mesh is a single quadtree refined uniformly, so the horizontal
footprint is an n x n grid of columns visited in Morton (z-curve) order.
Each column carries a bottom-to-top stack of hexahedral layers; columns
are the atomic unit of partitioning and are never split.  Layer counts
may vary per column (the partitioner balances by layers), but the
continuous-Galerkin numbering requires a conforming mesh and therefore
uniform layer counts.
"""

from dataclasses import dataclass, field
from functools import cached_property
import time

import numpy as np

from .reference_element import ReferenceElement


class MeshError(ValueError):
    pass


class InvertedElementError(MeshError):
    pass


class UnsupportedMeshError(MeshError):
    pass


# ---------------------------------------------------------------------------
# Morton (z-curve) index arithmetic
# ---------------------------------------------------------------------------

def _spread_bits(n: int) -> int:
    # 16-bit input spread into the even bit positions of a 32-bit word
    n &= 0xFFFF
    n = (n | (n << 8)) & 0x00FF00FF
    n = (n | (n << 4)) & 0x0F0F0F0F
    n = (n | (n << 2)) & 0x33333333
    n = (n | (n << 1)) & 0x55555555
    return n


def _compact_bits(n: int) -> int:
    n &= 0x55555555
    n = (n | (n >> 1)) & 0x33333333
    n = (n | (n >> 2)) & 0x0F0F0F0F
    n = (n | (n >> 4)) & 0x00FF00FF
    n = (n | (n >> 8)) & 0x0000FFFF
    return n


def morton_encode(i: int, j: int, level: int) -> int:
    """Bit-interleaved z-curve index of cell (i, j) on a 2^level grid.

    ``i`` occupies the even (least significant) bit positions, which makes
    (1,0) the first step of the curve.
    """
    if not 0 <= level <= 16:
        raise MeshError(f"level {level} outside supported range [0, 16]")
    side = 1 << level
    if not (0 <= i < side and 0 <= j < side):
        raise MeshError(f"cell ({i}, {j}) outside 2^{level} grid")
    return _spread_bits(i) | (_spread_bits(j) << 1)


def morton_decode(index: int, level: int) -> tuple[int, int]:
    """Inverse of :func:`morton_encode`."""
    if not 0 <= level <= 16:
        raise MeshError(f"level {level} outside supported range [0, 16]")
    if not 0 <= index < (1 << (2 * level)):
        raise MeshError(f"index {index} outside 4^{level} range")
    return _compact_bits(index), _compact_bits(index >> 1)


# ---------------------------------------------------------------------------
# Mesh construction
# ---------------------------------------------------------------------------

@dataclass
class ColumnMesh:
    """Morton-ordered columns of hexahedral elements over a box.

    ``vertices`` holds the trilinear corner coordinates of every element,
    indexed ``[element, corner_z, corner_y, corner_x, xyz]``.  Elements are
    numbered column by column (columns in Morton order) and bottom to top
    within each column, so a column's elements are contiguous.
    """

    level: int
    nx: int
    ny: int
    extents: tuple[float, float, float]
    col_ij: np.ndarray          # (ncols, 2) horizontal cell of each column
    col_layers: np.ndarray      # (ncols,) layers per column
    col_elem_start: np.ndarray  # (ncols+1,) prefix into element arrays
    elem_col: np.ndarray        # (E,) owning column
    elem_layer: np.ndarray      # (E,) layer index within the column
    vertices: np.ndarray        # (E, 2, 2, 2, 3)
    build_seconds: float = 0.0

    @property
    def n_columns(self) -> int:
        return self.col_ij.shape[0]

    @property
    def n_elements(self) -> int:
        return self.elem_col.shape[0]

    @property
    def uniform_layers(self) -> int | None:
        """Common layer count, or None if columns differ."""
        first = int(self.col_layers[0])
        return first if np.all(self.col_layers == first) else None


def build_box_mesh(nx: int, ny: int, nz_layers: int,
                   Lx: float, Ly: float, Lz: float,
                   mapping=None, layer_counts=None) -> ColumnMesh:
    """Build an nx x ny column grid with ``nz_layers`` elements per column.

    nx and ny must be equal powers of two (the footprint is one uniformly
    refined quadtree).  ``mapping``, if given, is a vectorized
    (x, y, z) -> (x, y, z) function applied to the element corner
    coordinates, allowing smoothly curved elements.  ``layer_counts``
    overrides the per-column layer count (same Morton order); such meshes
    can be partitioned but not CG-numbered.
    """
    t0 = time.perf_counter()
    if nx != ny:
        raise MeshError(f"column grid must be square, got {nx} x {ny}")
    if nx < 1 or (nx & (nx - 1)) != 0:
        raise MeshError(f"column grid side must be a power of two, got {nx}")
    if nz_layers < 1:
        raise MeshError(f"need at least one layer, got {nz_layers}")
    if min(Lx, Ly, Lz) <= 0.0:
        raise MeshError(f"degenerate box extents {(Lx, Ly, Lz)}")
    level = nx.bit_length() - 1

    ncols = nx * ny
    ij = np.array([morton_decode(m, level) for m in range(ncols)], dtype=np.int64)
    if layer_counts is None:
        layers = np.full(ncols, nz_layers, dtype=np.int64)
    else:
        layers = np.asarray(layer_counts, dtype=np.int64)
        if layers.shape != (ncols,) or np.any(layers < 1):
            raise MeshError("layer_counts must give a positive count per column")
    starts = np.concatenate([[0], np.cumsum(layers)])
    nelem = int(starts[-1])

    elem_col = np.repeat(np.arange(ncols), layers)
    elem_layer = np.concatenate([np.arange(n) for n in layers])

    dx, dy = Lx / nx, Ly / ny
    ci, cj = ij[elem_col, 0], ij[elem_col, 1]
    dz = Lz / layers[elem_col]
    corner = np.arange(2)
    verts = np.empty((nelem, 2, 2, 2, 3))
    verts[..., 0] = dx * (ci[:, None, None, None] + corner[None, None, None, :])
    verts[..., 1] = dy * (cj[:, None, None, None] + corner[None, None, :, None])
    verts[..., 2] = dz[:, None, None, None] * (elem_layer[:, None, None, None]
                                               + corner[None, :, None, None])
    if mapping is not None:
        mx, my, mz = mapping(verts[..., 0], verts[..., 1], verts[..., 2])
        verts = np.stack([mx, my, mz], axis=-1)

    return ColumnMesh(
        level=level, nx=nx, ny=ny, extents=(Lx, Ly, Lz),
        col_ij=ij, col_layers=layers, col_elem_start=starts,
        elem_col=elem_col, elem_layer=elem_layer, vertices=verts,
        build_seconds=time.perf_counter() - t0,
    )


# ---------------------------------------------------------------------------
# Metric terms
# ---------------------------------------------------------------------------

@dataclass
class MetricTerms:
    """Per-node geometry of every element.

    ``coords`` are the physical node positions; ``jacobian`` the volume
    Jacobian determinant J; ``jg[a, d]`` the cofactor J d(xi_a)/d(x_d),
    direction-major, which turns a physical flux into the contravariant
    flux along xi_a.  ``jw`` is the quadrature weight times Jacobian, the
    factor every element contribution carries into the assembly.  Element
    node arrays are indexed ``[element, k, j, i]`` with i along x.
    """

    coords: np.ndarray    # (E, n, n, n, 3)
    jacobian: np.ndarray  # (E, n, n, n)
    jg: np.ndarray        # (3, 3, E, n, n, n)
    jw: np.ndarray        # (E, n, n, n)


def compute_metrics(mesh: ColumnMesh, ref: ReferenceElement) -> MetricTerms:
    """Differentiate the trilinear coordinate map at the Lobatto nodes.

    The coordinate field is degree one per direction, so the nodal
    differentiation matrix reproduces the covariant vectors
    g_b = dx/dxi_b exactly.  The cofactor rows are their cross products,
    J grad(xi_a) = g_{a+1} x g_{a+2}, each of degree two along xi_a, so
    for p >= 2 the discrete metric identities sum_a D_a jg[a, d] = 0 hold
    to round-off; J = g_0 . (g_1 x g_2).
    """
    x = ref.points
    D = ref.diff_matrix
    shape = 0.5 * np.stack([1.0 - x, 1.0 + x], axis=1)  # (n, 2) trilinear basis
    coords = np.einsum("kc,jb,ia,ecbad->ekjid", shape, shape, shape, mesh.vertices,
                       optimize=True)

    xyz = np.moveaxis(coords, -1, 0)                   # (3, E, n, n, n) view
    g = np.empty((3,) + xyz.shape)                     # g[b, d] = dx_d/dxi_b
    np.einsum("im,dekjm->dekji", D, xyz, out=g[0])     # d/dxi
    np.einsum("jm,dekmi->dekji", D, xyz, out=g[1])     # d/deta
    np.einsum("km,demji->dekji", D, xyz, out=g[2])     # d/dzeta

    jg = np.empty_like(g)
    for a in range(3):
        u, v = g[(a + 1) % 3], g[(a + 2) % 3]
        for d in range(3):
            e, f = (d + 1) % 3, (d + 2) % 3
            np.multiply(u[e], v[f], out=jg[a, d])
            jg[a, d] -= u[f] * v[e]
    jac = g[0, 0] * jg[0, 0]
    jac += g[0, 1] * jg[0, 1]
    jac += g[0, 2] * jg[0, 2]
    if np.any(jac <= 0.0):
        bad = int(np.argwhere(np.any(jac.reshape(mesh.n_elements, -1) <= 0, axis=1))[0, 0])
        raise InvertedElementError(
            f"non-positive Jacobian in element {bad} (min J = {jac.min():.3e})")
    return MetricTerms(coords=coords, jacobian=jac, jg=jg,
                       jw=jac * ref.weights_3d)


# ---------------------------------------------------------------------------
# Continuous-Galerkin numbering
# ---------------------------------------------------------------------------

@dataclass
class CgNumbering:
    """Unique grid-point ids, assembled mass, and the element coloring.

    Coincident nodes are identified by exact integer lattice coordinates
    (element index * p + local index), so no geometric snap tolerance is
    involved.  ``color_batches`` groups elements into eight parity classes
    such that no two elements of a class share a grid point; batch order
    is the canonical summation order of the assembly.  ``lattice_dims``
    describes the whole mesh; a partition's numbering (:meth:`restrict`)
    keeps it, so there ``n_unique`` is smaller than its product.
    """

    order: int
    lattice_dims: tuple[int, int, int]
    n_unique: int
    global_ids: np.ndarray      # (E, n^3) int64
    mass: np.ndarray            # (n_unique,)
    inv_mass: np.ndarray        # (n_unique,)
    node_coords: np.ndarray     # (n_unique, 3)
    elem_color: np.ndarray      # (E,)
    color_batches: list = field(repr=False, default_factory=list)
    boundary_ids: dict = field(repr=False, default_factory=dict)

    @property
    def n_node_per_elem(self) -> int:
        return (self.order + 1) ** 3

    @cached_property
    def batch_targets(self) -> list:
        """Flattened point ids of each color batch's nodes."""
        return [self.global_ids[b].ravel() for b in self.color_batches]

    def restrict(self, start: int, stop: int):
        """Numbering of the points elements [start, stop) touch.

        Returns (local numbering, global id of each local point).  Local
        ids follow ascending global order; element ids, color batches and
        boundary ids are local, and mass and coordinates are the global
        ones at those points.  ``lattice_dims`` stays the whole mesh's.
        The whole mesh returns ``self``.
        """
        if start == 0 and stop == self.global_ids.shape[0]:
            return self, np.arange(self.n_unique)
        own, local = np.unique(self.global_ids[start:stop], return_inverse=True)
        return CgNumbering(
            order=self.order, lattice_dims=self.lattice_dims,
            n_unique=own.size,
            global_ids=local.reshape(stop - start, -1),
            mass=self.mass[own], inv_mass=self.inv_mass[own],
            node_coords=self.node_coords[own],
            elem_color=self.elem_color[start:stop],
            color_batches=[b[(b >= start) & (b < stop)] - start
                           for b in self.color_batches],
            boundary_ids={axis: np.flatnonzero(np.isin(own, ids))
                          for axis, ids in self.boundary_ids.items()},
        ), own


def build_cg_numbering(mesh: ColumnMesh, ref: ReferenceElement,
                       metrics: MetricTerms | None = None) -> CgNumbering:
    """Assign one id per distinct grid point and assemble the diagonal mass.

    Requires a conforming mesh (uniform layer count); anything else would
    produce hanging interfaces, which are unsupported.
    """
    nz = mesh.uniform_layers
    if nz is None:
        raise UnsupportedMeshError(
            "columns have differing layer counts; CG numbering needs a conforming mesh")
    if metrics is None:
        metrics = compute_metrics(mesh, ref)

    p = ref.order
    n = p + 1
    gpx, gpy, gpz = p * mesh.nx + 1, p * mesh.ny + 1, p * nz + 1

    ci = mesh.col_ij[mesh.elem_col, 0]
    cj = mesh.col_ij[mesh.elem_col, 1]
    ck = mesh.elem_layer
    loc = np.arange(n)
    # lattice coordinates of every element node, [E, k, j, i]
    gx = p * ci[:, None, None, None] + loc[None, None, None, :]
    gy = p * cj[:, None, None, None] + loc[None, None, :, None]
    gz = p * ck[:, None, None, None] + loc[None, :, None, None]
    gids = (gx + gpx * (gy + gpy * gz)).reshape(mesh.n_elements, n ** 3)

    n_unique = gpx * gpy * gpz
    mass = np.zeros(n_unique)
    np.add.at(mass, gids.ravel(), metrics.jw.reshape(-1))
    if np.any(mass <= 0.0):
        raise MeshError("assembled mass has non-positive entries")

    node_coords = np.empty((n_unique, 3))
    node_coords[gids.ravel()] = metrics.coords.reshape(-1, 3)

    color = ((ci & 1) + 2 * (cj & 1) + 4 * (ck & 1)).astype(np.int64)
    batches = [np.flatnonzero(color == c) for c in range(8)]
    for batch in batches:
        flat = gids[batch].ravel()
        if flat.size != np.unique(flat).size:
            raise MeshError("element coloring does not separate shared grid points")

    lattice = node_coords_lattice(n_unique, gpx, gpy)
    span = (gpx - 1, gpy - 1, gpz - 1)
    boundary = {
        axis: np.flatnonzero((lattice[:, axis] == 0) | (lattice[:, axis] == span[axis]))
        for axis in range(3)
    }

    return CgNumbering(
        order=p, lattice_dims=(gpx, gpy, gpz), n_unique=n_unique,
        global_ids=gids, mass=mass, inv_mass=1.0 / mass,
        node_coords=node_coords, elem_color=color, color_batches=batches,
        boundary_ids=boundary,
    )


def node_coords_lattice(n_unique: int, gpx: int, gpy: int) -> np.ndarray:
    """Integer (gx, gy, gz) lattice coordinates of every global id."""
    g = np.arange(n_unique)
    gx = g % gpx
    gy = (g // gpx) % gpy
    gz = g // (gpx * gpy)
    return np.stack([gx, gy, gz], axis=1)


# ---------------------------------------------------------------------------
# Partitioning
# ---------------------------------------------------------------------------

@dataclass
class Partition:
    """A contiguous Morton segment of whole columns."""

    part_id: int
    col_start: int
    col_stop: int
    elem_start: int
    elem_stop: int

    @property
    def n_columns(self) -> int:
        return self.col_stop - self.col_start

    @property
    def n_elements(self) -> int:
        return self.elem_stop - self.elem_start


def partition_columns(mesh: ColumnMesh, n_parts: int) -> list[Partition]:
    """Split the Morton-ordered column list into contiguous balanced segments.

    Balance weight is the layer count of each column.  Each partition takes
    whole columns until its cumulative prefix first reaches the ideal quota
    (t+1)/P of the total, leaving at least one column for every remaining
    partition; columns are never split.
    """
    ncols = mesh.n_columns
    if not 1 <= n_parts <= ncols:
        raise MeshError(f"partition count {n_parts} not in [1, {ncols}]")
    w = mesh.col_layers
    total = int(w.sum())
    parts = []
    c = 0
    prefix = 0
    for t in range(n_parts):
        start = c
        target = total * (t + 1) / n_parts
        prefix += int(w[c])
        c += 1
        while c < ncols and prefix < target and (ncols - c) > (n_parts - t - 1):
            prefix += int(w[c])
            c += 1
        if t == n_parts - 1:
            c = ncols
        parts.append(Partition(
            part_id=t, col_start=start, col_stop=c,
            elem_start=int(mesh.col_elem_start[start]),
            elem_stop=int(mesh.col_elem_start[c]),
        ))
    return parts


def partition_of_columns(parts: list[Partition], ncols: int) -> np.ndarray:
    """Owner partition of every column."""
    owner = np.empty(ncols, dtype=np.int64)
    for p in parts:
        owner[p.col_start:p.col_stop] = p.part_id
    return owner


def partition_quality(parts: list[Partition], mesh: ColumnMesh):
    """Surface-to-volume of each partition: boundary faces per element.

    Counts element faces whose neighbor lies in a different partition;
    domain walls do not count.  Only horizontal faces can cross a
    partition boundary because columns are kept whole.
    """
    owner_of_col = partition_of_columns(parts, mesh.n_columns)
    grid = -np.ones((mesh.nx, mesh.ny), dtype=np.int64)
    grid[mesh.col_ij[:, 0], mesh.col_ij[:, 1]] = np.arange(mesh.n_columns)

    ratios = []
    for part in parts:
        faces = 0
        for c in range(part.col_start, part.col_stop):
            i, j = mesh.col_ij[c]
            layers = int(mesh.col_layers[c])
            for di, dj in ((1, 0), (-1, 0), (0, 1), (0, -1)):
                ni, nj = i + di, j + dj
                if 0 <= ni < mesh.nx and 0 <= nj < mesh.ny:
                    if owner_of_col[grid[ni, nj]] != part.part_id:
                        faces += layers
        ratios.append(faces / part.n_elements)
    ratios = np.array(ratios)
    return ratios, float(ratios.max()), float(ratios.mean())


def summary_text(mesh: ColumnMesh, numbering: CgNumbering | None = None,
                 parts: list[Partition] | None = None) -> str:
    """Human-readable mesh report for the command-line ``mesh`` command."""
    Lx, Ly, Lz = mesh.extents
    lines = [
        f"box {Lx:g} x {Ly:g} x {Lz:g} m, {mesh.nx} x {mesh.ny} columns (quadtree level {mesh.level})",
        f"columns: {mesh.n_columns}, elements: {mesh.n_elements}",
        f"mesh build time: {mesh.build_seconds * 1e3:.2f} ms",
    ]
    if numbering is not None:
        gpx, gpy, gpz = numbering.lattice_dims
        lines.append(f"unique grid points (p={numbering.order}): "
                     f"{numbering.n_unique} = {gpx} x {gpy} x {gpz}")
    if parts is not None:
        ratios, rmax, rmean = partition_quality(parts, mesh)
        lines.append(f"partitions: {len(parts)}")
        lines.append("part  columns  elements  boundary_faces/element")
        for part, r in zip(parts, ratios):
            lines.append(f"{part.part_id:4d}  {part.n_columns:7d}  "
                         f"{part.n_elements:8d}  {r:22.4f}")
        lines.append(f"surface-to-volume max {rmax:.4f}, mean {rmean:.4f}")
    return "\n".join(lines)
