import dataclasses

import numpy as np
import pytest

from sembox.reference_element import ReferenceElement
from sembox.mesh import (
    MeshError, InvertedElementError, UnsupportedMeshError,
    build_box_mesh, build_cg_numbering, compute_metrics,
    morton_decode, morton_encode, partition_columns, partition_quality,
    rank_major_plan, summary_text,
)
from oracles import (einsum_metrics, elements_of_column, inverse_jacobian,
                     mapped_box_mesh)


@pytest.fixture(scope="module")
def ref3():
    return ReferenceElement.create(3)


class TestMorton:
    def test_origin(self):
        assert morton_encode(0, 0, 5) == 0
        assert morton_decode(0, 5) == (0, 0)

    def test_level1_visit_order(self):
        assert morton_encode(1, 0, 1) == 1
        assert morton_encode(0, 1, 1) == 2
        assert morton_encode(1, 1, 1) == 3

    def test_all_bits(self):
        assert morton_encode(3, 3, 2) == 15
        assert morton_decode(15, 2) == (3, 3)

    @pytest.mark.parametrize("level", [1, 2, 3, 5, 8])
    def test_bijection(self, level):
        seen = set()
        for idx in range(4 ** level):
            i, j = morton_decode(idx, level)
            assert morton_encode(i, j, level) == idx
            seen.add((i, j))
        assert len(seen) == 4 ** level

    def test_range_checks(self):
        with pytest.raises(MeshError):
            morton_encode(2, 0, 1)
        with pytest.raises(MeshError):
            morton_decode(4, 1)


class TestBuildBoxMesh:
    def test_single_element(self):
        m = build_box_mesh(1, 1, 1, 1000.0, 1000.0, 1000.0)
        assert m.n_columns == 1 and m.n_elements == 1
        v = m.vertices[0]
        assert np.allclose(v[0, 0, 0], [0, 0, 0])
        assert np.allclose(v[1, 1, 1], [1000, 1000, 1000])

    def test_counts_and_first_column(self):
        m = build_box_mesh(4, 4, 3, 1000.0, 1000.0, 1000.0)
        assert m.n_columns == 16
        assert m.n_elements == 48
        assert tuple(m.col_ij[0]) == (0, 0)

    def test_z_curve_column_order(self):
        m = build_box_mesh(2, 2, 5, 1.0, 1.0, 1.0)
        assert [tuple(ij) for ij in m.col_ij] == [(0, 0), (1, 0), (0, 1), (1, 1)]

    def test_column_elements_bottom_to_top(self):
        m = build_box_mesh(2, 2, 4, 1.0, 1.0, 8.0)
        for c in range(m.n_columns):
            elems = list(elements_of_column(m, c))
            z_lo = m.vertices[elems, 0, 0, 0, 2]
            assert np.all(np.diff(z_lo) > 0)

    def test_validation(self):
        with pytest.raises(MeshError):
            build_box_mesh(3, 3, 2, 1.0, 1.0, 1.0)   # not a power of two
        with pytest.raises(MeshError):
            build_box_mesh(4, 2, 2, 1.0, 1.0, 1.0)   # not square
        with pytest.raises(MeshError):
            build_box_mesh(2, 2, 0, 1.0, 1.0, 1.0)
        with pytest.raises(MeshError):
            build_box_mesh(2, 2, 2, 1.0, -1.0, 1.0)

    @pytest.mark.parametrize("extents", [
        (float("nan"), 1.0, 1.0), (1.0, float("inf"), 1.0),
        (1.0, 1.0, float("nan")),
    ])
    def test_rejects_non_finite_extents(self, extents):
        with pytest.raises(MeshError, match="degenerate box extents"):
            build_box_mesh(2, 2, 2, *extents)

    def test_variable_layers(self):
        layers = np.array([1, 2, 3, 4])
        m = build_box_mesh(2, 2, 1, 1.0, 1.0, 1.0, layer_counts=layers)
        assert m.n_elements == 10
        assert m.uniform_layers is None


class TestMetrics:
    def test_reference_cube_identity(self, ref3):
        # one element spanning [-1, 1]^3 has the identity map
        m = build_box_mesh(1, 1, 1, 2.0, 2.0, 2.0)
        m = dataclasses.replace(m, vertices=m.vertices - 1.0)
        mt = compute_metrics(m, ref3)
        assert np.allclose(mt.jacobian, 1.0, atol=1e-14)
        eye = np.eye(3)
        assert np.abs(inverse_jacobian(mt) - eye).max() < 1e-14

    def test_affine_box(self, ref3):
        m = build_box_mesh(1, 1, 1, 10.0, 20.0, 40.0)
        mt = compute_metrics(m, ref3)
        assert np.allclose(mt.jacobian, 1000.0)
        dxi_dx = inverse_jacobian(mt)
        assert np.allclose(dxi_dx[..., 0, 0], 0.2)
        assert np.allclose(dxi_dx[..., 1, 1], 0.1)
        assert np.allclose(dxi_dx[..., 2, 2], 0.05)

    @pytest.mark.parametrize("order", [2, 3, 4, 5])
    def test_metric_identity_curved(self, order):
        # free-stream identity: sum_m d/dxi_m (J dxi_m/dx) = 0 per node; the
        # cofactor is quadratic along its own direction, so it needs p >= 2
        ref = ReferenceElement.create(order)
        mt = compute_metrics(mapped_box_mesh(), ref)
        D = ref.diff_matrix
        resid = np.zeros(mt.jacobian.shape)
        for x_axis in range(3):
            r = np.zeros(mt.jacobian.shape)
            jg = mt.jg[:, x_axis]
            r += np.einsum("im,ekjm->ekji", D, jg[0])
            r += np.einsum("jm,ekmi->ekji", D, jg[1])
            r += np.einsum("km,emji->ekji", D, jg[2])
            resid = np.maximum(resid, np.abs(r))
        # scale by element volume metric
        assert (resid / mt.jacobian.max()).max() < 1e-10

    @pytest.mark.parametrize("mapped,order", [
        *((False, p) for p in range(1, 6)), *((True, p) for p in range(2, 5))])
    def test_matches_einsum_oracle(self, mapped, order):
        ref = ReferenceElement.create(order)
        m = (mapped_box_mesh() if mapped
             else build_box_mesh(2, 2, 3, 500.0, 700.0, 900.0))
        got, want = compute_metrics(m, ref), einsum_metrics(m, ref)
        for name in ("coords", "jacobian", "jg", "jw"):
            a, b = getattr(got, name), getattr(want, name)
            assert a.shape == b.shape and a.dtype == np.float64, name
            assert np.abs(a - b).max() <= 1e-13 * np.abs(b).max(), name
        # the kernel views these as (E, n^3) and (3, 3, E n^3) blocks
        for name in ("jacobian", "jg", "jw"):
            assert getattr(got, name).flags.c_contiguous, name

    def test_inverted_element_reported(self, ref3):
        m = build_box_mesh(1, 1, 1, 1.0, 1.0, 1.0)
        m.vertices[0, ..., 2] *= -1.0  # flip z: negative Jacobian
        with pytest.raises(InvertedElementError, match="element 0"):
            compute_metrics(m, ref3)


class TestCgNumbering:
    def test_single_element_counts(self, ref3):
        m = build_box_mesh(1, 1, 1, 1.0, 1.0, 1.0)
        num = build_cg_numbering(m, ref3)
        assert num.n_unique == 64

    def test_two_element_shared_face(self, ref3):
        m = build_box_mesh(2, 2, 1, 1.0, 1.0, 1.0)
        # grab just 2 x-adjacent columns? full mesh: 2x2x1 elements
        num = build_cg_numbering(m, ref3)
        assert num.n_unique == 7 * 7 * 4

    def test_formula_4x4x3(self, ref3):
        m = build_box_mesh(4, 4, 3, 1.0, 1.0, 1.0)
        num = build_cg_numbering(m, ref3)
        assert num.n_unique == 13 * 13 * 10 == 1690

    @pytest.mark.parametrize("nx,layers,p", [(1, 2, 1), (2, 3, 2), (4, 2, 3),
                                             (8, 1, 4)])
    def test_unique_count_formula(self, nx, layers, p):
        ref = ReferenceElement.create(p)
        m = build_box_mesh(nx, nx, layers, 1.0, 1.0, 1.0)
        num = build_cg_numbering(m, ref)
        assert num.n_unique == (p * nx + 1) ** 2 * (p * layers + 1)

    def test_mass_sums_to_volume(self, ref3):
        m = build_box_mesh(4, 4, 3, 500.0, 1000.0, 1500.0)
        num = build_cg_numbering(m, ref3)
        vol = 500.0 * 1000.0 * 1500.0
        assert abs(num.mass.sum() - vol) < 1e-10 * vol
        assert np.all(num.mass > 0)

    def test_nonconforming_rejected(self, ref3):
        layers = np.array([2, 2, 2, 3])
        m = build_box_mesh(2, 2, 2, 1.0, 1.0, 1.0, layer_counts=layers)
        with pytest.raises(UnsupportedMeshError):
            build_cg_numbering(m, ref3)

    def test_coloring_that_does_not_separate_is_refused(self):
        # the column at cell (1, 1) moved onto cell (3, 1): two columns
        # then occupy one cell, and their elements touch the same grid
        # points twice.  Every point the move vacates is a shared corner,
        # so the mass stays positive and the cell check is what fires.
        ref1 = ReferenceElement.create(1)
        m = build_box_mesh(4, 4, 2, 1.0, 1.0, 1.0)
        ij = m.col_ij.copy()
        ij[np.flatnonzero((ij[:, 0] == 1) & (ij[:, 1] == 1))] = (3, 1)
        with pytest.raises(MeshError,
                           match="two elements occupy one lattice cell"):
            build_cg_numbering(dataclasses.replace(m, col_ij=ij), ref1)

    def test_boundary_sets(self, ref3):
        m = build_box_mesh(2, 2, 2, 1.0, 1.0, 1.0)
        num = build_cg_numbering(m, ref3)
        gpx = 3 * 2 + 1
        for axis in range(3):
            assert num.boundary_ids[axis].size == 2 * gpx * gpx
            coords = num.node_coords[num.boundary_ids[axis], axis]
            assert np.all((coords < 1e-12) | (coords > 1.0 - 1e-12))


class TestRankMajorPlan:
    # points 0..4 hold 1, 3, 1, 4 and 0 entries, in no sorted order
    POINTS = np.array([3, 1, 3, 0, 1, 3, 2, 1, 3])

    def test_chunk_r_holds_each_points_rth_entry(self):
        point_pos, chunks = rank_major_plan(self.POINTS, 5)
        assert point_pos.tolist() == [2, 1, 3, 0, 4]
        assert [c.tolist() for c in chunks] == [[0, 1, 3, 6], [2, 4],
                                                [5, 7], [8]]

    def test_rank_is_place_in_array_order(self):
        points = self.POINTS
        point_pos, chunks = rank_major_plan(points, 5)
        count = np.bincount(points, minlength=5)
        sizes = [c.size for c in chunks]
        assert sizes == sorted(sizes, reverse=True)
        assert np.all(np.diff(count[np.argsort(point_pos)]) <= 0)
        for r, chunk in enumerate(chunks):
            assert np.array_equal(point_pos[points[chunk]],
                                  np.arange(chunk.size))
            for i in chunk:    # i is the r-th entry at its point
                assert np.count_nonzero(points[:i] == points[i]) == r


class TestPartitioning:
    def test_single_partition(self):
        m = build_box_mesh(4, 4, 3, 1.0, 1.0, 1.0)
        parts = partition_columns(m, 1)
        assert len(parts) == 1
        assert parts[0].n_columns == 16
        assert parts[0].n_elements == 48

    def test_exact_division(self):
        m = build_box_mesh(4, 4, 3, 1.0, 1.0, 1.0)
        parts = partition_columns(m, 4)
        assert [p.n_elements for p in parts] == [12, 12, 12, 12]

    def test_uneven_split_bounded_by_column(self):
        m = build_box_mesh(4, 4, 3, 1.0, 1.0, 1.0)
        parts = partition_columns(m, 3)
        counts = [p.n_elements for p in parts]
        assert sum(counts) == 48
        assert max(counts) - min(counts) <= 3  # one column's layers

    def test_segments_cover_in_order(self):
        m = build_box_mesh(8, 8, 2, 1.0, 1.0, 1.0)
        for P in (1, 2, 3, 5, 7, 64):
            parts = partition_columns(m, P)
            assert parts[0].col_start == 0
            assert parts[-1].col_stop == m.n_columns
            for a, b in zip(parts, parts[1:]):
                assert a.col_stop == b.col_start
            assert all(p.n_columns >= 1 for p in parts)

    def test_variable_layer_balance(self):
        rng = np.random.default_rng(3)
        layers = rng.integers(1, 6, size=16)
        m = build_box_mesh(4, 4, 1, 1.0, 1.0, 1.0, layer_counts=layers)
        parts = partition_columns(m, 4)
        counts = [p.n_elements for p in parts]
        assert sum(counts) == layers.sum()
        assert max(counts) - min(counts) <= layers.max()

    def test_invalid_counts(self):
        m = build_box_mesh(2, 2, 1, 1.0, 1.0, 1.0)
        with pytest.raises(MeshError):
            partition_columns(m, 5)
        with pytest.raises(MeshError):
            partition_columns(m, 0)


class TestPartitionQuality:
    def test_single_partition_no_boundary(self):
        m = build_box_mesh(4, 4, 3, 1.0, 1.0, 1.0)
        ratios, rmax, rmean = partition_quality(partition_columns(m, 1), m)
        assert rmax == 0.0 and rmean == 0.0

    def test_quadrants_of_4x4(self):
        m = build_box_mesh(4, 4, 3, 1.0, 1.0, 1.0)
        parts = partition_columns(m, 4)
        # Morton quadrants: each partition is one 2x2 block with 4 boundary
        # faces per layer
        ratios, rmax, rmean = partition_quality(parts, m)
        assert np.allclose(ratios, 4 * 3 / 12.0)

    def test_morton_beats_strips(self):
        # brute-force face counting for both layouts of an 8x8 grid split 4 ways
        m = build_box_mesh(8, 8, 2, 1.0, 1.0, 1.0)
        morton_parts = partition_columns(m, 4)
        _, morton_max, _ = partition_quality(morton_parts, m)

        # strip layout: reorder columns row-major so contiguous quarters
        # become 8x2 strips, then count with the same brute-force routine
        order = np.lexsort((m.col_ij[:, 0], m.col_ij[:, 1]))
        strip_of_col = np.empty(m.n_columns, dtype=int)
        strip_of_col[order] = np.arange(m.n_columns) // 16
        counts = np.zeros(4)
        faces = np.zeros(4)
        grid = {tuple(ij): c for c, ij in enumerate(m.col_ij)}
        for c, (i, j) in enumerate(m.col_ij):
            s = strip_of_col[c]
            counts[s] += m.col_layers[c]
            for di, dj in ((1, 0), (-1, 0), (0, 1), (0, -1)):
                nb = grid.get((i + di, j + dj))
                if nb is not None and strip_of_col[nb] != s:
                    faces[s] += m.col_layers[c]
        strip_max = (faces / counts).max()
        assert morton_max <= strip_max


def test_summary_text_mentions_everything(ref3):
    m = build_box_mesh(4, 4, 3, 1.0, 1.0, 1.0)
    num = build_cg_numbering(m, ref3)
    parts = partition_columns(m, 4)
    text = summary_text(m, num, parts)
    assert "columns: 16" in text
    assert "elements: 48" in text
    assert "1690" in text
    assert "surface-to-volume" in text
