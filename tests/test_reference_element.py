import math

import numpy as np
import pytest

from sembox.reference_element import (
    GEMM_ROWS, ReferenceElement, InvalidOrderError, boyd_vandeven_damping,
    contract, default_filter_cutoff, diff_matrix, filter_matrix, gemm_chunks,
    legendre, legendre_vandermonde, lobatto_points,
)
from oracles import lagrange_eval


def exact_monomial_integral(k):
    # independent oracle: integral of x^k over [-1, 1]
    return 0.0 if k % 2 else 2.0 / (k + 1)


class TestLobattoPoints:
    def test_p1_endpoints(self):
        x, w = lobatto_points(1)
        assert np.allclose(x, [-1.0, 1.0])
        assert np.allclose(w, [1.0, 1.0])

    def test_p2_closed_form(self):
        x, w = lobatto_points(2)
        assert np.allclose(x, [-1.0, 0.0, 1.0], atol=1e-15)
        assert np.allclose(w, [1 / 3, 4 / 3, 1 / 3], atol=1e-15)
        # exact for degree 2: quadrature of x^2 is 2/3
        assert abs(w @ x ** 2 - 2 / 3) < 1e-14

    def test_p3_closed_form(self):
        x, w = lobatto_points(3)
        s5 = 1.0 / math.sqrt(5.0)
        assert np.allclose(x, [-1.0, -s5, s5, 1.0], atol=1e-15)
        assert np.allclose(w, [1 / 6, 5 / 6, 5 / 6, 1 / 6], atol=1e-15)
        # degree 2p-1 = 5 is exact, degree 2p = 6 is not
        assert abs(w @ x ** 5 - 0.0) < 1e-14
        assert abs(w @ x ** 6 - 2 / 7) > 1e-4

    @pytest.mark.parametrize("p", range(1, 9))
    def test_weights_sum_to_measure(self, p):
        x, w = lobatto_points(p)
        assert abs(w.sum() - 2.0) < 1e-13
        assert np.all(w > 0)
        assert x[0] == -1.0 and x[-1] == 1.0
        assert np.all(np.diff(x) > 0)
        assert np.allclose(x, -x[::-1], atol=0)  # exact antisymmetry

    @pytest.mark.parametrize("p", range(1, 9))
    def test_quadrature_exactness(self, p):
        x, w = lobatto_points(p)
        for k in range(2 * p):  # all degrees <= 2p-1
            got = w @ x ** k
            assert abs(got - exact_monomial_integral(k)) < 1e-12
        # the rule must fail at degree 2p
        assert abs(w @ x ** (2 * p) - exact_monomial_integral(2 * p)) > 1e-8

    def test_nodes_are_roots(self):
        # nodes are the roots of (1 - x^2) P_p'(x)
        for p in (2, 3, 5, 8):
            x, _ = lobatto_points(p)
            _, dp = legendre(p, x[1:-1])
            assert np.abs(dp).max() < 1e-10

    def test_invalid_order(self):
        with pytest.raises(InvalidOrderError):
            lobatto_points(0)


class TestLagrange:
    def test_cardinal_property(self):
        x, _ = lobatto_points(3)
        for i in range(4):
            for j in range(4):
                assert lagrange_eval(x, i, x[j]) == pytest.approx(
                    1.0 if i == j else 0.0, abs=1e-13)

    def test_p1_value(self):
        x, _ = lobatto_points(1)
        assert lagrange_eval(x, 1, 0.5) == pytest.approx(0.75, abs=1e-15)

    def test_partition_of_unity(self):
        rng = np.random.default_rng(42)
        for p in (1, 3, 6):
            x, _ = lobatto_points(p)
            for xi in rng.uniform(-1, 1, size=100):
                total = sum(lagrange_eval(x, i, xi) for i in range(p + 1))
                assert abs(total - 1.0) < 1e-13

    def test_index_out_of_range(self):
        x, _ = lobatto_points(2)
        with pytest.raises(IndexError):
            lagrange_eval(x, 3, 0.0)


class TestDiffMatrix:
    def test_p1(self):
        x, _ = lobatto_points(1)
        D = diff_matrix(x)
        assert np.allclose(D, [[-0.5, 0.5], [-0.5, 0.5]], atol=1e-15)

    @pytest.mark.parametrize("p", range(1, 9))
    def test_constant_derivative_is_zero(self, p):
        x, _ = lobatto_points(p)
        D = diff_matrix(x)
        assert np.abs(D @ np.ones(p + 1)).max() < 1e-13

    @pytest.mark.parametrize("p", range(1, 9))
    def test_monomial_exactness(self, p):
        x, _ = lobatto_points(p)
        D = diff_matrix(x)
        for k in range(p + 1):
            f = x ** k
            df = k * x ** (k - 1) if k else np.zeros_like(x)
            scale = max(1.0, np.abs(f).max())
            assert np.abs(D @ f - df).max() < 1e-12 * scale

    def test_cubic_p3(self):
        x, _ = lobatto_points(3)
        D = diff_matrix(x)
        assert np.abs(D @ x ** 3 - 3 * x ** 2).max() < 1e-13


class TestVandermonde:
    def test_mode_zero_column(self):
        x, _ = lobatto_points(4)
        V, _ = legendre_vandermonde(x)
        assert np.allclose(V[:, 0], 1.0)

    def test_inverse(self):
        for p in (1, 3, 7):
            x, _ = lobatto_points(p)
            V, Vi = legendre_vandermonde(x)
            assert np.abs(V @ Vi - np.eye(p + 1)).max() < 1e-13

    def test_modal_pickout(self):
        x, _ = lobatto_points(3)
        V, Vi = legendre_vandermonde(x)
        p2, _ = legendre(2, x)
        coeffs = Vi @ p2
        expect = np.zeros(4)
        expect[2] = 1.0
        assert np.abs(coeffs - expect).max() < 1e-13


class TestFilter:
    def test_zero_strength_is_identity(self):
        x, _ = lobatto_points(3)
        assert np.array_equal(filter_matrix(x, 0.0), np.eye(4))

    def test_preserves_constants(self):
        for p in (2, 3, 6):
            x, _ = lobatto_points(p)
            F = filter_matrix(x, 0.05)
            assert np.abs(F @ np.ones(p + 1) - 1.0).max() < 1e-13

    def test_damping_endpoints(self):
        assert boyd_vandeven_damping(0.0, 12) == 0.0
        assert boyd_vandeven_damping(1.0, 12) == 1.0
        assert boyd_vandeven_damping(0.5, 12) == pytest.approx(0.5)
        # monotone over the transition
        th = np.linspace(0, 1, 33)
        vals = [boyd_vandeven_damping(t, 12) for t in th]
        assert all(b >= a for a, b in zip(vals, vals[1:]))

    def test_top_mode_scaling(self):
        # oracle: decompose the filtered samples of P_3 modally and compare
        # the coefficient ratio against the diagonal transfer value
        x, _ = lobatto_points(3)
        V, Vi = legendre_vandermonde(x)
        F = filter_matrix(x, 1.0, s=12, cutoff=3)
        sigma3 = 1.0 - 1.0 * boyd_vandeven_damping(1.0, 12)  # cutoff == p
        coeffs = Vi @ (F @ V[:, 3])
        assert abs(coeffs[3] - sigma3) < 1e-12

    def test_resolved_modes_untouched(self):
        p = 6
        x, _ = lobatto_points(p)
        cutoff = default_filter_cutoff(p)
        F = filter_matrix(x, 0.7, s=12, cutoff=cutoff)
        V, Vi = legendre_vandermonde(x)
        for k in range(cutoff):
            pk = V[:, k]
            assert np.abs(F @ pk - pk).max() < 1e-12

    def test_parameter_validation(self):
        x, _ = lobatto_points(3)
        with pytest.raises(ValueError):
            filter_matrix(x, -0.1)
        with pytest.raises(ValueError):
            filter_matrix(x, 0.5, cutoff=7)
        with pytest.raises(ValueError):
            filter_matrix(x, 0.5, s=0)


class TestReferenceElement:
    def test_create_bundles_operators(self):
        ref = ReferenceElement.create(3)
        assert ref.n_nodes == 4
        assert ref.filter_cutoff == 3
        assert np.array_equal(ref.diff_matrix, diff_matrix(ref.points))

    def test_immutable_arrays(self):
        ref = ReferenceElement.create(2)
        with pytest.raises(ValueError):
            ref.points[0] = 0.0


# row slices of a trailing-axis contraction against the whole batch, and
# the whole batch against one GEMM with A^T, for p = 1..6 and for the
# corner basis (k = 2) as well as D (k = n); slices start inside and at
# the ends of GEMM_ROWS chunks and span up to three of them; prints every
# (p, k, start, length) whose rows differ in any bit; run in a subprocess
# by the run_python fixture (conftest.py)
SLICE_SCRIPT = """
import numpy as np
from sembox.reference_element import GEMM_ROWS, ReferenceElement, contract

rng = np.random.default_rng(11)
rows = 3 * GEMM_ROWS + 5
for p in range(1, 7):
    ref = ReferenceElement.create(p)
    basis = 0.5 * np.stack([1.0 - ref.points, 1.0 + ref.points], axis=1)
    for A in (ref.diff_matrix, basis):
        m, k = A.shape
        src = rng.standard_normal((rows, k))
        whole = contract(A, src, np.empty((rows, m)), 1)
        if not np.array_equal(whole, src @ np.ascontiguousarray(A.T)):
            print(p, k, "one GEMM")
        for start in (0, 1, 3, GEMM_ROWS - 1, GEMM_ROWS + 1):
            for length in (2, 5, GEMM_ROWS - 1, GEMM_ROWS, GEMM_ROWS + 1,
                           2 * GEMM_ROWS + 1, rows):
                part = src[start:start + length]
                got = contract(A, part, np.empty((len(part), m)), 1)
                if not np.array_equal(got, whole[start:start + length]):
                    print(p, k, start, length)
print("checked")
"""


@pytest.mark.parametrize("threads", ["1", "2"])
def test_trailing_contraction_rows_do_not_depend_on_the_slice(
        run_python, threads):
    """Along the last node axis every output row is the same bits as one
    GEMM gives it, whatever rows share its batch, at either OpenBLAS
    thread count: the kernel's x derivative and the metric terms rely on
    it for partition invariance.  (A batch of one row is the exception:
    numpy runs it as a matrix-vector product.)"""
    proc = run_python(SLICE_SCRIPT, OPENBLAS_NUM_THREADS=threads)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split("\n")[0] == "checked", proc.stdout


# the leading-axis twin of SLICE_SCRIPT: column slices of A @ S, with S
# (k, N) the node-major batch a y or z contraction multiplies, against the
# whole product, and the whole product against the per-element batched
# products an element-major batch runs (along y one (n, n) GEMM per
# element and z, along z one (n, n^2) GEMM per element), for p = 1..7 and
# for D and the filter matrix; slices start inside and at the ends of
# GEMM_ROWS chunks, as views of S and as copies; prints every (p, matrix,
# axis, start, length) whose columns differ in any bit; run in a
# subprocess by the run_python fixture (conftest.py)
COLUMN_SCRIPT = """
import numpy as np
from sembox.reference_element import GEMM_ROWS, ReferenceElement, contract

rng = np.random.default_rng(12)
for p in range(1, 8):
    ref = ReferenceElement.create(p)
    n = p + 1
    E = -(-(3 * GEMM_ROWS + 5) // n ** 2)
    cols = E * n * n
    for name, A in (("D", ref.diff_matrix), ("filter", ref.filter_matrix)):
        el = rng.standard_normal((E, n, n, n))           # [element, z, y, x]
        # along y: columns (z, E, x), node-major; along z: columns (y, E, x)
        per_element = {
            "y": np.matmul(A, el.reshape(E * n, n, n)).reshape(E, n, n, n)
                 .transpose(2, 1, 0, 3),
            "z": np.matmul(A, el.reshape(E, n, n * n)).reshape(E, n, n, n)
                 .transpose(1, 2, 0, 3),
        }
        batches = {"y": el.transpose(2, 1, 0, 3), "z": el.transpose(1, 2, 0, 3)}
        for axis, batch in batches.items():
            S = np.ascontiguousarray(batch).reshape(n, cols)
            whole = contract(A, S, np.empty((n, cols)), 0)
            if not np.array_equal(whole, A @ S):
                print(p, name, axis, "one GEMM")
            if not np.array_equal(whole, per_element[axis].reshape(n, cols)):
                print(p, name, axis, "per element")
            for start in (0, 1, 3, GEMM_ROWS - 1, GEMM_ROWS + 1):
                for length in (2, 5, GEMM_ROWS - 1, GEMM_ROWS, GEMM_ROWS + 1,
                               cols):
                    view = S[:, start:start + length]
                    for part in (view, view.copy()):
                        got = contract(A, part, np.empty(part.shape), 0)
                        if not np.array_equal(got,
                                              whole[:, start:start + length]):
                            print(p, name, axis, start, length)
print("checked")
"""


@pytest.mark.parametrize("threads", ["1", "2"])
def test_leading_contraction_columns_do_not_depend_on_the_slice(
        run_python, threads):
    """Along a leading axis every output column is the same bits as the
    element's own small GEMM gives it, whatever columns share the
    product, at either OpenBLAS thread count: the kernel's y and z
    derivatives and the filter rely on it for partition invariance and
    for the bits of the element-major kernel they replaced."""
    proc = run_python(COLUMN_SCRIPT, OPENBLAS_NUM_THREADS=threads)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split("\n")[0] == "checked", proc.stdout


@pytest.mark.parametrize("length", [
    1, 2, 3, GEMM_ROWS - 1, GEMM_ROWS, GEMM_ROWS + 1, GEMM_ROWS + 2,
    2 * GEMM_ROWS, 2 * GEMM_ROWS + 1, 3 * GEMM_ROWS + 5, 10240])
def test_gemm_chunks_cover_the_length_in_bounded_chunks(length):
    """Rows and columns share one chunk rule: consecutive chunks that
    cover the length, at most GEMM_ROWS each (the pool's bound), as few
    as that allows, and none one wide (numpy's matrix-vector path) unless
    the whole length is 1."""
    chunks = gemm_chunks(length)
    starts, stops = zip(*chunks)
    assert starts[0] == 0 and stops[-1] == length
    assert list(starts[1:]) == list(stops[:-1])
    widths = [b - a for a, b in chunks]
    assert max(widths) <= GEMM_ROWS
    assert min(widths) >= min(2, length)
    assert len(chunks) == -(-length // GEMM_ROWS)


@pytest.mark.parametrize("axis,products,width", [
    (0, 1, 7 * 128 * 7), (1, 7, 128 * 7), (3, 1, 7 * 7 * 128)],
    ids=["y", "z", "x"])
def test_contract_chunks_rows_and_columns(recorded_gemms, axis, products,
                                          width):
    """A node-major batch (y, z, E, x) at p = 6 over 128 elements: y is
    one product over all its columns, z one per y slab, x one set of row
    GEMMs; each in chunks of at most GEMM_ROWS columns or rows, so no
    GEMM reaches the thread pool's size (see GEMM_ROWS)."""
    ref = ReferenceElement.create(6)
    src = np.random.default_rng(3).standard_normal((7, 7, 128, 7))
    contract(ref.diff_matrix, src, np.empty_like(src), axis)
    assert len(recorded_gemms) == products * len(gemm_chunks(width))
    assert all(m * n * k <= GEMM_ROWS * 7 * 7
               for m, n, k in recorded_gemms)
