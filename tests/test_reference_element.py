import math

import numpy as np
import pytest

from sembox.reference_element import (
    ReferenceElement, InvalidOrderError, boyd_vandeven_damping,
    default_filter_cutoff, diff_matrix, filter_matrix, legendre,
    legendre_vandermonde, lobatto_points,
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
