"""Verification of the log-partition geometry.

Closed-form spot values are checked against independently computed
oracles (direct probability sums, high-order finite differences,
characteristic identities); structural properties run on seeded sweeps.
"""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from transferlab.errors import ContractViolation
from transferlab.linalg import sym_spectral
from transferlab.softmax import (
    check_self_concordance,
    cross_entropy,
    directional_derivatives,
    grad_log_partition,
    hessian_log_partition,
    kl_divergence,
    kl_quadratic_bounds,
    log_partition,
    softmax_prob,
)


def kl_by_probability_sum(eta_true, eta_model):
    """Direct oracle: sum over all K classes of p log(p/q)."""
    p = softmax_prob(np.asarray(eta_true, dtype=float))
    q = softmax_prob(np.asarray(eta_model, dtype=float))
    return float(np.sum(p * np.log(p / q)))


def fd_second(g, t, h=2e-2):
    """O(h^4) second derivative via Richardson on the central stencil."""

    def d2(hh):
        return (g(t + hh) - 2.0 * g(t) + g(t - hh)) / hh**2

    return (4.0 * d2(h / 2) - d2(h)) / 3.0


def fd_third(g, t, h=2e-2):
    """O(h^4) third derivative via Richardson on the 4-point stencil."""

    def d3(hh):
        return (-g(t - 2 * hh) + 2 * g(t - hh) - 2 * g(t + hh) + g(t + 2 * hh)) / (
            2 * hh**3
        )

    return (4.0 * d3(h / 2) - d3(h)) / 3.0


class TestLogPartition:
    def test_binary_at_zero(self):
        assert log_partition([0.0]) == pytest.approx(math.log(2.0), abs=1e-15)

    def test_three_way_at_zero(self):
        assert log_partition([0.0, 0.0]) == pytest.approx(math.log(3.0), abs=1e-15)

    def test_huge_logit_no_overflow(self):
        # oracle: 50-digit evaluation of log(1 + e^1000)
        with mpmath.workdps(50):
            exact = float(mpmath.log(1 + mpmath.e**1000))
        assert log_partition([1000.0]) == pytest.approx(exact, rel=1e-15)
        assert np.isfinite(log_partition([1000.0, -1000.0, 500.0]))

    def test_lower_bound(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            eta = rng.standard_normal(int(rng.integers(1, 8))) * 5
            assert log_partition(eta) >= max(0.0, eta.max()) - 1e-12


class TestSoftmaxProb:
    def test_binary_symmetric(self):
        np.testing.assert_allclose(softmax_prob([0.0]), [0.5, 0.5], atol=1e-15)

    def test_three_way_uniform(self):
        np.testing.assert_allclose(softmax_prob([0.0, 0.0]), [1 / 3] * 3, atol=1e-15)

    def test_forced_algebra(self):
        np.testing.assert_allclose(
            softmax_prob([math.log(2.0)]), [2 / 3, 1 / 3], atol=1e-15
        )

    @given(st.lists(st.floats(-30, 30), min_size=1, max_size=10))
    @settings(max_examples=200, deadline=None)
    def test_sums_to_one(self, eta):
        p = softmax_prob(np.array(eta))
        assert abs(p.sum() - 1.0) <= 1e-12
        assert np.all(p > 0)


class TestCrossEntropy:
    def test_uniform_cases(self):
        assert cross_entropy([0.0, 0.0], [1, 0]) == pytest.approx(math.log(3.0))
        assert cross_entropy([0.0, 0.0], [0, 0]) == pytest.approx(math.log(3.0))

    def test_direct_evaluation_oracle(self):
        # oracle: -2 + log(1 + e^2 + e^-1)
        expected = -2.0 + math.log(1.0 + math.e**2 + math.e**-1)
        assert expected == pytest.approx(0.16984601955628564, abs=1e-15)
        assert cross_entropy([2.0, -1.0], [1, 0]) == pytest.approx(expected, abs=1e-14)

    def test_equals_negative_log_prob(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            k = int(rng.integers(2, 7))
            eta = rng.standard_normal(k - 1) * 2
            cls = int(rng.integers(0, k))
            y = np.zeros(k - 1)
            if cls < k - 1:
                y[cls] = 1.0
            assert cross_entropy(eta, y) == pytest.approx(
                -math.log(softmax_prob(eta)[cls]), abs=1e-12
            )

    def test_length_mismatch(self):
        with pytest.raises(ContractViolation):
            cross_entropy([0.0, 0.0], [1, 0, 0])

    def test_gradient_lipschitz_bound(self):
        # gradient in eta is sigma - y; its norm stays below sqrt(K-1)
        rng = np.random.default_rng(2)
        for _ in range(300):
            k = int(rng.integers(2, 40))
            eta = rng.standard_normal(k - 1) * 10
            y = np.zeros(k - 1)
            cls = int(rng.integers(0, k))
            if cls < k - 1:
                y[cls] = 1.0
            grad = softmax_prob(eta)[:-1] - y
            assert np.linalg.norm(grad) <= math.sqrt(k - 1) + 1e-10


class TestGradHessian:
    def test_small_cases(self):
        np.testing.assert_allclose(grad_log_partition([0.0, 0.0]), [1 / 3, 1 / 3])
        np.testing.assert_allclose(grad_log_partition([0.0]), [0.5])
        np.testing.assert_allclose(hessian_log_partition([0.0]), [[0.25]])
        np.testing.assert_allclose(
            hessian_log_partition([0.0, 0.0]),
            [[2 / 9, -1 / 9], [-1 / 9, 2 / 9]],
            atol=1e-15,
        )

    def test_grad_matches_finite_differences(self):
        rng = np.random.default_rng(3)
        eta = rng.standard_normal(4) * 2  # K = 5
        grad = grad_log_partition(eta)
        h = 1e-6
        for i in range(4):
            e = np.zeros(4)
            e[i] = h
            fd = (log_partition(eta + e) - log_partition(eta - e)) / (2 * h)
            assert grad[i] == pytest.approx(fd, abs=1e-6)

    def test_hessian_matches_finite_differences(self):
        rng = np.random.default_rng(4)
        eta = rng.standard_normal(5)  # K = 6
        hess = hessian_log_partition(eta)
        h = 1e-5
        for j in range(5):
            e = np.zeros(5)
            e[j] = h
            fd_col = (grad_log_partition(eta + e) - grad_log_partition(eta - e)) / (
                2 * h
            )
            np.testing.assert_allclose(hess[:, j], fd_col, atol=1e-5)

    def test_hessian_psd_top_eigenvalue(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            k = int(rng.integers(2, 60))
            eta = rng.standard_normal(k - 1) * 4
            lam, _ = sym_spectral(hessian_log_partition(eta))
            assert lam[0] <= 1.0 + 1e-10
            assert lam[-1] >= -1e-10


class TestKl:
    def test_zero_iff_equal(self):
        eta = np.array([0.3, -1.2, 0.7])
        assert kl_divergence(eta, eta) == 0.0
        assert kl_divergence([1.0, 0.0], [0.0, 1.0]) > 0

    def test_binary_oracle(self):
        got = kl_divergence([0.0], [math.log(3.0)])
        oracle = kl_by_probability_sum([0.0], [math.log(3.0)])
        assert oracle == pytest.approx(0.1438410362258904, abs=1e-12)
        assert got == pytest.approx(oracle, abs=1e-10)

    def test_swap_case_matches_oracle(self):
        got = kl_divergence([1.0, 0.0], [0.0, 1.0])
        assert got == pytest.approx(
            kl_by_probability_sum([1.0, 0.0], [0.0, 1.0]), abs=1e-10
        )

    def test_random_pairs_match_probability_sum(self):
        rng = np.random.default_rng(6)
        for _ in range(200):
            k = int(rng.integers(2, 9))
            a = rng.standard_normal(k - 1) * 2
            b = rng.standard_normal(k - 1) * 2
            assert kl_divergence(a, b) == pytest.approx(
                kl_by_probability_sum(a, b), abs=1e-10
            )
            assert kl_divergence(a, b) >= 0.0

    @given(
        st.integers(1, 6).flatmap(
            lambda w: st.tuples(
                st.lists(st.floats(-20, 20), min_size=w, max_size=w),
                st.lists(st.floats(-20, 20), min_size=w, max_size=w),
            )
        )
    )
    @settings(max_examples=200, deadline=None)
    def test_nonnegative_generally(self, pair):
        a, b = np.array(pair[0]), np.array(pair[1])
        assert kl_divergence(a, b) >= 0.0

    def test_length_mismatch(self):
        with pytest.raises(ContractViolation):
            kl_divergence([0.0], [0.0, 1.0])


class TestDirectionalDerivatives:
    def test_binary_symmetric_point(self):
        g1, g2, g3 = directional_derivatives([0.0], [1.0])
        assert g1 == pytest.approx(0.5, abs=1e-15)
        assert g2 == pytest.approx(0.25, abs=1e-15)
        assert g3 == pytest.approx(0.0, abs=1e-15)

    def test_binary_matches_high_order_fd(self):
        def g(t):
            return math.log(1.0 + math.exp(1.0 + t))

        g1, g2, g3 = directional_derivatives([1.0], [1.0])
        assert g2 == pytest.approx(fd_second(g, 0.0), abs=1e-5)
        assert g3 == pytest.approx(fd_third(g, 0.0), abs=1e-5)

    def test_random_directions_match_fd(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            eta = rng.standard_normal(7)  # K = 8
            v = rng.standard_normal(7)

            def g(t):
                return log_partition(eta + t * v)

            g1, g2, g3 = directional_derivatives(eta, v)
            assert g2 >= 0.0
            h = 1e-6
            assert g1 == pytest.approx((g(h) - g(-h)) / (2 * h), abs=1e-6)
            assert g2 == pytest.approx(fd_second(g, 0.0), abs=1e-5)
            assert g3 == pytest.approx(fd_third(g, 0.0), abs=1e-5)

    def test_zero_direction_rejected(self):
        with pytest.raises(ContractViolation):
            directional_derivatives([1.0, 2.0], [0.0, 0.0])


class TestSelfConcordance:
    def test_scalar_logistic_ratio_below_one(self):
        report = check_self_concordance([0.0], [1.0], np.linspace(-2, 2, 41))
        assert report.passed
        assert report.max_ratio <= 1.0
        assert report.n_skipped == 0

    def test_direction_scaling_invariance(self):
        grid = np.linspace(-1.5, 1.5, 21)
        rng = np.random.default_rng(8)
        eta = rng.standard_normal(4)
        v = rng.standard_normal(4)
        r1 = check_self_concordance(eta, v, grid)
        r10 = check_self_concordance(eta, 10.0 * v, grid / 10.0)
        assert r1.passed == r10.passed
        assert r1.max_ratio == pytest.approx(r10.max_ratio, rel=1e-9)

    def test_underflowed_curvature_skipped(self):
        report = check_self_concordance([0.0], [1.0], [2000.0])
        assert report.n_skipped == 1
        assert report.passed

    def test_random_sweep_small(self):
        rng = np.random.default_rng(9)
        for _ in range(200):
            k = int(rng.integers(2, 12))
            eta = rng.standard_normal(k - 1) * 3
            v = rng.standard_normal(k - 1) * 3
            report = check_self_concordance(eta, v, rng.uniform(-2, 2, 5))
            assert report.passed, report


class TestKlQuadraticBounds:
    def test_equal_inputs(self):
        assert kl_quadratic_bounds([1.0, -1.0], [1.0, -1.0]) == (0.0, 0.0, 0.0)

    def test_binary_spot_values(self):
        lower, kl, upper = kl_quadratic_bounds([0.0], [0.1])
        # c0 = 1/8, q0 = 0.1, ||v||^2 = 0.01
        assert lower == pytest.approx(0.125 * math.exp(-1.0) * 0.01, rel=1e-12)
        assert upper == pytest.approx(0.005, rel=1e-12)
        assert kl == pytest.approx(kl_by_probability_sum([0.0], [0.1]), abs=1e-12)
        assert lower <= kl <= upper

    def test_random_sandwich(self):
        rng = np.random.default_rng(10)
        for i in range(300):
            k = 2 if i % 2 == 0 else 10
            a = rng.standard_normal(k - 1)
            a *= 3.0 * rng.random() / max(np.linalg.norm(a), 1e-12)
            b = rng.standard_normal(k - 1)
            b *= 3.0 * rng.random() / max(np.linalg.norm(b), 1e-12)
            lower, kl, upper = kl_quadratic_bounds(a, b)
            assert lower <= kl <= upper
