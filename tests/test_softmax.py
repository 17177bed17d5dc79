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
    _SHIFT_FREE_MAX,
    _log_partition_cols,
    _max_curvature_ratio,
    cross_entropy_rows,
    _directional_derivatives_rows,
    hessian_log_partition,
    kl_quadratic_bounds,
    kl_rows,
    _log_partition_rows,
    softmax_full_rows,
)


def kl_by_probability_sum(eta_true, eta_model):
    """Direct oracle: sum over all K classes of p log(p/q)."""
    p = softmax_full_rows([eta_true])[0]
    q = softmax_full_rows([eta_model])[0]
    return float(np.sum(p * np.log(p / q)))


def line_rows(eta, v, ts):
    """The rows (eta, v, t) of the points eta + t v for t in ``ts``."""
    ts = np.asarray(ts, dtype=np.float64)
    return np.tile(eta, (ts.size, 1)), np.tile(v, (ts.size, 1)), ts


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
        assert _log_partition_rows([[0.0]])[0] == pytest.approx(math.log(2.0), abs=1e-15)

    def test_three_way_at_zero(self):
        got = _log_partition_rows([[0.0, 0.0]])[0]
        assert got == pytest.approx(math.log(3.0), abs=1e-15)

    def test_huge_logit_no_overflow(self):
        # oracle: 50-digit evaluation of log(1 + e^1000)
        with mpmath.workdps(50):
            exact = float(mpmath.log(1 + mpmath.e**1000))
        assert _log_partition_rows([[1000.0]])[0] == pytest.approx(exact, rel=1e-15)
        assert np.isfinite(_log_partition_rows([[1000.0, -1000.0, 500.0]])[0])

    def test_lower_bound(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            eta = rng.standard_normal(int(rng.integers(1, 8))) * 5
            assert _log_partition_rows([eta])[0] >= max(0.0, eta.max()) - 1e-12


class TestSoftmaxProb:
    def test_binary_symmetric(self):
        np.testing.assert_allclose(softmax_full_rows([[0.0]]), [[0.5, 0.5]], atol=1e-15)

    def test_three_way_uniform(self):
        np.testing.assert_allclose(
            softmax_full_rows([[0.0, 0.0]]), [[1 / 3] * 3], atol=1e-15
        )

    def test_forced_algebra(self):
        np.testing.assert_allclose(
            softmax_full_rows([[math.log(2.0)]]), [[2 / 3, 1 / 3]], atol=1e-15
        )

    @given(st.lists(st.floats(-30, 30), min_size=1, max_size=10))
    @settings(max_examples=200, deadline=None)
    def test_sums_to_one(self, eta):
        p = softmax_full_rows([eta])[0]
        assert abs(p.sum() - 1.0) <= 1e-12
        assert np.all(p > 0)


class TestCrossEntropy:
    def test_uniform_cases(self):
        got = cross_entropy_rows([[0.0, 0.0], [0.0, 0.0]], [[1, 0], [0, 0]])
        np.testing.assert_allclose(got, [math.log(3.0)] * 2)

    def test_direct_evaluation_oracle(self):
        # oracle: -2 + log(1 + e^2 + e^-1)
        expected = -2.0 + math.log(1.0 + math.e**2 + math.e**-1)
        assert expected == pytest.approx(0.16984601955628564, abs=1e-15)
        got = cross_entropy_rows([[2.0, -1.0]], [[1, 0]])[0]
        assert got == pytest.approx(expected, abs=1e-14)

    def test_equals_negative_log_prob(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            k = int(rng.integers(2, 7))
            eta = rng.standard_normal(k - 1) * 2
            cls = int(rng.integers(0, k))
            y = np.zeros(k - 1)
            if cls < k - 1:
                y[cls] = 1.0
            assert cross_entropy_rows([eta], [y])[0] == pytest.approx(
                -math.log(softmax_full_rows([eta])[0, cls]), abs=1e-12
            )

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
            grad = softmax_full_rows([eta])[0, :-1] - y
            assert np.linalg.norm(grad) <= math.sqrt(k - 1) + 1e-10


class TestGradHessian:
    def test_small_cases(self):
        np.testing.assert_allclose(softmax_full_rows([[0.0, 0.0]])[:, :-1], [[1 / 3] * 2])
        np.testing.assert_allclose(softmax_full_rows([[0.0]])[:, :-1], [[0.5]])
        np.testing.assert_allclose(hessian_log_partition([0.0]), [[0.25]])
        np.testing.assert_allclose(
            hessian_log_partition([0.0, 0.0]),
            [[2 / 9, -1 / 9], [-1 / 9, 2 / 9]],
            atol=1e-15,
        )

    def test_grad_matches_finite_differences(self):
        rng = np.random.default_rng(3)
        eta = rng.standard_normal(4) * 2  # K = 5
        grad = softmax_full_rows([eta])[0, :-1]
        h = 1e-6
        steps = h * np.eye(4)
        fd = (_log_partition_rows(eta + steps) - _log_partition_rows(eta - steps)) / (2 * h)
        np.testing.assert_allclose(grad, fd, atol=1e-6)

    def test_hessian_matches_finite_differences(self):
        rng = np.random.default_rng(4)
        eta = rng.standard_normal(5)  # K = 6
        hess = hessian_log_partition(eta)
        h = 1e-5
        steps = h * np.eye(5)
        up = softmax_full_rows(eta + steps)[:, :-1]
        down = softmax_full_rows(eta - steps)[:, :-1]
        # row j of the difference is column j of the Hessian
        np.testing.assert_allclose(hess.T, (up - down) / (2 * h), atol=1e-5)

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
        assert kl_rows([eta], [eta])[0] == 0.0
        assert kl_rows([[1.0, 0.0]], [[0.0, 1.0]])[0] > 0

    def test_binary_oracle(self):
        got = kl_rows([[0.0]], [[math.log(3.0)]])[0]
        oracle = kl_by_probability_sum([0.0], [math.log(3.0)])
        assert oracle == pytest.approx(0.1438410362258904, abs=1e-12)
        assert got == pytest.approx(oracle, abs=1e-10)

    def test_swap_case_matches_oracle(self):
        got = kl_rows([[1.0, 0.0]], [[0.0, 1.0]])[0]
        assert got == pytest.approx(
            kl_by_probability_sum([1.0, 0.0], [0.0, 1.0]), abs=1e-10
        )

    def test_random_pairs_match_probability_sum(self):
        rng = np.random.default_rng(6)
        for _ in range(200):
            k = int(rng.integers(2, 9))
            a = rng.standard_normal(k - 1) * 2
            b = rng.standard_normal(k - 1) * 2
            kl = kl_rows([a], [b])[0]
            assert kl == pytest.approx(kl_by_probability_sum(a, b), abs=1e-10)
            assert kl >= 0.0

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
        assert kl_rows([pair[0]], [pair[1]])[0] >= 0.0

    def test_length_mismatch(self):
        with pytest.raises(ContractViolation):
            kl_rows([[0.0]], [[0.0, 1.0]])


def ref_log_partition_rows(e):
    """The row-wise log-partition as written before the class-major kernel."""
    shift = np.maximum(e.max(axis=1), 0.0)
    return shift + np.log(np.exp(-shift) + np.exp(e - shift[:, None]).sum(axis=1))


def ref_softmax_full_rows(e):
    shift = np.maximum(e.max(axis=1), 0.0)
    num = np.concatenate([np.exp(e - shift[:, None]), np.exp(-shift)[:, None]], axis=1)
    return num / num.sum(axis=1, keepdims=True)


def ref_kl_rows(t, m):
    sigma_t = ref_softmax_full_rows(t)[:, :-1]
    val = ref_log_partition_rows(m) - ref_log_partition_rows(t)
    return np.maximum(val - (sigma_t * (m - t)).sum(axis=1), 0.0)


def kl_oracle(t_row, m_row):
    """KL as the Bregman remainder of Phi at 60 digits, and the size of its terms."""
    with mpmath.workdps(60):
        t = [mpmath.mpf(float(v)) for v in t_row]
        m = [mpmath.mpf(float(v)) for v in m_row]
        phi_t = mpmath.log(1 + mpmath.fsum(mpmath.exp(v) for v in t))
        phi_m = mpmath.log(1 + mpmath.fsum(mpmath.exp(v) for v in m))
        inner = mpmath.fsum(mpmath.exp(a - phi_t) * (b - a) for a, b in zip(t, m))
        kl = phi_m - phi_t - inner
        return float(kl), float(abs(phi_m) + abs(phi_t) + abs(inner))


def layouts(block):
    """The same (N, K-1) rows as a C-ordered array and as a class-major view."""
    return {"c-rows": np.ascontiguousarray(block), "class-major": np.ascontiguousarray(block.T).T}


class TestClassMajorKernels:
    """kl_rows and its wrappers against an mpmath oracle and the row formulas they replace."""

    CASES = {
        "general": lambda rng: (rng.normal(0, 3, (40, 6)), rng.normal(0, 3, (40, 6))),
        "binary": lambda rng: (rng.normal(0, 3, (40, 1)), rng.normal(0, 3, (40, 1))),
        "one-row": lambda rng: (rng.normal(0, 3, (1, 9)), rng.normal(0, 3, (1, 9))),
        "near-700": lambda rng: (
            rng.choice([-700.0, 700.0], (30, 5)) + rng.normal(0, 2, (30, 5)),
            rng.choice([-700.0, 700.0], (30, 5)) + rng.normal(0, 2, (30, 5)),
        ),
        "close-pair": lambda rng: (lambda t: (t, t + rng.normal(0, 1e-3, t.shape)))(
            rng.normal(0, 2, (40, 29))
        ),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    @pytest.mark.parametrize("layout", ["c-rows", "class-major"])
    def test_kl_matches_oracle_and_row_formula(self, case, layout):
        rng = np.random.default_rng(sorted(self.CASES).index(case))
        t, m = (layouts(a)[layout] for a in self.CASES[case](rng))
        before = t.copy(), m.copy()
        got = kl_rows(t, m)
        # the inputs are read, never written
        np.testing.assert_array_equal(t, before[0])
        np.testing.assert_array_equal(m, before[1])
        ref = ref_kl_rows(np.array(before[0]), np.array(before[1]))
        for i in range(t.shape[0]):
            exact, scale = kl_oracle(t[i], m[i])
            # rounding of terms of size ``scale`` bounds any float evaluation
            tol = 64 * np.finfo(float).eps * max(scale, 1.0)
            assert abs(got[i] - max(exact, 0.0)) <= tol
            assert abs(got[i] - ref[i]) <= tol
        assert np.all(got >= 0.0)

    @pytest.mark.parametrize("layout", ["c-rows", "class-major"])
    @pytest.mark.parametrize("width", [1, 2, 7, 8, 29])
    def test_wrappers_match_row_formulas(self, layout, width):
        rng = np.random.default_rng(width)
        block = rng.normal(0, 5, (50, width))
        block[0] = 700.0
        block[1] = -700.0
        e = layouts(block)[layout]
        before = e.copy()
        phi, ref = _log_partition_rows(e), ref_log_partition_rows(before)
        if layout == "c-rows":
            # the sum over the K-1 exponentials runs in the row formula's order
            np.testing.assert_array_equal(phi, ref)
        else:
            # a class-major block sums row after row, which may move the last bit
            np.testing.assert_allclose(phi, ref, rtol=4 * np.finfo(float).eps)
        probs = softmax_full_rows(e)
        assert probs.flags.c_contiguous and probs.shape == (50, width + 1)
        np.testing.assert_allclose(probs, ref_softmax_full_rows(before),
                                   rtol=4 * np.finfo(float).eps, atol=1e-300)
        np.testing.assert_array_equal(e, before)


def parent_log_partition_cols(logits):
    """The always-shifted column kernel the shift-free branch replaced, line for line."""
    shift = logits.max(axis=0)
    np.maximum(shift, 0.0, out=shift)
    expo = np.subtract(logits, shift)
    np.exp(expo, out=expo)
    tail = np.exp(-shift)
    denom = expo.sum(axis=0)
    denom += tail
    return shift + np.log(denom), expo, tail, denom


def assert_kernel_outputs_equal(got, ref):
    """Bitwise equality of (phi, expo, tail, denom); a scalar tail is broadcast."""
    phi, expo, tail, denom = got
    np.testing.assert_array_equal(phi, ref[0])
    np.testing.assert_array_equal(expo, ref[1])
    np.testing.assert_array_equal(np.broadcast_to(tail, denom.shape), ref[2])
    np.testing.assert_array_equal(denom, ref[3])


def column_oracle(col):
    """Phi of one logit column and its K softmax probabilities, at 60 digits."""
    with mpmath.workdps(60):
        e = [mpmath.mpf(float(v)) for v in col]
        phi = mpmath.log(1 + mpmath.fsum(mpmath.exp(v) for v in e))
        probs = [mpmath.exp(v - phi) for v in e] + [mpmath.exp(-phi)]
        return float(phi), np.array([float(p) for p in probs])


class TestShiftFreeBranch:
    """_log_partition_cols on both sides of _SHIFT_FREE_MAX, against mpmath and the parent kernel."""

    BELOW = float(np.nextafter(_SHIFT_FREE_MAX, -np.inf))
    ABOVE = float(np.nextafter(_SHIFT_FREE_MAX, np.inf))

    @pytest.mark.parametrize("top", [BELOW, _SHIFT_FREE_MAX, ABOVE], ids=["below", "at", "above"])
    @pytest.mark.parametrize("width", [1, 6])
    @pytest.mark.parametrize("n", [1, 30])
    def test_matches_oracle_on_both_sides(self, top, width, n):
        rng = np.random.default_rng(width * 100 + n)
        block = np.minimum(rng.normal(0, 80, (width, n)), top)
        block[rng.integers(width), rng.integers(n)] = top
        before = block.copy()
        got = _log_partition_cols(block)
        np.testing.assert_array_equal(block, before)
        phi, expo, tail, denom = got
        if top <= _SHIFT_FREE_MAX:
            np.testing.assert_array_equal(expo, np.exp(block))
            assert tail == 1.0
        else:
            assert_kernel_outputs_equal(got, parent_log_partition_cols(block))
        probs = np.vstack([expo, np.broadcast_to(tail, denom.shape)]) / denom
        eps = np.finfo(float).eps
        for j in range(n):
            exact_phi, exact_probs = column_oracle(block[:, j])
            assert abs(phi[j] - exact_phi) <= 4 * eps * max(abs(exact_phi), 1.0)
            # the shifted branch rounds logit - shift before its exp
            np.testing.assert_allclose(probs[:, j], exact_probs, atol=1e-300,
                                       rtol=8 * eps * (1.0 + np.abs(block[:, j]).max()))

    @pytest.mark.parametrize("width", [1, 6])
    @pytest.mark.parametrize("n", [0, 1, 40])
    def test_nonpositive_columns_keep_their_bits(self, width, n):
        # columns with max <= 0 had shift 0 in the parent kernel too
        rng = np.random.default_rng(width + n)
        block = -np.abs(rng.normal(0, 30, (width, n)))
        if n:
            block[0, 0] = 0.0
            block[:, -1] = -np.inf
        assert_kernel_outputs_equal(_log_partition_cols(block), parent_log_partition_cols(block))
        if n > 1:
            # next to columns with a positive max below the bound
            mixed = block.copy()
            mixed[:, 1::2] = rng.uniform(0.0, _SHIFT_FREE_MAX, (width, mixed[:, 1::2].shape[1]))
            got = _log_partition_cols(mixed)
            ref = parent_log_partition_cols(mixed)
            keep = mixed.max(axis=0) <= 0.0
            for part, ref_part in zip(got, ref):
                np.testing.assert_array_equal(np.broadcast_to(part, ref_part.shape)[..., keep],
                                              ref_part[..., keep])

    @pytest.mark.parametrize("top", [1.0, 700.0])
    def test_nan_takes_the_parent_path(self, top):
        block = np.array([[np.nan, 1.0, -2.0], [0.5, top, -1.0]])
        assert_kernel_outputs_equal(_log_partition_cols(block), parent_log_partition_cols(block))


class TestKlOnOneBlock:
    """kl_rows on a block of thousands of rows, some of them past the
    shift-free bound, against the mpmath oracle and the row formula."""

    N = 4097
    # where the logits past the bound sit: near the first, a middle or the last row
    AT = 2048

    def crossing_rows(self, crossing):
        lo = crossing * self.AT
        return min(lo + 7, self.N - 1), min(lo + 9, self.N - 1)

    def pair(self, rng, crossing):
        t = rng.normal(0, 3, (self.N, 5))
        m = t + rng.normal(0, 0.5, t.shape)
        if crossing is not None:
            # logits above the bound, in both arguments
            row_t, row_m = self.crossing_rows(crossing)
            t[row_t, 2] = _SHIFT_FREE_MAX + 100.0
            m[row_m, 0] = _SHIFT_FREE_MAX + 50.0
        return t, m

    @pytest.mark.parametrize("crossing", [None, 0, 1, 2], ids=["none", "first", "middle", "last"])
    @pytest.mark.parametrize("layout", ["c-rows", "class-major"])
    def test_rows_match_the_oracle(self, crossing, layout):
        rng = np.random.default_rng(11 if crossing is None else crossing)
        t, m = (layouts(a)[layout] for a in self.pair(rng, crossing))
        before = t.copy(), m.copy()
        got = kl_rows(t, m)
        np.testing.assert_array_equal(t, before[0])
        np.testing.assert_array_equal(m, before[1])
        assert got.shape == (self.N,)
        ref = ref_kl_rows(np.array(before[0]), np.array(before[1]))
        rows = {0, self.AT - 1, self.AT, 2 * self.AT - 1, 2 * self.AT, self.N - 1,
                *rng.integers(0, self.N, 20).tolist()}
        if crossing is not None:
            rows |= set(self.crossing_rows(crossing))
        for i in sorted(rows):
            exact, scale = kl_oracle(t[i], m[i])
            tol = 64 * np.finfo(float).eps * max(scale, 1.0)
            assert abs(got[i] - max(exact, 0.0)) <= tol
            assert abs(got[i] - ref[i]) <= tol

    def test_empty_rows(self):
        assert kl_rows(np.zeros((0, 3)), np.zeros((0, 3))).shape == (0,)


class TestDirectionalDerivatives:
    def test_binary_symmetric_point(self):
        (g1,), (g2,), (g3,) = _directional_derivatives_rows([[0.0]], [[1.0]])
        assert g1 == pytest.approx(0.5, abs=1e-15)
        assert g2 == pytest.approx(0.25, abs=1e-15)
        assert g3 == pytest.approx(0.0, abs=1e-15)

    def test_binary_matches_high_order_fd(self):
        def g(t):
            return math.log(1.0 + math.exp(1.0 + t))

        _, (g2,), (g3,) = _directional_derivatives_rows([[1.0]], [[1.0]])
        assert g2 == pytest.approx(fd_second(g, 0.0), abs=1e-5)
        assert g3 == pytest.approx(fd_third(g, 0.0), abs=1e-5)

    def test_random_directions_match_fd(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            eta = rng.standard_normal(7)  # K = 8
            v = rng.standard_normal(7)

            def g(t):
                return _log_partition_rows([eta + t * v])[0]

            (g1,), (g2,), (g3,) = _directional_derivatives_rows([eta], [v])
            assert g2 >= 0.0
            h = 1e-6
            assert g1 == pytest.approx((g(h) - g(-h)) / (2 * h), abs=1e-6)
            assert g2 == pytest.approx(fd_second(g, 0.0), abs=1e-5)
            assert g3 == pytest.approx(fd_third(g, 0.0), abs=1e-5)


class TestSelfConcordance:
    def test_scalar_logistic_ratio_below_one(self):
        ratio, skipped, passed = _max_curvature_ratio(
            *line_rows([0.0], [1.0], np.linspace(-2, 2, 41))
        )
        assert passed
        assert ratio <= 1.0
        assert skipped == 0

    def test_direction_scaling_invariance(self):
        grid = np.linspace(-1.5, 1.5, 21)
        rng = np.random.default_rng(8)
        eta = rng.standard_normal(4)
        v = rng.standard_normal(4)
        r1, _, passed1 = _max_curvature_ratio(*line_rows(eta, v, grid))
        r10, _, passed10 = _max_curvature_ratio(*line_rows(eta, 10.0 * v, grid / 10.0))
        assert passed1 == passed10
        assert r1 == pytest.approx(r10, rel=1e-9)

    def test_underflowed_curvature_skipped(self):
        _, skipped, passed = _max_curvature_ratio(*line_rows([0.0], [1.0], [2000.0]))
        assert skipped == 1
        assert passed

    def test_random_sweep_small(self):
        rng = np.random.default_rng(9)
        for _ in range(200):
            k = int(rng.integers(2, 12))
            eta = rng.standard_normal(k - 1) * 3
            v = rng.standard_normal(k - 1) * 3
            ratio, _, passed = _max_curvature_ratio(
                *line_rows(eta, v, rng.uniform(-2, 2, 5))
            )
            assert passed, (eta, v, ratio)


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
