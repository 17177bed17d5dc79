"""Two-stage training: objective descent, constraints, and closed forms."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from transferlab.errors import ContractViolation, SingularMatrixError
from transferlab.linalg import orthonormalize
from transferlab.model_space import (
    LinearHead,
    SubspaceRep,
    cap_columns,
    diversity_parameter,
    principal_angles,
)
from transferlab.rngutil import derive_rng
from transferlab.softmax import (
    _SHIFT_FREE_MAX,
    _log_partition_cols,
    cross_entropy_rows,
    softmax_full_rows,
)
from transferlab.synthetic import (
    LabeledDataset,
    isotropic_covariates,
    make_dataset,
    make_ground_truth,
    sample_covariates,
)
from transferlab import erm
from transferlab.erm import (
    _bb_step,
    _embed_softmax,
    _head_grad,
    _head_risk,
    TrainTrace,
    OptimConfig,
    fit_downstream_head,
    fit_head_on_embeddings,
    logdet_regularizer,
    loss_and_grad,
    pretrain,
    train_baseline,
)


def _parent_label_stat(z, targets):
    """The (r, K-1) label statistic z^T T / n as the parent formed it per trial."""
    return z.T @ targets / z.shape[0]


def _parent_head_risk(alpha, z, label_stat):
    """The parent's row-major loss kernel: logits from (n, r) embeddings."""
    logits = alpha.T @ z.T
    phi, expo, _, denom = _log_partition_cols(logits, out=logits)
    risk = float(np.mean(phi) - np.vdot(alpha, label_stat))
    return risk, (expo, denom)


def _parent_head_grad(z, soft, label_stat):
    """The parent's head gradient (P z)^T / n - z^T T / n from (n, r) embeddings."""
    expo, denom = soft
    return (expo @ (z / denom[:, None])).T / z.shape[0] - label_stat


def fd_grad(fun, point, h=1e-6):
    grad = np.zeros_like(point)
    flat = grad.ravel()
    p = point.copy().ravel()
    for j in range(p.size):
        step = h * max(1.0, abs(p[j]))
        p[j] += step
        up = fun(p.reshape(point.shape))
        p[j] -= 2 * step
        down = fun(p.reshape(point.shape))
        p[j] += step
        flat[j] = (up - down) / (2 * step)
    return grad


@pytest.fixture()
def one_strict_trial(monkeypatch):
    """Line searches of one trial (_MIN_STEP = _STEP_INIT) whose sufficient-
    decrease constant is near 1."""
    monkeypatch.setattr(erm, "_ARMIJO_C", 0.999)
    monkeypatch.setattr(erm, "_STEP_INIT", 1.0)
    monkeypatch.setattr(erm, "_MIN_STEP", 1.0)


class TestLogdetRegularizer:
    def test_identity_gram(self):
        alpha = np.hstack([np.eye(3), np.zeros((3, 4))])
        value, grad = logdet_regularizer(alpha, 0.0)
        assert value == pytest.approx(0.0, abs=1e-12)
        np.testing.assert_allclose(grad, 2.0 * alpha, atol=1e-12)

    def test_diagonal_singular_values(self):
        alpha = np.array([[1.0, 0.0, 0.0], [0.0, 2.0, 0.0]])
        value, _ = logdet_regularizer(alpha, 0.0)
        assert value == pytest.approx(math.log(4.0), abs=1e-12)

    def test_gradient_matches_finite_differences(self):
        rng = derive_rng(0, "reg")
        alpha = rng.standard_normal((4, 10))
        _, grad = logdet_regularizer(alpha, 1e-6)
        numeric = fd_grad(lambda a: logdet_regularizer(a, 1e-6)[0], alpha)
        assert np.linalg.norm(grad - numeric) <= 1e-5 * np.linalg.norm(grad)

    def test_singular_gram_raises(self):
        alpha = np.zeros((3, 5))
        with pytest.raises(SingularMatrixError):
            logdet_regularizer(alpha, 0.0)


class TestOptimConfig:
    @pytest.mark.parametrize("bad", [
        {"max_iters": 0}, {"max_iters": 2.5}, {"max_iters": True},
        {"max_iters": -1}, {"max_iters": 1.0}, {"max_iters": "5"}, {"max_iters": None},
        {"grad_tol": 0.0}, {"grad_tol": -1e-9}, {"grad_tol": math.nan},
        {"grad_tol": math.inf}, {"grad_tol": "1e-6"}, {"grad_tol": True}, {"grad_tol": None},
    ])
    def test_invalid_settings_rejected(self, bad):
        with pytest.raises(ContractViolation):
            OptimConfig(**bad)

    def test_boundary_settings_accepted(self):
        cfg = OptimConfig(max_iters=1, grad_tol=5e-324)
        assert cfg.max_iters == 1 and cfg.grad_tol > 0


class TestLossAndGrad:
    def test_zero_head_risk_is_log_k(self):
        rng = derive_rng(1, "lg")
        truth = make_ground_truth(6, 2, 7, 2, 1.0, rng)
        ds = make_dataset(truth, isotropic_covariates(6), 50, rng, "pretrain")
        head = LinearHead(np.zeros((2, 6)), 1.0)
        risk, _, _ = loss_and_grad(truth.rep, head, ds.x, ds.y)
        assert risk == pytest.approx(math.log(7.0), abs=1e-12)

    def test_single_sample_closed_form(self):
        # one sample: grad_alpha = z (sigma - y)^T, grad_B = x (alpha delta)^T
        rng = derive_rng(2, "lg")
        d, r, k = 5, 2, 4
        rep = SubspaceRep(orthonormalize(rng.standard_normal((d, r))))
        alpha = rng.standard_normal((r, k - 1)) * 0.4
        head = LinearHead(alpha, 10.0)
        x = rng.standard_normal((1, d))
        y = np.array([[0.0, 1.0, 0.0]])
        risk, g_alpha, g_rep = loss_and_grad(rep, head, x, y)
        z = (x @ rep.b)[0]
        delta = softmax_full_rows([z @ alpha])[0, :-1] - y[0]
        np.testing.assert_allclose(g_alpha, np.outer(z, delta), atol=1e-12)
        np.testing.assert_allclose(g_rep, np.outer(x[0], alpha @ delta), atol=1e-12)

    def test_matches_finite_differences_small_instance(self):
        rng = derive_rng(3, "lg")
        d, r, k, n = 5, 2, 4, 20
        rep = SubspaceRep(orthonormalize(rng.standard_normal((d, r))))
        alpha = rng.standard_normal((r, k - 1)) * 0.5
        head = LinearHead(alpha, 10.0)
        x = rng.standard_normal((n, d))
        labels = rng.integers(0, k, n)
        y = np.zeros((n, k - 1))
        for i, lab in enumerate(labels):
            if lab < k - 1:
                y[i, lab] = 1.0
        _, g_alpha, g_rep = loss_and_grad(rep, head, x, y)
        num_alpha = fd_grad(
            lambda a: float(cross_entropy_rows((x @ rep.b) @ a, y).mean()), alpha
        )
        num_b = fd_grad(
            lambda b: float(cross_entropy_rows((x @ b) @ alpha, y).mean()), rep.b
        )
        assert np.linalg.norm(g_alpha - num_alpha) <= 1e-4 * np.linalg.norm(g_alpha)
        assert np.linalg.norm(g_rep - num_b) <= 1e-4 * np.linalg.norm(g_rep)

    def test_shape_mismatch(self):
        rep = SubspaceRep(np.eye(4)[:, :2])
        head = LinearHead(np.zeros((2, 3)), 1.0)
        with pytest.raises(ContractViolation):
            loss_and_grad(rep, head, np.ones((5, 4)), np.zeros((5, 2)))


def mixed_targets(rng, n, k_minus_1):
    """Target rows mixing one-hot labels, class-K (all-zero) rows and soft rows."""
    t = np.zeros((n, k_minus_1))
    kind = rng.integers(0, 3, n)
    kind[0] = 1  # at least one class-K row
    for i in range(n):
        if kind[i] == 0:
            t[i, rng.integers(0, k_minus_1)] = 1.0
        elif kind[i] == 2:
            w = rng.exponential(size=k_minus_1 + 1)
            t[i] = (w / w.sum())[:-1]
    return t


class TestHeadRiskKernel:
    """The class-major loss kernel against the row-wise softmax reference."""

    @given(
        st.integers(0, 2**32 - 1),
        st.integers(1, 40),
        st.integers(1, 12),
        st.floats(0.0, 700.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_reference_rows(self, seed, n, k_minus_1, scale):
        rng = np.random.default_rng(seed)
        eta = rng.uniform(-scale, scale, (n, k_minus_1))
        t = mixed_targets(rng, n, k_minus_1)
        # an identity head makes the class-major logits exactly eta^T
        alpha = np.eye(k_minus_1)
        risk, (expo, denom) = _head_risk(
            alpha, eta.T, _parent_label_stat(eta, t))
        ref = float(cross_entropy_rows(eta, t).mean())
        # the risk is a difference of terms as large as max |eta|
        assert abs(risk - ref) <= 1e-12 * max(abs(ref), scale, 1.0)
        assert expo.shape == (k_minus_1, n) and denom.shape == (n,)
        np.testing.assert_allclose(
            (expo / denom).T, softmax_full_rows(eta)[:, :-1], rtol=1e-12, atol=1e-300
        )

    @staticmethod
    def _reference_head_risk(alpha, z, label_stat):
        """The kernel's two branches as _head_risk takes them, line for line."""
        expo = alpha.T @ z.T
        shift = expo.max(axis=0)
        if shift.max(initial=-np.inf) <= _SHIFT_FREE_MAX:
            np.exp(expo, out=expo)
            denom = expo.sum(axis=0)
            denom += 1.0
            return float(np.mean(np.log(denom)) - np.vdot(alpha, label_stat)), expo, denom
        np.maximum(shift, 0.0, out=shift)
        expo -= shift
        np.exp(expo, out=expo)
        denom = expo.sum(axis=0)
        denom += np.exp(-shift)
        risk = float(np.mean(shift + np.log(denom)) - np.vdot(alpha, label_stat))
        return risk, expo, denom

    @staticmethod
    def _parent_head_risk(alpha, z, label_stat):
        """The always-shifted, normalized kernel the shift-free branch replaced.

        Also returns the size of the two terms whose difference is the risk.
        """
        probs = alpha.T @ z.T
        shift = probs.max(axis=0)
        np.maximum(shift, 0.0, out=shift)
        probs -= shift
        np.exp(probs, out=probs)
        denom = probs.sum(axis=0)
        denom += np.exp(-shift)
        phi = shift + np.log(denom)
        label = np.vdot(alpha, label_stat)
        probs /= denom
        return float(np.mean(phi) - label), probs, float(np.mean(np.abs(phi)) + abs(label))

    @given(
        st.integers(0, 2**32 - 1),
        st.integers(1, 300),
        st.integers(1, 6),
        st.integers(1, 40),
        st.floats(0.0, 700.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_bitwise_equal_to_reference_formula(self, seed, n, r, k_minus_1, scale):
        rng = np.random.default_rng(seed)
        z = rng.standard_normal((n, r))
        alpha = rng.uniform(-scale, scale, (r, k_minus_1))
        stat = _parent_label_stat(z, mixed_targets(rng, n, k_minus_1))
        before = alpha.copy(), z.copy()
        risk, (expo, denom) = _head_risk(alpha, z.T, stat)
        ref_risk, ref_expo, ref_denom = self._reference_head_risk(alpha, z, stat)
        assert risk == ref_risk or (math.isnan(risk) and math.isnan(ref_risk))
        np.testing.assert_array_equal(expo, ref_expo)
        np.testing.assert_array_equal(denom, ref_denom)
        assert expo.flags.c_contiguous
        np.testing.assert_array_equal(alpha, before[0])
        np.testing.assert_array_equal(z, before[1])
        # against the parent formula: a few ulps, where the parent's own
        # rounding of logit - shift is relative to the logits' size
        old_risk, old_probs, terms = self._parent_head_risk(alpha, z, stat)
        eps = np.finfo(float).eps
        assert abs(risk - old_risk) <= 8 * eps * terms
        size = 1.0 + float(np.abs(alpha.T @ z.T).max())
        np.testing.assert_allclose(expo / denom, old_probs, rtol=8 * eps * size, atol=1e-300)

    @given(
        st.integers(0, 2**32 - 1),
        st.integers(1, 200),
        st.integers(1, 6),
        st.integers(1, 30),
        st.floats(0.0, 700.0),
    )
    @settings(max_examples=100, deadline=None)
    def test_gradients_match_normalized_formula(self, seed, n, r, k_minus_1, scale):
        # the gradients scale by 1/denom after the product; the parent
        # divided the block first and multiplied the probabilities
        rng = np.random.default_rng(seed)
        z = rng.standard_normal((n, r))
        alpha = rng.uniform(-scale, scale, (r, k_minus_1))
        y = mixed_targets(rng, n, k_minus_1)
        stat = _parent_label_stat(z, y)
        _, soft = _head_risk(alpha, z.T, stat)
        _, probs, _ = self._parent_head_risk(alpha, z, stat)
        tol = 1e-13
        pz, ref_head = (probs @ z).T / n, (probs @ z).T / n - stat
        head = _head_grad(z.T, soft, stat)
        assert np.linalg.norm(head - ref_head) <= tol * (
            np.linalg.norm(pz) + np.linalg.norm(stat))
        ap, ya = (alpha @ probs).T, y @ alpha.T
        # the per-sample gradient at the embeddings: its softmax part from
        # the kernel, its label part T alpha^T
        embed = _embed_softmax(alpha, soft).T - y @ alpha.T
        assert np.linalg.norm(embed - (ap - ya)) <= tol * (
            np.linalg.norm(ap) + np.linalg.norm(ya))

    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 30))
    @settings(max_examples=50, deadline=None)
    def test_loss_and_grad_matches_reference(self, seed, n):
        # risk and head gradient against the row-wise softmax reference;
        # the frame gradient against central differences of x B
        rng = np.random.default_rng(seed)
        d, r, k_minus_1 = 5, 2, 4
        rep = SubspaceRep(orthonormalize(rng.standard_normal((d, r))))
        head = LinearHead(rng.standard_normal((r, k_minus_1)) * 2.0, 100.0)
        x = rng.standard_normal((n, d))
        y = mixed_targets(rng, n, k_minus_1)
        risk, g_alpha, g_rep = loss_and_grad(rep, head, x, y)

        z = x @ rep.b
        eta = z @ head.alpha
        ref_risk = float(cross_entropy_rows(eta, y).mean())
        ref_alpha = z.T @ (softmax_full_rows(eta)[:, :-1] - y) / n
        assert abs(risk - ref_risk) <= 1e-12 * max(abs(ref_risk), 1.0)
        assert np.linalg.norm(g_alpha - ref_alpha) <= 1e-12 * max(
            np.linalg.norm(ref_alpha), 1.0)

        def risk_of(b):
            return float(cross_entropy_rows((x @ b) @ head.alpha, y).mean())

        numeric = fd_grad(risk_of, rep.b)
        assert np.linalg.norm(g_rep - numeric) <= 1e-6 * max(np.linalg.norm(numeric), 1.0)


def _fast_path(rep, alpha, x, y):
    """Label statistic, embeddings and representation gradient through the
    class-major path the descent loop takes."""
    xt = np.ascontiguousarray(x.T)
    terms = xt @ y / xt.shape[1]
    zt, stat = rep.b.T @ xt, rep.b.T @ terms
    _, soft = _head_risk(alpha, zt, stat)
    return stat, zt, erm._frame_grad(xt, terms, alpha, soft)


class TestClassMajorFastPath:
    """Label terms formed once per fit against the per-sample row-major formulas."""

    EDGES = [(1, 1, 1), (1, 3, 4), (6, 1, 1), (5, 1, 3), (4, 3, 1)]

    def _check_subspace(self, seed, n, r, k_minus_1):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((n, r + 2))
        y = mixed_targets(rng, n, k_minus_1)
        alpha = rng.standard_normal((r, k_minus_1)) * 1.5
        rep = SubspaceRep(orthonormalize(rng.standard_normal((x.shape[1], r))))
        stat, zt, grad = _fast_path(rep, alpha, x, y)
        z = x @ rep.b
        probs = softmax_full_rows(z @ alpha)[:, :-1]
        ref_stat = z.T @ y / n
        soft_part, label_part = x.T @ (probs @ alpha.T) / n, x.T @ (y @ alpha.T) / n
        eps = np.finfo(float).eps
        np.testing.assert_allclose(zt, z.T, rtol=64 * eps, atol=64 * eps * np.abs(z).max())
        # B^T (x^T T) against (x B)^T T: the sums differ in order only
        scale = np.linalg.norm(np.abs(x).T @ np.abs(y)) / n
        assert np.linalg.norm(stat - ref_stat) <= 1e-13 * scale + 1e-300
        assert np.linalg.norm(grad - (soft_part - label_part)) <= 1e-13 * (
            np.linalg.norm(soft_part) + np.linalg.norm(label_part) + 1e-300)

    @given(st.integers(0, 2**32 - 1), st.integers(1, 40), st.integers(1, 4), st.integers(1, 6))
    @settings(max_examples=100, deadline=None)
    def test_subspace_matches_per_sample_formulas(self, seed, n, r, k_minus_1):
        self._check_subspace(seed, n, r, k_minus_1)

    @pytest.mark.parametrize("n, r, k_minus_1", EDGES)
    def test_subspace_edge_shapes(self, n, r, k_minus_1):
        for seed in range(5):
            self._check_subspace(seed, n, r, k_minus_1)


class TestPretrain:
    def test_reaches_truth_level_risk(self):
        rng = derive_rng(4, "pre")
        truth = make_ground_truth(20, 3, 30, 2, 1.0, rng)
        spec = isotropic_covariates(20)
        ds = make_dataset(truth, spec, 10_000, rng, "pretrain")
        result = pretrain(ds, 3, 1.0, 0.0, OptimConfig(max_iters=1500, grad_tol=1e-5))
        eta_true = (ds.x @ truth.rep.b) @ truth.pre_head.alpha
        truth_risk = float(cross_entropy_rows(eta_true, ds.y).mean())
        assert not result.trace.stalled
        assert result.trace.risk[-1] <= truth_risk * 1.05

    def test_trace_objective_monotone_and_constraints(self):
        rng = derive_rng(5, "pre")
        truth = make_ground_truth(8, 2, 10, 2, 2.0, rng)
        ds = make_dataset(truth, isotropic_covariates(8), 800, rng, "pretrain")
        lam = 0.3
        result = pretrain(ds, 2, 1.0, lam, OptimConfig(max_iters=400, grad_tol=1e-8))
        objective = np.array(result.trace.risk) - lam * np.array(result.trace.regularizer)
        assert np.all(np.diff(objective) <= 1e-10)
        norms = np.linalg.norm(result.head.alpha, axis=0)
        assert norms.max() <= result.head.column_cap * (1 + 1e-10)
        b = result.rep.b
        assert np.linalg.norm(b.T @ b - np.eye(2)) <= 1e-8

    def test_determinism(self):
        rng = derive_rng(7, "pre")
        truth = make_ground_truth(6, 2, 8, 2, 1.0, rng)
        ds = make_dataset(truth, isotropic_covariates(6), 300, rng, "pretrain")
        cfg = OptimConfig(max_iters=100, grad_tol=1e-9)
        a = pretrain(ds, 2, 1.0, 0.0, cfg)
        b = pretrain(ds, 2, 1.0, 0.0, cfg)
        np.testing.assert_array_equal(a.rep.b, b.rep.b)
        np.testing.assert_array_equal(a.head.alpha, b.head.alpha)
        assert a.trace.risk == b.trace.risk

    def test_regularizer_raises_diversity_median(self):
        deltas = []
        for seed in range(10):
            rng = derive_rng(seed, "div-data")
            truth = make_ground_truth(6, 2, 10, 2, 1.0, rng)
            ds = make_dataset(truth, isotropic_covariates(6), 600, rng, "pretrain")
            cfg = OptimConfig(max_iters=250, grad_tol=1e-6)
            plain = pretrain(ds, 2, 1.0, 0.0, cfg)
            reg = pretrain(ds, 2, 1.0, 0.5, cfg)
            deltas.append(
                diversity_parameter(reg.head) - diversity_parameter(plain.head)
            )
        assert float(np.median(deltas)) > 0

    def test_stage_one_stall_returns_current_iterate(self, one_strict_trial):
        # the objective has curvature along the joint step, so a sufficient-
        # decrease constant near 1 fails the one allowed trial (_MIN_STEP =
        # _STEP_INIT): the run must stop at its starting point and name the
        # joint line search
        rng = derive_rng(16, "stall")
        truth = make_ground_truth(6, 2, 8, 2, 1.0, rng)
        ds = make_dataset(truth, isotropic_covariates(6), 200, rng, "pretrain")
        result = pretrain(ds, 2, 1.0, 0.0, OptimConfig(max_iters=10))
        assert result.trace.stalled
        assert result.trace.stall_reason == "joint: line search hit minimum step without decrease"
        assert len(result.trace) == 1
        np.testing.assert_array_equal(result.head.alpha, np.zeros((2, 7)))
        np.testing.assert_array_equal(result.rep.b, erm._moment_frame(ds.x, ds.y, 2))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, -1.0])
    def test_lambda_must_be_finite_and_nonnegative(self, bad):
        rng = derive_rng(9, "pre")
        truth = make_ground_truth(6, 2, 5, 2, 1.0, rng)
        ds = make_dataset(truth, isotropic_covariates(6), 100, rng, "pretrain")
        with pytest.raises(ContractViolation, match="lambda must be a finite number >= 0"):
            pretrain(ds, 2, 1.0, bad, OptimConfig(max_iters=10))

    def test_lambda_needs_feasible_width(self):
        rng = derive_rng(9, "pre")
        truth = make_ground_truth(6, 4, 5, 2, 1.0, rng)
        ds = make_dataset(truth, isotropic_covariates(6), 100, rng, "pretrain")
        with pytest.raises(ContractViolation):
            pretrain(ds, 5, 1.0, 0.5, OptimConfig(max_iters=10))


class TestBarzilaiBorwein:
    """The BB1 initial step and the fits that start every line search from it."""

    @given(st.integers(0, 2**32 - 1), st.floats(1e-3, 1e3))
    @settings(max_examples=100, deadline=None)
    def test_inverse_curvature_on_quadratic(self, seed, curvature):
        # f(x) = curvature/2 |x|^2 has gradient curvature * x, so every
        # secant pair sees the one curvature
        rng = np.random.default_rng(seed)
        x0, x1 = rng.standard_normal((2, 3, 4))
        step = _bb_step(x1, curvature * x1, (x0, curvature * x0), 0.5)
        assert step == pytest.approx(1.0 / curvature, rel=1e-12)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=100, deadline=None)
    def test_rayleigh_quotient_on_general_quadratic(self, seed):
        # with gradient A x, the step is |S|^2 / <S, A S>
        rng = np.random.default_rng(seed)
        m = rng.standard_normal((6, 6))
        a = m @ m.T + 0.1 * np.eye(6)
        x0, x1 = rng.standard_normal((2, 6))
        s = x1 - x0
        step = _bb_step(x1, a @ x1, (x0, a @ x0), 0.5)
        expected = min(max((s @ s) / (s @ a @ s), erm._MIN_STEP), erm._STEP_MAX)
        assert step == pytest.approx(expected, rel=1e-10)

    def test_clipped_to_step_bounds(self):
        x0, x1 = np.zeros(3), np.ones(3)
        assert _bb_step(x1, 1e-9 * x1, (x0, 0 * x0), 0.5) == erm._STEP_MAX
        assert _bb_step(x1, 1e15 * x1, (x0, 0 * x0), 0.5) == erm._MIN_STEP

    def test_falls_back_without_positive_curvature(self):
        x0, x1 = np.zeros(3), np.ones(3)
        assert _bb_step(x1, x1, None, 0.25) == 0.25
        # concave along S: <S, Y> < 0
        assert _bb_step(x1, -x1, (x0, 0 * x0), 0.25) == 0.25
        # no move: <S, Y> = 0
        assert _bb_step(x1, x1, (x1, 2 * x1), 0.25) == 0.25

    @staticmethod
    def _reference_head_fit(z, targets, cap):
        """Projected gradient descent with the fixed step 1/L.

        L = lambda_max(z^T z / n) / 2 bounds the curvature, because the
        softmax covariance diag(p) - p p^T has eigenvalues at most 1/2.
        """
        n = z.shape[0]
        lip = 0.5 * np.linalg.eigvalsh(z.T @ z / n)[-1]
        alpha = np.zeros((z.shape[1], targets.shape[1]))
        for _ in range(200_000):
            eta = z @ alpha
            grad = z.T @ (softmax_full_rows(eta)[:, :-1] - targets) / n
            new = cap_columns(alpha - grad / lip, cap)
            if np.linalg.norm(new - alpha) * lip <= 1e-10:
                break
            alpha = new
        return float(cross_entropy_rows(z @ alpha, targets).mean())

    @given(
        st.integers(0, 2**32 - 1), st.integers(60, 200), st.integers(1, 4),
        st.integers(1, 4), st.floats(0.1, 3.0),
    )
    @settings(max_examples=40, deadline=None)
    def test_head_fit_matches_fixed_step_reference(self, seed, n, r, k_minus_1, cap):
        rng = np.random.default_rng(seed)
        z = rng.standard_normal((n, r))
        targets = mixed_targets(rng, n, k_minus_1)
        # 1e-7 is the head fits' default tolerance; far below it the
        # Armijo decrease drops under the rounding of the risk
        cfg = OptimConfig(max_iters=5000, grad_tol=1e-7)
        alpha, trace = fit_head_on_embeddings(z, targets, cap, cfg)
        assert trace.outcome == "converged"
        assert trace.grad_norm[-1] <= cfg.grad_tol
        assert np.linalg.norm(alpha, axis=0).max() <= cap * (1 + 1e-12)
        ref = self._reference_head_fit(z, targets, cap)
        assert abs(trace.risk[-1] - ref) <= 1e-9

    @pytest.mark.parametrize("lam", [0.0, 0.3])
    def test_pretrain_descends_and_logs_accepted_steps(self, lam, monkeypatch):
        # record, in order, each trace row and each step _backtrack accepts
        events = []
        backtrack, append = erm._backtrack, TrainTrace.append

        def spy_backtrack(*args):
            found = backtrack(*args)
            if isinstance(found, tuple):
                events.append(("step", found[0]))
            return found

        def spy_append(self, risk, reg, gnorm, step, nu):
            events.append(("row", step))
            append(self, risk, reg, gnorm, step, nu)

        monkeypatch.setattr(erm, "_backtrack", spy_backtrack)
        monkeypatch.setattr(TrainTrace, "append", spy_append)
        rng = derive_rng(17, "bb-pre")
        truth = make_ground_truth(8, 2, 10, 2, 2.0, rng)
        ds = make_dataset(truth, isotropic_covariates(8), 600, rng, "pretrain")
        result = pretrain(ds, 2, 1.0, lam, OptimConfig(max_iters=300, grad_tol=1e-6))
        trace = result.trace
        assert trace.outcome in ("converged", "max_iters")
        objective = np.array(trace.risk) - lam * np.array(trace.regularizer)
        assert np.all(np.diff(objective) <= 1e-12 * np.abs(objective[:-1]))
        # each row's step is the last step accepted before it, 0 on row 0
        last, logged = 0.0, []
        for what, value in events:
            if what == "row":
                logged.append(last)
            else:
                last = value
        assert trace.step == logged
        assert len(trace) > 1 and all(s > 0 for s in trace.step[1:])


class TestDownstreamFit:
    def test_single_class_data_beats_uniform(self):
        rng = derive_rng(10, "down")
        n, d, r, kp = 120, 6, 2, 3
        rep = SubspaceRep(orthonormalize(rng.standard_normal((d, r))))
        x = rng.standard_normal((n, d))
        y = np.zeros((n, kp - 1))
        y[:, 0] = 1.0  # every sample in class 1
        ds = LabeledDataset(x=x, y=y, k=kp)
        head, trace = fit_downstream_head(rep, ds, 5.0, OptimConfig(max_iters=500))
        assert trace.risk[-1] < math.log(kp)

    def test_constant_zero_embeddings_give_uniform_log_loss(self):
        # heads have no intercept: zero embeddings force uniform predictions,
        # which matches the class-marginal log-loss under a uniform truth
        rng = derive_rng(12, "down")
        kp, n = 3, 3000
        labels = rng.integers(0, kp, n)  # uniform marginal truth
        y = np.zeros((n, kp - 1))
        for i, lab in enumerate(labels):
            if lab < kp - 1:
                y[i, lab] = 1.0
        _, trace = fit_head_on_embeddings(np.zeros((n, 2)), y, 1.0, OptimConfig(max_iters=50))
        assert trace.risk[-1] == pytest.approx(math.log(kp), abs=1e-12)
        counts = np.concatenate([y.sum(axis=0), [n - y.sum()]])
        freqs = counts / n
        marginal_log_loss = float(-(freqs * np.log(freqs)).sum())
        assert trace.risk[-1] == pytest.approx(marginal_log_loss, abs=5.0 * kp / n)

    def test_risk_never_above_zero_head(self):
        rng = derive_rng(13, "down")
        truth = make_ground_truth(7, 2, 5, 2, 1.0, rng)
        ds = make_dataset(truth, isotropic_covariates(7), 300, rng, "downstream")
        head, trace = fit_downstream_head(truth.rep, ds, 1.0, OptimConfig(max_iters=200))
        assert trace.risk[-1] <= math.log(2.0) + 1e-12

    def test_stall_is_reported_not_raised(self, one_strict_trial):
        # a sufficient-decrease constant near 1 fails the one allowed trial
        # of the convex fit; the fit must report a stall, not raise
        rng = derive_rng(14, "down")
        z = rng.standard_normal((50, 2))
        y = np.zeros((50, 1))
        y[:25, 0] = 1.0
        alpha, trace = fit_head_on_embeddings(z, y, 1.0, OptimConfig(max_iters=10))
        assert trace.stalled
        assert "minimum step" in trace.stall_reason

    def test_empty_dataset_rejected(self):
        rep = SubspaceRep(orthonormalize(derive_rng(15, "down").standard_normal((3, 2))))
        with pytest.raises(ContractViolation):
            fit_downstream_head(
                rep, LabeledDataset(x=np.zeros((0, 3)), y=np.zeros((0, 1)), k=2),
                1.0, OptimConfig(),
            )

    def test_rounding_tie_ends_the_fit(self):
        # at grad_tol = 1e-9 the decrease a step promises falls under the
        # rounding of the risk before the tolerance is met; a search that
        # accepts those ties (zero moves, at the end) runs all 5000 iterations
        rng = np.random.default_rng(1316)
        z = rng.standard_normal((60, 3))
        targets = mixed_targets(rng, 60, 2)
        alpha, trace = fit_head_on_embeddings(z, targets, 2.0, OptimConfig(grad_tol=1e-9))
        assert trace.outcome == "stalled"
        assert "rounding" in trace.stall_reason
        assert len(trace) < 100
        assert trace.grad_norm[-1] < 1e-8
        ref = TestBarzilaiBorwein._reference_head_fit(z, targets, 2.0)
        assert abs(trace.risk[-1] - ref) <= 1e-14
        # the head fits' default tolerance is met on the same problem
        _, default = fit_head_on_embeddings(z, targets, 2.0, OptimConfig(grad_tol=1e-7))
        assert default.outcome == "converged"


def _capped_step(alpha, grad, cap):
    """Projected step map of a column-capped head: s -> (candidate, squared move)."""

    def step(s):
        cand = cap_columns(alpha - s * grad, cap)
        diff = cand - alpha
        return cand, float((diff * diff).sum())

    return step


def _retracted_step(b, grad):
    """Tangent-gradient norm of a frame and its QR-retracted step map:
    s -> (frame of B - s * riem, squared move), riem the tangent part of ``grad``."""
    btg = b.T @ grad
    riem = grad - b @ (0.5 * (btg + btg.T))

    def step(s):
        cand = orthonormalize(b - s * riem)
        diff = cand - b
        return cand, float((diff * diff).sum())

    return float(np.linalg.norm(riem)), step


def _parent_head_fit(z, targets, cap, cfg):
    """The head-fit loop as ``fit_head_on_embeddings`` ran it before it merged
    into ``erm._descend``: its own copy of the stage-one loop without a
    representation phase, labelling stalls "head fit"."""
    alpha = np.zeros((z.shape[1], targets.shape[1]))
    trace = TrainTrace()
    label_stat = _parent_label_stat(z, targets)
    risk, soft = _parent_head_risk(alpha, z, label_stat)
    s_cur = erm._STEP_INIT
    prev = None
    last_step = 0.0

    def objective(cand):
        return _parent_head_risk(cand, z, label_stat)

    for it in range(cfg.max_iters):
        grad = _parent_head_grad(z, soft, label_stat)
        pg = float(np.linalg.norm(alpha - cap_columns(alpha - grad, cap)))
        trace.append(risk, 0.0, pg, last_step, diversity_parameter(alpha))
        if pg <= cfg.grad_tol:
            trace.outcome = "converged"
            break
        found = erm._backtrack(
            objective, risk, _capped_step(alpha, grad, cap),
            _bb_step(alpha, grad, prev, s_cur),
        )
        if isinstance(found, str):
            trace.stall("head fit", found)
            break
        prev = (alpha, grad)
        last_step, s_cur, alpha, risk, soft = found
    else:
        trace.outcome = "max_iters"
    return alpha, trace


def _one_hot_targets(rng, n, k_minus_1):
    return np.eye(k_minus_1 + 1)[rng.integers(0, k_minus_1 + 1, n), :-1]


class TestHeadFitIsTheDescentLoop:
    """A head fit is the stage-one loop with the representation frozen, bit for bit."""

    @pytest.mark.parametrize("seed, n, r, targets, cap, cfg, outcome", [
        pytest.param(3, 120, 3, _one_hot_targets, 1.0, OptimConfig(grad_tol=1e-7),
                     "converged", id="one-hot"),
        pytest.param(4, 90, 2, mixed_targets, 1.5, OptimConfig(grad_tol=1e-7),
                     "converged", id="soft"),
        pytest.param(5, 100, 3, mixed_targets, 0.05, OptimConfig(grad_tol=1e-7),
                     "converged", id="saturating-cap"),
        pytest.param(6, 100, 3, mixed_targets, 1.0, OptimConfig(max_iters=3),
                     "max_iters", id="max-iters"),
        # the repro of test_rounding_tie_ends_the_fit
        pytest.param(1316, 60, 3, mixed_targets, 2.0, OptimConfig(grad_tol=1e-9),
                     "stalled", id="rounding-tie"),
        # fit_head_on_embeddings rejects a NaN embedding, so this case runs
        # the loop itself: the NaN gradient stalls the first line search,
        # where it must not idle through max_iters with every phase skipped
        pytest.param(7, 50, 3, mixed_targets, 1.0, OptimConfig(max_iters=300),
                     "stalled", id="nan-embedding"),
    ])
    def test_matches_the_separate_loop(self, seed, n, r, targets, cap, cfg, outcome, request):
        rng = np.random.default_rng(seed)
        z = rng.standard_normal((n, r))
        t = targets(rng, n, 2)
        if request.node.callspec.id == "nan-embedding":
            z[4, 1] = np.nan
            _, alpha, trace = erm._descend(z, t, cap, 0.0, cfg)
        else:
            alpha, trace = fit_head_on_embeddings(z, t, cap, cfg)
        ref_alpha, ref = _parent_head_fit(z, t, cap, cfg)
        assert trace.outcome == ref.outcome == outcome
        assert alpha.tobytes() == ref_alpha.tobytes()
        assert len(trace) == len(ref)
        for series in ("risk", "regularizer", "grad_norm", "step", "nu_tilde"):
            got, want = np.array(getattr(trace, series)), np.array(getattr(ref, series))
            assert got.tobytes() == want.tobytes(), series
        if outcome == "stalled":
            assert trace.stall_reason.startswith("head: ")
            assert ref.stall_reason.startswith("head fit: ")
            assert trace.stall_reason.split(": ", 1)[1] == ref.stall_reason.split(": ", 1)[1]
        else:
            assert trace.stall_reason == ref.stall_reason == ""

    @pytest.mark.parametrize("block", ["embeddings", "targets"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_input_rejected(self, block, bad):
        rng = np.random.default_rng(7)
        blocks = {"embeddings": rng.standard_normal((50, 3)),
                  "targets": mixed_targets(rng, 50, 2)}
        blocks[block][4, 1] = bad
        with pytest.raises(ContractViolation, match=block):
            fit_head_on_embeddings(blocks["embeddings"], blocks["targets"], 1.0, OptimConfig())


def _alternating_stage_one(x, y, cap, lambda_div, cfg, b):
    """Stage one as it ran before the joint step: each iteration a head line
    search (regularizer included), then a representation line search at the
    fresh head, each from its own block's BB1 step. Starts from the frame
    ``b``; returns ``(rep, alpha, objective)``."""
    mu = erm._RIDGE_MU
    xt = np.ascontiguousarray(x.T)
    terms = xt @ y / xt.shape[1]

    def reg_value(a):
        return 0.0 if lambda_div == 0.0 else logdet_regularizer(a, mu)[0]

    def embed(frame):
        return frame.T @ xt, frame.T @ terms

    def frame_grad(a, soft_a):
        expo, denom = soft_a
        return xt @ ((a @ expo) / denom).T / xt.shape[1] - terms @ a.T

    def head_objective(cand):
        risk_c, soft_c = _head_risk(cand, zt, label_stat)
        reg_c = reg_value(cand)
        return risk_c - lambda_div * reg_c, (risk_c, soft_c, reg_c)

    def rep_objective(cand):
        zt_c, stat_c = emb_c = embed(cand)
        risk_c, soft_c = _head_risk(alpha, zt_c, stat_c)
        return risk_c, (emb_c, soft_c)

    zt, label_stat = embed(b)
    alpha = np.zeros((zt.shape[0], y.shape[1]))
    risk, soft = _head_risk(alpha, zt, label_stat)
    reg = reg_value(alpha)
    s_head = s_rep = erm._STEP_INIT
    prev_head = prev_rep = None
    floor = 0.5 * cfg.grad_tol
    for _ in range(cfg.max_iters):
        grad_alpha = _head_grad(zt, soft, label_stat)
        if lambda_div > 0.0:
            grad_alpha = grad_alpha - lambda_div * erm._logdet_grad(alpha, mu)
        pg_head = float(np.linalg.norm(alpha - cap_columns(alpha - grad_alpha, cap)))
        pg_rep = _retracted_step(b, frame_grad(alpha, soft))[0]
        if np.hypot(pg_head, pg_rep) <= cfg.grad_tol:
            break
        if not pg_head <= floor:
            found = erm._backtrack(head_objective, risk - lambda_div * reg,
                                   _capped_step(alpha, grad_alpha, cap),
                                   _bb_step(alpha, grad_alpha, prev_head, s_head))
            assert not isinstance(found, str), found
            prev_head = (alpha, grad_alpha)
            _, s_head, alpha, _, (risk, soft, reg) = found
        rep_grad = frame_grad(alpha, soft)
        move, rep_step = _retracted_step(b, rep_grad)
        if move > floor:
            found = erm._backtrack(rep_objective, risk, rep_step,
                                   _bb_step(b, rep_grad, prev_rep, s_rep))
            assert not isinstance(found, str), found
            prev_rep = (b, rep_grad)
            _, s_rep, b, risk, ((zt, label_stat), soft) = found
    else:
        raise AssertionError("the alternating reference did not converge")
    return SubspaceRep(b), alpha, risk - lambda_div * reg


def _joint_instance(seed):
    """A small stage-one problem (d=6, K=6, n=400) and its config; fit at r=2, cap 1."""
    rng = derive_rng(seed, "joint-vs-alternating")
    truth = make_ground_truth(6, 2, 6, 2, 2.0, rng)
    ds = make_dataset(truth, isotropic_covariates(6), 400, rng, "pretrain")
    return ds, OptimConfig(max_iters=3000, grad_tol=1e-7)


class TestJointStepAgainstAlternation:
    """Stage one's joint step against the alternating loop it replaced."""

    @pytest.mark.parametrize("lam", [0.0, 0.5])
    @pytest.mark.parametrize("seed", range(12))
    def test_reaches_the_alternating_optimum(self, lam, seed):
        # both loops start from the same frame and stop at grad_tol 1e-7,
        # where the objective is within ~1e-13 of its stationary value; on
        # seeds 0-29 they stopped at the same point at both lambdas (the
        # objective not convex in the head at lambda > 0), |difference| at
        # most 2e-13 and frames at most 7e-6 rad apart
        ds, cfg = _joint_instance(seed)
        result = pretrain(ds, 2, 1.0, lam, cfg)
        trace = result.trace
        assert trace.outcome == "converged"
        joint = trace.risk[-1] - lam * trace.regularizer[-1]
        start = erm._moment_frame(ds.x, ds.y, 2)
        rep, _, ref = _alternating_stage_one(ds.x, ds.y, 1.0, lam, cfg, start)
        assert abs(joint - ref) <= 1e-10
        assert principal_angles(result.rep, rep)[-1] <= 1e-4

    @pytest.mark.parametrize("lam", [0.0, 0.5])
    @pytest.mark.parametrize("seed", [0, 3])
    def test_every_accepted_step_meets_its_armijo_decrease(self, lam, seed, monkeypatch):
        # the decrease is recomputed here from each block's own move and
        # step: |d alpha|^2 / s for the head, |d B|^2 / (s * ratio) for the
        # frame; a sufficient-decrease constant of 0.5 makes the test bind,
        # where 1e-4 would pass almost any descent step
        monkeypatch.setattr(erm, "_ARMIJO_C", 0.5)
        searches, bb_steps = [], []
        backtrack, bb_step = erm._backtrack, erm._bb_step

        def spy_bb_step(*args):
            bb_steps.append(bb_step(*args))
            return bb_steps[-1]

        def spy_backtrack(objective, current, direction_step, step0):
            found = backtrack(objective, current, direction_step, step0)
            # stage one asks for the head's step first, then the frame's
            head_step, frame_step = bb_steps[-2:]
            assert step0 == head_step
            searches.append({"ratio": frame_step / head_step, "current": current,
                             "found": found})
            return found

        monkeypatch.setattr(erm, "_bb_step", spy_bb_step)
        monkeypatch.setattr(erm, "_backtrack", spy_backtrack)
        ds, cfg = _joint_instance(seed)
        result = pretrain(ds, 2, 1.0, lam, cfg)
        trace = result.trace
        assert trace.outcome == "converged"
        assert len(searches) == len(trace) - 1
        assert len(bb_steps) == 2 * len(searches)
        alpha = np.zeros((2, 5))
        b = erm._moment_frame(ds.x, ds.y, 2)
        for search, logged in zip(searches, trace.step[1:]):
            s, _, (new_alpha, new_b), value, _ = search["found"]
            assert s == logged
            decrease = erm._ARMIJO_C * (
                float(np.sum((new_alpha - alpha) ** 2)) / s
                + float(np.sum((new_b - b) ** 2)) / (s * search["ratio"])
            )
            current = search["current"]
            assert value <= current - decrease + 4 * np.spacing(abs(current))
            alpha, b = new_alpha, new_b
        np.testing.assert_array_equal(alpha, result.head.alpha)
        np.testing.assert_array_equal(b, result.rep.b)


@pytest.mark.parametrize("fit", ["pretrain", "head"])
def test_evaluations_count_every_objective_evaluation(fit, monkeypatch):
    # each objective evaluation is one pass of the loss kernel
    calls = []

    def counting_risk(*args):
        calls.append(1)
        return _head_risk(*args)

    monkeypatch.setattr(erm, "_head_risk", counting_risk)
    ds, cfg = _joint_instance(1)
    if fit == "pretrain":
        trace = pretrain(ds, 2, 1.0, 0.5, cfg).trace
    else:
        _, trace = fit_head_on_embeddings(ds.x, ds.y, 1.0, OptimConfig(grad_tol=1e-7))
    assert trace.evaluations == len(calls) >= len(trace)


class TestMomentFrame:
    """Stage one's start: the top left singular vectors of S = x^T y / n."""

    @pytest.mark.parametrize("seed", range(3))
    def test_angle_to_the_truth_shrinks_with_n(self, seed):
        # Stein's lemma puts S's column space in the truth's span, up to
        # 1/sqrt(n) noise; each n is 8x the last (the angle about 2.8x less)
        rng = derive_rng(seed, "start-rate")
        truth = make_ground_truth(10, 2, 6, 2, 1.0, rng)
        angles = []
        for n in (500, 4000, 32000):
            ds = make_dataset(truth, isotropic_covariates(10), n, rng, "pretrain")
            start = SubspaceRep(erm._moment_frame(ds.x, ds.y, 2))
            angles.append(principal_angles(start, truth.rep)[-1])
        assert angles[0] > angles[1] > angles[2]
        assert angles[2] < angles[0] / 4

    @pytest.mark.parametrize("flip", range(5))
    @pytest.mark.parametrize("r", [1, 4])
    def test_invariant_to_the_singular_vectors_signs(self, r, flip, monkeypatch):
        # LAPACK may return any pair (u_i, v_i) as (-u_i, -v_i); S has five
        ds, _ = _joint_instance(2)
        ref = erm._moment_frame(ds.x, ds.y, r)
        svd = np.linalg.svd

        def flipped_svd(a, *args, **kwargs):
            u, sv, vt = svd(a, *args, **kwargs)
            signs = np.where(np.arange(sv.size) == flip, -1.0, 1.0)
            return u * signs, sv, vt * signs[:, None]

        monkeypatch.setattr(np.linalg, "svd", flipped_svd)
        np.testing.assert_array_equal(erm._moment_frame(ds.x, ds.y, r), ref)

    def test_completes_past_the_rank_of_missing_classes(self, monkeypatch):
        # only classes 1, 2 and K are in the sample, so S has rank 2; r = 4
        # takes two columns from the coordinate axes, whatever basis LAPACK
        # returns for S's null space
        ds, cfg = _joint_instance(3)  # d = 6, K = 6
        keep = ds.y[:, 2:].sum(axis=1) == 0
        ds = LabeledDataset(ds.x[keep], ds.y[keep], ds.k)
        s = ds.x.T @ ds.y / ds.n
        assert np.linalg.matrix_rank(s) == 2
        frame = erm._moment_frame(ds.x, ds.y, 4)
        np.testing.assert_allclose(frame.T @ frame, np.eye(4), atol=1e-12)
        lead = np.linalg.svd(s)[0][:, :2]
        np.testing.assert_allclose(lead @ lead.T @ frame[:, :2], frame[:, :2], atol=1e-12)
        svd = np.linalg.svd

        def rotated_null_space(a, *args, **kwargs):
            u, sv, vt = svd(a, *args, **kwargs)
            mix = np.linalg.qr(derive_rng(0, "null-mix").standard_normal((3, 3)))[0]
            return np.column_stack([u[:, :2], u[:, 2:] @ mix]), sv, vt

        monkeypatch.setattr(np.linalg, "svd", rotated_null_space)
        np.testing.assert_array_equal(erm._moment_frame(ds.x, ds.y, 4), frame)
        monkeypatch.undo()
        result = pretrain(ds, 4, 1.0, 0.0, cfg)
        assert not result.trace.stalled
        np.testing.assert_array_equal(pretrain(ds, 4, 1.0, 0.0, cfg).rep.b, result.rep.b)

    @pytest.mark.parametrize("lam", [0.0, 0.5])
    def test_pretrain_is_the_loop_from_the_start(self, lam):
        ds, cfg = _joint_instance(4)
        result = pretrain(ds, 2, 1.0, lam, cfg)
        b, alpha, trace = erm._descend(ds.x, ds.y, 1.0, lam, cfg,
                                       erm._moment_frame(ds.x, ds.y, 2))
        np.testing.assert_array_equal(result.rep.b, b)
        np.testing.assert_array_equal(result.head.alpha, alpha)
        assert result.trace == trace


class TestFailFast:
    """A head cap that is not a finite number > 0, or an embedding dimension
    outside 1..d, is rejected before any objective evaluation."""

    BAD_CAPS = [0.0, -1.0, np.nan, np.inf]

    @pytest.fixture()
    def no_work(self, monkeypatch):
        def fail(*args):
            raise AssertionError("the fit evaluated its objective")

        monkeypatch.setattr(erm, "_head_risk", fail)

    @pytest.mark.parametrize("cap", BAD_CAPS)
    def test_head_fit_rejects_cap(self, cap, no_work):
        rng = np.random.default_rng(7)
        z, targets = rng.standard_normal((50, 3)), mixed_targets(rng, 50, 2)
        with pytest.raises(ContractViolation, match="cap must be a finite number > 0"):
            fit_head_on_embeddings(z, targets, cap, OptimConfig())

    @pytest.mark.parametrize("cap", BAD_CAPS)
    def test_pretrain_rejects_cap(self, cap, no_work):
        ds, cfg = _joint_instance(0)
        with pytest.raises(ContractViolation, match="cap must be a finite number > 0"):
            pretrain(ds, 2, cap, 0.0, cfg)

    @pytest.mark.parametrize("r", [0, -1, 7, 2.5, True])
    def test_pretrain_rejects_embed_dim_outside_one_to_d(self, r, no_work):
        ds, cfg = _joint_instance(0)  # d = 6
        with pytest.raises(ContractViolation, match="1..d = 6"):
            pretrain(ds, r, 1.0, 0.0, cfg)


class TestBaseline:
    def test_fresh_data_excess_ordering(self):
        # same data through the baseline and the true-rep pipeline: the
        # full-dimensional fit carries more estimation error off-sample
        from transferlab.diagnostics import measure_excess_risks

        rng = derive_rng(20, "base")
        truth = make_ground_truth(12, 2, 8, 2, 1.0, rng)
        spec = isotropic_covariates(12)
        wins = 0
        for seed in range(5):
            data_rng = derive_rng(seed, "base-data")
            ds = make_dataset(truth, spec, 150, data_rng, "downstream")
            cfg = OptimConfig(max_iters=1200, grad_tol=1e-7)
            pipe_head, _ = fit_downstream_head(truth.rep, ds, 1.0, cfg)
            base_head, _ = train_baseline(ds, 1.0, cfg)
            report = measure_excess_risks(
                truth, sample_covariates(spec, 20_000, derive_rng(seed, "base-mc")), 20_000,
                rep_hat=truth.rep, down_head_hat=pipe_head, baseline_head=base_head,
            )
            wins += report.excess_transfer_risk < report.baseline_excess_risk
        assert wins >= 4

    def test_empty_dataset_rejected(self):
        with pytest.raises(ContractViolation):
            train_baseline(
                LabeledDataset(x=np.zeros((0, 3)), y=np.zeros((0, 1)), k=2),
                1.0,
                OptimConfig(),
            )

