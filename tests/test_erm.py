"""Two-stage training: objective descent, constraints, and closed forms."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from transferlab.errors import ContractViolation, SingularMatrixError
from transferlab.linalg import orthonormalize
from transferlab.model_space import LinearHead, MlpRep, SubspaceRep, diversity_parameter
from transferlab.rngutil import derive_rng
from transferlab.softmax import cross_entropy_rows, softmax_full_rows, softmax_prob
from transferlab.synthetic import (
    LabeledDataset,
    isotropic_covariates,
    make_dataset,
    make_ground_truth,
)
from transferlab.erm import (
    _forward,
    _head_risk,
    _label_stat,
    _rep_grad,
    HypothesisConfig,
    OptimConfig,
    fit_downstream_head,
    fit_head_on_embeddings,
    logdet_regularizer,
    loss_and_grad,
    pretrain,
    train_baseline,
)


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
        delta = softmax_prob(z @ alpha)[:-1] - y[0]
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
        risk, probs = _head_risk(alpha, eta, _label_stat(eta, t))
        ref = float(cross_entropy_rows(eta, t).mean())
        # the risk is a difference of terms as large as max |eta|
        assert abs(risk - ref) <= 1e-12 * max(abs(ref), scale, 1.0)
        assert probs.shape == (k_minus_1, n)
        np.testing.assert_allclose(
            probs.T, softmax_full_rows(eta)[:, :-1], rtol=1e-12, atol=1e-300
        )

    @pytest.mark.parametrize("kind", ["subspace", "mlp"])
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 30))
    @settings(max_examples=50, deadline=None)
    def test_loss_and_grad_matches_reference(self, kind, seed, n):
        rng = np.random.default_rng(seed)
        d, r, k_minus_1 = 5, 2, 4
        if kind == "subspace":
            rep = SubspaceRep(orthonormalize(rng.standard_normal((d, r))))
            params = rep.b
        else:
            rep = MlpRep((rng.standard_normal((6, d)), rng.standard_normal((r, 6))),
                         (100.0, 100.0))
            params = list(rep.weights)
        head = LinearHead(rng.standard_normal((r, k_minus_1)) * 2.0, 100.0)
        x = rng.standard_normal((n, d))
        y = mixed_targets(rng, n, k_minus_1)
        risk, g_alpha, g_rep = loss_and_grad(rep, head, x, y)

        z, acts = _forward(kind, params, x)
        eta = z @ head.alpha
        delta = softmax_full_rows(eta)[:, :-1] - y
        ref_risk = float(cross_entropy_rows(eta, y).mean())
        ref_alpha = z.T @ delta / n
        ref_rep = _rep_grad(kind, params, x, acts, delta @ head.alpha.T)

        def close(a, b):
            return np.linalg.norm(a - b) <= 1e-12 * max(np.linalg.norm(b), 1.0)

        assert abs(risk - ref_risk) <= 1e-12 * max(abs(ref_risk), 1.0)
        assert close(g_alpha, ref_alpha)
        if kind == "subspace":
            assert close(g_rep, ref_rep)
        else:
            assert all(close(a, b) for a, b in zip(g_rep, ref_rep))


class TestPretrain:
    def test_reaches_truth_level_risk(self):
        rng = derive_rng(4, "pre")
        truth = make_ground_truth(20, 3, 30, 2, 1.0, rng)
        spec = isotropic_covariates(20)
        ds = make_dataset(truth, spec, 10_000, rng, "pretrain")
        result = pretrain(
            ds, HypothesisConfig(embed_dim=3), 0.0,
            OptimConfig(max_iters=1500, grad_tol=1e-5), derive_rng(4, "init"),
        )
        eta_true = (ds.x @ truth.rep.b) @ truth.pre_head.alpha
        truth_risk = float(cross_entropy_rows(eta_true, ds.y).mean())
        assert not result.trace.stalled
        assert result.trace.risk[-1] <= truth_risk * 1.05

    def test_trace_objective_monotone_and_constraints(self):
        rng = derive_rng(5, "pre")
        truth = make_ground_truth(8, 2, 10, 2, 2.0, rng)
        ds = make_dataset(truth, isotropic_covariates(8), 800, rng, "pretrain")
        lam = 0.3
        result = pretrain(
            ds, HypothesisConfig(embed_dim=2), lam,
            OptimConfig(max_iters=400, grad_tol=1e-8), derive_rng(5, "init"),
        )
        objective = np.array(result.trace.risk) - lam * np.array(result.trace.regularizer)
        assert np.all(np.diff(objective) <= 1e-10)
        norms = np.linalg.norm(result.head.alpha, axis=0)
        assert norms.max() <= result.head.column_cap * (1 + 1e-10)
        b = result.rep.b
        assert np.linalg.norm(b.T @ b - np.eye(2)) <= 1e-8

    def test_zero_iteration_budget(self):
        rng = derive_rng(6, "pre")
        truth = make_ground_truth(5, 2, 6, 2, 1.0, rng)
        ds = make_dataset(truth, isotropic_covariates(5), 100, rng, "pretrain")
        result = pretrain(
            ds, HypothesisConfig(embed_dim=2), 0.0,
            OptimConfig(max_iters=0), derive_rng(6, "init"),
        )
        assert len(result.trace) == 0
        np.testing.assert_array_equal(result.head.alpha, np.zeros((2, 5)))

    def test_determinism(self):
        rng = derive_rng(7, "pre")
        truth = make_ground_truth(6, 2, 8, 2, 1.0, rng)
        ds = make_dataset(truth, isotropic_covariates(6), 300, rng, "pretrain")
        cfg = OptimConfig(max_iters=100, grad_tol=1e-9)
        a = pretrain(ds, HypothesisConfig(embed_dim=2), 0.0, cfg, derive_rng(7, "i"))
        b = pretrain(ds, HypothesisConfig(embed_dim=2), 0.0, cfg, derive_rng(7, "i"))
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
            hyp = HypothesisConfig(embed_dim=2)
            plain = pretrain(ds, hyp, 0.0, cfg, derive_rng(seed, "init"))
            reg = pretrain(ds, hyp, 0.5, cfg, derive_rng(seed, "init"))
            deltas.append(
                diversity_parameter(reg.head) - diversity_parameter(plain.head)
            )
        assert float(np.median(deltas)) > 0

    def test_mlp_hypothesis_trains(self):
        rng = derive_rng(8, "mlp")
        truth = make_ground_truth(6, 2, 8, 2, 1.0, rng)
        ds = make_dataset(truth, isotropic_covariates(6), 500, rng, "pretrain")
        hyp = HypothesisConfig(
            kind="mlp", embed_dim=2, head_cap=1.0,
            mlp_widths=(8,), mlp_caps=(4.0, 4.0),
        )
        result = pretrain(
            ds, hyp, 0.0, OptimConfig(max_iters=150, grad_tol=1e-6),
            derive_rng(8, "init"),
        )
        assert isinstance(result.rep, MlpRep)
        assert result.trace.risk[-1] < result.trace.risk[0]
        assert not result.trace.stalled

    def test_lambda_needs_feasible_width(self):
        rng = derive_rng(9, "pre")
        truth = make_ground_truth(6, 4, 5, 2, 1.0, rng)
        ds = make_dataset(truth, isotropic_covariates(6), 100, rng, "pretrain")
        with pytest.raises(ContractViolation):
            pretrain(
                ds, HypothesisConfig(embed_dim=5), 0.5,
                OptimConfig(max_iters=10), derive_rng(9, "init"),
            )


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

    def test_convex_fit_reproducible_across_inits(self):
        rng = derive_rng(11, "down")
        truth = make_ground_truth(8, 3, 6, 3, 1.0, rng)
        ds = make_dataset(truth, isotropic_covariates(8), 400, rng, "downstream")
        cfg = OptimConfig(max_iters=3000, grad_tol=1e-8)
        h0, t0 = fit_downstream_head(truth.rep, ds, 1.0, cfg)
        init = derive_rng(11, "alt-init").standard_normal((3, 2)) * 0.5
        h1, t1 = fit_downstream_head(truth.rep, ds, 1.0, cfg, alpha0=init)
        assert t0.risk[-1] == pytest.approx(t1.risk[-1], abs=1e-4)

    def test_constant_zero_embeddings_give_uniform_log_loss(self):
        # heads have no intercept: zero embeddings force uniform predictions,
        # which matches the class-marginal log-loss under a uniform truth
        rng = derive_rng(12, "down")
        kp, n = 3, 3000
        mlp = MlpRep((np.zeros((2, 5)), np.zeros((2, 2))), (1.0, 1.0))
        x = rng.standard_normal((n, 5))
        labels = rng.integers(0, kp, n)  # uniform marginal truth
        y = np.zeros((n, kp - 1))
        for i, lab in enumerate(labels):
            if lab < kp - 1:
                y[i, lab] = 1.0
        ds = LabeledDataset(x=x, y=y, k=kp)
        head, trace = fit_downstream_head(mlp, ds, 1.0, OptimConfig(max_iters=50))
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

    def test_stall_is_reported_not_raised(self):
        # an unsatisfiable sufficient-decrease constant exhausts the line
        # search immediately; the fit must report a stall, not raise
        rng = derive_rng(14, "down")
        z = rng.standard_normal((50, 2))
        y = np.zeros((50, 1))
        y[:25, 0] = 1.0
        cfg = OptimConfig(max_iters=10, step_init=1.0, min_step=1.0, armijo_c=1e12)
        alpha, trace = fit_head_on_embeddings(z, y, 1.0, cfg)
        assert trace.stalled
        assert "minimum step" in trace.stall_reason


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
                truth.rep, None, pipe_head, truth, spec, 20_000,
                derive_rng(seed, "base-mc"), baseline_head=base_head,
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


class TestTrace:
    def test_csv_schema(self, tmp_path):
        rng = derive_rng(15, "trace")
        truth = make_ground_truth(5, 2, 6, 2, 1.0, rng)
        ds = make_dataset(truth, isotropic_covariates(5), 150, rng, "pretrain")
        result = pretrain(
            ds, HypothesisConfig(embed_dim=2), 0.0,
            OptimConfig(max_iters=25), derive_rng(15, "i"),
        )
        path = tmp_path / "trace.csv"
        result.trace.to_csv(path)
        lines = path.read_text().splitlines()
        assert lines[0] == "iter,risk,regularizer,grad_norm,step,nu_tilde"
        assert len(lines) == len(result.trace) + 1
        first = lines[1].split(",")
        assert int(first[0]) == 0
        assert float(first[1]) == pytest.approx(math.log(6.0))
