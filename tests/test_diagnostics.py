"""Diagnostics: diversity, complexities, risk estimators, and rate formulas."""

import math

import numpy as np
import pytest

from transferlab.errors import ContractViolation
from transferlab.linalg import orthonormalize
from transferlab.model_space import LinearHead, SubspaceRep, diversity_parameter
from transferlab.rngutil import derive_rng
from transferlab.softmax import cross_entropy_rows
from transferlab.synthetic import (
    GroundTruth,
    isotropic_covariates,
    make_ground_truth,
    sample_covariates,
    sample_labels,
)
from transferlab.erm import OptimConfig
from transferlab.diagnostics import (
    BoundParams,
    chain_rule_check,
    empirical_gaussian_complexity_linear,
    evaluate_risk_bound,
    mc_complexity_finite,
    measure_excess_risks,
    representation_difference,
    schur_complement_bound,
    worst_case_complexity_linear,
)

FIT_CFG = OptimConfig(max_iters=2000, grad_tol=1e-7)


class TestDiversityParameter:
    def test_orthonormal_rows(self):
        alpha = np.hstack([np.eye(3), np.zeros((3, 2))])
        assert diversity_parameter(alpha) == pytest.approx(1.0, abs=1e-12)

    def test_diagonal_least(self):
        alpha = np.array([[1.0, 0.0, 0.0], [0.0, 2.0, 0.0]])
        assert diversity_parameter(alpha) == pytest.approx(1.0, abs=1e-12)

    def test_rayleigh_sampling_oracle(self):
        rng = derive_rng(0, "nu")
        alpha = rng.standard_normal((3, 8))
        nu = diversity_parameter(alpha)
        gram = alpha @ alpha.T
        u = rng.standard_normal((10_000, 3))
        u /= np.linalg.norm(u, axis=1, keepdims=True)
        sampled_min = float(np.einsum("ij,jk,ik->i", u, gram, u).min())
        assert nu <= sampled_min + 1e-12
        assert sampled_min <= nu * 1.02

    def test_right_rotation_invariance(self):
        rng = derive_rng(1, "nu")
        alpha = rng.standard_normal((3, 6))
        q = orthonormalize(rng.standard_normal((6, 6)))
        assert diversity_parameter(alpha @ q) == pytest.approx(
            diversity_parameter(alpha), abs=1e-9
        )


class TestEmpiricalComplexityLinear:
    def test_zero_embeddings(self):
        est = empirical_gaussian_complexity_linear(
            np.zeros((10, 3)), 1.0, 5, 200, derive_rng(2, "g")
        )
        assert est.value == 0.0

    def test_scalar_closed_form(self):
        # n=1, one class column: E |g| ||z|| = sqrt(2/pi) ||z||
        z = np.array([[0.6, -0.8]])  # norm 1
        est = empirical_gaussian_complexity_linear(z, 1.0, 2, 10_000, derive_rng(3, "g"))
        expected = math.sqrt(2.0 / math.pi)
        assert abs(est.value - expected) <= 3.0 * est.std_error

    def test_cap_homogeneity_same_draws(self):
        rng_a = derive_rng(4, "g")
        rng_b = derive_rng(4, "g")
        z = derive_rng(5, "z").standard_normal((20, 3))
        one = empirical_gaussian_complexity_linear(z, 1.0, 4, 500, rng_a)
        two = empirical_gaussian_complexity_linear(z, 2.0, 4, 500, rng_b)
        assert two.value == pytest.approx(2.0 * one.value, rel=1e-12)

    def test_worst_case_reduction(self):
        est = worst_case_complexity_linear(0.5, 4, 2.0, 25)
        assert est.value == pytest.approx(0.5 * 3 * 2.0 / 5.0)
        assert est.scope == "worst-case"


class TestMcComplexityFinite:
    def test_zero_candidate(self):
        est = mc_complexity_finite([np.zeros((6, 2))], 100, "gaussian", derive_rng(6, "m"))
        assert est.value == 0.0

    def test_folded_normal_oracle(self):
        z = 1.7
        outs = [np.array([[z]]), np.array([[-z]])]
        est = mc_complexity_finite(outs, 10_000, "gaussian", derive_rng(7, "m"))
        expected = math.sqrt(2.0 / math.pi) * z
        assert abs(est.value - expected) <= 3.0 * est.std_error

    def test_rademacher_two_point_exact(self):
        z = 0.9
        outs = [np.array([[z]]), np.array([[-z]])]
        est = mc_complexity_finite(outs, 500, "rademacher", derive_rng(8, "m"))
        assert est.value == pytest.approx(z, abs=1e-12)  # sup = |eps z| = z always
        assert est.kind == "rademacher"

    def test_superset_monotone_same_draws(self):
        rng = derive_rng(9, "m")
        cands = [rng.standard_normal((8, 2)) for _ in range(4)]
        small = mc_complexity_finite(cands[:2], 400, "gaussian", derive_rng(10, "m"))
        large = mc_complexity_finite(cands, 400, "gaussian", derive_rng(10, "m"))
        assert large.value >= small.value - 1e-12

    def test_empty_rejected(self):
        with pytest.raises(ContractViolation):
            mc_complexity_finite([], 10, "gaussian", derive_rng(11, "m"))


def _perturbed_rep(truth, scale, rng):
    return SubspaceRep(
        orthonormalize(truth.rep.b + scale * rng.standard_normal(truth.rep.b.shape))
    )


def naive_excess_risk(rep_hat, head_hat, truth, spec, n_mc, rng):
    """Sampled-label oracle: mean downstream loss gap on fresh labeled data."""
    x = sample_covariates(spec, n_mc, rng)
    y = sample_labels(truth.rep, truth.down_head, x, rng)
    gaps = cross_entropy_rows(rep_hat.apply(x) @ head_hat.alpha, y) - cross_entropy_rows(
        truth.rep.apply(x) @ truth.down_head.alpha, y
    )
    return float(gaps.mean()), float(gaps.std(ddof=1) / np.sqrt(n_mc))


class TestTransferRisk:
    def test_truth_has_zero_excess(self):
        rng = derive_rng(12, "risk")
        truth = make_ground_truth(6, 2, 8, 2, 1.0, rng)
        spec = isotropic_covariates(6)
        report = measure_excess_risks(
            truth.rep, None, truth.down_head, truth, spec, 2000, rng
        )
        assert report.excess_transfer_risk == 0.0
        assert report.std_error == 0.0

    def test_zero_heads_agree(self):
        rng = derive_rng(13, "risk")
        base = make_ground_truth(6, 2, 8, 2, 1.0, rng)
        zero = LinearHead(np.zeros((2, 1)), 1.0)
        truth = GroundTruth(rep=base.rep, pre_head=base.pre_head, down_head=zero)
        other_rep = _perturbed_rep(base, 0.5, rng)
        report = measure_excess_risks(
            other_rep, None, zero, truth, isotropic_covariates(6), 1000, rng
        )
        assert report.excess_transfer_risk == 0.0

    def test_agrees_with_naive_sampled_estimator(self):
        rng = derive_rng(14, "risk")
        truth = make_ground_truth(8, 3, 10, 3, 2.0, rng)
        spec = isotropic_covariates(8)
        rep_hat = _perturbed_rep(truth, 0.3, rng)
        head_hat = LinearHead(truth.down_head.alpha * 0.8, truth.down_head.column_cap)
        kl_report = measure_excess_risks(
            rep_hat, None, head_hat, truth, spec, 50_000, derive_rng(15, "a")
        )
        naive, naive_se = naive_excess_risk(
            rep_hat, head_hat, truth, spec, 200_000, derive_rng(15, "b")
        )
        combined = math.hypot(kl_report.std_error, naive_se)
        assert abs(kl_report.excess_transfer_risk - naive) <= 3.0 * combined

    def test_pretrain_task_variant(self):
        rng = derive_rng(16, "risk")
        truth = make_ground_truth(6, 2, 9, 2, 1.0, rng)
        spec = isotropic_covariates(6)
        report = measure_excess_risks(
            truth.rep, truth.pre_head, truth.down_head, truth, spec, 500, rng
        )
        assert report.excess_pretrain_risk == 0.0
        assert report.pretrain_std_error == 0.0
        # without a pre-training head only the downstream stage is measured
        report = measure_excess_risks(
            truth.rep, None, truth.down_head, truth, spec, 500, rng
        )
        assert math.isnan(report.excess_pretrain_risk)
        assert math.isnan(report.baseline_excess_risk)

    def test_baseline_is_identity_representation_risk(self):
        # a baseline head acts on raw covariates: its risk is the downstream
        # risk of the identity representation with that head, same draw
        rng = derive_rng(35, "risk")
        truth = make_ground_truth(6, 2, 8, 3, 1.0, rng)
        spec = isotropic_covariates(6)
        base_head = LinearHead(rng.standard_normal((6, 2)) * 0.1, 1.0)
        report = measure_excess_risks(
            truth.rep, truth.pre_head, truth.down_head, truth, spec, 3000,
            derive_rng(36, "mc"), baseline_head=base_head,
        )
        identity = measure_excess_risks(
            SubspaceRep(np.eye(6)), None, base_head, truth, spec, 3000,
            derive_rng(36, "mc"),
        )
        assert report.baseline_excess_risk > 0.0
        assert report.baseline_excess_risk == identity.excess_transfer_risk
        assert report.baseline_std_error == identity.std_error

    def test_measure_both_stages(self):
        rng = derive_rng(17, "risk")
        truth = make_ground_truth(6, 2, 9, 2, 1.0, rng)
        spec = isotropic_covariates(6)
        rep_hat = _perturbed_rep(truth, 0.2, rng)
        report = measure_excess_risks(
            rep_hat, truth.pre_head, truth.down_head, truth, spec, 4000, rng
        )
        assert report.excess_transfer_risk >= 0.0
        assert report.excess_pretrain_risk >= 0.0
        assert report.mc_samples == 4000


class TestRepresentationDifference:
    def test_true_rep_is_near_zero(self):
        rng = derive_rng(18, "rd")
        truth = make_ground_truth(7, 2, 8, 2, 1.0, rng)
        spec = isotropic_covariates(7)
        value, _ = representation_difference(truth.rep, truth, spec, 4000, FIT_CFG, rng)
        assert 0.0 <= value <= 5e-5  # the truth head is feasible for the fit

    def test_orthogonal_complement_rep_is_poor(self):
        rng = derive_rng(19, "rd")
        truth = make_ground_truth(8, 2, 8, 2, 1.0, rng)
        spec = isotropic_covariates(8)
        # basis of the orthogonal complement of the true span
        full = orthonormalize(
            np.hstack([truth.rep.b, rng.standard_normal((8, 6))])
        )
        ortho = SubspaceRep(full[:, 2:4])
        value, se = representation_difference(
            ortho, truth, spec, 6000, FIT_CFG, rng
        )
        assert value > 10.0 * se
        assert value > 0.01

    def test_two_evaluations_agree(self):
        rng = derive_rng(20, "rd")
        truth = make_ground_truth(6, 2, 7, 2, 1.0, rng)
        spec = isotropic_covariates(6)
        rep_hat = _perturbed_rep(truth, 0.4, rng)
        v1, se1 = representation_difference(
            rep_hat, truth, spec, 8000, FIT_CFG, derive_rng(21, "a")
        )
        v2, se2 = representation_difference(
            rep_hat, truth, spec, 8000, FIT_CFG, derive_rng(21, "b")
        )
        assert abs(v1 - v2) <= 3.0 * math.hypot(se1, se2)


class TestSchurComplementBound:
    def test_true_rep_vanishes(self):
        rng = derive_rng(22, "sc")
        truth = make_ground_truth(8, 3, 10, 2, 1.0, rng)
        spec = isotropic_covariates(8)
        lam_sc, bound = schur_complement_bound(
            truth.rep, truth.rep, spec, 100_000, 1.0, 2, rng
        )
        assert np.linalg.norm(lam_sc) <= 1e-6
        assert bound <= 1e-6

    def test_orthogonal_complement_recovers_second_moment(self):
        rng = derive_rng(23, "sc")
        truth = make_ground_truth(8, 2, 8, 2, 1.0, rng)
        spec = isotropic_covariates(8)
        full = orthonormalize(np.hstack([truth.rep.b, rng.standard_normal((8, 6))]))
        ortho = SubspaceRep(full[:, 2:4])
        n_mc = 60_000
        lam_sc, _ = schur_complement_bound(ortho, truth.rep, spec, n_mc, 1.0, 2, rng)
        # isotropic truncated law: E[h h^T] = c I with c slightly below 1
        off = lam_sc - np.diag(np.diag(lam_sc))
        assert np.abs(off).max() < 0.02
        diag = np.diag(lam_sc)
        assert np.all(diag > 0.9) and np.all(diag < 1.02)
        assert abs(diag[0] - diag[1]) < 0.03

    def test_psd_up_to_tolerance(self):
        rng = derive_rng(24, "sc")
        truth = make_ground_truth(6, 2, 7, 2, 1.0, rng)
        spec = isotropic_covariates(6)
        rep_hat = _perturbed_rep(truth, 0.5, rng)
        lam_sc, bound = schur_complement_bound(rep_hat, truth.rep, spec, 5000, 1.0, 2, rng)
        from transferlab.linalg import sym_spectral

        lam, _ = sym_spectral(lam_sc)
        assert lam[-1] >= -1e-8
        assert bound >= 0.0

    def test_upper_bounds_measured_downstream_difference(self):
        rng = derive_rng(25, "sc")
        truth = make_ground_truth(8, 2, 8, 2, 1.0, rng)
        spec = isotropic_covariates(8)
        for scale in (0.2, 0.6):
            rep_hat = _perturbed_rep(truth, scale, rng)
            _, bound = schur_complement_bound(
                rep_hat, truth.rep, spec, 40_000, truth.down_head.column_cap,
                truth.k_prime, derive_rng(26, scale),
            )
            measured, se = representation_difference(
                rep_hat, truth, spec, 40_000, FIT_CFG, derive_rng(27, scale),
                stage="downstream",
            )
            assert measured <= bound + 3.0 * se

    def test_needs_enough_samples(self):
        rng = derive_rng(28, "sc")
        truth = make_ground_truth(6, 3, 8, 2, 1.0, rng)
        with pytest.raises(ContractViolation):
            schur_complement_bound(
                truth.rep, truth.rep, isotropic_covariates(6), 10, 1.0, 2, rng
            )


class TestDiversityRatio:
    # the downstream bound relates to the pre-training difference only up
    # to a hidden universal constant; 32 is an explicit profile choice
    # (seeded instances at perturbation scales 0.2-0.8 measure 9-25)
    PROFILE_CONSTANT = 32.0

    def test_ratio_within_profile_constant(self):
        rng = derive_rng(29, "dr")
        truth = make_ground_truth(8, 2, 10, 2, 1.0, rng)
        spec = isotropic_covariates(8)
        for seed in range(3):
            rep_hat = _perturbed_rep(truth, 0.4, derive_rng(seed, "p"))
            # closed-form downstream bound times the diversity, over the
            # measured pre-training difference, both from one stream
            ratio_rng = derive_rng(seed, "r")
            _, bound = schur_complement_bound(
                rep_hat, truth.rep, spec, 20_000, truth.down_head.column_cap,
                truth.k_prime, ratio_rng,
            )
            d_fp, _ = representation_difference(
                rep_hat, truth, spec, 20_000, FIT_CFG, ratio_rng
            )
            assert d_fp > 0
            assert bound * diversity_parameter(truth.pre_head) / d_fp <= self.PROFILE_CONSTANT


class TestChainRule:
    def test_singleton_zero_classes(self):
        x = np.zeros((10, 3))
        report = chain_rule_check(
            [np.zeros((3, 2))], [np.zeros((2, 3))], x, 200, derive_rng(30, "cr")
        )
        assert report.lhs == 0.0
        assert report.passed

    def test_random_instance_passes(self):
        rng = derive_rng(31, "cr")
        x = rng.standard_normal((50, 4))
        h_cands = [rng.standard_normal((4, 2)) for _ in range(3)]
        f_cands = [rng.standard_normal((2, 2)) for _ in range(3)]
        report = chain_rule_check(h_cands, f_cands, x, 2000, rng)
        assert report.passed
        assert report.lhs <= report.rhs + 3 * math.hypot(report.lhs_se, report.rhs_se)

    def test_head_scaling_consistency(self):
        rng = derive_rng(32, "cr")
        x = rng.standard_normal((30, 3))
        h_cands = [rng.standard_normal((3, 2)) for _ in range(2)]
        f_cands = [rng.standard_normal((2, 2)) for _ in range(3)]
        r1 = chain_rule_check(h_cands, f_cands, x, 1500, derive_rng(33, "n"))
        r2 = chain_rule_check(
            h_cands, [2.0 * f for f in f_cands], x, 1500, derive_rng(33, "n")
        )
        assert r2.passed
        assert r2.lhs == pytest.approx(2.0 * r1.lhs, rel=1e-9)  # same noise
        assert r2.lipschitz == pytest.approx(2.0 * r1.lipschitz, rel=1e-12)

    def test_large_candidate_sets_rejected(self):
        x = np.zeros((5, 2))
        cands = [np.zeros((2, 1))] * 101
        with pytest.raises(ContractViolation):
            chain_rule_check(cands, [np.zeros((1, 1))], x, 10, derive_rng(34, "cr"))


DESK = dict(n=8000, m=200, k=30, k_prime=2, r=3, d=20, nu_tilde=1.0, delta=0.05)


class TestRiskBoundEvaluator:
    def test_nu_scaling_exact(self):
        profile = {"downstream_complexity": 0.0, "downstream_concentration": 0.0}
        one = evaluate_risk_bound("subspace", BoundParams(**DESK), profile)
        two = evaluate_risk_bound(
            "subspace", BoundParams(**{**DESK, "nu_tilde": 2.0}), profile
        )
        assert two == pytest.approx(one / 2.0, rel=1e-12)

    def test_tail_term_quartic_in_n(self):
        profile = {k: 0.0 for k in (
            "rep_complexity", "pretrain_concentration",
            "downstream_complexity", "downstream_concentration",
        )}
        v1 = evaluate_risk_bound("subspace", BoundParams(**DESK), profile)
        v2 = evaluate_risk_bound(
            "subspace", BoundParams(**{**DESK, "n": 2 * DESK["n"]}), profile
        )
        assert v2 == pytest.approx(v1 / 4.0, rel=1e-12)

    def test_concentration_halves_at_quadruple_n(self):
        profile = {k: 0.0 for k in (
            "rep_complexity", "tail",
            "downstream_complexity", "downstream_concentration",
        )}
        v1 = evaluate_risk_bound("subspace", BoundParams(**DESK), profile)
        v4 = evaluate_risk_bound(
            "subspace", BoundParams(**{**DESK, "n": 4 * DESK["n"]}), profile
        )
        assert v4 == pytest.approx(v1 / 2.0, rel=1e-12)

    def test_downstream_complexity_halves_at_quadruple_m(self):
        profile = {k: 0.0 for k in (
            "rep_complexity", "tail", "pretrain_concentration",
            "downstream_concentration",
        )}
        v1 = evaluate_risk_bound("subspace", BoundParams(**DESK), profile)
        v4 = evaluate_risk_bound(
            "subspace", BoundParams(**{**DESK, "m": 4 * DESK["m"]}), profile
        )
        assert v4 == pytest.approx(v1 / 2.0, rel=1e-12)

    def test_monotonicities(self):
        base = evaluate_risk_bound("subspace", BoundParams(**DESK))
        assert base > 0 and math.isfinite(base)
        for key, factor, direction in (
            ("n", 2, -1), ("m", 2, -1), ("nu_tilde", 2, -1),
            ("k", 2, +1), ("d", 2, +1), ("r", 2, +1),
        ):
            moved = evaluate_risk_bound(
                "subspace", BoundParams(**{**DESK, key: DESK[key] * factor})
            )
            if direction < 0:
                assert moved < base, key
            else:
                assert moved > base, key

    def test_zero_diversity_is_infinite(self):
        assert math.isinf(
            evaluate_risk_bound("subspace", BoundParams(**{**DESK, "nu_tilde": 0.0}))
        )

    def test_mlp_setting(self):
        params = BoundParams(**{**DESK, "mlp_caps": (2.0, 3.0), "norm_cap": 5.0})
        value = evaluate_risk_bound("mlp", params)
        assert value > 0 and math.isfinite(value)
        bigger = evaluate_risk_bound(
            "mlp",
            BoundParams(**{**DESK, "mlp_caps": (2.0, 4.0), "norm_cap": 5.0}),
        )
        assert bigger > value  # last-layer cap enters cubically

    def test_mlp_needs_caps(self):
        with pytest.raises(ContractViolation):
            evaluate_risk_bound("mlp", BoundParams(**DESK))

    def test_invalid_setting(self):
        with pytest.raises(ContractViolation):
            evaluate_risk_bound("transformer", BoundParams(**DESK))
