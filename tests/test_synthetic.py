"""Ground-truth construction and data-generation statistics."""

import math

import numpy as np
import pytest
from scipy import stats

from transferlab.model_space import diversity_parameter
from transferlab.errors import (
    ContractViolation,
    InfeasibleDiversityError,
    InfeasibleSamplingError,
)
from transferlab.linalg import sym_spectral
from transferlab.model_space import LinearHead
from transferlab.rngutil import derive_rng
from transferlab.softmax import cross_entropy_rows, softmax_full_rows
from transferlab.synthetic import (
    CovariateSpec,
    isotropic_covariates,
    load_dataset,
    load_truth,
    make_dataset,
    make_ground_truth,
    sample_covariates,
    sample_labels,
    save_dataset,
    save_truth,
    covariate_spec_hash,
)


class TestMakeGroundTruth:
    def test_flat_spectrum(self):
        truth = make_ground_truth(8, 3, 12, 2, 1.0, derive_rng(0, "t"))
        gram = truth.pre_head.alpha @ truth.pre_head.alpha.T
        lam, _ = sym_spectral(gram)
        assert lam[0] == pytest.approx(lam[-1], rel=1e-10)
        assert lam[0] == pytest.approx(1.0, rel=1e-10)

    def test_condition_number_is_dialed_in(self):
        truth = make_ground_truth(10, 3, 20, 2, 100.0, derive_rng(1, "t"))
        gram = truth.pre_head.alpha @ truth.pre_head.alpha.T
        lam, _ = sym_spectral(gram)
        assert lam[0] / lam[-1] == pytest.approx(100.0, rel=1e-6)
        assert diversity_parameter(truth.pre_head) == pytest.approx(0.01, rel=1e-6)

    def test_determinism(self):
        a = make_ground_truth(6, 2, 9, 3, 5.0, derive_rng(42, "truth"))
        b = make_ground_truth(6, 2, 9, 3, 5.0, derive_rng(42, "truth"))
        np.testing.assert_array_equal(a.rep.b, b.rep.b)
        np.testing.assert_array_equal(a.pre_head.alpha, b.pre_head.alpha)
        np.testing.assert_array_equal(a.down_head.alpha, b.down_head.alpha)

    def test_infeasible_head_width(self):
        with pytest.raises(InfeasibleDiversityError):
            make_ground_truth(8, 3, 3, 2, 1.0, derive_rng(2, "t"))

    def test_rank_one_needs_flat_spectrum(self):
        make_ground_truth(5, 1, 4, 2, 1.0, derive_rng(3, "t"))
        with pytest.raises(InfeasibleDiversityError):
            make_ground_truth(5, 1, 4, 2, 2.0, derive_rng(3, "t"))

    def test_down_head_norms_inside_cap(self):
        truth = make_ground_truth(
            7, 3, 10, 4, 2.0, derive_rng(4, "t"), down_head_cap=2.0, down_head_fill=0.5
        )
        norms = np.linalg.norm(truth.down_head.alpha, axis=0)
        np.testing.assert_allclose(norms, 1.0, rtol=1e-12)


class TestSampleCovariates:
    def test_mean_near_zero(self):
        spec = isotropic_covariates(2)
        x = sample_covariates(spec, 100_000, derive_rng(5, "cov"))
        assert np.abs(x.mean(axis=0)).max() < 0.02
        # rejection to a centered ball preserves symmetry: per-coordinate
        # mean within 3 standard errors of zero
        se = x.std(axis=0, ddof=1) / np.sqrt(x.shape[0])
        assert np.all(np.abs(x.mean(axis=0)) <= 3.0 * se)

    def test_norm_cap_enforced(self):
        spec = isotropic_covariates(6, cap_factor=1.0)
        x = sample_covariates(spec, 5000, derive_rng(6, "cov"))
        assert np.linalg.norm(x, axis=1).max() <= spec.norm_cap

    def test_infeasible_cap(self):
        sigma = np.eye(50)
        spec = CovariateSpec(sigma, norm_cap=0.1, sigma_min=1.0, sigma_max=1.0)
        with pytest.raises(InfeasibleSamplingError):
            sample_covariates(spec, 100, derive_rng(7, "cov"))

    def test_determinism(self):
        spec = isotropic_covariates(4)
        a = sample_covariates(spec, 500, derive_rng(8, "cov"))
        b = sample_covariates(spec, 500, derive_rng(8, "cov"))
        np.testing.assert_array_equal(a, b)

    def test_empirical_covariance_close(self):
        # truncation at 3 sqrt(tr) keeps the covariance within 5% operator norm
        spec = isotropic_covariates(5)
        x = sample_covariates(spec, 100_000, derive_rng(9, "cov"))
        emp = x.T @ x / x.shape[0]
        lam, _ = sym_spectral(emp - spec.sigma)
        assert max(abs(lam[0]), abs(lam[-1])) < 0.05 * 1.0

    def test_spectrum_bounds_validated(self):
        with pytest.raises(ContractViolation):
            CovariateSpec(np.eye(3) * 2.0, 10.0, sigma_min=0.5, sigma_max=1.0)


class TestSampleLabels:
    def test_uniform_marginal_under_zero_head(self):
        rng = derive_rng(10, "lab")
        k, n = 10, 100_000
        truth = make_ground_truth(6, 2, k, 2, 1.0, rng)
        x = sample_covariates(isotropic_covariates(6), n, rng)
        zero_head = LinearHead(np.zeros((2, k - 1)), 1.0)
        y = sample_labels(truth.rep, zero_head, x, rng)
        counts = np.concatenate([y.sum(axis=0), [n - y.sum()]])
        freqs = counts / n
        assert np.abs(freqs - 1.0 / k).max() <= 3.0 * math.sqrt(1.0 / (k * n))
        chi2 = float(((counts - n / k) ** 2 / (n / k)).sum())
        assert chi2 < stats.chi2.ppf(0.999, k - 1)

    def test_saturated_logit(self):
        # one logit at +30: that class absorbs essentially all draws
        from transferlab.model_space import SubspaceRep

        rng = derive_rng(11, "lab")
        k, n = 4, 100_000
        rep = SubspaceRep(np.eye(3))
        alpha = np.zeros((3, k - 1))
        alpha[:, 1] = 10.0  # eta_1 = 30 on all-ones inputs
        head = LinearHead(alpha, 100.0)
        x = np.ones((n, 3))
        y = sample_labels(rep, head, x, rng)
        assert y[:, 1].mean() >= 1.0 - 1e-9

    def test_determinism(self):
        rng_a = derive_rng(12, "lab")
        rng_b = derive_rng(12, "lab")
        truth = make_ground_truth(5, 2, 6, 2, 1.0, derive_rng(13, "t"))
        x = sample_covariates(isotropic_covariates(5), 200, derive_rng(14, "c"))
        np.testing.assert_array_equal(
            sample_labels(truth.rep, truth.pre_head, x, rng_a),
            sample_labels(truth.rep, truth.pre_head, x, rng_b),
        )

    def test_truth_loss_matches_conditional_entropy(self):
        # loss of the generating model ~ conditional entropy of the labels
        rng = derive_rng(15, "ent")
        truth = make_ground_truth(8, 3, 12, 2, 2.0, rng)
        spec = isotropic_covariates(8)
        n = 100_000
        x = sample_covariates(spec, n, rng)
        y = sample_labels(truth.rep, truth.pre_head, x, rng)
        eta = (x @ truth.rep.b) @ truth.pre_head.alpha
        losses = cross_entropy_rows(eta, y)
        probs = softmax_full_rows(eta)
        entropy = float(-(probs * np.log(probs)).sum(axis=1).mean())
        se = float(losses.std(ddof=1) / math.sqrt(n))
        assert abs(losses.mean() - entropy) <= 3.0 * se


class TestDatasetIo:
    def test_roundtrip_exact(self, tmp_path):
        rng = derive_rng(16, "io")
        truth = make_ground_truth(4, 2, 5, 2, 1.5, rng)
        spec = isotropic_covariates(4)
        ds = make_dataset(truth, spec, 60, rng, "pretrain", seed_label="s16")
        path = tmp_path / "data.csv"
        save_dataset(path, ds, covariate_spec_hash(spec))
        back = load_dataset(path)
        np.testing.assert_array_equal(back.x, ds.x)
        np.testing.assert_array_equal(back.y, ds.y)
        assert back.k == ds.k
        assert back.seed == "s16"

    def test_label_indices_one_based(self, tmp_path):
        rng = derive_rng(17, "io")
        truth = make_ground_truth(3, 2, 4, 2, 1.0, rng)
        ds = make_dataset(truth, isotropic_covariates(3), 40, rng, "pretrain")
        path = tmp_path / "d.csv"
        save_dataset(path, ds)
        labels = [int(line.rsplit(",", 1)[1]) for line in path.read_text().splitlines()[1:]]
        assert all(1 <= lab <= 4 for lab in labels)
        assert any(lab == 4 for lab in labels) or all(ds.y.sum(axis=1) == 1)

    def test_truth_roundtrip(self, tmp_path):
        rng = derive_rng(18, "io")
        truth = make_ground_truth(5, 2, 7, 3, 3.0, rng)
        spec = isotropic_covariates(5)
        path = tmp_path / "truth.json"
        save_truth(path, truth, spec)
        back_truth, back_spec = load_truth(path)
        np.testing.assert_array_equal(back_truth.rep.b, truth.rep.b)
        np.testing.assert_array_equal(back_truth.pre_head.alpha, truth.pre_head.alpha)
        np.testing.assert_array_equal(back_truth.down_head.alpha, truth.down_head.alpha)
        np.testing.assert_array_equal(back_spec.sigma, spec.sigma)
        assert back_spec.norm_cap == spec.norm_cap
