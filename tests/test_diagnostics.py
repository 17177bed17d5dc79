"""Diagnostics: diversity, complexities, risk estimators, and rate formulas."""

import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from transferlab import diagnostics, model_space
from transferlab.errors import ContractViolation
from transferlab.linalg import orthonormalize
from transferlab.model_space import LinearHead, SubspaceRep, cap_columns, diversity_parameter
from transferlab.rngutil import derive_rng
from transferlab.softmax import cross_entropy_rows, kl_rows, softmax_full_rows
from transferlab.synthetic import (
    GroundTruth,
    isotropic_covariates,
    make_ground_truth,
    sample_covariates,
    _sample_labels,
)
from transferlab.erm import OptimConfig, fit_head_on_embeddings
from transferlab.diagnostics import (
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

    def test_more_rows_than_columns_reads_exactly_zero(self, monkeypatch):
        # an r x (K-1) head with r > K-1 has a Gram of rank K-1 < r; an
        # eigendecomposition reads its zero eigenvalue as rounding of either sign
        rng = derive_rng(2, "nu")
        heads = [rng.standard_normal(shape) for shape in [(3, 1)] * 500 + [(20, 1), (5, 2)]]
        assert [diversity_parameter(alpha) for alpha in heads] == [0.0] * len(heads)
        assert diversity_parameter(LinearHead(np.ones((4, 2)) / 2, 1.0)) == 0.0
        monkeypatch.setattr(model_space, "sym_spectral", None)  # and none is made
        assert diversity_parameter(heads[0]) == 0.0

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

    def test_block_size_does_not_move_the_draws(self, monkeypatch):
        # the generator fills the noise in order, so blocks of any number of
        # whole draws see the same numbers
        z = derive_rng(45, "g").standard_normal((300, 3))
        ref = empirical_gaussian_complexity_linear(z, 1.0, 5, 50, derive_rng(46, "g"))
        per_draw = 300 * 4
        for scalars in (1, per_draw - 1, per_draw, 7 * per_draw + 5, 10**9):
            monkeypatch.setattr(diagnostics, "_CHUNK_SCALARS", scalars)
            est = empirical_gaussian_complexity_linear(z, 1.0, 5, 50, derive_rng(46, "g"))
            assert (est.value, est.std_error) == (ref.value, ref.std_error), scalars

    def test_worst_case_reduction(self):
        est = worst_case_complexity_linear(0.5, 4, 2.0, 25)
        assert est.value == pytest.approx(0.5 * 3 * 2.0 / 5.0)
        assert est.std_error == 0.0  # analytic: nothing is sampled


class TestMcComplexityFinite:
    def test_zero_candidate(self):
        est = mc_complexity_finite([np.zeros((6, 2))], 100, derive_rng(6, "m"))
        assert est.value == 0.0

    def test_folded_normal_oracle(self):
        z = 1.7
        outs = [np.array([[z]]), np.array([[-z]])]
        est = mc_complexity_finite(outs, 10_000, derive_rng(7, "m"))
        expected = math.sqrt(2.0 / math.pi) * z
        assert abs(est.value - expected) <= 3.0 * est.std_error

    def test_superset_monotone_same_draws(self):
        rng = derive_rng(9, "m")
        cands = [rng.standard_normal((8, 2)) for _ in range(4)]
        small = mc_complexity_finite(cands[:2], 400, derive_rng(10, "m"))
        large = mc_complexity_finite(cands, 400, derive_rng(10, "m"))
        assert large.value >= small.value - 1e-12

    def test_empty_rejected(self):
        with pytest.raises(ContractViolation):
            mc_complexity_finite([], 10, derive_rng(11, "m"))


def _perturbed_rep(truth, scale, rng):
    return SubspaceRep(
        orthonormalize(truth.rep.b + scale * rng.standard_normal(truth.rep.b.shape))
    )


def naive_excess_risk(rep_hat, head_hat, truth, spec, n_mc, rng):
    """Sampled-label oracle: mean downstream loss gap on fresh labeled data."""
    x = sample_covariates(spec, n_mc, rng)
    y = _sample_labels(truth.rep, truth.down_head, x, rng)
    gaps = cross_entropy_rows(rep_hat.apply(x) @ head_hat.alpha, y) - cross_entropy_rows(
        truth.rep.apply(x) @ truth.down_head.alpha, y
    )
    return float(gaps.mean()), float(gaps.std(ddof=1) / np.sqrt(n_mc))


class TestTransferRisk:
    def test_truth_has_zero_excess(self):
        rng = derive_rng(12, "risk")
        truth = make_ground_truth(6, 2, 8, 2, 1.0, rng)
        spec = isotropic_covariates(6)
        x = sample_covariates(spec, 2000, rng)
        assert measure_excess_risks(
            truth, x, 2000, truth.down_head, truth.rep, "downstream") == (0.0, 0.0)

    def test_zero_heads_agree(self):
        rng = derive_rng(13, "risk")
        base = make_ground_truth(6, 2, 8, 2, 1.0, rng)
        zero = LinearHead(np.zeros((2, 1)), 1.0)
        truth = GroundTruth(rep=base.rep, pre_head=base.pre_head, down_head=zero)
        other_rep = _perturbed_rep(base, 0.5, rng)
        x = sample_covariates(isotropic_covariates(6), 1000, rng)
        value, _ = measure_excess_risks(truth, x, 1000, zero, other_rep, "downstream")
        assert value == 0.0

    def test_agrees_with_naive_sampled_estimator(self):
        rng = derive_rng(14, "risk")
        truth = make_ground_truth(8, 3, 10, 3, 2.0, rng)
        spec = isotropic_covariates(8)
        rep_hat = _perturbed_rep(truth, 0.3, rng)
        head_hat = LinearHead(truth.down_head.alpha * 0.8, truth.down_head.column_cap)
        kl, kl_se = measure_excess_risks(
            truth, sample_covariates(spec, 50_000, derive_rng(15, "a")), 50_000,
            head_hat, rep_hat, "downstream",
        )
        naive, naive_se = naive_excess_risk(
            rep_hat, head_hat, truth, spec, 200_000, derive_rng(15, "b")
        )
        assert abs(kl - naive) <= 3.0 * math.hypot(kl_se, naive_se)

    def test_pretrain_task_variant(self):
        rng = derive_rng(16, "risk")
        truth = make_ground_truth(6, 2, 9, 2, 1.0, rng)
        x = sample_covariates(isotropic_covariates(6), 500, rng)
        assert measure_excess_risks(
            truth, x, 500, truth.pre_head, truth.rep, "pretrain") == (0.0, 0.0)
        # the stage names the truth head: the pre-training head (8 logits) is
        # not a head of the downstream task (1 logit)
        with pytest.raises(ContractViolation, match="downstream truth's 1 logits"):
            measure_excess_risks(truth, x, 500, truth.pre_head, truth.rep, "downstream")

    def test_baseline_is_identity_representation_risk(self):
        # a baseline head acts on raw covariates: its risk is the downstream
        # risk of the identity representation with that head, same draw
        rng = derive_rng(35, "risk")
        truth = make_ground_truth(6, 2, 8, 3, 1.0, rng)
        spec = isotropic_covariates(6)
        base_head = LinearHead(rng.standard_normal((6, 2)) * 0.1, 1.0)
        x = sample_covariates(spec, 3000, derive_rng(36, "mc"))
        baseline = measure_excess_risks(truth, x, 3000, base_head, None, "downstream")
        identity = measure_excess_risks(
            truth, x, 3000, base_head, SubspaceRep(np.eye(6)), "downstream")
        assert baseline[0] > 0.0
        assert baseline == identity

    def test_measure_both_stages(self):
        rng = derive_rng(17, "risk")
        truth = make_ground_truth(6, 2, 9, 2, 1.0, rng)
        spec = isotropic_covariates(6)
        rep_hat = _perturbed_rep(truth, 0.2, rng)
        x = sample_covariates(spec, 4000, rng)
        for head, stage in ((truth.down_head, "downstream"), (truth.pre_head, "pretrain")):
            value, se = measure_excess_risks(truth, x, 4000, head, rep_hat, stage)
            assert value >= 0.0 and se > 0.0

    @pytest.mark.parametrize("rows", [1999, 2001])
    def test_draw_must_have_n_mc_rows(self, rows):
        rng = derive_rng(18, "risk")
        truth = make_ground_truth(6, 2, 8, 2, 1.0, rng)
        x = sample_covariates(isotropic_covariates(6), rows, rng)
        with pytest.raises(ContractViolation, match="n_mc = 2000"):
            measure_excess_risks(truth, x, 2000, truth.down_head, truth.rep, "downstream")

    def test_baseline_needs_no_representation(self):
        truth, _, heads, x = _chunk_instance(3000)
        whole = _whole_excess_risks(truth.rep, None, truth.down_head, truth, x, heads["base"])
        assert measure_excess_risks(
            truth, x, 3000, heads["base"], None, "downstream") == whole[4:]

    @pytest.mark.parametrize("stage", ["pretrain", "downstream"])
    def test_an_embedding_head_needs_rep_hat(self, stage):
        # an (r, K-1) head given no representation would act on d covariates
        truth, _, heads, x = _chunk_instance(100)
        head = heads["pre" if stage == "pretrain" else "down"]
        with pytest.raises(ContractViolation, match="needs 10 rows"):
            measure_excess_risks(truth, x, 100, head, None, stage)


class TestRepresentationDifference:
    def test_true_rep_is_near_zero(self):
        rng = derive_rng(18, "rd")
        truth = make_ground_truth(7, 2, 8, 2, 1.0, rng)
        spec = isotropic_covariates(7)
        x = sample_covariates(spec, 4000, rng)
        value, _, _ = representation_difference(truth.rep, truth, x, FIT_CFG)
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
        value, se, _ = representation_difference(
            ortho, truth, sample_covariates(spec, 6000, rng), FIT_CFG
        )
        assert value > 10.0 * se
        assert value > 0.01

    def test_two_evaluations_agree(self):
        rng = derive_rng(20, "rd")
        truth = make_ground_truth(6, 2, 7, 2, 1.0, rng)
        spec = isotropic_covariates(6)
        rep_hat = _perturbed_rep(truth, 0.4, rng)
        v1, se1, _ = representation_difference(
            rep_hat, truth, sample_covariates(spec, 8000, derive_rng(21, "a")), FIT_CFG
        )
        v2, se2, _ = representation_difference(
            rep_hat, truth, sample_covariates(spec, 8000, derive_rng(21, "b")), FIT_CFG
        )
        assert abs(v1 - v2) <= 3.0 * math.hypot(se1, se2)


# The Monte Carlo routines as they were before they walked the draw in
# chunks, kept as the oracle of the chunked ones: each forms whole
# (n_mc, K-1) logit and probability blocks.
def _whole_kl_stats(eta_true, eta_fit):
    kls = kl_rows(eta_true, eta_fit)
    n = kls.shape[0]
    se = float(kls.std(ddof=1) / np.sqrt(n)) if n > 1 else 0.0
    return float(kls.mean()), se


def _whole_excess_risks(rep_hat, pre_head_hat, down_head_hat, truth, x, baseline_head):
    z_true = truth.rep.apply(x)
    z_hat = rep_hat.apply(x)

    def logits(head, z):
        return (head.alpha.T @ z.T).T

    eta_down = logits(truth.down_head, z_true)
    down = _whole_kl_stats(eta_down, logits(down_head_hat, z_hat))
    pre = base = (math.nan, math.nan)
    if pre_head_hat is not None:
        pre = _whole_kl_stats(logits(truth.pre_head, z_true), logits(pre_head_hat, z_hat))
    if baseline_head is not None:
        base = _whole_kl_stats(eta_down, logits(baseline_head, x))
    return (*down, *pre, *base)


def _whole_representation_difference(rep_hat, truth, x, fit_cfg, stage, start):
    """The representation difference on whole blocks, its head fit from ``start``
    (None: the zero head); returns ``(value, std_error, trace)``. The fit's
    label statistic is the chunked sum's, so that the fits take the same steps
    at every n_mc (``TestSoftLabelStatistic`` checks the sum itself)."""
    truth_head = truth.pre_head if stage == "pretrain" else truth.down_head
    eta_true = truth.rep.apply(x) @ truth_head.alpha
    z_hat = rep_hat.apply(x)
    stat = diagnostics._soft_label_stat(z_hat, lambda rows: eta_true[rows])
    alpha, trace = fit_head_on_embeddings(z_hat, stat, truth_head.column_cap, fit_cfg,
                                          start=start)
    return (*_whole_kl_stats(eta_true, z_hat @ alpha), trace)


def _chunk_instance(n_mc, seed=40):
    """A K = 30 truth in d = 10, fitted heads near it, and an n_mc-row draw."""
    rng = derive_rng(seed, "chunks")
    truth = make_ground_truth(10, 3, 30, 6, 2.0, rng)
    heads = {
        "pre": LinearHead(truth.pre_head.alpha * 0.9, 1.0),
        "down": LinearHead(truth.down_head.alpha * 1.1, 1.0),
        "base": LinearHead(rng.standard_normal((10, 5)) * 0.2, 1.0),
    }
    x = sample_covariates(isotropic_covariates(10), n_mc, rng)
    return truth, _perturbed_rep(truth, 0.3, rng), heads, x


def _peak_bytes(fn):
    """Peak traced allocation while ``fn()`` runs, beyond what was live before."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


MC_SIZES = [1, 2047, 2048, 2049, 5000]


def _one_head_risks(truth, rep_hat, heads, x):
    """The downstream, pre-training and baseline heads' risks, one call each,
    in the order of ``_whole_excess_risks``."""
    n_mc = x.shape[0]
    return (*measure_excess_risks(truth, x, n_mc, heads["down"], rep_hat, "downstream"),
            *measure_excess_risks(truth, x, n_mc, heads["pre"], rep_hat, "pretrain"),
            *measure_excess_risks(truth, x, n_mc, heads["base"], None, "downstream"))


class TestChunkedMonteCarlo:
    """The chunked risks give the bits of the whole-block formulas."""

    @pytest.mark.parametrize("n_mc", MC_SIZES)
    def test_excess_risks_match_the_whole_block(self, n_mc):
        truth, rep_hat, heads, x = _chunk_instance(n_mc)
        np.testing.assert_array_equal(
            _one_head_risks(truth, rep_hat, heads, x),
            _whole_excess_risks(rep_hat, heads["pre"], heads["down"], truth, x, heads["base"]))

    def test_a_chunk_past_the_shift_free_range_matches_the_whole_block(self, monkeypatch):
        # logits far above softmax._SHIFT_FREE_MAX in the second chunk only:
        # each kl_rows call must see the rows that its own chunk held
        truth, rep_hat, heads, x = _chunk_instance(5000)
        chunk = diagnostics._MC_CHUNK
        x[chunk:2 * chunk] *= 400.0
        calls = []

        def spy(eta_true, eta_fit):
            calls.append((eta_true.copy(), eta_fit.copy()))
            return kl_rows(eta_true, eta_fit)

        monkeypatch.setattr(diagnostics, "kl_rows", spy)
        got = _one_head_risks(truth, rep_hat, heads, x)
        assert np.isfinite(got).all()
        # the means agree with the whole block's only through rounding, as the
        # whole block takes the shifted branch on every row; the spy checks
        # that each call got exactly the logits of its own chunk's rows, for
        # the heads in _one_head_risks's order
        z_true, z_hat = truth.rep.apply(x), rep_hat.apply(x)
        pairs = [(truth.down_head, heads["down"], z_hat), (truth.pre_head, heads["pre"], z_hat),
                 (truth.down_head, heads["base"], x)]
        chunks = [slice(lo, lo + chunk) for lo in range(0, x.shape[0], chunk)]
        assert len(calls) == len(pairs) * len(chunks)
        for (eta_true, eta_fit), ((true_head, head, z), rows) in zip(
                calls, itertools.product(pairs, chunks)):
            np.testing.assert_array_equal(eta_true, (true_head.alpha.T @ z_true.T).T[rows])
            np.testing.assert_array_equal(eta_fit, (head.alpha.T @ z.T).T[rows])
        np.testing.assert_array_equal(
            got, _whole_excess_risks(rep_hat, heads["pre"], heads["down"], truth, x,
                                     heads["base"]))

    @pytest.mark.parametrize("n_mc", MC_SIZES)
    @pytest.mark.parametrize("stage", ["pretrain", "downstream"])
    def test_representation_difference_matches_the_whole_block(self, n_mc, stage):
        truth, rep_hat, _, x = _chunk_instance(n_mc)
        cfg = OptimConfig(max_iters=200, grad_tol=1e-7)
        head = truth.pre_head if stage == "pretrain" else truth.down_head
        start = diagnostics._least_squares_head(rep_hat, truth.rep, head)
        # the trace too: the two fits take the same steps
        assert representation_difference(rep_hat, truth, x, cfg, stage) == (
            _whole_representation_difference(rep_hat, truth, x, cfg, stage, start))


class TestSoftLabelStatistic:
    """The chunked sum z_hat^T T / n of the soft targets against the whole block."""

    @staticmethod
    def _stats(n_mc):
        truth, rep_hat, _, x = _chunk_instance(n_mc)
        eta_true = truth.rep.apply(x) @ truth.pre_head.alpha
        z_hat = rep_hat.apply(x)
        soft = softmax_full_rows(eta_true)[:, :-1]
        chunked = diagnostics._soft_label_stat(z_hat, lambda rows: eta_true[rows])
        return chunked, z_hat.T @ soft / n_mc, np.abs(z_hat).T @ soft / n_mc

    @pytest.mark.parametrize("n_mc", [n for n in MC_SIZES if n <= diagnostics._MC_CHUNK])
    def test_one_chunk_gives_the_whole_block_bits(self, n_mc):
        chunked, whole, _ = self._stats(n_mc)
        assert chunked.tobytes() == whole.tobytes()

    @pytest.mark.parametrize("n_mc", [n for n in MC_SIZES if n > diagnostics._MC_CHUNK])
    def test_more_chunks_agree_within_the_summation_bound(self, n_mc):
        # two orders of summing n_mc terms each err by at most (n_mc - 1) u
        # times the sum of their magnitudes (u = eps / 2), so the two means
        # differ by at most n_mc eps times the mean of |z_hat| t; at n_mc =
        # 5000 they were 4.6 eps times it apart when measured
        chunked, whole, magnitude = self._stats(n_mc)
        assert np.all(np.abs(chunked - whole) <= n_mc * np.finfo(float).eps * magnitude)

    def test_empty_draw_rejected(self):
        truth, rep_hat, _, _ = _chunk_instance(1)
        with pytest.raises(ContractViolation, match="no samples"):
            representation_difference(rep_hat, truth, np.zeros((0, 10)), FIT_CFG)


class TestMonteCarloMemory:
    """No (n_mc, K-1) block is held whole, and a head fit holds one logit block."""

    def test_excess_risks_hold_no_whole_logit_block(self):
        n_mc, d = 100_000, 20
        rng = derive_rng(41, "mem")
        truth = make_ground_truth(d, 3, 30, 30, 2.0, rng)
        x = sample_covariates(isotropic_covariates(d), n_mc, rng)
        heads = {"pre": LinearHead(truth.pre_head.alpha * 0.9, 1.0),
                 "down": LinearHead(truth.down_head.alpha * 0.9, 1.0),
                 "base": LinearHead(rng.standard_normal((d, 29)) * 0.05, 1.0)}
        block = n_mc * 29 * 8
        peak = _peak_bytes(lambda: _one_head_risks(
            truth, _perturbed_rep(truth, 0.3, rng), heads, x))
        # the two (n_mc, r) embeddings, one n_mc KL vector, and chunk buffers
        assert peak < block / 2, (peak, block)

    def test_head_fit_holds_one_logit_block(self):
        n, width = 20_000, 29
        rng = derive_rng(42, "mem")
        z = rng.standard_normal((n, 3))
        stat = z.T @ softmax_full_rows(rng.standard_normal((n, width)))[:, :-1] / n
        block = n * width * 8
        peak = _peak_bytes(lambda: fit_head_on_embeddings(
            z, stat, 1.0, OptimConfig(max_iters=30, grad_tol=1e-12)))
        assert peak < 1.5 * block, (peak, block)

    def test_representation_difference_holds_one_logit_block(self):
        # the head fit's logit block, the two (n_mc, r) embeddings and one
        # n_mc KL vector: 1.36 blocks when measured, where a whole soft-target
        # block beside the fit's took 2.36
        n_mc, d = 20_000, 20
        rng = derive_rng(45, "mem")
        truth = make_ground_truth(d, 3, 30, 2, 2.0, rng)
        rep_hat = _perturbed_rep(truth, 0.3, rng)
        x = sample_covariates(isotropic_covariates(d), n_mc, rng)
        block = n_mc * 29 * 8
        peak = _peak_bytes(lambda: representation_difference(
            rep_hat, truth, x, OptimConfig(max_iters=30, grad_tol=1e-12)))
        assert peak < 1.5 * block, (peak, block)

    def test_complexity_noise_block_stays_near_a_chunk(self):
        # the shape diagnose uses: 400 draws at n = 2000 rows and one logit
        z = derive_rng(43, "mem").standard_normal((2000, 3))
        peak = _peak_bytes(lambda: empirical_gaussian_complexity_linear(
            z, 1.0, 2, 400, derive_rng(44, "mem")))
        assert peak < 1_000_000, peak


@st.composite
def _frame_pairs(draw):
    """A truth frame and a candidate frame of any width, near it or not."""
    d = draw(st.integers(1, 9))
    r, r_hat = draw(st.integers(1, d)), draw(st.integers(1, d))
    scale = draw(st.sampled_from([0.0, 1e-6, 0.1, 1.0, 10.0]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    b = orthonormalize(rng.standard_normal((d, r)))
    shared = min(r, r_hat)
    near = b[:, :shared] + scale * rng.standard_normal((d, shared))
    b_hat = orthonormalize(np.hstack([near, rng.standard_normal((d, r_hat - shared))]))
    return SubspaceRep(b), SubspaceRep(b_hat)


def _frame_of(kind, truth, rng):
    """A candidate frame near the truth's, narrower than it, or outside its span."""
    b = truth.rep.b
    if kind == "perturbed":
        return _perturbed_rep(truth, 0.4, rng)
    if kind == "narrower":
        return SubspaceRep(orthonormalize(b[:, :-1] + 0.2 * rng.standard_normal(
            (b.shape[0], b.shape[1] - 1))))
    full = orthonormalize(np.hstack([b, rng.standard_normal((b.shape[0], b.shape[1]))]))
    return SubspaceRep(full[:, b.shape[1]:])


FRAME_KINDS = ["perturbed", "narrower", "orthogonal-complement"]


class TestLeastSquaresStart:
    """The head fit starts from B_hat^T B alpha*; the infimum it finds is the
    zero start's."""

    @pytest.mark.parametrize("stage", ["pretrain", "downstream"])
    @pytest.mark.parametrize("kind", FRAME_KINDS)
    def test_same_value_as_the_zero_start(self, kind, stage):
        rng = derive_rng(50, "ls")
        truth = make_ground_truth(8, 3, 9, 4, 1.0, rng)
        rep_hat = _frame_of(kind, truth, rng)
        x = sample_covariates(isotropic_covariates(8), 6000, rng)
        value, se, trace = representation_difference(rep_hat, truth, x, FIT_CFG, stage)
        zero, zero_se, zero_trace = _whole_representation_difference(
            rep_hat, truth, x, FIT_CFG, stage, None)
        assert trace.outcome == zero_trace.outcome == "converged"
        # both fits stop at a projected-gradient norm under grad_tol = 1e-7, so
        # each is within about grad_tol^2 / curvature of the infimum; the
        # values measured 0 to 6e-14 apart and the errors 4e-8 relative
        assert abs(value - zero) <= 1e-10
        assert abs(se - zero_se) <= 1e-6 * se

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(_frame_pairs(), st.floats(0.1, 3.0), st.integers(1, 6),
           st.integers(0, 2**32 - 1))
    def test_start_is_inside_the_cap_before_clipping(self, frames, cap, width, seed):
        truth_rep, rep_hat = frames
        alpha = np.random.default_rng(seed).standard_normal((truth_rep.embed_dim, width))
        head = LinearHead(cap_columns(alpha, cap), cap)
        start = diagnostics._least_squares_head(rep_hat, truth_rep, head)
        assert start.shape == (rep_hat.embed_dim, width)
        norms = np.linalg.norm(start, axis=0)
        assert (norms <= np.linalg.norm(head.alpha, axis=0) * (1 + 1e-12)).all()
        # the normal equations of min ||B alpha* - B_hat alpha||_F
        residual = truth_rep.b @ head.alpha - rep_hat.b @ start
        np.testing.assert_allclose(rep_hat.b.T @ residual, 0.0, atol=1e-12 * cap)

    def test_fewer_evaluations_than_the_zero_start(self):
        # 31 against 71 when measured; the counts carry no noise
        truth, rep_hat, _, x = _chunk_instance(5000)
        _, _, trace = representation_difference(rep_hat, truth, x, FIT_CFG)
        _, _, zero = _whole_representation_difference(rep_hat, truth, x, FIT_CFG,
                                                      "pretrain", None)
        assert trace.outcome == zero.outcome == "converged"
        assert trace.evaluations < zero.evaluations

    def test_frame_of_another_d_rejected_before_the_start(self, monkeypatch):
        rng = derive_rng(51, "ls")
        truth = make_ground_truth(6, 2, 5, 2, 1.0, rng)
        wide = SubspaceRep(orthonormalize(rng.standard_normal((7, 2))))

        def fail(*args):
            raise AssertionError("the start was formed")

        monkeypatch.setattr(diagnostics, "_least_squares_head", fail)
        x = sample_covariates(isotropic_covariates(6), 100, rng)
        with pytest.raises(ContractViolation, match="representation dim 7"):
            representation_difference(wide, truth, x, FIT_CFG)


class TestSchurComplementBound:
    def test_true_rep_vanishes(self):
        truth = make_ground_truth(8, 3, 10, 2, 1.0, derive_rng(22, "sc"))
        assert 0.0 <= schur_complement_bound(truth.rep, truth.rep, 1.0, 2) <= 1e-12

    def test_orthogonal_complement_recovers_second_moment(self):
        rng = derive_rng(23, "sc")
        truth = make_ground_truth(8, 2, 8, 2, 1.0, rng)
        full = orthonormalize(np.hstack([truth.rep.b, rng.standard_normal((8, 6))]))
        ortho = SubspaceRep(full[:, 2:4])
        kappa = isotropic_covariates(8).second_moment
        assert schur_complement_bound(ortho, truth.rep, 0.7, 3) == pytest.approx(
            (3 - 1) * 0.7**2 * kappa / 2, rel=1e-14)

    def test_a_narrower_frame_gives_the_ceiling(self):
        # a frame inside the truth's span still misses one of its directions
        truth = make_ground_truth(6, 2, 7, 2, 1.0, derive_rng(27, "sc"))
        narrow = SubspaceRep(truth.rep.b[:, :1])
        kappa = isotropic_covariates(6).second_moment
        assert schur_complement_bound(narrow, truth.rep, 1.0, 4) == (4 - 1) * 1.0**2 / 2 * kappa

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(_frame_pairs(), st.floats(0.1, 3.0), st.integers(2, 8))
    def test_top_eigenvalue_of_the_schur_complement(self, frames, cap, k_prime):
        truth_rep, rep_hat = frames
        b, b_hat = truth_rep.b, rep_hat.b
        kappa = isotropic_covariates(b.shape[0]).second_moment
        scale = (k_prime - 1) * cap**2 / 2
        bound = schur_complement_bound(rep_hat, truth_rep, cap, k_prime)
        assert 0.0 <= bound <= scale * kappa
        cross = b_hat.T @ b
        schur = kappa * (np.eye(b.shape[1]) - cross.T @ cross)
        top = np.linalg.eigvalsh(0.5 * (schur + schur.T))[-1]
        assert bound == pytest.approx(scale * top, rel=1e-9, abs=1e-12 * scale)

    def test_upper_bounds_measured_downstream_difference(self):
        rng = derive_rng(25, "sc")
        truth = make_ground_truth(8, 2, 8, 2, 1.0, rng)
        spec = isotropic_covariates(8)
        for scale in (0.2, 0.6):
            rep_hat = _perturbed_rep(truth, scale, rng)
            # the closed-form bound, and the difference it bounds measured on a draw
            x = sample_covariates(spec, 40_000, derive_rng(26, scale))
            bound = schur_complement_bound(
                rep_hat, truth.rep, truth.down_head.column_cap, truth.k_prime,
            )
            measured, se, _ = representation_difference(
                rep_hat, truth, x, FIT_CFG, stage="downstream",
            )
            assert measured <= bound + 3.0 * se


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
            # pre-training difference measured on a draw
            x = sample_covariates(spec, 20_000, derive_rng(seed, "r"))
            bound = schur_complement_bound(
                rep_hat, truth.rep, truth.down_head.column_cap, truth.k_prime,
            )
            d_fp, _, _ = representation_difference(rep_hat, truth, x, FIT_CFG)
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


DESK = dict(n=8000, m=200, k=30, k_prime=2, r=3, d=20, nu_tilde=1.0)


def _rate_terms(n, m, k, k_prime, r, d, nu_tilde):
    """The rate's five terms, written out at delta = 0.05 with unit constants."""
    log_inv_delta = math.log(1.0 / 0.05)
    return {
        "rep_complexity": math.sqrt(k) * math.log(n)
        * (math.sqrt(k * d * r**2 / n) + k * math.sqrt(r / n)) / nu_tilde,
        "tail": k / n**2 / nu_tilde,
        "pretrain_concentration": math.sqrt(log_inv_delta / n) / nu_tilde,
        "downstream_complexity": k_prime**1.5 * math.sqrt(r / m),
        "downstream_concentration": k_prime * math.sqrt(log_inv_delta / m),
    }


def _term_ratio(term, key, factor):
    """One term's value with ``key`` scaled by ``factor`` over its value at DESK.

    The evaluator must equal the sum of the written-out terms at both points.
    """
    moved = {**DESK, key: DESK[key] * factor}
    for params in (DESK, moved):
        assert evaluate_risk_bound(**params) == pytest.approx(
            sum(_rate_terms(**params).values()), rel=1e-12)
    return _rate_terms(**moved)[term] / _rate_terms(**DESK)[term]


def _bound_at_nu(nu_tilde):
    return evaluate_risk_bound(**{**DESK, "nu_tilde": nu_tilde})


class TestRiskBoundEvaluator:
    def test_nu_scaling_exact(self):
        # b(nu) = pre / nu + down, so each doubling of nu halves the drop
        drop = _bound_at_nu(1.0) - _bound_at_nu(2.0)
        assert drop == pytest.approx(2.0 * (_bound_at_nu(2.0) - _bound_at_nu(4.0)), rel=1e-12)
        pre = sum(v for key, v in _rate_terms(**DESK).items() if not key.startswith("down"))
        assert drop == pytest.approx(pre / 2.0, rel=1e-12)

    def test_tail_term_quartic_in_n(self):
        assert _term_ratio("tail", "n", 2) == pytest.approx(1 / 4.0, rel=1e-12)

    def test_concentration_halves_at_quadruple_n(self):
        assert _term_ratio("pretrain_concentration", "n", 4) == pytest.approx(0.5, rel=1e-12)

    def test_downstream_complexity_halves_at_quadruple_m(self):
        assert _term_ratio("downstream_complexity", "m", 4) == pytest.approx(0.5, rel=1e-12)
        # both downstream terms go as 1/sqrt(m), so the part of the rate that
        # does not fall with nu, 2 b(2) - b(1), halves as well
        def down(m):
            at = {**DESK, "m": m}
            return (2.0 * evaluate_risk_bound(**{**at, "nu_tilde": 2.0})
                    - evaluate_risk_bound(**at))
        assert down(4 * DESK["m"]) == pytest.approx(down(DESK["m"]) / 2.0, rel=1e-9)

    def test_monotonicities(self):
        base = evaluate_risk_bound(**DESK)
        assert base > 0 and math.isfinite(base)
        for key, factor, direction in (
            ("n", 2, -1), ("m", 2, -1), ("nu_tilde", 2, -1),
            ("k", 2, +1), ("d", 2, +1), ("r", 2, +1),
        ):
            moved = evaluate_risk_bound(**{**DESK, key: DESK[key] * factor})
            if direction < 0:
                assert moved < base, key
            else:
                assert moved > base, key

    def test_zero_diversity_is_infinite(self):
        assert math.isinf(evaluate_risk_bound(**{**DESK, "nu_tilde": 0.0}))

    @pytest.mark.parametrize("key, value, message", [
        *((key, 0, f"{key} must be positive") for key in ("n", "m", "k", "k_prime", "r", "d")),
        ("n", -5, "n must be positive"),
        ("nu_tilde", -1e-12, "nu_tilde must be nonnegative"),
    ])
    def test_bad_inputs_rejected(self, key, value, message):
        with pytest.raises(ContractViolation, match=message):
            evaluate_risk_bound(**{**DESK, key: value})

    def test_inputs_are_keywords_only(self):
        with pytest.raises(TypeError):
            evaluate_risk_bound(*DESK.values())
