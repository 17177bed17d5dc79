"""Ground-truth construction and data-generation statistics."""

import json
import math
import warnings

import numpy as np
import pytest
from scipy import stats

from transferlab.model_space import diversity_parameter
from transferlab import synthetic
from transferlab.errors import ContractViolation, InfeasibleDiversityError
from transferlab.linalg import sym_spectral
from transferlab.model_space import LinearHead
from transferlab.rngutil import derive_rng
from transferlab.softmax import cross_entropy_rows, softmax_full_rows
from transferlab.synthetic import (
    HEAD_CAP,
    GroundTruth,
    LabeledDataset,
    isotropic_covariates,
    load_dataset,
    load_truth,
    make_dataset,
    make_ground_truth,
    sample_covariates,
    _sample_labels,
    save_dataset,
    save_truth,
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
        truth = make_ground_truth(7, 3, 10, 4, 2.0, derive_rng(4, "t"))
        assert truth.pre_head.column_cap == truth.down_head.column_cap == HEAD_CAP
        norms = np.linalg.norm(truth.down_head.alpha, axis=0)
        np.testing.assert_allclose(norms, 0.7 * HEAD_CAP, rtol=1e-12)


def reference_sample_covariates(spec, n, rng):
    """The plain rejection loop: standard-normal batches of at least 1000
    rows, keeping the rows inside the cap until n are kept."""
    cap = synthetic._CAP_FACTOR * np.sqrt(spec.dim * 1.0)
    out = np.empty((n, spec.dim))
    got = 0
    while got < n:
        batch = max(n - got, 1000)
        cand = rng.standard_normal((batch, spec.dim))
        keep = cand[np.linalg.norm(cand, axis=1) <= cap]
        take = min(keep.shape[0], n - got)
        out[got : got + take] = keep[:take]
        got += take
    return out


class TestSampleCovariates:
    @pytest.mark.parametrize("cap_factor, d, n, rejects", [
        pytest.param(3.0, 5, 5000, False, id="keeps-every-row"),
        pytest.param(1.0, 5, 5000, True, id="cap-rejects-rows"),
        pytest.param(3.0, 5, 7, False, id="n-below-batch"),
        pytest.param(1.0, 5, 999, True, id="n-below-batch-rejects"),
        pytest.param(3.0, 5, 1000, False, id="n-equals-batch"),
        # the fixed cap rejects about 0.27 % of rows at d = 1
        pytest.param(3.0, 1, 5000, True, id="d1-fixed-cap-rejects"),
        pytest.param(1.0, 1, 20, True, id="d1-n-below-batch-rejects"),
        pytest.param(3.0, 2, 20000, True, id="d2-fixed-cap-rejects"),
        pytest.param(3.0, 20, 20000, False, id="d20"),
    ])
    def test_bitwise_equal_to_reference_loop(self, cap_factor, d, n, rejects, monkeypatch):
        monkeypatch.setattr(synthetic, "_CAP_FACTOR", cap_factor)
        spec = isotropic_covariates(d)
        rng_a, rng_b = derive_rng(3, "cov"), derive_rng(3, "cov")
        x = sample_covariates(spec, n, rng_a)
        ref = reference_sample_covariates(spec, n, rng_b)
        assert x.shape == (n, d) and x.flags.c_contiguous
        np.testing.assert_array_equal(x, ref)
        # the stream continues where the reference leaves it, so labels drawn
        # next from the same generator are unchanged too
        np.testing.assert_array_equal(rng_a.random(8), rng_b.random(8))
        # each case takes the path its name says: the first batch of max(n, 1000)
        # rows has a row outside the cap exactly in the rejecting cases
        first = derive_rng(3, "cov").standard_normal((max(n, 1000), d))
        assert (np.linalg.norm(first, axis=1).max() > spec.norm_cap) == rejects

    def test_mean_near_zero(self):
        spec = isotropic_covariates(2)
        x = sample_covariates(spec, 100_000, derive_rng(5, "cov"))
        assert np.abs(x.mean(axis=0)).max() < 0.02
        # rejection to a centered ball preserves symmetry: per-coordinate
        # mean within 3 standard errors of zero
        se = x.std(axis=0, ddof=1) / np.sqrt(x.shape[0])
        assert np.all(np.abs(x.mean(axis=0)) <= 3.0 * se)

    def test_norm_cap_enforced(self, monkeypatch):
        monkeypatch.setattr(synthetic, "_CAP_FACTOR", 1.0)
        spec = isotropic_covariates(6)
        assert spec.norm_cap == math.sqrt(6)
        x = sample_covariates(spec, 5000, derive_rng(6, "cov"))
        assert np.linalg.norm(x, axis=1).max() <= spec.norm_cap

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
        lam, _ = sym_spectral(emp - np.eye(5))
        assert max(abs(lam[0]), abs(lam[-1])) < 0.05 * 1.0


class TestSampleLabels:
    def test_uniform_marginal_under_zero_head(self):
        rng = derive_rng(10, "lab")
        k, n = 10, 100_000
        truth = make_ground_truth(6, 2, k, 2, 1.0, rng)
        x = sample_covariates(isotropic_covariates(6), n, rng)
        zero_head = LinearHead(np.zeros((2, k - 1)), 1.0)
        y = _sample_labels(truth.rep, zero_head, x, rng)
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
        y = _sample_labels(rep, head, x, rng)
        assert y[:, 1].mean() >= 1.0 - 1e-9

    def test_determinism(self):
        rng_a = derive_rng(12, "lab")
        rng_b = derive_rng(12, "lab")
        truth = make_ground_truth(5, 2, 6, 2, 1.0, derive_rng(13, "t"))
        x = sample_covariates(isotropic_covariates(5), 200, derive_rng(14, "c"))
        np.testing.assert_array_equal(
            _sample_labels(truth.rep, truth.pre_head, x, rng_a),
            _sample_labels(truth.rep, truth.pre_head, x, rng_b),
        )

    def test_truth_loss_matches_conditional_entropy(self):
        # loss of the generating model ~ conditional entropy of the labels
        rng = derive_rng(15, "ent")
        truth = make_ground_truth(8, 3, 12, 2, 2.0, rng)
        spec = isotropic_covariates(8)
        n = 100_000
        x = sample_covariates(spec, n, rng)
        y = _sample_labels(truth.rep, truth.pre_head, x, rng)
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
        save_dataset(path, ds)
        back = load_dataset(path)
        np.testing.assert_array_equal(back.x, ds.x)
        np.testing.assert_array_equal(back.y, ds.y)
        assert back.k == ds.k
        assert back.seed == "s16"

    def test_header_spec_token_of_an_older_file_is_ignored(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("# d=1 K=3 n=2 seed=s spec=d46a7b6ac17d\n0.5,1\n-2,3\n")
        back = load_dataset(path)
        np.testing.assert_array_equal(back.x, [[0.5], [-2.0]])
        np.testing.assert_array_equal(back.y, [[1.0, 0.0], [0.0, 0.0]])
        assert back.seed == "s"

    @staticmethod
    def _parent_rows(ds):
        """The data lines as the per-value loop before one format string wrote them."""
        labels = np.where(ds.y.sum(axis=1) > 0, ds.y.argmax(axis=1) + 1, ds.k)
        lines = []
        for row, lab in zip(ds.x, labels):
            lines.append(",".join(format(v, ".17g") for v in row) + f",{int(lab)}\n")
        return "".join(lines)

    @pytest.mark.parametrize("d", [1, 5])
    def test_bytes_equal_per_value_loop(self, tmp_path, d):
        rng = np.random.default_rng(d)
        special = [-0.0, 0.0, 3.0, -17.0, 1e300, -1e-300, 1e-300, 2.0**-1074, 0.1, 1 / 3]
        x = np.concatenate([
            np.resize(special, (len(special), d)),
            rng.integers(-1000, 1000, (30, d)).astype(float),
            rng.normal(0, 1, (30, d)),
        ])
        y = np.zeros((x.shape[0], 3))
        labels = rng.integers(0, 4, x.shape[0])
        y[labels < 3, labels[labels < 3]] = 1.0
        ds = LabeledDataset(x, y, 4, seed="s")
        path = tmp_path / "d.csv"
        save_dataset(path, ds)
        header, body = path.read_text().split("\n", 1)
        assert header == "# d=%d K=4 n=70 seed=s" % d
        assert body == self._parent_rows(ds)
        assert body.startswith("-0,") and "e+300," in body and "e-300," in body

    @staticmethod
    def _per_value_rows(path):
        """The data rows as the per-value loop before the vectorized parse read them."""
        with open(path) as fh:
            d = int(dict(t.split("=", 1) for t in fh.readline().split()[1:])["d"])
            xs, labels = [], []
            for line in fh:
                parts = line.split(",")
                xs.append([float(v) for v in parts[:-1]])
                labels.append(int(parts[-1]))
        return np.array(xs).reshape(len(xs), d), np.array(labels, dtype=np.int64)

    @pytest.mark.parametrize("d", [1, 5])
    def test_parse_bitwise_equal_per_value_loop(self, tmp_path, d):
        rng = np.random.default_rng(10 + d)
        special = [-0.0, 0.0, 1e-300, -1e-300, 5e-324, -5e-324, 2.2250738585072014e-308,
                   1.7976931348623157e308, 0.1, 1 / 3]
        x = np.concatenate([np.resize(special, (len(special), d)),
                            rng.normal(0, 1, (40, d)) * 10.0 ** rng.integers(-20, 20, (40, d))])
        labels = rng.integers(1, 5, x.shape[0])
        path = tmp_path / "d.csv"
        save_dataset(path, LabeledDataset(x, np.eye(4)[labels - 1, :-1], 4))
        # plus a row of hand-written spellings that float() and int() accept
        extra = ["-0.000", " 1E-320", "+7", "4.9406564584124654e-324", "-1e+308"][:d]
        path.write_text(path.read_text().replace(" n=50 ", " n=51 ", 1)
                        + ",".join(extra) + ", +2\n")
        back = load_dataset(path)
        ref_x, ref_labels = self._per_value_rows(path)
        assert back.x.dtype == np.float64 and back.x.flags["C_CONTIGUOUS"]
        np.testing.assert_array_equal(back.x.view(np.int64), ref_x.view(np.int64))
        np.testing.assert_array_equal(back.y, np.eye(4)[ref_labels - 1, :-1])
        flat = back.x.ravel()
        assert np.signbit(flat[flat == 0.0]).any() and (flat == 5e-324).any()

    @pytest.mark.parametrize("body, x, labels", [
        pytest.param("1_0,2\n3,1\n", [[10.0], [3.0]], [2, 1], id="underscore"),
        pytest.param("0.5,1\n-2,2", [[0.5], [-2.0]], [1, 2], id="no-final-newline"),
    ])
    def test_per_line_parse_reads_what_the_vectorized_parse_rejects(self, tmp_path, body,
                                                                     x, labels):
        path = tmp_path / "d.csv"
        path.write_text("# d=1 K=3 n=2\n" + body)
        back = load_dataset(path)
        np.testing.assert_array_equal(back.x, x)
        np.testing.assert_array_equal(back.y, np.eye(3)[np.array(labels) - 1, :-1])

    def test_empty_body_loads_without_warning(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("# d=3 K=2 n=0\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            back = load_dataset(path)
        assert back.x.shape == (0, 3) and back.y.shape == (0, 1)

    @pytest.mark.parametrize("body, message", [
        pytest.param("0.5,1\n\n2,3\n", "line 3 has 1 fields", id="blank-line"),
        pytest.param("0.5,1.0\n2,3\n", "line 2: invalid literal for int()", id="float-label"),
        pytest.param("0.5,1\n# note\n", "line 3 has 1 fields", id="comment-line"),
        pytest.param("0.5,1\n2,0\n", "line 3: label 0 outside 1..3", id="label-range"),
    ])
    def test_malformed_body_names_file_and_line(self, tmp_path, body, message):
        path = tmp_path / "d.csv"
        path.write_text("# d=1 K=3 n=2\n" + body)
        with pytest.raises(ContractViolation, match=f"{path.name} {message}"):
            load_dataset(path)

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
        path = tmp_path / "truth.json"
        save_truth(path, truth)
        assert list(json.loads(path.read_text())) == ["rep", "pre_head", "down_head"]
        back = load_truth(path)
        assert isinstance(back, GroundTruth)
        np.testing.assert_array_equal(back.rep.b, truth.rep.b)
        np.testing.assert_array_equal(back.pre_head.alpha, truth.pre_head.alpha)
        np.testing.assert_array_equal(back.down_head.alpha, truth.down_head.alpha)

    @pytest.mark.parametrize("section", [
        pytest.param({"sigma": np.eye(20).tolist(), "norm_cap": 3.0 * math.sqrt(20),
                      "sigma_min": 1.0, "sigma_max": 1.0}, id="as-written-before"),
        # a 19 x 19 sigma beside a d = 20 frame used to load, and diagnose
        # failed only after the draw
        pytest.param({"sigma": np.eye(19).tolist(), "norm_cap": 3.0 * math.sqrt(20),
                      "sigma_min": 1.0, "sigma_max": 1.0}, id="sigma-cut"),
        pytest.param({"sigma": "abc", "norm_cap": "5", "sigma_min": None}, id="malformed"),
        pytest.param({}, id="empty"),
    ])
    def test_covariates_section_of_an_older_file_is_ignored(self, tmp_path, section):
        truth = make_ground_truth(20, 3, 30, 2, 1.0, derive_rng(18, "io"))
        path = tmp_path / "truth.json"
        save_truth(path, truth)
        plain = load_truth(path)
        path.write_text(json.dumps({**json.loads(path.read_text()), "covariates": section}))
        back = load_truth(path)
        np.testing.assert_array_equal(back.rep.b, plain.rep.b)
        for role in ("pre_head", "down_head"):
            np.testing.assert_array_equal(getattr(back, role).alpha, getattr(plain, role).alpha)
            assert getattr(back, role).column_cap == getattr(plain, role).column_cap
