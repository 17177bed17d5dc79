"""Hypothesis-space contracts: representations, heads, retraction, angles."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from transferlab.errors import ContractViolation, DegenerateInput
from transferlab.linalg import orthonormalize
from transferlab.model_space import (
    LinearHead,
    MlpRep,
    SubspaceRep,
    cap_columns,
    cap_mlp_weights,
    load_bundle,
    output_norm_bound,
    principal_angles,
    row_sum_norm,
    save_bundle,
)


def sampled_extreme_angles(b1, b2, draws=20000, seed=0):
    """Sampling oracle for the largest/smallest principal angle.

    Draws unit vectors in span(b1) and measures their angle to span(b2)
    through the projection norm; the max/min over draws brackets the
    extreme principal angles.
    """
    rng = np.random.default_rng(seed)
    coeff = rng.standard_normal((draws, b1.shape[1]))
    coeff /= np.linalg.norm(coeff, axis=1, keepdims=True)
    u = coeff @ b1.T
    cosines = np.clip(np.linalg.norm(u @ b2, axis=1), 0.0, 1.0)
    angles = np.arccos(cosines)
    return float(angles.min()), float(angles.max())


class TestSubspaceRep:
    def test_identity_block(self):
        b = np.zeros((6, 3))
        b[:3, :3] = np.eye(3)
        rep = SubspaceRep(b)
        x = np.array([1.0, 2.0, 3.0, 9.0, 9.0, 9.0])
        np.testing.assert_allclose(rep.apply(x), [1.0, 2.0, 3.0])

    def test_projection_contraction(self):
        rng = np.random.default_rng(0)
        rep = SubspaceRep(orthonormalize(rng.standard_normal((8, 3))))
        for _ in range(100):
            x = rng.standard_normal(8) * 5
            assert np.linalg.norm(rep.apply(x)) <= np.linalg.norm(x) + 1e-12

    def test_batch_matches_single(self):
        rng = np.random.default_rng(1)
        rep = SubspaceRep(orthonormalize(rng.standard_normal((5, 2))))
        xs = rng.standard_normal((7, 5))
        batch = rep.apply(xs)
        for i in range(7):
            np.testing.assert_allclose(batch[i], rep.apply(xs[i]))

    def test_non_orthonormal_rejected(self):
        with pytest.raises(ContractViolation):
            SubspaceRep(np.ones((4, 2)))

    def test_dimension_mismatch(self):
        rep = SubspaceRep(np.eye(4)[:, :2])
        with pytest.raises(ContractViolation):
            rep.apply(np.ones(5))


class TestMlpRep:
    def test_zero_weights_zero_embedding(self):
        rep = MlpRep((np.zeros((4, 6)), np.zeros((2, 4))), (1.0, 1.0))
        x = np.random.default_rng(2).standard_normal(6)
        np.testing.assert_allclose(rep.apply(x), np.zeros(2))

    def test_output_norm_capped(self):
        rng = np.random.default_rng(3)
        w1 = rng.standard_normal((5, 4))
        w2 = rng.standard_normal((3, 5))
        caps = (row_sum_norm(w1), output_norm_bound(w2))
        rep = MlpRep((w1, w2), caps)
        for _ in range(50):
            x = rng.standard_normal(4) * 100  # tanh saturates, inputs unbounded
            assert np.linalg.norm(rep.apply(x)) <= caps[-1] + 1e-12

    def test_cap_violation_rejected(self):
        w = np.ones((2, 3))
        with pytest.raises(ContractViolation):
            MlpRep((w, np.ones((1, 2))), (row_sum_norm(w) * 0.5, 10.0))

    def test_cap_rescaling(self):
        rng = np.random.default_rng(4)
        weights = [rng.standard_normal((4, 3)) * 10, rng.standard_normal((2, 4)) * 10]
        caps = (1.5, 2.0)
        capped = cap_mlp_weights(weights, caps)
        assert row_sum_norm(capped[0]) <= caps[0] * (1 + 1e-12)
        assert output_norm_bound(capped[1]) <= caps[1] * (1 + 1e-12)
        MlpRep(tuple(capped), caps)  # must validate


class TestLinearHead:
    def test_zero_head(self):
        head = LinearHead(np.zeros((3, 4)), 1.0)
        np.testing.assert_allclose(np.ones(3) @ head.alpha, np.zeros(4))

    def test_coordinate_pick(self):
        alpha = np.zeros((3, 2))
        alpha[0, 0] = 1.0
        alpha[1, 1] = 1.0
        head = LinearHead(alpha, 1.0)
        z = np.array([0.3, -0.7, 5.0])
        np.testing.assert_allclose(z @ head.alpha, [0.3, -0.7])

    def test_cauchy_schwarz_bound(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            r, km1 = 4, 6
            cap = 0.8
            alpha = rng.standard_normal((r, km1))
            alpha = alpha / np.linalg.norm(alpha, axis=0) * cap
            head = LinearHead(alpha, cap)
            z = rng.standard_normal(r) * 3
            eta = z @ head.alpha
            assert np.linalg.norm(eta) <= math.sqrt(km1) * cap * np.linalg.norm(z) + 1e-12

    def test_column_cap_validated(self):
        with pytest.raises(ContractViolation):
            LinearHead(np.eye(2) * 3.0, 1.0)


class TestProjectHead:
    # projection of a head onto the per-column norm ball is cap_columns
    def test_within_cap_untouched(self):
        alpha = np.array([[0.3, 0.0], [0.0, 0.4]])
        np.testing.assert_array_equal(cap_columns(alpha, 1.0), alpha)

    def test_oversized_column_rescaled(self):
        got = cap_columns(np.array([[2.0], [0.0]]), 1.0)
        np.testing.assert_allclose(got, [[1.0], [0.0]], atol=1e-15)

    def test_idempotent(self):
        rng = np.random.default_rng(6)
        for _ in range(50):
            once = cap_columns(rng.standard_normal((3, 5)) * 2, 0.7)
            twice = cap_columns(once, 0.7)
            np.testing.assert_allclose(twice, once, atol=1e-15)
            LinearHead(once, 0.7)  # the projection is a valid head

    @given(
        st.lists(st.floats(-50, 50), min_size=6, max_size=6),
        st.floats(0.05, 3.0),
    )
    @settings(max_examples=150, deadline=None)
    def test_projection_properties_hold_generally(self, entries, cap):
        alpha = np.array(entries).reshape(3, 2)
        capped = cap_columns(alpha, cap)
        norms = np.linalg.norm(capped, axis=0)
        assert norms.max() <= cap * (1 + 1e-12)
        np.testing.assert_allclose(cap_columns(capped, cap), capped, atol=1e-15)
        # columns already inside the ball are untouched
        inside = np.linalg.norm(alpha, axis=0) <= cap
        np.testing.assert_array_equal(capped[:, inside], alpha[:, inside])


class TestStiefelRetract:
    # stage one retracts a stepped frame onto the orthonormal frames
    # with orthonormalize
    def test_orthonormal_fixed_point(self):
        rng = np.random.default_rng(7)
        b = orthonormalize(rng.standard_normal((6, 3)))
        np.testing.assert_allclose(orthonormalize(b), b, atol=1e-13)
        np.testing.assert_allclose(orthonormalize(b + 0.0), b, atol=1e-13)

    def test_first_order_retraction(self):
        # distance to the stepped point shrinks like step^2 along tangents
        rng = np.random.default_rng(8)
        b = orthonormalize(rng.standard_normal((7, 3)))
        g = rng.standard_normal((7, 3))
        btg = b.T @ g
        tangent = g - b @ (0.5 * (btg + btg.T))
        errs = []
        for t in (1e-2, 5e-3, 2.5e-3):
            stepped = b + t * tangent
            errs.append(np.linalg.norm(orthonormalize(stepped) - stepped))
        assert errs[0] <= 10 * (1e-2) ** 2 * np.linalg.norm(tangent) ** 2
        # halving the step cuts the defect by about four
        assert errs[1] <= errs[0] / 3.0
        assert errs[2] <= errs[1] / 3.0

    def test_rank_deficient_step_rejected(self):
        with pytest.raises(DegenerateInput):
            orthonormalize(np.ones((4, 2)))


class TestPrincipalAngles:
    def test_same_span_zero(self):
        rng = np.random.default_rng(9)
        rep = SubspaceRep(orthonormalize(rng.standard_normal((5, 2))))
        np.testing.assert_allclose(principal_angles(rep, rep), [0.0, 0.0], atol=1e-7)

    def test_orthogonal_lines(self):
        e1 = SubspaceRep(np.array([[1.0], [0.0]]))
        e2 = SubspaceRep(np.array([[0.0], [1.0]]))
        np.testing.assert_allclose(principal_angles(e1, e2), [math.pi / 2], atol=1e-12)

    def test_matches_sampling_oracle(self):
        rng = np.random.default_rng(10)
        b1 = orthonormalize(rng.standard_normal((6, 2)))
        b2 = orthonormalize(rng.standard_normal((6, 2)))
        angles = principal_angles(SubspaceRep(b1), SubspaceRep(b2))
        lo, hi = sampled_extreme_angles(b1, b2)
        assert angles[0] == pytest.approx(lo, abs=1e-2)
        assert angles[-1] == pytest.approx(hi, abs=1e-2)
        assert np.all(np.diff(angles) >= -1e-12)


class TestSerialization:
    def test_subspace_roundtrip_exact(self, tmp_path):
        rng = np.random.default_rng(11)
        rep = SubspaceRep(orthonormalize(rng.standard_normal((5, 3))))
        path = tmp_path / "model.json"
        save_bundle(path, {"rep": rep})
        back = load_bundle(path)["rep"]
        np.testing.assert_array_equal(back.b, rep.b)

    def test_mlp_and_head_roundtrip_exact(self, tmp_path):
        rng = np.random.default_rng(12)
        w1 = rng.standard_normal((4, 3)) / 3
        w2 = rng.standard_normal((2, 4)) / 3
        rep = MlpRep((w1, w2), (5.0, 5.0))
        head = LinearHead(rng.standard_normal((2, 4)) / 3, 1.0)
        path = tmp_path / "bundle.json"
        save_bundle(path, {"rep": rep, "head": head})
        back = load_bundle(path)
        np.testing.assert_array_equal(back["rep"].weights[0], w1)
        np.testing.assert_array_equal(back["rep"].weights[1], w2)
        np.testing.assert_array_equal(back["head"].alpha, head.alpha)
        assert back["head"].column_cap == head.column_cap

    def test_stray_output_cap_key_ignored(self, tmp_path):
        # bundles written before heads lost their output cap still load
        head = LinearHead(np.eye(2) * 0.5, 1.0)
        path = tmp_path / "old.json"
        save_bundle(path, {"head": head})
        doc = json.loads(path.read_text())
        doc["head"]["output_cap"] = None
        path.write_text(json.dumps(doc))
        np.testing.assert_array_equal(load_bundle(path)["head"].alpha, head.alpha)
