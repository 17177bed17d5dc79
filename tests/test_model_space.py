"""Hypothesis-space contracts: representations, heads, retraction, angles."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from transferlab.erm import loss_and_grad
from transferlab.errors import ContractViolation, DegenerateInput
from transferlab.linalg import orthonormalize
from transferlab.model_space import (
    LinearHead,
    SubspaceRep,
    cap_columns,
    component_from_payload,
    load_bundle,
    principal_angles,
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
        with pytest.raises(ContractViolation):
            component_from_payload({"kind": "subspace", "entries": [[1.0, 1.0], [0.0, 1.0]]})

    def test_dimension_mismatch(self):
        rep = SubspaceRep(np.eye(4)[:, :2])
        with pytest.raises(ContractViolation):
            rep.apply(np.ones(5))
        with pytest.raises(ContractViolation, match="input dim 5"):
            loss_and_grad(rep, LinearHead(np.zeros((2, 2)), 1.0), np.ones((3, 5)),
                          np.zeros((3, 2)))


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

    @pytest.mark.parametrize("cap", [0.0, -1.0, math.nan, math.inf])
    def test_cap_must_be_finite_and_positive(self, cap):
        with pytest.raises(ContractViolation, match="finite number > 0"):
            LinearHead(np.zeros((2, 3)), cap)


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

    def test_wider_frame_containing_the_other(self):
        # a 4-frame that contains a 3-frame: min(3, 4) angles, all zero up
        # to the arccos of a rounded 1
        rng = np.random.default_rng(11)
        b4 = orthonormalize(rng.standard_normal((7, 4)))
        b3 = b4[:, :3] @ orthonormalize(rng.standard_normal((3, 3)))
        for pair in ((b4, b3), (b3, b4)):
            angles = principal_angles(*map(SubspaceRep, pair))
            assert angles.shape == (3,)
            assert np.all(angles <= 1e-7)

    def test_input_dimension_mismatch(self):
        with pytest.raises(ContractViolation, match="input dimension"):
            principal_angles(SubspaceRep(np.eye(3)[:, :2]), SubspaceRep(np.eye(4)[:, :2]))

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

    def test_head_roundtrip_exact(self, tmp_path):
        head = LinearHead(np.random.default_rng(12).standard_normal((2, 4)) / 3, 1.0)
        path = tmp_path / "bundle.json"
        save_bundle(path, {"head": head})
        back = load_bundle(path)["head"]
        np.testing.assert_array_equal(back.alpha, head.alpha)
        assert back.column_cap == head.column_cap

    def test_stray_output_cap_key_ignored(self, tmp_path):
        # bundles written before heads lost their output cap still load
        head = LinearHead(np.eye(2) * 0.5, 1.0)
        path = tmp_path / "old.json"
        save_bundle(path, {"head": head})
        doc = json.loads(path.read_text())
        doc["head"]["output_cap"] = None
        path.write_text(json.dumps(doc))
        np.testing.assert_array_equal(load_bundle(path)["head"].alpha, head.alpha)
