"""Hypothesis spaces: representations, linear heads, and their constraints.

Two representation families are supported. ``SubspaceRep`` maps
``x -> B^T x`` through a d x r matrix with orthonormal columns;
``MlpRep`` is a tanh multilayer map whose hidden layers are capped in the
max-absolute-row-sum norm and whose output layer is capped in the
infinity-to-2 operator norm (enforced through the column-norm-sum upper
bound, which certifies the true operator norm). Heads are linear maps
``z -> alpha^T z`` with per-column Euclidean norm caps.

Values are immutable after construction; all operations are pure.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .errors import ContractViolation
from .linalg import as_matrix, singular_values, sym_spectral

__all__ = [
    "SubspaceRep",
    "MlpRep",
    "LinearHead",
    "diversity_parameter",
    "cap_columns",
    "cap_mlp_weights",
    "principal_angles",
    "row_sum_norm",
    "output_norm_bound",
    "component_to_payload",
    "component_from_payload",
    "save_bundle",
    "load_bundle",
]

_ORTHO_TOL = 1e-8


def row_sum_norm(w: np.ndarray) -> float:
    """Max absolute row sum, the (1, inf) norm used for hidden layers."""
    return float(np.abs(w).sum(axis=1).max())


def output_norm_bound(w: np.ndarray) -> float:
    """Column-norm sum: certified upper bound on the inf-to-2 operator norm."""
    return float(np.linalg.norm(w, axis=0).sum())


@dataclass(frozen=True)
class SubspaceRep:
    """Orthonormal-subspace representation h(x) = B^T x."""

    b: np.ndarray

    def __post_init__(self):
        b = as_matrix(self.b, "subspace basis")
        d, r = b.shape
        if r < 1 or d < r:
            raise ContractViolation(f"need d >= r >= 1, got {b.shape}")
        defect = np.linalg.norm(b.T @ b - np.eye(r))
        if defect > _ORTHO_TOL:
            raise ContractViolation(f"columns not orthonormal: defect {defect:.3e}")
        object.__setattr__(self, "b", b)

    @property
    def input_dim(self) -> int:
        return self.b.shape[0]

    @property
    def embed_dim(self) -> int:
        return self.b.shape[1]

    def apply(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        if x.shape[-1] != self.input_dim:
            raise ContractViolation(
                f"input dim {x.shape[-1]} != representation dim {self.input_dim}"
            )
        return x @ self.b


@dataclass(frozen=True)
class MlpRep:
    """tanh network h(x) = W_L tanh(W_{L-1} ... tanh(W_1 x))."""

    weights: tuple[np.ndarray, ...]
    caps: tuple[float, ...]

    def __post_init__(self):
        ws = tuple(as_matrix(w, f"layer {p}") for p, w in enumerate(self.weights))
        caps = tuple(float(c) for c in self.caps)
        if len(ws) < 1 or len(caps) != len(ws):
            raise ContractViolation("need one positive cap per layer")
        if any(c <= 0 for c in caps):
            raise ContractViolation("layer norm caps must be positive")
        for p in range(len(ws) - 1):
            if ws[p + 1].shape[1] != ws[p].shape[0]:
                raise ContractViolation(f"layer {p + 1} input does not match layer {p}")
            if row_sum_norm(ws[p]) > caps[p] * (1 + 1e-10):
                raise ContractViolation(f"hidden layer {p} exceeds its row-sum cap")
        if output_norm_bound(ws[-1]) > caps[-1] * (1 + 1e-10):
            raise ContractViolation("output layer exceeds its operator-norm cap")
        object.__setattr__(self, "weights", ws)
        object.__setattr__(self, "caps", caps)

    @property
    def input_dim(self) -> int:
        return self.weights[0].shape[1]

    @property
    def embed_dim(self) -> int:
        return self.weights[-1].shape[0]

    def apply(self, x: np.ndarray) -> np.ndarray:
        a = np.asarray(x, dtype=np.float64)
        if a.shape[-1] != self.input_dim:
            raise ContractViolation(
                f"input dim {a.shape[-1]} != representation dim {self.input_dim}"
            )
        for w in self.weights[:-1]:
            a = np.tanh(a @ w.T)
        return a @ self.weights[-1].T


Representation = SubspaceRep | MlpRep


@dataclass(frozen=True)
class LinearHead:
    """Linear predictor f(z) = alpha^T z with per-column norm caps."""

    alpha: np.ndarray
    column_cap: float

    def __post_init__(self):
        a = as_matrix(self.alpha, "head matrix")
        cap = float(self.column_cap)
        if cap <= 0:
            raise ContractViolation("column cap must be positive")
        norms = np.linalg.norm(a, axis=0)
        if norms.size and norms.max() > cap * (1 + 1e-10):
            raise ContractViolation(
                f"column norm {norms.max():.6e} exceeds cap {cap:.6e}"
            )
        object.__setattr__(self, "alpha", a)
        object.__setattr__(self, "column_cap", cap)

    @property
    def embed_dim(self) -> int:
        return self.alpha.shape[0]

    @property
    def n_logits(self) -> int:
        return self.alpha.shape[1]


def diversity_parameter(head) -> float:
    """Least eigenvalue sigma_r of alpha alpha^T for an r x (K-1) head.

    ``head`` is a ``LinearHead`` or its bare matrix.
    """
    alpha = head.alpha if isinstance(head, LinearHead) else np.asarray(head, float)
    if alpha.ndim != 2 or min(alpha.shape) < 1:
        raise ContractViolation("head matrix must be 2-D and nonempty")
    lam, _ = sym_spectral(alpha @ alpha.T)
    return float(max(lam[-1], 0.0))


def cap_columns(alpha: np.ndarray, cap: float) -> np.ndarray:
    """Rescale columns with norm above ``cap`` down to exactly ``cap``."""
    norms = np.linalg.norm(alpha, axis=0)
    scale = np.ones_like(norms)
    over = norms > cap
    scale[over] = cap / norms[over]
    return alpha * scale


def cap_mlp_weights(
    weights: list[np.ndarray], caps: tuple[float, ...]
) -> list[np.ndarray]:
    """Rescale layers back inside their norm caps after a gradient step.

    Hidden layers are rescaled row-wise against the row-sum cap; the
    output layer is rescaled globally against its operator-norm bound.
    """
    out = []
    for p, w in enumerate(weights[:-1]):
        rows = np.abs(w).sum(axis=1)
        scale = np.minimum(1.0, caps[p] / np.maximum(rows, 1e-300))
        out.append(w * scale[:, None])
    w_last = weights[-1]
    bound = output_norm_bound(w_last)
    if bound > caps[-1]:
        w_last = w_last * (caps[-1] / bound)
    out.append(w_last)
    return out


def principal_angles(rep1: SubspaceRep, rep2: SubspaceRep) -> np.ndarray:
    """Principal angles between the two column spans, ascending, radians."""
    if rep1.b.shape != rep2.b.shape:
        raise ContractViolation(
            f"shape mismatch {rep1.b.shape} vs {rep2.b.shape}"
        )
    # singular values are descending, so the arccos comes out ascending
    cosines = np.clip(singular_values(rep1.b.T @ rep2.b), 0.0, 1.0)
    return np.arccos(cosines)


# --- serialization ---------------------------------------------------------
#
# JSON container; floats survive the round trip exactly (shortest repr).


def component_to_payload(obj) -> dict:
    if isinstance(obj, SubspaceRep):
        return {
            "kind": "subspace",
            "d": obj.input_dim,
            "r": obj.embed_dim,
            "entries": obj.b.tolist(),
        }
    if isinstance(obj, MlpRep):
        return {
            "kind": "mlp",
            "caps": list(obj.caps),
            "layers": [w.tolist() for w in obj.weights],
        }
    if isinstance(obj, LinearHead):
        return {
            "kind": "linear_head",
            "r": obj.embed_dim,
            "n_logits": obj.n_logits,
            "column_cap": obj.column_cap,
            "entries": obj.alpha.tolist(),
        }
    raise ContractViolation(f"cannot serialize {type(obj).__name__}")


def component_from_payload(payload: dict):
    kind = payload.get("kind")
    if kind == "subspace":
        return SubspaceRep(np.array(payload["entries"], dtype=np.float64))
    if kind == "mlp":
        return MlpRep(
            tuple(np.array(w, dtype=np.float64) for w in payload["layers"]),
            tuple(payload["caps"]),
        )
    if kind == "linear_head":
        return LinearHead(
            np.array(payload["entries"], dtype=np.float64), payload["column_cap"]
        )
    raise ContractViolation(f"unknown model kind {kind!r}")


def save_bundle(path, components: dict) -> None:
    """Write a named set of models to a self-describing JSON file."""
    doc = {name: component_to_payload(obj) for name, obj in components.items()}
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1)


def load_bundle(path) -> dict:
    with open(path) as fh:
        doc = json.load(fh)
    return {name: component_from_payload(payload) for name, payload in doc.items()}
