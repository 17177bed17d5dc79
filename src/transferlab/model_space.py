"""Hypothesis spaces: representations, linear heads, and their constraints.

The representation ``SubspaceRep`` maps ``x -> B^T x`` through a d x r
matrix with orthonormal columns; heads are linear maps ``z -> alpha^T z``
with per-column Euclidean norm caps.

Values are immutable after construction; all operations are pure.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import ContractViolation, require_keys, require_numbers
from .linalg import as_matrix, orthonormalize, singular_values, sym_spectral

__all__ = [
    "SubspaceRep",
    "LinearHead",
    "diversity_parameter",
    "cap_columns",
    "principal_angles",
    "component_to_payload",
    "component_from_payload",
    "save_bundle",
    "load_bundle",
]

_ORTHO_TOL = 1e-8


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

    @classmethod
    def random(cls, d: int, r: int, rng: np.random.Generator) -> "SubspaceRep":
        """Uniformly random orthonormal d x r frame."""
        return cls(orthonormalize(rng.standard_normal((d, r))))

    def apply(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        if x.shape[-1] != self.input_dim:
            raise ContractViolation(
                f"input dim {x.shape[-1]} != representation dim {self.input_dim}")
        return x @ self.b


@dataclass(frozen=True)
class LinearHead:
    """Linear predictor f(z) = alpha^T z with per-column norm caps."""

    alpha: np.ndarray
    column_cap: float

    def __post_init__(self):
        a = as_matrix(self.alpha, "head matrix")
        cap = float(self.column_cap)
        if not (math.isfinite(cap) and cap > 0):
            raise ContractViolation(f"column cap must be a finite number > 0, got {cap}")
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

    ``head`` is a ``LinearHead`` or its bare matrix. With r > K-1 the Gram's
    rank is below r, so the value is exactly 0.0, with no eigendecomposition.
    """
    alpha = head.alpha if isinstance(head, LinearHead) else np.asarray(head, float)
    if alpha.ndim != 2 or min(alpha.shape) < 1:
        raise ContractViolation("head matrix must be 2-D and nonempty")
    if alpha.shape[0] > alpha.shape[1]:
        return 0.0
    lam, _ = sym_spectral(alpha @ alpha.T)
    return float(max(lam[-1], 0.0))


def cap_columns(alpha: np.ndarray, cap: float) -> np.ndarray:
    """Rescale columns with norm above ``cap`` down to exactly ``cap``."""
    norms = np.linalg.norm(alpha, axis=0)
    scale = np.ones_like(norms)
    over = norms > cap
    scale[over] = cap / norms[over]
    return alpha * scale


def principal_angles(rep1: SubspaceRep, rep2: SubspaceRep) -> np.ndarray:
    """Principal angles between the two column spans, ascending, radians.

    There are min(r1, r2) of them: the frames may differ in width but must
    share the input dimension d.
    """
    if rep1.input_dim != rep2.input_dim:
        raise ContractViolation(
            f"input dimension mismatch {rep1.b.shape} vs {rep2.b.shape}"
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
    if isinstance(obj, LinearHead):
        return {
            "kind": "linear_head",
            "r": obj.embed_dim,
            "n_logits": obj.n_logits,
            "column_cap": obj.column_cap,
            "entries": obj.alpha.tolist(),
        }
    raise ContractViolation(f"cannot serialize {type(obj).__name__}")


def _matrix(value, what: str) -> np.ndarray:
    return np.array(require_numbers(value, 2, what), dtype=np.float64)


# the payload kind each named component of a bundle or truth file must have
_ROLE_KINDS = {"rep": "subspace", "pre_head": "linear_head", "down_head": "linear_head"}


def component_from_payload(payload: dict, role: str | None = None):
    """The model a payload describes; a ``role`` ("rep", "pre_head" or
    "down_head") requires the payload kind that role needs."""
    kind = payload.get("kind") if isinstance(payload, dict) else None
    if kind not in ("subspace", "linear_head"):
        raise ContractViolation(f"unknown model kind {kind!r}")
    want = _ROLE_KINDS.get(role, kind)
    if kind != want:
        raise ContractViolation(
            f"model component {role!r} must be a {want!r} payload, got {kind!r}")
    if kind == "subspace":
        require_keys(payload, ("entries",), "subspace payload")
        return SubspaceRep(_matrix(payload["entries"], "subspace entries"))
    require_keys(payload, ("entries", "column_cap"), "linear_head payload")
    return LinearHead(
        _matrix(payload["entries"], "linear_head entries"),
        require_numbers(payload["column_cap"], 0, "linear_head column_cap"),
    )


def save_bundle(path, components: dict) -> None:
    """Write a named set of models to a self-describing JSON file."""
    doc = {name: component_to_payload(obj) for name, obj in components.items()}
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1)


def load_bundle(path) -> dict:
    """Read a ``save_bundle`` file; every head must act on the ``rep``'s embeddings."""
    with open(path) as fh:
        doc = json.load(fh)
    require_keys(doc, (), f"model bundle {path}")
    bundle = {name: component_from_payload(payload, name) for name, payload in doc.items()}
    r = bundle["rep"].embed_dim if "rep" in bundle else None
    for name, head in bundle.items():
        if isinstance(head, LinearHead) and r is not None and head.embed_dim != r:
            raise ContractViolation(
                f"model bundle {path}: {name!r} has r = {head.embed_dim}, "
                f"but 'rep' has r = {r}")
    return bundle
