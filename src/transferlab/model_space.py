"""Hypothesis spaces: representations, linear heads, and their constraints.

Two representation families are supported. ``SubspaceRep`` maps
``x -> B^T x`` through a d x r matrix with orthonormal columns;
``MlpRep`` is a tanh multilayer map whose hidden layers are capped in the
max-absolute-row-sum norm and whose output layer is capped in the
infinity-to-2 operator norm (enforced through the column-norm-sum upper
bound, which certifies the true operator norm). Heads are linear maps
``z -> alpha^T z`` with per-column Euclidean norm caps.

Each representation family owns its training geometry on class-major
(one column per sample) blocks: ``forward`` ((r, n) embeddings plus the
cache ``grad`` needs), ``label_terms`` (the targets' part, formed once per
fit), ``label_stat`` (z^T T / n), ``grad`` (parameter gradient),
``descent`` (stationarity norm, secant gradient and the constrained step
map) and ``coords`` (the parameters as one array, paired with the secant
gradient for Barzilai-Borwein initial steps).

Values are immutable after construction; all operations are pure.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .errors import ContractViolation, require_keys, require_numbers
from .linalg import as_matrix, orthonormalize, singular_values, sym_spectral

__all__ = [
    "SubspaceRep",
    "MlpRep",
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


def _as_input(x, dim: int, axis: int = -1) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    if x.shape[axis] != dim:
        raise ContractViolation(f"input dim {x.shape[axis]} != representation dim {dim}")
    return x


def _row_sum_norm(w: np.ndarray) -> float:
    """Max absolute row sum, the (1, inf) norm used for hidden layers."""
    return float(np.abs(w).sum(axis=1).max())


def _output_norm_bound(w: np.ndarray) -> float:
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

    @classmethod
    def _trusted(cls, b: np.ndarray) -> "SubspaceRep":
        """Wrap a frame ``orthonormalize`` just made, skipping the re-validation."""
        rep = object.__new__(cls)
        object.__setattr__(rep, "b", b)
        return rep

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

    def forward(self, xt: np.ndarray) -> tuple[np.ndarray, None]:
        """Embeddings B^T x of a (d, n) block; a subspace keeps no cache for ``grad``."""
        return self.b.T @ _as_input(xt, self.input_dim, 0), None

    def apply(self, x: np.ndarray) -> np.ndarray:
        return _as_input(x, self.input_dim) @ self.b

    @staticmethod
    def label_terms(xt: np.ndarray, targets: np.ndarray) -> np.ndarray:
        """S = x^T T / n, (d, K-1): every frame's label terms on this data."""
        return xt @ targets / xt.shape[1]

    def label_stat(self, zt: np.ndarray, s: np.ndarray) -> np.ndarray:
        """z^T T / n = B^T S, with no pass over the samples."""
        return self.b.T @ s

    def grad(self, xt: np.ndarray, cache, a: np.ndarray, alpha: np.ndarray,
             s: np.ndarray) -> np.ndarray:
        """Mean-loss gradient w.r.t. B, x (a - alpha T^T)^T / n = x a^T / n - S alpha^T,
        from the (r, n) softmax part ``a`` = alpha P of the gradient at z."""
        return xt @ a.T / xt.shape[1] - s @ alpha.T

    @property
    def coords(self) -> np.ndarray:
        """The frame B, the point of a Barzilai-Borwein secant pair."""
        return self.b

    def descent(self, grad: np.ndarray):
        """Riemannian gradient norm, secant gradient, and the QR-retracted step map.

        s -> (frame of B - s * riem, squared move); riem is ``grad``
        projected onto the tangent space of the orthonormal frames at B.
        The secant gradient paired with ``coords`` is the ambient ``grad``,
        not riem (Wen and Yin 2013): it took fewer line-search trials on
        the benchmark workloads.
        """
        b = self.b
        btg = b.T @ grad
        riem = grad - b @ (0.5 * (btg + btg.T))

        def step(s):
            cand = orthonormalize(b - s * riem)
            diff = cand - b
            return SubspaceRep._trusted(cand), float((diff * diff).sum())

        return float(np.linalg.norm(riem)), grad, step


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
            if _row_sum_norm(ws[p]) > caps[p] * (1 + 1e-10):
                raise ContractViolation(f"hidden layer {p} exceeds its row-sum cap")
        if _output_norm_bound(ws[-1]) > caps[-1] * (1 + 1e-10):
            raise ContractViolation("output layer exceeds its operator-norm cap")
        object.__setattr__(self, "weights", ws)
        object.__setattr__(self, "caps", caps)

    @property
    def input_dim(self) -> int:
        return self.weights[0].shape[1]

    @property
    def embed_dim(self) -> int:
        return self.weights[-1].shape[0]

    @classmethod
    def random(cls, d: int, widths: tuple[int, ...], caps: tuple[float, ...],
               rng: np.random.Generator) -> "MlpRep":
        """Gaussian layers scaled by 1/sqrt(fan-in), projected onto the caps.

        ``widths`` are the layer output widths, the embedding width last.
        """
        fan_in = (d, *widths[:-1])
        weights = [
            rng.standard_normal((w_out, w_in)) / np.sqrt(w_in)
            for w_out, w_in in zip(widths, fan_in)
        ]
        return cls(tuple(_cap_mlp_weights(weights, caps)), caps)

    def forward(self, xt: np.ndarray) -> tuple[np.ndarray, list[np.ndarray]]:
        """(r, n) embeddings plus the (width, n) layer inputs ``grad`` needs."""
        acts = [_as_input(xt, self.input_dim, 0)]
        for w in self.weights[:-1]:
            acts.append(np.tanh(w @ acts[-1]))
        return self.weights[-1] @ acts[-1], acts

    def apply(self, x: np.ndarray) -> np.ndarray:
        return self.forward(np.asarray(x).T)[0].T

    @staticmethod
    def label_terms(xt: np.ndarray, targets: np.ndarray) -> np.ndarray:
        """The targets themselves: they do not pass through tanh."""
        return targets

    def label_stat(self, zt: np.ndarray, targets: np.ndarray) -> np.ndarray:
        """z^T T / n, one pass over the embeddings."""
        return zt @ targets / zt.shape[1]

    def grad(self, xt: np.ndarray, acts: list[np.ndarray], a: np.ndarray,
             alpha: np.ndarray, targets: np.ndarray) -> list[np.ndarray]:
        """Per-layer mean-loss gradients by backpropagating a - alpha T^T, the
        (r, n) gradient at z, from its softmax part ``a`` = alpha P."""
        ws, n = self.weights, xt.shape[1]
        g_z = a - alpha @ targets.T
        grads = [None] * len(ws)
        grads[-1] = g_z @ acts[-1].T / n
        g_a = ws[-1].T @ g_z
        for p in range(len(ws) - 2, -1, -1):
            g_pre = g_a * (1.0 - acts[p + 1] ** 2)
            grads[p] = g_pre @ acts[p].T / n
            if p > 0:
                g_a = ws[p].T @ g_pre
        return grads

    @property
    def coords(self) -> np.ndarray:
        """All layer weights flattened, the point of a Barzilai-Borwein secant pair."""
        return np.concatenate([w.ravel() for w in self.weights])

    def descent(self, grad: list[np.ndarray]):
        """Projected-gradient norm, secant gradient, and the step-then-cap map.

        s -> (layers W - s * grad projected onto the caps, squared move);
        the norm is the square root of the move at s = 1, and the secant
        gradient is ``grad`` flattened like ``coords``.
        """

        def step(s):
            cand = _cap_mlp_weights(
                [w - s * g for w, g in zip(self.weights, grad)], self.caps
            )
            move = sum(((w - c) ** 2).sum() for w, c in zip(self.weights, cand))
            return MlpRep(tuple(cand), self.caps), float(move)

        flat = np.concatenate([g.ravel() for g in grad])
        return float(np.sqrt(step(1.0)[1])), flat, step


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


def _project_l1(v: np.ndarray, radius: float) -> np.ndarray:
    """Euclidean projection of each row of ``v`` onto the l1 ball of ``radius``.

    Rows outside are soft-thresholded onto the sphere (Duchi et al. 2008).
    """
    a = np.abs(v)
    over = a.sum(axis=1) > radius
    if not over.any():
        return v
    u = -np.sort(-a[over], axis=1)
    excess = np.cumsum(u, axis=1) - radius
    # u_j > excess_j / j holds exactly for the entries that stay nonzero
    keep = (u * np.arange(1, u.shape[1] + 1) > excess).sum(axis=1)
    theta = excess[np.arange(keep.size), keep - 1] / keep
    out = v.copy()
    out[over] = np.sign(v[over]) * np.maximum(a[over] - theta[:, None], 0.0)
    return out


def _cap_mlp_weights(
    weights: list[np.ndarray], caps: tuple[float, ...]
) -> list[np.ndarray]:
    """Euclidean projection of the layers onto their (convex) norm caps.

    Hidden-layer rows go onto the l1 ball of their row-sum cap; the output
    layer's column norms go onto the l1 ball of its cap, each column
    shrunk to its new norm. A projection, unlike a rescaling, makes every
    nonzero move of ``MlpRep.descent`` at s = 1 admit a decreasing step.
    """
    out = [_project_l1(w, caps[p]) for p, w in enumerate(weights[:-1])]
    w_last = weights[-1]
    norms = np.linalg.norm(w_last, axis=0)
    if norms.sum() > caps[-1]:
        shrunk = _project_l1(norms[None, :], caps[-1])[0]
        w_last = w_last * np.divide(
            shrunk, norms, out=np.zeros_like(norms), where=norms > 0
        )
    out.append(w_last)
    return out


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


def _matrix(value, what: str) -> np.ndarray:
    return np.array(require_numbers(value, 2, what), dtype=np.float64)


def component_from_payload(payload: dict):
    kind = payload.get("kind") if isinstance(payload, dict) else None
    if kind == "subspace":
        require_keys(payload, ("entries",), "subspace payload")
        return SubspaceRep(_matrix(payload["entries"], "subspace entries"))
    if kind == "mlp":
        require_keys(payload, ("layers", "caps"), "mlp payload")
        layers = payload["layers"]
        if not isinstance(layers, list):
            raise ContractViolation("mlp layers must be a list of matrices")
        return MlpRep(
            tuple(_matrix(w, f"mlp layer {p}") for p, w in enumerate(layers)),
            tuple(require_numbers(payload["caps"], 1, "mlp caps")),
        )
    if kind == "linear_head":
        require_keys(payload, ("entries", "column_cap"), "linear_head payload")
        return LinearHead(
            _matrix(payload["entries"], "linear_head entries"),
            require_numbers(payload["column_cap"], 0, "linear_head column_cap"),
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
    require_keys(doc, (), f"model bundle {path}")
    return {name: component_from_payload(payload) for name, payload in doc.items()}
