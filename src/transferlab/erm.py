"""Two-stage empirical risk minimization.

Stage one jointly fits (representation, head) on the pre-training task
by alternating projected/retracted gradient descent with backtracking
line search, optionally adding the spectral diversity regularizer
``-lambda * ln det(alpha alpha^T + mu I)`` to the objective. Stage two
freezes the representation and fits a column-capped head on the
downstream task, a convex problem solved by projected gradient descent.
A no-pretraining baseline fits a full-dimensional linear predictor with
the same machinery.

Training is full batch and deterministic given the RNG used for
initialization; line-search failure is reported as a stall in the trace
rather than raised.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ContractViolation, DegenerateInput
from .linalg import logdet_psd, orthonormalize
from .model_space import (
    LinearHead,
    MlpRep,
    Representation,
    SubspaceRep,
    cap_columns,
    cap_mlp_weights,
    diversity_parameter,
)
from .synthetic import LabeledDataset

__all__ = [
    "OptimConfig",
    "HypothesisConfig",
    "TrainTrace",
    "PretrainResult",
    "logdet_regularizer",
    "loss_and_grad",
    "pretrain",
    "fit_head_on_embeddings",
    "fit_downstream_head",
    "train_baseline",
]


@dataclass(frozen=True)
class OptimConfig:
    max_iters: int = 5000
    grad_tol: float = 1e-6
    step_init: float = 1.0
    step_shrink: float = 0.5
    armijo_c: float = 1e-4
    step_grow: float = 2.0
    # growth ceiling: projected steps saturate once columns pin to the cap,
    # and an unbounded warm start would eventually overflow the trial point
    step_max: float = 1e6
    min_step: float = 1e-14
    ridge_mu: float = 1e-8

    def __post_init__(self):
        if self.grad_tol <= 0 or not (0 < self.step_shrink < 1) or self.ridge_mu < 0:
            raise ContractViolation("invalid optimizer configuration")
        if not (self.min_step <= self.step_init <= self.step_max):
            raise ContractViolation("need min_step <= step_init <= step_max")


@dataclass(frozen=True)
class HypothesisConfig:
    """Model class searched in stage one."""

    kind: str = "subspace"
    embed_dim: int = 3
    head_cap: float = 1.0
    mlp_widths: tuple[int, ...] = ()
    mlp_caps: tuple[float, ...] = ()

    def __post_init__(self):
        if self.kind not in ("subspace", "mlp"):
            raise ContractViolation(f"unknown hypothesis kind {self.kind!r}")
        if self.kind == "mlp" and len(self.mlp_caps) != len(self.mlp_widths) + 1:
            raise ContractViolation("mlp needs one cap per layer (hidden + output)")


@dataclass
class TrainTrace:
    """Per-iteration optimizer log plus the stall flag."""

    iters: list = field(default_factory=list)
    risk: list = field(default_factory=list)
    regularizer: list = field(default_factory=list)
    grad_norm: list = field(default_factory=list)
    step: list = field(default_factory=list)
    nu_tilde: list = field(default_factory=list)
    stalled: bool = False
    stall_reason: str = ""

    def append(self, it, risk, reg, gnorm, step, nu):
        self.iters.append(int(it))
        self.risk.append(float(risk))
        self.regularizer.append(float(reg))
        self.grad_norm.append(float(gnorm))
        self.step.append(float(step))
        self.nu_tilde.append(float(nu))

    def __len__(self):
        return len(self.iters)

    def to_csv(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("iter,risk,regularizer,grad_norm,step,nu_tilde\n")
            for row in zip(
                self.iters, self.risk, self.regularizer,
                self.grad_norm, self.step, self.nu_tilde,
            ):
                fh.write(
                    f"{row[0]},"
                    + ",".join(format(v, ".17g") for v in row[1:])
                    + "\n"
                )


@dataclass
class PretrainResult:
    rep: Representation
    head: LinearHead
    trace: TrainTrace


def logdet_regularizer(alpha: np.ndarray, mu: float) -> tuple[float, np.ndarray]:
    """Value and gradient of ln det(alpha alpha^T + mu I).

    The gradient is 2 (alpha alpha^T + mu I)^{-1} alpha. Raises the
    underlying singular-matrix error when the ridged Gram is not PD.
    """
    a = np.asarray(alpha, dtype=np.float64)
    if mu < 0:
        raise ContractViolation("ridge must be nonnegative")
    gram = a @ a.T + mu * np.eye(a.shape[0])
    value = logdet_psd(gram)
    grad = 2.0 * np.linalg.solve(gram, a)
    return value, grad


def _head_risk(alpha: np.ndarray, z: np.ndarray, label_stat: np.ndarray
               ) -> tuple[float, np.ndarray]:
    """Mean cross-entropy of the logits z alpha, and their softmax, in one exp pass.

    ``label_stat`` is z^T T / n for the targets T, so the label term
    mean_i t_i . eta_i equals <alpha, label_stat> and needs no pass over
    the samples. The logits are formed class-major, shape (K-1, n), so
    every per-sample reduction runs across whole rows; the returned
    probabilities of the first K-1 classes keep that layout.
    """
    probs = alpha.T @ z.T
    shift = probs.max(axis=0)
    np.maximum(shift, 0.0, out=shift)
    probs -= shift
    np.exp(probs, out=probs)
    denom = probs.sum(axis=0)
    denom += np.exp(-shift)
    risk = float(np.mean(shift + np.log(denom)) - np.vdot(alpha, label_stat))
    probs /= denom
    return risk, probs


def _label_stat(z: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """The (r, K-1) label statistic z^T T / n of one embedding."""
    return z.T @ targets / z.shape[0]


def _head_grad(z: np.ndarray, probs: np.ndarray, label_stat: np.ndarray) -> np.ndarray:
    """Mean-loss gradient w.r.t. the head: (P z)^T / n - z^T T / n."""
    return (probs @ z).T / z.shape[0] - label_stat


def _embed_grad(alpha: np.ndarray, probs: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Per-sample loss gradient at the embeddings, (alpha P)^T - T alpha^T."""
    return (alpha @ probs).T - y @ alpha.T


def _forward(rep_kind: str, params, x: np.ndarray):
    """Embeddings plus the per-layer activations an MLP backward needs."""
    if rep_kind == "subspace":
        return x @ params, None
    acts = [x]
    a = x
    for w in params[:-1]:
        a = np.tanh(a @ w.T)
        acts.append(a)
    return a @ params[-1].T, acts


def _rep_grad(rep_kind: str, params, x, acts, g_embed: np.ndarray):
    """Gradient of the mean loss w.r.t. representation parameters.

    ``g_embed`` is the (n, r) per-sample loss gradient at the embedding
    output; the mean over samples is taken here.
    """
    n = x.shape[0]
    if rep_kind == "subspace":
        return x.T @ g_embed / n
    grads = [None] * len(params)
    grads[-1] = g_embed.T @ acts[-1] / n
    g_a = g_embed @ params[-1]
    for p in range(len(params) - 2, -1, -1):
        g_pre = g_a * (1.0 - acts[p + 1] ** 2)
        grads[p] = g_pre.T @ acts[p] / n
        if p > 0:
            g_a = g_pre @ params[p]
    return grads


def loss_and_grad(rep: Representation, head: LinearHead, x, y):
    """Empirical risk with gradients for both the head and the representation.

    Returns ``(risk, grad_alpha, grad_rep)``; ``grad_rep`` is a d x r
    array for a subspace representation and a per-layer list for an MLP.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.ndim != 2 or y.ndim != 2 or x.shape[0] != y.shape[0]:
        raise ContractViolation("x and y must be matching 2-D sample blocks")
    if y.shape[1] != head.n_logits:
        raise ContractViolation("label width does not match head logits")
    kind = "subspace" if isinstance(rep, SubspaceRep) else "mlp"
    params = rep.b if kind == "subspace" else list(rep.weights)
    z, acts = _forward(kind, params, x)
    label_stat = _label_stat(z, y)
    risk, probs = _head_risk(head.alpha, z, label_stat)
    grad_alpha = _head_grad(z, probs, label_stat)
    grad_rep = _rep_grad(kind, params, x, acts, _embed_grad(head.alpha, probs, y))
    return risk, grad_alpha, grad_rep


def _tangent_project(b: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Project a Euclidean gradient onto the tangent space at b."""
    btg = b.T @ g
    return g - b @ (0.5 * (btg + btg.T))


def _capped_step(alpha: np.ndarray, grad: np.ndarray, cap: float):
    """Step map of projected gradient descent on a column-capped head.

    Maps a step size s to the capped candidate and its squared move, the
    ``direction_step`` that ``_backtrack`` expects.
    """

    def step(s):
        cand = cap_columns(alpha - s * grad, cap)
        diff = cand - alpha
        return cand, float((diff * diff).sum())

    return step


class _LineSearchStall(Exception):
    def __init__(self, where: str):
        self.where = where


def _backtrack(objective, current_value, direction_step, cfg, step0):
    """Shrink the step until sufficient decrease; raise on stall.

    ``direction_step(s)`` maps a step size to (candidate, squared move)
    and may raise ``DegenerateInput`` for overlong steps, which shrinks
    the step like a failed trial. ``objective(candidate)`` returns
    (value, payload). A step is accepted when
    value <= current - armijo_c / s * move^2.
    """
    s = step0
    while s >= cfg.min_step:
        try:
            cand, move_sq = direction_step(s)
        except DegenerateInput:
            s *= cfg.step_shrink
            continue
        value, payload = objective(cand)
        if np.isfinite(value) and value <= current_value - cfg.armijo_c / s * move_sq:
            return s, cand, value, payload
        s *= cfg.step_shrink
    raise _LineSearchStall("line search hit minimum step without decrease")


def pretrain(
    dataset: LabeledDataset,
    hypothesis: HypothesisConfig,
    lambda_div: float,
    cfg: OptimConfig,
    rng: np.random.Generator,
) -> PretrainResult:
    """Stage-one ERM: alternating head / representation descent.

    The minimized objective is mean cross-entropy minus
    ``lambda_div * ln det(alpha alpha^T + mu I)``. The head is projected
    onto its column-norm ball after every step; the representation is
    retracted onto the orthonormal frames (subspace) or rescaled into its
    norm caps (MLP). The trace records risk, regularizer value, combined
    projected-gradient norm, accepted step, and the running least Gram
    eigenvalue of the head. Line-search failure stalls the run and
    returns the current iterate with the stall recorded.
    """
    if dataset.n < 1:
        raise ContractViolation("dataset is empty")
    x, y = dataset.x, dataset.y
    d = x.shape[1]
    k_minus_1 = y.shape[1]
    r = hypothesis.embed_dim
    if lambda_div < 0:
        raise ContractViolation("lambda must be nonnegative")
    if lambda_div > 0 and r > k_minus_1:
        raise ContractViolation(
            f"diversity regularizer needs r <= K-1, got r={r}, K-1={k_minus_1}"
        )
    cap = hypothesis.head_cap
    mu = cfg.ridge_mu

    kind = hypothesis.kind
    if kind == "subspace":
        params = orthonormalize(rng.standard_normal((d, r)))
        caps = None
    else:
        widths = (*hypothesis.mlp_widths, r)
        caps = hypothesis.mlp_caps
        fan_in = (d, *hypothesis.mlp_widths)
        params = cap_mlp_weights(
            [
                rng.standard_normal((w_out, w_in)) / np.sqrt(w_in)
                for w_out, w_in in zip(widths, fan_in)
            ],
            caps,
        )

    alpha = np.zeros((r, k_minus_1))
    trace = TrainTrace()

    def finalize():
        rep_out = (
            SubspaceRep(params) if kind == "subspace" else MlpRep(tuple(params), caps)
        )
        return PretrainResult(rep_out, LinearHead(alpha, cap), trace)

    def reg_value(a):
        if lambda_div == 0.0:
            return 0.0
        return logdet_psd(a @ a.T + mu * np.eye(r))

    z, acts = _forward(kind, params, x)
    label_stat = _label_stat(z, y)
    risk, probs = _head_risk(alpha, z, label_stat)
    reg = reg_value(alpha)
    s_head = cfg.step_init
    s_rep = cfg.step_init
    last_step = 0.0
    # a phase with projected gradient this far under tol cannot make
    # progress distinguishable from rounding; skip it instead of stalling
    phase_floor = 0.5 * cfg.grad_tol

    for it in range(cfg.max_iters):
        grad_alpha = _head_grad(z, probs, label_stat)
        if lambda_div > 0.0:
            _, reg_grad = logdet_regularizer(alpha, mu)
            grad_alpha = grad_alpha - lambda_div * reg_grad
        pg_head = float(np.linalg.norm(alpha - cap_columns(alpha - grad_alpha, cap)))

        grad_rep_probe = _rep_grad(kind, params, x, acts, _embed_grad(alpha, probs, y))
        if kind == "subspace":
            pg_rep = float(np.linalg.norm(_tangent_project(params, grad_rep_probe)))
        else:
            capped = cap_mlp_weights(
                [w - g for w, g in zip(params, grad_rep_probe)], caps
            )
            pg_rep = float(
                np.sqrt(sum(((w - c) ** 2).sum() for w, c in zip(params, capped)))
            )

        gnorm = float(np.hypot(pg_head, pg_rep))
        trace.append(it, risk, reg, gnorm, last_step, diversity_parameter(alpha))
        if gnorm <= cfg.grad_tol:
            break

        # --- head phase (objective includes the regularizer term) ---
        if pg_head > phase_floor:
            j_cur = risk - lambda_div * reg

            def head_objective(cand):
                risk_c, probs_c = _head_risk(cand, z, label_stat)
                reg_c = reg_value(cand)
                return risk_c - lambda_div * reg_c, (risk_c, probs_c, reg_c)

            try:
                s_acc, alpha, _, (risk, probs, reg) = _backtrack(
                    head_objective, j_cur, _capped_step(alpha, grad_alpha, cap),
                    cfg, s_head,
                )
                s_head = min(s_acc * cfg.step_grow, cfg.step_max)
                last_step = s_acc
            except _LineSearchStall as stall:
                trace.stalled = True
                trace.stall_reason = f"head: {stall.where}"
                return finalize()

        # --- representation phase at the fresh head ---
        grad_rep = _rep_grad(kind, params, x, acts, _embed_grad(alpha, probs, y))
        if kind == "subspace":
            riem = _tangent_project(params, grad_rep)
            move_norm = float(np.linalg.norm(riem))

            def rep_step(s):
                cand = orthonormalize(params - s * riem)
                diff = cand - params
                return cand, float((diff * diff).sum())

        else:
            capped = cap_mlp_weights([w - g for w, g in zip(params, grad_rep)], caps)
            move_norm = float(
                np.sqrt(sum(((w - c) ** 2).sum() for w, c in zip(params, capped)))
            )

            def rep_step(s):
                cand = cap_mlp_weights(
                    [w - s * g for w, g in zip(params, grad_rep)], caps
                )
                move = sum(((w - c) ** 2).sum() for w, c in zip(params, cand))
                return cand, float(move)

        def rep_objective(cand):
            z_c, acts_c = _forward(kind, cand, x)
            stat_c = _label_stat(z_c, y)
            risk_c, probs_c = _head_risk(alpha, z_c, stat_c)
            return risk_c, (z_c, acts_c, stat_c, risk_c, probs_c)

        if move_norm > phase_floor:
            try:
                s_acc, params, _, (z, acts, label_stat, risk, probs) = _backtrack(
                    rep_objective, risk, rep_step, cfg, s_rep
                )
                s_rep = min(s_acc * cfg.step_grow, cfg.step_max)
                last_step = s_acc
            except _LineSearchStall as stall:
                trace.stalled = True
                trace.stall_reason = f"representation: {stall.where}"
                return finalize()

    return finalize()


def fit_head_on_embeddings(
    z: np.ndarray,
    targets: np.ndarray,
    cap: float,
    cfg: OptimConfig,
    alpha0: np.ndarray | None = None,
) -> tuple[np.ndarray, TrainTrace]:
    """Projected gradient descent on the convex capped-head objective.

    ``targets`` may be one-hot rows or soft class probabilities; the
    objective mean(Phi(eta) - targets . eta) reduces to the empirical
    cross-entropy in the one-hot case.
    """
    z = np.asarray(z, dtype=np.float64)
    targets = np.asarray(targets, dtype=np.float64)
    if z.ndim != 2 or targets.ndim != 2 or z.shape[0] != targets.shape[0]:
        raise ContractViolation("embeddings and targets must be matching blocks")
    n, r = z.shape
    if n < 1:
        raise ContractViolation("no samples to fit")
    width = targets.shape[1]
    alpha = (
        np.zeros((r, width)) if alpha0 is None else cap_columns(np.array(alpha0), cap)
    )
    trace = TrainTrace()
    label_stat = _label_stat(z, targets)
    risk, probs = _head_risk(alpha, z, label_stat)
    s_cur = cfg.step_init
    last_step = 0.0

    for it in range(cfg.max_iters):
        grad = _head_grad(z, probs, label_stat)
        pg = float(np.linalg.norm(alpha - cap_columns(alpha - grad, cap)))
        trace.append(it, risk, 0.0, pg, last_step, diversity_parameter(alpha))
        if pg <= cfg.grad_tol:
            break

        def objective(cand):
            return _head_risk(cand, z, label_stat)

        try:
            s_acc, alpha, risk, probs = _backtrack(
                objective, risk, _capped_step(alpha, grad, cap), cfg, s_cur
            )
            s_cur = min(s_acc * cfg.step_grow, cfg.step_max)
            last_step = s_acc
        except _LineSearchStall as stall:
            trace.stalled = True
            trace.stall_reason = f"head fit: {stall.where}"
            break
    return alpha, trace


def fit_downstream_head(
    rep: Representation,
    dataset: LabeledDataset,
    cap: float,
    cfg: OptimConfig,
    alpha0: np.ndarray | None = None,
) -> tuple[LinearHead, TrainTrace]:
    """Stage two: fit a capped head on the frozen representation."""
    if dataset.n < 1:
        raise ContractViolation("downstream dataset is empty")
    z = rep.apply(dataset.x)
    alpha, trace = fit_head_on_embeddings(z, dataset.y, cap, cfg, alpha0)
    return LinearHead(alpha, cap), trace


def train_baseline(
    dataset: LabeledDataset, cap: float, cfg: OptimConfig
) -> tuple[LinearHead, TrainTrace]:
    """No-pretraining comparator: capped linear predictor on raw covariates."""
    if dataset.n < 1:
        raise ContractViolation("baseline dataset is empty")
    alpha, trace = fit_head_on_embeddings(dataset.x, dataset.y, cap, cfg)
    return LinearHead(alpha, cap), trace
