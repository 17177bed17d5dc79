"""Two-stage empirical risk minimization through one descent loop.

``_descend`` is the only optimizer: projected/retracted gradient descent
with backtracking line search from the zero head unless given a start,
optionally adding the spectral diversity regularizer ``-lambda * ln
det(alpha alpha^T + mu I)`` (mu = ``_RIDGE_MU``) to the objective. Stage one (``pretrain``) runs it
on (frame, head), one joint step of both blocks per iteration; the frame
B is a plain (d, r) orthonormal array inside the loop, and its final
value is validated once, by the ``SubspaceRep`` constructor. Stage two
is the same loop with the representation frozen: the head step alone on
the embeddings, a convex problem. A no-pretraining baseline fits
a full-dimensional linear predictor the same way on the raw covariates.

The loop works on class-major blocks: x as one (d, n) copy per fit,
embeddings (r, n), logits (K-1, n). A fit reads its targets T only as
the label terms S = x^T T / n (``_label_terms``), formed once by its
caller, so a frame's label statistic is B^T S and its gradient's label
part S alpha^T (``_frame_grad``).

Each block's step starts from a Barzilai-Borwein step of its own secant
pair (``_bb_step``), and one Armijo backtracking search (``_backtrack``)
shrinks the blocks' steps by a shared factor. Training is full batch and
starts from the data's own frame estimate, a deterministic function of
the data; the trace records how each run ended and how many objective
evaluations it took, and line-search failure is reported as a stall.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field, fields

import numpy as np

from .errors import ContractViolation, DegenerateInput, check_scalars
from .linalg import as_matrix, logdet_psd, orthonormalize
from .model_space import LinearHead, SubspaceRep, cap_columns, diversity_parameter
from .softmax import _log_partition_cols
from .synthetic import LabeledDataset

__all__ = [
    "OptimConfig",
    "TrainTrace",
    "PretrainResult",
    "logdet_regularizer",
    "loss_and_grad",
    "pretrain",
    "fit_head_on_embeddings",
    "fit_downstream_head",
    "train_baseline",
]


# The line-search policy (``_bb_step``, ``_backtrack``; every block's first
# step is _STEP_INIT) and the regularizer's ridge mu. Read at call time, so
# tests may patch them.
_STEP_INIT = 1.0
_STEP_SHRINK = 0.5
_ARMIJO_C = 1e-4
_STEP_GROW = 2.0
# step ceiling: projected steps saturate once columns pin to the cap,
# and an unbounded initial step would eventually overflow the trial point
_STEP_MAX = 1e6
_MIN_STEP = 1e-14
_RIDGE_MU = 1e-8


@dataclass(frozen=True)
class OptimConfig:
    """Budget of one descent run: at most ``max_iters`` iterations, converged
    once the projected-gradient norm is at most ``grad_tol``."""

    max_iters: int = 5000
    grad_tol: float = 1e-6

    def __post_init__(self):
        check_scalars("optimizer.", vars(self), {f.name: f.default for f in fields(self)})
        if self.max_iters < 1 or self.grad_tol <= 0:
            raise ContractViolation("need max_iters >= 1 and grad_tol > 0")


@dataclass
class TrainTrace:
    """Per-iteration optimizer log plus how the run ended.

    Entry i of each list is iteration i, so ``len(trace)`` counts the
    iterations. ``outcome`` is "converged" (the projected-gradient norm
    reached ``grad_tol``), "stalled" (a line search ended without a step,
    for the ``stall_reason`` ``_backtrack`` gives) or "max_iters" (the
    iteration budget ran out first); it is empty until the run ends.
    ``step`` holds the head's accepted step, and ``evaluations`` counts
    every objective evaluation of the run: the starting point's and every
    line-search trial's.
    """

    risk: list = field(default_factory=list)
    regularizer: list = field(default_factory=list)
    grad_norm: list = field(default_factory=list)
    step: list = field(default_factory=list)
    nu_tilde: list = field(default_factory=list)
    outcome: str = ""
    stall_reason: str = ""
    evaluations: int = 0

    def append(self, risk, reg, gnorm, step, nu):
        self.risk.append(float(risk))
        self.regularizer.append(float(reg))
        self.grad_norm.append(float(gnorm))
        self.step.append(float(step))
        self.nu_tilde.append(float(nu))

    @property
    def stalled(self) -> bool:
        return self.outcome == "stalled"

    def stall(self, what: str, reason: str) -> None:
        """Record that the line search of ``what`` ("joint" in stage one, "head"
        in a head fit) ended for ``reason`` without a step."""
        self.outcome = "stalled"
        self.stall_reason = f"{what}: {reason}"

    def __len__(self):
        return len(self.risk)


@dataclass
class PretrainResult:
    rep: SubspaceRep
    head: LinearHead
    trace: TrainTrace


def _ridged_gram(alpha: np.ndarray, mu: float) -> np.ndarray:
    return alpha @ alpha.T + mu * np.eye(alpha.shape[0])


def _logdet_grad(alpha: np.ndarray, mu: float) -> np.ndarray:
    """Gradient of ln det(alpha alpha^T + mu I): 2 (alpha alpha^T + mu I)^{-1} alpha."""
    return 2.0 * np.linalg.solve(_ridged_gram(alpha, mu), alpha)


def logdet_regularizer(alpha: np.ndarray, mu: float) -> tuple[float, np.ndarray]:
    """Value and gradient (``_logdet_grad``) of ln det(alpha alpha^T + mu I).

    Raises the underlying singular-matrix error when the ridged Gram is
    not PD.
    """
    a = np.asarray(alpha, dtype=np.float64)
    if mu < 0:
        raise ContractViolation("ridge must be nonnegative")
    return logdet_psd(_ridged_gram(a, mu)), _logdet_grad(a, mu)


def _head_risk(alpha: np.ndarray, zt: np.ndarray, label_stat: np.ndarray
               ) -> tuple[float, tuple[np.ndarray, np.ndarray]]:
    """Mean cross-entropy of the logits alpha^T z, and their unnormalized softmax.

    ``zt`` holds the (r, n) embeddings and ``label_stat`` is z^T T / n for
    the targets T, so the label term mean_i t_i . eta_i is <alpha,
    label_stat>. The C-ordered logit block becomes the (K-1, n) ``expo`` in
    place; with the (n,) ``denom`` the softmax is expo / denom, a division
    the gradients apply to an n-vector.
    """
    logits = alpha.T @ zt
    phi, expo, _, denom = _log_partition_cols(logits, out=logits)
    risk = float(np.mean(phi) - np.vdot(alpha, label_stat))
    return risk, (expo, denom)


def _head_grad(zt: np.ndarray, soft: tuple[np.ndarray, np.ndarray], label_stat: np.ndarray
               ) -> np.ndarray:
    """Mean-loss gradient w.r.t. the head: (P z)^T / n - z^T T / n.

    ``soft`` is the ``(expo, denom)`` pair of ``_head_risk``; P z is formed
    as expo (z / denom).
    """
    expo, denom = soft
    return (expo @ (zt / denom).T).T / zt.shape[1] - label_stat


def _embed_softmax(alpha: np.ndarray, soft: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    """alpha P = (alpha expo) / denom, the softmax part of the (r, n) gradient at z."""
    expo, denom = soft
    return (alpha @ expo) / denom


def _frame_grad(xt: np.ndarray, terms: np.ndarray, alpha: np.ndarray,
                soft: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    """Mean-loss gradient w.r.t. the frame B, x (alpha P)^T / n - S alpha^T, for
    the (d, n) samples ``xt``, their label terms S = x^T T / n and the
    ``(expo, denom)`` pair of ``_head_risk``."""
    return xt @ _embed_softmax(alpha, soft).T / xt.shape[1] - terms @ alpha.T


def _tangent(b: np.ndarray, g: np.ndarray) -> np.ndarray:
    """``g`` projected onto the tangent space of the orthonormal frames at ``b``."""
    btg = b.T @ g
    return g - b @ (0.5 * (btg + btg.T))


def _label_terms(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """The label terms S = x^T y / n; n = 0 is rejected before the division."""
    if x.shape[0] < 1:
        raise ContractViolation("no samples to fit")
    return x.T @ y / x.shape[0]


def loss_and_grad(rep: SubspaceRep, head: LinearHead, x, y):
    """Empirical risk with gradients for both the head and the representation.

    Returns ``(risk, grad_alpha, grad_rep)``; ``grad_rep`` is d x r.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.ndim != 2 or y.ndim != 2 or x.shape[0] != y.shape[0]:
        raise ContractViolation("x and y must be matching 2-D sample blocks")
    if x.shape[1] != rep.input_dim:
        raise ContractViolation(f"input dim {x.shape[1]} != representation dim {rep.input_dim}")
    if y.shape[1] != head.n_logits:
        raise ContractViolation("label width does not match head logits")
    terms = _label_terms(x, y)
    xt = np.ascontiguousarray(x.T)
    zt, label_stat = rep.b.T @ xt, rep.b.T @ terms
    risk, soft = _head_risk(head.alpha, zt, label_stat)
    return risk, _head_grad(zt, soft, label_stat), _frame_grad(xt, terms, head.alpha, soft)


def _bb_step(point, grad, prev, fallback: float, short: bool = False) -> float:
    """Barzilai-Borwein initial step of one block's line search.

    With S = point - previous point and Y = grad - previous gradient, the
    long (BB1) step <S,S>/<S,Y> and the short (BB2) step <S,Y>/<Y,Y> are
    inverses of the curvature seen along S (Barzilai and Borwein 1988);
    the step is clipped to [_MIN_STEP, _STEP_MAX]. Without a previous
    ``(point, grad)`` pair, or when <S,Y> <= 0, it is ``fallback``: the
    grown step ``_backtrack`` returned last time.
    """
    if prev is None:
        return fallback
    s = point - prev[0]
    y = grad - prev[1]
    sy = float(np.vdot(s, y))
    if not sy > 0.0:
        return fallback
    step = sy / float(np.vdot(y, y)) if short else float(np.vdot(s, s)) / sy
    return min(max(step, _MIN_STEP), _STEP_MAX)


def _backtrack(objective, current_value, direction_step, step0):
    """Shrink the step until sufficient decrease; a reason string on a stall.

    ``direction_step(s)`` maps a step size to (candidate, squared move)
    and may raise ``DegenerateInput`` for overlong steps, which shrinks
    the step like a failed trial. ``objective(candidate)`` returns
    (value, payload). A step is accepted when value <= current -
    _ARMIJO_C / s * move^2, and ``(step, grown step, candidate, value,
    payload)`` returned; the grown step ``min(step * _STEP_GROW, _STEP_MAX)``
    is the fallback initial step of the block's next search. The search
    stalls below ``_MIN_STEP``, or on a passing trial whose first-order
    decrease move^2 / s and measured decrease are both within one ulp of
    the current value: that is a tie, and shorter steps promise less.
    """
    s = step0
    while s >= _MIN_STEP:
        try:
            cand, move_sq = direction_step(s)
        except DegenerateInput:
            s *= _STEP_SHRINK
            continue
        value, payload = objective(cand)
        if np.isfinite(value) and value <= current_value - _ARMIJO_C / s * move_sq:
            ulp = np.spacing(abs(current_value))
            if move_sq / s < ulp and current_value - value <= ulp:
                return "line search decrease fell below the rounding of the objective"
            return s, min(s * _STEP_GROW, _STEP_MAX), cand, value, payload
        s *= _STEP_SHRINK
        payload = None  # a rejected trial's payload is not kept into the next
    return "line search hit minimum step without decrease"


def _descend(x, terms, cap, lambda_div, cfg, b=None, start=None):
    """Projected descent from the zero head unless given a start; returns
    ``(b, alpha, trace)``.

    The targets T enter only as ``terms``, their label terms S = x^T T / n,
    which the caller forms. The objective is mean cross-entropy minus
    ``lambda_div * ln det(alpha alpha^T + _RIDGE_MU I)``. With a (d, r)
    orthonormal frame ``b`` both blocks move: each iteration forms one
    gradient pair at the current (alpha, B), which serves both the stopping
    test and one joint step: the head's gradient, regularizer included, and
    the frame's (``_frame_grad``), whose stationarity norm is that of its
    tangent part (``_tangent``). Each block starts from the Barzilai-Borwein
    step of its own secant pair: the head's is alpha and its gradient, the
    frame's B and its ambient gradient, not the Riemannian one (Wen and Yin
    2013), which took fewer trials on the benchmark workloads. Stage one
    alternates the long and the short step by iteration; a head fit takes
    the long one. One backtracking search shrinks both steps by a shared
    factor: a trial step s caps the head's columns of alpha - s grad, then
    QR-retracts B - s ratio riem, riem the tangent gradient of the frame at
    that trial head (with the iterate's softmax), where ratio is the frame's
    BB step over the head's. The frame thus sees the head's move as it did
    when the two alternated, and the trial's squared move is the head's plus
    the frame's over ``ratio``: ``_backtrack``'s Armijo decrease _ARMIJO_C /
    s * move^2 is then the sum of each block's squared move over its own
    step, the scaled gradient projection test (Bonettini, Zanella and Zanni
    2009). Without ``b`` the rows of ``x`` are the embeddings, read as (r,
    n) through a transposed view, and the step is the head's alone: the head
    fit of stage two. It drops the iterate's softmax once the gradient is
    formed, so one (K-1, n) block is live during its line search; stage one
    keeps it for the trial's frame gradient. The trace records risk,
    regularizer value, combined projected-gradient norm, the head's accepted
    step, the running least Gram eigenvalue of the head and the count of
    objective evaluations. Line-search failure stalls the run and returns
    the current iterate with the stall recorded. A ``start`` head is capped
    (``cap_columns``) before the first step. A ``cap`` that is not a finite
    number > 0, or a ``start`` that is not a finite (r, K-1) array, is
    rejected before any work.
    """
    if not (math.isfinite(cap) and cap > 0):
        raise ContractViolation(f"head cap must be a finite number > 0, got {cap!r}")
    shape = (x.shape[1] if b is None else b.shape[1], terms.shape[1])
    if start is None:
        alpha = np.zeros(shape)
    else:
        start = np.asarray(start, dtype=np.float64)
        if start.shape != shape or not np.isfinite(start).all():
            raise ContractViolation(
                f"start head must be a finite {shape} array, got shape {start.shape}")
        alpha = cap_columns(start, cap)
    mu = _RIDGE_MU
    trace = TrainTrace()

    def reg_value(a):
        if lambda_div == 0.0:
            return 0.0
        return logdet_psd(_ridged_gram(a, mu))

    def objective(cand):
        alpha_c, b_c = cand
        trace.evaluations += 1
        zt_c, stat_c = (zt, label_stat) if b_c is None else (b_c.T @ xt, b_c.T @ terms)
        risk_c, soft_c = _head_risk(alpha_c, zt_c, stat_c)
        reg_c = reg_value(alpha_c)
        return risk_c - lambda_div * reg_c, (zt_c, stat_c, risk_c, soft_c, reg_c)

    if b is None:  # the rows of x are the embeddings: read a transposed view
        zt, label_stat = x.T, terms
    else:  # one (d, n) copy of the samples per fit
        xt = np.ascontiguousarray(x.T)
    _, (zt, label_stat, risk, soft, reg) = objective((alpha, b))
    s_head = s_rep = _STEP_INIT
    prev_head = prev_rep = None
    last_step = 0.0

    for it in range(cfg.max_iters):
        grad_alpha = _head_grad(zt, soft, label_stat)
        if b is None:
            # a head trial reads no softmax: drop the iterate's, which the last
            # step's ``found`` also holds, so that one (K-1, n) block is live
            # during the line search, the trial's
            soft = found = None
        if lambda_div > 0.0:
            # the gradient of ln det alone: its value is ``reg``, held already
            grad_alpha = grad_alpha - lambda_div * _logdet_grad(alpha, mu)
        pg_head = float(np.linalg.norm(alpha - cap_columns(alpha - grad_alpha, cap)))
        pg_rep = 0.0
        if b is not None:
            grad_b = _frame_grad(xt, terms, alpha, soft)
            pg_rep = float(np.linalg.norm(_tangent(b, grad_b)))
        gnorm = float(np.hypot(pg_head, pg_rep))
        trace.append(risk, reg, gnorm, last_step, diversity_parameter(alpha))
        if gnorm <= cfg.grad_tol:
            trace.outcome = "converged"
            break

        short = b is not None and it % 2 == 1
        step_head = _bb_step(alpha, grad_alpha, prev_head, s_head, short)
        if b is not None:
            ratio = _bb_step(b, grad_b, prev_rep, s_rep, short) / step_head

        def trial(s):
            cand = cap_columns(alpha - s * grad_alpha, cap)
            diff = cand - alpha
            move_sq = float((diff * diff).sum())
            if b is None:
                return (cand, None), move_sq
            riem = _tangent(b, _frame_grad(xt, terms, cand, soft))
            b_c = orthonormalize(b - s * ratio * riem)
            diff = b_c - b
            return (cand, b_c), move_sq + float((diff * diff).sum()) / ratio

        found = _backtrack(objective, risk - lambda_div * reg, trial, step_head)
        if isinstance(found, str):
            trace.stall("head" if b is None else "joint", found)
            break
        prev_head = (alpha, grad_alpha)
        if b is not None:
            prev_rep = (b, grad_b)
            s_rep = min(found[0] * ratio * _STEP_GROW, _STEP_MAX)
        last_step, s_head, (alpha, b), _, (zt, label_stat, risk, soft, reg) = found
    else:
        trace.outcome = "max_iters"
    return b, alpha, trace


def _moment_frame(terms: np.ndarray, r: int) -> np.ndarray:
    """Stage one's start: the top ``r`` left singular vectors of the label terms S.

    For Gaussian x, Stein's lemma makes them estimate the truth frame at the
    1/sqrt(n) rate (Stein 1981; Li 1991). Past the rank of S (r > K-1, or
    classes missing from the sample) each further column is the normalized
    part outside the span so far of the coordinate axis with the largest such
    part. Every column's largest-magnitude entry is then made positive."""
    frame = np.linalg.svd(terms, full_matrices=False)[0][:, :min(r, np.linalg.matrix_rank(terms))]
    while frame.shape[1] < r:
        rest = np.eye(terms.shape[0]) - frame @ frame.T
        axis = rest[:, np.argmax(np.linalg.norm(rest, axis=0))]
        frame = np.column_stack([frame, axis / np.linalg.norm(axis)])
    lead = frame[np.argmax(np.abs(frame), axis=0), np.arange(r)]
    return frame * np.where(lead < 0.0, -1.0, 1.0)


def pretrain(
    dataset: LabeledDataset,
    embed_dim: int,
    head_cap: float,
    lambda_div: float,
    cfg: OptimConfig,
) -> PretrainResult:
    """Stage-one ERM: joint head and representation descent (``_descend``).

    The model class is the ``embed_dim``-dimensional subspaces with heads
    whose columns have norm at most ``head_cap``. Every step moves both
    blocks: the head is projected onto its column-norm ball and the frame
    retracted onto the orthonormal frames, from the ``_moment_frame`` of the
    label terms the descent reads. The dataset must be nonempty, the
    embedding dimension an integer in 1..d, the head cap a finite number > 0
    and ``lambda_div`` a finite number >= 0; each is checked before any work.
    """
    d, k_minus_1 = dataset.x.shape[1], dataset.y.shape[1]
    r = embed_dim
    if isinstance(r, bool) or not isinstance(r, numbers.Integral) or not 1 <= r <= d:
        raise ContractViolation(
            f"embedding dimension must be an integer in 1..d = {d}, got {r!r}")
    if not (np.isfinite(lambda_div) and lambda_div >= 0):
        raise ContractViolation(f"lambda must be a finite number >= 0, got {lambda_div}")
    if lambda_div > 0 and r > k_minus_1:
        raise ContractViolation(
            f"diversity regularizer needs r <= K-1, got r={r}, K-1={k_minus_1}"
        )
    terms = _label_terms(dataset.x, dataset.y)
    b, alpha, trace = _descend(dataset.x, terms, head_cap, lambda_div, cfg, _moment_frame(terms, r))
    return PretrainResult(SubspaceRep(b), LinearHead(alpha, head_cap), trace)


def fit_head_on_embeddings(
    z: np.ndarray,
    label_stat: np.ndarray,
    cap: float,
    cfg: OptimConfig,
    start: np.ndarray | None = None,
) -> tuple[np.ndarray, TrainTrace]:
    """Projected gradient descent on the convex capped-head objective, from
    the zero head unless given a ``start`` (capped before the first step).

    The targets T, one-hot or soft, enter only as ``label_stat`` = z^T T / n;
    the objective mean(Phi(eta) - T . eta) is the empirical cross-entropy in
    the one-hot case. ``z`` must be finite and nonempty, ``label_stat``
    finite with a row per column of ``z`` and K-1 >= 1 columns, ``cap`` a
    finite number > 0 and ``start``, if given, a finite (r, K-1) array.
    This is ``_descend`` with the representation frozen and no regularizer.
    """
    z = as_matrix(z, "embeddings")
    label_stat = as_matrix(label_stat, "label statistic")
    if label_stat.shape[0] != z.shape[1]:
        raise ContractViolation(f"label statistic has {label_stat.shape[0]} rows, not {z.shape[1]}")
    if label_stat.shape[1] < 1:
        raise ContractViolation("label statistic has no class column; need K >= 2")
    if z.shape[0] < 1:
        raise ContractViolation("no samples to fit")
    _, alpha, trace = _descend(z, label_stat, cap, 0.0, cfg, start=start)
    return alpha, trace


def fit_downstream_head(
    rep: SubspaceRep,
    dataset: LabeledDataset,
    cap: float,
    cfg: OptimConfig,
) -> tuple[LinearHead, TrainTrace]:
    """Stage two: fit a capped head on the frozen representation."""
    z = rep.apply(dataset.x)
    alpha, trace = fit_head_on_embeddings(z, _label_terms(z, dataset.y), cap, cfg)
    return LinearHead(alpha, cap), trace


def train_baseline(
    dataset: LabeledDataset, cap: float, cfg: OptimConfig
) -> tuple[LinearHead, TrainTrace]:
    """No-pretraining comparator: capped linear predictor on raw covariates."""
    alpha, trace = fit_head_on_embeddings(dataset.x, _label_terms(dataset.x, dataset.y), cap, cfg)
    return LinearHead(alpha, cap), trace
