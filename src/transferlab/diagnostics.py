"""Measured quantities: diversity, complexities, excess risks, and bounds.

Excess risks are estimated in KL form: under the generating model the
expected loss gap between a fitted predictor and the truth equals the
expected KL divergence between their conditionals, which is pointwise
nonnegative and needs no label sampling. The test suite cross-checks it
against the naive sampled-label estimator.

The representation difference of a candidate embedding is a convex head
fit against the truth's soft targets, read as their label statistic
z_hat^T T / n (``_soft_label_stat``); it starts from the least-squares head
B_hat^T B alpha* (``_least_squares_head``), not the zero head, and returns
the fit's trace with its value. The worst-case representation difference
is not searched by brute force; its generalized-Schur-complement bound is
reported instead, in closed form from the largest principal angle between
the frames and the covariate law's second moment kappa_d, with no draw.

All Monte Carlo diagnostics return standard errors. The routines that
average over the covariate law take the draw itself, so that callers can
score several fits and quantities on one draw; the others take an
explicit generator. The KL routines walk the draw ``_MC_CHUNK`` rows at a
time, handing ``softmax.kl_rows`` one chunk per call: they hold the
(n_mc, r) embeddings and one n_mc vector, and no (n_mc, K-1) logit or
probability block.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import ContractViolation
from .linalg import singular_values
from .model_space import LinearHead, SubspaceRep, principal_angles
from .softmax import kl_rows, softmax_full_rows
from .synthetic import GroundTruth, isotropic_covariates
from .erm import OptimConfig, TrainTrace, fit_head_on_embeddings

__all__ = [
    "ComplexityEstimate",
    "ChainRuleReport",
    "empirical_gaussian_complexity_linear",
    "worst_case_complexity_linear",
    "mc_complexity_finite",
    "measure_excess_risks",
    "representation_difference",
    "schur_complement_bound",
    "chain_rule_check",
    "evaluate_risk_bound",
]


@dataclass
class ComplexityEstimate:
    """A Gaussian complexity value with its Monte Carlo error bar."""

    value: float
    std_error: float


# Rows per Monte Carlo chunk: each kl_rows call holds two (K-1) x chunk
# blocks and picks its kernel branch for its chunk alone.
_MC_CHUNK = 2048
# Noise scalars per complexity block, about one Monte Carlo logit chunk; a
# block holds whole draws, at least one.
_CHUNK_SCALARS = 32 * _MC_CHUNK


def _mean_se(values: np.ndarray) -> tuple[float, float]:
    """Mean of the Monte Carlo values and its standard error (0 for one value)."""
    n = values.shape[0]
    se = float(values.std(ddof=1) / np.sqrt(n)) if n > 1 else 0.0
    return float(values.mean()), se


def empirical_gaussian_complexity_linear(
    z: np.ndarray,
    column_cap: float,
    n_classes: int,
    draws: int,
    rng: np.random.Generator,
) -> ComplexityEstimate:
    """Gaussian complexity of the column-capped linear head class at ``z``.

    For fixed noise the supremum over heads with ||alpha_s|| <= c is
    closed-form, (c/n) sum_s ||sum_i g_is z_i||, so only the noise is
    Monte Carlo. It is drawn in blocks of whole draws, about
    ``_CHUNK_SCALARS`` numbers each; the generator fills them in order, so
    the block size does not move the value.
    """
    z = np.asarray(z, dtype=np.float64)
    if z.ndim != 2 or z.shape[0] < 1:
        raise ContractViolation("need a nonempty (n, r) embedding block")
    n = z.shape[0]
    width = n_classes - 1
    if width < 1 or draws < 1:
        raise ContractViolation("need n_classes >= 2 and draws >= 1")
    vals = np.empty(draws)
    chunk = max(1, _CHUNK_SCALARS // (n * width))
    done = 0
    while done < draws:
        take = min(chunk, draws - done)
        sums = rng.standard_normal((take, width, n)) @ z
        vals[done : done + take] = np.linalg.norm(sums, axis=2).sum(axis=1)
        done += take
    vals *= column_cap / n
    return ComplexityEstimate(*_mean_se(vals))


def worst_case_complexity_linear(
    column_cap: float, n_classes: int, max_embed_norm: float, n: int
) -> ComplexityEstimate:
    """Analytic reduction of the worst case over embeddings.

    Concentrating all mass on the largest admissible embedding norm gives
    c (K-1) max||z|| / sqrt(n); no sampling is involved.
    """
    if n < 1:
        raise ContractViolation("need n >= 1")
    value = column_cap * (n_classes - 1) * max_embed_norm / math.sqrt(n)
    return ComplexityEstimate(float(value), 0.0)


def mc_complexity_finite(
    class_outputs,
    draws: int,
    rng: np.random.Generator,
) -> ComplexityEstimate:
    """Gaussian complexity of a finite class given each candidate's sample outputs.

    ``class_outputs`` is a list of (n, r) arrays; per Gaussian noise draw
    the supremum over candidates of (1/n) sum_{k,i} g_ki q_k(x_i) is exact.
    """
    if not class_outputs:
        raise ContractViolation("candidate list is empty")
    flat = np.stack([np.asarray(q, dtype=np.float64).ravel() for q in class_outputs])
    n = np.asarray(class_outputs[0]).shape[0]
    noise = rng.standard_normal((draws, flat.shape[1]))
    return ComplexityEstimate(*_mean_se((noise @ flat.T).max(axis=1) / n))


def _mc_chunks(n: int):
    """The row slices of an n-row draw, ``_MC_CHUNK`` rows each."""
    return (slice(lo, lo + _MC_CHUNK) for lo in range(0, n, _MC_CHUNK))


def _kl_stats(n: int, eta_true, eta_fit) -> tuple[float, float]:
    """Mean and standard error over n rows of the KL between the conditionals
    at the logits ``eta_true(rows)`` and ``eta_fit(rows)``, one chunk at a time."""
    kls = np.empty(n)
    for rows in _mc_chunks(n):
        kls[rows] = kl_rows(eta_true(rows), eta_fit(rows))
    return _mean_se(kls)


def measure_excess_risks(
    truth: GroundTruth,
    x: np.ndarray,
    n_mc: int,
    head: LinearHead,
    rep_hat: SubspaceRep | None,
    stage: str,
) -> tuple[float, float]:
    """Excess risk of one fitted head against ``stage``'s truth head, on the
    covariate draw ``x``; returns ``(mean, std_error)``.

    The risk is the Monte Carlo mean over the ``n_mc`` rows of ``x``
    (draws from the covariate law) of the KL divergence between the true
    and fitted conditionals, which is the expected loss gap under the
    generating model and is pointwise nonnegative. The caller owns the
    draw, so fits scored on the same ``x`` are compared on common random
    numbers. The head acts on the embeddings of ``rep_hat``, or on the raw
    covariates when ``rep_hat`` is None (the baseline). An unknown stage,
    a draw without ``n_mc`` rows and a head of the wrong shape are
    rejected before any work.
    """
    truth_head = truth.head(stage)
    if x.ndim != 2 or x.shape[0] != n_mc:
        raise ContractViolation(f"covariate draw of shape {x.shape} needs n_mc = {n_mc} rows")
    width = x.shape[1] if rep_hat is None else rep_hat.embed_dim
    if head.alpha.shape != (width, truth_head.n_logits):
        raise ContractViolation(
            f"head of shape {head.alpha.shape} needs {width} rows and "
            f"the {stage} truth's {truth_head.n_logits} logits")
    z_true = truth.rep.apply(x)
    z = x if rep_hat is None else rep_hat.apply(x)

    def logits(h, emb):
        # a C-ordered (K-1, chunk) block, handed to kl_rows as its row view
        return lambda rows: (h.alpha.T @ emb[rows].T).T

    return _kl_stats(n_mc, logits(truth_head, z_true), logits(head, z))


def _least_squares_head(rep_hat: SubspaceRep, truth_rep: SubspaceRep,
                        truth_head: LinearHead) -> np.ndarray:
    """The head B_hat^T B alpha* of ``rep_hat`` nearest the truth's logits.

    As E[x x^T] = kappa_d I, it minimizes E||alpha*^T B^T x - alpha^T
    B_hat^T x||^2 = kappa_d ||B alpha* - B_hat alpha||_F^2. B_hat^T B is a
    contraction, so each column is no longer than the truth head's, and the
    head lies inside the truth's column-cap ball.
    """
    return (rep_hat.b.T @ truth_rep.b) @ truth_head.alpha


def _soft_label_stat(z: np.ndarray, eta_true) -> np.ndarray:
    """z^T T / n for the class probabilities T at the logits ``eta_true(rows)``,
    summed one chunk at a time; an empty draw is rejected before the division."""
    if z.shape[0] < 1:
        raise ContractViolation("no samples to fit")
    parts = (z[rows].T @ softmax_full_rows(eta_true(rows))[:, :-1]
             for rows in _mc_chunks(z.shape[0]))
    return functools.reduce(np.add, parts) / z.shape[0]


def representation_difference(
    rep_hat: SubspaceRep,
    truth: GroundTruth,
    x: np.ndarray,
    fit_cfg: OptimConfig,
    stage: str = "pretrain",
) -> tuple[float, float, TrainTrace]:
    """Best-head expected loss gap of a candidate representation.

    The inner infimum over the stage's capped heads is a convex fit
    against the exact conditional class probabilities of the truth on the
    covariate draw ``x``; the value is the mean KL achieved by that best
    head. The fit starts from ``_least_squares_head``, not the zero head:
    the objective is strictly convex, so the infimum is the same, and a
    start that fits the truth's logits usually lies near it. The fit reads
    the targets as their statistic ``_soft_label_stat``, and the head is
    scored chunk by chunk. A frame whose d is not the truth's is rejected
    (by ``SubspaceRep.apply`` on the draw) before the start is formed.
    Returns ``(value, std_error, trace)``, the trace being the head fit's.
    """
    truth_head = truth.head(stage)
    z_true = truth.rep.apply(x)
    z_hat = rep_hat.apply(x)

    def eta_true(rows):
        return z_true[rows] @ truth_head.alpha

    alpha, trace = fit_head_on_embeddings(
        z_hat, _soft_label_stat(z_hat, eta_true), truth_head.column_cap, fit_cfg,
        start=_least_squares_head(rep_hat, truth.rep, truth_head))
    return (*_kl_stats(x.shape[0], eta_true, lambda rows: z_hat[rows] @ alpha), trace)


def schur_complement_bound(
    rep_hat: SubspaceRep,
    truth_rep: SubspaceRep,
    down_cap: float,
    k_prime: int,
) -> float:
    """Closed-form bound on the worst-case representation difference.

    The bound is (k'-1) c0^2/2 sigma_1(L), with L the generalized Schur
    complement of the embeddings' second moments. As E[x x^T] = kappa_d I,
    L = kappa_d (I - B^T B_hat B_hat^T B), whose top eigenvalue is kappa_d
    sin^2 of the largest principal angle, or kappa_d when r_hat < r.
    """
    theta_max = principal_angles(rep_hat, truth_rep)[-1]  # also checks the frames' d
    sin2 = 1.0 if rep_hat.embed_dim < truth_rep.embed_dim else math.sin(theta_max) ** 2
    kappa = isotropic_covariates(truth_rep.input_dim).second_moment
    return (k_prime - 1) * down_cap**2 / 2.0 * kappa * sin2


@dataclass
class ChainRuleReport:
    """Composite-class complexity against its decomposition bound."""

    lhs: float
    lhs_se: float
    rhs: float
    rhs_se: float
    lipschitz: float
    passed: bool


def chain_rule_check(
    h_candidates,
    f_candidates,
    x: np.ndarray,
    draws: int,
    rng: np.random.Generator,
) -> ChainRuleReport:
    """Numerically verify the composite-complexity decomposition.

    The candidates are d x r representation matrices (H) and r x (k-1)
    head matrices (F). Both sides are computable for finite sets: the left
    side is the Monte Carlo Gaussian complexity of the composed class; the
    right side is 8 sqrt(k-1) D / n^2 + 512 log(n) (L(F) G_n(H) + Gbar_n(F))
    with L(F) the largest head spectral norm and D the largest composed
    output norm. Passes when lhs <= rhs + 3 combined standard errors.
    """
    if not h_candidates or not f_candidates:
        raise ContractViolation("candidate sets must be nonempty")
    if len(h_candidates) > 100 or len(f_candidates) > 100:
        raise ContractViolation("candidate sets must stay small (<= 100)")
    x = np.asarray(x, dtype=np.float64)
    n = x.shape[0]
    h_outputs = [x @ np.asarray(h, dtype=np.float64) for h in h_candidates]
    alphas = [np.asarray(f, dtype=np.float64) for f in f_candidates]
    k_minus_1 = alphas[0].shape[1]

    composite = [z @ a for z in h_outputs for a in alphas]
    lhs_est = mc_complexity_finite(composite, draws, rng)

    rep_est = mc_complexity_finite(h_outputs, draws, rng)
    per_h = [
        mc_complexity_finite([z @ a for a in alphas], draws, rng)
        for z in h_outputs
    ]
    worst = max(per_h, key=lambda e: e.value)
    lipschitz = max(float(singular_values(a)[0]) for a in alphas)
    d_out = max(float(np.linalg.norm(c, axis=1).max()) for c in composite)

    rhs = 8.0 * math.sqrt(k_minus_1) * d_out / n**2 + 512.0 * math.log(n) * (
        lipschitz * rep_est.value + worst.value
    )
    rhs_se = 512.0 * math.log(n) * math.hypot(
        lipschitz * rep_est.std_error, worst.std_error
    )
    combined_se = math.hypot(lhs_est.std_error, rhs_se)
    return ChainRuleReport(
        lhs=lhs_est.value,
        lhs_se=lhs_est.std_error,
        rhs=float(rhs),
        rhs_se=float(rhs_se),
        lipschitz=lipschitz,
        passed=lhs_est.value <= rhs + 3.0 * combined_se,
    )


# --- closed-form risk-rate evaluators ---------------------------------------

# the confidence level of the rate: it holds with probability 1 - delta
_DELTA = 0.05


def evaluate_risk_bound(*, n: int, m: int, k: int, k_prime: int, r: int, d: int,
                        nu_tilde: float) -> float:
    """Evaluate the closed-form excess-risk rate of the subspace class.

    The rate is (pre-training terms) / nu_tilde + (downstream terms) at
    confidence delta = 0.05, with every hidden universal constant set to
    1. The sizes must be positive and ``nu_tilde`` nonnegative;
    ``nu_tilde = 0`` returns infinity.
    """
    sizes = {"n": n, "m": m, "k": k, "k_prime": k_prime, "r": r, "d": d}
    for name, value in sizes.items():
        if value <= 0:
            raise ContractViolation(f"{name} must be positive")
    if nu_tilde < 0:
        raise ContractViolation("nu_tilde must be nonnegative")
    if nu_tilde == 0.0:
        return math.inf
    log_inv_delta = math.log(1.0 / _DELTA)

    pre = (
        math.sqrt(k)
        * math.log(n)
        * (math.sqrt(k * d * r**2 / n) + k * math.sqrt(r / n))
        + k / n**2
        + math.sqrt(log_inv_delta / n)
    )
    down = k_prime**1.5 * math.sqrt(r / m) + k_prime * math.sqrt(log_inv_delta / m)
    return pre / nu_tilde + down
