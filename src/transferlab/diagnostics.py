"""Measured quantities: diversity, complexities, excess risks, and bounds.

Excess risks are estimated in KL form: under the generating model the
expected loss gap between a fitted predictor and the truth equals the
expected KL divergence between their conditionals, which is pointwise
nonnegative and needs no label sampling. The test suite cross-checks it
against the naive sampled-label estimator.

The worst-case representation difference of a candidate embedding is not
searched by brute force; its closed-form bound through the generalized
Schur complement of the joint embedding covariance is computed instead,
and reported as such.

All Monte Carlo diagnostics return standard errors, and every stochastic
routine takes an explicit generator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ContractViolation
from .linalg import pinv_psd, singular_values
from .model_space import LinearHead, Representation
from .softmax import kl_rows, softmax_full_rows
from .synthetic import CovariateSpec, GroundTruth, sample_covariates
from .erm import OptimConfig, fit_head_on_embeddings

__all__ = [
    "RiskReport",
    "ComplexityEstimate",
    "ChainRuleReport",
    "empirical_gaussian_complexity_linear",
    "worst_case_complexity_linear",
    "mc_complexity_finite",
    "measure_excess_risks",
    "representation_difference",
    "schur_complement_bound",
    "chain_rule_check",
    "BoundParams",
    "evaluate_risk_bound",
    "DEFAULT_PROFILE",
]


@dataclass
class RiskReport:
    """Excess risks of a fitted pipeline, with Monte Carlo error bars.

    The risks of stages whose head was not given are NaN.
    """

    excess_transfer_risk: float
    excess_pretrain_risk: float
    mc_samples: int
    std_error: float
    pretrain_std_error: float = math.nan
    baseline_excess_risk: float = math.nan
    baseline_std_error: float = math.nan


@dataclass
class ComplexityEstimate:
    """A Gaussian/Rademacher complexity value with its provenance."""

    value: float
    draws: int
    std_error: float
    kind: str = "gaussian"
    scope: str = "empirical"


_CHUNK_SCALARS = 2_000_000


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
    Monte Carlo.
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
        g = rng.standard_normal((take, width, n))
        sums = g @ z
        vals[done : done + take] = np.linalg.norm(sums, axis=2).sum(axis=1)
        done += take
    vals *= column_cap / n
    se = float(vals.std(ddof=1) / np.sqrt(draws)) if draws > 1 else 0.0
    return ComplexityEstimate(float(vals.mean()), draws, se, "gaussian", "empirical")


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
    return ComplexityEstimate(float(value), 0, 0.0, "gaussian", "worst-case")


def mc_complexity_finite(
    class_outputs,
    draws: int,
    kind: str,
    rng: np.random.Generator,
) -> ComplexityEstimate:
    """Complexity of a finite class given each candidate's sample outputs.

    ``class_outputs`` is a list of (n, r) arrays; per noise draw the
    supremum over candidates of (1/n) sum_{k,i} g_ki q_k(x_i) is exact.
    """
    if not class_outputs:
        raise ContractViolation("candidate list is empty")
    if kind not in ("gaussian", "rademacher"):
        raise ContractViolation(f"unknown noise kind {kind!r}")
    flat = np.stack([np.asarray(q, dtype=np.float64).ravel() for q in class_outputs])
    n = np.asarray(class_outputs[0]).shape[0]
    if kind == "gaussian":
        noise = rng.standard_normal((draws, flat.shape[1]))
    else:
        noise = rng.integers(0, 2, size=(draws, flat.shape[1])) * 2.0 - 1.0
    sups = (noise @ flat.T).max(axis=1) / n
    se = float(sups.std(ddof=1) / np.sqrt(draws)) if draws > 1 else 0.0
    return ComplexityEstimate(float(sups.mean()), draws, se, kind, "empirical")


def _kl_stats(eta_true, eta_fit) -> tuple[float, float]:
    kls = kl_rows(eta_true, eta_fit)
    n = kls.shape[0]
    se = float(kls.std(ddof=1) / np.sqrt(n)) if n > 1 else 0.0
    return float(kls.mean()), se


def measure_excess_risks(
    rep_hat: Representation,
    pre_head_hat: LinearHead | None,
    down_head_hat: LinearHead,
    truth: GroundTruth,
    spec: CovariateSpec,
    n_mc: int,
    rng: np.random.Generator,
    baseline_head: LinearHead | None = None,
) -> RiskReport:
    """Excess risks of a fitted pipeline, all from one covariate draw.

    Each risk is the Monte Carlo mean over fresh covariates of the KL
    divergence between the true and fitted conditionals, which is the
    expected loss gap under the generating model and is pointwise
    nonnegative. The downstream (transfer) risk is always measured; the
    pre-training risk only when ``pre_head_hat`` is given. A
    ``baseline_head`` acts on the raw covariates and is scored against
    the downstream truth on the same draw.
    """
    x = sample_covariates(spec, n_mc, rng)
    z_true = truth.rep.apply(x)
    z_hat = rep_hat.apply(x)
    eta_down = z_true @ truth.down_head.alpha
    down = _kl_stats(eta_down, z_hat @ down_head_hat.alpha)
    pre = base = (math.nan, math.nan)
    if pre_head_hat is not None:
        pre = _kl_stats(z_true @ truth.pre_head.alpha, z_hat @ pre_head_hat.alpha)
    if baseline_head is not None:
        base = _kl_stats(eta_down, x @ baseline_head.alpha)
    return RiskReport(down[0], pre[0], n_mc, down[1], pre[1], base[0], base[1])


def representation_difference(
    rep_hat: Representation,
    truth: GroundTruth,
    spec: CovariateSpec,
    n_mc: int,
    fit_cfg: OptimConfig,
    rng: np.random.Generator,
    stage: str = "pretrain",
) -> tuple[float, float]:
    """Best-head expected loss gap of a candidate representation.

    The inner infimum over the stage's capped heads is a convex fit
    against the exact conditional class probabilities of the truth on an
    n_mc-sample surrogate of the covariate expectation; the value is the
    mean KL achieved by that best head. Returns ``(value, std_error)``.
    """
    if stage not in ("pretrain", "downstream"):
        raise ContractViolation(f"unknown stage {stage!r}")
    truth_head = truth.pre_head if stage == "pretrain" else truth.down_head
    x = sample_covariates(spec, n_mc, rng)
    eta_true = truth.rep.apply(x) @ truth_head.alpha
    soft = softmax_full_rows(eta_true)[:, :-1]
    z_hat = rep_hat.apply(x)
    alpha, _ = fit_head_on_embeddings(z_hat, soft, truth_head.column_cap, fit_cfg)
    return _kl_stats(eta_true, z_hat @ alpha)


def schur_complement_bound(
    rep_hat: Representation,
    truth_rep: Representation,
    spec: CovariateSpec,
    n_mc: int,
    down_cap: float,
    k_prime: int,
    rng: np.random.Generator,
) -> tuple[np.ndarray, float]:
    """Closed-form bound on the worst-case representation difference.

    From Monte Carlo block moments of (h(x), h_hat(x)) the generalized
    Schur complement L = F_hh - F_hhat pinv(F_hathat) F_hath is formed;
    the bound is (k'-1) c0^2/2 sigma_1(L).
    """
    r = truth_rep.embed_dim
    if n_mc < 10 * r:
        raise ContractViolation(f"need n_mc >= 10 r = {10 * r} for block moments")
    x = sample_covariates(spec, n_mc, rng)
    h = truth_rep.apply(x)
    h_hat = rep_hat.apply(x)
    f_hh = h.T @ h / n_mc
    f_hath = h_hat.T @ h / n_mc
    f_hathat = h_hat.T @ h_hat / n_mc
    lam_sc = f_hh - f_hath.T @ pinv_psd(f_hathat) @ f_hath
    lam_sc = 0.5 * (lam_sc + lam_sc.T)
    top = float(singular_values(lam_sc)[0])
    bound = (k_prime - 1) * down_cap**2 / 2.0 * top
    return lam_sc, float(bound)


@dataclass
class ChainRuleReport:
    """Composite-class complexity against its decomposition bound."""

    lhs: float
    lhs_se: float
    rhs: float
    rhs_se: float
    rep_complexity: float
    head_complexity_worst: float
    lipschitz: float
    output_bound: float
    passed: bool


def chain_rule_check(
    h_candidates,
    f_candidates,
    x: np.ndarray,
    draws: int,
    rng: np.random.Generator,
) -> ChainRuleReport:
    """Numerically verify the composite-complexity decomposition.

    For finite candidate sets both sides are computable: the left side is
    the Monte Carlo Gaussian complexity of the composed class; the right
    side is 8 sqrt(k-1) D / n^2 + 512 log(n) (L(F) G_n(H) + Gbar_n(F))
    with L(F) the largest head spectral norm and D the largest composed
    output norm. Passes when lhs <= rhs + 3 combined standard errors.
    """
    if not h_candidates or not f_candidates:
        raise ContractViolation("candidate sets must be nonempty")
    if len(h_candidates) > 100 or len(f_candidates) > 100:
        raise ContractViolation("candidate sets must stay small (<= 100)")
    x = np.asarray(x, dtype=np.float64)
    n = x.shape[0]

    def embed(h):
        if hasattr(h, "apply"):
            return h.apply(x)
        return x @ np.asarray(h, dtype=np.float64)

    h_outputs = [embed(h) for h in h_candidates]
    alphas = [
        f.alpha if isinstance(f, LinearHead) else np.asarray(f, dtype=np.float64)
        for f in f_candidates
    ]
    k_minus_1 = alphas[0].shape[1]

    composite = [z @ a for z in h_outputs for a in alphas]
    lhs_est = mc_complexity_finite(composite, draws, "gaussian", rng)

    rep_est = mc_complexity_finite(h_outputs, draws, "gaussian", rng)
    per_h = [
        mc_complexity_finite([z @ a for a in alphas], draws, "gaussian", rng)
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
        rep_complexity=rep_est.value,
        head_complexity_worst=worst.value,
        lipschitz=lipschitz,
        output_bound=d_out,
        passed=lhs_est.value <= rhs + 3.0 * combined_se,
    )


# --- closed-form risk-rate evaluators ---------------------------------------

DEFAULT_PROFILE: dict[str, float] = {
    "rep_complexity": 1.0,
    "head_complexity": 1.0,
    "tail": 1.0,
    "pretrain_concentration": 1.0,
    "downstream_complexity": 1.0,
    "downstream_concentration": 1.0,
}


@dataclass(frozen=True)
class BoundParams:
    """Inputs of the closed-form risk-rate evaluators.

    ``mlp_caps`` and ``depth`` only matter for the network setting;
    ``norm_cap`` is the covariate norm bound D.
    """

    n: int
    m: int
    k: int
    k_prime: int
    r: int
    d: int
    nu_tilde: float
    norm_cap: float = 1.0
    delta: float = 0.05
    mlp_caps: tuple[float, ...] = ()

    def __post_init__(self):
        for name in ("n", "m", "k", "k_prime", "r", "d"):
            if getattr(self, name) <= 0:
                raise ContractViolation(f"{name} must be positive")
        if not (0 < self.delta < 1):
            raise ContractViolation("delta must lie in (0, 1)")
        if self.nu_tilde < 0:
            raise ContractViolation("nu_tilde must be nonnegative")


def evaluate_risk_bound(
    setting: str, params: BoundParams, profile: dict[str, float] | None = None
) -> float:
    """Evaluate the closed-form excess-risk rate for one setting.

    Hidden universal constants are supplied by ``profile`` (all ones by
    default; unknown keys are rejected) and are configuration, not ground
    truth. ``nu_tilde = 0``
    returns infinity.
    """
    unknown = set(profile or {}) - set(DEFAULT_PROFILE)
    if unknown:
        raise ContractViolation(f"unknown bound profile keys {sorted(unknown)}")
    prof = {**DEFAULT_PROFILE, **(profile or {})}
    p = params
    if p.nu_tilde == 0.0:
        return math.inf
    log_inv_delta = math.log(1.0 / p.delta)

    if setting == "subspace":
        pre = (
            prof["rep_complexity"]
            * math.sqrt(p.k)
            * math.log(p.n)
            * (math.sqrt(p.k * p.d * p.r**2 / p.n) + p.k * math.sqrt(p.r / p.n))
            + prof["tail"] * p.k / p.n**2
            + prof["pretrain_concentration"] * math.sqrt(log_inv_delta / p.n)
        )
        down = prof["downstream_complexity"] * p.k_prime**1.5 * math.sqrt(
            p.r / p.m
        ) + prof["downstream_concentration"] * p.k_prime * math.sqrt(
            log_inv_delta / p.m
        )
        return pre / p.nu_tilde + down

    if setting == "mlp":
        if not p.mlp_caps:
            raise ContractViolation("network setting needs per-layer norm caps")
        m_last = p.mlp_caps[-1]
        depth = len(p.mlp_caps)
        hidden_product = math.prod(p.mlp_caps[:-1]) if depth > 1 else 1.0
        pre = (
            prof["rep_complexity"]
            * p.k
            * p.r
            * m_last**3
            * p.norm_cap
            * math.sqrt(depth)
            * hidden_product
            / math.sqrt(p.n)
            + prof["head_complexity"] * p.k**1.5 * m_last**3 / math.sqrt(p.n)
        )
        down = prof["downstream_complexity"] * p.k_prime**1.5 * m_last**3 / math.sqrt(p.m)
        return pre / p.nu_tilde + down

    raise ContractViolation(f"unknown setting {setting!r}")
