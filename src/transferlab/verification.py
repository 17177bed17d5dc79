"""Randomized property suites over the analytic machinery.

Five suites: the curvature-ratio (modified self-concordance) sweep, the
Hessian spectrum bound, the two-sided KL envelope, finite-difference
gradient agreement, and the composite-complexity decomposition check.
Each suite returns a ``SuiteResult``; the CLI ``verify`` command runs all
five and maps any failure to a dedicated exit code. The acceptance tests
run the same suites at their full sizes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .diagnostics import chain_rule_check
from .erm import logdet_regularizer, loss_and_grad
from .linalg import sym_spectral
from .model_space import LinearHead, SubspaceRep
from .rngutil import derive_rng
from .softmax import (
    _RATIO_BOUND,
    _max_curvature_ratio,
    cross_entropy_rows,
    hessian_log_partition,
    kl_quadratic_bounds,
    softmax_full_rows,
)

__all__ = [
    "SuiteResult",
    "self_concordance_suite",
    "hessian_spectrum_suite",
    "kl_sandwich_suite",
    "gradient_check_suite",
    "chain_rule_suite",
    "run_all_suites",
]


# draw ranges that no caller varies: the line parameter t of the
# self-concordance suite, the eta norms of the Hessian suite and the class
# counts the KL-sandwich suite alternates between
_SC_T_RANGE = 3.0
_HESSIAN_NORM_BOUND = 5.0
_KL_CLASS_COUNTS = (2, 10)


@dataclass
class SuiteResult:
    name: str
    passed: bool
    checked: int
    detail: str


def self_concordance_suite(
    total: int = 10_000,
    class_counts=(2, 5, 50),
    norm_bound: float = 5.0,
    seed: int = 0,
) -> SuiteResult:
    """|g'''| <= 5 ||v|| g'' at randomized (eta, v, t) for each class count."""
    rng = derive_rng(seed, "self-concordance")
    per = max(1, total // len(class_counts))
    worst = 0.0
    passed = True
    checked = 0
    for k in class_counts:
        dim = k - 1
        eta = rng.standard_normal((per, dim))
        eta *= (norm_bound * rng.random(per) / np.linalg.norm(eta, axis=1))[:, None]
        v = rng.standard_normal((per, dim))
        v *= (norm_bound * rng.random(per) / np.linalg.norm(v, axis=1))[:, None]
        t = rng.uniform(-_SC_T_RANGE, _SC_T_RANGE, per)
        ratio, _, ok = _max_curvature_ratio(eta, v, t)
        worst = max(worst, ratio)
        passed &= ok
        checked += per
    return SuiteResult(
        "self-concordance", passed, checked,
        f"max |g'''|/(||v|| g'') = {worst:.12f} (bound {_RATIO_BOUND})",
    )


def hessian_spectrum_suite(
    total: int = 1000, max_classes: int = 100, seed: int = 0
) -> SuiteResult:
    """Hessian of the log-partition is PSD with top eigenvalue <= 1."""
    rng = derive_rng(seed, "hessian-spectrum")
    worst_top = -np.inf
    worst_bottom = np.inf
    for _ in range(total):
        k = int(rng.integers(2, max_classes + 1))
        eta = rng.standard_normal(k - 1)
        scale = _HESSIAN_NORM_BOUND * rng.random()
        eta *= scale / max(np.linalg.norm(eta), 1e-12)
        lam, _ = sym_spectral(hessian_log_partition(eta))
        worst_top = max(worst_top, float(lam[0]))
        worst_bottom = min(worst_bottom, float(lam[-1]))
    passed = worst_top <= 1.0 + 1e-10 and worst_bottom >= -1e-10
    return SuiteResult(
        "hessian-spectrum", passed, total,
        f"lambda_max <= {worst_top:.12f}, lambda_min >= {worst_bottom:.3e}",
    )


def kl_sandwich_suite(
    total: int = 1000, norm_bound: float = 3.0, seed: int = 0
) -> SuiteResult:
    """lower <= KL <= upper with zero violations."""
    rng = derive_rng(seed, "kl-sandwich")
    violations = 0
    worst_gap = np.inf
    for i in range(total):
        k = _KL_CLASS_COUNTS[i % len(_KL_CLASS_COUNTS)]
        eta_t = rng.standard_normal(k - 1)
        eta_t *= norm_bound * rng.random() / max(np.linalg.norm(eta_t), 1e-12)
        eta_m = rng.standard_normal(k - 1)
        eta_m *= norm_bound * rng.random() / max(np.linalg.norm(eta_m), 1e-12)
        lower, kl, upper = kl_quadratic_bounds(eta_t, eta_m)
        if not (lower <= kl <= upper):
            violations += 1
        worst_gap = min(worst_gap, kl - lower, upper - kl)
    return SuiteResult(
        "kl-sandwich", violations == 0, total,
        f"violations = {violations}, tightest slack = {worst_gap:.3e}",
    )


def _rel_err(analytic: np.ndarray, numeric: np.ndarray) -> float:
    scale = max(float(np.linalg.norm(analytic)), 1e-10)
    return float(np.linalg.norm(analytic - numeric)) / scale


def _fd_grad(fun, point: np.ndarray, h: float = 1e-6) -> np.ndarray:
    grad = np.zeros_like(point)
    flat = grad.ravel()
    p = point.copy().ravel()
    for j in range(p.size):
        step = h * max(1.0, abs(p[j]))
        p[j] += step
        up = fun(p.reshape(point.shape))
        p[j] -= 2 * step
        dn = fun(p.reshape(point.shape))
        p[j] += step
        flat[j] = (up - dn) / (2 * step)
    return grad


def gradient_check_suite(
    instances: int = 100, rtol: float = 1e-4, seed: int = 0
) -> SuiteResult:
    """Finite-difference agreement for loss, representation, and regularizer
    gradients on random small subspace instances."""
    rng = derive_rng(seed, "gradient-checks")
    worst = 0.0
    for _ in range(instances):
        k = int(rng.integers(3, 6))
        d, r, n = 5, 2, 12

        # cross-entropy gradient in the natural parameters
        eta = rng.standard_normal(k - 1)
        y = np.eye(k)[int(rng.integers(0, k)), :-1]
        analytic = softmax_full_rows(eta[None, :])[0, :-1] - y
        numeric = _fd_grad(lambda e: float(cross_entropy_rows(e, y)[0]), eta)
        worst = max(worst, _rel_err(analytic, numeric))

        # empirical risk gradients through a representation
        x = rng.standard_normal((n, d))
        yy = np.eye(k)[rng.integers(0, k, n), :-1]
        alpha = rng.standard_normal((r, k - 1)) * 0.5
        head = LinearHead(alpha, column_cap=10.0)
        rep = SubspaceRep.random(d, r, rng)
        _, g_alpha, g_rep = loss_and_grad(rep, head, x, yy)

        def risk_of_b(b):
            return float(cross_entropy_rows((x @ b) @ alpha, yy).mean())

        worst = max(worst, _rel_err(g_rep, _fd_grad(risk_of_b, rep.b)))
        z = x @ rep.b

        def risk_of_alpha(a):
            return float(cross_entropy_rows(z @ a, yy).mean())

        worst = max(worst, _rel_err(g_alpha, _fd_grad(risk_of_alpha, alpha)))

        # spectral regularizer gradient
        width = int(rng.integers(r, 2 * r + 3))
        a_reg = rng.standard_normal((r, width))
        mu = 10.0 ** float(rng.uniform(-8, -2))
        _, g_reg = logdet_regularizer(a_reg, mu)
        numeric = _fd_grad(lambda a: logdet_regularizer(a, mu)[0], a_reg)
        worst = max(worst, _rel_err(g_reg, numeric))

    return SuiteResult(
        "gradient-checks", worst <= rtol, instances,
        f"worst relative error {worst:.3e} (tolerance {rtol:g})",
    )


def chain_rule_suite(
    instances: int = 20, draws: int = 3000, seed: int = 0
) -> SuiteResult:
    """Composite complexity stays below its decomposition bound."""
    rng = derive_rng(seed, "chain-rule")
    failures = 0
    for i in range(instances):
        n = int(rng.integers(20, 60))
        d = int(rng.integers(3, 7))
        r = int(rng.integers(2, 4))
        k = int(rng.integers(3, 6))
        x = rng.standard_normal((n, d))
        h_cands = [rng.standard_normal((d, r)) for _ in range(int(rng.integers(2, 6)))]
        f_cands = [rng.standard_normal((r, k - 1)) for _ in range(int(rng.integers(2, 6)))]
        report = chain_rule_check(h_cands, f_cands, x, draws, rng)
        if not report.passed:
            failures += 1
    return SuiteResult(
        "chain-rule", failures == 0, instances, f"failing instances = {failures}"
    )


def run_all_suites(
    seed: int = 0,
    sc_total: int = 10_000,
    hessian_total: int = 1000,
    kl_total: int = 1000,
    grad_instances: int = 100,
    chain_instances: int = 20,
) -> list[SuiteResult]:
    return [
        self_concordance_suite(sc_total, seed=seed),
        hessian_spectrum_suite(hessian_total, seed=seed),
        kl_sandwich_suite(kl_total, seed=seed),
        gradient_check_suite(grad_instances, seed=seed),
        chain_rule_suite(chain_instances, seed=seed),
    ]
