"""Log-partition geometry of the multinomial logistic model.

The model over K classes is parameterized by natural parameters
``eta in R^{K-1}`` (class K carries an implicit logit of 0) with
log-partition ``Phi(eta) = log(1 + sum_s exp(eta_s))``. Cross-entropy,
softmax, KL divergence, directional derivatives of ``Phi`` along a line,
and the curvature-envelope inequalities that make the loss behave
quadratically near any point all live here.

Everything is a pure function. Scalar operations accept 1-D arrays; the
``*_rows`` variants operate on stacked rows and are the hot path for the
training and Monte Carlo code.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ContractViolation
from .linalg import sym_spectral

__all__ = [
    "log_partition",
    "log_partition_rows",
    "softmax_prob",
    "softmax_full_rows",
    "cross_entropy",
    "cross_entropy_rows",
    "grad_log_partition",
    "hessian_log_partition",
    "kl_divergence",
    "kl_rows",
    "directional_derivatives",
    "directional_derivatives_rows",
    "SelfConcordanceReport",
    "check_self_concordance",
    "kl_quadratic_bounds",
]


def _as_eta(eta, name: str = "eta") -> np.ndarray:
    e = np.asarray(eta, dtype=np.float64)
    if e.ndim != 1 or e.size < 1:
        raise ContractViolation(f"{name} must be a nonempty 1-D vector")
    if not np.all(np.isfinite(e)):
        raise ContractViolation(f"{name} has non-finite entries")
    return e


def _as_label(y, k_minus_1: int) -> np.ndarray:
    lab = np.asarray(y, dtype=np.float64)
    if lab.shape != (k_minus_1,):
        raise ContractViolation(
            f"label length {lab.shape} does not match eta length {k_minus_1}"
        )
    if not np.all((lab == 0.0) | (lab == 1.0)) or lab.sum() > 1.0:
        raise ContractViolation("label must be one-hot (or all-zero for class K)")
    return lab


def log_partition_rows(eta_rows: np.ndarray) -> np.ndarray:
    """Row-wise log(1 + sum_s exp(eta_s)), max-shifted against overflow."""
    e = np.atleast_2d(np.asarray(eta_rows, dtype=np.float64))
    shift = np.maximum(e.max(axis=1), 0.0)
    acc = np.exp(-shift) + np.exp(e - shift[:, None]).sum(axis=1)
    return shift + np.log(acc)


def softmax_full_rows(eta_rows: np.ndarray) -> np.ndarray:
    """Row-wise probabilities over all K classes (implicit class last)."""
    e = np.atleast_2d(np.asarray(eta_rows, dtype=np.float64))
    shift = np.maximum(e.max(axis=1), 0.0)
    num = np.concatenate([np.exp(e - shift[:, None]), np.exp(-shift)[:, None]], axis=1)
    return num / num.sum(axis=1, keepdims=True)


def cross_entropy_rows(eta_rows: np.ndarray, y_rows: np.ndarray) -> np.ndarray:
    """Row-wise -y.eta + Phi(eta); ``y_rows`` may be one-hot or soft targets."""
    e = np.atleast_2d(np.asarray(eta_rows, dtype=np.float64))
    y = np.atleast_2d(np.asarray(y_rows, dtype=np.float64))
    return log_partition_rows(e) - (e * y).sum(axis=1)


def kl_rows(eta_true_rows: np.ndarray, eta_model_rows: np.ndarray) -> np.ndarray:
    """Row-wise KL between conditionals, as the Bregman remainder of Phi.

    KL[P(.|t), P(.|m)] = Phi(m) - Phi(t) - grad Phi(t).(m - t); tiny
    negative rounding residues are clamped to zero.
    """
    t = np.atleast_2d(np.asarray(eta_true_rows, dtype=np.float64))
    m = np.atleast_2d(np.asarray(eta_model_rows, dtype=np.float64))
    if t.shape != m.shape:
        raise ContractViolation(f"shape mismatch {t.shape} vs {m.shape}")
    sigma_t = softmax_full_rows(t)[:, :-1]
    val = log_partition_rows(m) - log_partition_rows(t) - (sigma_t * (m - t)).sum(axis=1)
    return np.maximum(val, 0.0)


def log_partition(eta) -> float:
    """Phi(eta) = log(1 + sum_s exp(eta_s))."""
    return float(log_partition_rows(_as_eta(eta)[None, :])[0])


def softmax_prob(eta) -> np.ndarray:
    """Probabilities of all K classes; entry K is the implicit class."""
    return softmax_full_rows(_as_eta(eta)[None, :])[0]


def cross_entropy(eta, y) -> float:
    """Multinomial logistic loss -y.eta + Phi(eta)."""
    e = _as_eta(eta)
    lab = _as_label(y, e.size)
    return float(cross_entropy_rows(e[None, :], lab[None, :])[0])


def grad_log_partition(eta) -> np.ndarray:
    """Gradient of Phi: the first K-1 softmax probabilities."""
    return softmax_prob(eta)[:-1]


def hessian_log_partition(eta) -> np.ndarray:
    """Hessian diag(sigma) - sigma sigma^T; PSD with top eigenvalue <= 1."""
    sigma = grad_log_partition(eta)
    return np.diag(sigma) - np.outer(sigma, sigma)


def kl_divergence(eta_true, eta_model) -> float:
    t = _as_eta(eta_true, "eta_true")
    m = _as_eta(eta_model, "eta_model")
    if t.shape != m.shape:
        raise ContractViolation(f"length mismatch {t.size} vs {m.size}")
    return float(kl_rows(t[None, :], m[None, :])[0])


def directional_derivatives_rows(
    eta_rows: np.ndarray, v_rows: np.ndarray, t: np.ndarray | float = 0.0
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """First three derivatives of g(t) = Phi(eta + t v), row-wise.

    Writing w for the full K-class softmax at eta + t v and extending v
    with v_K = 0, the derivatives are the first three cumulants of the
    class statistic v under w:

        g'   = E_w[v]
        g''  = E_w[(v - E v)^2]   (>= 0)
        g''' = E_w[(v - E v)^3]

    The centered forms keep the huge exponentials of the raw polynomial
    expansion out of the arithmetic.
    """
    e = np.atleast_2d(np.asarray(eta_rows, dtype=np.float64))
    v = np.atleast_2d(np.asarray(v_rows, dtype=np.float64))
    if e.shape != v.shape:
        raise ContractViolation(f"shape mismatch {e.shape} vs {v.shape}")
    tt = np.asarray(t, dtype=np.float64)
    point = e + (tt[:, None] if tt.ndim == 1 else tt) * v
    w = softmax_full_rows(point)
    v_full = np.concatenate([v, np.zeros((v.shape[0], 1))], axis=1)
    mean = (w * v_full).sum(axis=1)
    centered = v_full - mean[:, None]
    g2 = (w * centered**2).sum(axis=1)
    g3 = (w * centered**3).sum(axis=1)
    return mean, np.maximum(g2, 0.0), g3


def directional_derivatives(eta, v, t: float = 0.0) -> tuple[float, float, float]:
    """(g'(t), g''(t), g'''(t)) for g(t) = Phi(eta + t v)."""
    e = _as_eta(eta)
    vv = _as_eta(v, "v")
    if e.shape != vv.shape:
        raise ContractViolation(f"length mismatch {e.size} vs {vv.size}")
    if not np.any(vv):
        raise ContractViolation("direction v must be nonzero")
    g1, g2, g3 = directional_derivatives_rows(e[None, :], vv[None, :], float(t))
    return float(g1[0]), float(g2[0]), float(g3[0])


# the modified self-concordance constant of Phi, and the rounding slack
# allowed when checking it numerically
_RATIO_BOUND = 5.0
_RATIO_SLACK = 1e-9
# g'' below this is treated as an exact zero limit and the point skipped
_CURVATURE_FLOOR = 1e-300


@dataclass
class SelfConcordanceReport:
    """Outcome of a line-restricted curvature-ratio check."""

    max_ratio: float
    passed: bool
    n_points: int
    n_skipped: int
    ratio_bound: float = _RATIO_BOUND


def _max_curvature_ratio(eta_rows, v_rows, t) -> tuple[float, int, bool]:
    """Largest |g'''(t)| / (||v|| g''(t)) over the rows, with g(t) = Phi(eta + t v).

    Returns the ratio (0 when no row is usable), the number of rows
    skipped because g'' underflows to zero, where the inequality
    degenerates to 0 <= 0, and whether the ratio is within the bound.
    """
    _, g2, g3 = directional_derivatives_rows(eta_rows, v_rows, t)
    usable = g2 > _CURVATURE_FLOOR
    vnorm = np.linalg.norm(v_rows, axis=1)
    ratios = np.abs(g3[usable]) / (vnorm[usable] * g2[usable])
    max_ratio = float(ratios.max()) if ratios.size else 0.0
    skipped = int(usable.size - usable.sum())
    return max_ratio, skipped, max_ratio <= _RATIO_BOUND + _RATIO_SLACK


def check_self_concordance(eta, v, t_grid) -> SelfConcordanceReport:
    """Verify |g'''(t)| <= 5 ||v|| g''(t) along the line eta + t v.

    Grid points where g'' underflows to zero are skipped and counted; the
    inequality degenerates to 0 <= 0 there.
    """
    e = _as_eta(eta)
    vv = _as_eta(v, "v")
    if not np.any(vv):
        raise ContractViolation("direction v must be nonzero")
    ts = np.asarray(t_grid, dtype=np.float64).ravel()
    rows = np.repeat(e[None, :], ts.size, axis=0)
    vs = np.repeat(vv[None, :], ts.size, axis=0)
    max_ratio, skipped, passed = _max_curvature_ratio(rows, vs, ts)
    return SelfConcordanceReport(max_ratio, passed, int(ts.size), skipped)


def kl_quadratic_bounds(eta_true, eta_model) -> tuple[float, float, float]:
    """Two-sided quadratic envelope of the KL divergence.

    With v = eta_model - eta_true, q0 = max(||eta_model||, ||eta_true||)
    and c0 half the least Hessian eigenvalue at eta_true:

        c0 exp(-10 q0) ||v||^2  <=  KL  <=  ||v||^2 / 2.

    Each of the three values is computed independently.
    """
    t = _as_eta(eta_true, "eta_true")
    m = _as_eta(eta_model, "eta_model")
    if t.shape != m.shape:
        raise ContractViolation(f"length mismatch {t.size} vs {m.size}")
    v = m - t
    vsq = float(v @ v)
    if vsq == 0.0:
        return 0.0, 0.0, 0.0
    lam, _ = sym_spectral(hessian_log_partition(t))
    c0 = 0.5 * float(lam[-1])
    q0 = max(float(np.linalg.norm(t)), float(np.linalg.norm(m)))
    lower = c0 * np.exp(-10.0 * q0) * vsq
    upper = 0.5 * vsq
    return float(lower), kl_divergence(t, m), float(upper)
