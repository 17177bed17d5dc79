"""Log-partition geometry of the multinomial logistic model.

The model over K classes is parameterized by natural parameters
``eta in R^{K-1}`` (class K carries an implicit logit of 0) with
log-partition ``Phi(eta) = log(1 + sum_s exp(eta_s))``. Cross-entropy,
softmax, KL divergence, directional derivatives of ``Phi`` along a line,
and the curvature-envelope inequalities that make the loss behave
quadratically near any point all live here.

One kernel, ``_log_partition_cols``, evaluates Phi in one exp pass. It
takes a class-major (K-1, N) block, one column per sample, and returns
Phi with the softmax in unnormalized form ``(expo, tail, denom)``: the
probabilities are expo / denom and tail / denom, and the caller decides
whether to divide at all (the training loss never does). A block whose
largest logit is at most ``_SHIFT_FREE_MAX`` is exponentiated as it is:
after the column max, one exp pass and one column sum, with no subtract;
any other block, and every block holding a NaN, is max-shifted per
column against overflow. Columns with
no positive logit get the same bits either way. The training loss
passes it a C-ordered block; the ``*_rows`` functions pass their
(N, K-1) rows transposed, so ``kl_rows(b.T, ...)`` reads a class-major
block ``b`` without a copy. ``kl_rows`` evaluates its rows as one block
through two C-ordered (K-1, N) buffers, so the whole block takes one
branch; a caller that wants bounded memory passes it a chunk at a time.
``hessian_log_partition`` and ``kl_quadratic_bounds`` take one 1-D
``eta`` each. All are pure functions.
"""

from __future__ import annotations

import numpy as np

from .errors import ContractViolation
from .linalg import sym_spectral

__all__ = [
    "softmax_full_rows",
    "cross_entropy_rows",
    "hessian_log_partition",
    "kl_rows",
    "kl_quadratic_bounds",
]


def _as_eta(eta, name: str = "eta") -> np.ndarray:
    e = np.asarray(eta, dtype=np.float64)
    if e.ndim != 1 or e.size < 1:
        raise ContractViolation(f"{name} must be a nonempty 1-D vector")
    if not np.all(np.isfinite(e)):
        raise ContractViolation(f"{name} has non-finite entries")
    return e


def _rows(eta_rows) -> np.ndarray:
    return np.atleast_2d(np.asarray(eta_rows, dtype=np.float64))


# Largest logit of a block exponentiated without a shift: exp(300) is
# about 2e130, so a column sum stays finite for any realistic K and the
# gradients can scale the unnormalized exponentials by 1/denom afterwards.
_SHIFT_FREE_MAX = 300.0


def _log_partition_cols(logits: np.ndarray, out: np.ndarray | None = None):
    """Phi of each column of a (K-1, N) logit block, and the softmax parts.

    Returns ``(phi, expo, tail, denom)`` with expo = exp(logits - shift),
    tail = exp(-shift) for class K and denom = expo.sum(axis=0) + tail, so
    phi = shift + log(denom) and the softmax is expo / denom. When no logit
    of the block exceeds ``_SHIFT_FREE_MAX`` the shift is 0 and tail is 1.0
    (no subtract pass); otherwise, and in every block with a NaN, it is
    max(0, column max). ``expo`` goes to ``out`` when given (it may be
    ``logits``); otherwise ``logits`` is left untouched.
    """
    shift = logits.max(axis=0)
    if shift.max(initial=-np.inf) <= _SHIFT_FREE_MAX:
        expo = np.exp(logits, out=out)
        denom = expo.sum(axis=0)
        denom += 1.0
        return np.log(denom), expo, 1.0, denom
    np.maximum(shift, 0.0, out=shift)
    expo = np.subtract(logits, shift, out=out)
    np.exp(expo, out=expo)
    tail = np.exp(-shift)
    denom = expo.sum(axis=0)
    denom += tail
    return shift + np.log(denom), expo, tail, denom


def _log_partition_rows(eta_rows: np.ndarray) -> np.ndarray:
    """Row-wise log(1 + sum_s exp(eta_s)), max-shifted against overflow."""
    return _log_partition_cols(_rows(eta_rows).T)[0]


def softmax_full_rows(eta_rows: np.ndarray) -> np.ndarray:
    """Row-wise probabilities over all K classes (implicit class last)."""
    e = _rows(eta_rows)
    _, expo, tail, denom = _log_partition_cols(e.T)
    probs = np.empty((e.shape[0], e.shape[1] + 1))
    np.divide(expo, denom, out=probs.T[:-1])
    np.divide(tail, denom, out=probs.T[-1])
    return probs


def cross_entropy_rows(eta_rows: np.ndarray, y_rows: np.ndarray) -> np.ndarray:
    """Row-wise -y.eta + Phi(eta); ``y_rows`` may be one-hot or soft targets."""
    e = _rows(eta_rows)
    return _log_partition_rows(e) - (e * _rows(y_rows)).sum(axis=1)


def kl_rows(eta_true_rows: np.ndarray, eta_model_rows: np.ndarray) -> np.ndarray:
    """Row-wise KL between conditionals, as the Bregman remainder of Phi.

    KL[P(.|t), P(.|m)] = Phi(m) - Phi(t) - grad Phi(t).(m - t); tiny
    negative rounding residues are clamped to zero. The rows are one
    block, which picks its kernel branch as a whole. The exponentials go
    to two C-ordered (K-1, N) buffers, so each column sum runs over the
    classes in one order whatever the layout of the caller's rows.
    """
    t, m = _rows(eta_true_rows), _rows(eta_model_rows)
    if t.shape != m.shape:
        raise ContractViolation(f"shape mismatch {t.shape} vs {m.shape}")
    ct, cm = t.T, m.T
    phi_t, expo_t, _, denom_t = _log_partition_cols(ct, out=np.empty(ct.shape))
    phi_m, gap, _, _ = _log_partition_cols(cm, out=np.empty(cm.shape))
    # the model's exponentials are spent; their buffer takes (m - t) exp(t - shift)
    np.subtract(cm, ct, out=gap)
    gap *= expo_t
    kl = gap.sum(axis=0)
    kl /= denom_t
    kl += phi_t
    np.subtract(phi_m, kl, out=kl)
    return np.maximum(kl, 0.0, out=kl)


def hessian_log_partition(eta) -> np.ndarray:
    """Hessian diag(sigma) - sigma sigma^T; PSD with top eigenvalue <= 1."""
    sigma = softmax_full_rows(_as_eta(eta)[None, :])[0, :-1]
    return np.diag(sigma) - np.outer(sigma, sigma)


def _directional_derivatives_rows(
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
    e, v = _rows(eta_rows), _rows(v_rows)
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


# the modified self-concordance constant of Phi, and the rounding slack
# allowed when checking it numerically
_RATIO_BOUND = 5.0
_RATIO_SLACK = 1e-9
# g'' below this is treated as an exact zero limit and the point skipped
_CURVATURE_FLOOR = 1e-300


def _max_curvature_ratio(eta_rows, v_rows, t) -> tuple[float, int, bool]:
    """Largest |g'''(t)| / (||v|| g''(t)) over the rows, with g(t) = Phi(eta + t v).

    Returns the ratio (0 when no row is usable), the number of rows
    skipped because g'' underflows to zero, where the inequality
    degenerates to 0 <= 0, and whether the ratio is within the bound.
    """
    _, g2, g3 = _directional_derivatives_rows(eta_rows, v_rows, t)
    usable = g2 > _CURVATURE_FLOOR
    vnorm = np.linalg.norm(v_rows, axis=1)
    ratios = np.abs(g3[usable]) / (vnorm[usable] * g2[usable])
    max_ratio = float(ratios.max()) if ratios.size else 0.0
    skipped = int(usable.size - usable.sum())
    return max_ratio, skipped, max_ratio <= _RATIO_BOUND + _RATIO_SLACK


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
    return float(lower), float(kl_rows(t[None, :], m[None, :])[0]), float(upper)
