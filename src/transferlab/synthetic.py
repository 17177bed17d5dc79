"""Ground-truth construction and synthetic data generation.

Covariates are drawn from the standard Gaussian N(0, I_d) and
rejection-resampled to the norm ball ||x|| <= D = 3 sqrt(d), which keeps
the distribution sub-gaussian with second moment kappa_d I_d, kappa_d just
below 1, while bounding every sample. Labels follow the multinomial logistic
conditional of a ground-truth (representation, head) pair; class K is
encoded as the all-zero one-hot row.

The pre-training truth head is built with a prescribed spectrum so the
least singular value of alpha alpha^T (the diversity of the task) is an
experimental control knob.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import ContractViolation, require_keys
from .linalg import as_matrix, orthonormalize
from .model_space import (
    LinearHead, SubspaceRep, component_from_payload, component_to_payload, diversity_parameter)
from .softmax import softmax_full_rows

__all__ = [
    "HEAD_CAP",
    "CovariateSpec",
    "GroundTruth",
    "LabeledDataset",
    "isotropic_covariates",
    "check_truth_params",
    "make_ground_truth",
    "sample_covariates",
    "make_dataset",
    "save_dataset",
    "load_dataset",
    "save_truth",
    "load_truth",
]


# the covariates' norm cap is this factor times sqrt(d), read at each draw
_CAP_FACTOR = 3.0


@dataclass(frozen=True)
class CovariateSpec:
    """Covariate law: N(0, I_d) truncated to the ball of radius 3 sqrt(d)."""

    dim: int

    @property
    def norm_cap(self) -> float:
        return _CAP_FACTOR * math.sqrt(self.dim)

    @property
    def second_moment(self) -> float:
        """kappa_d with E[x x^T] = kappa_d I_d: F_{d+2}(t) / F_d(t) at t = norm_cap^2,
        F_nu the chi-square CDF, stepped up from F_1 or F_2 by F_{nu+2}(t) =
        F_nu(t) - (t/2)^{nu/2} exp(-t/2) / Gamma(nu/2 + 1)."""
        half_t = _CAP_FACTOR**2 * self.dim / 2.0

        def drop(nu):  # F_nu(t) - F_{nu+2}(t)
            return math.exp(nu / 2 * math.log(half_t) - half_t - math.lgamma(nu / 2 + 1))

        start = 2 - self.dim % 2
        cdf = math.erf(math.sqrt(half_t)) if start == 1 else -math.expm1(-half_t)
        for nu in range(start, self.dim, 2):
            cdf -= drop(nu)
        return (cdf - drop(self.dim)) / cdf


def isotropic_covariates(d: int) -> CovariateSpec:
    """The covariate law of d-dimensional inputs.

    The cap 3 sqrt(d) scales the second moment by kappa_d
    (``CovariateSpec.second_moment``): 0.97334 at d = 1, 0.99889 at d = 2,
    1 - 1.2e-7 at d = 5, and within 2e-11 of 1 from d = 8 on.
    """
    return CovariateSpec(d)


@dataclass(frozen=True)
class GroundTruth:
    """Shared true representation plus the two stage heads."""

    rep: SubspaceRep
    pre_head: LinearHead
    down_head: LinearHead

    def __post_init__(self):
        if self.pre_head.embed_dim != self.down_head.embed_dim:
            raise ContractViolation("stage heads disagree on embedding dimension")
        if self.pre_head.embed_dim != self.rep.embed_dim:
            raise ContractViolation("head embedding dim does not match representation")
        if diversity_parameter(self.pre_head) <= 0.0:
            raise ContractViolation("pre-training head Gram is rank-deficient")

    @property
    def k_prime(self) -> int:
        return self.down_head.n_logits + 1

    def head(self, stage: str) -> LinearHead:
        """The truth head of ``stage``, "pretrain" or "downstream"; any other
        stage is a ContractViolation."""
        if stage not in ("pretrain", "downstream"):
            raise ContractViolation(f"unknown stage {stage!r}")
        return self.pre_head if stage == "pretrain" else self.down_head


@dataclass(frozen=True)
class LabeledDataset:
    """Covariates with one-hot labels; the all-zero row encodes class K."""

    x: np.ndarray
    y: np.ndarray
    k: int
    seed: object = None

    def __post_init__(self):
        x = as_matrix(self.x, "covariates")
        y = as_matrix(self.y, "labels")
        if y.shape != (x.shape[0], self.k - 1):
            raise ContractViolation(
                f"label block {y.shape} does not match n={x.shape[0]}, K={self.k}"
            )
        if not np.all((y == 0.0) | (y == 1.0)) or np.any(y.sum(axis=1) > 1.0):
            raise ContractViolation("label rows must be one-hot or all-zero")
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)

    @property
    def n(self) -> int:
        return self.x.shape[0]

    @property
    def dim(self) -> int:
        return self.x.shape[1]


# the column cap of both truth heads; the top singular value of the
# pre-training head and the downstream columns' share of the cap
HEAD_CAP = 1.0
_TOP_SINGULAR_VALUE = 1.0
_DOWN_HEAD_FILL = 0.7
# the largest condition number of a truth: its diversity 1/cond stays far
# above the float64 rounding of the unit-scale Gram's least eigenvalue
_MAX_CONDITION_NUMBER = 1e12


def check_truth_params(d: int, r: int, k: int, k_prime: int, condition_number: float) -> None:
    """Raise a ContractViolation naming the combination unless it admits a truth:
    1 <= r <= min(d, K-1), as the head Gram's rank is at most K-1; K' >= 2; and
    1 <= cond <= 1e12, with cond = 1 at r = 1 (a one-value spectrum)."""
    if not 1 <= r <= min(d, k - 1):
        problem = "need 1 <= r <= d and r <= k-1 (else the head Gram cannot be full rank)"
    elif k_prime < 2:
        problem = "need k_prime >= 2"
    elif not 1.0 <= condition_number <= _MAX_CONDITION_NUMBER:
        problem = f"need 1 <= condition_number <= {_MAX_CONDITION_NUMBER:g}"
    elif r == 1 and condition_number != 1.0:
        problem = "an r=1 spectrum has a single value, so it needs condition_number = 1"
    else:
        return
    raise ContractViolation(
        f"d={d}, r={r}, k={k}, k_prime={k_prime}, condition_number={condition_number}: "
        f"{problem}")


def make_ground_truth(
    d: int,
    r: int,
    k: int,
    k_prime: int,
    condition_number: float,
    rng: np.random.Generator,
) -> GroundTruth:
    """Random truth with a prescribed pre-training head spectrum.

    The representation is a uniformly random orthonormal frame. The
    pre-training head is U diag(s) V^T with singular values geometrically
    interpolated so sigma_1 / sigma_r of alpha alpha^T equals
    ``condition_number`` and sigma_1 stays at 1, so the condition number
    alone moves the diversity; every column norm is at most sigma_1 = 1.
    The downstream head shares the representation; its columns are random
    directions of norm 0.7. Both heads are capped at ``HEAD_CAP`` = 1.
    Every random draw comes before the spectrum is set, so truths that
    differ only in ``condition_number`` share the frame, U, V and the
    downstream head. ``check_truth_params`` vets the parameters before any draw.
    """
    check_truth_params(d, r, k, k_prime, condition_number)

    # every draw first, so that the condition number moves none of them
    rep = SubspaceRep.random(d, r, rng)
    u = orthonormalize(rng.standard_normal((r, r)))
    v = orthonormalize(rng.standard_normal((k - 1, r)))
    dirs = rng.standard_normal((r, k_prime - 1))

    # singular values of alpha so that alpha alpha^T has the requested
    # spectrum; at r = 1 the condition number is 1, so the one value is sigma_1
    exponents = np.arange(r) / max(r - 1, 1)
    svals = np.sqrt(_TOP_SINGULAR_VALUE) * condition_number ** (-0.5 * exponents)
    alpha_pre = (u * svals) @ v.T

    dirs /= np.linalg.norm(dirs, axis=0)
    alpha_down = dirs * (_DOWN_HEAD_FILL * HEAD_CAP)

    return GroundTruth(
        rep=rep,
        pre_head=LinearHead(alpha_pre, HEAD_CAP),
        down_head=LinearHead(alpha_down, HEAD_CAP),
    )


_MIN_BATCH = 1000


def sample_covariates(spec: CovariateSpec, n: int, rng: np.random.Generator) -> np.ndarray:
    """Draw n rows of N(0, I_d) restricted to ||x|| <= norm_cap."""
    if n < 1:
        raise ContractViolation("need n >= 1")
    out = np.empty((n, spec.dim))
    got = 0
    while got < n:
        batch = max(n - got, _MIN_BATCH)
        cand = rng.standard_normal((batch, spec.dim))
        inside = np.linalg.norm(cand, axis=1) <= spec.norm_cap
        if got == 0 and inside.all():
            return cand[:n]  # the batch covers n and the cap rejects none of it
        keep = cand[inside]
        take = min(keep.shape[0], n - got)
        out[got : got + take] = keep[:take]
        got += take
    return out


def _sample_labels(
    rep: SubspaceRep,
    head: LinearHead,
    x: np.ndarray,
    rng: np.random.Generator,
) -> np.ndarray:
    """One-hot labels drawn from the softmax conditional of head(rep(x))."""
    probs = softmax_full_rows(rep.apply(x) @ head.alpha)
    n, k = probs.shape
    u = rng.random(n)
    idx = (probs.cumsum(axis=1) < u[:, None]).sum(axis=1)
    # an index past K-1 (rounding in the cumulative sum) is class K too
    return (idx[:, None] == np.arange(k - 1)).astype(np.float64)


def make_dataset(
    truth: GroundTruth,
    spec: CovariateSpec,
    n: int,
    rng: np.random.Generator,
    stage: str = "pretrain",
    seed_label=None,
) -> LabeledDataset:
    """Sample a dataset for one stage of the pipeline from the truth; an
    unknown stage is rejected before any draw."""
    head = truth.head(stage)
    x = sample_covariates(spec, n, rng)
    y = _sample_labels(truth.rep, head, x, rng)
    return LabeledDataset(x=x, y=y, k=head.n_logits + 1, seed=seed_label)


def save_dataset(path, ds: LabeledDataset) -> None:
    """CSV with a header line and rows x_1,...,x_d,label_index (1-based)."""
    labels = np.where(ds.y.sum(axis=1) > 0, ds.y.argmax(axis=1) + 1, ds.k)
    line = ",".join(["%.17g"] * ds.dim) + ",%d\n"
    with open(path, "w") as fh:
        fh.write(f"# d={ds.dim} K={ds.k} n={ds.n} seed={ds.seed}\n")
        fh.writelines(line % (*row, lab) for row, lab in zip(ds.x.tolist(), labels.tolist()))


_TRUTH_ROLES = ("rep", "pre_head", "down_head")


def save_truth(path, truth: GroundTruth) -> None:
    """Write the truth models to one JSON file."""
    doc = {role: component_to_payload(getattr(truth, role)) for role in _TRUTH_ROLES}
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1)


def load_truth(path) -> GroundTruth:
    """Read a ``save_truth`` file; other keys, such as an older file's
    ``covariates`` section, are ignored."""
    with open(path) as fh:
        doc = json.load(fh)
    require_keys(doc, _TRUTH_ROLES, f"truth {path}")
    return GroundTruth(**{role: component_from_payload(doc[role], role)
                          for role in _TRUTH_ROLES})


def load_dataset(path) -> LabeledDataset:
    """Read a ``save_dataset`` file; a malformed header or row is a ContractViolation."""
    with open(path) as fh:
        header = fh.readline().split()
        if header[:1] != ["#"] or not all("=" in token for token in header[1:]):
            raise ContractViolation(f"dataset header {header} is not '# key=value ...'")
        fields = dict(token.split("=", 1) for token in header[1:])
        require_keys(fields, ("d", "K", "n"), "dataset header")
        if not all(fields[key].isdecimal() for key in ("d", "K", "n")):
            raise ContractViolation(f"dataset header d, K and n must be counts: {header}")
        d, k, n = int(fields["d"]), int(fields["K"]), int(fields["n"])
        if d < 1 or k < 2:
            raise ContractViolation("dataset header needs d >= 1 and K >= 2")
        x, lab = _parse_rows(path, fh, d)
    if len(lab) != n:
        raise ContractViolation(f"{path} has {len(lab)} rows, header says n={n}")
    bad = np.flatnonzero((lab < 1) | (lab > k))
    if bad.size:
        raise ContractViolation(
            f"{path} line {bad[0] + 2}: label {lab[bad[0]]} outside 1..{k}"
        )
    y = np.eye(k)[lab - 1, :-1]  # one-hot rows; class K is the all-zero row
    return LabeledDataset(x=x, y=y, k=k, seed=fields.get("seed"))


def _parse_rows(path, fh, d: int) -> tuple[np.ndarray, np.ndarray]:
    """Covariates and 1-based labels of the data lines of an open dataset file.

    One numpy pass reads a well-formed body; numpy's float parser rounds
    like ``float()``. When numpy rejects a line, skips a blank one or
    finds none (on which it warns), the lines are read again one by one,
    accepting what ``float()`` and ``int()`` accept and naming the file
    and line of the first bad row.
    """
    start, count = fh.tell(), 0

    def counted():
        nonlocal count
        for line in fh:
            count += 1
            yield line

    lines = counted()
    first = next(lines, None)
    if first is not None:
        try:
            table = np.loadtxt(
                itertools.chain((first,), lines), delimiter=",", comments=None, ndmin=1,
                dtype=[("x", np.float64, (d,)), ("label", np.int64)],
            )
            if len(table) == count:
                return np.ascontiguousarray(table["x"]), table["label"]
        except ValueError:
            pass
        fh.seek(start)
    xs, labels = [], []
    for row, line in enumerate(fh, start=2):
        parts = line.split(",")
        if len(parts) != d + 1:
            raise ContractViolation(
                f"{path} line {row} has {len(parts)} fields, not d+1 = {d + 1}"
            )
        try:
            xs.append([float(v) for v in parts[:-1]])
            labels.append(int(parts[-1]))
        except ValueError as exc:
            raise ContractViolation(f"{path} line {row}: {exc}") from None
    return np.array(xs, dtype=np.float64).reshape(len(xs), d), np.array(labels, dtype=np.int64)
