"""Ground-truth construction and synthetic data generation.

Covariates are drawn from the standard Gaussian N(0, I_d) and
rejection-resampled to the norm ball ||x|| <= D = 3 sqrt(d), which keeps
the distribution sub-gaussian with near-identity covariance while
bounding every sample. Labels follow the multinomial logistic
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

from .errors import ContractViolation, InfeasibleDiversityError, require_keys
from .linalg import as_matrix, orthonormalize, sym_spectral
from .model_space import LinearHead, SubspaceRep, component_from_payload, component_to_payload
from .softmax import softmax_full_rows

__all__ = [
    "HEAD_CAP",
    "CovariateSpec",
    "GroundTruth",
    "LabeledDataset",
    "isotropic_covariates",
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


def isotropic_covariates(d: int) -> CovariateSpec:
    """The covariate law of d-dimensional inputs.

    The cap 3 sqrt(d) keeps the truncation loss of covariance below a
    couple of percent.
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
        gram = self.pre_head.alpha @ self.pre_head.alpha.T
        lam, _ = sym_spectral(gram)
        if lam[-1] <= 0.0:
            raise ContractViolation("pre-training head Gram is rank-deficient")

    @property
    def k_prime(self) -> int:
        return self.down_head.n_logits + 1


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
    downstream head.
    """
    if r > d:
        raise ContractViolation(f"need r <= d, got r={r}, d={d}")
    if k - 1 < r:
        raise InfeasibleDiversityError(
            f"k-1={k - 1} < r={r}: head Gram cannot be full rank"
        )
    if condition_number < 1.0:
        raise ContractViolation("condition number must be >= 1")
    if r == 1 and condition_number != 1.0:
        raise InfeasibleDiversityError("r=1 spectrum has a single value; need cond=1")

    # every draw first, so that the condition number moves none of them
    rep = SubspaceRep.random(d, r, rng)
    u = orthonormalize(rng.standard_normal((r, r)))
    v = orthonormalize(rng.standard_normal((k - 1, r)))
    dirs = rng.standard_normal((r, k_prime - 1))

    # singular values of alpha so that alpha alpha^T has the requested spectrum
    s1 = np.sqrt(_TOP_SINGULAR_VALUE)
    if r == 1:
        svals = np.array([s1])
    else:
        exponents = np.arange(r) / (r - 1)
        svals = s1 * condition_number ** (-0.5 * exponents)
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
    eta = rep.apply(x) @ head.alpha
    probs = softmax_full_rows(eta)
    n, k = probs.shape
    u = rng.random(n)
    idx = (probs.cumsum(axis=1) < u[:, None]).sum(axis=1)
    idx = np.minimum(idx, k - 1)
    y = np.zeros((n, k - 1))
    hit = idx < k - 1
    y[np.nonzero(hit)[0], idx[hit]] = 1.0
    return y


def make_dataset(
    truth: GroundTruth,
    spec: CovariateSpec,
    n: int,
    rng: np.random.Generator,
    stage: str = "pretrain",
    seed_label=None,
) -> LabeledDataset:
    """Sample a dataset for one stage of the pipeline from the truth."""
    head = truth.pre_head if stage == "pretrain" else truth.down_head
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
