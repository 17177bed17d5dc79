"""Ground-truth construction and synthetic data generation.

Covariates are drawn from a centered Gaussian N(0, Sigma) and
rejection-resampled to the norm ball ||x|| <= D, which keeps the
distribution sub-gaussian with the stated covariance spectrum while
bounding every sample. Labels follow the multinomial logistic
conditional of a ground-truth (representation, head) pair; class K is
encoded as the all-zero one-hot row.

The pre-training truth head is built with a prescribed spectrum so the
least singular value of alpha alpha^T (the diversity of the task) is an
experimental control knob.
"""

from __future__ import annotations

import hashlib
import itertools
import json
from dataclasses import dataclass

import numpy as np

from .errors import (
    ContractViolation, InfeasibleDiversityError, InfeasibleSamplingError, require_keys,
    require_numbers,
)
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
    "covariate_spec_hash",
]


@dataclass(frozen=True)
class CovariateSpec:
    """Covariate law: N(0, Sigma) truncated to the ball of radius ``norm_cap``.

    ``sigma_min``/``sigma_max`` are the certified bounds on the spectrum
    of Sigma; construction fails if Sigma leaves them, if they are not
    0 <= sigma_min <= sigma_max, or if ``norm_cap`` is not positive
    (NaN included).
    """

    sigma: np.ndarray
    norm_cap: float
    sigma_min: float
    sigma_max: float

    def __post_init__(self):
        if not 0.0 <= self.sigma_min <= self.sigma_max:
            raise ContractViolation("spectrum bounds need 0 <= sigma_min <= sigma_max")
        if not self.norm_cap > 0:
            raise ContractViolation(f"norm cap must be positive, got {self.norm_cap}")
        s = as_matrix(self.sigma, "covariance")
        lam, _ = sym_spectral(s)
        if lam[-1] < self.sigma_min - 1e-10 or lam[0] > self.sigma_max + 1e-10:
            raise ContractViolation(
                f"spectrum [{lam[-1]:.3e}, {lam[0]:.3e}] outside "
                f"[{self.sigma_min:.3e}, {self.sigma_max:.3e}]"
            )
        object.__setattr__(self, "sigma", s)

    @property
    def dim(self) -> int:
        return self.sigma.shape[0]


def isotropic_covariates(d: int, scale: float = 1.0, cap_factor: float = 3.0) -> CovariateSpec:
    """Identity-covariance spec with D = cap_factor * sqrt(tr Sigma).

    The default factor 3 keeps the truncation loss of covariance below a
    couple of percent.
    """
    sigma = np.eye(d) * scale
    # a negative scale gives a NaN cap, which CovariateSpec rejects
    with np.errstate(invalid="ignore"):
        cap = cap_factor * np.sqrt(d * scale)
    return CovariateSpec(sigma, cap, sigma_min=scale, sigma_max=scale)


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

    rep = SubspaceRep.random(d, r, rng)

    # singular values of alpha so that alpha alpha^T has the requested spectrum
    s1 = np.sqrt(_TOP_SINGULAR_VALUE)
    if r == 1:
        svals = np.array([s1])
    else:
        exponents = np.arange(r) / (r - 1)
        svals = s1 * condition_number ** (-0.5 * exponents)
    u = orthonormalize(rng.standard_normal((r, r)))
    v = orthonormalize(rng.standard_normal((k - 1, r)))
    alpha_pre = (u * svals) @ v.T

    dirs = rng.standard_normal((r, k_prime - 1))
    dirs /= np.linalg.norm(dirs, axis=0)
    alpha_down = dirs * (_DOWN_HEAD_FILL * HEAD_CAP)

    return GroundTruth(
        rep=rep,
        pre_head=LinearHead(alpha_pre, HEAD_CAP),
        down_head=LinearHead(alpha_down, HEAD_CAP),
    )


_PROBE_BATCH = 1000
_MIN_ACCEPT = 0.01


def sample_covariates(spec: CovariateSpec, n: int, rng: np.random.Generator) -> np.ndarray:
    """Draw n rows of N(0, Sigma) restricted to ||x|| <= norm_cap."""
    if n < 1:
        raise ContractViolation("need n >= 1")
    lam, vec = sym_spectral(spec.sigma)
    factor = vec * np.sqrt(np.maximum(lam, 0.0))
    out = np.empty((n, spec.dim))
    got = 0
    probe_drawn = 0
    probe_kept = 0
    while got < n:
        batch = max(n - got, _PROBE_BATCH)
        cand = rng.standard_normal((batch, spec.dim)) @ factor.T
        inside = np.linalg.norm(cand, axis=1) <= spec.norm_cap
        if got == 0 and inside.all():
            return cand[:n]  # the batch covers n and the cap rejects none of it
        keep = cand[inside]
        if probe_drawn < _PROBE_BATCH:
            probe_drawn += batch
            probe_kept += keep.shape[0]
            if probe_drawn >= _PROBE_BATCH and probe_kept < _MIN_ACCEPT * probe_drawn:
                raise InfeasibleSamplingError(
                    f"acceptance rate {probe_kept / probe_drawn:.4f} below "
                    f"{_MIN_ACCEPT}: norm cap {spec.norm_cap:.3e} too small "
                    f"for tr(Sigma) = {np.trace(spec.sigma):.3e}"
                )
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


def covariate_spec_hash(spec: CovariateSpec) -> str:
    """Stable 12-hex digest of the covariate law, for dataset headers."""
    h = hashlib.sha256()
    h.update(np.ascontiguousarray(spec.sigma).tobytes())
    h.update(repr((spec.norm_cap, spec.sigma_min, spec.sigma_max)).encode())
    return h.hexdigest()[:12]


def save_dataset(path, ds: LabeledDataset, spec_hash: str = "") -> None:
    """CSV with a header line and rows x_1,...,x_d,label_index (1-based)."""
    labels = np.where(ds.y.sum(axis=1) > 0, ds.y.argmax(axis=1) + 1, ds.k)
    line = ",".join(["%.17g"] * ds.dim) + ",%d\n"
    with open(path, "w") as fh:
        fh.write(f"# d={ds.dim} K={ds.k} n={ds.n} seed={ds.seed} spec={spec_hash}\n")
        fh.writelines(line % (*row, lab) for row, lab in zip(ds.x.tolist(), labels.tolist()))


def save_truth(path, truth: GroundTruth, spec: CovariateSpec) -> None:
    """Write the truth models plus the covariate law to one JSON file."""
    doc = {
        "rep": component_to_payload(truth.rep),
        "pre_head": component_to_payload(truth.pre_head),
        "down_head": component_to_payload(truth.down_head),
        "covariates": {
            "sigma": spec.sigma.tolist(),
            "norm_cap": spec.norm_cap,
            "sigma_min": spec.sigma_min,
            "sigma_max": spec.sigma_max,
        },
    }
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1)


def load_truth(path) -> tuple[GroundTruth, CovariateSpec]:
    with open(path) as fh:
        doc = json.load(fh)
    require_keys(doc, ("rep", "pre_head", "down_head", "covariates"), f"truth {path}")
    truth = GroundTruth(
        rep=component_from_payload(doc["rep"], "rep"),
        pre_head=component_from_payload(doc["pre_head"], "pre_head"),
        down_head=component_from_payload(doc["down_head"], "down_head"),
    )
    cov = doc["covariates"]
    require_keys(cov, ("sigma", "norm_cap", "sigma_min", "sigma_max"), "covariates")
    spec = CovariateSpec(
        sigma=np.array(require_numbers(cov["sigma"], 2, "covariates sigma"), dtype=np.float64),
        **{key: require_numbers(cov[key], 0, f"covariates {key}")
           for key in ("norm_cap", "sigma_min", "sigma_max")},
    )
    return truth, spec


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
