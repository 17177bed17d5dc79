"""Config-driven experiment sweeps, scaling fits, and report emission.

A sweep runs the full pipeline (truth construction, data generation,
stage-one training, stage-two head fit, baseline, diagnostics, rate
evaluation) over a parameter grid with several trials per cell. A random
stream is keyed by the trial, the stage and only the values its draws
depend on, so the cells of one trial share every draw they can (common
random numbers). Cells that differ in the regularizer weight or the
downstream size share the truth and the pre-training data. Cells that
differ in the condition number share everything but the pre-training
head's spectrum and the labels it moves, because the spectrum is set
after the truth's draws. The sweep runs trial by trial, and a cache that
lives for one trial memoizes each shared quantity under exactly what it
depends on: the truth by (token, condition number); the Monte Carlo draw
every risk is scored on by d; the stage-one fit and its pre-training risk
by (token, condition number, n, lambda); the downstream dataset, the
baseline fit and its risk by (token, m). A cell then fits and scores only
its own downstream head.

Failures inside a cell are recorded as failed rows and never abort the
sweep. Records are written in deterministic order; wall time is kept on
the in-memory record only so the emitted CSV is byte-stable.
"""

from __future__ import annotations

import itertools
import math
import os
import time
from dataclasses import dataclass, field, fields

import numpy as np

from .errors import ContractViolation, check_scalars, require_keys
from .model_space import diversity_parameter, principal_angles
from .rngutil import derive_rng, one_blas_thread
from .synthetic import (
    GroundTruth,
    LabeledDataset,
    check_truth_params,
    isotropic_covariates,
    make_dataset,
    make_ground_truth,
    sample_covariates,
)
from .erm import OptimConfig, fit_downstream_head, pretrain, train_baseline
from .diagnostics import evaluate_risk_bound, measure_excess_risks

__all__ = [
    "SweepConfig",
    "ExperimentRecord",
    "HEAD_OPTIM",
    "default_config",
    "cells_of",
    "cell_truth",
    "stage_dataset",
    "run_sweep",
    "write_csv",
    "load_records_csv",
    "fit_power_law",
    "PowerLawFit",
    "write_report",
    "ReportSummary",
]

GRID_KEYS = ("n", "m", "k", "k_prime", "r", "d", "condition_number", "lambda_div")
# the budget of every head fit: the downstream head, the baseline, the
# CLI's probe and the representation difference
HEAD_OPTIM = OptimConfig(max_iters=4000, grad_tol=1e-7)
# the report's power-law slope window and least R^2 of a passing scaling fit
_SLOPE_WINDOW = (-0.75, -0.25)
_MIN_R2 = 0.8


def default_config() -> dict:
    """Self-documenting default sweep: the desk-scale transfer regime."""
    return {
        "seed": 20240901,
        "trials": 10,
        "grid": {
            "n": [500, 1000, 2000, 4000, 8000],
            "m": [200],
            "k": [30],
            "k_prime": [2],
            "r": [3],
            "d": [20],
            "condition_number": [1.0],
            "lambda_div": [0.0],
        },
        "optimizer": {"max_iters": 2000, "grad_tol": 1e-5},
        "diagnostics": {"risk_mc_samples": 20000},
    }


@dataclass(frozen=True)
class SweepConfig:
    """Validated sweep configuration; mirrors the JSON document, its optimizer built."""

    seed: int
    trials: int
    grid: dict
    optimizer: OptimConfig
    diagnostics: dict

    def __post_init__(self):
        defaults = default_config()
        check_scalars("", vars(self), defaults)
        check_scalars("diagnostics.", self.diagnostics, defaults["diagnostics"])
        if self.seed < 0:
            raise ContractViolation("seed must be >= 0")
        if self.trials < 1:
            raise ContractViolation("trials must be >= 1")
        for key in GRID_KEYS:
            values = self.grid.get(key)
            if not isinstance(values, list) or not values:
                raise ContractViolation(f"grid needs a nonempty list of values for {key!r}")
            # the regularizer weight may be zero and the condition number any
            # number >= 1; the other keys are sizes, integers >= 1
            real = key in ("condition_number", "lambda_div")
            floor = 0 if key == "lambda_div" else 1
            for v in values:
                if (isinstance(v, bool) or not isinstance(v, (int, float) if real else int)
                        or not math.isfinite(v) or v < floor):
                    raise ContractViolation(
                        f"grid value {v!r} for {key!r} invalid: need "
                        + (f"a finite number >= {floor}" if real else "an integer >= 1"))
        if self.diagnostics["risk_mc_samples"] < 1:
            raise ContractViolation("diagnostics.risk_mc_samples must be >= 1")
        # the grid is a product, so checking each (truth token, condition
        # number) combination checks every cell's truth before any work
        for combo in itertools.product(*_truth_token(self.grid), self.grid["condition_number"]):
            check_truth_params(*combo)

    @classmethod
    def from_dict(cls, doc: dict) -> "SweepConfig":
        require_keys(doc, (), "config")
        base = default_config()
        unknown = set(doc) - set(base)
        if unknown:
            raise ContractViolation(f"unknown config keys {sorted(unknown)}")
        merged = {**base, **doc}
        for nested in ("grid", "optimizer", "diagnostics"):
            section = doc.get(nested, {})
            if not isinstance(section, dict):
                raise ContractViolation(f"config section {nested!r} must be an object")
            unknown = set(section) - set(base[nested])
            if unknown:
                raise ContractViolation(f"unknown {nested} keys {sorted(unknown)}")
            merged[nested] = {**base[nested], **section}
        merged["optimizer"] = OptimConfig(**merged["optimizer"])
        return cls(**merged)


@dataclass
class ExperimentRecord:
    """One sweep cell x trial outcome; failures carry a reason.

    Each ``*_outcome`` is the ``TrainTrace.outcome`` of that stage's fit
    ("converged", "stalled" or "max_iters"); it is empty for a failed row.
    """

    cell_index: int
    trial: int
    status: str
    params: dict
    excess_transfer: float = math.nan
    excess_transfer_se: float = math.nan
    excess_pretrain: float = math.nan
    excess_pretrain_se: float = math.nan
    nu_true: float = math.nan
    nu_learned: float = math.nan
    max_principal_angle: float = math.nan
    baseline_excess: float = math.nan
    baseline_excess_se: float = math.nan
    bound_value: float = math.nan
    pretrain_iters: int = 0
    pretrain_outcome: str = ""
    downstream_outcome: str = ""
    baseline_outcome: str = ""
    reason: str = ""
    wall_time: float = math.nan   # never serialized: CSVs must be byte-stable

    @property
    def pretrain_stalled(self) -> bool:
        """Whether stage one's line search stalled; derived, not a column."""
        return self.pretrain_outcome == "stalled"


# the records.csv columns: the record's fields with params spread into the
# grid keys; wall time is left out so that the file is byte-stable
_CSV_FIELDS = tuple(
    column
    for f in fields(ExperimentRecord) if f.name != "wall_time"
    for column in (GRID_KEYS if f.name == "params" else (f.name,))
)
# the values a stage's outcome column may hold: a TrainTrace.outcome, or
# empty for a failed row
_OUTCOMES = ("", "converged", "stalled", "max_iters")


def cells_of(cfg: SweepConfig) -> list[dict]:
    """Grid cells in deterministic order (later keys vary fastest)."""
    combos = itertools.product(*(cfg.grid[key] for key in GRID_KEYS))
    return [dict(zip(GRID_KEYS, combo)) for combo in combos]


def _truth_token(cell: dict) -> tuple:
    """(d, r, k, k') of a cell, the parameters its truth's draws depend on, in
    ``make_ground_truth``'s order; of the grid, their lists of values."""
    return (cell["d"], cell["r"], cell["k"], cell["k_prime"])


def cell_truth(cfg: SweepConfig, cell: dict, trial: int) -> GroundTruth:
    """Ground truth of one cell and trial.

    The truth comes from the ``("truth", trial, token)`` stream, whose
    token holds the grid parameters its draws depend on, (d, r, k, k').
    The condition number is not in the token: it sets the pre-training
    head's singular values after the draws, so cells that differ only in
    it get the same frames U, V, representation and downstream head.
    """
    token = _truth_token(cell)
    return make_ground_truth(*token, float(cell["condition_number"]),
                             derive_rng(cfg.seed, "truth", trial, token))


def stage_dataset(cfg: SweepConfig, cell: dict, trial: int, stage: str,
                  truth: GroundTruth) -> LabeledDataset:
    """One stage's dataset of a cell and trial: n pre-training or m downstream samples.

    ``truth`` is what ``cell_truth`` returned for this cell and trial, so
    both stages draw from one built truth; the covariate law is N(0, I_d)
    at the cell's d. The draw comes from the ``("pretrain_data" |
    "down_data", trial, truth token, size)`` stream: cells with the same
    token and size share it, whatever their condition numbers. They then
    share the covariates and the label uniforms; the pre-training labels
    still differ where the heads' spectra move them, and the downstream
    datasets are equal.
    """
    pre = stage == "pretrain"
    size = cell["n"] if pre else cell["m"]
    return make_dataset(
        truth, isotropic_covariates(cell["d"]), size,
        derive_rng(cfg.seed, "pretrain_data" if pre else "down_data", trial,
                   _truth_token(cell), size),
        stage=stage, seed_label=f"{cfg.seed}/{trial}",
    )


def _memo(cache: dict, key: tuple, make):
    """The cache's value at ``key``, made by ``make()`` on the first call."""
    if key not in cache:
        cache[key] = make()
    return cache[key]


def _run_cell(cfg: SweepConfig, cell: dict, cell_index: int, trial: int, cache: dict
              ) -> ExperimentRecord:
    rec = ExperimentRecord(cell_index=cell_index, trial=trial, status="ok", params=dict(cell))
    start = time.perf_counter()
    n, m, r, d = cell["n"], cell["m"], cell["r"], cell["d"]
    lam = float(cell["lambda_div"])
    token, cond = _truth_token(cell), cell["condition_number"]
    n_mc = int(cfg.diagnostics["risk_mc_samples"])
    # each shared quantity is memoized for the trial under exactly what it
    # depends on: a cell's row does not depend on which other cells ran
    truth = _memo(cache, ("truth", token, cond), lambda: cell_truth(cfg, cell, trial))
    x_mc = _memo(cache, ("risk_mc", d), lambda: sample_covariates(
        isotropic_covariates(d), n_mc, derive_rng(cfg.seed, "risk_mc", trial, d)))

    def fit_stage_one():
        ds = stage_dataset(cfg, cell, trial, "pretrain", truth)
        result = pretrain(ds, r, truth.pre_head.column_cap, lam, cfg.optimizer)
        return result, measure_excess_risks(truth, x_mc, n_mc, result.head, result.rep,
                                            "pretrain")

    def fit_baseline():
        # the downstream data and the truth's rep and downstream head do not
        # depend on the condition number, so neither does the baseline
        down_ds = stage_dataset(cfg, cell, trial, "downstream", truth)
        head, trace = train_baseline(down_ds, truth.down_head.column_cap, HEAD_OPTIM)
        return down_ds, trace.outcome, measure_excess_risks(
            truth, x_mc, n_mc, head, None, "downstream")

    result, (rec.excess_pretrain, rec.excess_pretrain_se) = _memo(
        cache, ("pretrain", token, cond, n, lam), fit_stage_one)
    down_ds, rec.baseline_outcome, (rec.baseline_excess, rec.baseline_excess_se) = _memo(
        cache, ("downstream", token, m), fit_baseline)
    head_down, down_trace = fit_downstream_head(
        result.rep, down_ds, truth.down_head.column_cap, HEAD_OPTIM)
    rec.downstream_outcome = down_trace.outcome
    rec.excess_transfer, rec.excess_transfer_se = measure_excess_risks(
        truth, x_mc, n_mc, head_down, result.rep, "downstream")
    rec.nu_true = diversity_parameter(truth.pre_head)
    rec.nu_learned = diversity_parameter(result.head)
    rec.max_principal_angle = float(principal_angles(result.rep, truth.rep)[-1])
    rec.pretrain_iters = len(result.trace)
    rec.pretrain_outcome = result.trace.outcome
    rec.bound_value = evaluate_risk_bound(
        n=n, m=m, k=cell["k"], k_prime=cell["k_prime"], r=r, d=d, nu_tilde=rec.nu_true,
    )
    rec.wall_time = time.perf_counter() - start
    return rec


@one_blas_thread()
def run_sweep(cfg: SweepConfig, out_csv=None) -> list[ExperimentRecord]:
    """Run every (trial, cell), isolate failures, and stream records.

    Deterministic for a fixed config: streams are derived, and rows run
    and come out in (trial, cell_index) order. The cache of the module
    docstring lives for one trial, so memory stays bounded by one trial.
    Rows are appended to ``out_csv`` as they finish. BLAS runs at one
    thread, so the rows do not depend on the caller's thread count.
    """
    cells = cells_of(cfg)
    records: list[ExperimentRecord] = []
    sink = open(out_csv, "w") if out_csv is not None else None
    try:
        if sink is not None:
            sink.write(_csv_line(_CSV_FIELDS))
        for trial in range(cfg.trials):
            cache: dict = {}
            for idx, cell in enumerate(cells):
                start = time.perf_counter()
                try:
                    rec = _run_cell(cfg, cell, idx, trial, cache)
                except Exception as exc:  # crash isolation: the sweep continues
                    rec = ExperimentRecord(
                        cell_index=idx, trial=trial, status="failed",
                        params=dict(cell),
                        reason=f"{type(exc).__name__}: {exc}",
                        wall_time=time.perf_counter() - start,
                    )
                records.append(rec)
                if sink is not None:
                    sink.write(_record_row(rec))
                    sink.flush()
    finally:
        if sink is not None:
            sink.close()
    return records


def _fmt(value) -> str:
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value).replace(",", ";").replace("\n", " ")


def _csv_line(values) -> str:
    return ",".join(map(_fmt, values)) + "\n"


def _record_row(rec: ExperimentRecord) -> str:
    return _csv_line(
        rec.params[name] if name in GRID_KEYS else getattr(rec, name) for name in _CSV_FIELDS
    )


# parsers of the CSV text, by the field's annotation in ExperimentRecord
_PARSERS = {"int": int, "float": float, "str": str}
# the columns that hold one of a closed set of values
_CHOICES = {
    "status": ("ok", "failed"),
    **{name: _OUTCOMES for name in _CSV_FIELDS if name.endswith("_outcome")},
}


def load_records_csv(path) -> list[ExperimentRecord]:
    kinds = {f.name: f.type for f in fields(ExperimentRecord)}
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        if tuple(header) != _CSV_FIELDS:
            raise ContractViolation(f"unexpected records header in {path}")
        records = []
        for lineno, line in enumerate(fh, start=2):
            parts = line.rstrip("\n").split(",")
            if len(parts) != len(_CSV_FIELDS):
                raise ContractViolation(f"malformed records row in {path}: {line!r}")
            row = dict(zip(_CSV_FIELDS, parts))
            try:
                params = {key: float(row.pop(key)) for key in GRID_KEYS}
                for name, allowed in _CHOICES.items():
                    if row[name] not in allowed:
                        raise ValueError(f"{name} must be one of {allowed}, got {row[name]!r}")
                values = {name: _PARSERS[kinds[name]](text) for name, text in row.items()}
            except ValueError as exc:
                raise ContractViolation(f"{path} line {lineno}: {exc}") from None
            records.append(ExperimentRecord(params=params, **values))
    return records


@dataclass
class PowerLawFit:
    slope: float
    intercept: float
    r_squared: float


def fit_power_law(points) -> PowerLawFit:
    """Least squares of log y on log x for positive (x, y) pairs."""
    pts = [(float(x), float(y)) for x, y in points]
    if len(pts) < 3:
        raise ContractViolation("need at least 3 points")
    if any(x <= 0 or y <= 0 for x, y in pts):
        raise ContractViolation("power-law fit needs positive coordinates")
    lx = np.log([p[0] for p in pts])
    ly = np.log([p[1] for p in pts])
    slope, intercept = np.polyfit(lx, ly, 1)
    resid = ly - (slope * lx + intercept)
    total = ((ly - ly.mean()) ** 2).sum()
    r2 = 1.0 if total == 0.0 else 1.0 - float((resid**2).sum()) / float(total)
    return PowerLawFit(float(slope), float(intercept), max(0.0, min(1.0, r2)))


# --- aggregation and reporting ---------------------------------------------


def _median_iqr(values) -> tuple[float, float, float]:
    arr = np.asarray(sorted(values), dtype=np.float64)
    return (
        float(np.median(arr)),
        float(np.percentile(arr, 25)),
        float(np.percentile(arr, 75)),
    )


def _group_by_cell(records):
    groups: dict[int, list[ExperimentRecord]] = {}
    for rec in records:
        if rec.status == "ok":
            groups.setdefault(rec.cell_index, []).append(rec)
    return dict(sorted(groups.items()))


@dataclass
class ReportSummary:
    slope_n: PowerLawFit | None
    n_ok: int
    n_failed: int
    lines: list = field(default_factory=list)


def _cell_rows(groups):
    rows = []
    for idx, recs in groups.items():
        med, q25, q75 = _median_iqr([r.excess_transfer for r in recs])
        rows.append(
            {
                "cell_index": idx,
                **recs[0].params,
                "trials": len(recs),
                "median_excess": med,
                "q25_excess": q25,
                "q75_excess": q75,
                "median_nu_learned": _median_iqr([r.nu_learned for r in recs])[0],
                "median_nu_true": _median_iqr([r.nu_true for r in recs])[0],
                "median_angle": _median_iqr([r.max_principal_angle for r in recs])[0],
                "median_baseline": _median_iqr([r.baseline_excess for r in recs])[0],
                "median_bound": _median_iqr([r.bound_value for r in recs])[0],
                "stalls": sum(1 for r in recs if r.pretrain_stalled),
            }
        )
    return rows


def write_csv(path, rows, columns) -> None:
    """Write dict rows as CSV; floats keep all 17 significant digits."""
    with open(path, "w") as fh:
        fh.write(_csv_line(columns))
        for row in rows:
            fh.write(_csv_line(row[c] for c in columns))


def write_report(records, out_dir) -> ReportSummary:
    """Aggregate records into figure CSVs plus a text summary.

    Produces risk_vs_n.csv, risk_vs_m.csv, risk_vs_nu.csv,
    regularizer_ablation.csv, bound_vs_measured.csv, and summary.txt in
    ``out_dir``. Slopes are ordinary power-law fits of the per-cell
    medians and are reproducible from the emitted CSVs.
    """
    if not records:
        raise ContractViolation("no records to report on")
    rows = _cell_rows(_group_by_cell(records))
    if not rows:
        raise ContractViolation("every record failed; nothing to aggregate")
    os.makedirs(out_dir, exist_ok=True)
    n_failed = sum(1 for rec in records if rec.status != "ok")
    summary = ReportSummary(slope_n=None, n_ok=len(records) - n_failed, n_failed=n_failed)

    base_cols = ["cell_index", *GRID_KEYS, "trials",
                 "median_excess", "q25_excess", "q75_excess"]

    def by(key):
        return sorted(rows, key=lambda row: row[key])

    write_csv(f"{out_dir}/risk_vs_n.csv", by("n"), base_cols)
    write_csv(f"{out_dir}/risk_vs_m.csv", by("m"), base_cols)
    write_csv(
        f"{out_dir}/risk_vs_nu.csv", by("condition_number"),
        base_cols + ["median_nu_true", "median_angle"],
    )
    write_csv(
        f"{out_dir}/regularizer_ablation.csv", by("lambda_div"),
        base_cols + ["median_nu_learned", "stalls"],
    )
    write_csv(
        f"{out_dir}/bound_vs_measured.csv", rows,
        base_cols + ["median_bound", "median_baseline"],
    )

    lines = summary.lines
    lines.append(f"records: {summary.n_ok} ok, {summary.n_failed} failed")

    def distinct(key):
        return sorted({row[key] for row in rows})

    for key in ("n", "m"):
        pts = {}
        for row in rows:
            pts.setdefault(row[key], []).append(row["median_excess"])
        series = [(x, float(np.median(v))) for x, v in sorted(pts.items())]
        if len(series) >= 3 and all(y > 0 for _, y in series):
            fit = fit_power_law(series)
            if key == "n":
                summary.slope_n = fit
            low, high = _SLOPE_WINDOW
            ok = low <= fit.slope <= high and fit.r_squared >= _MIN_R2
            lines.append(
                f"slope_{key}: {fit.slope:.4f} (R2 {fit.r_squared:.4f}) "
                f"window {_SLOPE_WINDOW} -> {'pass' if ok else 'FAIL'}"
            )
    conds = distinct("condition_number")
    if len(conds) >= 2:
        med_by_cond = [
            (c, float(np.median([row["median_excess"] for row in rows
                                 if row["condition_number"] == c])))
            for c in conds
        ]
        vals = [v for _, v in med_by_cond]
        monotone = all(vals[i] <= vals[i + 1] + 1e-15 for i in range(len(vals) - 1))
        lines.append(
            "diversity monotonicity (excess non-decreasing in condition number): "
            f"{'pass' if monotone else 'FAIL'} {med_by_cond}"
        )
    lams = distinct("lambda_div")
    if len(lams) >= 2:
        nus = [
            (l, float(np.median([row["median_nu_learned"] for row in rows
                                 if row["lambda_div"] == l])))
            for l in lams
        ]
        raises = all(nus[i][1] < nus[i + 1][1] for i in range(len(nus) - 1))
        lines.append(
            "regularizer raises learned head diversity: "
            f"{'pass' if raises else 'FAIL'} {nus}"
        )
    with open(f"{out_dir}/summary.txt", "w") as fh:
        fh.write("\n".join(lines) + "\n")
    return summary
