"""The four benchmark workloads and their output checks.

A workload runs in units. One unit is one call of the public API with a
config whose seed is derived from the benchmark seed and the unit index,
so each unit of a run sees a different problem of the same shape. Every
workload uses the default config except for the grid given here
(d=20, r=3, k=30, k'=2, m=200, 20 000 Monte Carlo samples).
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import statistics

# called through their modules, so the tracer's patches take effect
from transferlab import cli, harness

WORKLOADS = {}


def unit_seed(seed: int, unit: int) -> int:
    return seed * 1000 + unit


class UnitResult:
    """Outcome of one unit: work done, failures, and the bytes it produced."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.output = b""
        self.excess_transfer: list[float] = []
        self.excess_pretrain: list[float] = []
        self.problems: list[str] = []

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(what)


def _finite_nonneg(value: float) -> bool:
    return math.isfinite(value) and value >= 0.0


class SweepWorkload:
    """``harness.run_sweep`` over a grid, one trial per unit."""

    def __init__(self, name, grid, why, optimizer=None):
        self.name = name
        self.grid = grid
        self.why = why
        self.optimizer = optimizer or {}

    def config(self, seed: int) -> dict:
        return {"seed": seed, "trials": 1, "grid": self.grid,
                "optimizer": self.optimizer}

    def setup_argv(self, workdir: str) -> list[str]:
        return ["sweep", "--out", workdir]

    def run_unit(self, seed: int, workdir: str) -> UnitResult:
        out_csv = os.path.join(workdir, "records.csv")
        cfg = harness.SweepConfig.from_dict(self.config(seed))
        records = harness.run_sweep(cfg, out_csv=out_csv)
        res = UnitResult()
        for rec in records:
            values = (rec.excess_transfer, rec.excess_pretrain, rec.baseline_excess)
            res.check(
                rec.status == "ok" and not rec.pretrain_stalled
                and all(_finite_nonneg(v) for v in values),
                f"row {rec.cell_index}/{rec.trial}: status={rec.status} "
                f"stalled={rec.pretrain_stalled} excess={values} {rec.reason}",
            )
            res.excess_transfer.append(rec.excess_transfer)
            res.excess_pretrain.append(rec.excess_pretrain)
        if len(self.grid.get("lambda_div", ())) > 1:
            by_lam = {}
            for rec in records:
                by_lam.setdefault(rec.params["lambda_div"], []).append(rec.nu_learned)
            lams = sorted(by_lam)
            meds = [statistics.median(by_lam[lam]) for lam in lams]
            res.check(
                all(a < b for a, b in zip(meds, meds[1:])),
                f"learned diversity not increasing in lambda: {dict(zip(lams, meds))}",
            )
        with open(out_csv, "rb") as fh:
            res.output = fh.read()
        return res


class CliWorkload:
    """gen (both stages) -> pretrain -> probe -> diagnose through ``cli.main``."""

    name = "cli-pipeline"
    why = ("the only workload with dataset CSV I/O, JSON model bundles and "
           "diagnostics.representation_difference, through files at n=8000")
    grid = {"n": [8000]}

    def config(self, seed: int) -> dict:
        return {"seed": seed, "grid": self.grid}

    def setup_argv(self, workdir: str) -> list[str]:
        return ["pretrain", "--data", os.path.join(workdir, "pre.csv"),
                "--out", os.path.join(workdir, "model.json")]

    def run_unit(self, seed: int, workdir: str) -> UnitResult:
        # relative paths: the CLI derives random streams from its path arguments
        p = {name: os.path.join(workdir, name) for name in (
            "config.json", "pre.csv", "down.csv", "down.truth.json",
            "model.json", "probed.json", "diag.csv")}
        with open(p["config.json"], "w") as fh:
            json.dump(self.config(seed), fh)
        steps = [
            ["gen", "--config", p["config.json"], "--out", p["pre.csv"],
             "--stage", "pretrain"],
            ["gen", "--config", p["config.json"], "--out", p["down.csv"],
             "--stage", "downstream", "--truth-out", p["down.truth.json"]],
            ["pretrain", "--config", p["config.json"], "--data", p["pre.csv"],
             "--out", p["model.json"]],
            ["probe", "--config", p["config.json"], "--model", p["model.json"],
             "--data", p["down.csv"], "--out", p["probed.json"]],
            ["diagnose", "--config", p["config.json"], "--model", p["probed.json"],
             "--truth", p["pre.csv"] + ".truth.json", "--out", p["diag.csv"]],
        ]
        res = UnitResult()
        for argv in steps:
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(argv)
            res.check(code == 0, f"transferlab {argv[0]} exited {code}")
            if code != 0:
                return res
        with open(p["diag.csv"], "rb") as fh:
            res.output = fh.read()
        values = {}
        for line in res.output.decode().splitlines()[1:]:
            metric, value = line.split(",")[:2]
            values[metric] = float(value)
        res.check(
            bool(values) and all(math.isfinite(v) for v in values.values()),
            f"diag.csv has non-finite values: {values}",
        )
        res.excess_transfer.append(values.get("excess_transfer_risk", math.nan))
        res.excess_pretrain.append(values.get("excess_pretrain_risk", math.nan))
        res.check(
            _finite_nonneg(res.excess_transfer[-1])
            and _finite_nonneg(res.excess_pretrain[-1]),
            f"excess risks invalid: {res.excess_transfer[-1]}, {res.excess_pretrain[-1]}",
        )
        return res


for _w in (
    SweepWorkload(
        "default-sweep", {"n": [500, 1000, 2000, 4000, 8000]},
        "the transferlab sweep default grid at lambda=0; stage-one ERM is most "
        "of the cost, so loss-kernel and line-search work shows here",
    ),
    # Run to convergence, the lambda=0.5 fits of different problems take
    # 214 to 1285 outer iterations, which no 25-second run can average out.
    # With 200 iterations nearly every regularized fit uses the whole
    # budget, so a unit measures the cost of the regularized iterations.
    SweepWorkload(
        "regularized-sweep", {"n": [2000], "lambda_div": [0.0, 0.5]},
        "the criterion-10 cell with stage one capped at 200 iterations; the "
        "only workload that runs the regularized head phase (logdet_psd)",
        optimizer={"max_iters": 200},
    ),
    SweepWorkload(
        "downstream-sweep", {"n": [500], "m": [50, 100, 200, 400, 800]},
        "the criterion-7 m-grid at n=500; four of five cells reuse the memoized "
        "stage-one result, so time goes to head fits and the KL Monte Carlo risk",
    ),
    CliWorkload(),
):
    WORKLOADS[_w.name] = _w
