"""Fixed-shape probes of the hot public kernels.

Each probe times one public function on inputs of a fixed shape drawn
from the benchmark seed, and reports the median and the minimum over
its repeats. ``*_bytes`` figures for the compute kernels are computed
from the array shapes, not measured: operands read plus the main
results written, each counted once, in float64. The dataset figures
are the size of the file actually written.
"""

from __future__ import annotations

import os
import statistics
import time

from transferlab.erm import loss_and_grad
from transferlab.rngutil import derive_rng
from transferlab.softmax import kl_rows
from transferlab.synthetic import (
    isotropic_covariates,
    load_dataset,
    make_dataset,
    make_ground_truth,
    sample_covariates,
    save_dataset,
)

F64 = 8


def _timed(fn, repeats: int) -> tuple[float, float]:
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return statistics.median(times), min(times)


def run_probes(seed: int, workdir: str) -> dict:
    d, r, k, k_prime = 20, 3, 30, 2
    spec = isotropic_covariates(d)
    truth = make_ground_truth(d, r, k, k_prime, 1.0, derive_rng(seed, "probe-truth"))
    out = {}

    # erm.loss_and_grad at the stage-one hot shape n=8000, d=20, K=30, r=3
    n = 8000
    ds = make_dataset(truth, spec, n, derive_rng(seed, "probe-data"))
    med, low = _timed(lambda: loss_and_grad(truth.rep, truth.pre_head, ds.x, ds.y), 40)
    out["erm.loss_and_grad_ms"] = (med * 1e3, "ms")
    out["erm.loss_and_grad_min_ms"] = (low * 1e3, "ms")
    out["erm.loss_and_grad_bytes"] = (F64 * n * (d + 3 * (k - 1) + r), "B")

    # softmax.kl_rows at the Monte Carlo risk shape (20000, K-1)
    rows = 20000
    x = sample_covariates(spec, rows, derive_rng(seed, "probe-kl"))
    eta_t = truth.rep.apply(x) @ truth.pre_head.alpha
    eta_m = 0.9 * eta_t + 0.01
    med, low = _timed(lambda: kl_rows(eta_t, eta_m), 20)
    out["softmax.kl_rows_ms"] = (med * 1e3, "ms")
    out["softmax.kl_rows_min_ms"] = (low * 1e3, "ms")
    out["softmax.kl_rows_bytes"] = (F64 * rows * (2 * (k - 1) + 1), "B")

    # synthetic.sample_covariates at 20000 x 20
    med, low = _timed(
        lambda: sample_covariates(spec, rows, derive_rng(seed, "probe-cov")), 20
    )
    out["synthetic.sample_covariates_ms"] = (med * 1e3, "ms")
    out["synthetic.sample_covariates_min_ms"] = (low * 1e3, "ms")
    out["synthetic.sample_covariates_bytes"] = (F64 * rows * d, "B")

    # dataset CSV round trip at 8000 x 20
    path = os.path.join(workdir, "probe.csv")
    save_med, save_min = _timed(lambda: save_dataset(path, ds), 5)
    load_med, load_min = _timed(lambda: load_dataset(path), 5)
    size = os.path.getsize(path)
    os.remove(path)
    out["synthetic.save_dataset_ms"] = (save_med * 1e3, "ms")
    out["synthetic.save_dataset_min_ms"] = (save_min * 1e3, "ms")
    out["synthetic.load_dataset_ms"] = (load_med * 1e3, "ms")
    out["synthetic.load_dataset_min_ms"] = (load_min * 1e3, "ms")
    out["synthetic.dataset_bytes"] = (size, "B")
    out["synthetic.io_mb_per_s"] = (2 * size / 1e6 / (save_med + load_med), "MB/s")
    return out
