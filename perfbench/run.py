#!/usr/bin/env python3
"""transferlab benchmark: one closed-loop caller driving the public API.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N

The script changes to the repository root before it runs. With
``--trace 0`` it times the workload and prints the end-to-end metrics of
BENCHMARK.json; with ``--trace 1`` it runs the fixed-shape kernel probes
and a traced copy of the workload and prints the per-layer metrics.
``--workload all`` runs every workload both ways in child processes.
The last line of standard output is one JSON object; a result file with
the machine fingerprint goes to ``.perfbench/results/``.
"""

import time

_START = time.perf_counter()

import argparse
import fcntl
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT_DIR = ".perfbench"
SETUP_REPEATS = 11

# One BLAS thread: on 2 cores the default of one thread per core made the
# erm.loss_and_grad probe about 4x slower and unit times far less steady.
# Set before numpy loads.
BLAS_THREADS = 1
NPROC = len(os.sched_getaffinity(0))
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=None)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def _spec() -> dict:
    with open("BENCHMARK.json") as fh:
        return json.load(fh)


# --- machine fingerprint ---------------------------------------------------------


def _blas_threads():
    import ctypes

    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        return None
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def _git_commit() -> str:
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = os.path.join(git, ref)
        if os.path.exists(loose):
            with open(loose) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref:
                    return parts[0]
    except OSError:
        pass
    return "unknown"


def _src_lines() -> int:
    total = 0
    for base, _, files in os.walk(SRC):
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(base, name), "rb") as fh:
                    total += fh.read().count(b"\n")
    return total


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def fingerprint() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": NPROC,
        "cpu": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": _blas_threads(),
        "git_commit": _git_commit(),
        "src_lines": _src_lines(),
    }


# --- measurement -------------------------------------------------------------------


def _setup_probe(args) -> int:
    """Child process: time imports, config validation and argument parsing."""
    from transferlab import cli
    from transferlab.harness import SweepConfig
    from workloads import WORKLOADS

    wl = WORKLOADS[args.workload]
    SweepConfig.from_dict(wl.config(args.seed))
    cli.build_parser().parse_args(wl.setup_argv(os.path.join(OUT_DIR, "work")))
    print(json.dumps({"setup_s": time.perf_counter() - _START}))
    return 0


def _setup_once(args) -> float:
    cmd = [sys.executable, os.path.abspath(__file__), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed)]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=60, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])["setup_s"]


def _run_unit(wl, seed, unit, workdir):
    from workloads import unit_seed

    start = time.perf_counter()
    res = wl.run_unit(unit_seed(seed, unit), workdir)
    return res, time.perf_counter() - start


def _timed(args, wl, workdir):
    """End-to-end metrics: units with fresh problems until the time is used.

    The set-up children run between units, spread over the run, because
    the machine's speed drifts over a few seconds.
    """
    _setup_once(args)  # warms the bytecode and file caches; not counted
    start = time.perf_counter()
    deadline = start + args.seconds
    setups, results, walls = [], [], []
    while len(results) < 3 or time.perf_counter() + statistics.median(walls) <= deadline:
        res, wall = _run_unit(wl, args.seed, len(results), workdir)
        results.append(res)
        walls.append(wall)
        due = SETUP_REPEATS * (time.perf_counter() - start) / args.seconds
        while len(setups) < min(due, SETUP_REPEATS):
            setups.append(_setup_once(args))
    while len(setups) < SETUP_REPEATS:
        setups.append(_setup_once(args))
    failed = sum(r.failed for r in results)
    metrics = {
        "wall_s": statistics.median(walls),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ok_frac": 1.0 - failed / sum(r.attempted for r in results),
        "excess_pretrain_gmean": _gmean(results, "excess_pretrain"),
    }
    return metrics, results, {"unit_walls_s": walls, "setup_s": setups}


def _traced(args, wl, workdir):
    """Per-layer metrics: probes, then untraced and traced runs of unit 0."""
    from probes import run_probes
    from tracing import Tracer
    from workloads import UnitResult

    deadline = time.perf_counter() + args.seconds
    probe = run_probes(args.seed, workdir)
    plain, traced, layers, results = [], [], [], []
    while not plain or time.perf_counter() + plain[-1] + traced[-1] <= deadline:
        res, wall = _run_unit(wl, args.seed, 0, workdir)
        results.append(res)
        plain.append(wall)
        with Tracer() as tracer:
            res, wall = _run_unit(wl, args.seed, 0, workdir)
        results.append(res)
        traced.append(wall)
        layers.append(tracer.metrics())

    same = UnitResult()
    for res in results[1:]:
        same.check(res.output == results[0].output,
                   "outputs differ between runs of the same unit")
    counters = [k for k, (_, unit) in layers[0].items() if unit != "s"]
    for other in layers[1:]:
        same.check(all(other[k] == layers[0][k] for k in counters),
                   "work counters differ between runs of the same unit")
    metrics = {name: value for name, (value, _) in probe.items()}
    for name, (value, unit) in layers[0].items():
        metrics[name] = statistics.median(l[name][0] for l in layers) if unit == "s" else value
    metrics["diagnostics.excess_transfer_gmean"] = _gmean(results[:1], "excess_transfer")
    metrics["trace.wall_s"] = statistics.median(plain)
    metrics["trace.traced_wall_s"] = statistics.median(traced)
    metrics["trace.overhead_frac"] = metrics["trace.traced_wall_s"] / metrics["trace.wall_s"] - 1.0
    return metrics, results + [same], {"untraced_walls_s": plain, "traced_walls_s": traced}


def _gmean(results, field) -> float:
    """Geometric mean over rows: cells of one grid differ in scale by 10x."""
    values = [v for r in results for v in getattr(r, field) if v > 0.0]
    return statistics.geometric_mean(values) if values else math.nan


def run_one(args, spec) -> int:
    from workloads import WORKLOADS

    wl = WORKLOADS[args.workload]
    workdir = os.path.join(OUT_DIR, "work", wl.name)
    os.makedirs(workdir, exist_ok=True)
    # the work files have fixed names (the CLI seeds streams from its paths),
    # so two runs in one checkout would overwrite each other's inputs
    lock = open(os.path.join(OUT_DIR, "lock"), "w")
    try:
        fcntl.flock(lock, fcntl.LOCK_EX | fcntl.LOCK_NB)
    except BlockingIOError:
        raise SystemExit("another benchmark run holds .perfbench/lock")
    metrics, everything, extra = (_traced if args.trace else _timed)(args, wl, workdir)
    attempted = sum(r.attempted for r in everything)
    failed = sum(r.failed for r in everything)

    wanted = spec["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in wanted}
    missing = sorted(set(units) - set(metrics))
    if missing:
        raise SystemExit(f"benchmark does not produce {missing}")
    problems = [p for r in everything for p in r.problems]
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": float(metrics[name]), "unit": units[name]}
                    for name in units},
    }
    record = {
        "workload": wl.name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "fingerprint": fingerprint(),
        "problems": problems, **extra, **result,
    }
    os.makedirs(os.path.join(OUT_DIR, "results"), exist_ok=True)
    path = os.path.join(OUT_DIR, "results",
                        f"{wl.name}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w") as fh:
        json.dump(record, fh, indent=1)
    for p in problems:
        print(f"# check failed: {p}")
    for name, m in result["metrics"].items():
        print(f"{wl.name:18s} {name:40s} {m['value']:>16.6g} {m['unit']}")
    print(json.dumps(result))
    return 0


def run_all(args, spec) -> int:
    """Every workload, timed and traced, each in its own process."""
    seconds = args.seconds
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for w in spec["workloads"]:
        for trace in (0, 1):
            cmd = [sys.executable, os.path.abspath(__file__), "--workload", w["name"],
                   "--seed", str(args.seed), "--seconds", str(seconds),
                   "--trace", str(trace)]
            done = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
            sys.stdout.write("".join(done.stdout.splitlines(True)[:-1]))
            if done.returncode != 0:
                sys.stderr.write(done.stderr)
                raise SystemExit(f"{w['name']} (trace {trace}) exited {done.returncode}")
            res = json.loads(done.stdout.strip().splitlines()[-1])
            combined["correct"] &= res["correct"]
            combined["attempted"] += res["attempted"]
            combined["failed"] += res["failed"]
            for name, m in res["metrics"].items():
                combined["metrics"][f"{w['name']}/{name}"] = m
    record = {"seed": args.seed, "seconds": seconds, "fingerprint": fingerprint(),
              **combined}
    os.makedirs(os.path.join(OUT_DIR, "results"), exist_ok=True)
    with open(os.path.join(OUT_DIR, "results", f"BENCH_all-seed{args.seed}.json"),
              "w") as fh:
        json.dump(record, fh, indent=1)
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    args = _parse(argv)
    if not os.path.isfile(os.path.join(SRC, "transferlab", "__init__.py")):
        print(f"error: no transferlab sources under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [SRC, BENCH_DIR]
    os.chdir(ROOT)
    if args.setup_probe:
        return _setup_probe(args)
    spec = _spec()
    if args.seconds is None:
        args.seconds = float(spec["run_seconds"])
    if args.workload == "all":
        return run_all(args, spec)
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    return run_one(args, spec)


if __name__ == "__main__":
    sys.exit(main())
