"""Rerun the statistical acceptance criteria (6-11) at several seeds.

Opt-in and outside tier-1 (pytest does not collect this file). It runs
the acceptance file's own sweeps, trial counts and verdicts, at each
seed given, and prints every criterion's statistics and its margins to
the thresholds, then the pass count per criterion over the seeds. The
gate itself stays at seed 20240901. Five seeds take about four minutes
on two cores:

    PYTHONPATH=src python tests/gate_seeds.py 20240901 1 2 3 4
"""

from __future__ import annotations

import argparse
import time

import test_acceptance as gate

CRITERIA = (
    (6, "n", gate.criterion_6),
    (7, "m", gate.criterion_7),
    (8, "condition_number", gate.criterion_8),
    (9, "baseline", gate.criterion_9),
    (10, "lambda_div", gate.criterion_10),
    (11, "n", gate.criterion_11),
)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("seeds", nargs="*", type=int, default=[gate.GATE_SEED])
    args = parser.parse_args(argv)
    passes = {num: 0 for num, _, _ in CRITERIA}
    for seed in args.seeds:
        t0 = time.perf_counter()
        sweeps = {name: gate.gate_sweep(name, seed) for name in gate.GATE_SWEEPS}
        print(f"seed {seed} ({time.perf_counter() - t0:.0f}s)")
        for num, sweep, criterion in CRITERIA:
            verdict = criterion(sweeps[sweep])
            passes[num] += verdict.passed
            margins = ", ".join(f"{name} {value:+.5g}" for name, value in verdict.margins.items())
            print(f"  criterion-{num} {'PASS' if verdict.passed else 'FAIL'}: "
                  f"{verdict.detail}; margins {margins}")
    print("passes: " + ", ".join(
        f"criterion-{num} {count}/{len(args.seeds)}" for num, count in passes.items()))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
