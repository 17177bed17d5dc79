"""Span tracing of transferlab's public functions, installed from outside.

Every public function of each layer module is wrapped, and the wrapper
is installed on every name that binds it: ``harness``, ``cli`` and
``diagnostics`` import names directly (``from .erm import pretrain``),
so patching only ``transferlab.erm.pretrain`` would miss the calls that
matter. Spans are kept on an in-memory stack; nothing is written while
the traced code runs.

Per layer the tracer reports
  busy  wall time during which at least one span of the layer is open,
  self  span time not covered by child spans,
  calls number of spans.

Inside each ``erm.pretrain`` span it also counts line-search work from
the calls that ``transferlab.erm`` makes by name: ``cap_columns`` once
per head-phase trial, ``orthonormalize`` once per representation-phase
trial, ``sym_spectral`` once per outer iteration (the trace's Gram
eigenvalue) and ``logdet_psd`` once per regularized evaluation.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from collections import Counter

LAYERS = (
    "linalg", "softmax", "model_space", "synthetic",
    "erm", "diagnostics", "harness", "cli",
)
PACKAGE = "transferlab"

# functions whose inclusive time is reported under a metric of its own
TIMED = {
    "erm.pretrain": "erm.pretrain_s",
    "erm.fit_downstream_head": "erm.head_fit_s",
    "erm.train_baseline": "erm.baseline_s",
    "linalg.logdet_psd": "linalg.logdet_psd_s",
    "softmax.kl_rows": "softmax.kl_rows_s",
    "diagnostics.measure_excess_risks": "diagnostics.excess_risk_s",
    "diagnostics.transfer_risk": "diagnostics.excess_risk_s",
    "diagnostics.representation_difference": "diagnostics.rep_difference_s",
    "diagnostics.schur_complement_bound": "diagnostics.schur_s",
    "diagnostics.empirical_gaussian_complexity_linear": "diagnostics.complexity_s",
    "diagnostics.worst_case_complexity_linear": "diagnostics.complexity_s",
    "diagnostics.mc_complexity_finite": "diagnostics.complexity_s",
    "synthetic.make_dataset": "synthetic.make_dataset_s",
    "synthetic.sample_covariates": "synthetic.sample_covariates_s",
    "synthetic.save_dataset": "synthetic.save_dataset_s",
    "synthetic.load_dataset": "synthetic.load_dataset_s",
    "model_space.save_bundle": "model_space.bundle_io_s",
    "model_space.load_bundle": "model_space.bundle_io_s",
}
CLI_COMMANDS = ("gen", "pretrain", "probe", "diagnose")


class _Span:
    __slots__ = ("qualname", "layer", "start", "child", "work", "command")

    def __init__(self, qualname, layer):
        self.qualname = qualname
        self.layer = layer
        self.start = 0.0
        self.child = 0.0
        self.work = None
        self.command = None


class _PretrainWork:
    """Line-search counters of one ``erm.pretrain`` call."""

    __slots__ = ("cap", "orth", "iters_seen", "last", "searches")

    def __init__(self):
        self.cap = 0
        self.orth = 0
        self.iters_seen = 0
        self.last = None
        self.searches = 0

    def see(self, name):
        if name == "sym_spectral":
            self.iters_seen += 1
        elif name == "cap_columns":
            self.cap += 1
            # the first cap after the iteration mark opens a head line search
            if self.last == "sym_spectral":
                self.searches += 1
        elif name == "orthonormalize":
            self.orth += 1
            if self.iters_seen and self.last != "orthonormalize":
                self.searches += 1
        self.last = name


class Tracer:
    """Wraps transferlab's public functions; use as a context manager."""

    def __init__(self):
        self.stack: list[_Span] = []
        self.busy = Counter()
        self.self_time = Counter()
        self.calls = Counter()
        self.timed = Counter()
        self.counts = Counter()
        self._patches: list[tuple[object, str, object]] = []

    # --- installation ------------------------------------------------------

    def __enter__(self):
        modules = {name: importlib.import_module(f"{PACKAGE}.{name}") for name in LAYERS}
        wrappers = {}
        for layer, mod in modules.items():
            names = getattr(mod, "__all__", None) or [
                n for n in vars(mod) if not n.startswith("_")
            ]
            for name in names:
                fn = getattr(mod, name, None)
                if inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                    wrappers[id(fn)] = (fn, self._wrap(fn, layer))
        for modname, mod in list(sys.modules.items()):
            if modname != PACKAGE and not modname.startswith(PACKAGE + "."):
                continue
            for name, value in list(vars(mod).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patches.append((mod, name, value))
                    setattr(mod, name, hit[1])
        return self

    def __exit__(self, *exc):
        for mod, name, original in reversed(self._patches):
            setattr(mod, name, original)
        self._patches.clear()
        return False

    def _wrap(self, fn, layer):
        qualname = f"{layer}.{fn.__name__}"
        short = fn.__name__
        params = list(inspect.signature(fn).parameters)
        tracer = self

        def arg(args, kwargs, name):
            i = params.index(name)
            return args[i] if i < len(args) else kwargs[name]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer.stack
            if stack and short in ("cap_columns", "orthonormalize", "sym_spectral"):
                work = tracer._enclosing_pretrain()
                if work is not None:
                    work.see(short)
            span = _Span(qualname, layer)
            if qualname == "erm.pretrain":
                span.work = _PretrainWork()
            elif qualname == "cli.main":
                argv = args[0] if args else kwargs.get("argv")
                span.command = argv[0] if argv else None
            stack.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                tracer._close(span, end - span.start)
            tracer._observe(qualname, span, lambda name: arg(args, kwargs, name), result)
            return result

        return wrapper

    def _enclosing_pretrain(self):
        for span in reversed(self.stack):
            if span.work is not None:
                return span.work
        return None

    def _close(self, span, duration):
        self.calls[span.layer] += 1
        self.self_time[span.layer] += duration - span.child
        if self.stack:
            self.stack[-1].child += duration
        if all(s.layer != span.layer for s in self.stack):
            self.busy[span.layer] += duration
        metric = TIMED.get(span.qualname)
        if metric is not None:
            self.timed[metric] += duration
        if span.command is not None:
            self.timed[f"cli.{span.command}_s"] += duration

    # --- work counters taken from arguments and results -----------------------

    def _observe(self, qualname, span, arg, result):
        c = self.counts
        if qualname == "erm.pretrain":
            cfg = arg("cfg")
            trace = result.trace
            iters = len(trace)
            work = span.work
            c["pretrain_iters"] += iters
            c["pretrain_stalls"] += int(trace.stalled)
            converged = iters and trace.grad_norm[-1] <= cfg.grad_tol
            c["pretrain_hit_max_iters"] += int(
                iters >= cfg.max_iters and not converged and not trace.stalled
            )
            # one cap_columns per iteration is the gradient probe, and the
            # first orthonormalize is the initial frame
            c["head_trials"] += work.cap - iters
            c["rep_trials"] += work.orth - 1
            c["line_searches"] += work.searches
            if any(s.qualname == "harness.run_sweep" for s in self.stack):
                c["harness_pretrain_calls"] += 1
        elif qualname == "erm.fit_downstream_head":
            c["head_fit_iters"] += len(result[1])
        elif qualname == "erm.train_baseline":
            c["baseline_iters"] += len(result[1])
        elif qualname == "linalg.logdet_psd":
            c["logdet_psd_calls"] += 1
        elif qualname == "softmax.kl_rows":
            c["kl_rows_calls"] += 1
        elif qualname in ("diagnostics.measure_excess_risks", "diagnostics.transfer_risk"):
            c["mc_rows"] += int(arg("n_mc"))
        elif qualname == "harness.run_sweep":
            c["sweep_rows"] += len(result)

    # --- report ---------------------------------------------------------------

    def metrics(self) -> dict:
        c = self.counts
        out = {}
        for layer in LAYERS:
            out[f"{layer}.busy_s"] = (self.busy[layer], "s")
            out[f"{layer}.self_s"] = (self.self_time[layer], "s")
            out[f"{layer}.calls"] = (self.calls[layer], "count")
        for metric in sorted(set(TIMED.values())):
            out[metric] = (self.timed[metric], "s")
        for cmd in CLI_COMMANDS:
            out[f"cli.{cmd}_s"] = (self.timed[f"cli.{cmd}_s"], "s")
        iters = c["pretrain_iters"]
        trials = c["head_trials"] + c["rep_trials"]
        out.update({
            "erm.pretrain_iters": (iters, "count"),
            "erm.pretrain_stalls": (c["pretrain_stalls"], "count"),
            "erm.pretrain_hit_max_iters": (c["pretrain_hit_max_iters"], "count"),
            "erm.pretrain_s_per_iter": (
                self.timed["erm.pretrain_s"] / iters if iters else 0.0, "s"),
            "erm.head_trials": (c["head_trials"], "count"),
            "erm.rep_trials": (c["rep_trials"], "count"),
            "erm.trials_per_line_search": (
                trials / c["line_searches"] if c["line_searches"] else 0.0, "ratio"),
            "erm.head_fit_iters": (c["head_fit_iters"], "count"),
            "erm.baseline_iters": (c["baseline_iters"], "count"),
            "linalg.logdet_psd_calls": (c["logdet_psd_calls"], "count"),
            "softmax.kl_rows_calls": (c["kl_rows_calls"], "count"),
            "diagnostics.mc_rows": (c["mc_rows"], "count"),
            "harness.pretrain_cache_hit_ratio": (
                1.0 - c["harness_pretrain_calls"] / c["sweep_rows"]
                if c["sweep_rows"] else 0.0, "ratio"),
        })
        return out
