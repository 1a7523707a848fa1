"""Span tracing of robustspec from outside the package.

`Tracer.install()` replaces each traced public function with a wrapper that
records a span (name, start, end, parent span, op id) and derives exact
counters from the call's arguments and return value.  Because
`from .x import y` copies bindings, the wrapper is installed on every loaded
`robustspec` module that binds the original object, including the package's
re-exports.  `ToeplitzGaussian.quad_forms` is patched on the class, and for
the generators `sample_blocks` and `sample_mixture_blocks` each `next()` is
one span.  Spans stay in memory until the run writes them out.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import os
import sys
import time
from collections import defaultdict

# (defining module, attribute, span name, counter hook name or None)
FUNCTIONS = (
    ("spectral", "autocovariance", "spectral.autocovariance", "_on_autocovariance"),
    ("dominance", "find_dominated", "dominance.find_dominated", "_on_find_dominated"),
    ("exponent", "kl_rate", "exponent.kl_rate", None),
    ("exponent", "error_exponent", "exponent.error_exponent", None),
    ("exponent", "genie_bound", "exponent.genie_bound", None),
    ("gaussian_model", "standard_normal_block", "gaussian_model.rng", "_on_rng"),
    ("gaussian_model", "build_model", "gaussian_model.model_build", "_on_build_model"),
    ("gaussian_model", "white_model", "gaussian_model.white_build", "_on_white_model"),
    ("gaussian_model", "gaussian_kl", "gaussian_model.gaussian_kl", None),
    ("gaussian_model", "ratio_expectation", "gaussian_model.ratio_expectation", None),
    ("gaussian_model", "sample_gaussian", "gaussian_model.sample_gaussian", "_on_sample_gaussian"),
    ("detection", "log_likelihood_ratios", "detection.llr", "_on_llr"),
    ("detection", "h0_statistics", "detection.h0_statistics", None),
    ("detection", "calibrate_threshold", "detection.calibrate", "_on_calibrate"),
    ("detection", "estimate_error_probs", "detection.mc", None),
    ("detection", "empirical_exponent", "detection.empirical_exponent", "_on_empirical_exponent"),
    ("minimax", "minimize_mixture_weights", "minimax.fw", "_on_fw"),
    ("minimax", "kkt_certificate", "minimax.kkt", None),
    ("harness", "run_experiment", "harness.run_experiment", None),
    ("harness", "write_report", "harness.write_report", "_on_write_report"),
    ("cli", "main", "cli.main", None),
)

# generators: each next() is a span
GENERATORS = (
    ("gaussian_model", "sample_blocks", "gaussian_model.sample"),
    ("detection", "sample_mixture_blocks", "gaussian_model.sample"),
)


class Tracer:
    """Records spans and counters for the ops of one run."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index, op id]
        self.counts = defaultdict(int)
        self.op = None
        self._stack = []
        self._unique_blocks = set()
        self._restore = []

    # -- spans -------------------------------------------------------------

    def _open(self, name):
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent, self.op])
        self._stack.append(len(self.spans) - 1)

    def _close(self):
        self.spans[self._stack.pop()][2] = time.perf_counter()

    @contextlib.contextmanager
    def span(self, name):
        self._open(name)
        try:
            yield
        finally:
            self._close()

    def begin_op(self, op_id):
        """Start a new op: counters restart, spans keep accumulating."""
        self.op = op_id
        self.counts = defaultdict(int)
        self._unique_blocks = set()

    # -- installation ------------------------------------------------------

    def install(self):
        """Wrap every traced function; returns the ones the package lacks."""
        import robustspec.cli  # noqa: F401  (loads every traced module)
        from robustspec.gaussian_model import ToeplitzGaussian

        missing = []

        def lookup(modname, attr):
            original = getattr(sys.modules.get(f"robustspec.{modname}"), attr, None)
            if original is None:
                missing.append(f"{modname}.{attr}")
            return original

        for modname, attr, span, hook in FUNCTIONS:
            original = lookup(modname, attr)
            if original is not None:
                hook = getattr(self, hook) if hook else None
                self._patch_bindings(original, self._wrap(span, original, hook))
        for modname, attr, span in GENERATORS:
            original = lookup(modname, attr)
            if original is not None:
                self._patch_bindings(original, self._wrap_generator(span, original))
        original = ToeplitzGaussian.quad_forms
        self._restore.append((ToeplitzGaussian, "quad_forms", original))
        ToeplitzGaussian.quad_forms = self._wrap(
            "gaussian_model.quad_forms", original, self._on_quad_forms
        )
        return missing

    def uninstall(self):
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore = []

    def _patch_bindings(self, original, wrapper):
        for name, module in list(sys.modules.items()):
            if name != "robustspec" and not name.startswith("robustspec."):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._restore.append((module, attr, original))
                    setattr(module, attr, wrapper)

    def _wrap(self, span, fn, hook):
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self._open(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close()
            if hook is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                hook(result, bound.arguments)
            return result

        return wrapper

    def _wrap_generator(self, span, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            inner = fn(*args, **kwargs)
            try:
                while True:
                    self._open(span)
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        self._close()
                    self.counts["gaussian_model.sample.rows"] += item.shape[0]
                    self.counts["gaussian_model.sample.flops"] += 2 * item.shape[0] * item.shape[1] ** 2
                    yield item
            finally:
                inner.close()

        return wrapper

    # -- counter hooks: exact, from arguments and return values --------------

    def _on_autocovariance(self, result, a):
        self.counts["spectral.autocovariance.flops"] += 2 * (a["max_lag"] + 1) * a["psd"].grid_size

    def _on_find_dominated(self, result, a):
        k = len(a["uset"])
        self.counts["dominance.margin_evals"] += k * (k - 1)

    def _on_rng(self, result, a):
        drawn = a["block"] * a["n"]
        self.counts["gaussian_model.normals_drawn"] += drawn
        key = (a["seed"], a["block_index"], a["n"], a["block"])
        if key not in self._unique_blocks:
            self._unique_blocks.add(key)
            self.counts["gaussian_model.normals_unique"] += drawn

    def _on_build_model(self, result, a):
        self.counts["gaussian_model.models_built"] += 1
        self.counts[f"gaussian_model.models_built.n{a['n']}"] += 1

    def _on_white_model(self, result, a):
        self.counts["gaussian_model.white_models_built"] += 1
        self.counts[f"gaussian_model.white_models_built.n{a['n']}"] += 1

    def _on_sample_gaussian(self, result, a):
        self.counts["harness.frozen_null_bytes"] += result.nbytes

    def _on_quad_forms(self, result, a):
        rows = a["samples"].shape[0]
        self.counts["gaussian_model.quad_forms.rows"] += rows
        self.counts["gaussian_model.quad_forms.flops"] += rows * a["self"].n ** 2

    def _on_llr(self, result, a):
        self.counts["detection.llr.rows"] += result.shape[0] * len(a["models"])

    def _on_calibrate(self, result, a):
        self.counts["detection.calibrations"] += 1

    def _on_empirical_exponent(self, result, a):
        self.counts["detection.ladder_entries"] += len(result.n_values)
        self.counts["detection.censored_entries"] += int(result.censored.sum())

    def _on_fw(self, result, a):
        self.counts["minimax.fw.iterations"] += int(result[2]["iterations"])

    def _on_write_report(self, result, a):
        self.counts["harness.report_bytes"] += os.path.getsize(a["path"])


# Counters that are not exact functions of the op's inputs: the report file
# embeds `wall_time_ms`, whose printed length varies from run to run.
INEXACT_COUNTS = ("harness.report_bytes",)


def self_times(spans, op_id):
    """Per span name: (calls, total seconds, self seconds) for one op.

    Self time is a span's duration minus the durations of its direct
    children; spans run on one thread, so children never overlap.
    """
    child_time = defaultdict(float)
    for name, start, end, parent, op in spans:
        if op == op_id and parent is not None:
            child_time[parent] += end - start
    table = defaultdict(lambda: [0, 0.0, 0.0])
    for i, (name, start, end, parent, op) in enumerate(spans):
        if op != op_id:
            continue
        row = table[name]
        row[0] += 1
        row[1] += end - start
        row[2] += end - start - child_time[i]
    return dict(table)
