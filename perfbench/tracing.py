"""Spans and counters recorded around calls into kfpq, from outside it.

``install`` rebinds the public functions listed in ``TRACED`` in every
loaded ``kfpq`` module to wrappers that record a span (name, start, end,
parent, failed) per call.  Calls made inside the package go through module
globals, so they are traced too; nothing under ``src/`` changes.

Matrix work of the Galerkin oracle is counted with a ndarray subclass:
``semigroup_matrix`` results and ``operator_norm`` arguments are viewed as
``CountingMatrix``, whose ``@`` classifies each product as a power-iteration
matrix-vector product, a squaring or a weight product.  The counts are
*computed* from operand shapes, not measured by hardware counters.
"""

from __future__ import annotations

import functools
import statistics
import sys
import time

import numpy as np

__all__ = ["TRACED", "CLI_COMMANDS", "CRITERIA_RUN", "Tracer", "install",
           "per_layer_metrics", "PER_LAYER"]

# public functions timed in a traced run, by kfpq module
TRACED = {
    "galerkin": ("build", "semigroup_matrix", "operator_norm", "decay_curve",
                 "subelliptic_constant"),
    "exactnorms": ("witness_rayleigh_numeric", "resolvent_bound",
                   "semigroup_norm", "optimality_witness"),
    "bargmann": ("sup_direct_optimization", "quotient", "gram_eigenvalues"),
    "positivity": ("delta0", "positivity_report"),
    "symbols": ("kappa", "kappa0"),
    "degenerate": ("sup_weighted", "decay_bound_degenerate"),
    "biquat": ("Biquaternion.exp", "Biquaternion.inv"),
}
CLI_COMMANDS = ("norms", "delta0", "positivity", "bargmann", "resolvent",
                "optimality", "degenerate", "subelliptic", "verify-all")
# the criteria cli_defaults runs through verify-all
CRITERIA_RUN = (1, 2, 3, 4, 6, 9)


def _span_names():
    names = ["%s.%s" % (mod, fn) for mod, fns in TRACED.items() for fn in fns]
    names += ["cli.%s" % c for c in CLI_COMMANDS]
    names += ["acceptance.criterion_%02d" % k for k in CRITERIA_RUN]
    return names


def _per_layer_spec():
    spec = []
    for name in _span_names():
        spec += [(name + ".s", "s", "lower"), (name + ".calls", "count", "lower"),
                 (name + ".fail", "count", "lower")]
    spec += [
        ("galerkin.operator_norm.iters", "count", "lower"),
        ("galerkin.operator_norm.iters_max", "count", "lower"),
        ("galerkin.decay_curve.self_s", "s", "lower"),
        ("galerkin.squaring_gflop_computed", "GFLOP", "lower"),
        ("galerkin.weight_product_gflop_computed", "GFLOP", "lower"),
        ("galerkin.power_iter_gb_computed", "GB", "lower"),
        ("galerkin.unconverged_samples", "count", "lower"),
        ("galerkin.blas1_wall_s", "s", "lower"),
        ("trace.overhead_s", "s", "lower"),
        ("trace.coverage", "ratio", "higher"),
    ]
    return spec


# (name, unit, better) of every per-layer metric, in output order.  Values
# are per pass (median over the traced passes); 0 means the workload does
# not reach that layer.
PER_LAYER = _per_layer_spec()


class Tracer:
    """Spans and counters of one traced section, kept in memory."""

    def __init__(self):
        # each span: [name, start, end, parent index, failed, pass index]
        self.spans = []
        self._stack = []
        self.pass_index = 0
        # per pass index: computed kernel counts
        self.counts = {}

    def count(self, key: str, amount) -> None:
        per_pass = self.counts.setdefault(self.pass_index, {})
        per_pass[key] = per_pass.get(key, 0) + amount

    def wrap(self, name: str, fn, failed=None):
        """fn with a span per call; ``failed(result)`` flags a returned failure."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack
            record = [name, 0.0, 0.0, stack[-1] if stack else -1, False,
                      tracer.pass_index]
            stack.append(len(tracer.spans))
            tracer.spans.append(record)
            record[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                record[4] = True
                raise
            finally:
                record[2] = time.perf_counter()
                stack.pop()
            if failed is not None and failed(result):
                record[4] = True
            return result
        return traced


def _counting_matrix_class(tracer: Tracer):
    class CountingMatrix(np.ndarray):
        """A view whose products are counted by kind in ``tracer``."""

        def __matmul__(self, other):
            return _product(self, other, np.matmul(self.view(np.ndarray), other))

        def __rmatmul__(self, other):
            return _product(self, other, np.matmul(other, self.view(np.ndarray)))

    def _product(mat, other, result):
        if np.ndim(other) == 1:
            tracer.count("matvec", 1)
            tracer.count("matvec_bytes", mat.nbytes)
            return result
        # the squaring chain multiplies E(t/2) by itself
        kind = "squaring_flop" if other is mat else "weight_flop"
        tracer.count(kind, 2.0 * mat.shape[0] * mat.shape[1] * np.shape(other)[-1])
        return result.view(CountingMatrix)

    return CountingMatrix


def install(tracer: Tracer) -> None:
    """Rebind the traced kfpq functions to span-recording wrappers."""
    import kfpq.acceptance
    import kfpq.biquat
    import kfpq.galerkin

    counting = _counting_matrix_class(tracer)
    modules = [m for n, m in sys.modules.items()
               if (n == "kfpq" or n.startswith("kfpq.")) and m is not None]

    def semigroup_matrix(original):
        def call(*args, **kwargs):
            return original(*args, **kwargs).view(counting)
        return call

    def operator_norm(original):
        def call(m, *args, **kwargs):
            before = tracer.counts.get(tracer.pass_index, {}).get("matvec", 0)
            try:
                return original(np.asarray(m).view(counting), *args, **kwargs)
            finally:
                after = tracer.counts.get(tracer.pass_index, {}).get("matvec", 0)
                iters = (after - before) // 2
                tracer.count("iters", iters)
                per_pass = tracer.counts[tracer.pass_index]
                per_pass["iters_max"] = max(per_pass.get("iters_max", 0), iters)
        return call

    def decay_curve(original):
        def call(*args, **kwargs):
            curve = original(*args, **kwargs)
            tracer.count("unconverged",
                         sum(1 for s in curve.samples if not s.converged))
            return curve
        return call

    hooks = {"galerkin.semigroup_matrix": semigroup_matrix,
             "galerkin.operator_norm": operator_norm,
             "galerkin.decay_curve": decay_curve}

    for modname, names in TRACED.items():
        mod = sys.modules["kfpq." + modname]
        for name in names:
            label = "%s.%s" % (modname, name)
            if "." in name:  # a method: rebind it on its class
                cls_name, meth = name.split(".")
                cls = getattr(mod, cls_name)
                setattr(cls, meth, tracer.wrap(label, getattr(cls, meth)))
                continue
            original = getattr(mod, name)
            inner = hooks[label](original) if label in hooks else original
            _rebind(modules, original, tracer.wrap(label, inner))

    criteria = kfpq.acceptance.CRITERIA
    for k in CRITERIA_RUN:
        original = criteria[k]
        wrapped = tracer.wrap("acceptance.criterion_%02d" % k, original,
                              failed=lambda res: not res.passed)
        criteria[k] = wrapped
        _rebind(modules, original, wrapped)


def _rebind(modules, original, wrapped) -> None:
    for mod in modules:
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, wrapped)


def _median(values):
    return statistics.median(values) if values else 0.0


def per_layer_metrics(tracer: Tracer, pass_times: list) -> dict:
    """Per-pass medians of busy time, calls and failures per span name.

    A span nested in a span of the same name is not counted twice.  Self
    time of ``galerkin.decay_curve`` excludes every traced child call, so it
    is the squaring chain, the weight product and the corner deflation.
    Coverage is the share of each pass that top-level spans account for.
    """
    n_pass = len(pass_times)
    spans = tracer.spans
    names = _span_names()
    busy = {name: [0.0] * n_pass for name in names}
    calls = {name: [0] * n_pass for name in names}
    fails = {name: [0] * n_pass for name in names}
    child_time = [0.0] * len(spans)
    covered = [0.0] * n_pass
    for name, start, end, parent, failed, p in spans:
        dur = end - start
        if parent >= 0:
            child_time[parent] += dur
        else:
            covered[p] += dur
        anc = parent
        while anc >= 0 and spans[anc][0] != name:
            anc = spans[anc][3]
        if anc >= 0 or name not in busy:
            continue
        busy[name][p] += dur
        calls[name][p] += 1
        fails[name][p] += int(failed)
    self_dc = [0.0] * n_pass
    for idx, (name, start, end, parent, failed, p) in enumerate(spans):
        if name == "galerkin.decay_curve":
            self_dc[p] += (end - start) - child_time[idx]

    out = {}
    for name in names:
        out[name + ".s"] = _median(busy[name])
        out[name + ".calls"] = _median(calls[name])
        out[name + ".fail"] = _median(fails[name])

    def count(key):
        return _median([tracer.counts.get(p, {}).get(key, 0)
                        for p in range(n_pass)])
    out["galerkin.operator_norm.iters"] = count("iters")
    out["galerkin.operator_norm.iters_max"] = count("iters_max")
    out["galerkin.decay_curve.self_s"] = _median(self_dc)
    out["galerkin.squaring_gflop_computed"] = count("squaring_flop") / 1e9
    out["galerkin.weight_product_gflop_computed"] = count("weight_flop") / 1e9
    out["galerkin.power_iter_gb_computed"] = count("matvec_bytes") / 1e9
    out["galerkin.unconverged_samples"] = count("unconverged")
    out["trace.coverage"] = _median([c / t for c, t in zip(covered, pass_times)])
    return out
