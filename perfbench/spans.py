"""Spans and counters at matmom's module boundaries, for the traced run.

``Tracer.install`` replaces each public function listed in ``LAYERS`` by a
wrapper in every ``matmom`` module that holds a reference to it (the
``from .x import y`` names in ``matmom.solutions``, ``matmom.cli`` and the
package namespace included), and wraps the dense factorizations of
``numpy.linalg`` to count them.  The benchmark opens one root span per
operation; wrappers record only while a root span is open, so set-up, the
standalone checks and the benchmark's own output checks are not traced.

Spans are kept in memory as tuples and written as JSON lines by ``dump``.
A layer's self time is its span time minus the time of its child spans.
"""

from __future__ import annotations

import contextlib
import functools
import json
import math
import os
import sys
import time

import numpy as np

# metric prefix -> (module, function) pairs whose spans it collects
LAYERS = {
    "solvability.check": [("solvability", "check"), ("solvability", "check_odd"),
                          ("solvability", "check_even"), ("solvability", "check_l0"),
                          ("solvability", "check_cdfk")],
    "moments.hankel": [("moments", "build_gamma"), ("moments", "build_gamma_tilde"),
                       ("moments", "build_gamma_hat"), ("moments", "build_h_pair")],
    "moments.moments_of": [("moments", "moments_of")],
    "moments.gen": [("moments", "gen_random_measure")],
    "operator_model.gram": [("operator_model", "build_gram_space")],
    "operator_model.operators": [("operator_model", "build_operators")],
    "extensions.extremal": [("extensions", "extremal_extensions"),
                            ("extensions", "extremal_completions")],
    "extensions.canonical": [("extensions", "canonical_extension")],
    "solutions.solve": [("solutions", "solve_odd"), ("solutions", "solve_even"),
                        ("solutions", "solve_l0")],
    "solutions.spectral": [("solutions", "spectral_data")],
    "solutions.measure": [("moments", "measure_from_atoms")],
    "solutions.verify": [("solutions", "verify")],
    "io.read": [("io", "read_problem"), ("io", "read_measure"),
                ("io", "read_matrix_param")],
    "io.write": [("io", "write_problem"), ("io", "write_measure")],
    "cli.main": [("cli", "main")],
}

FACTORIZATIONS = ("eigh", "eigvalsh", "svd", "pinv", "norm")

# Counters read off the arguments and results at the boundary, keyed by
# function name or by layer.
OBSERVERS = {
    "build_gram_space":
        lambda t, args, result: t._count("operator_model.gram_rank", result.rank),
    "extremal_extensions":
        lambda t, args, result: t._count("extensions.defect_dim", result.def_dim),
    "solve_odd":
        lambda t, args, result: t._count("solutions.atoms", result.num_atoms),
    "verify":
        lambda t, args, result: t.residuals.append(result.max_relative_residual),
    "io.read": lambda t, args, result: t._count("io.bytes", os.path.getsize(args[0])),
    "io.write": lambda t, args, result: t._count("io.bytes", os.path.getsize(args[0])),
}


def _factor_n3(name: str, a, args, kwargs) -> int:
    """Sum of n^3 (m*n*min(m, n) for rectangular input) over the stack, or 0
    when the call is not a factorization (``norm`` other than the 2-norm of
    a matrix)."""
    shape = a.shape if hasattr(a, "shape") else np.shape(a)
    if name == "norm":
        order = args[0] if args else kwargs.get("ord")
        if order != 2 or len(shape) != 2:
            return 0
    if len(shape) < 2:
        return 0
    m, n = shape[-2:]
    return math.prod(shape[:-2]) * m * n * min(m, n)


class Tracer:
    """In-memory span recorder for one benchmark process."""

    def __init__(self):
        self.spans = []          # (op, span_id, parent_id, name, start_ns, end_ns)
        self.scales = []         # speed scale of each operation (see speed.py)
        self.layer_of = {"op": "op"}   # span name -> metric prefix
        self.counts = {}         # counter name -> total over all operations
        self.residuals = []      # max relative residual of every verify call
        self._stack = []         # (span_id, layer) of the open spans, root first
        self._next_id = 0
        self._op = -1
        self._saved = []         # (namespace, attribute, original) to restore

    # -- spans -------------------------------------------------------------
    def _open(self, layer: str) -> int:
        span_id = self._next_id
        self._next_id += 1
        self._stack.append((span_id, layer))
        return span_id

    def _close(self, span_id, parent, name, start):
        self._stack.pop()
        self.spans.append((self._op, span_id, parent, name, start,
                           time.perf_counter_ns()))

    @contextlib.contextmanager
    def op(self, scale: float):
        """Root span of one operation, timed at speed scale ``scale``; the
        wrappers record only inside a root span."""
        self._op += 1
        self.scales.append(scale)
        start = time.perf_counter_ns()
        span_id = self._open("op")
        try:
            yield
        finally:
            self._close(span_id, None, "op", start)

    def _count(self, key: str, amount=1):
        self.counts[key] = self.counts.get(key, 0) + amount

    def _wrap(self, layer: str, module: str, fn):
        tracer = self
        name = f"{module}.{fn.__name__}"
        self.layer_of[name] = layer
        observe = OBSERVERS.get(fn.__name__) or OBSERVERS.get(layer)
        calls = layer + ".calls"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack
            if not stack:
                return fn(*args, **kwargs)
            parent, parent_layer = stack[-1]
            start = time.perf_counter_ns()
            span_id = tracer._open(layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(span_id, parent, name, start)
            if parent_layer != layer:
                tracer._count(calls)
            if observe is not None:
                observe(tracer, args, result)
            return result

        return wrapper

    def _wrap_numpy(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(a, *args, **kwargs):
            if tracer._stack:
                work = _factor_n3(name, a, args, kwargs)
                if work or name != "norm":
                    key = "norm2" if name == "norm" else name
                    tracer._count(f"linalg.{key}_calls")
                    tracer._count("linalg.factor_n3", work)
            return fn(a, *args, **kwargs)

        return wrapper

    # -- installation ------------------------------------------------------
    def install(self):
        """Wrap the boundary functions in every loaded matmom module."""
        wrappers = {}
        for layer, targets in LAYERS.items():
            for module, attr in targets:
                fn = getattr(sys.modules[f"matmom.{module}"], attr)
                wrappers[id(fn)] = (fn, self._wrap(layer, module, fn))
        namespaces = [mod for name, mod in sorted(sys.modules.items())
                      if name == "matmom" or name.startswith("matmom.")]
        for mod in namespaces:
            for attr, value in list(vars(mod).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._saved.append((mod, attr, value))
                    setattr(mod, attr, hit[1])
        for name in FACTORIZATIONS:
            original = getattr(np.linalg, name)
            self._saved.append((np.linalg, name, original))
            setattr(np.linalg, name, self._wrap_numpy(name, original))

    def uninstall(self):
        for namespace, attr, original in reversed(self._saved):
            setattr(namespace, attr, original)
        self._saved.clear()

    # -- results -----------------------------------------------------------
    def self_times_ms(self) -> dict[str, float]:
        """Total self time in ms per layer, each span scaled by the speed
        scale of its operation; root spans fall under "op"."""
        child_ns = {}
        for _, _, parent, _, start, end in self.spans:
            if parent is not None:
                child_ns[parent] = child_ns.get(parent, 0) + (end - start)
        totals = {}
        for op, span_id, _, name, start, end in self.spans:
            own = (end - start) - child_ns.get(span_id, 0)
            layer = self.layer_of[name]
            totals[layer] = totals.get(layer, 0.0) + self.scales[op] * own / 1e6
        return totals

    def dump(self, path):
        """Write every span as one JSON object per line."""
        with open(path, "w") as out:
            for op, span_id, parent, name, start, end in self.spans:
                out.write(json.dumps({"op": op, "id": span_id, "parent": parent,
                                      "name": name, "start_ns": start,
                                      "end_ns": end}) + "\n")
