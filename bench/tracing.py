"""Span tracing of unitfrac's layers, installed from outside the package.

``Tracer.install`` wraps every public function and public method that a
layer module defines, plus ``RationalInterval.__init__``, and rebinds each
wrapper at every name in the package that held the original (for example
``unitfrac.uniqueness.count_integers_in`` and ``unitfrac.cli.sweep``), so
calls from one module into another are seen as well as calls from the
client.  ``uninstall`` puts the originals back.

A span records name, start, end, parent span and request id.  Spans stay in
flat in-memory arrays while requests run and are written out at the end.
A layer's self time is the duration of its spans minus the time their
child spans cover; time in stdlib ``Fraction`` therefore lands in the layer
that called it.
"""
from __future__ import annotations

import importlib
import inspect
import json
import operator
import time
from array import array
from collections import Counter
from pathlib import Path

# the layers: L3 cli; L2 the algorithm modules; L0/L1 rational
LAYERS = ("cli", "uniqueness", "families", "construct", "diagnostics",
          "greedy", "rational")
_PRIVATE_WRAPPED = ("RationalInterval.__init__",)

# per-layer counters that are call counts of named spans
_CALL_COUNTERS = {
    "rational.intervals": ("rational.RationalInterval.__init__",),
    "rational.int_counts": ("rational.count_integers_in",
                            "rational.largest_integer_in"),
    "uniqueness.pairs": ("uniqueness.pair_uniqueness",
                         "uniqueness.pair_necessary_closed"),
    "greedy.windows": ("greedy.admissible_interval",
                       "greedy.telescoping_interval"),
    "families.term_evals": tuple(
        f"families.{cls}.{method}" for method in ("a", "b")
        for cls in ("SequenceFamily", "GeometricFamily", "ArithmeticFamily",
                    "FibonacciFamily", "ExplicitFamily")),
}


def _den_bits(*fractions) -> int:
    return max((f.denominator.bit_length() for f in fractions), default=0)


def _steps(args, result) -> int:
    return len(result.a)


def _residual_bits(args, result) -> int:
    return _den_bits(*result.residuals)


def _construct_bits(args, result) -> int:
    iv = result.theta_enclosure
    return _den_bits(iv.lo, iv.hi, *(m for c in result.certificates
                                     for m in (c.lower_margin, c.upper_margin)))


# per-layer counters read from a wrapped call's arguments or result:
# counter -> (how calls combine, {span name: value of one call})
_RESULT_COUNTERS = {
    "greedy.steps": (operator.add, {"greedy.wgaa_expand": _steps,
                                    "greedy.recover_shadow": _steps}),
    "greedy.max_operand_bits": (max, {"greedy.wgaa_expand": _residual_bits,
                                      "greedy.recover_shadow": _residual_bits}),
    "families.fib_loop_steps": (operator.add, {
        "families.fibonacci_number": lambda args, result: args[0]}),
    "construct.certificates": (operator.add, {
        "construct.construct": lambda args, result: len(result.certificates)}),
    "construct.max_operand_bits": (max, {"construct.construct": _construct_bits}),
}


class Tracer:
    def __init__(self):
        self.span_names: list[str] = []
        self.span_layers: list[str] = []
        self.start = array("q")
        self.end = array("q")
        self.name = array("q")
        self.parent = array("q")
        self.request = array("q")
        self.stack = [-1]
        self.request_id = -1
        self.counts: Counter = Counter(dict.fromkeys(_RESULT_COUNTERS, 0))
        self._patches: list[tuple[object, str, object]] = []

    def _name_id(self, name: str, layer: str) -> int:
        self.span_names.append(name)
        self.span_layers.append(layer)
        return len(self.span_names) - 1

    def _wrap(self, fn, name: str, layer: str):
        nid = self._name_id(name, layer)
        hooks = [(counter, combine, spans[name])
                 for counter, (combine, spans) in _RESULT_COUNTERS.items()
                 if name in spans]
        start, end, names, parents, requests = (
            self.start, self.end, self.name, self.parent, self.request)
        stack, counts, clock = self.stack, self.counts, time.perf_counter_ns
        tracer = self

        def traced(*args, **kwargs):
            idx = len(names)
            names.append(nid)
            parents.append(stack[-1])
            requests.append(tracer.request_id)
            start.append(0)
            end.append(0)
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                start[idx] = t0
                stack.pop()
            for counter, combine, value in hooks:
                counts[counter] = combine(counts[counter], value(args, result))
            return result
        return traced

    def begin(self, request_id: int) -> int:
        """Open the root span of one request, in the "bench" layer."""
        self.request_id = request_id
        idx = len(self.name)
        self.name.append(self._root)
        self.parent.append(-1)
        self.request.append(request_id)
        self.end.append(0)
        self.stack.append(idx)
        self.start.append(time.perf_counter_ns())
        return idx

    def finish(self, idx: int) -> None:
        self.end[idx] = time.perf_counter_ns()
        self.stack.pop()

    def install(self) -> None:
        self._root = self._name_id("bench.request", "bench")
        layer_modules = {layer: importlib.import_module(f"unitfrac.{layer}")
                         for layer in LAYERS}
        modules = [importlib.import_module("unitfrac"), *layer_modules.values()]
        for layer, mod in layer_modules.items():
            for name, obj in list(vars(mod).items()):
                if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrapper = self._wrap(obj, f"{layer}.{name}", layer)
                    for consumer in modules:
                        for bound, value in list(vars(consumer).items()):
                            if value is obj:
                                self._patch(consumer, bound, wrapper)
                elif inspect.isclass(obj) and not issubclass(obj, BaseException):
                    for attr, fn in list(vars(obj).items()):
                        qual = f"{name}.{attr}"
                        if inspect.isfunction(fn) and (
                                not attr.startswith("_")
                                or qual in _PRIVATE_WRAPPED):
                            self._patch(obj, attr,
                                        self._wrap(fn, f"{layer}.{qual}", layer))

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # ---------------------------------------------------------- results

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer calls, self seconds and counters over all spans."""
        n = len(self.name)
        covered = [0] * n
        start, end, parent = self.start, self.end, self.parent
        for i in range(n):
            if parent[i] >= 0:
                covered[parent[i]] += end[i] - start[i]
        self_ns: Counter = Counter()
        calls: Counter = Counter()
        by_name: Counter = Counter()
        layer_of = self.span_layers
        names = self.span_names
        for i in range(n):
            nid = self.name[i]
            self_ns[layer_of[nid]] += end[i] - start[i] - covered[i]
            calls[layer_of[nid]] += 1
            by_name[names[nid]] += 1
        metrics: dict[str, float] = {}
        for layer in ("bench",) + LAYERS:
            if layer != "bench":
                metrics[f"{layer}.calls"] = calls[layer]
            metrics[f"{layer}.self_s"] = self_ns[layer] / 1e9
        for counter, span_names in _CALL_COUNTERS.items():
            metrics[counter] = sum(by_name[s] for s in span_names)
        metrics.update(self.counts)
        return metrics

    def write(self, stem: Path) -> int:
        """Write spans as ``stem.json`` (layout) and ``stem.bin`` (int64)."""
        stem.parent.mkdir(parents=True, exist_ok=True)
        columns = ("start_ns", "end_ns", "name", "parent", "request")
        with open(stem.with_suffix(".bin"), "wb") as handle:
            for column in (self.start, self.end, self.name, self.parent,
                           self.request):
                column.tofile(handle)
        stem.with_suffix(".json").write_text(json.dumps({
            "spans": len(self.name),
            "columns": columns,
            "dtype": "int64 little-endian, one column after another",
            "names": self.span_names,
            "layers": self.span_layers,
        }, indent=1) + "\n")
        return len(self.name)
