"""In-memory spans and counters around the public functions of ruminslice.

``install()`` replaces every public module-level function of each
``ruminslice`` module with a wrapper, in the defining module and in every
module that imported the name, so a caller finds the wrapper wherever it
looks the name up.  A few methods are wrapped on their classes.  Hot
functions are only counted, so that timing them does not swamp the run.

A span records its name, start, end and the span that caused it.  Self
time is a span's duration minus the time its child spans cover.  The
aggregates and the spans stay in memory until ``write()``.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import pkgutil
import time
from fractions import Fraction

# Called so often that a timer around each call would distort the run.
COUNT_ONLY = {
    "algebra.all_blades", "algebra.pair", "algebra.sort_indices",
    "algebra.wedge", "algebra.wedge_blades",
    "currents.Simplex.degenerate", "currents.Simplex.new",
    "currents.tangent_at", "heis.frame_change",
    "polys.Poly.evaluate", "polys.Poly.mul", "polys.Poly.new",
}

# Private functions that carry a whole layer step.
PRIVATE = {("slicing", "_slice"): "slicing.slice"}

# (module, class, attribute, span name) of the wrapped methods.
METHODS = (
    ("polys", "Poly", "__init__", "polys.Poly.new"),
    ("polys", "Poly", "__mul__", "polys.Poly.mul"),
    ("polys", "Poly", "__rmul__", "polys.Poly.mul"),
    ("polys", "Poly", "evaluate", "polys.Poly.evaluate"),
    ("forms", "PolyForm", "evaluate_at", "forms.PolyForm.evaluate_at"),
    ("currents", "Simplex", "__post_init__", "currents.Simplex.new"),
    ("currents", "Simplex", "degenerate", "currents.Simplex.degenerate"),
    ("currents", "SimplicialCurrent", "canonical", "currents.canonical"),
)

MAX_SPANS = 200_000


def _bits(value) -> int:
    if isinstance(value, Fraction):
        return max(value.numerator.bit_length(), value.denominator.bit_length())
    return 0


class Tracer:
    """Spans and counters of one process, kept in memory."""

    def __init__(self):
        self.totals = {}  # name -> [calls, total_s, self_s]
        self.counters = {}
        self.spans = []
        self.spans_dropped = 0
        self._stack = []
        self._next_id = 0

    def count(self, name: str, amount=1):
        self.counters[name] = self.counters.get(name, 0) + amount

    def maximum(self, name: str, value):
        self.counters[name] = max(self.counters.get(name, 0), value)

    def counted(self, name: str, fn):
        record = self.totals.setdefault(name, [0, 0.0, 0.0])

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            record[0] += 1
            return fn(*args, **kwargs)

        return wrapper

    def timed(self, name: str, fn, after=None):
        record = self.totals.setdefault(name, [0, 0.0, 0.0])
        stack = self._stack
        spans = self.spans
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            parent = stack[-1][0] if stack else -1
            frame = [span_id, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                record[0] += 1
                record[1] += duration
                record[2] += duration - frame[1]
                if stack:
                    stack[-1][1] += duration
                if len(spans) < MAX_SPANS:
                    spans.append((name, span_id, parent, start, end))
                else:
                    self.spans_dropped += 1
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def wrap(self, name: str, fn, after=None):
        if name in COUNT_ONLY:
            return self.counted(name, fn)
        return self.timed(name, fn, after)

    def calls(self, name: str) -> int:
        return self.totals.get(name, [0, 0.0, 0.0])[0]

    def self_s(self, name: str) -> float:
        return self.totals.get(name, [0, 0.0, 0.0])[2]

    def snapshot(self) -> dict:
        return {"totals": self.totals, "counters": self.counters}

    def merge(self, snapshot: dict):
        """Add the aggregates of another process (a traced CLI child)."""
        for name, (calls, total, own) in snapshot["totals"].items():
            record = self.totals.setdefault(name, [0, 0.0, 0.0])
            record[0] += calls
            record[1] += total
            record[2] += own
        for name, value in snapshot["counters"].items():
            if name.endswith(".max_bits"):
                self.maximum(name, value)
            else:
                self.count(name, value)

    def write(self, path, spans: bool = True):
        data = self.snapshot()
        if spans:
            data.update(spans=self.spans, spans_dropped=self.spans_dropped)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(data, handle)


def _modules():
    import ruminslice

    names = sorted(info.name for info in pkgutil.iter_modules(ruminslice.__path__))
    return ruminslice, [importlib.import_module(f"ruminslice.{name}") for name in names]


def _after_hooks(tracer: Tracer) -> dict:
    def split(args, result):
        pieces = len(result[0]) + len(result[1])
        tracer.count("clipping.pieces_out", pieces)
        if pieces > 1:
            tracer.count("clipping.crossing_calls")

    def restrict(args, result):
        tracer.count("currents.restrict_to_set.simplices_in", len(args[0].simplices))
        tracer.count("currents.restrict_to_set.simplices_out", len(result.simplices))

    def canonical(args, result):
        tracer.count("currents.canonical.simplices_in", len(args[0].simplices))
        tracer.count("currents.canonical.simplices_out", len(result.simplices))

    def nodes(args, result):
        tracer.count("quadrature.nodes", len(result))

    def sliced(args, result):
        bits = _bits(result.mass)
        for s in result.chain.simplices:
            bits = max(bits, _bits(s.multiplicity), *(_bits(c) for v in s.vertices for c in v))
        tracer.maximum("slicing.max_bits", bits)

    return {
        "clipping.split_simplex": split,
        "currents.restrict_to_set": restrict,
        "currents.canonical": canonical,
        "quadrature.parameter_nodes": nodes,
        "slicing.slice": sliced,
    }


def _is_wrappable(obj) -> bool:
    return inspect.isfunction(obj) or hasattr(obj, "cache_info")


def install(tracer: Tracer):
    """Wrap the library in place; call once per process, after import."""
    package, modules = _modules()
    hooks = _after_hooks(tracer)
    replaced = {}
    for module in modules:
        short = module.__name__.rsplit(".", 1)[1]
        for attr, obj in list(vars(module).items()):
            if not _is_wrappable(obj) or getattr(obj, "__module__", None) != module.__name__:
                continue
            name = PRIVATE.get((short, attr))
            if name is None:
                if attr.startswith("_"):
                    continue
                name = f"{short}.{attr}"
            # the wrapper keeps obj alive, so its id stays unique
            replaced[id(obj)] = tracer.wrap(name, obj, hooks.get(name))
    for module in [package] + modules:
        for attr, obj in list(vars(module).items()):
            if id(obj) in replaced:
                setattr(module, attr, replaced[id(obj)])
    by_name = {m.__name__.rsplit(".", 1)[1]: m for m in modules}
    for short, cls_name, attr, name in METHODS:
        cls = getattr(by_name[short], cls_name)
        setattr(cls, attr, tracer.wrap(name, vars(cls)[attr], hooks.get(name)))


def per_layer(tracer: Tracer) -> dict:
    """The per-layer metrics, by name, as (value, unit)."""
    t = tracer
    c = t.counters.get

    def ratio(num, den):
        return num / den if den else 0.0

    metrics = {
        "clipping.split_simplex.calls": (t.calls("clipping.split_simplex"), "count"),
        "clipping.split_simplex.self_s": (t.self_s("clipping.split_simplex"), "s"),
        "clipping.pieces_out": (c("clipping.pieces_out", 0), "count"),
        "clipping.crossing_ratio": (
            ratio(c("clipping.crossing_calls", 0), t.calls("clipping.split_simplex")), "ratio"),
        "currents.restrict_to_set.self_s": (t.self_s("currents.restrict_to_set"), "s"),
        "currents.restrict_to_set.simplices_in": (
            c("currents.restrict_to_set.simplices_in", 0), "count"),
        "currents.restrict_to_set.simplices_out": (
            c("currents.restrict_to_set.simplices_out", 0), "count"),
        "currents.boundary.self_s": (t.self_s("currents.boundary"), "s"),
        "currents.canonical.self_s": (t.self_s("currents.canonical"), "s"),
        "currents.canonical.merge_ratio": (
            ratio(c("currents.canonical.simplices_out", 0),
                  c("currents.canonical.simplices_in", 0)), "ratio"),
        "currents.Simplex.new": (t.calls("currents.Simplex.new"), "count"),
        "currents.Simplex.degenerate.calls": (t.calls("currents.Simplex.degenerate"), "count"),
        "currents.mass.calls": (t.calls("currents.mass"), "count"),
        "currents.mass.self_s": (t.self_s("currents.mass"), "s"),
        "currents.tangent_at.calls": (t.calls("currents.tangent_at"), "count"),
        "quadrature.parameter_nodes.calls": (t.calls("quadrature.parameter_nodes"), "count"),
        "quadrature.nodes": (c("quadrature.nodes", 0), "count"),
        "heis.frame_change.calls": (t.calls("heis.frame_change"), "count"),
        "slicing.max_bits": (c("slicing.max_bits", 0), "bits"),
        "polys.Poly.new": (t.calls("polys.Poly.new"), "count"),
        "polys.Poly.mul.calls": (t.calls("polys.Poly.mul"), "count"),
        "polys.Poly.evaluate.calls": (t.calls("polys.Poly.evaluate"), "count"),
        "algebra.pair.calls": (t.calls("algebra.pair"), "count"),
        "linalg.mat_vec.calls": (t.calls("linalg.mat_vec"), "count"),
    }
    for name in ("currents.pair_forms_batch", "forms.PolyForm.evaluate_at",
                 "slicing.measure_between", "rumin.canonical_rep", "rumin.L_inv",
                 "rumin.is_in_I", "rumin.is_in_J", "rumin.d_c", "linalg.solve"):
        metrics[f"{name}.calls"] = (t.calls(name), "count")
        metrics[f"{name}.self_s"] = (t.self_s(name), "s")
    for name in ("slicing.slice", "slicing.coarea_sweep", "slicing.property_report",
                 "forms.exterior_d", "forms.wedge_forms", "verify.complex_battery",
                 "verify.lemma_battery", "formio.load_chain", "formio.parse_affine",
                 "formio.chain_to_dict", "formio.coarea_csv_lines", "cli.main"):
        metrics[f"{name}.self_s"] = (t.self_s(name), "s")
    return metrics
