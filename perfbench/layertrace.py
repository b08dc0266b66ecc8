"""Outside-in layer tracing for jacobilift, installed from the benchmark.

The package itself has no hooks, so the tracer replaces the public
callables of each layer module with timing wrappers, in every place where
callers look them up: module attributes (including the copies that
``from .x import f`` leaves in other modules), the ``Series`` class and the
``verify.SUITES`` table.  Each call records a span (name, parent, start,
end) in memory; ``summary`` turns the spans into per-layer metrics.

Self time of a span is its duration minus the durations of its direct
child spans.  Series methods other than multiplication and division are
not wrapped, so their time counts toward the calling layer's self time.
"""

import functools
import importlib
import sys
import time
from math import isqrt

LAYERS = ("series", "modular", "jacobi", "genus", "lifts", "verify", "cli")

# Scalar helpers called per coefficient: a span each would cost more than
# the work it measures.
SKIP = {"series": {"gen_binomial"}, "modular": {"kronecker", "sigma1"}}

# Span names whose distinct argument tuples are counted.
DISTINCT = {"jacobi.generator", "jacobi.basis_psi"}


def span_name(layer, func):
    """Metric name of a wrapped callable: verify suites and CLI commands
    are named by suite and subcommand."""
    if layer == "verify" and func.startswith("suite_"):
        return "verify." + func[len("suite_"):]
    if layer == "cli" and func.startswith("cmd_"):
        return "cli." + func[len("cmd_"):]
    return f"{layer}.{func}"


class Tracer:
    def __init__(self, now=time.perf_counter):
        self.now = now
        self.spans = []  # [name, parent index, start, end]
        self.stack = []
        self.counts = {}  # name -> {"pairs": n, "factors": n}
        self.args = {}  # name -> set of argument tuples

    def _enter(self, name):
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, parent, self.now(), None])
        self.stack.append(len(self.spans) - 1)

    def _exit(self):
        idx = self.stack.pop()
        self.spans[idx][3] = self.now()

    def add(self, name, key, amount):
        bucket = self.counts.setdefault(name, {})
        bucket[key] = bucket.get(key, 0) + amount

    def wrap(self, name, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if name in DISTINCT:
                tracer.args.setdefault(name, set()).add(
                    (args, tuple(sorted(kwargs.items())))
                )
            if name == "series.product_expand":
                args = list(args)
                args[0] = list(args[0])
                tracer.add(name, "factors", len(args[0]))
            tracer._enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._exit()

        return wrapper

    def install(self):
        """Wrap every layer's public callables; call after importing."""
        mods = {layer: importlib.import_module("jacobilift." + layer) for layer in LAYERS}
        series = mods["series"]
        replaced = {}
        for layer, mod in mods.items():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or isinstance(obj, type) or not callable(obj):
                    continue
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if attr in SKIP.get(layer, ()):
                    continue
                replaced[id(obj)] = (obj, self.wrap(span_name(layer, attr), obj))
        for name, mod in list(sys.modules.items()):
            if name != "jacobilift" and not name.startswith("jacobilift."):
                continue
            for attr, obj in list(vars(mod).items()):
                hit = replaced.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(mod, attr, hit[1])
        suites = mods["verify"].SUITES
        for key, fn in list(suites.items()):
            hit = replaced.get(id(fn))
            if hit is not None and hit[0] is fn:
                suites[key] = hit[1]
        self._wrap_series(series.Series)

    def _wrap_series(self, cls):
        tracer = self
        mul = cls.__mul__
        div = cls.exact_div

        @functools.wraps(mul)
        def traced_mul(a, b):
            if not isinstance(b, cls):
                return mul(a, b)
            na, nb = len(a.terms), len(b.terms)
            small, large = min(na, nb), max(na, nb)
            # sparse: the smaller operand is binomial- or theta-sized
            name = "series.mul_sparse" if small <= max(2, isqrt(large)) else "series.mul_dense"
            tracer.add(name, "pairs", na * nb)
            tracer._enter(name)
            try:
                return mul(a, b)
            finally:
                tracer._exit()

        @functools.wraps(div)
        def traced_div(a, b, *args, **kwargs):
            tracer._enter("series.exact_div")
            try:
                out = div(a, b, *args, **kwargs)
            finally:
                tracer._exit()
            tracer.add("series.exact_div", "pairs", len(out.terms) * len(b.terms))
            return out

        cls.__mul__ = traced_mul
        cls.exact_div = traced_div

    def summary(self):
        """Per-span-name calls, inclusive and self seconds, counts, and
        self seconds per layer module."""
        child = [0.0] * len(self.spans)
        for name, parent, start, end in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = {}
        for i, (name, parent, start, end) in enumerate(self.spans):
            rec = out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
            rec["calls"] += 1
            if not _nested_in(self.spans, i, name):
                rec["s"] += end - start
            rec["self_s"] += (end - start) - child[i]
        for name, bucket in self.counts.items():
            out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0}).update(bucket)
        for name, seen in self.args.items():
            out[name]["distinct"] = len(seen)
        return out


def _nested_in(spans, i, name):
    """True when span i runs inside another span of the same name, so that
    recursive calls are not counted twice in inclusive time."""
    parent = spans[i][1]
    while parent >= 0:
        if spans[parent][0] == name:
            return True
        parent = spans[parent][1]
    return False
