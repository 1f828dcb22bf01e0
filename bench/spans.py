"""Layer spans recorded from outside the dualrisk package.

Tracing patches each layer's functions where their callers look them up:
a name that module A imported from module B (``from .valuation import
dt_value``) is replaced in A's namespace by a wrapper that records a span
for layer B; a module imported whole (``from . import polyops``) is
replaced in the importer by a proxy whose functions are wrapped; class
hooks every caller shares (``__post_init__`` validation, the
``PiecewisePoly`` operators) are wrapped on the class. Calls that stay
inside one layer run unwrapped, since their layer's self time already
holds them, apart from a few named below that get a span or a bare call
counter.

A span is (name, start, end, parent, op); spans live in flat arrays until
the run ends. Self time is a span's duration minus its children's.
"""

from __future__ import annotations

import gzip
import importlib
import types
from array import array
from collections import Counter
from time import perf_counter

LAYERS = (
    "lottery",
    "rationals",
    "weighting",
    "valuation",
    "polyops",
    "piecewise",
    "dominance",
    "apportionment",
    "harness",
    "applications",
    "cli",
)

# Calls inside one layer that still get a span: their time or their
# children identify a step the per-layer metrics name.
_INNER_SPANS = {
    "harness": ("converse_witness_search",),
    "apportionment": ("_validate_pair",),
}
# Hot calls inside one layer that get only a call counter.
_INNER_COUNTERS = {
    "weighting": ("eval_h",),
    "applications": ("sp_solve",),
}
_CLASS_METHODS = {"PiecewisePoly": ("__call__", "antiderivative", "__sub__")}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("l")
        self.parent = array("l")
        self.op_id = array("l")
        self.start = array("d")
        self.end = array("d")
        self.tags: dict[int, object] = {}
        self.counts: Counter = Counter()  # (name, op) -> calls through counter-only wrappers
        self.op = -1
        self._stack = [-1]
        self._restore: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _nid(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def wrap(self, fn, name: str, tag=None):
        """Span wrapper; tag(args, result) may attach a value to the span."""
        nid = self._nid(name)
        stack, start, end = self._stack, self.start, self.end
        parent, name_id, op_id, tags = self.parent, self.name_id, self.op_id, self.tags
        tracer = self

        def traced(*args, **kwargs):
            idx = len(start)
            parent.append(stack[-1])
            name_id.append(nid)
            op_id.append(tracer.op)
            end.append(0.0)
            stack.append(idx)
            start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = perf_counter()
                stack.pop()
            if tag is not None:
                tags[idx] = tag(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def counter(self, fn, name: str):
        counts, tracer = self.counts, self

        def counted(*args, **kwargs):
            counts[name, tracer.op] += 1
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    def _set(self, owner, attr: str, value) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    # -- patching ----------------------------------------------------------

    def install(self, taggers: dict[str, object]) -> None:
        """Wrap every cross-layer call site in dualrisk; taggers by span name."""
        mods = {name: importlib.import_module(f"dualrisk.{name}") for name in LAYERS}
        original = {name: dict(vars(mod)) for name, mod in mods.items()}

        def layer_of(obj) -> str | None:
            owner = getattr(obj, "__module__", "").rpartition(".")[2]
            return owner if owner in mods else None

        def span_for(fn, owner):
            name = f"{owner}.{fn.__name__}"
            return self.wrap(fn, name, taggers.get(name))

        for here, namespace in original.items():
            mod = mods[here]
            for attr, obj in namespace.items():
                if isinstance(obj, types.FunctionType):
                    owner = layer_of(obj)
                    if owner is not None and owner != here:
                        self._set(mod, attr, span_for(obj, owner))
                elif isinstance(obj, types.ModuleType) and obj.__name__.startswith("dualrisk."):
                    owner = obj.__name__.rpartition(".")[2]
                    if owner in mods and owner != here:
                        proxy = types.ModuleType(obj.__name__)
                        for key, val in original[owner].items():
                            wrapped = isinstance(val, types.FunctionType) and layer_of(val) == owner
                            setattr(proxy, key, span_for(val, owner) if wrapped else val)
                        self._set(mod, attr, proxy)
                elif isinstance(obj, type) and layer_of(obj) == here:
                    if "__post_init__" in vars(obj):
                        post = vars(obj)["__post_init__"]
                        self._set(obj, "__post_init__", self.wrap(post, f"{here}.{obj.__name__}.__post_init__"))
                    for meth in _CLASS_METHODS.get(obj.__name__, ()):
                        if meth in vars(obj):
                            fn = vars(obj)[meth]
                            self._set(obj, meth, self.wrap(fn, f"{here}.{obj.__name__}.{meth}"))
        # a name the package no longer has just goes unmeasured (reads 0)
        for here, attrs in _INNER_SPANS.items():
            for attr in attrs:
                if attr in original[here]:
                    self._set(mods[here], attr, span_for(original[here][attr], here))
        for here, attrs in _INNER_COUNTERS.items():
            for attr in attrs:
                if attr in original[here]:
                    self._set(mods[here], attr, self.counter(original[here][attr], f"{here}.{attr}"))

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)

    # -- analysis ----------------------------------------------------------

    def self_times(self) -> list[float]:
        n = len(self.start)
        child = [0.0] * n
        start, end, parent = self.start, self.end, self.parent
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += end[i] - start[i]
        return [end[i] - start[i] - child[i] for i in range(n)]

    def write(self, path) -> None:
        """All spans as gzip TSV: name, start, end, parent, op (times in s)."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write("name\tstart\tend\tparent\top\n")
            names, t0 = self.names, self.start[0] if self.start else 0.0
            for i in range(len(self.start)):
                fh.write(
                    f"{names[self.name_id[i]]}\t{self.start[i] - t0:.7f}\t{self.end[i] - t0:.7f}"
                    f"\t{self.parent[i]}\t{self.op_id[i]}\n"
                )
