"""Layer spans for the traced run.

A layer is one module of ``src/sqrtpoly``.  ``Tracer.install`` wraps the
layer's public callables -- module-level functions, explicit class
constructors and cached properties -- and rebinds each wrapper in every
sqrtpoly module that holds the original, so a ``from .poly import
is_sqrt_poly`` inside ``search`` is traced as well.  Every call records
one span in memory; spans are written out only when the run ends.
Methods other than constructors are not wrapped: the hot ones
(``SignVector.sign``) would record millions of spans.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import importlib
import inspect
import json
import sys
import time
from collections import defaultdict
from typing import NamedTuple

LAYERS = ("field", "_modmat", "_kernels", "poly", "signs", "fourier", "ts",
          "census", "heuristic", "search", "cli")


def prefix(layer: str) -> str:
    """Metric-name prefix of a layer: names must start with a letter."""
    return layer.lstrip("_")


class Span(NamedTuple):
    job: str | None
    sid: int
    parent: int | None
    layer: str
    func: str
    t0: float
    t1: float
    ok: bool


def _n_ops(a, b) -> int:
    inner = a.shape[-1]
    rows = a.size // inner if inner else 0
    cols = b.shape[-1] if b.ndim > 1 else 1
    return rows * inner * cols


def _power_block(t, ctx, rows, cols, *a, **k):
    t.add("modmat.table_bytes", rows.size * cols.size * 8)
    t.add("modmat.tables", 1)
    key = hashlib.blake2b(b"%d|" % ctx.p + rows.tobytes() + b"|" + cols.tobytes(),
                          digest_size=16).digest()
    t.add("modmat.tables_rebuilt", key in t.tables_seen)
    t.tables_seen.add(key)


def _family_rows(t, ctx, *a, **k):
    if ctx.p % 4 == 1:
        t.add("search.family_rows", 2 << ((ctx.p - 1) // 4))


# Work counts taken from a call's arguments, before the call runs.  Each
# takes the tracer first, then the arguments of the wrapped callable.
COUNTERS = {
    "_kernels.census_gray_kernel":
        lambda t, delta, p, r, lo, hi, *a, **k: t.add("kernels.steps", hi - lo),
    "_kernels.vanish_gray_kernel":
        lambda t, tab, p, lo, hi, *a, **k: t.add("kernels.steps", hi - lo),
    "census.full_census":
        lambda t, ctx, *a, **k: t.add("census.vectors", 1 << ctx.r),
    "fourier.count_vanishing_bruteforce":
        lambda t, ctx, d, *a, **k: t.add("fourier.vectors", 1 << d),
    "search.minimal_search": _family_rows,
    "_modmat.power_block": _power_block,
    "_modmat.matmul_mod":
        lambda t, a, b, *r, **k: t.add("modmat.matmul_ops", _n_ops(a, b)),
    "poly.is_sqrt_poly":
        lambda t, ctx, *a, **k: t.add("poly.points_checked", ctx.r),
    "field.FieldCtx.__init__":
        lambda t, *a, **k: t.add("field.ctx_builds", 1),
}


class Tracer:
    """Wraps the sqrtpoly layers and records one span per call."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: defaultdict[str, int] = defaultdict(int)
        self.tables_seen: set[bytes] = set()
        self.job: str | None = None
        self.recording = True
        self._stack: list[int] = []
        self._next_sid = 0
        self._restore: list[tuple[object, str, object]] = []

    def add(self, name: str, n: int):
        self.counts[name] += n

    def wrap(self, layer: str, qualname: str, fn):
        counter = COUNTERS.get(qualname)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.recording:
                return fn(*args, **kwargs)
            if counter is not None:
                counter(self, *args, **kwargs)
            sid = self._next_sid
            self._next_sid += 1
            parent = self._stack[-1] if self._stack else None
            self._stack.append(sid)
            ok = False
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
                ok = True
                return out
            finally:
                t1 = time.perf_counter()
                self._stack.pop()
                self.spans.append(Span(self.job, sid, parent, layer, qualname,
                                       t0, t1, ok))

        traced.__perfbench_layer__ = layer
        return traced

    def _set(self, owner, name: str, value):
        self._restore.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def install(self):
        """Wrap every layer's public callables wherever sqrtpoly binds them."""
        wrapped = {}  # id(original) -> (original, wrapper)
        for layer in LAYERS:
            mod = importlib.import_module(f"sqrtpoly.{layer}")
            for name, obj in list(vars(mod).items()):
                if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isclass(obj):
                    self._wrap_class(layer, obj)
                elif callable(obj):
                    wrapped[id(obj)] = (obj, self.wrap(layer, f"{layer}.{name}", obj))
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "sqrtpoly" or modname.startswith("sqrtpoly.")):
                continue
            for name, obj in list(vars(mod).items()):
                hit = wrapped.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._set(mod, name, hit[1])

    def _wrap_class(self, layer: str, cls):
        for name, attr in list(vars(cls).items()):
            qualname = f"{layer}.{cls.__name__}.{name}"
            # explicit constructors only: a dataclass __init__ does no work
            if (name == "__init__" and inspect.isfunction(attr)
                    and not dataclasses.is_dataclass(cls)):
                self._set(cls, name, self.wrap(layer, qualname, attr))
            elif isinstance(attr, functools.cached_property):
                self._set(attr, "func", self.wrap(layer, qualname, attr.func))

    def uninstall(self):
        while self._restore:
            owner, name, value = self._restore.pop()
            setattr(owner, name, value)

    def write(self, path):
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps(s._asdict()) + "\n")


def _covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total = 0.0
    end = lo
    for a, b in sorted(intervals):
        a, b = max(a, end), min(b, hi)
        if b > a:
            total += b - a
            end = b
    return total


def self_times(spans) -> dict[str, float]:
    """Seconds per layer: each span's duration minus what its children cover."""
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.t0, s.t1))
    out: defaultdict[str, float] = defaultdict(float)
    for s in spans:
        out[s.layer] += (s.t1 - s.t0) - _covered(children[s.sid], s.t0, s.t1)
    return dict(out)


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Every per-layer metric of one traced pass."""
    spans = tracer.spans
    selfs = self_times(spans)
    calls: defaultdict[str, int] = defaultdict(int)
    errors: defaultdict[str, int] = defaultdict(int)
    for s in spans:
        calls[s.layer] += 1
        errors[s.layer] += not s.ok
    c = tracer.counts
    out = {}
    for layer in LAYERS:
        name = prefix(layer)
        out[f"{name}.self_s"] = selfs.get(layer, 0.0)
        out[f"{name}.calls"] = calls[layer]
        out[f"{name}.errors"] = errors[layer]
    for key in ("kernels.steps", "census.vectors", "fourier.vectors",
                "search.family_rows", "modmat.table_bytes", "modmat.matmul_ops",
                "poly.points_checked", "field.ctx_builds"):
        out[key] = c[key]
    out["kernels.steps_per_s"] = (c["kernels.steps"] / selfs["_kernels"]
                                  if selfs.get("_kernels") else 0.0)
    out["modmat.rebuilt_frac"] = (c["modmat.tables_rebuilt"] / c["modmat.tables"]
                                  if c["modmat.tables"] else 0.0)
    return out
