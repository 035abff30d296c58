"""Layer tracing of permstat from outside the package.

``LayerTracer`` replaces every public function of the eight permstat modules,
in every ``permstat`` module namespace that binds it, with a wrapper that
counts calls and measures time.  It also wraps ``MultiPoly.__init__`` and the
ring methods, and the ``check`` callable of every registry entry.  Nothing in
the package is edited; ``uninstall`` puts every original object back.

Self time is kept with a stack: a frame's self time is its duration minus the
durations of the traced frames it called, and minus the wrappers' own cost
outside their clock windows (``outside_ns`` per traced call it made, measured
by ``calibrate``).  That cost is kept apart, so the layer self times, the
wrapper time and the time outside every traced frame add up to the wall.
Iterators returned by a traced function are wrapped too, so each ``next()``
is a frame of the function's layer and its items are counted.

Per-function counters stay in memory.  Coarse spans (one per ``cli.main``
call, one per ``identities.verify`` call, and one per call the benchmark
makes directly) carry parent ids; they are kept in ``spans`` for the caller
to write out.
"""
from __future__ import annotations

import collections.abc
import dataclasses
import functools
import importlib
import inspect
import sys
import time

LAYERS = ("perm", "words", "stats", "cover", "qpoly", "shuffles", "identities", "cli")
MULTIPOLY_METHODS = (
    "__init__", "lift", "__add__", "__radd__", "__neg__", "__sub__",
    "__mul__", "__rmul__", "__pow__", "__eq__",
)
CALLS, YIELDS, SIZE = 0, 1, 2  # fields of a per-function count record
SPAN_KEYS = frozenset({"cli.main", "identities.verify"})
# Results whose size is a layer's unit of work.
RESULT_SIZES = {
    "shuffles.enumerate_b_shuffles": len,
    "identities.verify": lambda report: report.elements_scanned,
}


class LayerTracer:
    def __init__(self, outside_ns: float = 0.0) -> None:
        self.outside_ns = outside_ns
        self._counts: dict[str, list[int]] = {}   # key -> [CALLS, YIELDS, SIZE]
        self._self_ns: dict[str, list[float]] = {}  # layer -> [self time]
        self._wrapper_ns = [0.0]  # outside_ns times the traced calls made from traced frames
        self.spans: list[dict] = []
        self._stack: list[list[int]] = []  # frame: [ns in traced callees, traced calls made]
        self._open_spans: list[int] = []
        self._iter_types: dict[type, bool] = {}
        self._patches: list[tuple[object, str, object]] = []
        self._registry: dict | None = None

    # -- wrappers ------------------------------------------------------------

    def wrap(self, layer: str, key: str, fn):
        counts = self._counts.setdefault(key, [0, 0, 0])
        busy = self._self_ns.setdefault(layer, [0])
        stack, iter_types = self._stack, self._iter_types
        wrappers, outside = self._wrapper_ns, self.outside_ns
        clock = time.perf_counter_ns
        size_of = RESULT_SIZES.get(key)
        always_span = key in SPAN_KEYS

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            counts[CALLS] += 1
            span = self._open_span(key) if always_span or not stack else None
            frame = [0, 0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                charge = frame[1] * outside
                busy[0] += elapsed - frame[0] - charge
                wrappers[0] += charge
                if stack:
                    parent = stack[-1]
                    parent[0] += elapsed
                    parent[1] += 1
                if span is not None:
                    self._close_span(span, start, elapsed)
            if size_of is not None:
                counts[SIZE] += size_of(result)
            kind = result.__class__
            is_iter = iter_types.get(kind)
            if is_iter is None:
                is_iter = iter_types[kind] = isinstance(result, collections.abc.Iterator)
            return self._iterate(counts, busy, result) if is_iter else result

        return traced

    def _iterate(self, counts: list[int], busy: list[int], it):
        stack, wrappers, outside = self._stack, self._wrapper_ns, self.outside_ns
        clock = time.perf_counter_ns
        try:
            while True:
                frame = [0, 0]
                stack.append(frame)
                start = clock()
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    elapsed = clock() - start
                    stack.pop()
                    charge = frame[1] * outside
                    busy[0] += elapsed - frame[0] - charge
                    wrappers[0] += charge
                    if stack:
                        parent = stack[-1]
                        parent[0] += elapsed
                        parent[1] += 1
                counts[YIELDS] += 1
                yield item
        finally:
            close = getattr(it, "close", None)
            if close is not None:
                close()

    def _open_span(self, key: str) -> int:
        sid = len(self.spans)
        parent = self._open_spans[-1] if self._open_spans else None
        self.spans.append({"id": sid, "parent": parent, "name": key})
        self._open_spans.append(sid)
        return sid

    def _close_span(self, sid: int, start_ns: int, elapsed_ns: int) -> None:
        self._open_spans.pop()
        self.spans[sid]["start_ns"] = start_ns
        self.spans[sid]["duration_ns"] = elapsed_ns

    # -- install / uninstall -------------------------------------------------

    def install(self) -> "LayerTracer":
        modules = {layer: importlib.import_module(f"permstat.{layer}") for layer in LAYERS}
        wrappers: dict[int, tuple[object, object]] = {}
        for layer, mod in modules.items():
            for name, obj in vars(mod).items():
                if (not name.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == mod.__name__):
                    wrappers[id(obj)] = (obj, self.wrap(layer, f"{layer}.{name}", obj))
        for modname, mod in list(sys.modules.items()):
            if modname != "permstat" and not modname.startswith("permstat."):
                continue
            for name, obj in list(vars(mod).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patch(mod, name, hit[1])

        poly_cls = modules["qpoly"].MultiPoly
        for name in MULTIPOLY_METHODS:
            self._patch(poly_cls, name, self.wrap("qpoly", f"qpoly.MultiPoly.{name}",
                                                  poly_cls.__dict__[name]))

        registry = modules["identities"].REGISTRY
        self._registry = dict(registry)
        for name, entry in self._registry.items():
            check = self.wrap("identities", f"identities.check:{name}", entry.check)
            registry[name] = dataclasses.replace(entry, check=check)
        return self

    def _patch(self, owner, name: str, value) -> None:
        self._patches.append((owner, name, vars(owner)[name]))
        setattr(owner, name, value)

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches.clear()
        if self._registry is not None:
            registry = importlib.import_module("permstat.identities").REGISTRY
            registry.clear()
            registry.update(self._registry)
            self._registry = None

    def __enter__(self) -> "LayerTracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- results -------------------------------------------------------------

    def calls(self, key: str) -> int:
        return self._counts.get(key, [0, 0, 0])[CALLS]

    def yields(self, key: str) -> int:
        return self._counts.get(key, [0, 0, 0])[YIELDS]

    def size(self, key: str) -> int:
        return self._counts.get(key, [0, 0, 0])[SIZE]

    def total(self, prefix: str, what: int = CALLS) -> int:
        """CALLS, YIELDS or SIZE summed over the keys that start with prefix."""
        return sum(c[what] for k, c in self._counts.items() if k.startswith(prefix))

    def self_s(self, layer: str) -> float:
        return self._self_ns.get(layer, [0])[0] / 1e9

    def wrapper_s(self) -> float:
        """Wrapper cost outside the clock windows, taken out of the callers' self times."""
        return self._wrapper_ns[0] / 1e9

    def most_called(self, top: int) -> list[tuple[str, int]]:
        return sorted(((k, c[CALLS]) for k, c in self._counts.items()),
                      key=lambda kc: -kc[1])[:top]



def calibrate(rounds: int = 50_000) -> tuple[float, float]:
    """(extra ns one traced call costs over a direct call, ns of it outside the clock window).

    The part outside the window is spent while the caller's clock runs; the
    tracer takes it out of the caller's self time.  Each figure is the best
    of three rounds.
    """
    def noop(x):
        return x

    # A call at the top of the stack also opens a span; calibrate the common
    # nested case by keeping one frame open.
    tracer = LayerTracer()
    traced = tracer.wrap("calibration", "calibration.noop", noop)
    inside = tracer._self_ns["calibration"]
    tracer._stack.append([0, 0])
    clock = time.perf_counter_ns
    extra = outside = float("inf")
    for _ in range(3):
        start = clock()
        for i in range(rounds):
            pass
        loop = clock() - start
        start = clock()
        for i in range(rounds):
            noop(i)
        direct = clock() - start
        before = inside[0]
        start = clock()
        for i in range(rounds):
            traced(i)
        wrapped = clock() - start
        extra = min(extra, (wrapped - direct) / rounds)
        outside = min(outside, (wrapped - (inside[0] - before) - loop) / rounds)
    return extra, outside
