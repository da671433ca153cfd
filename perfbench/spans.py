"""Span recorder for the traced run, installed from outside the package.

Every public function of a hexparity module is wrapped in each namespace
that holds it (its own module, every module that imported it, and the
package namespace), and so is every public method of the package's classes
along with their `+`, `-`, `*` and unary minus.
A wrapper records one span: name, start, end and the enclosing span.  The
wrappers are removed again by `Tracer.remove`, so nothing under `src/`
changes and an untraced pass afterwards runs the original code.

Layers are the package's modules.  `series` is split in two: `ParitySeries`
methods are the GF(2) path (`series.gf2`), everything else in the module
works on Python ints (`series.bigint`).  Generator functions are left
unwrapped, because a span around them would close before their body runs;
their iteration is charged to the caller.

After each `series.bigint` call the recorder measures the largest
coefficient bit length of its result (or of the list an in-place kernel
mutated).  That scan runs inside a span of its own layer, `trace`, so it is
excluded from every program layer's self time and shows up only in the
tracing overhead.  Each report the `report` layer builds is counted, with
its points (order + 1, or bound + 1 for set equivalences).
"""

from __future__ import annotations

import inspect
import sys
from array import array
from time import perf_counter_ns

PACKAGE = "hexparity"
ARITHMETIC_DUNDERS = ("__add__", "__sub__", "__mul__", "__neg__")
SCAN = "trace.bits_scan"


def _layer_of(module_name: str, owner: type | None) -> str:
    layer = module_name.rsplit(".", 1)[-1]
    if layer == "series":
        return "series.gf2" if owner is not None and owner.__name__ == "ParitySeries" \
            else "series.bigint"
    return layer


def _bits_of(value) -> int:
    coeffs = getattr(value, "coeffs", value)
    if not isinstance(coeffs, (list, tuple)) or not coeffs:
        return 0
    if not isinstance(coeffs[0], int):
        return 0
    return max(max(coeffs).bit_length(), min(coeffs).bit_length())


class Tracer:
    """Spans in flat arrays (span i: name id, parent index, start, end)."""

    def __init__(self) -> None:
        self.names: list[str] = []        # span name id -> "layer:qualname"
        self.name_layer: list[str] = []   # span name id -> layer
        self.name_ids: dict[str, int] = {}
        self._patches: list[tuple[object, str, object]] = []
        self.reset()

    # -- recording ---------------------------------------------------------

    def reset(self) -> None:
        self.span_name = array("l")
        self.span_parent = array("l")
        self.span_start = array("q")
        self.span_end = array("q")
        self._stack: list[int] = []
        self.coeff_bits_max = 0
        self.reports = 0
        self.points = 0

    def _name_id(self, layer: str, qualname: str) -> int:
        key = f"{layer}:{qualname}"
        if key not in self.name_ids:
            self.name_ids[key] = len(self.names)
            self.names.append(key)
            self.name_layer.append(layer)
        return self.name_ids[key]

    def _open(self, name_id: int) -> int:
        idx = len(self.span_start)
        self.span_name.append(name_id)
        self.span_parent.append(self._stack[-1] if self._stack else -1)
        self.span_start.append(0)
        self.span_end.append(0)
        self._stack.append(idx)
        self.span_start[idx] = perf_counter_ns()
        return idx

    def _close(self, idx: int) -> None:
        self.span_end[idx] = perf_counter_ns()
        self._stack.pop()

    def _scan_bits(self, value) -> None:
        idx = self._open(self._scan_id)
        try:
            bits = _bits_of(value)
            if bits > self.coeff_bits_max:
                self.coeff_bits_max = bits
        finally:
            self._close(idx)

    def _wrap(self, fn, layer: str):
        name_id = self._name_id(layer, fn.__qualname__)
        bigint = layer == "series.bigint"
        builds_reports = layer == "report"
        report_cls = self._report_cls
        tracer = self

        def span(*args, **kwargs):
            idx = tracer._open(name_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            if bigint:
                tracer._scan_bits(result if result is not None else
                                  (args[0] if args else None))
            elif builds_reports and isinstance(result, report_cls):
                tracer.reports += 1
                p = result.params
                tracer.points += (p["order"] if "order" in p else p["bound"]) + 1
            return result

        span.__wrapped__ = fn
        span.__name__ = fn.__name__
        span.__qualname__ = fn.__qualname__
        span.__doc__ = fn.__doc__
        return span

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        """Wrap every public function and method of the package."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = {name: mod for name, mod in sys.modules.items()
                   if mod is not None and
                   (name == PACKAGE or name.startswith(PACKAGE + "."))}
        self._report_cls = modules[f"{PACKAGE}.report"].CheckReport
        self._scan_id = self._name_id("trace", SCAN)
        wrappers: dict[int, object] = {}   # id(original function) -> wrapper

        for mod_name, mod in modules.items():
            for attr, value in vars(mod).items():
                if attr.startswith("_") or getattr(value, "__module__", None) != mod_name:
                    continue
                if inspect.isclass(value):
                    self._wrap_class(value, mod_name)
                elif inspect.isfunction(value) and not inspect.isgeneratorfunction(value):
                    wrappers[id(value)] = self._wrap(value, _layer_of(mod_name, None))

        # every namespace that holds a wrapped function gets the wrapper
        for mod in modules.values():
            for attr, value in list(vars(mod).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None and inspect.isfunction(value):
                    self._patches.append((mod, attr, value))
                    setattr(mod, attr, wrapper)

    def _wrap_class(self, cls: type, mod_name: str) -> None:
        layer = _layer_of(mod_name, cls)
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_") and attr not in ARITHMETIC_DUNDERS:
                continue
            if isinstance(raw, staticmethod):
                fn = raw.__func__
                if inspect.isgeneratorfunction(fn):
                    continue
                replacement = staticmethod(self._wrap(fn, layer))
            elif inspect.isfunction(raw):
                if inspect.isgeneratorfunction(raw):
                    continue
                replacement = self._wrap(raw, layer)
            else:
                continue
            self._patches.append((cls, attr, raw))
            setattr(cls, attr, replacement)

    def remove(self) -> None:
        """Put every original function and method back."""
        while self._patches:
            target, attr, original = self._patches.pop()
            setattr(target, attr, original)

    # -- analysis ----------------------------------------------------------

    def layer_totals(self) -> dict[str, dict[str, float]]:
        """Self time and span count per layer (`layers`), and the time
        inside the outermost spans of each name (`by_name_ns`), in ns."""
        n = len(self.span_start)
        start, end, parent, name = (self.span_start, self.span_end,
                                    self.span_parent, self.span_name)
        child_ns = [0] * n
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child_ns[p] += end[i] - start[i]
        layers: dict[str, dict[str, float]] = {}
        by_name_ns: dict[str, int] = {}
        for i in range(n):
            nid = name[i]
            layer = self.name_layer[nid]
            dur = end[i] - start[i]
            row = layers.setdefault(layer, {"self_ns": 0, "calls": 0})
            row["self_ns"] += dur - child_ns[i]
            row["calls"] += 1
            # inclusive time per name, counting only the outermost span of
            # that name so recursion is not counted twice
            p = parent[i]
            nested = False
            while p >= 0:
                if name[p] == nid:
                    nested = True
                    break
                p = parent[p]
            if not nested:
                key = self.names[nid]
                by_name_ns[key] = by_name_ns.get(key, 0) + dur
        return {"layers": layers, "by_name_ns": by_name_ns}
