"""Per-layer spans recorded from outside the package.

LayerTrace wraps every public function of the splatlab layer modules at every
name it is bound under in the package: module attributes such as
``splatlab.splat_forward``, ``splatlab.infotheory.splat_forward`` and
``splatlab.nnprims.knn``, and values of module-level dicts such as
``gradcheck.SUITES``. Nothing under ``src/`` changes; the wrappers exist only
in the benchmark process and only while ``active()`` is entered, so untraced
ops run the original functions.

A span's self time is its duration minus the durations of the spans it
called. A handful of private cross-layer helpers get count-only wrappers
(no span), so a caller's self time still includes them but their calls can be
counted per ancestor span and tallied by input size.
"""

from __future__ import annotations

import contextlib
import importlib
import inspect
import sys
from collections import Counter
from time import perf_counter

LAYERS = ("geometry", "splatting", "infotheory", "losses", "nnprims", "gradcheck", "fileio", "cli")


def _rows(x) -> int:
    return len(getattr(x, "points", x))


# qualified name -> function(args, kwargs) -> (tally name, amount), computed
# from the call's inputs only. Private names listed here get count-only wrappers.
TALLIES = {
    "splatting.splat_forward": lambda a, kw: ("splatting.forward_points", _rows(a[0])),
    "splatting._scatter_min_depth": None,
    "nnprims.cross_attention": lambda a, kw: (
        "nnprims.attention_score_bytes", 8 * _rows(a[0]) * _rows(a[1])),
    "losses._nn_sq": lambda a, kw: ("losses.pair_distances", _rows(a[0]) * _rows(a[1])),
}


class LayerTrace:
    """Span and count recorder around the package's layer functions."""

    def __init__(self, package: str = "splatlab"):
        self.missing: list[str] = []
        self.spans: list[str] = []
        wrappers: dict[int, tuple[object, object]] = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"{package}.{layer}")
            for name, obj in vars(mod).items():
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__ and not name.startswith("_"):
                    self.spans.append(f"{layer}.{name}")
                    wrappers[id(obj)] = (obj, self._span(f"{layer}.{name}", obj))
        for qual in TALLIES:
            layer, name = qual.split(".")
            if not name.startswith("_"):
                continue
            obj = getattr(importlib.import_module(f"{package}.{layer}"), name, None)
            if obj is None:
                self.missing.append(qual)
            else:
                wrappers[id(obj)] = (obj, self._counter(qual, obj))
        self._patches = []
        for modname, mod in list(sys.modules.items()):
            if modname != package and not modname.startswith(package + "."):
                continue
            for key, val in list(vars(mod).items()):
                hit = wrappers.get(id(val))
                if hit is not None and hit[0] is val:
                    self._patches.append((vars(mod), key, val, hit[1]))
                elif isinstance(val, dict) and not key.startswith("__"):
                    for k, v in val.items():
                        hit = wrappers.get(id(v))
                        if hit is not None and hit[0] is v:
                            self._patches.append((val, k, v, hit[1]))
        self.calls: Counter = Counter()
        self.total_s: Counter = Counter()
        self.self_s: Counter = Counter()
        self.nested: Counter = Counter()   # (ancestor span, callee) -> calls
        self.tally: Counter = Counter()
        self.covered_s = 0.0
        self._stack: list[list] = []       # [name, child seconds]

    @contextlib.contextmanager
    def active(self):
        for ns, key, _, new in self._patches:
            ns[key] = new
        try:
            yield self
        finally:
            for ns, key, old, _ in self._patches:
                ns[key] = old

    def _enter(self, qual, args, kwargs) -> None:
        self.calls[qual] += 1
        for ancestor in {frame[0] for frame in self._stack}:
            self.nested[ancestor, qual] += 1
        rule = TALLIES.get(qual)
        if rule is not None:
            name, amount = rule(args, kwargs)
            self.tally[name] += amount

    def _span(self, qual, fn):
        def traced(*args, **kwargs):
            self._enter(qual, args, kwargs)
            frame = [qual, 0.0]
            self._stack.append(frame)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                self._stack.pop()
                self.total_s[qual] += dt
                self.self_s[qual] += dt - frame[1]
                if self._stack:
                    self._stack[-1][1] += dt
                else:
                    self.covered_s += dt

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        return traced

    def _counter(self, qual, fn):
        def counted(*args, **kwargs):
            self._enter(qual, args, kwargs)
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        counted.__name__ = fn.__name__
        return counted

    def exact_counts(self) -> dict[str, int]:
        """Counts fixed by the op's input sizes, accumulated over traced ops."""
        probe = "nnprims.grad_flow_probe"
        return {
            f"{probe}.forward_calls": self.nested[probe, "splatting.splat_forward"]
            + self.nested[probe, "splatting._scatter_min_depth"],
            "nnprims.attention_score_bytes": self.tally["nnprims.attention_score_bytes"],
            "losses.pair_distances": self.tally["losses.pair_distances"],
        }

    def layer_self_s(self) -> dict[str, float]:
        out = {layer: 0.0 for layer in LAYERS}
        for qual, secs in self.self_s.items():
            out[qual.split(".")[0]] += secs
        return out
