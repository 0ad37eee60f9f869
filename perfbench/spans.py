"""Outside-in tracer: spans around every public function of the ucf layers.

The tracer patches the public module-level functions of each layer module
(and `Family.__init__`, the per-leaf family build) in every ``ucf``
namespace that holds them, so calls between modules and calls inside a
module are both seen. Nothing under ``src/`` is edited; ``uninstall``
puts every original object back.

Spans are aggregated as they close, not stored: per function it keeps the
call count, the total time and the self time (duration minus the time
covered by child spans). Per pass that keeps memory flat even with the
millions of spans of an n = 5 enumeration. The time outside every span
is the harness's own, so the self times of all layers plus
``harness_self_s`` equal the traced wall time exactly.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time

LAYERS = ("core", "chains", "bfamily", "bounds", "constructions", "enumeration", "cli")


class Tracer:
    def __init__(self) -> None:
        # key "layer.function" -> [calls, total_s, self_s]
        self.stats: dict[str, list] = {}
        # Child-time accumulators; index 0 collects the top-level spans.
        self._stack: list[float] = [0.0]
        self._patches: list[tuple[object, str, object]] = []

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        """Wrap every public function of the seven layer modules."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = {name: importlib.import_module(f"ucf.{name}") for name in LAYERS}
        wrappers: dict[int, object] = {}
        for layer, mod in modules.items():
            for name, obj in vars(mod).items():
                if (
                    not name.startswith("_")
                    and inspect.isfunction(obj)
                    and obj.__module__ == mod.__name__
                ):
                    wrappers[id(obj)] = self._wrap(f"{layer}.{name}", obj)
        namespaces = [m for n, m in sys.modules.items() if n == "ucf" or n.startswith("ucf.")]
        for ns in namespaces:
            for name, obj in list(vars(ns).items()):
                wrapper = wrappers.get(id(obj))
                if wrapper is not None:
                    self._patches.append((ns, name, obj))
                    setattr(ns, name, wrapper)
        family = modules["core"].Family
        init = family.__init__
        self._patches.append((family, "__init__", init))
        family.__init__ = self._wrap("core.Family", init)

    def uninstall(self) -> None:
        for target, name, original in reversed(self._patches):
            setattr(target, name, original)
        self._patches.clear()

    def _wrap(self, key: str, fn):
        stats = self.stats.setdefault(key, [0, 0.0, 0.0])
        stack = self._stack
        clock = time.perf_counter

        def span(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = clock() - start
                child = stack.pop()
                stack[-1] += duration
                stats[0] += 1
                stats[1] += duration
                stats[2] += duration - child

        return functools.update_wrapper(span, fn)

    # -- readout ------------------------------------------------------------

    def reset(self) -> None:
        for entry in self.stats.values():
            entry[:] = [0, 0.0, 0.0]
        self._stack[:] = [0.0]

    def top_level_s(self) -> float:
        """Time covered by spans that have no parent span."""
        return self._stack[0]

    def layer_totals(self) -> dict[str, tuple[int, float]]:
        """layer -> (calls, self_s), over every traced function of the layer."""
        out = {layer: [0, 0.0] for layer in LAYERS}
        for key, (calls, _total, self_s) in self.stats.items():
            acc = out[key.split(".", 1)[0]]
            acc[0] += calls
            acc[1] += self_s
        return {layer: (calls, self_s) for layer, (calls, self_s) in out.items()}
