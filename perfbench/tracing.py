"""Span tracing of ``dictlp`` from outside the package.

``Tracer.install`` replaces each public function of the layer modules with a
wrapper at every name a caller looks it up by (``dictlp.simplex.pivot``,
``dictlp.duality.rank``, ``dictlp._kernels.pivot_update``, ...), so nested
calls nest as spans. Each span records its name, start, end, parent and the
benchmark operation it belongs to. Spans stay in memory in flat arrays until
the run ends.

Two kinds of public function are left unwrapped. The scalar helpers of
``exact`` run once per matrix entry, so a span each would cost more than the
work it measures. In ``cli`` only ``main`` is wrapped, so that its self time
is the layer's own formatting and I/O.
"""

from __future__ import annotations

import inspect
import sys
from array import array
from collections import defaultdict
from math import comb
from time import perf_counter_ns

LAYERS = ("model", "exact", "_kernels", "dictionary", "simplex", "duality", "cli")
UNWRAPPED = {"exact": {"rational", "parse_rational", "format_rational"}}
ONLY = {"cli": {"main"}, "_kernels": {"rref", "pivot_update"}}


class Tracer:
    """In-memory span recorder plus the exact counters of the traced pass."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.start = array("q")
        self.end = array("q")
        self.parent = array("l")
        self.name = array("l")
        self.op = array("l")
        self.stack: list[int] = []
        self.op_id = -1
        self.counts: dict[str, int] = defaultdict(int)
        self.solve_traces: list = []
        self._patched: list[tuple[object, str, object]] = []

    def _span(self, name: str, fn, after=None):
        nid = len(self.names)
        self.names.append(name)

        def wrapper(*args, **kwargs):
            idx = len(self.start)
            self.parent.append(self.stack[-1] if self.stack else -1)
            self.name.append(nid)
            self.op.append(self.op_id)
            self.end.append(0)
            self.stack.append(idx)
            self.start.append(perf_counter_ns())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[idx] = perf_counter_ns()
                self.stack.pop()
            if after is not None:
                after(args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _after(self, name: str):
        """Counter hooks run after a span closes; each is O(1)."""
        if name == "kernels.pivot_update":
            return lambda args, result: self._add("kernels.pivot_update.cells", len(args[1]) * len(args[2]))
        if name == "kernels.rref":
            return lambda args, result: self._add("kernels.rref.cells", len(args[0]) * len(args[0][0]))
        if name == "duality.enumerate_bases":

            def bases(args, result):
                lp = args[0]
                self._add("duality.subsets", comb(lp.m + lp.n, lp.m))
                self._add("duality.bases", len(result))

            return bases
        if name == "simplex.solve":
            return lambda args, result: self.solve_traces.append(result[1])
        return None

    def _add(self, key: str, amount: int) -> None:
        self.counts[key] += amount

    def install(self) -> None:
        """Wrap every traced function at every dictlp name bound to it."""
        wrappers: dict[int, tuple] = {}
        for module_name in LAYERS:
            module = sys.modules[f"dictlp.{module_name}"]
            only = ONLY.get(module_name)
            skip = UNWRAPPED.get(module_name, set())
            for attr, value in vars(module).items():
                if attr.startswith("_") or attr in skip or not callable(value) or inspect.isclass(value):
                    continue
                if only is not None:
                    if attr not in only:
                        continue
                elif getattr(value, "__module__", None) != module.__name__:
                    continue
                # Metric names may not start with '_': _kernels reports as kernels.
                name = f"{module_name.lstrip('_')}.{attr}"
                wrappers[id(value)] = (value, self._span(name, value, self._after(name)))
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "dictlp" and not mod_name.startswith("dictlp."):
                continue
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patched.append((module, attr, value))
                    setattr(module, attr, hit[1])

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._patched):
            setattr(module, attr, value)
        self._patched.clear()

    def layer_times(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total seconds and self seconds."""
        child = [0] * len(self.start)
        for i in range(len(self.start)):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        out: dict[str, dict[str, float]] = {n: {"calls": 0, "s": 0.0, "self_s": 0.0} for n in self.names}
        for i in range(len(self.start)):
            entry = out[self.names[self.name[i]]]
            dur = self.end[i] - self.start[i]
            entry["calls"] += 1
            entry["s"] += dur / 1e9
            entry["self_s"] += (dur - child[i]) / 1e9
        return out

    def write(self, path, op_ids: list[str]) -> None:
        """Write every span as a tab-separated line: index, op, name, start_ns, end_ns, parent."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("index\top\tname\tstart_ns\tend_ns\tparent\n")
            for i in range(len(self.start)):
                op = op_ids[self.op[i]] if self.op[i] >= 0 else "-"
                fields = (i, op, self.names[self.name[i]], self.start[i], self.end[i], self.parent[i])
                fh.write("\t".join(map(str, fields)) + "\n")
