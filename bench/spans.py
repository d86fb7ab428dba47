"""Spans around calls into structrec's public functions, recorded from the
benchmark's side.

A traced round rebinds each named public function, in every ``structrec``
module that holds it, to a wrapper that records a span: name, start, end,
parent span and item id.  Nothing under ``src/`` changes; the original
bindings come back when the round ends.  Spans stay in memory in flat arrays
and are written out once, when the run ends.
"""

from __future__ import annotations

import importlib
import sys
from array import array
from time import perf_counter


class Spans:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.item = array("i")
        self.units = array("i")
        self.item_id = -1  # set by the workload loop before each item
        self.clock = perf_counter  # seconds; may leave out time the benchmark spends on itself
        self._stack: list[int] = []
        self._saved: list[tuple[dict, str, object]] = []

    def wrap(self, name: str, fn, units=None, result_hook=None):
        """fn with a span around each call; units(args, result) gives the
        number of items the call handled, result_hook may rewrap the result."""
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        name_id = self._name_ids[name]
        stack = self._stack

        def traced(*args, **kwargs):
            idx = len(self.start)
            self.name.append(name_id)
            self.parent.append(stack[-1] if stack else -1)
            self.item.append(self.item_id)
            self.units.append(1)
            self.start.append(0.0)
            self.end.append(0.0)
            stack.append(idx)
            t0 = self.clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = self.clock()
                stack.pop()
                self.start[idx] = t0
                self.end[idx] = t1
            if units is not None:
                self.units[idx] = units(args, result)
            if result_hook is not None:
                result = result_hook(result)
            return result

        return traced

    def install(self, targets) -> None:
        """targets: (module, attribute, span name, units, result_hook) rows.
        Every structrec module that binds the same function object gets the
        wrapper, so calls made inside the program are seen too."""
        for module_name, *_ in targets:
            importlib.import_module(module_name)
        modules = [m for n, m in sys.modules.items()
                   if m is not None and (n == "structrec" or n.startswith("structrec."))]
        for module_name, attr, name, units, hook in targets:
            original = getattr(sys.modules[module_name], attr)
            wrapper = self.wrap(name, original, units, hook)
            for module in modules:
                namespace = vars(module)
                for key, value in list(namespace.items()):
                    if value is original:
                        self._saved.append((namespace, key, original))
                        namespace[key] = wrapper

    def uninstall(self) -> None:
        for namespace, key, original in reversed(self._saved):
            namespace[key] = original
        self._saved.clear()

    def __len__(self) -> int:
        return len(self.start)

    def summary(self, keep=None) -> dict:
        """Per span name: calls, units, total time and self time (total minus
        the time covered by direct child spans), in seconds.  keep(item_id)
        selects the items that count."""
        child_time = [0.0] * len(self.start)
        for i, parent in enumerate(self.parent):
            if parent >= 0:
                child_time[parent] += self.end[i] - self.start[i]
        out: dict[str, dict] = {}
        for i, name_id in enumerate(self.name):
            if keep is not None and not keep(self.item[i]):
                continue
            row = out.setdefault(self.names[name_id],
                                 {"calls": 0, "units": 0, "total": 0.0, "self": 0.0})
            duration = self.end[i] - self.start[i]
            row["calls"] += 1
            row["units"] += self.units[i]
            row["total"] += duration
            row["self"] += duration - child_time[i]
        return out

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("name\tstart\tend\tparent\titem\tunits\n")
            for i in range(len(self.start)):
                handle.write(f"{self.names[self.name[i]]}\t{self.start[i]:.9f}\t"
                             f"{self.end[i]:.9f}\t{self.parent[i]}\t{self.item[i]}\t"
                             f"{self.units[i]}\n")
