"""Spans around the program's public functions, recorded from outside the program.

``Tracer.install`` wraps every public function of the traced modules, and
``enable`` puts the wrapper at each module attribute of the package that holds
the function, which is where callers look it up: ``quintics.exactalg.kernel``
(used by ``intersect``), ``quintics.lsys.kernel``,
``quintics.cli.linear_system_dim`` and so on.  ``disable`` puts the originals
back.

Spans live in flat arrays (name, parent, check id, start, end) until the pass
ends.  Calls are synchronous and single-threaded, so spans nest strictly and
a span's child coverage is the sum of its direct children's durations; its
self time is its duration minus that.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import json
import sys
from array import array
from collections import Counter
from time import perf_counter

TRACED_MODULES = ("sampling", "projgeom", "exactalg", "lsys", "ledger", "twisted")


def _kernel_entries(args, kwargs) -> int:
    m = args[0] if args else kwargs["m"]
    return m.nrows * m.ncols


# Work counted at a span boundary from the call's arguments.
ENTRY_COUNTERS = {"exactalg.kernel": ("exactalg.kernel.entries", _kernel_entries)}


class Tracer:
    def __init__(self):
        self.names: list = []
        self.name_id = array("i")
        self.parent = array("i")
        self.check_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.check = -1
        self.counters: Counter = Counter()
        self._patches: list = []

    # -- installation ---------------------------------------------------

    def install(self) -> None:
        """Build the wrappers and find every attribute to patch; patches
        nothing yet."""
        wrappers = {}
        for short in TRACED_MODULES:
            mod = importlib.import_module(f"quintics.{short}")
            for attr, obj in vars(mod).items():
                if attr.startswith("_") or isinstance(obj, type) or not callable(obj):
                    continue
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                wrappers[id(obj)] = (obj, self._wrap(f"{short}.{attr}", obj))
        for modname, mod in list(sys.modules.items()):
            if modname != "quintics" and not modname.startswith("quintics."):
                continue
            for attr, obj in list(vars(mod).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patches.append((mod, attr, obj, hit[1]))

    def enable(self) -> None:
        for mod, attr, _, wrapper in self._patches:
            setattr(mod, attr, wrapper)

    def disable(self) -> None:
        for mod, attr, original, _ in self._patches:
            setattr(mod, attr, original)

    def _wrap(self, name: str, fn):
        nid = len(self.names)
        self.names.append(name)
        name_id, parent, check_id = self.name_id, self.parent, self.check_id
        start, end, stack = self.start, self.end, self.stack
        counted = ENTRY_COUNTERS.get(name)
        counters = self.counters
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if counted is not None:
                counters[counted[0]] += counted[1](args, kwargs)
            i = len(start)
            name_id.append(nid)
            parent.append(stack[-1])
            check_id.append(tracer.check)
            end.append(0.0)
            stack.append(i)
            start.append(perf_counter())
            try:
                return fn(*args, **kwargs)
            finally:
                end[i] = perf_counter()
                stack.pop()

        return traced

    # -- per-pass results -------------------------------------------------

    def clear(self) -> None:
        """Drop recorded spans and counts; the wrappers keep recording."""
        for arr in (self.name_id, self.parent, self.check_id, self.start, self.end):
            del arr[:]
        del self.stack[1:]
        self.counters.clear()

    def summarize(self) -> tuple:
        """(calls, self seconds, top-level seconds) of the recorded spans.

        Children are recorded after their parent, so one backward sweep has
        every child's duration added before its parent is read.
        """
        names, name_id, parent = self.names, self.name_id, self.parent
        start, end = self.start, self.end
        child = [0.0] * len(start)
        calls: Counter = Counter()
        self_s: Counter = Counter()
        top = 0.0
        for i in range(len(start) - 1, -1, -1):
            dur = end[i] - start[i]
            nm = names[name_id[i]]
            calls[nm] += 1
            self_s[nm] += dur - child[i]
            p = parent[i]
            if p >= 0:
                child[p] += dur
            else:
                top += dur
        return calls, self_s, top

    def write_spans(self, path, origin: float, header: dict) -> int:
        """Write the recorded spans as gzipped JSON lines after one header
        line; times are seconds from ``origin``."""
        names, name_id, parent, check_id = self.names, self.name_id, self.parent, self.check_id
        start, end = self.start, self.end
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write(json.dumps(header) + "\n")
            for i in range(len(start)):
                fh.write(f'{{"id":{i},"name":"{names[name_id[i]]}",'
                         f'"start":{start[i] - origin:.9f},"end":{end[i] - origin:.9f},'
                         f'"parent":{parent[i]},"check":{check_id[i]}}}\n')
        return len(start)
