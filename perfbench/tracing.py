"""In-memory span tracing of the spatent modules, from outside the package.

``Tracer.install`` replaces every public function of the traced modules by a
wrapper that records one span per call, and does so at every module
attribute that holds the function.  Names imported with ``from .x import y``
(``decomp.enumerate_pairs``, ``cli.shannon``, the package root re-exports)
are rebound as well, so calls are traced whichever binding they go through.
``uninstall`` restores the original bindings.  No source file is touched.

A span is ``[name, parent, op, start_ns, end_ns]``: ``name`` is
``module.function``, ``parent`` the index of the enclosing span (or -1), and
``op`` the benchmark operation that caused it.  Spans stay in memory until
the benchmark writes them out at the end of a run.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time

PACKAGE = "spatent"
LAYERS = ("simgen", "cooccur", "prob", "decomp", "classic", "lattice", "cli")


class Tracer:
    def __init__(self) -> None:
        self.spans: list = []
        self.pairs_tallied = 0
        self.op = -1
        self._stack: list = []
        self._saved: list = []
        self._wrappers: dict = {}

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter_ns
        tally = name == "cooccur.enumerate_pairs"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, stack[-1] if stack else -1, self.op, clock(), 0]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[4] = clock()
                stack.pop()
            if tally:
                self.pairs_tallied += result.total_pairs
            return result

        return wrapper

    def install(self) -> None:
        """Rebind every public function of LAYERS wherever the package holds it."""
        if self._saved:
            raise RuntimeError("tracer already installed")
        originals = {}
        for layer in LAYERS:
            mod = sys.modules[f"{PACKAGE}.{layer}"]
            for attr, obj in vars(mod).items():
                if (
                    not attr.startswith("_")
                    and inspect.isfunction(obj)
                    and obj.__module__ == mod.__name__
                ):
                    originals[id(obj)] = (obj, f"{layer}.{attr}")
        modules = [
            m
            for key, m in list(sys.modules.items())
            if m is not None and (key == PACKAGE or key.startswith(PACKAGE + "."))
        ]
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                entry = originals.get(id(obj))
                if entry is None or entry[0] is not obj:
                    continue
                wrapper = self._wrappers.get(id(obj))
                if wrapper is None:
                    wrapper = self._wrappers[id(obj)] = self._wrap(entry[1], obj)
                self._saved.append((mod, attr, obj))
                setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, obj in reversed(self._saved):
            setattr(mod, attr, obj)
        self._saved.clear()


def self_times(spans) -> list:
    """Per span: duration minus the union of its children's intervals (ns)."""
    children: dict = {}
    for i, (_, parent, _, start, end) in enumerate(spans):
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    out = []
    for i, (_, _, _, start, end) in enumerate(spans):
        covered = 0
        lo = hi = None
        for cs, ce in sorted(children.get(i, ())):
            cs, ce = max(cs, start), min(ce, end)
            if ce <= cs:
                continue
            if hi is None or cs > hi:
                if hi is not None:
                    covered += hi - lo
                lo, hi = cs, ce
            else:
                hi = max(hi, ce)
        if hi is not None:
            covered += hi - lo
        out.append(end - start - covered)
    return out


def outermost(spans, names) -> list:
    """Indices of spans named in ``names`` with no ancestor named in ``names``."""
    names = frozenset(names)
    out = []
    for i, span in enumerate(spans):
        if span[0] not in names:
            continue
        parent = span[1]
        while parent >= 0 and spans[parent][0] not in names:
            parent = spans[parent][1]
        if parent < 0:
            out.append(i)
    return out
