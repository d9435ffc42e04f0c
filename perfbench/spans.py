"""Span tracer that wraps wno's layers from outside the program.

``Tracer.install`` replaces the public functions of every wno module, a few
methods (``SuperPoly.__mul__``, ``SuperPoly.canonical``,
``NonlocalVarTable.register``) and ``sympy.cancel`` with wrappers that
record one span per call: name, start, end, parent span and op.  A function
is patched under every name it is looked up by, e.g. ``wno.schouten`` holds
its own reference to ``el_nonlocal`` and ``wno.cli`` one to
``is_hamiltonian``.  ``Tracer.uninstall`` puts the originals back.

Spans stay in memory, in flat arrays, until ``write`` puts them in a file.
A span's self time is its duration minus the durations of its direct
children; calls run on one thread, so children never overlap and the self
times of one op add up to the op's root span.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import sys
import time
from array import array
from collections import defaultdict

LAYERS = ("cli", "dsl", "schouten", "nonlocal_vars", "jetcalc", "algebra", "geometry")

# Helpers called per factor or per word; a span each would cost more than
# the work they do and bury the layers' own time under tracing overhead.
SKIP = {
    "algebra.p",
    "algebra.nl",
    "algebra.normalize_word",
    "algebra.as_coeff",
    "algebra.render_factor",
}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.op = array("i")
        self.current_op = -1
        self._stack: list[int] = []
        self.sizes: dict[str, int] = defaultdict(int)
        self._restore: list[tuple[object, str, object]] = []

    # -- recording ------------------------------------------------------------

    def wrap(self, name: str, fn, after=None):
        """``fn`` with a span around each call; ``after(args, result)`` counts sizes."""
        nid = self._name_ids.setdefault(name, len(self.names))
        if nid == len(self.names):
            self.names.append(name)
        names, starts, ends, parents, ops = self.name, self.start, self.end, self.parent, self.op
        stack = self._stack
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(names)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            ops.append(tracer.current_op)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                starts[idx] = t0
                stack.pop()
            if after is not None:
                after(args, result)
            return result

        return traced

    def run_op(self, op_index: int, fn, *args):
        """Call ``fn`` under a root span named ``op``."""
        self.current_op = op_index
        try:
            return self.wrap("op", fn)(*args)
        finally:
            self.current_op = -1

    # -- patching -------------------------------------------------------------

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def install(self) -> None:
        import sympy

        from wno.algebra import SuperPoly
        from wno.nonlocal_vars import NonlocalVarTable

        modules = [sys.modules[f"wno.{layer}"] for layer in LAYERS]
        after = {
            "schouten.schouten_bracket": self._count_three_vector,
            "nonlocal_vars.el_nonlocal": self._count_el,
            "nonlocal_vars.integrate_density": self._count_integration,
        }
        wrappers: dict[int, object] = {}
        for layer, module in zip(LAYERS, modules):
            for fname, fn in inspect.getmembers(module, inspect.isfunction):
                name = f"{layer}.{fname}"
                if fn.__module__ != module.__name__ or fname.startswith("_") or name in SKIP:
                    continue
                wrappers[id(fn)] = self.wrap(name, fn, after.get(name))
        # patch every module-level name bound to a wrapped function, so names
        # imported into other modules are traced too
        for module in [sys.modules["wno"], *modules]:
            for attr, value in list(vars(module).items()):
                if id(value) in wrappers:
                    self._patch(module, attr, wrappers[id(value)])
        self._patch(SuperPoly, "__mul__", self.wrap("algebra.mul", SuperPoly.__mul__))
        self._patch(SuperPoly, "canonical", self.wrap("algebra.canonical", SuperPoly.canonical))
        self._patch(NonlocalVarTable, "register", self._wrap_register(NonlocalVarTable.register))
        self._patch(sympy, "cancel", self.wrap("sympy.cancel", sympy.cancel))

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    # -- size counters ------------------------------------------------------

    def _count_three_vector(self, args, outcome) -> None:
        self.sizes["schouten.three_vector.terms"] += len(outcome.three_vector.terms)

    def _count_el(self, args, comp) -> None:
        self.sizes["algebra.el_terms"] += sum(len(x.terms) for x in (*comp.el.du, *comp.el.dp))

    def _count_integration(self, args, result) -> None:
        self.sizes["nonlocal_vars.integrate_density.ok"] += int(result.ok)

    def _wrap_register(self, register):
        """Span around ``NonlocalVarTable.register`` that also counts new formal variables."""
        sizes = self.sizes

        def counted(table, density, **kwargs):
            before = len(table.entries)
            ident = register(table, density, **kwargs)
            if len(table.entries) > before and table.entries[ident].formal:
                sizes["nonlocal_vars.formal_vars"] += 1
            return ident

        return self.wrap("nonlocal_vars.register", counted)

    # -- analysis -------------------------------------------------------------

    def self_times(self) -> list[float]:
        out = [e - s for s, e in zip(self.start, self.end)]
        for idx, parent in enumerate(self.parent):
            if parent >= 0:
                out[parent] -= self.end[idx] - self.start[idx]
        return out

    def summary(self) -> dict[str, dict[str, float]]:
        """Calls and total self seconds per span name."""
        out = {name: {"calls": 0, "self_s": 0.0} for name in self.names}
        for nid, own in zip(self.name, self.self_times()):
            row = out[self.names[nid]]
            row["calls"] += 1
            row["self_s"] += own
        return out

    def op_balance(self) -> dict[int, tuple[float, float]]:
        """Per op: (sum of self times of its spans, duration of its root span)."""
        own_sum: dict[int, float] = defaultdict(float)
        wall: dict[int, float] = {}
        for idx, own in enumerate(self.self_times()):
            op = self.op[idx]
            own_sum[op] += own
            if self.parent[idx] < 0:
                wall[op] = self.end[idx] - self.start[idx]
        return {op: (own_sum[op], wall.get(op, 0.0)) for op in own_sum}

    def write(self, path) -> None:
        """All spans as gzipped TSV: id, name, start, end, parent, op."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("id\tname\tstart\tend\tparent\top\n")
            for idx in range(len(self.name)):
                fh.write(
                    f"{idx}\t{self.names[self.name[idx]]}\t{self.start[idx]:.9f}\t"
                    f"{self.end[idx]:.9f}\t{self.parent[idx]}\t{self.op[idx]}\n"
                )
