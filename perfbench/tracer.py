"""Per-layer spans recorded from outside the program.

``install`` wraps every public function of every topolab layer module and
rebinds each module attribute that *is* one of those functions, so calls
through ``from .x import f`` bindings (as ``cli`` uses) are traced too.
Nothing under ``src/`` changes; the wrapping lives only in the traced
worker process.  Per-element helpers (``multiply``, ``invert``,
``commutator``, ``FiniteGroup.mul``, ``.table``) are left alone: their call
rate would swamp what they measure.

Spans nest on one stack.  A layer's self time is its span's duration minus
the part its child spans cover.  Spans stay in memory, aggregated per query
and per function, and the worker writes them out when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from collections import defaultdict

LAYERS = ("specparse", "groups", "subgroups", "classify", "semitop", "topology",
          "report", "permaction", "catalog", "cli")
PER_ELEMENT = {"groups.multiply", "groups.invert", "groups.commutator"}


class Tracer:
    """Span stack plus per-function self time, call counts and counters."""

    def __init__(self) -> None:
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, int] = defaultdict(int)
        self.top_s = 0.0  # time inside any outermost span
        self._stack: list[float] = []
        # per-query memory for "distinct" counters, cleared by end_query()
        self._seen: dict[str, dict] = defaultdict(dict)

    def wrap(self, name: str, fn, count=None):
        stack = self._stack
        self_s = self.self_s
        calls = self.calls
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack.append(0.0)
            t0 = clock()
            try:
                return_value = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                self_s[name] += dt - stack.pop()
                calls[name] += 1
                if stack:
                    stack[-1] += dt
                else:
                    self.top_s += dt
            if count is not None:
                # counter upkeep is benchmark time: keep it out of every span
                t1 = clock()
                count(self, args, return_value)
                if stack:
                    stack[-1] += clock() - t1
            return return_value

        return traced

    def count_distinct(self, counter: str, key, obj, amount: int) -> None:
        """Add ``amount`` to ``counter`` the first time ``key`` shows up in
        the current query.  ``obj`` is held until the query ends so that the
        ids inside ``key`` cannot be reused meanwhile."""
        seen = self._seen[counter]
        if key not in seen:
            seen[key] = obj
            self.counts[counter] += amount

    def end_query(self) -> None:
        self._seen.clear()


# Counters are taken from return values.
def _count_lattice(tracer: Tracer, args, normals) -> None:
    tracer.count_distinct("subgroups.lattice_size", id(normals), normals, len(normals))


def _count_commutator(tracer: Tracer, args, result) -> None:
    group, left, right = args[:3]
    tracer.count_distinct("subgroups.commutator_subgroup.distinct_args",
                          (id(group), left.elements, right.elements), (group, left, right), 1)


def _count_build(tracer: Tracer, args, group) -> None:
    tracer.counts["groups.build_group.elements"] += group.order


def _count_perm_elements(tracer: Tracer, args, elements) -> None:
    tracer.count_distinct("permaction.elements", id(elements), elements, len(elements))


COUNTERS = {
    "subgroups.all_normal_subgroups": _count_lattice,
    "subgroups.commutator_subgroup": _count_commutator,
    "groups.build_group": _count_build,
    "permaction.PermAction.elements": _count_perm_elements,
}


def install(tracer: Tracer) -> None:
    """Wrap the layers' public functions, and PermAction.elements, in place."""
    wrapped: dict[int, tuple[object, object]] = {}
    modules = [importlib.import_module("topolab")]
    for layer in LAYERS:
        module = importlib.import_module(f"topolab.{layer}")
        modules.append(module)
        for attr, obj in vars(module).items():
            name = f"{layer}.{attr}"
            if (attr.startswith("_") or not inspect.isfunction(obj)
                    or obj.__module__ != module.__name__ or name in PER_ELEMENT):
                continue
            wrapped[id(obj)] = (obj, tracer.wrap(name, obj, COUNTERS.get(name)))
    for module in modules:
        for attr, obj in list(vars(module).items()):
            hit = wrapped.get(id(obj))
            if hit is not None and hit[0] is obj:
                setattr(module, attr, hit[1])

    perm_action = importlib.import_module("topolab.permaction").PermAction
    name = "permaction.PermAction.elements"
    getter = perm_action.elements.fget
    perm_action.elements = property(tracer.wrap(name, getter, COUNTERS[name]),
                                    doc=perm_action.elements.__doc__)
