"""Span tracing of the Talus pipeline's layers, from outside the program.

The traced run wraps each layer's public calls (see :data:`LAYERS`) for
the duration of one unit.  Every call records a span (name, start, end,
parent, unit id, thread) in memory; spans are written out when the run
ends.  Each thread keeps its own span stack, so a span's parent is the
innermost open span *of the same thread*: work on a worker thread never
counts as a child of the main thread's spans.

A layer's self time is its spans' durations minus the part covered by
their child spans.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import threading
import time
from collections import Counter, defaultdict
from typing import Callable

#: Layers of the Talus pipeline in loop order, with the public calls each
#: one times: ``(owner module, class or None, attribute)``.
LAYERS = {
    "workloads.trace": [("repro.workloads.spec_profiles", "AppProfile",
                         "trace"),
                        ("repro.sim.multicore", None, "churn_events"),
                        ("repro.workloads.tracestore", "TraceStore", "get"),
                        ("repro.workloads.tracestore", "TraceStore", "put")],
    "cache.steer": [("repro.cache.hashing", "H3Hash", "hash_array")],
    "cache.replay": [("repro.cache.talus_cache", "TalusCache", "run_chunk"),
                     ("repro.cache.threadbatch", None, "run_tasks")],
    "cache.configure": [("repro.cache.talus_cache", "TalusCache",
                         "configure_many")],
    "monitor.record": [("repro.monitor.umon", "CombinedUMON",
                        "record_trace")],
    "monitor.stack": [("repro.monitor.stack_distance",
                       "IncrementalStackMonitor", "record_trace")],
    "monitor.curve": [("repro.monitor.umon", "CombinedUMON", "miss_curve")],
    "monitor.drift": [("repro.monitor.drift", "CurveDriftTracker",
                       "update")],
    "core.curve": [("repro.core.misscurve", "MissCurve", "__init__")],
    "core.hull": [("repro.core.convexhull", None, "convex_hull")],
    "core.plan": [("repro.core.talus", None, "plan_shadow_partitions")],
    "partitioning.alloc": [("repro.partitioning.hill_climbing", None,
                            "hill_climbing")],
    "sim.plan": [("repro.sim.reconfigure", None, "plan_shared_allocations")],
    "sim.invariants": [("repro.sim.controller", "OnlineTalusController",
                        "check_invariants")],
    "sim.analytic": [("repro.sim.mixsweep", "MixSweepResult",
                      "gmean_speedup")],
    "jobs.start": [("repro.jobs.supervisor", "SupervisedWorker",
                    "__init__")],
    "jobs.wait": [("repro.jobs.queue", "Job", "result")],
    "jobs.bank": [("repro.jobs.bank", "ResultBank", "get"),
                  ("repro.jobs.bank", "ResultBank", "put")],
}

#: Layers of the control plane (monitor reads, curves, planning).
CONTROL_PLANE = ("monitor.curve", "monitor.drift", "core.curve", "core.hull",
                 "core.plan", "partitioning.alloc", "sim.plan")


def _size(trace) -> int:
    try:
        return len(trace)
    except TypeError:
        return 0


class Recorder:
    """In-memory span store with one span stack per thread.

    A span is a list ``[name, start_ns, end_ns, parent_span, unit, tid]``;
    ``unit`` is whatever :attr:`unit` held when the span opened, so spans
    on other threads still carry the unit they belong to.
    """

    def __init__(self, clock: Callable[[], int] = time.perf_counter_ns):
        self.clock = clock
        self.spans: list[list] = []
        self.counts: dict = defaultdict(Counter)
        self.unit = None
        self._local = threading.local()
        self._count_lock = threading.Lock()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def count(self, name: str, amount: int = 1) -> None:
        with self._count_lock:      # monitors count on a worker thread
            self.counts[self.unit][name] += amount

    def open(self, name: str) -> list:
        stack = self._stack()
        span = [name, self.clock(), None, stack[-1] if stack else None,
                self.unit, threading.get_ident()]
        self.spans.append(span)
        stack.append(span)
        return span

    def close(self, span: list) -> None:
        span[2] = self.clock()
        self._stack().pop()

    def wrap(self, name: str, fn: Callable,
             observe: Callable | None = None) -> Callable:
        """``fn`` timed as a ``name`` span; ``observe(args, kwargs,
        result)`` runs inside the span after the call to update counters."""
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self.open(name)
            try:
                result = fn(*args, **kwargs)
                if observe is not None:
                    observe(args, kwargs, result)
                return result
            finally:
                self.close(span)
        return traced

    # ------------------------------------------------------------------ #
    def unit_spans(self, unit) -> list[list]:
        return [span for span in self.spans if span[4] == unit]

    def layer_times(self, unit) -> dict[str, tuple[int, int]]:
        """``{layer: (calls, self_ns)}`` of one unit's spans."""
        return self_times(self.unit_spans(unit))

    def write(self, path, unit) -> None:
        """Write one unit's spans as JSON lines.

        Each line is ``[id, name, start_ns, end_ns, parent_id, unit,
        thread]`` with ``parent_id`` null for a thread's root spans.
        """
        ids = {}
        with open(path, "w") as out:
            for index, span in enumerate(self.unit_spans(unit)):
                ids[id(span)] = index
                parent = span[3]
                out.write(json.dumps([index, span[0], span[1], span[2],
                                      ids.get(id(parent)) if parent else None,
                                      span[4], span[5]]) + "\n")


def self_times(spans: list[list]) -> dict[str, tuple[int, int]]:
    """``{name: (calls, self_ns)}``: each span's duration minus the time
    its direct children (same thread, by construction) cover."""
    children = Counter()
    for span in spans:
        if span[3] is not None:
            children[id(span[3])] += span[2] - span[1]
    totals: dict[str, list[int]] = {}
    for span in spans:
        entry = totals.setdefault(span[0], [0, 0])
        entry[0] += 1
        entry[1] += (span[2] - span[1]) - children[id(span)]
    return {name: (calls, self_ns) for name, (calls, self_ns)
            in totals.items()}


# --------------------------------------------------------------------- #
# Installing the wrappers
# --------------------------------------------------------------------- #
class Instrumentation:
    """Patches every layer's public calls to record into a
    :class:`Recorder`, and restores the originals on :meth:`remove`.

    A module-level function is replaced at every binding a loaded
    ``repro`` module holds (``from x import f`` copies), including
    values of module-level dicts such as the sweep's algorithm registry.
    """

    def __init__(self, recorder: Recorder):
        self.recorder = recorder
        self._undo: list[Callable[[], None]] = []

    def install(self) -> None:
        if self._undo:
            raise RuntimeError("instrumentation already installed")
        # Import every owner before patching anything, so no module first
        # imported mid-install copies a wrapper it would keep afterwards.
        owners = {module_name: importlib.import_module(module_name)
                  for calls in LAYERS.values()
                  for module_name, _, _ in calls}
        try:
            self._patch(owners)
        except BaseException:
            self.remove()
            raise

    def _patch(self, owners: dict) -> None:
        for layer, calls in LAYERS.items():
            for module_name, class_name, attr in calls:
                owner = owners[module_name]
                observe = self._observer(layer, attr)
                if class_name is None:
                    fn = getattr(owner, attr)
                    self._replace_function(
                        fn, self.recorder.wrap(layer, fn, observe))
                else:
                    cls = getattr(owner, class_name)
                    fn = cls.__dict__[attr]
                    self._set(cls, attr,
                              self.recorder.wrap(layer, fn, observe))
        from repro.cache.partition.array import (ArrayPartitionedCache,
                                                 ArrayVantageCache)
        from repro.core.misscurve import MissCurve
        recorder = self.recorder

        def counter(fn, name, amount):
            def counted(*args, **kwargs):
                recorder.count(name, amount(args))
                return fn(*args, **kwargs)
            return counted

        # Counted, not timed: 10^5 curve evaluations a unit, and the
        # partitioned caches' replay entry, which run_chunk and the
        # batch's fallback tasks both reach (so it is counted once).
        self._set(MissCurve, "__call__", counter(
            MissCurve.__call__, "core.curve.evals", lambda args: 1))
        for cls in (ArrayPartitionedCache, ArrayVantageCache):
            self._set(cls, "run_partitioned", counter(
                cls.run_partitioned, "cache.replay.accesses",
                lambda args: _size(args[1])))

    def remove(self) -> None:
        while self._undo:
            self._undo.pop()()

    def _set(self, owner, attr: str, value) -> None:
        original = owner.__dict__[attr] if isinstance(owner, type) \
            else getattr(owner, attr)
        setattr(owner, attr, value)
        self._undo.append(lambda: setattr(owner, attr, original))

    def _replace_function(self, fn, traced) -> None:
        for name, module in list(sys.modules.items()):
            if not name.startswith("repro") or module is None:
                continue
            for attr, value in list(vars(module).items()):
                if value is fn:
                    self._set(module, attr, traced)
                elif isinstance(value, dict) and not attr.startswith("__"):
                    for key, item in list(value.items()):
                        if item is fn:
                            value[key] = traced
                            self._undo.append(
                                lambda d=value, k=key: d.__setitem__(k, fn))

    def _observer(self, layer: str, attr: str):
        """Counter updates for the calls whose work is counted."""
        rec = self.recorder
        call = (layer, attr)
        if call == ("cache.replay", "run_tasks"):
            def observe(args, kwargs, result):
                rec.count("cache.replay.accesses", sum(
                    int(task.fields["n"]) for task in result if task.native))
            return observe
        if attr == "record_trace":       # monitor.record / monitor.stack
            def observe(args, kwargs, result):
                rec.count(layer + ".accesses", _size(args[1]))
            return observe
        if call == ("jobs.bank", "get"):
            def observe(args, kwargs, result):
                if result is not None:
                    rec.count("jobs.bank_hits")
            return observe
        if call == ("jobs.wait", "result"):
            def observe(args, kwargs, result):
                rec.count("jobs.retries", max(0, args[0].attempts - 1))
            return observe
        return None
