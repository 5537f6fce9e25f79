"""Spans for the benchmark's traced run.

The wrappers live here, in the benchmark, not in ``src/``: :meth:`Tracer.install`
replaces public attributes of the program's modules and classes with timing
wrappers, and :meth:`Tracer.uninstall` puts the originals back.  Only the
traced run installs them.

Every span has a name, a start, an end and the span that was open when it
began; all spans of one operation carry that operation's id.  Garbage
collection pauses, seen through ``gc.callbacks``, become spans named ``gc``
inside whichever span was open.  ``MatchActionTable.lookup`` runs tens of
thousands of times per operation, so its calls are summed per enclosing span
instead of being kept one by one.

A span's self time is its duration minus the time its children cover, so the
self times of one operation's spans add up to the operation's time.
"""

from __future__ import annotations

import functools
import gc
import json
import time
from collections import defaultdict
from typing import Callable, Dict, Iterable, List, Optional, Tuple

from repro import dgen
from repro.drmt import codegen as drmt_codegen
from repro.drmt import simulator as drmt_simulator
from repro.drmt import tables as drmt_tables
from repro.dsim import simulator as dsim_simulator
from repro.engine import drmt as engine_drmt
from repro.engine import rmt as engine_rmt
from repro import traffic
from repro.testing import fuzzer, spec

#: Name of the root span of every operation; its self time is the work the
#: benchmark itself does and calls no wrapper sees.
OP = "op"
GC = "gc"
LOOKUP = "drmt.tables.lookup"
#: Operation id of the traced set-up.
SETUP = "setup"
#: Metric names of the spans whose name is not a function's.
METRIC_NAMES = {OP: "op.other_s", GC: "gc.pause_s"}

#: A counter callback receives the wrapped call's arguments and result and
#: yields (counter name, increment) pairs.
Counter = Callable[[tuple, object], Iterable[Tuple[str, int]]]


class Tracer:
    """Records spans and counters while installed; aggregates them afterwards."""

    def __init__(self) -> None:
        #: (span id, parent id, op id, name, start, end)
        self.spans: List[Tuple[int, Optional[int], object, str, float, float]] = []
        #: (op id, parent span id) -> [calls, seconds] of table lookups
        self.lookups: Dict[Tuple[object, Optional[int]], List[float]] = defaultdict(
            lambda: [0, 0.0]
        )
        #: (op id, counter name) -> value
        self.counts: Dict[Tuple[object, str], int] = defaultdict(int)
        #: op id -> case label
        self.labels: Dict[object, str] = {}
        self.gc_pause = 0.0
        self._op: object = None
        self._stack: List[int] = []
        self._next_id = 0
        self._gc_start = 0.0
        self._installed: List[Tuple[object, str, object]] = []

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def _open(self) -> Tuple[int, Optional[int], float]:
        span_id = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else None
        self._stack.append(span_id)
        return span_id, parent, time.perf_counter()

    def _close(self, name: str, span_id: int, parent: Optional[int], start: float) -> None:
        end = time.perf_counter()
        self._stack.pop()
        self.spans.append((span_id, parent, self._op, name, start, end))

    def op(self, op_id: object, label: str, function: Callable[[], object]) -> Tuple[object, float]:
        """Run ``function`` as operation ``op_id``; return its result and duration."""
        self._op = op_id
        self.labels[op_id] = label
        opened = self._open()
        try:
            result = function()
        finally:
            self._close(OP, *opened)
            self._op = None
        _, _, _, _, start, end = self.spans[-1]
        return result, end - start

    def count(self, name: str, value: int) -> None:
        if self._op is not None:
            self.counts[(self._op, name)] += value

    def _on_gc(self, phase: str, info: Dict[str, int]) -> None:
        now = time.perf_counter()
        if phase == "start":
            self._gc_start = now
            return
        self.gc_pause += now - self._gc_start
        if self._op is None:
            return
        parent = self._stack[-1] if self._stack else None
        self.spans.append((self._next_id, parent, self._op, GC, self._gc_start, now))
        self._next_id += 1
        self.counts[(self._op, "gc.collections")] += 1
        if info["generation"] == 2:
            self.counts[(self._op, "gc.gen2_collections")] += 1

    # ------------------------------------------------------------------
    # Wrappers
    # ------------------------------------------------------------------
    def timed(self, name: str, function: Callable, counter: Optional[Counter] = None) -> Callable:
        """``function`` wrapped in a span named ``name`` (inside operations only)."""
        tracer = self

        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            if tracer._op is None:
                return function(*args, **kwargs)
            opened = tracer._open()
            try:
                result = function(*args, **kwargs)
            finally:
                tracer._close(name, *opened)
            if counter is not None:
                for counter_name, value in counter(args, result):
                    tracer.count(counter_name, value)
            return result

        return wrapper

    def _lookup_wrapper(self, function: Callable) -> Callable:
        tracer = self

        @functools.wraps(function)
        def lookup(table, fields):
            if tracer._op is None:
                return function(table, fields)
            pause = tracer.gc_pause
            start = time.perf_counter()
            try:
                return function(table, fields)
            finally:
                # A collection inside the lookup is already its own gc span.
                elapsed = time.perf_counter() - start - (tracer.gc_pause - pause)
                parent = tracer._stack[-1] if tracer._stack else None
                totals = tracer.lookups[(tracer._op, parent)]
                totals[0] += 1
                totals[1] += elapsed

        return lookup

    def _patch(self, owner: object, attribute: str, replacement: Callable) -> None:
        # vars() rather than getattr(): the exact object to restore, and a
        # KeyError when the program renames what the benchmark times.
        self._installed.append((owner, attribute, vars(owner)[attribute]))
        setattr(owner, attribute, replacement)

    def _wrap(self, owner: object, attribute: str, name: str, counter: Optional[Counter] = None):
        self._patch(owner, attribute, self.timed(name, vars(owner)[attribute], counter))

    def _wrap_description(self, args: tuple, description) -> Iterable[Tuple[str, int]]:
        """Time a compiled description's ``RUN_TRACE`` entry and count its lines."""
        namespace = description.namespace
        run_trace = namespace.get("RUN_TRACE")
        if callable(run_trace):
            namespace["RUN_TRACE"] = self.timed("engine.rmt.run_trace", run_trace, _phvs)
        return [("dgen.source_lines", description.source_line_count())]

    def install(self) -> None:
        """Replace the timed attributes with wrappers and start watching gc."""
        self._wrap(dgen, "generate_module", "dgen.generate_module", _dgen_calls)
        self._wrap(dgen, "compile_description", "dgen.compile_description", self._wrap_description)
        self._wrap(traffic.TrafficGenerator, "generate", "traffic.generate", _traffic_items)
        self._wrap(traffic.PacketGenerator, "generate", "traffic.generate", _traffic_items)
        self._wrap(spec.Specification, "run", "testing.spec_run")
        self._wrap(fuzzer, "compare_traces", "testing.compare_traces")
        self._wrap(dsim_simulator.RMTSimulator, "run", "dsim.run")
        self._wrap(engine_rmt, "prepare_inputs", "engine.rmt.prepare_inputs")
        self._wrap(engine_rmt, "sequential_result", "engine.result.sequential_result")
        self._wrap(drmt_codegen.DrmtProgramBundle, "fused_program", "drmt.fused_program")
        self._wrap(drmt_simulator.DRMTSimulator, "run_packets", "drmt.run_packets", _table_hits)
        self._wrap(engine_drmt, "prepare_packets", "engine.drmt.prepare_packets")
        self._wrap(engine_drmt, "run_fused", "engine.drmt.run_fused")
        self._wrap(engine_drmt, "assemble_result", "engine.drmt.assemble_result")
        table = drmt_tables.MatchActionTable
        self._patch(table, "lookup", self._lookup_wrapper(vars(table)["lookup"]))
        gc.callbacks.append(self._on_gc)

    def uninstall(self) -> None:
        """Put every original attribute back and stop watching gc."""
        if self._on_gc in gc.callbacks:
            gc.callbacks.remove(self._on_gc)
        while self._installed:
            owner, attribute, original = self._installed.pop()
            setattr(owner, attribute, original)

    # ------------------------------------------------------------------
    # Aggregation
    # ------------------------------------------------------------------
    def self_times(self) -> Dict[Tuple[object, str], float]:
        """(op id, span name) -> summed self time in seconds."""
        covered: Dict[int, float] = defaultdict(float)
        for span_id, parent, _op, _name, start, end in self.spans:
            if parent is not None:
                covered[parent] += end - start
        totals: Dict[Tuple[object, str], float] = defaultdict(float)
        for (op_id, parent), (_calls, seconds) in self.lookups.items():
            if parent is not None:
                covered[parent] += seconds
            totals[(op_id, LOOKUP)] += seconds
        for span_id, _parent, op_id, name, start, end in self.spans:
            totals[(op_id, name)] += (end - start) - covered[span_id]
        return totals

    def totals(self, in_setup: bool) -> Dict[str, float]:
        """Self seconds per metric and counter totals, over the set-up or the ops.

        A span's self time goes to the metric ``<span name>_s``, except the
        root span's (``op.other_s``) and collections' (``gc.pause_s``).
        """
        totals: Dict[str, float] = defaultdict(float)
        for (op_id, name), seconds in self.self_times().items():
            if (op_id == SETUP) == in_setup:
                totals[METRIC_NAMES.get(name, f"{name}_s")] += seconds
        for (op_id, name), value in self.counts.items():
            if (op_id == SETUP) == in_setup:
                totals[name] += value
        for (op_id, _parent), (calls, _seconds) in self.lookups.items():
            if (op_id == SETUP) == in_setup:
                totals["drmt.tables.lookup_calls"] += calls
        return totals

    def write(self, path) -> None:
        """Write every span and lookup total as JSON lines."""
        with open(path, "w") as handle:
            for span_id, parent, op_id, name, start, end in self.spans:
                record = {
                    "id": span_id,
                    "parent": parent,
                    "op": op_id,
                    "case": self.labels.get(op_id),
                    "name": name,
                    "start": start,
                    "end": end,
                }
                handle.write(json.dumps(record) + "\n")
            for (op_id, parent), (calls, seconds) in self.lookups.items():
                record = {
                    "parent": parent,
                    "op": op_id,
                    "name": LOOKUP,
                    "calls": calls,
                    "seconds": seconds,
                }
                handle.write(json.dumps(record) + "\n")


def _dgen_calls(args: tuple, module) -> List[Tuple[str, int]]:
    return [("dgen.calls", 1)]


def _traffic_items(args: tuple, items: list) -> List[Tuple[str, int]]:
    return [("traffic.items", len(items))]


def _phvs(args: tuple, outputs) -> List[Tuple[str, int]]:
    return [("engine.rmt.phvs", len(args[0]))]


def _table_hits(args: tuple, result) -> List[Tuple[str, int]]:
    """Hits and lookups of a dRMT run, from its ``table_hits``."""
    counters = result.table_hits.values()
    return [
        ("drmt.tables.hits", sum(hits for hits, _misses in counters)),
        ("drmt.tables.lookups", sum(hits + misses for hits, misses in counters)),
    ]


def layer_of(name: str) -> str:
    """The layer a span belongs to: its name without the function part."""
    return name.rsplit(".", 1)[0] if "." in name else name
