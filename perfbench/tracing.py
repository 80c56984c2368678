"""Spans recorded from outside the program, around calls into each layer.

The traced run wraps public objects (methods on an instance, or a
function attribute of a module) so that each call opens a span named
``<layer>.<call>``. Spans are kept in memory and written at the end as
Chrome trace-event JSON through :class:`repro.obs.spans.SpanTracer`,
so the same tooling that opens the program's own traces opens these.

Calls made once per DRAM activation (mitigation hooks, the security
ledger) happen millions of times in one run; a span each would cost
more than the call. They are *aggregated*: each call adds its count and
duration to the innermost open span under the call's name, and the
totals are exported as one child span per (parent, name). Because an
aggregated call is charged to the innermost open span, its time never
overlaps a real child of the same parent, which is what
:func:`self_times` relies on. The wrapper's own cost, inside and
outside the interval it measures, is measured by :meth:`SpanLog.calibrate`
and taken back out of the aggregated totals and of their parents.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import itertools
import time
from typing import Any, Callable, Iterator


@dataclasses.dataclass
class Span:
    span_id: int
    name: str
    start_ns: int
    parent: int | None
    run_id: str
    end_ns: int | None = None
    #: aggregated per-call children: name -> [calls, total_ns]
    calls: dict[str, list[int]] = dataclasses.field(default_factory=dict)

    @property
    def duration_ns(self) -> int:
        return (self.end_ns or self.start_ns) - self.start_ns


@dataclasses.dataclass(frozen=True)
class WrapperCost:
    """Per-call cost of an aggregated wrapper, in nanoseconds."""

    inside_ns: float = 0.0  #: within the measured interval
    outside_ns: float = 0.0  #: charged to the caller


class SpanLog:
    """In-memory span store for one traced run."""

    def __init__(self, run_id: str,
                 clock: Callable[[], int] = time.perf_counter_ns):
        self.run_id = run_id
        self.clock = clock
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._ids = itertools.count(1)
        self._undo: list[Callable[[], None]] = []
        self.cost = WrapperCost()

    # -- recording ---------------------------------------------------------
    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[Span]:
        parent = self._stack[-1].span_id if self._stack else None
        record = Span(next(self._ids), name, self.clock(), parent,
                      self.run_id)
        self.spans.append(record)
        self._stack.append(record)
        try:
            yield record
        finally:
            record.end_ns = self.clock()
            self._stack.pop()

    def add_call(self, name: str, duration_ns: int) -> None:
        """Charge one aggregated call to the innermost open span."""
        if not self._stack:
            return
        entry = self._stack[-1].calls.setdefault(name, [0, 0])
        entry[0] += 1
        entry[1] += duration_ns

    # -- wrapping ----------------------------------------------------------
    def wrap(self, owner: Any, attribute: str, name: str) -> None:
        """Replace ``owner.attribute`` by a version that opens a span.

        ``owner`` is an instance (the wrapper shadows the class method)
        or a module (the wrapper replaces the function for every caller
        that looks it up through the module). :meth:`restore` undoes it.
        """
        original = getattr(owner, attribute)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            with self.span(name):
                return original(*args, **kwargs)

        self.replace(owner, attribute, traced)

    def wrap_aggregated(self, owner: Any, attribute: str,
                        name: str) -> None:
        """Like :meth:`wrap`, for per-activation calls (see module doc)."""
        original = getattr(owner, attribute)
        clock = self.clock
        add_call = self.add_call

        def counted(*args, **kwargs):
            start = clock()
            try:
                return original(*args, **kwargs)
            finally:
                add_call(name, clock() - start)

        self.replace(owner, attribute, counted)

    def replace(self, owner: Any, attribute: str, replacement) -> None:
        """Set ``owner.attribute`` to ``replacement`` until :meth:`restore`."""
        shadowed = attribute in getattr(owner, "__dict__", {})
        previous = owner.__dict__.get(attribute) if shadowed else None
        setattr(owner, attribute, replacement)

        def undo() -> None:
            if shadowed:
                setattr(owner, attribute, previous)
            else:
                delattr(owner, attribute)

        self._undo.append(undo)

    def restore(self) -> None:
        """Undo every wrap, newest first."""
        while self._undo:
            self._undo.pop()()

    def calibrate(self, calls: int = 200_000) -> WrapperCost:
        """Measure what :meth:`wrap_aggregated` adds to each call.

        Times an empty loop, a loop of bare calls to a no-op method and
        a loop of wrapped calls to it. Inside: the measured interval
        minus the bare call. Outside: the rest of the wrapped call.
        """
        class Probe:
            def hit(self) -> None:
                return None

        probe = Probe()
        bare = probe.hit
        probe_log = SpanLog("calibrate", self.clock)
        loop = range(calls)
        start = self.clock()
        for _ in loop:
            pass
        empty = self.clock() - start
        start = self.clock()
        for _ in loop:
            bare()
        bare_ns = self.clock() - start - empty
        probe_log.wrap_aggregated(probe, "hit", "probe.hit")
        with probe_log.span("probe"):
            start = self.clock()
            for _ in loop:
                probe.hit()
            wrapped = self.clock() - start - empty
        measured = probe_log.spans[0].calls["probe.hit"][1]
        self.cost = WrapperCost(max(measured - bare_ns, 0) / calls,
                                max(wrapped - measured, 0) / calls)
        return self.cost

    # -- queries -----------------------------------------------------------
    def total_s(self, name: str) -> float:
        """Summed duration of spans and aggregated calls named ``name``
        (aggregated calls net of the wrapper's inside cost)."""
        total = sum(s.duration_ns for s in self.spans if s.name == name)
        for record in self.spans:
            if name in record.calls:
                calls, spent = record.calls[name]
                total += spent - calls * self.cost.inside_ns
        return total / 1e9

    def count(self, name: str) -> int:
        spans = sum(1 for s in self.spans if s.name == name)
        return spans + sum(s.calls[name][0] for s in self.spans
                           if name in s.calls)

    def to_chrome_trace(self, path) -> int:
        """Write the spans as Chrome trace-event JSON; returns the count."""
        from repro.obs.spans import SpanTracer

        tracer = SpanTracer(capacity=max(1, len(self.spans)
                                         + sum(len(s.calls)
                                               for s in self.spans)))
        ids: dict[int, int] = {}
        for record in sorted(self.spans, key=lambda s: s.start_ns):
            exported = tracer.record(
                record.name, record.start_ns,
                record.end_ns or record.start_ns,
                parent_id=ids.get(record.parent), run_id=self.run_id)
            ids[record.span_id] = exported.span_id
            for name, (calls, total_ns) in record.calls.items():
                tracer.record(name, record.start_ns,
                              record.start_ns + total_ns,
                              parent_id=exported.span_id,
                              run_id=self.run_id, calls=calls,
                              aggregated=True)
        tracer.to_chrome_trace(str(path))
        return len(tracer)


def covered_ns(intervals: list[tuple[int, int]]) -> int:
    """Length of the union of ``[start, end)`` intervals."""
    total = 0
    reach = None
    for start, end in sorted(intervals):
        if reach is None or start >= reach:
            total += end - start
            reach = end
        elif end > reach:
            total += end - reach
            reach = end
    return total


def self_times(spans: list[Span],
               cost: WrapperCost = WrapperCost()) -> dict[str, float]:
    """Self time in seconds per layer (the span name's first component).

    A span's self time is its duration minus the part of it covered by
    its child spans (clipped to the span) and by aggregated calls
    charged to it. Aggregated calls are their own layer's self time.
    ``cost`` (from :meth:`SpanLog.calibrate`) is taken out of both.
    """
    children: dict[int, list[Span]] = {}
    for record in spans:
        if record.parent is not None:
            children.setdefault(record.parent, []).append(record)
    out: dict[str, float] = {}

    def charge(name: str, ns: float) -> None:
        layer = name.split(".", 1)[0]
        out[layer] = out.get(layer, 0.0) + max(ns, 0.0) / 1e9

    for record in spans:
        end = record.end_ns or record.start_ns
        inner = [(max(c.start_ns, record.start_ns),
                  min(c.end_ns or c.start_ns, end))
                 for c in children.get(record.span_id, ())]
        inner = [(a, b) for a, b in inner if b > a]
        aggregated = sum(total + calls * cost.outside_ns
                         for calls, total in record.calls.values())
        charge(record.name,
               record.duration_ns - covered_ns(inner) - aggregated)
        for name, (calls, total) in record.calls.items():
            charge(name, total - calls * cost.inside_ns)
    return out
