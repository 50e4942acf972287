"""In-memory spans: record, nest, subtract, export as Chrome trace events.

A span is ``(id, parent, name, start, end, trace, attrs)``.  The parent
comes from a context variable, so nesting follows calls within a thread
and within an asyncio task (``asyncio.to_thread`` and ``create_task``
copy the context, so work handed to them nests under the span that
handed it over).  ``trace`` groups the spans of one CLI invocation or
one server request.

Nothing here imports the program under test; :mod:`traced` installs the
wrappers, :mod:`run` reads the exported files back.
"""

from __future__ import annotations

import contextvars
import functools
import inspect
import itertools
import json
import threading
import time
from collections import defaultdict

_CURRENT = contextvars.ContextVar("perfbench_span", default=0)
TRACE_ID = contextvars.ContextVar("perfbench_trace", default=0)


class Tracer:
    """Span and counter sink; recording is off until :attr:`enabled`."""

    def __init__(self) -> None:
        self.enabled = False
        self.spans: list[tuple] = []
        #: name -> perf_counter of a phase change (see :meth:`mark`)
        self.marks: dict[str, float] = {}
        self.counters: dict[str, float] = defaultdict(float)
        self._ids = itertools.count(1)
        self._lock = threading.Lock()

    def mark(self, name: str) -> None:
        """Note when a phase begins (signal-handler safe: no lock is
        taken)."""
        self.marks[name] = time.perf_counter()

    def count(self, name: str, amount: float = 1) -> None:
        if self.enabled:
            with self._lock:
                self.counters[name] += amount

    def begin(self, name: str):
        sid = next(self._ids)
        return sid, _CURRENT.get(), _CURRENT.set(sid), time.perf_counter()

    def end(self, name: str, handle, attrs: dict | None = None) -> None:
        sid, parent, token, start = handle
        stop = time.perf_counter()
        _CURRENT.reset(token)
        with self._lock:
            self.spans.append((sid, parent, name, start, stop,
                               TRACE_ID.get(), attrs or {}))

    def add(self, name: str, start: float, stop: float) -> None:
        """Record a childless span that began before the call that ends
        it (``start`` was observed elsewhere)."""
        with self._lock:
            self.spans.append((next(self._ids), _CURRENT.get(), name, start,
                               stop, TRACE_ID.get(), {}))

    def wrap(self, name: str, fn, attrs=None):
        """``fn`` recording one span per call while enabled.

        ``attrs(result, args, kwargs) -> dict`` adds span attributes
        (counts taken from the call); coroutine functions get an async
        wrapper so the span covers the awaited work.
        """
        tracer = self

        if inspect.iscoroutinefunction(fn):
            @functools.wraps(fn)
            async def async_wrapper(*args, **kwargs):
                if not tracer.enabled:
                    return await fn(*args, **kwargs)
                handle = tracer.begin(name)
                result = None
                try:
                    result = await fn(*args, **kwargs)
                    return result
                finally:
                    tracer.end(name, handle,
                               attrs(result, args, kwargs) if attrs else None)
            return async_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            handle = tracer.begin(name)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                tracer.end(name, handle,
                           attrs(result, args, kwargs) if attrs else None)
        return wrapper

    def chrome_events(self) -> dict:
        """The spans as Chrome trace-event JSON (Perfetto opens it)."""
        origin = min((s[3] for s in self.spans), default=0.0)
        events = [{
            "name": name, "cat": name.split(".", 1)[0], "ph": "X",
            "ts": (start - origin) * 1e6, "dur": (stop - start) * 1e6,
            "pid": 1, "tid": trace,
            "args": dict(attrs, id=sid, parent=parent, trace=trace),
        } for sid, parent, name, start, stop, trace, attrs in self.spans]
        marks = {name: (at - origin) * 1e6 for name, at in self.marks.items()}
        return {"traceEvents": events, "counters": dict(self.counters),
                "marks": marks, "displayTimeUnit": "ms"}

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.chrome_events(), handle)


# -- reading a trace back ------------------------------------------------------

def _covered(intervals: list[tuple[float, float]], lo: float,
             hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0.0
    reach = lo
    for start, stop in sorted(intervals):
        start, stop = max(start, reach), min(stop, hi)
        if stop > start:
            total += stop - start
            reach = stop
    return total


def self_times(events: list[dict]) -> dict[int, float]:
    """Span id -> its duration minus the time its children cover (us).

    Children may overlap each other (concurrent requests, worker
    threads); overlapping time is subtracted once.
    """
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for ev in events:
        children[ev["args"]["parent"]].append(
            (ev["ts"], ev["ts"] + ev["dur"]))
    return {ev["args"]["id"]: ev["dur"] - _covered(
        children.get(ev["args"]["id"], []), ev["ts"], ev["ts"] + ev["dur"])
        for ev in events}


def layer_self_times(events: list[dict]) -> dict[str, float]:
    """Layer (the span name's first component) -> summed self time (s)."""
    own = self_times(events)
    out: dict[str, float] = defaultdict(float)
    for ev in events:
        out[ev["name"].split(".", 1)[0]] += own[ev["args"]["id"]] / 1e6
    return dict(out)


def span_totals(events: list[dict]) -> dict[str, tuple[float, int]]:
    """Span name -> (summed duration in s, call count)."""
    out: dict[str, list] = defaultdict(lambda: [0.0, 0])
    for ev in events:
        out[ev["name"]][0] += ev["dur"] / 1e6
        out[ev["name"]][1] += 1
    return {name: (total, calls) for name, (total, calls) in out.items()}


def attr_sum(events: list[dict], name: str, attr: str) -> float:
    """Sum of attribute ``attr`` over the spans called ``name``."""
    return sum(ev["args"].get(attr, 0) for ev in events
               if ev["name"] == name)
