"""In-memory span tracer for the traced benchmark run.

The benchmark measures layers *from outside*: it wraps public callables of
the program (methods on classes, functions in module namespaces) with a
timing shim, in the benchmark process only.  A span is ``(id, parent, tid,
name, tag, phase, start, end, nbytes)``:

* ``parent`` is the span that was open on the same thread when this one
  started (0 = a root).  Writer-pool threads therefore produce their own
  roots; spawned persist processes are not wrapped at all.
* ``tag`` is a record identifier where one exists (optimizer step, blob
  key), ``phase`` the benchmark phase that was active (train, finalize,
  restore_serial, ...), ``nbytes`` the payload size the call moved.

Spans stay in memory until :meth:`Tracer.write_chrome_trace`.  A layer's
*self time* is its span's duration minus the part its direct children
cover; :func:`union_s` measures wall coverage across threads.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from collections import defaultdict
from typing import Callable, NamedTuple


class Span(NamedTuple):
    id: int
    parent: int
    tid: int
    name: str
    tag: object
    phase: str
    start: float
    end: float
    nbytes: int

    @property
    def dur(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans from wrapped callables and manual begin/end pairs."""

    def __init__(self) -> None:
        self.spans: list[Span] = []   # list.append is atomic under the GIL
        self.phase = ""
        self.epoch = time.perf_counter()
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patches: list[tuple[object, str, object, bool]] = []

    # Recording ---------------------------------------------------------------
    def _stack(self) -> list:
        try:
            return self._local.stack
        except AttributeError:
            self._local.stack = []
            return self._local.stack

    def begin(self, name: str, tag: object = "") -> tuple:
        """Open a manual span on this thread; pass the handle to :meth:`end`."""
        stack = self._stack()
        handle = (next(self._ids), stack[-1] if stack else 0, name, tag,
                  self.phase, time.perf_counter())
        stack.append(handle[0])
        return handle

    def end(self, handle: tuple) -> None:
        end = time.perf_counter()
        self._stack().pop()
        span_id, parent, name, tag, phase, start = handle
        self.spans.append(Span(span_id, parent, threading.get_ident(), name,
                               tag, phase, start, end, 0))

    def wrap(self, owner, attr: str, name: str,
             size_of: Callable | None = None,
             tag_of: Callable | None = None) -> None:
        """Replace ``owner.attr`` (class or module attribute) with a shim
        that records one span per call.  ``size_of(args, result)`` and
        ``tag_of(args, kwargs)`` fill ``nbytes``/``tag``; both run outside the
        timed region.  :meth:`unwrap_all` restores the originals."""
        raw = vars(owner).get(attr)
        own = raw is not None
        rewrap = None
        if isinstance(raw, (classmethod, staticmethod)):
            rewrap = type(raw)
            fn = raw.__func__
        else:
            fn = raw if own else getattr(owner, attr)
        tracer = self
        ids = self._ids
        spans = self.spans
        stack_of = self._stack
        clock = time.perf_counter
        get_ident = threading.get_ident

        def traced(*args, **kwargs):
            stack = stack_of()
            parent = stack[-1] if stack else 0
            span_id = next(ids)
            tag = tag_of(args, kwargs) if tag_of is not None else ""
            phase = tracer.phase
            stack.append(span_id)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                end = clock()
                stack.pop()
                spans.append(Span(span_id, parent, get_ident(), name, tag,
                                  phase, start, end, 0))
                raise
            end = clock()
            stack.pop()
            nbytes = size_of(args, result) if size_of is not None else 0
            spans.append(Span(span_id, parent, get_ident(), name, tag, phase,
                              start, end, nbytes))
            return result

        traced.__name__ = getattr(fn, "__name__", attr)
        traced.__wrapped__ = fn
        self._patches.append((owner, attr, raw, own))
        setattr(owner, attr, rewrap(traced) if rewrap else traced)

    def unwrap_all(self) -> None:
        for owner, attr, raw, own in reversed(self._patches):
            if own:
                setattr(owner, attr, raw)
            else:
                delattr(owner, attr)
        self._patches.clear()

    # Output ------------------------------------------------------------------
    def write_chrome_trace(self, path: str) -> None:
        """Chrome-trace JSON (``chrome://tracing`` / Perfetto): one complete
        ("X") event per span, timestamps in microseconds from the tracer
        epoch, one ``tid`` per recording thread."""
        tids: dict[int, int] = {}
        events = []
        for span in self.spans:
            tid = tids.setdefault(span.tid, len(tids))
            events.append({
                "name": span.name, "ph": "X", "pid": 0, "tid": tid,
                "ts": round((span.start - self.epoch) * 1e6, 1),
                "dur": round(span.dur * 1e6, 1),
                "args": {"id": span.id, "parent": span.parent,
                         "phase": span.phase, "tag": span.tag,
                         "bytes": span.nbytes},
            })
        with open(path, "w") as handle:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, handle)


# Analysis --------------------------------------------------------------------
def union_s(spans) -> float:
    """Wall time covered by at least one of ``spans`` (any thread)."""
    covered = 0.0
    reach = float("-inf")
    for start, end in sorted((s.start, s.end) for s in spans):
        if end <= reach:
            continue
        covered += end - max(start, reach)
        reach = end
    return covered


def within(spans, root: Span) -> list[Span]:
    """Spans of any thread that lie inside ``root``'s interval."""
    return [s for s in spans
            if s.id != root.id and s.start >= root.start and s.end <= root.end]


def self_times(spans) -> dict[int, float]:
    """Span id -> duration minus the time its direct children cover."""
    child_time: dict[int, float] = defaultdict(float)
    for span in spans:
        if span.parent:
            child_time[span.parent] += span.dur
    return {span.id: span.dur - child_time.get(span.id, 0.0) for span in spans}


def layer_table(spans) -> list[dict]:
    """One row per (span name, phase): count, total, self time, bytes."""
    own = self_times(spans)
    rows: dict[tuple[str, str], dict] = {}
    for span in spans:
        row = rows.setdefault((span.name, span.phase), {
            "name": span.name, "phase": span.phase, "count": 0,
            "total_s": 0.0, "self_s": 0.0, "bytes": 0})
        row["count"] += 1
        row["total_s"] += span.dur
        row["self_s"] += own[span.id]
        row["bytes"] += span.nbytes
    return sorted(rows.values(), key=lambda r: (r["phase"], -r["self_s"]))
