"""Cross-process telemetry: worker-side shim + parent-side aggregator.

Since the persist work moved into spawned worker processes
(``storage/mp_engine.py``), the process-global
:data:`~repro.obs.OBS` switchboard in the parent cannot see it — a
spawned child starts with observability disabled and a fresh, empty
registry.  This module bridges the gap:

* **Worker side** — :class:`WorkerTelemetry` activates ``OBS`` inside the
  child (fresh registry + tracer), and :meth:`WorkerTelemetry.flush`
  ships *deltas* back to the parent: metric changes since the last
  successful flush, trace events appended since then, and the newest
  flight-recorder entries.  The ship is a ``put_nowait`` on a bounded
  queue: a full channel **drops the flush and counts it** — a slow
  parent can never block a persist worker mid-write.

* **Parent side** — :class:`TelemetryChannel` owns the bounded queue and
  drains it from the engine's collector thread: metric deltas merge into
  the live :class:`~repro.obs.metrics.MetricsRegistry` twice (rolled-up
  under their own names, and re-namespaced ``proc.<worker>.*`` per
  worker process), trace events merge into the live tracer under one
  Chrome-trace ``pid`` per worker process (rebased onto the parent's
  timeline via wall-clock epochs), and flight entries land in the
  parent's shadow rings so a SIGKILLed worker's last actions survive in
  the parent's post-mortem.

Zero-cost when disabled: the channel is only created when ``OBS.enabled``
at engine construction; workers spawned without a spec never enable
``OBS``, so their hot paths keep the one-load-one-branch disabled guard.

Worker identity is the *logical* label (``persist-worker-0``), not the
OS pid — labels are stable across runs, which keeps merged metric names
and trace pids deterministic for identical seeded runs; the OS pid is
recorded as a gauge (``proc.<label>.os_pid``) for operators.
"""

from __future__ import annotations

import os
import queue as queue_module
import time
from dataclasses import dataclass

from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import Tracer

__all__ = ["TelemetryChannel", "WorkerTelemetry", "WorkerTelemetrySpec"]

#: Bounded channel depth.  Each message is one flush (one task's worth of
#: deltas), so 512 outstanding flushes is far beyond any healthy backlog.
DEFAULT_CHANNEL_DEPTH = 512

#: Worker tracers are capped so an undrained channel cannot grow a
#: worker's event list without bound (drops are counted, as everywhere).
WORKER_TRACE_LIMIT = 8192


@dataclass
class WorkerTelemetrySpec:
    """Picklable half of the channel handed to a spawned worker."""

    queue: object
    label: str
    logical_pid: int


class WorkerTelemetry:
    """Child-process shim: activates ``OBS`` and ships deltas home.

    Built from a :class:`WorkerTelemetrySpec` (or ``None``, in which case
    every method is a no-op and ``OBS`` stays disabled — the zero-cost
    path).  ``flush()`` after each completed task keeps the parent at
    most one task behind.
    """

    def __init__(self, spec: WorkerTelemetrySpec | None):
        self.spec = spec
        self.enabled = spec is not None
        self.drops = 0
        self._unreported_drops = 0
        self._last_snapshot: dict = {}
        self._events_cursor = 0
        self._flight_cursor = 0
        if not self.enabled:
            return
        from repro import obs
        obs.enable(tracer=Tracer(limit=WORKER_TRACE_LIMIT),
                   registry=MetricsRegistry())
        self.origin_epoch = obs.OBS.tracer.origin_epoch

    @classmethod
    def activate(cls, spec) -> "WorkerTelemetry":
        return cls(spec)

    def flush(self) -> bool:
        """Ship deltas since the last successful flush; never blocks.

        Returns ``True`` on ship, ``False`` when inert or dropped.  On a
        drop the cursors do not advance — metric deltas and trace events
        ride the next flush, so a transiently full channel loses nothing
        but latency (a *permanently* full one is bounded by the worker
        tracer's event cap).
        """
        if not self.enabled:
            return False
        from repro.obs import OBS
        from repro.obs.flight import FLIGHT
        snapshot = OBS.registry.snapshot()
        raw_delta = OBS.registry.delta(self._last_snapshot)
        kinds = OBS.registry.kinds()
        # Counters and histograms ship as deltas (they merge additively);
        # gauges ship as absolute values (a delta would be meaningless to
        # ``set`` on the parent side).  Unchanged metrics stay home.
        delta: dict = {}
        for name, value in raw_delta.items():
            kind = kinds.get(name)
            if kind == "gauge":
                if value or name not in self._last_snapshot:
                    delta[name] = snapshot.get(name, value)
            elif kind == "histogram":
                if isinstance(value, dict) and value.get("count"):
                    delta[name] = value
            elif value:
                delta[name] = value
        events, events_cursor = OBS.tracer.events_since(self._events_cursor)
        flight_all = FLIGHT.entries()
        fresh = min(FLIGHT.recorded - self._flight_cursor, len(flight_all))
        flight = flight_all[len(flight_all) - fresh:] if fresh > 0 else []
        message = (
            "telemetry", self.spec.label, int(self.spec.logical_pid),
            os.getpid(), self.origin_epoch, delta, kinds, events, flight,
            self._unreported_drops,
        )
        try:
            self.spec.queue.put_nowait(message)
        except queue_module.Full:
            self.drops += 1
            self._unreported_drops += 1
            return False
        except (OSError, ValueError):  # pragma: no cover - channel torn down
            self.drops += 1
            return False
        self._last_snapshot = snapshot
        self._events_cursor = events_cursor
        self._flight_cursor = FLIGHT.recorded
        self._unreported_drops = 0
        return True


class TelemetryChannel:
    """Parent-side channel: bounded queue + merge-on-drain aggregator."""

    def __init__(self, ctx=None, maxsize: int = DEFAULT_CHANNEL_DEPTH):
        if ctx is None:
            import multiprocessing
            ctx = multiprocessing.get_context("spawn")
        self.queue = ctx.Queue(maxsize)
        self.messages = 0
        self.merged_metrics = 0
        self.merged_events = 0
        self.worker_drops = 0
        self.seen_workers: dict[str, int] = {}   # label -> os pid
        self._closed = False

    def worker_spec(self, label: str, logical_pid: int) -> WorkerTelemetrySpec:
        return WorkerTelemetrySpec(queue=self.queue, label=label,
                                   logical_pid=int(logical_pid))

    def drain(self, max_messages: int = 256) -> int:
        """Merge queued worker flushes into the live ``OBS`` sinks.

        Called from the engine's collector thread on every poll tick and
        once more at shutdown.  Non-blocking; returns messages handled.
        Flight entries are absorbed even when observability has been
        disabled meanwhile — the post-mortem path must not depend on the
        capture still being open.
        """
        from repro.obs import OBS
        from repro.obs.flight import FLIGHT
        handled = 0
        while handled < max_messages:
            try:
                message = self.queue.get_nowait()
            except queue_module.Empty:
                break
            except (OSError, ValueError, EOFError):  # pragma: no cover
                break
            (_, label, logical_pid, os_pid, origin_epoch, delta, kinds,
             events, flight, drops) = message
            handled += 1
            self.messages += 1
            self.worker_drops += drops
            self.seen_workers[label] = os_pid
            FLIGHT.absorb(label, flight)
            if not OBS.enabled:
                continue
            registry = OBS.registry
            self.merged_metrics += registry.merge_delta(delta, kinds)
            registry.merge_delta(delta, kinds, prefix=f"proc.{label}.")
            # The OS pid is parent-stamped (it rides every message), so
            # merged metric *names* stay free of run-varying pids.
            registry.set(f"proc.{label}.os_pid", os_pid)
            if drops:
                registry.inc("obs.telemetry.dropped", drops)
            if events:
                offset_us = (origin_epoch
                             - OBS.tracer.origin_epoch) * 1e6
                self.merged_events += OBS.tracer.merge_events(
                    events, pid=logical_pid, process_name=label,
                    offset_us=offset_us)
        if handled and OBS.enabled:
            OBS.registry.inc("obs.telemetry.messages", handled)
        return handled

    def stats(self) -> dict:
        return {
            "messages": self.messages,
            "merged_metrics": self.merged_metrics,
            "merged_events": self.merged_events,
            "worker_drops": self.worker_drops,
            "workers": dict(self.seen_workers),
        }

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        try:
            self.queue.cancel_join_thread()
            self.queue.close()
        except (OSError, ValueError):  # pragma: no cover - already gone
            pass
