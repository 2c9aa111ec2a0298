"""Unified observability: metrics, tracing, and profiling for every layer.

One process-global switchboard (:data:`OBS`) holds the active
:class:`~repro.obs.metrics.MetricsRegistry` and
:class:`~repro.obs.trace.Tracer`.  Observability is **off by default**;
instrumented hot paths guard every touch with::

    from repro.obs import OBS
    ...
    if OBS.enabled:
        OBS.tracer.begin("allreduce", "train")

so a disabled run pays one attribute load + branch per site — no calls,
no allocation (pinned by ``tests/test_obs.py::TestDisabledMode``; the
end-to-end cost is every ``iter_ms`` / ``stall_ms_per_iter`` row of
``BENCHMARK.json``, which runs with observability off).

Always-on telemetry that predates this layer (``CommStats``, the
``compress.kway_merge.*`` route counters) is backed by registries from
this package whether or not tracing is enabled — counting a few integers
per collective is free at the scales that matter; emitting trace events
is not.

``OBS`` is per interpreter, and only the parent ever enables it.  A
spawned persist worker reports its stage times in the messages it already
sends its engine, and the engine's collector records them here.

Typical capture::

    from repro import obs

    with obs.capture() as active:
        run_training()
        active.tracer.save("trace.json")       # chrome://tracing / Perfetto
        snapshot = active.registry.snapshot()  # {metric: value}

Render either artifact with ``python -m repro.obs.report``.
"""

from __future__ import annotations

from repro.obs.metrics import (
    DEFAULT_QUANTILES,
    DEFAULT_TIME_BUCKETS_S,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    quantile_from_snapshot,
)
from repro.obs.trace import Tracer
from repro.utils.exports import exports

__all__ = [
    "OBS",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "Tracer",
    "DEFAULT_TIME_BUCKETS_S",
    "DEFAULT_QUANTILES",
    "quantile_from_snapshot",
    "enabled",
    "enable",
    "disable",
    "registry",
    "tracer",
    "span",
    "capture",
]


class _ObsState:
    """The process-global observability switchboard."""

    __slots__ = ("enabled", "registry", "tracer")

    def __init__(self):
        self.enabled = False
        self.registry = MetricsRegistry()
        self.tracer = Tracer()


OBS = _ObsState()


def enabled() -> bool:
    return OBS.enabled


def registry() -> MetricsRegistry:
    return OBS.registry


def tracer() -> Tracer:
    return OBS.tracer


def enable(tracer: Tracer | None = None,
           registry: MetricsRegistry | None = None) -> _ObsState:
    """Turn instrumentation on, optionally swapping in fresh sinks."""
    if registry is not None:
        OBS.registry = registry
    if tracer is not None:
        OBS.tracer = tracer
    OBS.enabled = True
    return OBS


def disable() -> None:
    OBS.enabled = False


class _NoopSpan:
    """Shared do-nothing context manager — the disabled fast path."""

    __slots__ = ()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


NOOP_SPAN = _NoopSpan()


def span(name: str, category: str | None = None, args: dict | None = None):
    """A tracer span when enabled, the shared no-op singleton when not."""
    if OBS.enabled:
        return OBS.tracer.span(name, category, args)
    return NOOP_SPAN


class capture:
    """Enable observability with fresh sinks for a ``with`` block.

    Restores the previous switchboard state on exit, so nested tooling
    (tests, benchmarks) cannot leak a tracer into later code.  Yields the
    active :data:`OBS` state; read ``.tracer`` / ``.registry`` off it.
    """

    def __init__(self, clock=None, limit: int | None = None):
        self._clock = clock
        self._limit = limit
        self._saved = None

    def __enter__(self) -> _ObsState:
        self._saved = (OBS.enabled, OBS.registry, OBS.tracer)
        OBS.registry = MetricsRegistry()
        OBS.tracer = Tracer(clock=self._clock, limit=self._limit)
        OBS.enabled = True
        return OBS

    def __exit__(self, *exc) -> None:
        OBS.enabled, OBS.registry, OBS.tracer = self._saved
        self._saved = None


# The flight recorder and the SLO targets load on first use: a job that
# never dumps a post-mortem or scores an SLO never imports them.
exports(globals(), {
    ".flight": "FLIGHT FlightRecorder",
    ".slo": "DEFAULT_TARGETS SloResult SloTarget SloWatchdog "
            "evaluate_snapshot load_slo_config",
})
