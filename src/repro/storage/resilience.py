"""Resilient storage: retry/backoff, circuit breaking, tiered fallback.

The paper assumes reliable local SSDs; deployed checkpoint paths see
transient I/O errors, torn writes, and whole-tier outages (FastPersist's
and Gemini's motivation).  This module hardens the backend layer without
touching the checkpoint logic above it:

* :class:`RetryPolicy` — bounded retries with exponential backoff.  All
  waiting happens on a :class:`VirtualClock` (no sleeping), so tests and
  drills run at full speed while still accounting the time a real system
  would have spent backing off;
* :class:`CircuitBreaker` — trips open after consecutive failures so a
  dead tier is not hammered on every write; half-opens after a cooldown
  to probe for recovery;
* :class:`ResilientBackend` — wraps any backend with both of the above;
* :class:`TieredBackend` — Gemini-style degradation: writes that the
  primary tier cannot take (retries exhausted or circuit open) land on a
  fallback tier (e.g. CPU memory behind a failing SSD) and are re-synced
  to the primary once it recovers.

Only transient transport errors (``OSError``/``IOError``) are retried;
``FileNotFoundError`` (a durable fact) and
:class:`~repro.storage.serializer.CorruptCheckpointError` (re-reading
rotten bytes cannot help) propagate immediately.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.obs import OBS
from repro.storage.backends import StorageBackend, WrappingBackend
from repro.utils.validation import check_positive


class CircuitOpenError(IOError):
    """Raised when an operation is refused because the circuit is open."""


class VirtualClock:
    """Monotonic virtual time; ``sleep`` advances it instead of blocking."""

    def __init__(self) -> None:
        self.now = 0.0

    def sleep(self, seconds: float) -> None:
        self.now += max(0.0, float(seconds))


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded retries with exponential backoff.

    ``delay(attempt)`` is the backoff after the ``attempt``-th failure
    (1-based): ``base_delay_s * multiplier**(attempt-1)``, capped at
    ``max_delay_s``.
    """

    max_attempts: int = 3
    base_delay_s: float = 0.05
    multiplier: float = 2.0
    max_delay_s: float = 5.0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1, got {self.max_attempts}")
        check_positive("base_delay_s", self.base_delay_s, strict=False)
        check_positive("multiplier", self.multiplier)
        check_positive("max_delay_s", self.max_delay_s, strict=False)

    def delay(self, attempt: int) -> float:
        if attempt < 1:
            raise ValueError(f"attempt is 1-based, got {attempt}")
        return min(self.max_delay_s,
                   self.base_delay_s * self.multiplier ** (attempt - 1))

    def total_backoff(self) -> float:
        """Worst-case backoff a single operation can accrue."""
        return sum(self.delay(a) for a in range(1, self.max_attempts))


class CircuitBreaker:
    """Classic closed → open → half-open breaker over virtual time.

    ``failure_threshold`` consecutive failures trip it open; after
    ``reset_timeout_s`` of virtual time it half-opens and admits a single
    probe — success closes it, failure re-opens it immediately.
    """

    CLOSED, OPEN, HALF_OPEN = "closed", "open", "half_open"

    def __init__(self, failure_threshold: int = 5, reset_timeout_s: float = 30.0,
                 clock: VirtualClock | None = None):
        if failure_threshold < 1:
            raise ValueError(
                f"failure_threshold must be >= 1, got {failure_threshold}")
        check_positive("reset_timeout_s", reset_timeout_s)
        self.failure_threshold = int(failure_threshold)
        self.reset_timeout_s = float(reset_timeout_s)
        self.clock = clock or VirtualClock()
        self.state = self.CLOSED
        self.consecutive_failures = 0
        self.trip_count = 0
        self._opened_at = 0.0

    def _transition(self, new_state: str) -> None:
        old, self.state = self.state, new_state
        if old != new_state and OBS.enabled:
            OBS.registry.counter(
                f"storage.breaker.transitions.{old}_to_{new_state}").inc()
            OBS.tracer.instant("breaker-transition", "storage",
                               {"from": old, "to": new_state})

    def allow(self) -> bool:
        """Whether an operation may proceed right now."""
        if self.state == self.OPEN:
            if self.clock.now - self._opened_at >= self.reset_timeout_s:
                self._transition(self.HALF_OPEN)
                return True
            return False
        return True

    def record_success(self) -> None:
        self.consecutive_failures = 0
        self._transition(self.CLOSED)

    def record_failure(self) -> None:
        self.consecutive_failures += 1
        if self.state == self.HALF_OPEN or \
                self.consecutive_failures >= self.failure_threshold:
            if self.state != self.OPEN:
                self.trip_count += 1
            self._transition(self.OPEN)
            self._opened_at = self.clock.now


class ResilientBackend(WrappingBackend):
    """Retry + circuit-break any backend's reads and writes.

    Transient ``OSError``/``IOError`` failures are retried up to the
    policy's budget, backing off on the shared virtual clock;
    ``FileNotFoundError`` and corruption errors pass through untouched.
    An open circuit fails fast with :class:`CircuitOpenError` without
    touching the wrapped backend.
    """

    #: Errors never retried: durable facts, not transport flakiness.
    _FATAL = (FileNotFoundError,)

    def __init__(self, inner: StorageBackend, retry: RetryPolicy | None = None,
                 breaker: CircuitBreaker | None = None,
                 clock: VirtualClock | None = None):
        super().__init__(inner)
        self.retry = retry or RetryPolicy()
        self.clock = clock or (breaker.clock if breaker is not None
                               else VirtualClock())
        self.breaker = breaker
        self.retries = 0
        self.failed_operations = 0
        self.backoff_time_s = 0.0

    def _attempt(self, operation):
        if self.breaker is not None and not self.breaker.allow():
            raise CircuitOpenError("circuit open: backend unavailable")
        failures = 0
        while True:
            try:
                result = operation()
            except self._FATAL:
                raise
            except OSError:
                failures += 1
                if self.breaker is not None:
                    self.breaker.record_failure()
                if failures >= self.retry.max_attempts:
                    self.failed_operations += 1
                    if OBS.enabled:
                        OBS.registry.counter(
                            "storage.retry.exhausted").inc()
                    raise
                delay = self.retry.delay(failures)
                self.clock.sleep(delay)
                self.backoff_time_s += delay
                self.retries += 1
                if OBS.enabled:
                    OBS.registry.counter("storage.retry.retries").inc()
                    OBS.registry.observe("storage.retry.backoff.s", delay)
                if self.breaker is not None and not self.breaker.allow():
                    self.failed_operations += 1
                    raise CircuitOpenError(
                        "circuit opened while retrying") from None
            else:
                if self.breaker is not None:
                    self.breaker.record_success()
                return result

    def _write(self, key: str, data: bytes) -> None:
        self._attempt(lambda: self.inner.write(key, data))

    def _append(self, key: str, data: bytes) -> None:
        self._attempt(lambda: self.inner.append(key, data))

    def _read(self, key: str) -> bytes:
        return self._attempt(lambda: self.inner.read(key))

    def resilience_stats(self) -> dict:
        stats = {
            "retries": self.retries,
            "failed_operations": self.failed_operations,
            "backoff_time_s": self.backoff_time_s,
        }
        if self.breaker is not None:
            stats["breaker_state"] = self.breaker.state
            stats["breaker_trips"] = self.breaker.trip_count
        return stats


class TieredBackend(StorageBackend):
    """Primary tier with automatic degradation to a fallback tier.

    Writes go to the primary through retries and a circuit breaker; when
    the primary cannot take a write (retries exhausted or circuit open),
    the bytes land on the fallback tier instead — checkpointing never
    stalls on a sick SSD, mirroring Gemini's CPU-memory tier.  Keys
    written to the fallback are tracked and re-synced to the primary as
    soon as a primary write succeeds again (or explicitly via
    :meth:`resync`).  Reads prefer whichever tier holds the freshest copy.
    """

    def __init__(self, primary: StorageBackend, fallback: StorageBackend,
                 retry: RetryPolicy | None = None,
                 breaker: CircuitBreaker | None = None,
                 clock: VirtualClock | None = None):
        super().__init__()
        self.clock = clock or VirtualClock()
        self.breaker = breaker or CircuitBreaker(clock=self.clock)
        if self.breaker.clock is not self.clock:
            self.breaker.clock = self.clock
        self.primary = ResilientBackend(primary, retry=retry,
                                        breaker=self.breaker, clock=self.clock)
        self.fallback = fallback
        self.fallback_writes = 0
        self.resynced_keys = 0
        self._pending_sync: set[str] = set()

    # Introspection -----------------------------------------------------------
    @property
    def degraded(self) -> bool:
        """True while writes are landing on the fallback tier."""
        return self.breaker.state != CircuitBreaker.CLOSED

    def pending_sync_keys(self) -> list[str]:
        return sorted(self._pending_sync)

    # Core operations ---------------------------------------------------------
    def _write(self, key: str, data: bytes) -> None:
        try:
            self.primary.write(key, data)
        except (OSError,) as primary_error:
            try:
                self.fallback.write(key, data)
            except OSError as fallback_error:
                raise IOError(
                    f"both storage tiers failed for {key}: "
                    f"primary={primary_error}, fallback={fallback_error}"
                ) from fallback_error
            self._pending_sync.add(key)
            self.fallback_writes += 1
            if OBS.enabled:
                OBS.registry.counter("storage.tier.fallback_writes").inc()
                OBS.tracer.instant("tier-degrade", "storage", {"key": key})
        else:
            self._pending_sync.discard(key)
            if self._pending_sync:
                # Primary proved healthy again: opportunistically drain the
                # backlog accumulated while degraded.
                self.resync()

    def _read(self, key: str) -> bytes:
        # A pending key's freshest copy lives on the fallback tier.
        if key in self._pending_sync:
            return self.fallback.read(key)
        try:
            return self.primary.read(key)
        except FileNotFoundError:
            return self.fallback.read(key)
        except OSError:
            if self.fallback.exists(key):
                return self.fallback.read(key)
            raise

    def resync(self) -> int:
        """Copy fallback-resident keys back to a recovered primary.

        Returns the number of keys promoted; stops early (keys stay
        pending) if the primary fails again mid-drain.
        """
        promoted = 0
        for key in sorted(self._pending_sync):
            try:
                self.primary.write(key, self.fallback.read(key))
            except OSError:
                break
            self._pending_sync.discard(key)
            self.fallback.delete(key)
            promoted += 1
        self.resynced_keys += promoted
        if promoted and OBS.enabled:
            OBS.registry.counter("storage.tier.resynced_keys").inc(promoted)
            OBS.tracer.instant("tier-resync", "storage",
                               {"promoted": promoted})
        return promoted

    # Namespace operations ----------------------------------------------------
    def exists(self, key: str) -> bool:
        return self.primary.exists(key) or self.fallback.exists(key)

    def delete(self, key: str) -> None:
        self.primary.delete(key)
        self.fallback.delete(key)
        self._pending_sync.discard(key)

    def list_keys(self, prefix: str = "") -> list[str]:
        merged = set(self.primary.list_keys(prefix))
        merged.update(self.fallback.list_keys(prefix))
        return sorted(merged)

    def purge_debris(self) -> int:
        return self.primary.purge_debris() + self.fallback.purge_debris()

    def resilience_stats(self) -> dict:
        stats = {f"primary_{k}": v
                 for k, v in self.primary.resilience_stats().items()}
        stats.update({
            "fallback_writes": self.fallback_writes,
            "pending_sync": len(self._pending_sync),
            "resynced_keys": self.resynced_keys,
            "degraded": self.degraded,
        })
        return stats


def collect_resilience_stats(backend: StorageBackend) -> dict:
    """Merge ``resilience_stats()`` from every layer of a backend stack.

    Walks ``inner``/``primary``/``fallback`` attributes so a drill can
    report retry counts, breaker trips, fallback writes and injected
    faults no matter how the decorators are nested.
    """
    stats: dict = {}
    seen: set[int] = set()
    frontier = [backend]
    while frontier:
        layer = frontier.pop()
        if id(layer) in seen or layer is None:
            continue
        seen.add(id(layer))
        collector = getattr(layer, "resilience_stats", None)
        if callable(collector):
            for key, value in collector().items():
                if key in stats and isinstance(value, (int, float)) \
                        and not isinstance(value, bool):
                    stats[key] += value
                else:
                    stats[key] = value
        for attr in ("inner", "primary", "fallback"):
            frontier.append(getattr(layer, attr, None))
    return stats
