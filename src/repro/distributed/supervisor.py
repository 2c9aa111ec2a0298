"""Cluster failure supervisor: detection, recovery, degraded mode.

LowDiff's cheap frequent checkpoints only pay off if something *notices*
failures and recovers from them; this module is that something.  It
closes the loop the paper assumes exists around its checkpointer:

* :class:`ClusterSupervisor` — per-worker heartbeat table on the shared
  :class:`~repro.storage.resilience.VirtualClock` with timeout-based
  detection over a declared failure-domain topology, driving the
  per-worker state machine (ARCHITECTURE.md §11)::

      HEALTHY ──miss──▶ SUSPECT ──confirm──▶ RECOVERING ─┬─▶ HEALTHY
                                                         └─▶ LOST (degraded)
      LOST ──machine back──▶ RESYNCING ──state copy──▶ HEALTHY

* :class:`SupervisedTrainingLoop` — drives a real trainer+checkpointer
  through a :class:`~repro.distributed.faults.WorkerFaultInjector`
  schedule and orchestrates recovery end-to-end: quiesce the
  checkpointing side **with a deadline** (a stuck backend raises
  :class:`~repro.storage.async_engine.DrainTimeout` instead of hanging
  recovery), pick the cheapest valid recovery source (surviving peer
  replica → Gemini memory tier → durable full+diff chain), retry with
  budgeted exponential backoff, and — when a worker misses its recovery
  deadline — continue training on the surviving world size (shards
  re-partitioned, allreduce rescaled) until the worker can be elastically
  re-admitted with a state re-sync from a healthy rank.

Everything runs on virtual time, so drills are fast and deterministic;
``supervisor.*`` metrics (detection latency, recovery attempts, time in
degraded mode, re-admit re-syncs) flow through the obs registry when
observability is enabled.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.distributed.faults import (
    FailureDomainTopology,
    WorkerCrashed,
    WorkerFaultInjector,
)
from repro.obs import OBS
from repro.obs.flight import FLIGHT
from repro.storage.async_engine import DrainTimeout
from repro.storage.resilience import VirtualClock
from repro.storage.serializer import CorruptCheckpointError
from repro.utils.validation import check_positive

#: Transient recovery failures worth retrying under the backoff budget;
#: ``FileNotFoundError`` (no checkpoint exists at all) is a durable fact
#: and propagates immediately.
_TRANSIENT_RECOVERY_ERRORS = (OSError, CorruptCheckpointError)


class WorkerStatus:
    """Per-worker supervisor states (the §11 state machine)."""

    HEALTHY = "healthy"
    SUSPECT = "suspect"
    RECOVERING = "recovering"
    LOST = "lost"            # missed its recovery deadline; world degraded
    RESYNCING = "resyncing"  # re-admission state copy in progress


@dataclass(frozen=True)
class SupervisorConfig:
    """Detection and recovery budgets (all in virtual seconds)."""

    heartbeat_timeout_s: float = 3.0
    #: Extra time a SUSPECT worker gets to prove liveness before it is
    #: declared failed (0 = suspicion confirms in the same poll).
    suspect_grace_s: float = 0.0
    #: Budget for restoring a failed worker before the survivors continue
    #: without it (degraded mode).
    recovery_deadline_s: float = 10.0
    #: Transient-error retries for one tier-recovery attempt.
    max_recovery_attempts: int = 3
    retry_backoff_s: float = 0.5
    backoff_multiplier: float = 2.0
    #: Deadline for draining the async checkpoint engine during quiesce
    #: (real seconds — the engine runs real threads).
    drain_timeout_s: float = 5.0
    #: Virtual cost of copying a full replica state to a restored or
    #: re-admitted worker (peer-memory transfer).
    resync_time_s: float = 1.0

    def __post_init__(self):
        check_positive("heartbeat_timeout_s", self.heartbeat_timeout_s)
        check_positive("suspect_grace_s", self.suspect_grace_s, strict=False)
        check_positive("recovery_deadline_s", self.recovery_deadline_s)
        if self.max_recovery_attempts < 1:
            raise ValueError("max_recovery_attempts must be >= 1")
        check_positive("retry_backoff_s", self.retry_backoff_s)
        if self.backoff_multiplier < 1.0:
            raise ValueError("backoff_multiplier must be >= 1.0")
        check_positive("drain_timeout_s", self.drain_timeout_s)
        check_positive("resync_time_s", self.resync_time_s, strict=False)


@dataclass(frozen=True)
class DetectionEvent:
    """One worker declared failed by the heartbeat detector."""

    time_s: float
    rank: int
    host: str
    rack: str
    #: Time since the worker last proved liveness — the paper-relevant
    #: detection latency (bounded by timeout + grace + one poll period).
    latency_s: float


@dataclass
class RecoveryEvent:
    """One orchestrated recovery (possibly covering several workers)."""

    time_s: float
    ranks: tuple[int, ...]
    #: Source tier that served each restored rank: ``healed`` (partition/
    #: hang cleared, state never lost), ``peer`` (copied from a surviving
    #: replica), ``memory`` (Gemini CPU tier), ``storage`` (durable
    #: full+diff chain).  Ranks that missed the deadline map to
    #: ``degraded``.
    sources: dict[int, str] = field(default_factory=dict)
    attempts: int = 0
    duration_s: float = 0.0
    detection_latency_s: float = 0.0
    #: Step the whole job rolled back to (tier recovery only).
    rolled_back_to: int | None = None
    reprocessed_iterations: int = 0
    drain_timed_out: bool = False


@dataclass
class DegradedInterval:
    """A stretch of training on a reduced world size."""

    start_s: float
    ranks: tuple[int, ...]
    end_s: float | None = None

    @property
    def duration_s(self) -> float | None:
        return None if self.end_s is None else self.end_s - self.start_s


@dataclass
class SupervisorReport:
    """Outcome of one supervised run."""

    target_iterations: int
    iterations_executed: int = 0
    aborted_steps: int = 0        # steps killed inside the collective
    stalled_ticks: int = 0        # ticks the group blocked on a dead peer
    reprocessed_iterations: int = 0
    detections: list = field(default_factory=list)
    recoveries: list = field(default_factory=list)
    degraded_intervals: list = field(default_factory=list)
    resyncs: int = 0
    drain_timeouts: int = 0
    degraded_time_s: float = 0.0
    degraded_steps: int = 0
    wall_time_s: float = 0.0
    #: Flight-recorder post-mortem paths dumped on worker loss (one per
    #: degraded-mode entry; written only when observability is enabled).
    flight_dumps: list = field(default_factory=list)

    @property
    def detection_latencies(self) -> list[float]:
        return [event.latency_s for event in self.detections]

    @property
    def recovered_by_source(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for event in self.recoveries:
            for source in event.sources.values():
                out[source] = out.get(source, 0) + 1
        return out


class ClusterSupervisor:
    """Heartbeat table + worker state machine over a failure topology."""

    def __init__(self, num_workers: int,
                 topology: FailureDomainTopology | None = None,
                 config: SupervisorConfig | None = None,
                 clock: VirtualClock | None = None):
        if num_workers < 1:
            raise ValueError(f"num_workers must be >= 1, got {num_workers}")
        self.num_workers = int(num_workers)
        self.topology = topology or FailureDomainTopology.regular(num_workers)
        if self.topology.num_workers != self.num_workers:
            raise ValueError(
                f"topology covers {self.topology.num_workers} workers, "
                f"supervisor has {self.num_workers}")
        self.config = config or SupervisorConfig()
        self.clock = clock or VirtualClock()
        now = self.clock.now
        self.last_beat: dict[int, float] = {
            rank: now for rank in range(self.num_workers)}
        self.status: dict[int, str] = {
            rank: WorkerStatus.HEALTHY for rank in range(self.num_workers)}
        #: ``(time, rank, old_status, new_status)`` audit trail.
        self.transitions: list[tuple[float, int, str, str]] = []
        self.detections: list[DetectionEvent] = []
        self.last_detection: dict[int, DetectionEvent] = {}

    # Heartbeats -----------------------------------------------------------
    def heartbeat(self, rank: int) -> None:
        self.last_beat[rank] = self.clock.now
        if self.status[rank] == WorkerStatus.SUSPECT:
            # Liveness re-proven before confirmation: back to healthy.
            self._set_status(rank, WorkerStatus.HEALTHY)

    def heartbeat_age(self, rank: int) -> float:
        return self.clock.now - self.last_beat[rank]

    # State machine --------------------------------------------------------
    def _set_status(self, rank: int, status: str) -> None:
        old = self.status[rank]
        if old == status:
            return
        self.status[rank] = status
        self.transitions.append((self.clock.now, rank, old, status))
        FLIGHT.record("supervisor", f"transition:{old}->{status}", rank=rank,
                      at=self.clock.now)
        if OBS.enabled:
            OBS.registry.counter(
                f"supervisor.transitions.{old}_to_{status}").inc()
            OBS.tracer.instant("worker-transition", "supervisor",
                               {"rank": rank, "from": old, "to": status})

    def poll(self) -> list[int]:
        """Run detection; returns ranks newly declared failed.

        A worker whose heartbeat age *exceeds* the timeout (strictly — a
        beat arriving exactly at the boundary is still on time) turns
        SUSPECT; once the age also exceeds ``timeout + suspect_grace`` the
        suspicion is confirmed and the worker enters RECOVERING.
        """
        config = self.config
        now = self.clock.now
        failed: list[int] = []
        for rank in range(self.num_workers):
            if self.status[rank] not in (WorkerStatus.HEALTHY,
                                         WorkerStatus.SUSPECT):
                continue
            age = now - self.last_beat[rank]
            if age <= config.heartbeat_timeout_s:
                continue
            if self.status[rank] == WorkerStatus.HEALTHY:
                self._set_status(rank, WorkerStatus.SUSPECT)
            if age <= config.heartbeat_timeout_s + config.suspect_grace_s:
                continue
            self._set_status(rank, WorkerStatus.RECOVERING)
            event = DetectionEvent(
                time_s=now, rank=rank,
                host=self.topology.host(rank),
                rack=self.topology.rack(rank),
                latency_s=age,
            )
            self.detections.append(event)
            self.last_detection[rank] = event
            failed.append(rank)
            if OBS.enabled:
                OBS.registry.counter("supervisor.detections").inc()
                OBS.registry.observe("supervisor.detection.latency_s", age)
                OBS.tracer.instant(
                    "worker-failed", "supervisor",
                    {"rank": rank, "host": event.host, "rack": event.rack,
                     "latency_s": age})
        return failed

    def mark_recovered(self, rank: int) -> None:
        self.last_beat[rank] = self.clock.now
        self._set_status(rank, WorkerStatus.HEALTHY)

    def mark_lost(self, rank: int) -> None:
        self._set_status(rank, WorkerStatus.LOST)

    def mark_resyncing(self, rank: int) -> None:
        self._set_status(rank, WorkerStatus.RESYNCING)

    def lost_ranks(self) -> list[int]:
        return [rank for rank, status in self.status.items()
                if status == WorkerStatus.LOST]

    def refresh(self, ranks) -> None:
        """Reset heartbeat ages after a clock jump the workers were not
        responsible for (quiesce, backoff waits)."""
        now = self.clock.now
        for rank in ranks:
            self.last_beat[rank] = now

    def stats(self) -> dict:
        return {
            "status": dict(self.status),
            "detections": len(self.detections),
            "transitions": len(self.transitions),
        }


class SupervisedTrainingLoop:
    """Drive a trainer+checkpointer under injected worker faults.

    Parameters
    ----------
    trainer:
        A :class:`~repro.distributed.trainer.DataParallelTrainer`.  The
        loop registers the injector's collective gate on it and manages
        worker membership through ``deactivate_worker`` /
        ``reactivate_worker`` / ``resync_worker``.
    checkpointer_factory:
        ``(store) -> Checkpointer`` (:mod:`repro.core.checkpointer`).
        Called at construction and after every orchestrated recovery
        (recovery quiesces the old instance; chains restart cleanly at
        the resumed step via ``attach(resume_from=...)``).
    store:
        The durable :class:`~repro.storage.checkpoint_store.CheckpointStore`
        — the recovery source of last resort.
    injector / supervisor:
        Must share one :class:`VirtualClock` (checked).
    iter_time_s:
        Virtual duration of one healthy full-world iteration.
    """

    def __init__(self, trainer, checkpointer_factory, store,
                 injector: WorkerFaultInjector,
                 supervisor: ClusterSupervisor | None = None,
                 config: SupervisorConfig | None = None,
                 iter_time_s: float = 1.0,
                 recovery_parallel: bool = False):
        check_positive("iter_time_s", iter_time_s)
        self.trainer = trainer
        self.checkpointer_factory = checkpointer_factory
        self.store = store
        self.injector = injector
        self.clock = injector.clock
        self.supervisor = supervisor or ClusterSupervisor(
            trainer.num_workers, topology=injector.topology,
            config=config, clock=self.clock)
        if self.supervisor.clock is not self.clock:
            raise ValueError("supervisor and injector must share one clock")
        self.config = self.supervisor.config
        self.iter_time_s = float(iter_time_s)
        self.recovery_parallel = bool(recovery_parallel)
        self._open_degraded: DegradedInterval | None = None
        self.checkpointer = checkpointer_factory(store)
        self.checkpointer.attach(trainer)
        trainer.register_collective_gate(injector.collective_gate)

    # Main loop ------------------------------------------------------------
    def run(self, target_iterations: int) -> SupervisorReport:
        if target_iterations < 1:
            raise ValueError("target_iterations must be >= 1")
        report = SupervisorReport(target_iterations=target_iterations)
        trainer, injector, supervisor = \
            self.trainer, self.injector, self.supervisor
        while trainer.iteration < target_iterations:
            iteration = trainer.iteration
            injector.tick(iteration)
            self._apply_replica_wipes()
            active = list(trainer.active_ranks)
            responsive = [r for r in active if injector.is_responsive(r)]
            if len(responsive) == len(active):
                # Step time scales with the busiest shard load (degraded
                # mode) and any live straggler's dilation.
                self.clock.sleep(self.iter_time_s
                                 * trainer.max_shards_per_worker()
                                 * injector.step_dilation(active))
                try:
                    trainer.step()
                    report.iterations_executed += 1
                    if trainer.is_degraded:
                        report.degraded_steps += 1
                except WorkerCrashed:
                    # Died inside the collective: the step aborted before
                    # any state mutated; survivors just re-run it after
                    # recovery.
                    report.aborted_steps += 1
                for rank in active:
                    if injector.is_responsive(rank):
                        supervisor.heartbeat(rank)
            else:
                # The synchronous collective is blocked on an unreachable
                # peer: wall time passes, no progress, survivors keep
                # heartbeating.
                self.clock.sleep(self.iter_time_s)
                report.stalled_ticks += 1
                for rank in responsive:
                    supervisor.heartbeat(rank)
            failed = supervisor.poll()
            if failed:
                self._orchestrate(failed, report)
            self._try_readmit(report)
        self._close_degraded(report)
        self.checkpointer.finalize()
        report.detections = list(supervisor.detections)
        report.wall_time_s = self.clock.now
        return report

    # Recovery orchestration ----------------------------------------------
    def _orchestrate(self, failed: list[int], report: SupervisorReport) -> None:
        """Quiesce, restore from the cheapest valid source, or degrade."""
        config = self.config
        started = self.clock.now
        pre_failure_iteration = self.trainer.iteration
        event = RecoveryEvent(
            time_s=started,
            ranks=tuple(sorted(failed)),
            detection_latency_s=max(
                (self.supervisor.last_detection[r].latency_s for r in failed
                 if r in self.supervisor.last_detection), default=0.0),
        )
        if OBS.enabled:
            OBS.registry.counter("supervisor.recovery.events").inc()
        event.drain_timed_out = not self._quiesce(report)
        remaining = set(failed)
        backoff = config.retry_backoff_s
        while remaining:
            survivors = [r for r in self.trainer.active_ranks
                         if r not in remaining]
            # (a) hang/partition healed (possibly mid-recovery, while the
            # clock advanced through quiesce/backoff): state never died.
            for rank in sorted(remaining):
                if not self.injector.is_crashed(rank) \
                        and self.injector.is_responsive(rank):
                    event.sources[rank] = "healed"
                    event.attempts += 1
                    self.supervisor.mark_recovered(rank)
                    remaining.discard(rank)
            if not remaining:
                break
            # (b) crashed workers whose machine is back: rebuild replicas.
            restorable = [r for r in sorted(remaining)
                          if self.injector.is_crashed(r)
                          and self.injector.can_restore(r)]
            if restorable:
                event.attempts += 1
                survivors = [r for r in self.trainer.active_ranks
                             if r not in remaining]
                if survivors:
                    # Cheapest source: any surviving replica (synchronous
                    # data parallelism keeps them bit-identical).
                    self.clock.sleep(config.resync_time_s)
                    for rank in restorable:
                        self.trainer.resync_worker(rank,
                                                   sync_from=survivors[0])
                        event.sources[rank] = "peer"
                else:
                    # Every replica died: fall back to checkpoint tiers.
                    source, step = self._tier_recover(event)
                    event.rolled_back_to = step
                    event.reprocessed_iterations = \
                        pre_failure_iteration - step
                    for rank in restorable:
                        event.sources[rank] = source
                for rank in restorable:
                    self.injector.heal(rank)
                    self.supervisor.mark_recovered(rank)
                    remaining.discard(rank)
                continue
            # (c) nothing restorable right now: burn backoff budget, then
            # degrade onto the survivors.
            elapsed = self.clock.now - started
            if elapsed >= config.recovery_deadline_s:
                if survivors:
                    self._enter_degraded(sorted(remaining), report)
                    for rank in sorted(remaining):
                        event.sources[rank] = "degraded"
                    remaining.clear()
                    break
                self._check_total_loss_restorable()
            self.clock.sleep(backoff)
            event.attempts += 1
            backoff *= config.backoff_multiplier
        # The old checkpointer was quiesced; attach a fresh one at the
        # resumed step so the diff chain restarts cleanly past anything
        # lost with the failure.
        self.trainer.clear_checkpoint_hooks()
        self.checkpointer = self.checkpointer_factory(self.store)
        self.checkpointer.attach(self.trainer,
                                 resume_from=self.trainer.iteration)
        # The group as a whole was quiesced — nobody's silence during the
        # recovery window is evidence of failure.
        self.supervisor.refresh(self.trainer.active_ranks)
        event.duration_s = self.clock.now - started
        report.reprocessed_iterations += event.reprocessed_iterations
        report.recoveries.append(event)
        if OBS.enabled:
            registry = OBS.registry
            registry.counter("supervisor.recovery.attempts").inc(event.attempts)
            registry.observe("supervisor.recovery.duration_s", event.duration_s)
            for source in set(event.sources.values()):
                registry.counter(f"supervisor.recovery.source.{source}").inc(
                    sum(1 for s in event.sources.values() if s == source))

    def _quiesce(self, report: SupervisorReport) -> bool:
        """Deadline-bounded stop of the checkpointing side.

        Returns ``False`` when the drain deadline expired (in-flight
        writes were discarded — recovery sees only the committed
        full+chain prefix).
        """
        try:
            self.checkpointer.quiesce(timeout=self.config.drain_timeout_s)
            return True
        except DrainTimeout:
            report.drain_timeouts += 1
            if OBS.enabled:
                OBS.registry.counter("supervisor.quiesce.drain_timeouts").inc()
                OBS.tracer.instant("quiesce-drain-timeout", "supervisor", {})
            return False

    def _tier_recover(self, event: RecoveryEvent) -> tuple[str, int]:
        """Whole-job rollback from the checkpoint tiers, with budgeted
        retries on transient storage errors.  Returns ``(tier, step)``."""
        config = self.config
        target = self.trainer.workers[self.trainer.active_ranks[0]]
        attempt = 0
        backoff = config.retry_backoff_s
        while True:
            attempt += 1
            event.attempts += 1
            try:
                self.checkpointer.recover(target.model, target.optimizer,
                                          parallel=self.recovery_parallel)
                break
            except _TRANSIENT_RECOVERY_ERRORS:
                if attempt >= config.max_recovery_attempts:
                    raise
                self.clock.sleep(backoff)
                backoff *= config.backoff_multiplier
        step = target.optimizer.step_count
        self.trainer.load_state(target.model.state_dict(),
                                target.optimizer.state_dict(),
                                iteration=step)
        # Broadcasting the restored state to every replica costs the same
        # wire time as a peer re-sync.
        self.clock.sleep(config.resync_time_s)
        return self.checkpointer.last_recovery_tier, step

    def _check_total_loss_restorable(self) -> None:
        """Total-cluster loss: recovery must wait for a machine to return;
        refuse to wait forever."""
        up_times = [self.injector.crashed.get(rank, 0.0)
                    for rank in self.trainer.active_ranks]
        if all(t == float("inf") for t in up_times):
            raise RuntimeError(
                "entire cluster lost with no restorable worker: every "
                "machine is down indefinitely")

    # Degraded mode --------------------------------------------------------
    def _enter_degraded(self, ranks: list[int],
                        report: SupervisorReport) -> None:
        for rank in ranks:
            self.trainer.deactivate_worker(rank)
            self.supervisor.mark_lost(rank)
        if self._open_degraded is None:
            self._open_degraded = DegradedInterval(
                start_s=self.clock.now, ranks=tuple(ranks))
        else:
            self._open_degraded = DegradedInterval(
                start_s=self._open_degraded.start_s,
                ranks=tuple(sorted({*self._open_degraded.ranks, *ranks})))
        if OBS.enabled:
            OBS.registry.counter("supervisor.degraded.entries").inc()
            OBS.registry.set("supervisor.degraded.lost_workers",
                             len(self.supervisor.lost_ranks()))
            OBS.tracer.instant("degraded-enter", "supervisor",
                               {"ranks": list(ranks)})
            # Worker loss is a post-mortem moment: dump the flight ring so
            # the last transitions/recovery attempts before the loss are
            # on disk even if the run dies later.  Gated on obs so drills
            # in tests don't litter the tmpdir.
            try:
                path = FLIGHT.dump(
                    reason=f"workers lost, degraded mode: ranks {ranks}")
            except OSError:  # pragma: no cover - dump dir unwritable
                path = None
            if path is not None:
                report.flight_dumps.append(path)
                OBS.registry.inc("supervisor.flight.dumps")

    def _try_readmit(self, report: SupervisorReport) -> None:
        """Elastically re-admit LOST workers whose machine returned."""
        for rank in self.supervisor.lost_ranks():
            if not self.injector.can_restore(rank):
                continue
            self.supervisor.mark_resyncing(rank)
            # State copy from a healthy rank over the wire.
            self.clock.sleep(self.config.resync_time_s)
            self.trainer.reactivate_worker(rank)
            self.injector.heal(rank)
            self.supervisor.mark_recovered(rank)
            report.resyncs += 1
            if OBS.enabled:
                OBS.registry.counter("supervisor.readmit.resyncs").inc()
                OBS.tracer.instant("readmit", "supervisor", {"rank": rank})
        if self._open_degraded is not None and not self.trainer.is_degraded:
            self._close_degraded(report)

    def _close_degraded(self, report: SupervisorReport) -> None:
        interval = self._open_degraded
        if interval is None:
            return
        interval.end_s = self.clock.now
        report.degraded_intervals.append(interval)
        report.degraded_time_s += interval.duration_s
        self._open_degraded = None
        if OBS.enabled:
            OBS.registry.observe("supervisor.degraded.time_s",
                                 interval.duration_s)
            OBS.registry.set("supervisor.degraded.lost_workers", 0)
            OBS.tracer.instant("degraded-exit", "supervisor",
                               {"duration_s": interval.duration_s})

    # Plumbing -------------------------------------------------------------
    def _apply_replica_wipes(self) -> None:
        wipes = self.injector.take_replica_wipes()
        if not wipes:
            return
        lose = getattr(self.checkpointer, "lose_memory_tier", None)
        if lose is not None:
            for _ in range(wipes):
                lose()
