"""LowDiff in the performance model (Algorithm 1 + §IV).

Per iteration the training side pays only the zero-copy enqueue (an IPC
handle, ~hundreds of microseconds); the checkpointing side offloads the
synchronized compressed gradient over PCIe and, every ``batch_size``
gradients, writes one batched differential to the SSD — all asynchronous.
Stalls appear only when a channel's sustained demand exceeds capacity
(queue backpressure, bounded by host-memory budget) or when the periodic
full snapshot's non-overlapped part blocks.
"""

from __future__ import annotations

from repro.core.config import CheckpointConfig
from repro.sim.strategies.base import CheckpointStrategy, FailureProfile


class LowDiffStrategy(CheckpointStrategy):
    name = "lowdiff"

    def __init__(self, full_every: int = 20, batch_size: int = 2,
                 diff_every: int = 1, zero_copy: bool = True,
                 backlog_budget_s: float = 2.0, remote_storage: bool = False,
                 async_engine: bool = False, retention=None,
                 persist_workers: int = 1, shards: int = 1,
                 shard_concurrency: int = 4):
        super().__init__()
        if full_every < 1 or batch_size < 1 or diff_every < 1:
            raise ValueError("checkpoint intervals must be >= 1")
        if persist_workers < 1:
            raise ValueError(
                f"persist_workers must be >= 1, got {persist_workers}")
        if shards < 1:
            raise ValueError(f"shards must be >= 1, got {shards}")
        if shard_concurrency < 1:
            raise ValueError(
                f"shard_concurrency must be >= 1, got {shard_concurrency}")
        self.remote_storage = bool(remote_storage)
        self.full_every = int(full_every)
        self.batch_size = int(batch_size)
        self.diff_every = int(diff_every)
        self.zero_copy = bool(zero_copy)
        #: Max seconds of queued async work tolerated before backpressure
        #: (models the bounded reusing queue / CPU buffer).
        self.backlog_budget_s = float(backlog_budget_s)
        #: Price persistence with the measured-overlap model of the
        #: background writer-pool engine (stall = max(0, backlog − compute
        #: gap until the channel is next needed)) instead of the fixed
        #: backlog-budget heuristic.  Off by default so the historical
        #: pricing stays bit-stable.
        self.async_engine = bool(async_engine)
        #: Virtual persist-worker lanes, modelling the multi-process
        #: engine's worker pool: with ``async_engine`` on and more than
        #: one lane, each persisted record is assigned to the
        #: earliest-free lane and the exposed stall is priced against the
        #: *least-loaded* lane's backlog (the next record starts there),
        #: so codec/serialize CPU overlaps across workers.  ``1``
        #: (default) keeps the single serialized channel — bit-identical
        #: to earlier revisions.
        self.persist_workers = int(persist_workers)
        self._worker_free_at: list[float] = [0.0] * self.persist_workers
        #: Sharded persistence (``ShardedCheckpointStore``): each record
        #: splits into ``shards`` per-shard records written over up to
        #: ``shard_concurrency`` concurrent IO lanes, so a record's
        #: *elapsed* channel time shrinks to the wave count times the
        #: per-shard cost while total bytes stay constant.  ``1``
        #: (default) keeps the unsharded pricing bit-identically.
        self.shards = int(shards)
        self.shard_concurrency = int(shard_concurrency)
        #: Optional :class:`repro.storage.compaction.RetentionPolicy`.
        #: When set, every full checkpoint triggers the compactor's
        #: merge pass over the chain that just aged behind it: the merge's
        #: read+write IO is scheduled on the persist channel (compaction
        #: competes with checkpoint persistence for the same SSD/network
        #: bandwidth — off the training critical path, but visible in
        #: channel backlog, wasted-time and ETR curves), and
        #: ``failure_profile`` caps the replayed batches at the policy's
        #: chain budget.  ``None`` (default) keeps pricing bit-stable
        #: with earlier revisions.
        self.retention = retention
        #: Cumulative bytes of compaction IO scheduled (telemetry).
        self.compaction_io_bytes = 0.0
        self._in_batch = 0
        self._records_since_full = 0

    @classmethod
    def from_config(cls, config: CheckpointConfig, **kwargs) -> "LowDiffStrategy":
        kwargs.setdefault("shards", config.shards)
        return cls(full_every=config.full_every_iters,
                   batch_size=config.batch_size, **kwargs)

    # Sharded persist pricing ---------------------------------------------------
    def _persist_cost(self, nbytes: float):
        """Price one persisted record, shard-aware.

        With ``shards > 1`` the record is ``S`` per-shard records of
        ``nbytes/S`` each, issued over ``min(shard_concurrency, S)``
        concurrent lanes: elapsed time is ``ceil(S/lanes)`` waves of the
        per-shard cost (encode CPU included — each shard record is
        serialized by its own lane), while the channel still accounts the
        full wire bytes.  Storage-fault overhead applies once per
        *logical* record, like the unsharded path.  ``shards == 1``
        delegates to the base arithmetic unchanged (bit-stable).
        """
        if self.shards <= 1:
            return super()._persist_cost(nbytes)
        wire_nbytes = nbytes / self.codec_ratio
        resource, duration = self._persist_channel()
        lanes = min(self.shard_concurrency, self.shards)
        waves = -(-self.shards // lanes)  # ceil division
        per_shard_s = (duration(wire_nbytes / self.shards)
                       + self._codec_encode_s(nbytes / self.shards))
        time_s = waves * per_shard_s
        if self.storage_faults is not None:
            extra = self.storage_faults.persist_overhead_s(time_s)
            self.persist_retry_time_s += extra
            time_s += extra
            self.count("persist_faulted")
        return resource, wire_nbytes, time_s

    def next_event(self, index: int) -> int | None:
        return min(self._next_multiple_event(index, self.diff_every),
                   self._next_multiple_event(index, self.full_every))

    # Multi-worker persist lanes ------------------------------------------------
    def _worker_lanes_active(self) -> bool:
        return self.async_engine and self.persist_workers > 1

    def on_start(self) -> None:
        self._worker_free_at = [0.0] * self.persist_workers

    def _schedule_persist(self, nbytes: float) -> None:
        if not self._worker_lanes_active():
            super()._schedule_persist(nbytes)
            return
        resource, wire_nbytes, time_s = self._persist_cost(nbytes)
        # The shared channel still accounts bytes/utilization; concurrency
        # lives in the lane assignment below (min-free lane, like the
        # engine's task queue feeding whichever worker drains first).
        resource.schedule(self.sim.now, time_s, nbytes=wire_nbytes,
                          label="persist", category="ckpt")
        lane = min(range(self.persist_workers),
                   key=self._worker_free_at.__getitem__)
        start = max(self.sim.now, self._worker_free_at[lane])
        self._worker_free_at[lane] = start + time_s

    def _persist_backlog_s(self, resource) -> float:
        """Queued persist time the *next* record would wait behind.

        Single lane: the serialized channel backlog.  Multiple lanes: the
        least-loaded lane's backlog — the engine hands the next record to
        whichever worker frees first, so only that lane's residual work
        can stall the training loop.
        """
        if self._worker_lanes_active():
            return max(0.0, min(self._worker_free_at) - self.sim.now)
        return resource.backlog(self.sim.now)

    def after_iteration(self, index: int) -> None:
        workload, sim = self.workload, self.sim
        step = index + 1
        if step % self.diff_every == 0:
            payload = workload.synced_gradient_bytes()
            # Training-side cost: enqueue (zero-copy handle, or a real copy
            # in the ablation).
            if self.zero_copy:
                sim.stall("enqueue", workload.cost.queue_overhead_seconds)
            else:
                sim.stall("queue-copy", payload / workload.cost.queue_copy_bandwidth)
            # Checkpointing side, off the critical path: offload + batch.
            sim.pcie.schedule(sim.now, workload.snapshot_time(payload),
                              nbytes=payload, label="offload",
                              category="ckpt")
            self._in_batch += 1
            if self._in_batch >= self.batch_size:
                batched = workload.batched_diff_bytes(self.batch_size)
                self._schedule_persist(batched)
                self._in_batch = 0
                self._records_since_full += 1
                self.count("diff_write")
            self.count("diff")
            persist_resource, _ = self._persist_channel()
            if self.async_engine:
                # Overlap pricing: queued work on a channel hides behind
                # the compute gap until that channel is next needed; only
                # the excess stalls training.  The persist backlog is lane-
                # aware: with worker processes, only the least-loaded lane
                # gates the next record.
                for backlog, cause, gap_iters in (
                        (sim.pcie.backlog(sim.now), "pcie-overlap",
                         self.diff_every),
                        (self._persist_backlog_s(persist_resource),
                         "persist-overlap",
                         self.batch_size * self.diff_every)):
                    stall = self._overlapped_stall(
                        backlog, gap_iters * workload.iter_time)
                    if stall > 0.0:
                        sim.stall(cause, stall)
            else:
                # Backpressure only when async channels fall far behind.
                for resource, cause in ((sim.pcie, "pcie-backpressure"),
                                        (persist_resource, "persist-backpressure")):
                    backlog = resource.backlog(sim.now)
                    if backlog > self.backlog_budget_s:
                        sim.stall(cause, backlog - self.backlog_budget_s)
        if step % self.full_every == 0:
            size = workload.full_checkpoint_bytes
            sim.stall("full-snapshot", self._snapshot_exposed(size))
            sim.pcie.schedule(sim.now, workload.snapshot_time(size),
                              nbytes=size, label="full-snapshot",
                              category="ckpt")
            self._schedule_persist(size)
            self.count("full")
            self._schedule_compaction()

    def _schedule_compaction(self) -> None:
        """Price one compactor merge pass over the chain a full just aged.

        Mirrors :class:`repro.storage.compaction.ChainCompactor` in merge
        mode: when the aged chain exceeds the policy's budget, runs of
        ``compact_run`` adjacent records are read back and rewritten as
        one super-diff each.  Both directions ride the persist channel —
        asynchronous (no direct training stall) but consuming the same
        bandwidth as checkpoint persistence, so a tight budget shows up
        as channel backlog exactly like extra checkpoint traffic would.
        """
        aged, self._records_since_full = self._records_since_full, 0
        if self.retention is None:
            return
        budget = self.retention.chain_budget()
        if budget is None or aged <= budget:
            return
        workload, sim = self.workload, self.sim
        fan_in = self.retention.compact_run
        runs = aged // fan_in
        if runs < 1:
            return
        read_bytes = runs * fan_in * workload.batched_diff_bytes(self.batch_size)
        # A super-diff over `fan_in` batched records has the union sparsity
        # of `fan_in * batch_size` gradients — the same dedup the batched
        # writer applies on the live path.
        write_bytes = runs * workload.batched_diff_bytes(
            fan_in * self.batch_size)
        # Compaction moves *encoded* records: IO shrinks by the codec
        # ratio, but each merged record is decoded and the super-diff
        # re-encoded (CPU on the same channel, like the live persist path).
        read_wire = read_bytes / self.codec_ratio
        write_wire = write_bytes / self.codec_ratio
        resource, duration = self._persist_channel()
        io_time = (workload.read_time(read_wire) + duration(write_wire)
                   + self._codec_decode_s(read_bytes)
                   + self._codec_encode_s(write_bytes))
        resource.schedule(sim.now, io_time, nbytes=read_wire + write_wire,
                          label="compaction", category="ckpt")
        self.compaction_io_bytes += read_wire + write_wire
        self.count("compact")

    def on_finish(self, final_iteration: int) -> None:
        if self._in_batch:
            batched = self.workload.batched_diff_bytes(self._in_batch)
            self._schedule_persist(batched)
            self._in_batch = 0
            self.count("diff_write")

    # Failure/recovery ---------------------------------------------------------
    def failure_profile(self, kind: str = "hardware",
                        parallel_recovery: bool = True) -> FailureProfile:
        workload = self.workload
        batches_to_replay = (self.full_every / (self.diff_every * self.batch_size)) / 2.0
        if self.retention is not None:
            # Compaction guarantees the chain behind the newest full never
            # exceeds the policy budget, so worst-case (and hence expected)
            # replayed records are capped — the paper's bounded-recovery
            # property.
            budget = self.retention.chain_budget()
            if budget is not None:
                batches_to_replay = min(batches_to_replay, float(budget))
        merge_each = workload.merge_diff_time(self.batch_size)
        if parallel_recovery and batches_to_replay > 1:
            import math
            depth = math.ceil(math.log2(max(2.0, batches_to_replay)))
            replay = depth * merge_each
        else:
            replay = batches_to_replay * merge_each
        # Recovery decodes every replayed record plus the full it chains
        # from (decode CPU is serial with the replay; the reduced *read*
        # volume is deliberately not credited — conservative).
        replay += self._codec_decode_s(
            batches_to_replay * workload.batched_diff_bytes(self.batch_size)
            + workload.full_checkpoint_bytes)
        return FailureProfile(
            # In-flight (unwritten) batch is lost: b/2 expected, plus the
            # half diff interval.
            lost_iterations=self.diff_every / 2.0
            + (self.batch_size - 1) / 2.0 * self.diff_every,
            recovery_time_s=workload.load_full_time() + replay,
        )

    def storage_bytes_per_iter(self) -> float:
        workload = self.workload
        return (
            workload.batched_diff_bytes(self.batch_size)
            / (self.batch_size * self.diff_every)
            + workload.full_checkpoint_bytes / self.full_every
        ) / self.codec_ratio
