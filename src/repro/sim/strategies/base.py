"""Strategy base class and failure profiles."""

from __future__ import annotations

from dataclasses import dataclass

from repro.sim.workload import Workload


@dataclass(frozen=True)
class FailureProfile:
    """What one failure costs under a strategy (Exp. 3/9/10 inputs).

    Attributes
    ----------
    lost_iterations:
        Expected training iterations whose progress is not recoverable
        (work to redo after restoring the latest checkpoint).
    recovery_time_s:
        Expected wall time to restore the latest recoverable state
        (loads, merges, transfers) before training can resume.
    """

    lost_iterations: float
    recovery_time_s: float


class CheckpointStrategy:
    """Base: no-op hooks + bookkeeping shared by every method.

    ``remote_storage=True`` (where a subclass exposes it) retargets
    persistence from the local SSD to remote storage over the cluster
    network — the paper's "local or remote storage" choice.
    """

    name = "base"

    def __init__(self) -> None:
        self.sim = None
        self.workload: Workload | None = None
        self._counts: dict[str, int] = {}
        self.remote_storage = False
        #: Optional :class:`repro.sim.failures.StorageFaultModel`; when set,
        #: every scheduled persist is expanded by the expected retries and
        #: backoff a resilient backend would spend on a flaky tier.
        self.storage_faults = None
        #: Accumulated extra persist-channel time attributable to retries.
        self.persist_retry_time_s = 0.0
        #: Optional :class:`repro.sim.failures.SupervisorModel`; when set,
        #: ``run_with_failures`` prices detection latency and degraded-mode
        #: throughput for worker-level failure events.
        self.supervisor = None
        #: Payload-codec pricing (neutral defaults = uncoded behaviour):
        #: persisted bytes divide by ``codec_ratio`` and each persist adds
        #: ``codec_encode_s_per_gb`` of CPU per *raw* GB; recovery replay
        #: adds ``codec_decode_s_per_gb`` (consumed by ``failure_profile``
        #: in subclasses that model recovery byte volume).
        self.codec_ratio = 1.0
        self.codec_encode_s_per_gb = 0.0
        self.codec_decode_s_per_gb = 0.0

    # Engine wiring ---------------------------------------------------------
    def bind(self, sim) -> None:
        self.sim = sim
        self.workload = sim.workload

    def count(self, key: str, increment: int = 1) -> None:
        self._counts[key] = self._counts.get(key, 0) + increment

    def checkpoint_counts(self) -> dict[str, int]:
        return dict(self._counts)

    # Hook points -----------------------------------------------------------------
    def on_start(self) -> None:
        pass

    def before_iteration(self, index: int) -> None:
        pass

    def after_iteration(self, index: int) -> None:
        pass

    def on_finish(self, final_iteration: int) -> None:
        pass

    # Fast-forward contract -------------------------------------------------
    def next_event(self, index: int) -> int | None:
        """First iteration ``>= index`` whose hooks may act, ``None`` = never.

        The engine's fast-forward path batch-advances every iteration in
        ``[index, next_event(index))`` without calling the per-iteration
        hooks, so a strategy promising a horizon asserts its
        ``before_iteration``/``after_iteration`` are no-ops strictly
        before it.  The base implementation returns ``index`` —
        "I may act right now" — which disables fast-forward and is always
        safe; purely periodic strategies override it.
        """
        return index

    @staticmethod
    def _next_multiple_event(index: int, every: int) -> int:
        """Next iteration ``>= index`` with ``(iteration + 1) % every == 0``."""
        return (index + every) // every * every - 1

    # Failure/recovery interface ------------------------------------------------------
    def failure_profile(self, kind: str = "hardware") -> FailureProfile:
        """Expected failure cost; ``kind`` is ``"hardware"`` or ``"software"``."""
        raise NotImplementedError

    def storage_bytes_per_iter(self) -> float:
        """Average durable bytes written per training iteration."""
        return 0.0

    # Shared helpers ---------------------------------------------------------------------
    def _persist_channel(self):
        """(resource, duration_fn) for checkpoint persistence."""
        workload = self.workload
        if self.remote_storage:
            effective = (workload.cluster.network_bandwidth
                         * workload.cost.remote_storage_efficiency)
            return self.sim.network, (
                lambda nbytes: nbytes / effective
                + workload.cost.serialize_time(nbytes)
            )
        return self.sim.ssd, workload.persist_time

    def set_storage_faults(self, model) -> "CheckpointStrategy":
        """Attach a persist-fault model (chainable); ``None`` disables."""
        self.storage_faults = model
        return self

    def set_supervisor(self, model) -> "CheckpointStrategy":
        """Attach a supervisor pricing model (chainable); ``None`` disables."""
        self.supervisor = model
        return self

    def set_codec_model(self, ratio: float = 1.0,
                        encode_s_per_gb: float = 0.0,
                        decode_s_per_gb: float = 0.0) -> "CheckpointStrategy":
        """Price a payload codec on the persist path (chainable).

        ``ratio`` is raw/encoded bytes (>= 1 shrinks persisted volume);
        the encode/decode coefficients are CPU seconds per raw gigabyte
        (the ``storage.payload_codec.ratio`` / ``encode_mb_s`` /
        ``decode_mb_s`` rows of ``bench/run.py``).  Defaults restore
        uncoded behaviour exactly.
        """
        if ratio <= 0:
            raise ValueError(f"codec ratio must be > 0, got {ratio}")
        self.codec_ratio = float(ratio)
        self.codec_encode_s_per_gb = float(encode_s_per_gb)
        self.codec_decode_s_per_gb = float(decode_s_per_gb)
        return self

    def _codec_encode_s(self, raw_nbytes: float) -> float:
        """Encode CPU time for a ``raw_nbytes`` payload (0 when uncoded)."""
        return self.codec_encode_s_per_gb * raw_nbytes / 1e9

    def _codec_decode_s(self, raw_nbytes: float) -> float:
        """Decode CPU time for a ``raw_nbytes`` payload (0 when uncoded)."""
        return self.codec_decode_s_per_gb * raw_nbytes / 1e9

    def _persist_cost(self, nbytes: float):
        """Price one persisted record: ``(resource, wire_nbytes, time_s)``.

        The channel moves encoded bytes; the encode stage is CPU work on
        the persist path (writer threads), so it occupies the same
        resource window — exactly how the async engine serializes.  Split
        out from :meth:`_schedule_persist` so strategies that model
        multiple concurrent persist workers can reuse the identical
        arithmetic (same float operation order — bit-stable) while
        assigning the time to a virtual worker lane instead of the
        serialized channel tail.
        """
        wire_nbytes = nbytes / self.codec_ratio
        resource, duration = self._persist_channel()
        time_s = duration(wire_nbytes) + self._codec_encode_s(nbytes)
        if self.storage_faults is not None:
            extra = self.storage_faults.persist_overhead_s(time_s)
            self.persist_retry_time_s += extra
            time_s += extra
            self.count("persist_faulted")
        return resource, wire_nbytes, time_s

    def _schedule_persist(self, nbytes: float) -> None:
        resource, wire_nbytes, time_s = self._persist_cost(nbytes)
        resource.schedule(self.sim.now, time_s, nbytes=wire_nbytes,
                          label="persist", category="ckpt")

    @staticmethod
    def _overlapped_stall(persist_seconds: float, compute_gap_s: float) -> float:
        """Exposed stall of asynchronous persistence overlapped with compute.

        The measured behaviour of the background writer-pool engine: queued
        persistence work hides entirely behind the compute gap until the
        channel is next needed, and only the excess blocks training —
        ``stall = max(0, persist_time − compute_gap)``.
        """
        return max(0.0, persist_seconds - compute_gap_s)

    def _snapshot_exposed(self, nbytes: float) -> float:
        """Exposed time of a GPU->CPU snapshot overlapped with training.

        The copy overlaps the window in which parameters are stable (the
        next iteration up to its update phase); the excess blocks, and the
        overlapped part still costs ``pcie_interference`` of its duration
        in DMA contention with data loading (same effect LowDiff+ pays for
        its layer-wise snapshots).
        """
        workload = self.workload
        window = workload.cost.backward_fraction * workload.iter_time
        transfer = workload.snapshot_time(nbytes)
        return (max(0.0, transfer - window)
                + workload.cost.pcie_interference * min(transfer, window))


class NoCheckpoint(CheckpointStrategy):
    """W/O CKPT: the training-speed upper bound; a failure loses everything."""

    name = "none"

    def next_event(self, index: int) -> int | None:
        return None  # no hooks ever act: the whole run fast-forwards

    def failure_profile(self, kind: str = "hardware") -> FailureProfile:
        return FailureProfile(lost_iterations=float("inf"), recovery_time_s=0.0)
