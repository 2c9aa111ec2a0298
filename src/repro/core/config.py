"""Checkpointing configuration optimization (paper §IV-C).

Implements the wasted-time model of Eq. (3),

``T_wasted(f, b) = (N T / M) * (b/2 + R_F + (R_D/2) * (1/(f b) - 1))
                   + N T S f / W``

with ``f`` the full-checkpoint frequency (checkpoints per second of
training) and ``b`` the time covered by one batched differential write
(batch size x iteration time).  The closed-form minimizer Eq. (5) is

``f* = cbrt(R_D W^2 / (4 S^2 M^2))``,  ``b* = cbrt(2 S R_D M / W)``,

which this module derives, validates (the partial derivatives vanish at
the returned point — pinned by tests) and converts to the integer
(FCF iterations, BS gradients) pair the checkpointer consumes.  The
:class:`AdaptiveTuner` performs the stepwise runtime adjustment described
in §VI when measured MTBF/bandwidth drift from the assumed constants.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.storage.sharded import EXECUTORS
from repro.utils.validation import check_positive


@dataclass(frozen=True)
class CheckpointConfig:
    """Integer configuration the checkpointer runs with.

    ``async_persist`` puts a persist engine between the checkpointer and
    the store (:mod:`repro.storage.persist_engine`) — the one way
    persistence leaves the training thread: serialization and storage I/O
    leave the training loop, which then pays only for admission, including
    any backpressure stall.
    ``writer_threads``/``queue_depth`` size the worker pool and the
    outstanding-record bound; both are ignored in the default synchronous
    mode, which stays bit-exact-deterministic for tests.

    ``persist_mode`` names the engine's executor, looked up once in
    :func:`repro.storage.sharded.open_persist_engine`: ``"thread"``
    (default) is the in-process writer pool; ``"process"`` is spawned
    persist-worker processes fed through a shared-memory ring of
    ``ring_mb`` MiB, so codec/serializer CPU leaves the training
    interpreter entirely (requires a process-safe backend, e.g. local
    disk).  ``writer_threads`` doubles as the worker-process count.

    ``codec`` selects the payload codec applied to every persisted record
    (:mod:`repro.storage.payload_codec`): ``None`` (default) writes
    uncoded bytes identical to earlier revisions, ``"lossless"`` enables
    the bit-exact delta/byte-plane paths.

    ``shards`` > 1 partitions every checkpoint over a stable global index
    space into per-shard full/diff chains
    (:class:`repro.storage.sharded.ShardedCheckpointStore`): persistence
    and recovery fan out per shard, and a checkpoint written at one world
    size restores onto any other (elastic restore) because the index
    space depends only on the model.  ``shards=1`` keeps the historical
    one-blob-per-job store bit-identically.
    """

    full_every_iters: int        # FCF: iterations between full checkpoints
    batch_size: int              # BS: gradients per batched differential write
    async_persist: bool = False  # opt-in background persistence engine
    writer_threads: int = 2      # engine writer pool size
    queue_depth: int = 8         # engine backpressure bound
    codec: str | None = None     # payload codec id; None = uncoded
    persist_mode: str = "thread"  # async engine flavor: "thread" | "process"
    ring_mb: float = 64.0        # shared-memory ring size (process mode)
    shards: int = 1              # per-shard diff chains; 1 = unsharded store

    def __post_init__(self):
        if self.full_every_iters < 1:
            raise ValueError(f"full_every_iters must be >= 1, got {self.full_every_iters}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.writer_threads < 1:
            raise ValueError(f"writer_threads must be >= 1, got {self.writer_threads}")
        if self.queue_depth < 1:
            raise ValueError(f"queue_depth must be >= 1, got {self.queue_depth}")
        if self.persist_mode not in EXECUTORS:
            raise ValueError(
                f"persist_mode must be "
                f"{' or '.join(map(repr, EXECUTORS))}, "
                f"got {self.persist_mode!r}")
        if self.ring_mb <= 0:
            raise ValueError(f"ring_mb must be > 0, got {self.ring_mb}")
        if self.shards < 1:
            raise ValueError(f"shards must be >= 1, got {self.shards}")


@dataclass(frozen=True)
class WastedTimeModel:
    """Constant system parameters of Eq. (3).

    Attributes
    ----------
    num_gpus:
        ``N`` — all GPUs redo lost work and reload on failure.
    mtbf_s:
        ``M`` — mean time between failures, seconds.
    write_bandwidth:
        ``W`` — checkpoint write bandwidth, bytes/second.
    full_size_bytes:
        ``S`` — size of a full checkpoint (3 Psi x 4 bytes for Adam/fp32).
    total_time_s:
        ``T`` — total training-job runtime, seconds.
    load_full_s:
        ``R_F`` — time to load a full checkpoint on recovery.
    merge_diff_s:
        ``R_D`` — time to load+merge one differential during recovery.
    """

    num_gpus: int
    mtbf_s: float
    write_bandwidth: float
    full_size_bytes: float
    total_time_s: float
    load_full_s: float
    merge_diff_s: float

    def __post_init__(self):
        check_positive("num_gpus", self.num_gpus)
        check_positive("mtbf_s", self.mtbf_s)
        check_positive("write_bandwidth", self.write_bandwidth)
        check_positive("full_size_bytes", self.full_size_bytes)
        check_positive("total_time_s", self.total_time_s)
        check_positive("load_full_s", self.load_full_s, strict=False)
        check_positive("merge_diff_s", self.merge_diff_s)

    # Eq. (3) ---------------------------------------------------------------
    def wasted_time(self, f: float, b: float) -> float:
        """Evaluate Eq. (3) at frequency ``f`` (1/s) and batch span ``b`` (s)."""
        check_positive("f", f)
        check_positive("b", b)
        n, t, m = self.num_gpus, self.total_time_s, self.mtbf_s
        recovery = (n * t / m) * (
            b / 2.0
            + self.load_full_s
            + (self.merge_diff_s / 2.0) * (1.0 / (f * b) - 1.0)
        )
        steady = n * t * self.full_size_bytes * f / self.write_bandwidth
        return recovery + steady

    def partials(self, f: float, b: float) -> tuple[float, float]:
        """Analytic first-order partials of Eq. (3) — Eq. (4)."""
        n, t, m = self.num_gpus, self.total_time_s, self.mtbf_s
        df = (n * t * self.full_size_bytes / self.write_bandwidth
              - n * t * self.merge_diff_s / (2.0 * f * f * m * b))
        db = (n * t / m) * (0.5 - self.merge_diff_s / (2.0 * b * b * f))
        return df, db

    # Eq. (5) ------------------------------------------------------------------
    def optimal(self) -> tuple[float, float]:
        """Closed-form ``(f*, b*)`` of Eq. (5)."""
        f_star = (
            self.merge_diff_s * self.write_bandwidth**2
            / (4.0 * self.full_size_bytes**2 * self.mtbf_s**2)
        ) ** (1.0 / 3.0)
        b_star = (
            2.0 * self.full_size_bytes * self.merge_diff_s * self.mtbf_s
            / self.write_bandwidth
        ) ** (1.0 / 3.0)
        return f_star, b_star

    # Conversions --------------------------------------------------------------
    def to_config(self, iter_time_s: float,
                  max_full_every: int | None = None,
                  max_batch: int | None = None) -> CheckpointConfig:
        """Round the continuous optimum to integer (FCF, BS) for a workload.

        ``f*`` (fulls per second) → one full every ``1/(f* iter_time)``
        iterations; ``b*`` (seconds per batch) → ``b*/iter_time`` gradients
        per batch.  Both are clamped to at least 1; optional caps protect
        against degenerate constants.
        """
        check_positive("iter_time_s", iter_time_s)
        f_star, b_star = self.optimal()
        full_every = max(1, round(1.0 / (f_star * iter_time_s)))
        batch = max(1, round(b_star / iter_time_s))
        if max_full_every is not None:
            full_every = min(full_every, max_full_every)
        if max_batch is not None:
            batch = min(batch, max_batch)
        # A batch never spans more than a full-checkpoint interval.
        batch = min(batch, full_every)
        return CheckpointConfig(full_every_iters=full_every, batch_size=batch)

    def grid(self, fcf_iters: list[int], batch_sizes: list[int],
             iter_time_s: float) -> dict[tuple[int, int], float]:
        """Evaluate Eq. (3) over an (FCF, BS) grid — the Table I experiment."""
        out = {}
        for fcf in fcf_iters:
            f = 1.0 / (fcf * iter_time_s)
            for bs in batch_sizes:
                b = bs * iter_time_s
                out[(fcf, bs)] = self.wasted_time(f, b)
        return out


def optimal_configuration(model: WastedTimeModel, iter_time_s: float,
                          **caps) -> CheckpointConfig:
    """Convenience wrapper: Eq. (5) optimum as an integer config."""
    return model.to_config(iter_time_s, **caps)


class AdaptiveTuner:
    """Stepwise runtime tuner (§VI "Optimal configuration module").

    Starts from a default configuration and nudges (FCF, BS) toward the
    analytic optimum as runtime estimates of MTBF and write bandwidth are
    observed, moving at most one step per adjustment to avoid oscillation.
    """

    def __init__(self, base_model: WastedTimeModel, iter_time_s: float,
                 initial: CheckpointConfig | None = None):
        check_positive("iter_time_s", iter_time_s)
        self.base = base_model
        self.iter_time_s = float(iter_time_s)
        self.config = initial or CheckpointConfig(full_every_iters=20, batch_size=2)
        self._observed_failures: list[float] = []
        self._observed_bandwidths: list[float] = []

    # Observations ------------------------------------------------------------
    def observe_failure_gap(self, seconds_since_last: float) -> None:
        check_positive("seconds_since_last", seconds_since_last)
        self._observed_failures.append(float(seconds_since_last))

    def observe_write(self, nbytes: int, seconds: float) -> None:
        check_positive("seconds", seconds)
        if nbytes > 0:
            self._observed_bandwidths.append(nbytes / seconds)

    def current_model(self) -> WastedTimeModel:
        """Base constants overridden by runtime estimates where available."""
        mtbf = (sum(self._observed_failures) / len(self._observed_failures)
                if self._observed_failures else self.base.mtbf_s)
        bandwidth = (sum(self._observed_bandwidths) / len(self._observed_bandwidths)
                     if self._observed_bandwidths else self.base.write_bandwidth)
        return WastedTimeModel(
            num_gpus=self.base.num_gpus,
            mtbf_s=mtbf,
            write_bandwidth=bandwidth,
            full_size_bytes=self.base.full_size_bytes,
            total_time_s=self.base.total_time_s,
            load_full_s=self.base.load_full_s,
            merge_diff_s=self.base.merge_diff_s,
        )

    def adjust(self) -> CheckpointConfig:
        """Move one step toward the optimum under current estimates."""
        target = self.current_model().to_config(self.iter_time_s)

        def step_toward(current: int, goal: int) -> int:
            if goal > current:
                return min(goal, math.ceil(current * 1.5))
            if goal < current:
                return max(goal, max(1, math.floor(current / 1.5)))
            return current

        self.config = CheckpointConfig(
            full_every_iters=step_toward(self.config.full_every_iters,
                                         target.full_every_iters),
            batch_size=step_toward(self.config.batch_size, target.batch_size),
        )
        return self.config
