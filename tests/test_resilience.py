"""Tests for the storage resilience layer: retry/backoff, circuit breaker,
tiered fallback, chaos injection, and the store's integrity machinery."""

import json
import zlib

import pytest

from repro.storage import (
    ChaosBackend,
    CheckpointStore,
    CircuitBreaker,
    CircuitOpenError,
    CorruptCheckpointError,
    FlakyBackend,
    InMemoryBackend,
    LocalDiskBackend,
    ResilientBackend,
    RetryPolicy,
    TieredBackend,
    VirtualClock,
    collect_resilience_stats,
)
from repro.utils.rng import Rng


class SwitchableBackend(InMemoryBackend):
    """In-memory backend whose writes/reads can be toggled to fail."""

    def __init__(self):
        super().__init__()
        self.failing = False

    def _write(self, key, data):
        if self.failing:
            raise IOError("primary tier down")
        super()._write(key, data)

    def _read(self, key):
        if self.failing:
            raise IOError("primary tier down")
        return super()._read(key)


class TestRetryPolicy:
    def test_exponential_backoff(self):
        policy = RetryPolicy(max_attempts=4, base_delay_s=0.1, multiplier=2.0,
                             max_delay_s=10.0)
        assert policy.delay(1) == pytest.approx(0.1)
        assert policy.delay(2) == pytest.approx(0.2)
        assert policy.delay(3) == pytest.approx(0.4)
        assert policy.total_backoff() == pytest.approx(0.7)

    def test_delay_capped(self):
        policy = RetryPolicy(max_attempts=10, base_delay_s=1.0, multiplier=10.0,
                             max_delay_s=5.0)
        assert policy.delay(5) == 5.0

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy().delay(0)


class TestCircuitBreaker:
    def test_trips_after_threshold(self):
        breaker = CircuitBreaker(failure_threshold=3, reset_timeout_s=10.0)
        for _ in range(2):
            breaker.record_failure()
        assert breaker.state == CircuitBreaker.CLOSED and breaker.allow()
        breaker.record_failure()
        assert breaker.state == CircuitBreaker.OPEN
        assert not breaker.allow()
        assert breaker.trip_count == 1

    def test_half_open_probe_then_close(self):
        clock = VirtualClock()
        breaker = CircuitBreaker(failure_threshold=1, reset_timeout_s=5.0,
                                 clock=clock)
        breaker.record_failure()
        assert not breaker.allow()
        clock.sleep(5.0)
        assert breaker.allow()  # half-open: probe admitted
        assert breaker.state == CircuitBreaker.HALF_OPEN
        breaker.record_success()
        assert breaker.state == CircuitBreaker.CLOSED

    def test_half_open_failure_reopens(self):
        clock = VirtualClock()
        breaker = CircuitBreaker(failure_threshold=1, reset_timeout_s=5.0,
                                 clock=clock)
        breaker.record_failure()
        clock.sleep(5.0)
        assert breaker.allow()
        breaker.record_failure()  # probe failed
        assert breaker.state == CircuitBreaker.OPEN
        assert not breaker.allow()
        assert breaker.trip_count == 2

    def test_success_resets_failure_streak(self):
        breaker = CircuitBreaker(failure_threshold=2)
        breaker.record_failure()
        breaker.record_success()
        breaker.record_failure()
        assert breaker.state == CircuitBreaker.CLOSED


class TestResilientBackend:
    def test_transient_failure_retried(self):
        inner = InMemoryBackend()
        backend = ResilientBackend(FlakyBackend(inner, fail_on_write=1),
                                   retry=RetryPolicy(max_attempts=3,
                                                     base_delay_s=0.1))
        backend.write("k", b"payload")
        assert inner.read("k") == b"payload"
        assert backend.retries == 1
        assert backend.backoff_time_s == pytest.approx(0.1)
        assert backend.clock.now == pytest.approx(0.1)

    def test_retries_exhausted_raises(self):
        class AlwaysDown(InMemoryBackend):
            def _write(self, key, data):
                raise IOError("dead")

        backend = ResilientBackend(AlwaysDown(),
                                   retry=RetryPolicy(max_attempts=3,
                                                     base_delay_s=0.01))
        with pytest.raises(IOError):
            backend.write("k", b"x")
        assert backend.retries == 2  # 3 attempts = 2 retries
        assert backend.failed_operations == 1

    def test_missing_key_not_retried(self):
        backend = ResilientBackend(InMemoryBackend())
        with pytest.raises(FileNotFoundError):
            backend.read("nope")
        assert backend.retries == 0

    def test_circuit_open_fails_fast(self):
        inner = SwitchableBackend()
        inner.failing = True
        clock = VirtualClock()
        breaker = CircuitBreaker(failure_threshold=2, reset_timeout_s=100.0,
                                 clock=clock)
        backend = ResilientBackend(inner, breaker=breaker,
                                   retry=RetryPolicy(max_attempts=2,
                                                     base_delay_s=0.01))
        with pytest.raises(IOError):
            backend.write("k", b"x")  # 2 attempts -> breaker trips
        writes_before = inner.write_count
        with pytest.raises(CircuitOpenError):
            backend.write("k", b"x")  # refused without touching the backend
        assert inner.write_count == writes_before

    def test_read_retried(self):
        inner = InMemoryBackend()
        inner.write("k", b"v")
        backend = ResilientBackend(FlakyBackend(inner, fail_on_read=1),
                                   retry=RetryPolicy(max_attempts=2,
                                                     base_delay_s=0.01))
        assert backend.read("k") == b"v"
        assert backend.retries == 1


class TestTieredBackend:
    def make_tiered(self, threshold=2, reset=10.0):
        primary = SwitchableBackend()
        fallback = InMemoryBackend()
        clock = VirtualClock()
        tiered = TieredBackend(
            primary, fallback,
            retry=RetryPolicy(max_attempts=2, base_delay_s=0.01),
            breaker=CircuitBreaker(failure_threshold=threshold,
                                   reset_timeout_s=reset, clock=clock),
            clock=clock,
        )
        return tiered, primary, fallback

    def test_healthy_primary_takes_writes(self):
        tiered, primary, fallback = self.make_tiered()
        tiered.write("k", b"v")
        assert primary.exists("k") and not fallback.exists("k")
        assert not tiered.degraded

    def test_degrades_to_fallback_and_reads_freshest(self):
        tiered, primary, fallback = self.make_tiered()
        tiered.write("k", b"old")
        primary.failing = True
        tiered.write("k", b"new")
        assert fallback.read("k") == b"new"
        assert tiered.read("k") == b"new"  # fallback copy is freshest
        assert tiered.pending_sync_keys() == ["k"]
        assert tiered.fallback_writes == 1

    def test_circuit_opens_and_writes_bypass_primary(self):
        tiered, primary, _ = self.make_tiered(threshold=2)
        primary.failing = True
        tiered.write("a", b"1")  # 2 attempts fail -> breaker trips
        assert tiered.degraded
        writes_before = primary.write_count
        tiered.write("b", b"2")  # circuit open: straight to fallback
        assert primary.write_count == writes_before
        assert sorted(tiered.pending_sync_keys()) == ["a", "b"]

    def test_resync_on_primary_recovery(self):
        tiered, primary, fallback = self.make_tiered(threshold=1, reset=5.0)
        primary.failing = True
        tiered.write("a", b"1")
        tiered.write("b", b"2")
        assert tiered.degraded
        # Primary comes back; circuit must half-open before it is probed.
        primary.failing = False
        tiered.clock.sleep(5.0)
        tiered.write("c", b"3")  # probe succeeds -> resync drains backlog
        assert not tiered.degraded
        assert tiered.pending_sync_keys() == []
        for key, value in (("a", b"1"), ("b", b"2"), ("c", b"3")):
            assert primary.read(key) == value
        assert not fallback.exists("a") and not fallback.exists("b")
        assert tiered.resynced_keys == 2

    def test_explicit_resync(self):
        tiered, primary, _ = self.make_tiered(threshold=1, reset=1.0)
        primary.failing = True
        tiered.write("a", b"1")
        primary.failing = False
        tiered.clock.sleep(1.0)
        assert tiered.resync() == 1
        assert primary.read("a") == b"1"

    def test_read_falls_back_when_primary_missing(self):
        tiered, primary, fallback = self.make_tiered()
        fallback.write("only-fallback", b"x")
        assert tiered.read("only-fallback") == b"x"

    def test_namespace_union(self):
        tiered, primary, fallback = self.make_tiered()
        tiered.write("p", b"1")
        fallback.write("f", b"2")
        assert tiered.list_keys() == ["f", "p"]
        assert tiered.exists("f") and tiered.exists("p")
        tiered.delete("p")
        assert not tiered.exists("p")

    def test_both_tiers_failing_raises(self):
        class DeadBackend(InMemoryBackend):
            def _write(self, key, data):
                raise IOError("dead")

        primary = SwitchableBackend()
        primary.failing = True
        tiered = TieredBackend(primary, DeadBackend(),
                               retry=RetryPolicy(max_attempts=1))
        with pytest.raises(IOError, match="both storage tiers"):
            tiered.write("k", b"x")

    def test_store_roundtrip_through_degraded_tier(self, rng):
        """A CheckpointStore over a degraded TieredBackend keeps working."""
        tiered, primary, _ = self.make_tiered(threshold=1)
        store = CheckpointStore(tiered)
        primary.failing = True
        model = {"w": rng.normal(size=(8,))}
        opt = {"type": "SGD", "lr": 0.1, "step_count": 0, "slots": {}}
        store.save_full(0, model, opt)
        loaded_model, _, step = store.load_full(store.latest_full())
        assert step == 0
        import numpy as np
        np.testing.assert_array_equal(loaded_model["w"], model["w"])


class TestChaosBackend:
    def test_deterministic_given_seed(self):
        def run(seed):
            inner = InMemoryBackend()
            chaos = ChaosBackend(inner, rng=Rng(seed), write_fail_prob=0.3,
                                 bit_flip_prob=0.2, torn_write_prob=0.1)
            outcomes = []
            for i in range(50):
                try:
                    chaos.write(f"k{i}", bytes(range(10)) * 3)
                    outcomes.append(inner.read(f"k{i}"))
                except IOError:
                    outcomes.append(None)
            return outcomes, dict(chaos.injected)

        first, second = run(7), run(7)
        assert first == second
        different = run(8)
        assert different[1] != first[1] or different[0] != first[0]

    def test_torn_write_leaves_prefix(self):
        inner = InMemoryBackend()
        chaos = ChaosBackend(inner, rng=Rng(3), torn_write_prob=1.0)
        data = bytes(range(100))
        with pytest.raises(IOError, match="torn"):
            chaos.write("k", data)
        stub = inner.read("k")
        assert 0 < len(stub) < len(data)
        assert data.startswith(stub)

    def test_torn_append_tears_only_its_own_bytes(self):
        inner = InMemoryBackend()
        inner.append("j", b"acked line\n")
        chaos = ChaosBackend(inner, rng=Rng(3), torn_write_prob=1.0)
        line = b"in-flight line\n"
        with pytest.raises(IOError, match="torn"):
            chaos.append("j", line)
        stub = inner.read("j")[len(b"acked line\n"):]
        assert inner.read("j").startswith(b"acked line\n")
        assert 0 < len(stub) < len(line) and line.startswith(stub)

    def test_bit_flip_is_silent_but_detected_by_framing(self, rng):
        from repro.storage import pack_tree, unpack_tree
        inner = InMemoryBackend()
        chaos = ChaosBackend(inner, rng=Rng(11), bit_flip_prob=1.0)
        data = pack_tree({"w": rng.normal(size=(64,))})
        chaos.write("k", data)  # succeeds silently
        assert chaos.injected["bit_flip"] == 1
        with pytest.raises(CorruptCheckpointError):
            unpack_tree(inner.read("k"))

    def test_protected_prefix_exempt(self):
        chaos = ChaosBackend(InMemoryBackend(), rng=Rng(1),
                             write_fail_prob=1.0,
                             protect_prefixes=("quarantine/",))
        chaos.write("quarantine/k", b"safe")
        with pytest.raises(IOError):
            chaos.write("k", b"unsafe")

    def test_latency_spikes_accrue_virtual_time(self):
        chaos = ChaosBackend(InMemoryBackend(), rng=Rng(2),
                             latency_spike_prob=1.0, latency_spike_s=0.25)
        chaos.write("a", b"1")
        chaos.read("a")
        assert chaos.virtual_time_s == pytest.approx(0.5)
        assert chaos.injected["latency_spike"] == 2

    def test_invalid_probability_rejected(self):
        with pytest.raises(ValueError):
            ChaosBackend(InMemoryBackend(), rng=Rng(0), write_fail_prob=1.5)


class TestStatsCollection:
    def test_collects_through_stack(self):
        chaos = ChaosBackend(InMemoryBackend(), rng=Rng(5), write_fail_prob=0.5)
        backend = ResilientBackend(chaos,
                                   retry=RetryPolicy(max_attempts=10,
                                                     base_delay_s=0.001))
        for i in range(20):
            backend.write(f"k{i}", b"x")
        stats = collect_resilience_stats(backend)
        assert stats["retries"] > 0
        assert stats["chaos_write_fail"] == backend.retries
        assert stats["backoff_time_s"] > 0

    def test_plain_backend_yields_empty(self):
        assert collect_resilience_stats(InMemoryBackend()) == {}


class TestStoreIntegrity:
    def full_states(self, rng):
        model = {"w": rng.normal(size=(10,))}
        opt = {"type": "SGD", "lr": 0.1, "step_count": 0, "slots": {}}
        return model, opt

    def test_corrupt_blob_detected_on_load(self, store, rng):
        model, opt = self.full_states(rng)
        record = store.save_full(0, model, opt)
        raw = bytearray(store.backend.read(record.key))
        raw[-5] ^= 0x40
        store.backend.write(record.key, bytes(raw))
        with pytest.raises(CorruptCheckpointError):
            store.load_full(record)

    def test_quarantine_moves_blob_aside(self, store, rng):
        model, opt = self.full_states(rng)
        record = store.save_full(0, model, opt)
        store.quarantine(record)
        assert store.latest_full() is None
        assert not store.backend.exists(record.key)
        assert store.backend.exists("quarantine/" + record.key)
        assert store.quarantined == [record.key]

    def test_corrupt_manifest_rebuilt_from_keys(self, rng, tmp_path):
        backend = LocalDiskBackend(str(tmp_path))
        store = CheckpointStore(backend)
        model, opt = self.full_states(rng)
        store.save_full(0, model, opt)
        from repro.compression import TopKCompressor
        payload = TopKCompressor(0.5).compress({"w": rng.normal(size=(10,))})
        store.save_diff(1, 2, payload, count=2)
        backend.write("manifest.json", b'{"garbage": tr')  # torn manifest
        reopened = CheckpointStore(LocalDiskBackend(str(tmp_path)))
        assert reopened.manifest_rebuilt
        assert reopened.latest_full().step == 0
        assert [(r.start, r.end, r.count) for r in reopened.diffs()] == [(1, 2, 2)]

    def test_manifest_crc_mismatch_triggers_rebuild(self, rng):
        backend = InMemoryBackend()
        store = CheckpointStore(backend)
        model, opt = self.full_states(rng)
        store.save_full(0, model, opt)
        manifest = json.loads(backend.read("manifest.json").decode())
        manifest["fulls"][0]["step"] = 99  # tamper without fixing the CRC
        backend.write("manifest.json", json.dumps(manifest).encode())
        reopened = CheckpointStore(backend)
        assert reopened.manifest_rebuilt
        assert reopened.latest_full().step == 0  # truth from the blob itself

    def test_rebuild_quarantines_corrupt_blobs(self, rng):
        backend = InMemoryBackend()
        store = CheckpointStore(backend)
        model, opt = self.full_states(rng)
        store.save_full(0, model, opt)
        record = store.save_full(5, model, opt)
        raw = bytearray(backend.read(record.key))
        raw[-3] ^= 0x01
        backend.write(record.key, bytes(raw))
        backend.delete("manifest.json")
        reopened = CheckpointStore(backend)
        assert reopened.manifest_rebuilt
        assert [r.step for r in reopened.fulls()] == [0]
        assert backend.exists("quarantine/" + record.key)

    def test_stale_manifest_entry_dropped_on_open(self, rng):
        backend = InMemoryBackend()
        store = CheckpointStore(backend)
        model, opt = self.full_states(rng)
        store.save_full(0, model, opt)
        record = store.save_full(5, model, opt)
        backend.delete(record.key)  # data gone, manifest still lists it
        reopened = CheckpointStore(backend)
        assert [r.step for r in reopened.fulls()] == [0]

    def test_verify_reports_and_repairs(self, store, rng):
        model, opt = self.full_states(rng)
        store.save_full(0, model, opt)
        bad = store.save_full(5, model, opt)
        raw = bytearray(store.backend.read(bad.key))
        raw[-1] ^= 0x10
        store.backend.write(bad.key, bytes(raw))
        gone = store.save_full(9, model, opt)
        store.backend.delete(gone.key)
        report = store.verify(deep=True)
        assert report["corrupt"] == [bad.key]
        assert report["missing"] == [gone.key]
        store.verify(deep=True, repair=True)
        assert [r.step for r in store.fulls()] == [0]
        assert store.backend.exists("quarantine/" + bad.key)
