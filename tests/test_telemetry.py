"""Cross-process telemetry plane tests (PR 9).

Covers the four subsystems the plane is made of — interpolated
histogram quantiles, the worker→parent telemetry channel, the flight
recorder, and the SLO watchdog — plus the integration paths: a real
multi-process engine run under an open capture (worker metrics and
per-process trace tracks land in the parent sinks), determinism of the
merged artifacts across identical seeded runs, and the SIGKILL drill
whose fail-stop exception must reference a flight-recorder post-mortem.

Engine construction spawns real worker processes, so the integration
tests reuse one captured run per class where semantics allow.
"""

from __future__ import annotations

import json
import os
import queue as queue_module
import signal
import time

import numpy as np
import pytest

from repro import obs
from repro.obs import OBS
from repro.obs.flight import FLIGHT, FlightRecorder
from repro.obs.metrics import (
    Histogram,
    MetricsRegistry,
    quantile_from_snapshot,
)
from repro.obs.report import main as report_main, tail_latency_rows
from repro.obs.slo import (
    DEFAULT_TARGETS,
    SloTarget,
    SloWatchdog,
    evaluate_snapshot,
    load_slo_config,
)
from repro.obs.telemetry import (
    TelemetryChannel,
    WorkerTelemetry,
    WorkerTelemetrySpec,
)
from repro.obs.trace import Tracer
from repro.storage.backends import LocalDiskBackend
from repro.storage.checkpoint_store import CheckpointStore
from repro.storage.mp_engine import MultiprocessCheckpointEngine
from repro.storage.payload_codec import make_codec

CI_SLO_CONFIG = os.path.join(os.path.dirname(__file__), os.pardir,
                             "benchmarks", "slo_ci.json")


# ---------------------------------------------------------------------------
# Interpolated quantiles
# ---------------------------------------------------------------------------

class TestQuantiles:
    def test_against_exact_percentiles_uniform(self):
        # Uniformly spread samples inside bucket spans: linear
        # interpolation is exact to within one bucket span.
        rng = np.random.default_rng(3)
        samples = rng.uniform(0.0005, 4.0, size=5000)
        hist = Histogram("t")
        for value in samples:
            hist.observe(value)
        for q in (0.5, 0.95, 0.99):
            exact = float(np.quantile(samples, q))
            estimate = hist.quantile(q)
            # Error bound: the span of the bucket the true quantile is in.
            bucket = next(b for b in hist.buckets if exact <= b)
            below = max((b for b in hist.buckets if b < bucket), default=0.0)
            assert abs(estimate - exact) <= (bucket - below) + 1e-12, \
                f"q={q}: estimate {estimate} vs exact {exact}"

    def test_clamped_to_observed_range(self):
        hist = Histogram("t")
        for value in (0.007, 0.009, 0.008):
            hist.observe(value)
        assert hist.quantile(0.99) <= 0.009
        assert hist.quantile(0.0) >= 0.007

    def test_empty_histogram_returns_none(self):
        assert Histogram("t").quantile(0.5) is None

    def test_overflow_bucket_uses_max(self):
        hist = Histogram("t", buckets=(1.0,))
        hist.observe(5.0)
        hist.observe(7.0)
        assert hist.quantile(0.99) <= 7.0
        assert hist.quantile(0.99) > 1.0

    def test_snapshot_round_trip_matches_live(self):
        hist = Histogram("t")
        rng = np.random.default_rng(4)
        for value in rng.uniform(0.001, 2.0, size=500):
            hist.observe(value)
        snap = json.loads(json.dumps(hist._snapshot()))
        for q in (0.5, 0.95, 0.99):
            assert quantile_from_snapshot(snap, q) \
                == pytest.approx(hist.quantile(q))

    def test_report_tail_rows_cover_worker_histograms(self):
        registry = MetricsRegistry()
        for value in (0.01, 0.02, 0.03):
            registry.observe("ckpt.mp.worker.encode.s", value)
        registry.inc("ckpt.mp.worker.tasks", 3)  # non-histogram: skipped
        rows = tail_latency_rows(registry.snapshot())
        assert [r["metric"] for r in rows] == ["ckpt.mp.worker.encode.s"]
        assert rows[0]["count"] == 3
        assert rows[0]["p99"] <= 0.03 + 1e-9


# ---------------------------------------------------------------------------
# Registry merge semantics
# ---------------------------------------------------------------------------

class TestMergeDelta:
    def test_counter_gauge_histogram_semantics(self):
        worker = MetricsRegistry()
        worker.inc("w.tasks", 3)
        worker.set("w.depth", 7)
        worker.observe("w.lat.s", 0.02)
        worker.observe("w.lat.s", 0.04)
        delta = worker.delta({})
        kinds = worker.kinds()

        parent = MetricsRegistry()
        parent.inc("w.tasks", 10)
        parent.set("w.depth", 1)
        merged = parent.merge_delta(delta, kinds)
        assert merged == 3
        snap = parent.snapshot()
        assert snap["w.tasks"] == 13          # counters add
        assert snap["w.depth"] == 7           # gauges take shipped value
        assert snap["w.lat.s"]["count"] == 2  # histograms merge bucket-wise

    def test_prefix_renames_every_metric(self):
        worker = MetricsRegistry()
        worker.inc("w.tasks", 2)
        parent = MetricsRegistry()
        parent.merge_delta(worker.delta({}), worker.kinds(),
                           prefix="proc.persist-worker-0.")
        assert parent.snapshot() == {"proc.persist-worker-0.w.tasks": 2}

    def test_kind_conflict_counted_not_raised(self):
        worker = MetricsRegistry()
        worker.inc("x", 1)
        parent = MetricsRegistry()
        parent.set("x", 5)  # same name, different kind in the parent
        merged = parent.merge_delta(worker.delta({}), worker.kinds())
        assert merged == 0
        assert parent.snapshot()["obs.telemetry.merge_conflicts"] == 1

    def test_histogram_merge_snapshot_tracks_extrema(self):
        a = Histogram("t")
        b = Histogram("t")
        a.observe(0.01)
        b.observe(0.5)
        b.observe(0.002)
        a.merge_snapshot(b._snapshot())
        assert a.count == 3
        assert a.min == 0.002
        assert a.max == 0.5


# ---------------------------------------------------------------------------
# Telemetry channel: worker shim + parent aggregator
# ---------------------------------------------------------------------------

class _ListQueue:
    """In-process stand-in for the mp queue (no pickling, no feeder)."""

    def __init__(self, maxsize=0):
        self.items = []
        self.maxsize = maxsize

    def put_nowait(self, item):
        if self.maxsize and len(self.items) >= self.maxsize:
            raise queue_module.Full
        self.items.append(item)

    def get_nowait(self):
        if not self.items:
            raise queue_module.Empty
        return self.items.pop(0)


def _worker_spec(queue, label="persist-worker-0", logical_pid=1):
    return WorkerTelemetrySpec(queue=queue, label=label,
                               logical_pid=logical_pid)


class TestWorkerTelemetry:
    def test_none_spec_is_inert_and_keeps_obs_disabled(self):
        assert not OBS.enabled
        telemetry = WorkerTelemetry.activate(None)
        assert not telemetry.enabled
        assert telemetry.flush() is False
        assert not OBS.enabled  # the zero-cost contract

    def test_flush_ships_gauges_absolute_and_counters_delta(self):
        queue = _ListQueue()
        with obs.capture():
            telemetry = WorkerTelemetry.activate(_worker_spec(queue))
            OBS.registry.inc("w.tasks", 2)
            OBS.registry.set("w.depth", 5)
            assert telemetry.flush()
            OBS.registry.inc("w.tasks", 3)
            OBS.registry.set("w.depth", 4)
            assert telemetry.flush()
        first, second = queue.items
        assert first[5]["w.tasks"] == 2 and second[5]["w.tasks"] == 3
        assert first[5]["w.depth"] == 5 and second[5]["w.depth"] == 4

    def test_overflow_counts_drop_and_does_not_block(self):
        queue = _ListQueue(maxsize=1)
        with obs.capture():
            telemetry = WorkerTelemetry.activate(_worker_spec(queue))
            OBS.registry.inc("w.tasks")
            assert telemetry.flush()          # fills the channel
            OBS.registry.inc("w.tasks")
            started = time.perf_counter()
            assert telemetry.flush() is False  # dropped, not blocked
            assert time.perf_counter() - started < 0.5
            assert telemetry.drops == 1

    def test_dropped_delta_rides_next_flush(self):
        queue = _ListQueue(maxsize=1)
        with obs.capture():
            telemetry = WorkerTelemetry.activate(_worker_spec(queue))
            OBS.registry.inc("w.tasks", 2)
            assert telemetry.flush()
            OBS.registry.inc("w.tasks", 3)
            assert telemetry.flush() is False  # channel full: cursor holds
            queue.items.clear()                # parent drained
            OBS.registry.inc("w.tasks", 4)
            assert telemetry.flush()
        message = queue.items[0]
        assert message[5]["w.tasks"] == 7  # 3 (dropped) + 4 retried together
        assert message[9] == 1             # unreported drop count shipped

    def test_drain_merges_rolled_up_and_per_process(self):
        queue = _ListQueue()
        with obs.capture():
            telemetry = WorkerTelemetry.activate(_worker_spec(queue))
            OBS.registry.inc("w.tasks", 2)
            OBS.registry.observe("w.lat.s", 0.02)
            telemetry.flush()
        channel = TelemetryChannel.__new__(TelemetryChannel)
        channel.queue = queue
        channel.messages = 0
        channel.merged_metrics = 0
        channel.merged_events = 0
        channel.worker_drops = 0
        channel.seen_workers = {}
        channel._closed = False
        with obs.capture() as active:
            handled = channel.drain()
            snap = active.registry.snapshot()
        assert handled == 1
        assert snap["w.tasks"] == 2
        assert snap["proc.persist-worker-0.w.tasks"] == 2
        assert snap["proc.persist-worker-0.w.lat.s"]["count"] == 1
        assert snap["proc.persist-worker-0.os_pid"] == os.getpid()
        assert channel.seen_workers == {"persist-worker-0": os.getpid()}


# ---------------------------------------------------------------------------
# Trace merging determinism
# ---------------------------------------------------------------------------

class _FakeClock:
    """Deterministic monotonic clock: each read advances 1 ms."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        self.now += 0.001
        return self.now


def _build_worker_events():
    tracer = Tracer(clock=_FakeClock())
    with tracer.span("worker_encode", "ckpt"):
        pass
    with tracer.span("worker_write", "ckpt"):
        pass
    return tracer.export()["traceEvents"]


class TestMergeEvents:
    def test_merged_trace_byte_identical_across_runs(self):
        def merged():
            events = _build_worker_events()
            tracer = Tracer(clock=_FakeClock())
            tracer.merge_events(events, pid=1,
                                process_name="persist-worker-0",
                                offset_us=250.0)
            return tracer.to_json()
        assert merged() == merged()

    def test_merge_retags_pid_and_rebases_time(self):
        events = _build_worker_events()
        tracer = Tracer(clock=_FakeClock())
        tracer.merge_events(events, pid=7, process_name="persist-worker-0",
                            offset_us=1000.0)
        merged = tracer.export()["traceEvents"]
        spans = [e for e in merged if e.get("ph") == "X"]
        assert {e["pid"] for e in spans} == {7}
        assert min(e["ts"] for e in spans) >= 1000.0
        names = [e for e in merged if e.get("ph") == "M"
                 and e.get("name") == "process_name" and e["pid"] == 7]
        assert [(e["pid"], e["args"]["name"]) for e in names] \
            == [(7, "persist-worker-0")]

    def test_process_name_metadata_emitted_once(self):
        tracer = Tracer(clock=_FakeClock())
        events = _build_worker_events()
        tracer.merge_events(events, pid=1, process_name="w", offset_us=0.0)
        tracer.merge_events(events, pid=1, process_name="w", offset_us=0.0)
        names = [e for e in tracer.export()["traceEvents"]
                 if e.get("ph") == "M" and e.get("name") == "process_name"
                 and e["pid"] == 1]
        assert len(names) == 1


# ---------------------------------------------------------------------------
# Flight recorder
# ---------------------------------------------------------------------------

class TestFlightRecorder:
    def test_ring_keeps_only_newest(self):
        recorder = FlightRecorder(capacity=3)
        for index in range(10):
            recorder.record("task", "start", seq=index)
        entries = recorder.entries()
        assert len(entries) == 3
        assert [e["data"]["seq"] for e in entries] == [7, 8, 9]
        assert recorder.recorded == 10

    def test_absorb_keeps_per_worker_shadow_rings(self):
        recorder = FlightRecorder(capacity=4)
        recorder.absorb("persist-worker-0", [{"kind": "task", "seq": 1}])
        recorder.absorb("persist-worker-0", [{"kind": "task", "seq": 2}])
        snap = recorder.snapshot()
        assert [e["seq"] for e in snap["workers"]["persist-worker-0"]] \
            == [1, 2]

    def test_dump_is_valid_json_with_reason(self, tmp_path):
        recorder = FlightRecorder(capacity=8)
        recorder.record("ckpt", "submit", seq=0)
        path = recorder.dump(path=str(tmp_path / "flight.json"),
                             reason="unit test", extra={"outstanding": 1})
        with open(path) as handle:
            body = json.load(handle)
        assert body["reason"] == "unit test"
        assert body["extra"] == {"outstanding": 1}
        assert body["entries"][0]["name"] == "submit"

    def test_report_cli_renders_flight_dump(self, tmp_path, capsys):
        recorder = FlightRecorder(capacity=8)
        recorder.record("task", "error", seq=3, error="boom")
        path = recorder.dump(path=str(tmp_path / "flight.json"),
                             reason="drill")
        assert report_main(["--flight", path]) == 0
        out = capsys.readouterr().out
        assert "drill" in out and "error" in out


# ---------------------------------------------------------------------------
# SLO targets and watchdog
# ---------------------------------------------------------------------------

class TestSlo:
    def test_scalar_sum_over_pattern(self):
        target = SloTarget(name="stall", metric="ckpt.*.stall.s",
                           threshold=1.0, aggregate="sum")
        snapshot = {"ckpt.a.stall.s": 0.6, "ckpt.b.stall.s": 0.7}
        result = evaluate_snapshot([target], snapshot)[0]
        assert result.observed == pytest.approx(1.3)
        assert result.breached

    def test_quantile_aggregate_takes_worst_match(self):
        hist_fast, hist_slow = Histogram("a"), Histogram("b")
        hist_fast.observe(0.01)
        hist_slow.observe(0.9)
        target = SloTarget(name="p99", metric="lat.*", threshold=0.5,
                           aggregate="p99")
        snapshot = {"lat.a": hist_fast._snapshot(),
                    "lat.b": hist_slow._snapshot()}
        result = evaluate_snapshot([target], snapshot)[0]
        assert result.breached
        assert result.observed > 0.5

    def test_no_data_is_not_a_breach(self):
        results = evaluate_snapshot(DEFAULT_TARGETS, {})
        assert all(not r.breached for r in results)
        assert all(r.status == "no-data" for r in results)

    def test_min_objective(self):
        target = SloTarget(name="throughput", metric="tps", threshold=10,
                           objective="min")
        assert evaluate_snapshot([target], {"tps": 5})[0].breached
        assert not evaluate_snapshot([target], {"tps": 15})[0].breached

    def test_invalid_objective_rejected(self):
        with pytest.raises(ValueError):
            SloTarget(name="x", metric="m", threshold=1, objective="exact")
        with pytest.raises(ValueError):
            SloTarget(name="x", metric="m", threshold=1, aggregate="p42")

    def test_load_config_and_cli_gate_exit_codes(self, tmp_path, capsys):
        config = tmp_path / "slo.json"
        config.write_text(json.dumps({"targets": [
            {"name": "tasks-bound", "metric": "w.tasks", "threshold": 2},
        ]}))
        targets = load_slo_config(str(config))
        assert targets[0].name == "tasks-bound"

        healthy = tmp_path / "ok.json"
        healthy.write_text(json.dumps({"w.tasks": 1}))
        breached = tmp_path / "bad.json"
        breached.write_text(json.dumps({"w.tasks": 9}))
        assert report_main(["--metrics", str(healthy),
                            "--slo", str(config)]) == 0
        capsys.readouterr()
        assert report_main(["--metrics", str(breached),
                            "--slo", str(config)]) == 1
        assert "BREACH" in capsys.readouterr().out

    def test_ci_config_parses_against_defaults_shape(self):
        targets = load_slo_config(CI_SLO_CONFIG)
        assert {t.name for t in targets} >= {
            "persist-stall-budget", "ring-stalls", "telemetry-drops"}

    def test_watchdog_records_breaches(self):
        target = SloTarget(name="tasks-bound", metric="w.tasks", threshold=1)
        with obs.capture() as active:
            active.registry.inc("w.tasks", 5)
            watchdog = SloWatchdog([target])
            breaches = watchdog.check()
            snap = active.registry.snapshot()
        assert len(breaches) == 1
        assert snap["slo.breaches"] == 1
        assert snap["slo.breach.tasks-bound"] == 1


# ---------------------------------------------------------------------------
# Integration: real multi-process engine under an open capture
# ---------------------------------------------------------------------------

def _seeded_payload():
    rng = np.random.default_rng(11)
    return ({"w": rng.standard_normal(2048).astype(np.float32)},
            {"m": rng.standard_normal(2048).astype(np.float32)})


def _captured_mp_run(tmp_path, records=3):
    """One codec-on process-mode persist run under an open capture."""
    model, optim = _seeded_payload()
    store = CheckpointStore(LocalDiskBackend(str(tmp_path)),
                            codec=make_codec("lossless"))
    with obs.capture() as active:
        engine = MultiprocessCheckpointEngine(store, num_workers=2,
                                              queue_depth=4,
                                              ring_bytes=8 << 20)
        try:
            for step in range(records):
                engine.save_full(step, model, optim)
            engine.drain(timeout=60)
        finally:
            engine.finalize()
        snapshot = active.registry.snapshot()
        events = active.tracer.export()["traceEvents"]
        stats = engine.stats()
    return snapshot, events, stats


@pytest.fixture(scope="class")
def captured_run(tmp_path_factory):
    return _captured_mp_run(tmp_path_factory.mktemp("mp-obs"))


class TestMpEngineCapture:
    def test_worker_metrics_rolled_up_and_per_process(self, captured_run):
        snapshot, _, _ = captured_run
        assert snapshot["ckpt.mp.worker.tasks"] == 3
        assert snapshot["ckpt.mp.worker.busy.s"]["count"] == 3
        for stage in ("encode", "pack", "write"):
            assert snapshot[f"ckpt.mp.worker.{stage}.s"]["count"] == 3
        per_proc = [name for name in snapshot
                    if name.startswith("proc.persist-worker-")]
        assert any(name.endswith(".ckpt.mp.worker.busy.s")
                   for name in per_proc)
        assert snapshot["proc.persist-worker-0.os_pid"] > 0

    def test_worker_tails_appear_in_report(self, captured_run):
        snapshot, _, _ = captured_run
        rows = {r["metric"]: r for r in tail_latency_rows(snapshot)}
        row = rows["ckpt.mp.worker.busy.s"]
        assert row["p50"] is not None and row["p99"] is not None
        assert row["p50"] <= row["p99"] <= row["max"] + 1e-9

    def test_turnaround_replaces_parent_busy_misnomer(self, captured_run):
        snapshot, _, _ = captured_run
        # The parent-side commit-minus-submit time is now honestly named;
        # worker busy time comes from the workers themselves and must be
        # no larger than the end-to-end turnaround on a healthy run.
        assert "ckpt.mp.turnaround.s" in snapshot
        assert "ckpt.mp.worker_busy.s" not in snapshot
        assert snapshot["ckpt.mp.turnaround.s"]["count"] == 3

    def test_merged_trace_has_per_worker_process_tracks(self, captured_run):
        _, events, _ = captured_run
        names = {(e["pid"], e["args"]["name"]) for e in events
                 if e.get("ph") == "M" and e.get("name") == "process_name"}
        worker_names = {name for pid, name in names if pid in (1, 2)}
        assert worker_names <= {"persist-worker-0", "persist-worker-1"}
        assert worker_names  # at least one worker shipped its track
        worker_spans = {e["name"] for e in events
                        if e.get("ph") == "X" and e.get("pid") in (1, 2)}
        assert {"worker_encode", "worker_pack", "worker_write"} \
            <= worker_spans

    def test_channel_stats_exposed_and_lossless(self, captured_run):
        snapshot, _, stats = captured_run
        telemetry = stats["telemetry"]
        assert telemetry["worker_drops"] == 0
        assert telemetry["messages"] >= 3  # >= one flush per task
        assert telemetry["merged_events"] > 0
        assert "obs.telemetry.dropped" not in snapshot

    def test_ci_slo_gate_holds_on_captured_run(self, captured_run):
        """The offline SLO gate: the pinned CI targets (stall budget, ring
        stalls, breaker trips, telemetry drops) over a real snapshot.  A
        healthy run emits none of those counters, which is not a breach."""
        results = evaluate_snapshot(load_slo_config(CI_SLO_CONFIG),
                                    captured_run[0])
        assert [r.target.name for r in results if r.breached] == []

    def test_identical_seeded_runs_merge_identically(self, captured_run,
                                                     tmp_path):
        # Wall-clock timestamps differ run to run, but everything the
        # plane controls — logical pids, process names, merged metric
        # names, span names per worker track — must be identical for
        # identical seeded runs.
        def shape(snapshot, events):
            return (
                sorted(name for name in snapshot
                       if not name.endswith(".os_pid")),
                sorted({(e["pid"], e["args"]["name"]) for e in events
                        if e.get("ph") == "M"
                        and e.get("name") == "process_name"}),
                sorted({(e["pid"], e["name"]) for e in events
                        if e.get("ph") == "X" and e.get("pid") != 0}),
            )
        first = shape(captured_run[0], captured_run[1])
        snapshot, events, _ = _captured_mp_run(tmp_path)
        assert shape(snapshot, events) == first

    def test_disabled_mode_spawns_no_channel(self, tmp_path):
        assert not OBS.enabled
        before = OBS.registry.snapshot()
        model, optim = _seeded_payload()
        store = CheckpointStore(LocalDiskBackend(str(tmp_path)),
                                codec=make_codec("lossless"))
        engine = MultiprocessCheckpointEngine(store, num_workers=1,
                                              queue_depth=4,
                                              ring_bytes=8 << 20)
        try:
            assert engine.telemetry is None  # no queue, no worker specs
            engine.save_full(0, model, optim)
            engine.drain(timeout=60)
            assert "telemetry" not in engine.stats()
        finally:
            engine.finalize()
        # Nothing leaked into the (disabled) global registry.
        assert OBS.registry.snapshot() == before


# ---------------------------------------------------------------------------
# SIGKILL drill: flight-recorder post-mortem
# ---------------------------------------------------------------------------

@pytest.mark.chaos
def test_sigkilled_worker_yields_flight_post_mortem(tmp_path, monkeypatch):
    """SIGKILL a persist worker mid-stream: the fail-stop exception must
    reference a flight-recorder post-mortem on disk, and the dump must be
    valid JSON carrying the parent's recent actions plus the victim's
    shadow ring (shipped before the kill)."""
    monkeypatch.setenv("REPRO_FLIGHT_DIR", str(tmp_path / "flight"))
    FLIGHT.clear()
    model, optim = _seeded_payload()
    store = CheckpointStore(LocalDiskBackend(str(tmp_path)),
                            codec=make_codec("lossless"))
    with obs.capture():
        engine = MultiprocessCheckpointEngine(store, num_workers=1,
                                              queue_depth=16,
                                              ring_bytes=8 << 20)
        error = None
        try:
            engine.save_full(0, model, optim).wait(timeout=60)
            victim = engine._workers[0].pid
            os.kill(victim, signal.SIGKILL)
            for step in range(1, 8):
                engine.save_full(step, model, optim)
            engine.finalize(timeout=60)
        except RuntimeError as caught:  # WorkerCrashed subclasses this
            error = caught
        finally:
            engine.abort()

    assert error is not None, "worker SIGKILL must surface an error"
    message = str(error)
    assert "[flight recorder post-mortem: " in message
    path = message.rsplit("[flight recorder post-mortem: ", 1)[1] \
        .rstrip("]").strip()
    assert engine.stats()["flight_dump"] == path
    with open(path) as handle:
        body = json.load(handle)
    assert body["reason"].startswith("mp-engine fail-stop")
    kinds = {entry["kind"] for entry in body["entries"]}
    assert "ckpt" in kinds  # parent submits + the fail-stop marker
    # The victim flushed at least its ready/first-task entries before the
    # kill, so its shadow ring made it into the parent's post-mortem.
    assert "persist-worker-0" in body["workers"]
