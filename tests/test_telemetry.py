"""Observability of the persist path across the process boundary.

Covers interpolated histogram quantiles, the persist worker's one channel
to the parent (its result-queue messages, and the collector recording
their stage stamps as metrics and per-worker trace spans), the flight
recorder and the SLO gate — plus the integration paths: a real
multi-process engine run under an open capture (worker metrics and
per-worker trace tracks land in the parent sinks, and every SLO target
reads a value), identical shapes across identical seeded runs, and the
SIGKILL drill whose fail-stop exception must reference a flight-recorder
post-mortem holding the victim's last seq, with or without a capture.

A worker never enables ``OBS``.  Some class and test names below predate
that (they named the channel workers once shipped telemetry over); the
ids are pinned, and ``FLOOR_DROPPABLE.md`` lists their new names.

Engine construction spawns real worker processes, so the integration
tests reuse one captured run per class where semantics allow.
"""

from __future__ import annotations

import json
import os
import queue as queue_module
import signal
import time
from collections import Counter
from typing import NamedTuple

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
from repro.obs.report import (
    main as report_main,
    render_flight,
    tail_latency_rows,
)
from repro.obs.slo import (
    DEFAULT_TARGETS,
    SloTarget,
    SloWatchdog,
    evaluate_snapshot,
    load_slo_config,
)
from repro.obs.trace import Tracer
from repro.storage.backends import LocalDiskBackend
from repro.storage.checkpoint_store import CheckpointStore, full_key
from repro.storage.mp_engine import (
    MultiprocessCheckpointEngine,
    ShmRing,
    _persist_worker,
    _record_worker_task,
)
from repro.storage.payload_codec import make_codec
from repro.storage.serializer import pack_tree_into_view, prepare_transit

CI_SLO_CONFIG = os.path.join(os.path.dirname(__file__), os.pardir,
                             "benchmarks", "slo_ci.json")


def _seeded_payload():
    rng = np.random.default_rng(11)
    return ({"w": rng.standard_normal(2048).astype(np.float32)},
            {"m": rng.standard_normal(2048).astype(np.float32)})


class _FakeClock:
    """Deterministic monotonic clock: each read advances 1 ms."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        self.now += 0.001
        return self.now


def _worker_tracks(events) -> dict:
    """``{tid: name}`` of the parent trace's ``persist-worker-<i>`` tracks."""
    return {e["tid"]: e["args"]["name"] for e in events
            if e.get("ph") == "M" and e.get("name") == "thread_name"
            and e["args"]["name"].startswith("persist-worker-")}


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
# Registry semantics (the ids once pinned the cross-process merge)
# ---------------------------------------------------------------------------

class TestMergeDelta:
    def test_counter_gauge_histogram_semantics(self):
        registry = MetricsRegistry()
        registry.inc("w.tasks", 10)
        registry.set("w.depth", 1)
        earlier = registry.snapshot()
        registry.inc("w.tasks", 3)
        registry.set("w.depth", 7)
        registry.observe("w.lat.s", 0.02)
        registry.observe("w.lat.s", 0.04)
        snap = registry.snapshot()
        assert snap["w.tasks"] == 13          # counters add
        assert snap["w.depth"] == 7           # gauges take the last value
        assert snap["w.lat.s"]["count"] == 2  # histograms count each sample
        delta = registry.delta(earlier)
        assert delta["w.tasks"] == 3
        assert delta["w.depth"] == 6
        assert delta["w.lat.s"]["count"] == 2

    def test_prefix_renames_every_metric(self):
        registry = MetricsRegistry()
        registry.inc("ckpt.mp.worker.tasks", 2)
        registry.inc("ckpt.async.submitted")
        assert registry.snapshot("ckpt.mp.") == {"ckpt.mp.worker.tasks": 2}
        assert registry.names("ckpt.mp.") == ["ckpt.mp.worker.tasks"]

    def test_kind_conflict_counted_not_raised(self):
        # A name is bound to its first kind; punning it raises.
        registry = MetricsRegistry()
        registry.set("x", 5)
        with pytest.raises(TypeError):
            registry.inc("x", 1)
        assert registry.snapshot() == {"x": 5}

    def test_histogram_merge_snapshot_tracks_extrema(self):
        hist = Histogram("t")
        for value in (0.01, 0.5, 0.002):
            hist.observe(value)
        assert hist.count == 3
        assert hist.min == 0.002
        assert hist.max == 0.5


# ---------------------------------------------------------------------------
# The worker's one channel: its result-queue messages
# ---------------------------------------------------------------------------

def _run_worker_inline(tmp_path, monkeypatch, metas):
    """Run ``_persist_worker`` on this thread over a real ring and disk
    backend, one full record per meta; returns its messages in order."""
    # The worker renices itself; keep this test process's priority.
    monkeypatch.setattr(os, "nice", lambda increment: 0)
    model, optim = _seeded_payload()
    backend = LocalDiskBackend(str(tmp_path))
    ring = ShmRing(1 << 20)
    tasks, results = queue_module.Queue(), queue_module.Queue()
    try:
        for seq, meta in enumerate(metas):
            prepared = prepare_transit(
                CheckpointStore.full_tree(seq, model, optim))
            nbytes = prepared.total_len
            _, offset = ring.alloc(nbytes)
            region = ring.view(offset, nbytes)
            try:
                pack_tree_into_view(prepared, region)
            finally:
                region.release()
            tasks.put(("task", seq, "full", offset, nbytes, meta))
        tasks.put(None)
        _persist_worker(0, ring.name, backend.process_safe_spec(),
                        "lossless", tasks, results)
    finally:
        ring.destroy()
    messages = []
    while not results.empty():
        messages.append(results.get_nowait())
    return messages


@pytest.mark.shm
class TestWorkerTelemetry:
    def test_none_spec_is_inert_and_keeps_obs_disabled(self, tmp_path,
                                                       monkeypatch):
        # The worker never enables OBS and records no flight entries.
        assert not OBS.enabled
        before = OBS.registry.snapshot()
        recorded = FLIGHT.recorded
        _run_worker_inline(tmp_path, monkeypatch, [{"step": 0}])
        assert not OBS.enabled
        assert OBS.registry.snapshot() == before
        assert FLIGHT.recorded == recorded

    def test_flush_ships_gauges_absolute_and_counters_delta(self, tmp_path,
                                                            monkeypatch):
        # ``done`` carries the four stage stamps, in order, inside the
        # task's busy time, plus the worker index and the blob's size.
        before = time.perf_counter()
        messages = _run_worker_inline(tmp_path, monkeypatch, [{"step": 0}])
        after = time.perf_counter()
        (_, seq, info), = [m for m in messages if m[0] == "done"]
        start, encoded, packed, written = info["stamps"]
        assert before <= start <= encoded <= packed <= written <= after
        assert written - start <= info["busy_s"] <= after - before
        assert seq == 0 and info["worker"] == 0
        blob = LocalDiskBackend(str(tmp_path)).read(full_key(0))
        assert info["nbytes"] == len(blob)

    def test_overflow_counts_drop_and_does_not_block(self, tmp_path,
                                                     monkeypatch):
        # One lossless channel: ``ready``, then ``freed`` and ``done`` per
        # task in order, each tagged with the worker.
        messages = _run_worker_inline(tmp_path, monkeypatch,
                                      [{"step": step} for step in range(3)])
        assert [m[0] for m in messages] == ["ready"] + ["freed", "done"] * 3
        assert messages[0] == ("ready", 0)
        assert [m[1] for m in messages[1:]] == [0, 0, 1, 1, 2, 2]
        assert [m[2] for m in messages if m[0] == "freed"] == [0, 0, 0]
        assert [m[2]["worker"] for m in messages if m[0] == "done"] \
            == [0, 0, 0]

    def test_dropped_delta_rides_next_flush(self, tmp_path, monkeypatch):
        # A failed task reports ``error`` tagged with the worker; the next
        # task still completes.
        messages = _run_worker_inline(tmp_path, monkeypatch,
                                      [{}, {"step": 1}])
        assert [m[0] for m in messages] \
            == ["ready", "freed", "error", "freed", "done"]
        _, seq, worker, text = messages[2]
        assert (seq, worker) == (0, 0)
        assert text.startswith("KeyError")
        assert messages[4][1] == 1

    def test_drain_merges_rolled_up_and_per_process(self):
        # The collector records one ``done`` as the ckpt.mp.worker.*
        # metrics and three spans on the worker's track; no per-process
        # metric copies exist.
        info = {"stamps": (10.0, 10.5, 10.75, 11.0), "busy_s": 1.25,
                "worker": 1, "nbytes": 4096}
        with obs.capture(clock=_FakeClock()) as active:
            _record_worker_task(7, info)
            snap = active.registry.snapshot()
            events = active.tracer.export()["traceEvents"]
        assert snap["ckpt.mp.worker.tasks"] == 1
        assert snap["ckpt.mp.worker.bytes"] == 4096
        for stage, seconds in (("encode", 0.5), ("pack", 0.25),
                               ("write", 0.25), ("busy", 1.25)):
            assert snap[f"ckpt.mp.worker.{stage}.s"]["count"] == 1
            assert snap[f"ckpt.mp.worker.{stage}.s"]["sum"] \
                == pytest.approx(seconds)
        assert not [name for name in snap if name.startswith("proc.")]
        tracks = _worker_tracks(events)
        assert list(tracks.values()) == ["persist-worker-1"]
        assert [(e["name"], e["args"]["seq"]) for e in events
                if e.get("ph") == "X" and e["tid"] in tracks] \
            == [("worker_encode", 7), ("worker_pack", 7), ("worker_write", 7)]


# ---------------------------------------------------------------------------
# Worker spans from clock readings (the ids once pinned the trace merge)
# ---------------------------------------------------------------------------

def _worker_span_tracer():
    tracer = Tracer(clock=_FakeClock())  # origin: the first read, 0.001
    tracer.complete_between("worker_encode", 0.011, 0.013,
                            "persist-worker-0", "ckpt", {"seq": 0})
    tracer.complete_between("worker_write", 0.013, 0.016,
                            "persist-worker-0", "ckpt", {"seq": 0})
    return tracer


class TestMergeEvents:
    def test_merged_trace_byte_identical_across_runs(self):
        assert _worker_span_tracer().to_json() \
            == _worker_span_tracer().to_json()

    def test_merge_retags_pid_and_rebases_time(self):
        # Clock readings land relative to the tracer's origin, on the
        # named track of the parent's own process.
        events = _worker_span_tracer().export()["traceEvents"]
        spans = [e for e in events if e.get("ph") == "X"]
        assert [e["name"] for e in spans] == ["worker_encode", "worker_write"]
        assert [e["ts"] for e in spans] \
            == pytest.approx([10_000.0, 12_000.0])
        assert [e["dur"] for e in spans] == pytest.approx([2_000.0, 3_000.0])
        assert {e["pid"] for e in spans} == {0}
        tracks = _worker_tracks(events)
        assert list(tracks.values()) == ["persist-worker-0"]
        assert {e["tid"] for e in spans} == set(tracks)

    def test_process_name_metadata_emitted_once(self):
        # One track-name record per worker track, however many spans.
        tracer = _worker_span_tracer()
        tracer.complete_between("worker_pack", 0.02, 0.03, "persist-worker-1")
        tracer.complete_between("worker_pack", 0.03, 0.04, "persist-worker-1")
        names = [e["args"]["name"] for e in tracer.export()["traceEvents"]
                 if e.get("ph") == "M" and e.get("name") == "thread_name"]
        assert sorted(names) == ["persist-worker-0", "persist-worker-1"]


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
        # Worker-tagged entries live in the one ring (there are no shadow
        # rings) and render with their worker.
        recorder = FlightRecorder(capacity=4)
        recorder.record("worker", "start", worker=0, seq=1)
        recorder.record("worker", "done", worker=0, seq=1, nbytes=10)
        snap = recorder.snapshot()
        assert "workers" not in snap
        assert [(e["name"], e["data"]["worker"], e["data"]["seq"])
                for e in snap["entries"]] == [("start", 0, 1), ("done", 0, 1)]
        assert "done  worker=0 seq=1 nbytes=10" in render_flight(snap)

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
        assert {t.name for t in targets} == {
            "persist-stall-budget", "ring-stalls", "breaker-open"}
        # Every CI target watches a metric the built-in targets watch.
        assert {t.metric for t in targets} \
            <= {t.metric for t in DEFAULT_TARGETS}

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

class _CapturedRun(NamedTuple):
    snapshot: dict
    events: list
    stats: dict
    blob_bytes: int   # sum of the written blobs' sizes


def _captured_mp_run(tmp_path, records=3) -> _CapturedRun:
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
    blob_bytes = sum(len(store.backend.read(full_key(step)))
                     for step in range(records))
    return _CapturedRun(snapshot, events, stats, blob_bytes)


@pytest.fixture(scope="class")
def captured_run(tmp_path_factory):
    return _captured_mp_run(tmp_path_factory.mktemp("mp-obs"))


@pytest.mark.shm
class TestMpEngineCapture:
    def test_worker_metrics_rolled_up_and_per_process(self, captured_run):
        # One observation per record, bytes equal to the blobs written,
        # and no per-process copies.
        snapshot = captured_run.snapshot
        assert snapshot["ckpt.mp.worker.tasks"] == 3
        for stage in ("encode", "pack", "write", "busy"):
            assert snapshot[f"ckpt.mp.worker.{stage}.s"]["count"] == 3
        assert snapshot["ckpt.mp.worker.bytes"] == captured_run.blob_bytes
        assert not [name for name in snapshot if name.startswith("proc.")]

    def test_worker_tails_appear_in_report(self, captured_run):
        rows = {r["metric"]: r for r in tail_latency_rows(
            captured_run.snapshot)}
        row = rows["ckpt.mp.worker.busy.s"]
        assert row["p50"] is not None and row["p99"] is not None
        assert row["p50"] <= row["p99"] <= row["max"] + 1e-9

    def test_turnaround_replaces_parent_busy_misnomer(self, captured_run):
        snapshot = captured_run.snapshot
        # The parent-side commit-minus-submit time is now honestly named;
        # worker busy time comes from the workers themselves and must be
        # no larger than the end-to-end turnaround on a healthy run.
        assert "ckpt.mp.turnaround.s" in snapshot
        assert "ckpt.mp.worker_busy.s" not in snapshot
        assert snapshot["ckpt.mp.turnaround.s"]["count"] == 3

    def test_merged_trace_has_per_worker_process_tracks(self, captured_run):
        # The persist-worker-<i> tracks carry the three spans of every
        # record, each inside its record's lifetime on the parent's clock.
        events = captured_run.events
        tracks = _worker_tracks(events)
        assert set(tracks.values()) <= {"persist-worker-0",
                                        "persist-worker-1"}
        spans = [e for e in events if e.get("ph") == "X"]
        worker_spans = [e for e in spans if e["tid"] in tracks]
        assert sorted(Counter(e["name"] for e in worker_spans).items()) \
            == [("worker_encode", 3), ("worker_pack", 3), ("worker_write", 3)]
        pack = {e["args"]["seq"]: e for e in spans if e["name"] == "mp_pack"}
        commit = {e["args"]["seq"]: e for e in spans
                  if e["name"] == "mp_commit"}
        for span in worker_spans:
            seq = span["args"]["seq"]
            # The descriptor is queued inside mp_pack, and the commit
            # starts once ``done`` arrives: a wrong clock conversion puts
            # the span outside this window.
            assert span["ts"] >= pack[seq]["ts"]
            assert span["ts"] + span["dur"] <= commit[seq]["ts"]

    def test_channel_stats_exposed_and_lossless(self, captured_run):
        # One observation per ``done``; the channel's stats are gone.
        stats = captured_run.stats
        assert captured_run.snapshot["ckpt.mp.worker.busy.s"]["count"] \
            == stats["committed"] == 3
        assert "telemetry" not in stats

    def test_ci_slo_gate_holds_on_captured_run(self, captured_run):
        """The offline SLO gate: the pinned CI targets (stall budget, ring
        stalls, breaker trips) over a real snapshot."""
        results = evaluate_snapshot(load_slo_config(CI_SLO_CONFIG),
                                    captured_run.snapshot)
        assert [r.target.name for r in results if r.breached] == []

    def test_every_slo_target_reads_ok_on_captured_run(self, captured_run):
        """The gate can fail: every target reads a value, so no-data means
        broken wiring.  ``breaker-open`` is the exception: this run's
        backend has no circuit breaker, so nothing can create its metric."""
        targets = load_slo_config(CI_SLO_CONFIG) + DEFAULT_TARGETS
        statuses = {(r.target.name, r.status) for r in
                    evaluate_snapshot(targets, captured_run.snapshot)}
        assert ("breaker-open", "no-data") in statuses
        assert {status for name, status in statuses
                if name != "breaker-open"} == {"ok"}

    def test_identical_seeded_runs_merge_identically(self, captured_run,
                                                     tmp_path):
        # Timestamps differ run to run, but the metric names and the span
        # names and counts on the worker tracks must not.
        def shape(run):
            tracks = _worker_tracks(run.events)
            return (sorted(run.snapshot),
                    sorted(Counter(e["name"] for e in run.events
                                   if e.get("ph") == "X"
                                   and e["tid"] in tracks).items()))
        assert shape(_captured_mp_run(tmp_path)) == shape(captured_run)

    def test_disabled_mode_spawns_no_channel(self, tmp_path):
        assert not OBS.enabled
        before = OBS.registry.snapshot()
        events_before = len(OBS.tracer.events())
        model, optim = _seeded_payload()
        store = CheckpointStore(LocalDiskBackend(str(tmp_path)),
                                codec=make_codec("lossless"))
        engine = MultiprocessCheckpointEngine(store, num_workers=1,
                                              queue_depth=4,
                                              ring_bytes=8 << 20)
        try:
            engine.save_full(0, model, optim)
            engine.drain(timeout=60)
            assert "telemetry" not in engine.stats()
            assert not hasattr(engine, "telemetry")
        finally:
            engine.finalize()
        # Nothing leaked into the (disabled) global sinks.
        assert OBS.registry.snapshot() == before
        assert len(OBS.tracer.events()) == events_before


# ---------------------------------------------------------------------------
# SIGKILL drill: flight-recorder post-mortem
# ---------------------------------------------------------------------------

def _sigkill_drill(tmp_path, monkeypatch) -> dict:
    """SIGKILL the one persist worker after seq 0 commits, keep
    submitting, and return the post-mortem the fail-stop names."""
    monkeypatch.setenv("REPRO_FLIGHT_DIR", str(tmp_path / "flight"))
    FLIGHT.clear()
    model, optim = _seeded_payload()
    store = CheckpointStore(LocalDiskBackend(str(tmp_path)),
                            codec=make_codec("lossless"))
    engine = MultiprocessCheckpointEngine(store, num_workers=1,
                                          queue_depth=16,
                                          ring_bytes=8 << 20)
    error = None
    try:
        engine.save_full(0, model, optim).wait(timeout=60)
        os.kill(engine._workers[0].pid, signal.SIGKILL)
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
    return body


def _worker_zero_entries(body) -> list:
    return [(entry["name"], entry["data"].get("seq"))
            for entry in body["entries"]
            if entry["kind"] == "worker" and entry["data"]["worker"] == 0]


@pytest.mark.chaos
@pytest.mark.shm
def test_sigkilled_worker_yields_flight_post_mortem(tmp_path, monkeypatch):
    """SIGKILL a persist worker mid-stream under a capture: the fail-stop
    exception must reference a flight-recorder post-mortem on disk, and
    the dump must carry the parent's recent actions plus the victim's
    ``ready`` and seq-0 ``done``, recorded by the parent's collector."""
    with obs.capture():
        body = _sigkill_drill(tmp_path, monkeypatch)
    kinds = {entry["kind"] for entry in body["entries"]}
    assert "ckpt" in kinds  # parent submits + the fail-stop marker
    entries = _worker_zero_entries(body)
    assert ("ready", None) in entries
    assert ("done", 0) in entries


@pytest.mark.chaos
@pytest.mark.shm
def test_sigkilled_worker_post_mortem_without_capture(tmp_path,
                                                      monkeypatch):
    """The same drill with observability off: the worker-tagged entries
    are always recorded, so the victim's last seq still reaches the
    post-mortem."""
    assert not OBS.enabled
    entries = _worker_zero_entries(_sigkill_drill(tmp_path, monkeypatch))
    assert entries[:1] == [("ready", None)]
    assert ("start", 0) in entries
    assert ("done", 0) in entries
