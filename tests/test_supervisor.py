"""Cluster failure supervisor: detection edge cases, orchestrated
recovery drills, degraded mode, and the sim-layer pricing model.

Everything runs on the shared virtual clock with seeded fault schedules,
so the drills are deterministic and fast.  The seeded chaos drills are
marked ``chaos``: CI re-runs them with extra seeds via ``CHAOS_SEED``.
"""

import os

import pytest

from repro import obs
from repro.baselines.gemini import GeminiCheckpointer
from repro.core import CheckpointConfig, LowDiffCheckpointer
from repro.distributed import (
    ClusterSupervisor,
    FailureDomainTopology,
    FaultKind,
    SupervisedTrainingLoop,
    SupervisorConfig,
    WorkerFault,
    WorkerFaultInjector,
    WorkerStatus,
)
from repro.sim import (
    GeminiStrategy,
    SupervisorModel,
    TrainingSim,
    Workload,
    run_with_failures,
    worker_failure_schedule,
)
from repro.sim.cluster import A100_CLUSTER
from repro.storage import CheckpointStore, InMemoryBackend
from repro.utils.rng import Rng
from tests.helpers import STRATEGIES, assert_states_equal, make_mlp_trainer

#: Default seeds exercised on every run; CI's chaos job appends more via
#: the CHAOS_SEED environment variable.
CHAOS_SEEDS = [13, 31, 53]
if os.environ.get("CHAOS_SEED"):
    CHAOS_SEEDS = CHAOS_SEEDS + [int(os.environ["CHAOS_SEED"])]

CFG = dict(heartbeat_timeout_s=2.5, recovery_deadline_s=10.0,
           drain_timeout_s=2.0, resync_time_s=1.0)


def lowdiff_factory(store):
    # batch_size=1 keeps chain replay bit-exact for Adam.
    return LowDiffCheckpointer(
        store, CheckpointConfig(full_every_iters=10, batch_size=1))


def gemini_factory(store):
    return GeminiCheckpointer(store, memory_every=1, storage_every=5)


def make_loop(faults, num_workers=4, factory=lowdiff_factory, **overrides):
    trainer = make_mlp_trainer(num_workers=num_workers)
    injector = WorkerFaultInjector(num_workers, faults=list(faults))
    store = CheckpointStore(InMemoryBackend())
    config = SupervisorConfig(**{**CFG, **overrides})
    loop = SupervisedTrainingLoop(trainer, factory, store, injector,
                                  config=config)
    return loop, trainer


def baseline_state(num_workers=4, iterations=20):
    trainer = make_mlp_trainer(num_workers=num_workers)
    for _ in range(iterations):
        trainer.step()
    return trainer.model_state()


# ---------------------------------------------------------------------------
# Detection edge cases
# ---------------------------------------------------------------------------

class TestDetection:
    def test_heartbeat_exactly_at_timeout_is_still_alive(self):
        """A heartbeat age of exactly the timeout is on time — failure is
        declared only when the age strictly exceeds it."""
        sup = ClusterSupervisor(2, config=SupervisorConfig(
            heartbeat_timeout_s=5.0))
        sup.clock.sleep(5.0)
        assert sup.poll() == []
        assert all(s == WorkerStatus.HEALTHY for s in sup.status.values())
        sup.clock.sleep(0.1)
        assert sup.poll() == [0, 1]
        assert all(s == WorkerStatus.RECOVERING for s in sup.status.values())

    def test_suspect_grace_makes_suspect_observable(self):
        sup = ClusterSupervisor(2, config=SupervisorConfig(
            heartbeat_timeout_s=2.0, suspect_grace_s=3.0))
        sup.heartbeat(1)
        sup.clock.sleep(3.0)
        assert sup.poll() == []
        assert sup.status[0] == WorkerStatus.SUSPECT
        assert sup.status[1] == WorkerStatus.SUSPECT
        # A beat during the grace window clears the suspicion.
        sup.heartbeat(1)
        assert sup.status[1] == WorkerStatus.HEALTHY
        sup.clock.sleep(2.5)
        assert sup.poll() == [0]
        assert sup.status[1] == WorkerStatus.SUSPECT  # aging again

    def test_detection_latency_measured_from_last_beat(self):
        sup = ClusterSupervisor(1, config=SupervisorConfig(
            heartbeat_timeout_s=2.0))
        sup.clock.sleep(1.0)
        sup.heartbeat(0)
        sup.clock.sleep(2.5)
        assert sup.poll() == [0]
        assert sup.detections[0].latency_s == pytest.approx(2.5)
        assert sup.detections[0].host == sup.topology.host(0)

    def test_transitions_audited(self):
        sup = ClusterSupervisor(1, config=SupervisorConfig(
            heartbeat_timeout_s=1.0))
        sup.clock.sleep(1.5)
        sup.poll()
        states = [(old, new) for _, _, old, new in sup.transitions]
        assert states == [
            (WorkerStatus.HEALTHY, WorkerStatus.SUSPECT),
            (WorkerStatus.SUSPECT, WorkerStatus.RECOVERING),
        ]

    def test_topology_mismatch_rejected(self):
        with pytest.raises(ValueError):
            ClusterSupervisor(4, topology=FailureDomainTopology.regular(2))


# ---------------------------------------------------------------------------
# Orchestration edge cases
# ---------------------------------------------------------------------------

class TestOrchestrationEdgeCases:
    def test_partition_heals_mid_recovery(self):
        """A partitioned worker whose link returns while the supervisor is
        backing off is recovered as 'healed' — state never died, no
        rollback, bit-exact with the uninterrupted run."""
        loop, trainer = make_loop([
            WorkerFault(kind=FaultKind.PARTITION, at_iteration=3, rank=1,
                        duration_s=6.0),
        ])
        report = loop.run(20)
        assert len(report.recoveries) == 1
        assert report.recoveries[0].sources == {1: "healed"}
        assert report.recoveries[0].rolled_back_to is None
        assert report.reprocessed_iterations == 0
        assert_states_equal(trainer.model_state(), baseline_state())

    def test_two_same_domain_workers_die_same_tick(self):
        """A host failure kills both of its workers at once: one detection
        poll declares both, one orchestration recovers both from the
        surviving replicas."""
        topology = FailureDomainTopology.regular(4)  # host0 = ranks {0, 1}
        trainer = make_mlp_trainer(num_workers=4)
        injector = WorkerFaultInjector(4, topology=topology, faults=[
            WorkerFault(kind=FaultKind.DOMAIN, at_iteration=4,
                        domain="host0", down_s=2.0),
        ])
        loop = SupervisedTrainingLoop(
            trainer, lowdiff_factory, CheckpointStore(InMemoryBackend()),
            injector, config=SupervisorConfig(**CFG))
        report = loop.run(20)
        assert len(report.recoveries) == 1
        event = report.recoveries[0]
        assert event.ranks == (0, 1)
        assert event.sources == {0: "peer", 1: "peer"}
        # Both declared by the same poll.
        times = [d.time_s for d in report.detections]
        assert len(times) == 2 and times[0] == times[1]
        assert_states_equal(trainer.model_state(), baseline_state())

    def test_crash_during_in_flight_allreduce(self):
        """An in-flight crash kills the step inside the collective: the
        step aborts before any state mutates, survivors re-run it after
        recovery, and the final state is bit-exact."""
        loop, trainer = make_loop([
            WorkerFault(kind=FaultKind.CRASH, at_iteration=4, rank=2,
                        down_s=2.0, in_flight=True),
        ])
        report = loop.run(20)
        assert report.aborted_steps == 1
        assert report.recoveries[0].sources == {2: "peer"}
        assert trainer.replicas_consistent()
        assert_states_equal(trainer.model_state(), baseline_state())

    def test_straggler_dilates_but_never_fails(self):
        """A slow worker below the timeout is never declared failed — the
        run just takes longer."""
        loop, trainer = make_loop([
            WorkerFault(kind=FaultKind.SLOW, at_iteration=2, rank=3,
                        duration_s=5.0, slow_factor=2.0),
        ])
        report = loop.run(15)
        assert report.detections == []
        assert report.recoveries == []
        assert report.wall_time_s > 15.0  # dilation showed up in wall time
        assert_states_equal(trainer.model_state(),
                            baseline_state(iterations=15))

    def test_hang_shorter_than_timeout_is_invisible(self):
        loop, trainer = make_loop([
            WorkerFault(kind=FaultKind.HANG, at_iteration=5, rank=0,
                        duration_s=1.5),
        ])
        report = loop.run(15)
        assert report.detections == []
        assert report.stalled_ticks >= 1
        assert_states_equal(trainer.model_state(),
                            baseline_state(iterations=15))


# ---------------------------------------------------------------------------
# End-to-end acceptance drills
# ---------------------------------------------------------------------------

class TestEndToEndDrills:
    def test_killed_worker_detected_and_restored_from_peer(self):
        """Drill (a): a killed worker is detected within the heartbeat
        timeout (plus one poll period), restored from the cheapest tier —
        a surviving peer replica — and the run resumes bit-exact."""
        loop, trainer = make_loop([
            WorkerFault(kind=FaultKind.CRASH, at_iteration=5, rank=2,
                        down_s=2.0),
        ])
        report = loop.run(20)
        assert len(report.detections) == 1
        detection = report.detections[0]
        assert detection.rank == 2
        # Declared within timeout + one poll tick.
        assert detection.latency_s <= CFG["heartbeat_timeout_s"] + 1.0 + 1e-9
        assert report.recoveries[0].sources == {2: "peer"}
        assert report.recoveries[0].rolled_back_to is None
        assert trainer.iteration == 20
        assert trainer.replicas_consistent()
        assert_states_equal(trainer.model_state(), baseline_state())

    def test_losing_every_replica_falls_back_to_full_plus_chain(self):
        """Drill (b): every replica holder dies at once — recovery falls
        back to the last persisted full+diff chain, rolls the job back,
        re-processes the lost iterations, and stays bit-exact."""
        loop, trainer = make_loop([
            WorkerFault(kind=FaultKind.CRASH, at_iteration=7,
                        ranks=(0, 1, 2, 3), down_s=1.0),
        ], recovery_deadline_s=30.0)
        report = loop.run(20)
        event = report.recoveries[0]
        assert set(event.sources.values()) == {"storage"}
        assert event.rolled_back_to is not None
        assert event.rolled_back_to <= 7
        assert report.reprocessed_iterations == 7 - event.rolled_back_to
        assert trainer.iteration == 20
        assert_states_equal(trainer.model_state(), baseline_state())

    @pytest.mark.parametrize("name", STRATEGIES)
    def test_total_loss_rolls_back_under_every_strategy(self, name):
        """Drill (b) through the lifecycle contract alone: quiesce, tier
        recovery and the re-attach at the rolled-back step work for all
        six strategies."""
        rho, factory, _, exact = STRATEGIES[name]
        trainer = make_mlp_trainer(num_workers=2, rho=rho)
        injector = WorkerFaultInjector(2, faults=[
            WorkerFault(kind=FaultKind.CRASH, at_iteration=7,
                        ranks=(0, 1), down_s=1.0)])
        loop = SupervisedTrainingLoop(
            trainer, factory, CheckpointStore(InMemoryBackend()), injector,
            config=SupervisorConfig(**{**CFG, "recovery_deadline_s": 30.0}))
        report = loop.run(20)
        event = report.recoveries[0]
        # Gemini's peer-memory tier survives an unwiped loss.
        assert set(event.sources.values()) == \
            {"memory" if name == "gemini" else "storage"}
        assert event.rolled_back_to <= 7
        assert report.reprocessed_iterations == 7 - event.rolled_back_to
        assert trainer.iteration == 20
        if exact:
            straight = make_mlp_trainer(num_workers=2, rho=rho)
            straight.run(20)
            assert_states_equal(trainer.model_state(), straight.model_state())

    def test_correlated_loss_gemini_serves_from_storage_tier(self):
        """Drill (b), Gemini flavour: a correlated failure wipes the
        peer-memory tier with the replicas, so recovery degrades to the
        durable storage tier; without the wipe the fresher memory tier
        serves."""
        wiped, trainer = make_loop([
            WorkerFault(kind=FaultKind.CRASH, at_iteration=8,
                        ranks=(0, 1, 2, 3), down_s=1.0, wipe_replicas=True),
        ], factory=gemini_factory, recovery_deadline_s=30.0)
        report = wiped.run(20)
        assert set(report.recoveries[0].sources.values()) == {"storage"}
        # Storage tier persists every 5: rollback lands on a multiple of 5.
        assert report.recoveries[0].rolled_back_to == 5
        assert trainer.iteration == 20

        intact, _ = make_loop([
            WorkerFault(kind=FaultKind.CRASH, at_iteration=8,
                        ranks=(0, 1, 2, 3), down_s=1.0),
        ], factory=gemini_factory, recovery_deadline_s=30.0)
        report = intact.run(20)
        assert set(report.recoveries[0].sources.values()) == {"memory"}
        assert report.recoveries[0].rolled_back_to == 8

    def test_deadline_miss_degrades_then_readmits(self):
        """Drill (c): a worker that cannot be restored within its deadline
        triggers degraded-mode training on the survivors; when its machine
        returns it is elastically re-admitted with a state re-sync."""
        loop, trainer = make_loop([
            WorkerFault(kind=FaultKind.CRASH, at_iteration=5, rank=1,
                        down_s=30.0),
        ], recovery_deadline_s=6.0)
        report = loop.run(25)
        assert report.degraded_steps > 0
        assert report.degraded_time_s > 0.0
        # The busiest of three survivors carries ceil(4/3) = 2 shards, so
        # steps per virtual second (iter_time_s = 1) halve while degraded.
        assert report.degraded_steps / report.degraded_time_s == \
            pytest.approx(0.5, rel=0.25)
        assert len(report.degraded_intervals) == 1
        assert report.degraded_intervals[0].ranks == (1,)
        assert report.degraded_intervals[0].end_s is not None
        assert report.resyncs == 1
        # Fully healed at the end: full world, consistent, all healthy.
        assert trainer.iteration == 25
        assert not trainer.is_degraded
        assert trainer.world_size == 4
        assert trainer.replicas_consistent()
        assert all(s == WorkerStatus.HEALTHY
                   for s in loop.supervisor.status.values())

    def test_supervisor_metrics_reported(self):
        """The drills surface detection latency, recovery attempts, and
        time-in-degraded through the ``supervisor.*`` obs metrics."""
        with obs.capture() as active:
            loop, _ = make_loop([
                WorkerFault(kind=FaultKind.CRASH, at_iteration=3, rank=1,
                            down_s=30.0),
            ], recovery_deadline_s=6.0)
            loop.run(20)
            snapshot = active.registry.snapshot()
        assert snapshot["supervisor.detections"] == 1
        assert snapshot["supervisor.recovery.events"] == 1
        assert snapshot["supervisor.recovery.attempts"] >= 1
        assert snapshot["supervisor.detection.latency_s"]["count"] == 1
        assert snapshot["supervisor.degraded.entries"] == 1
        assert snapshot["supervisor.degraded.time_s"]["sum"] > 0.0
        assert snapshot["supervisor.readmit.resyncs"] == 1

    def test_quiesce_discards_in_flight_diffs(self):
        """Recovery must never see diffs newer than the committed prefix:
        the post-recovery rollback step equals what the *quiesced* chain
        held, and the resumed run is still bit-exact."""
        loop, trainer = make_loop([
            WorkerFault(kind=FaultKind.CRASH, at_iteration=9,
                        ranks=(0, 1, 2, 3), down_s=1.0),
        ], recovery_deadline_s=30.0)
        report = loop.run(20)
        assert report.recoveries[0].rolled_back_to <= 9
        assert_states_equal(trainer.model_state(), baseline_state())


# ---------------------------------------------------------------------------
# Degraded-world trainer math
# ---------------------------------------------------------------------------

class TestDegradedWorld:
    def test_degraded_step_covers_all_shards(self):
        """Survivors take over orphaned shards with rescaled averaging, so
        the degraded global gradient equals the full-batch mean (dense
        path; compression selects per-rank so it is exempt)."""
        full = make_mlp_trainer(num_workers=4, rho=None)
        degraded = make_mlp_trainer(num_workers=4, rho=None)
        for _ in range(3):
            full.step()
            degraded.step()
        degraded.deactivate_worker(3)
        assert degraded.is_degraded
        assert degraded.max_shards_per_worker() == 2
        full.step()
        degraded.step()
        for name, value in full.model_state().items():
            assert value == pytest.approx(
                degraded.model_state()[name], abs=1e-12), name

    def test_reactivate_restores_full_world(self):
        trainer = make_mlp_trainer(num_workers=3, rho=None)
        for _ in range(2):
            trainer.step()
        trainer.deactivate_worker(1)
        trainer.step()
        trainer.reactivate_worker(1)
        assert trainer.world_size == 3
        assert not trainer.is_degraded
        assert trainer.resyncs == 1
        assert trainer.replicas_consistent()
        trainer.step()
        assert trainer.replicas_consistent()

    def test_cannot_deactivate_last_worker(self):
        trainer = make_mlp_trainer(num_workers=2)
        trainer.deactivate_worker(0)
        with pytest.raises(RuntimeError):
            trainer.deactivate_worker(1)


# ---------------------------------------------------------------------------
# Seeded chaos drills (CI re-runs with extra seeds)
# ---------------------------------------------------------------------------

@pytest.mark.chaos
class TestChaosDrills:
    @pytest.mark.parametrize("seed", CHAOS_SEEDS)
    def test_random_worker_fault_plan_completes(self, seed):
        """A randomized worker-level fault plan (crashes, hangs,
        partitions, domain failures) must always complete the run with
        consistent replicas and a fully re-admitted world."""
        topology = FailureDomainTopology.regular(4)
        plan = WorkerFaultInjector.random_plan(
            4, iterations=30, rng=Rng(seed), fault_rate=0.12,
            topology=topology, mean_down_s=4.0, mean_duration_s=5.0)
        trainer = make_mlp_trainer(num_workers=4)
        injector = WorkerFaultInjector(4, topology=topology, faults=plan)
        loop = SupervisedTrainingLoop(
            trainer, lowdiff_factory, CheckpointStore(InMemoryBackend()),
            injector,
            config=SupervisorConfig(heartbeat_timeout_s=2.5,
                                    recovery_deadline_s=8.0,
                                    drain_timeout_s=2.0))
        report = loop.run(30)
        assert trainer.iteration == 30
        assert trainer.replicas_consistent()
        # Every detection was eventually resolved one way or another.
        assert len(report.recoveries) == 0 or all(
            event.sources for event in report.recoveries)
        # Deterministic under the same seed.
        assert plan == WorkerFaultInjector.random_plan(
            4, iterations=30, rng=Rng(seed), fault_rate=0.12,
            topology=topology, mean_down_s=4.0, mean_duration_s=5.0)


# ---------------------------------------------------------------------------
# Sim-layer pricing
# ---------------------------------------------------------------------------

class TestSimSupervisorPricing:
    def steady(self, strategy):
        workload = Workload.create("gpt2_small", A100_CLUSTER, rho=0.01)
        return TrainingSim(workload, strategy).run(200)

    def test_worker_failure_schedule_is_seeded(self):
        topology = FailureDomainTopology.regular(8)
        a = worker_failure_schedule(8, 3600.0, 86400.0, Rng(5),
                                    topology=topology)
        b = worker_failure_schedule(8, 3600.0, 86400.0, Rng(5),
                                    topology=topology)
        assert a == b
        assert a.count > 0
        for event in a.events:
            assert 0 <= event.rank < 8
            assert event.duration_s >= 0.0
            if event.kind == "correlated":
                assert event.domain == topology.host(event.rank)

    def test_supervisor_model_pricing(self):
        model = SupervisorModel(heartbeat_timeout_s=30.0, poll_period_s=5.0,
                                recovery_deadline_s=120.0, resync_time_s=30.0)
        assert model.detection_latency_s() == pytest.approx(32.5)
        # 8 workers, 1 lost: busiest survivor carries 2 shards -> 50%.
        assert model.degraded_retention(8, 1) == pytest.approx(0.5)
        assert model.degraded_retention(8, 0) == pytest.approx(1.0)
        assert model.degraded_window_s(100.0) == 0.0
        assert model.degraded_window_s(200.0) == pytest.approx(110.0)

    def test_run_with_failures_prices_detection_and_degraded(self):
        strategy = GeminiStrategy(every=1, storage_every=50)
        steady = self.steady(strategy)
        topology = FailureDomainTopology.regular(8)
        schedule = worker_failure_schedule(
            8, 3600.0, 86400.0, Rng(42), topology=topology,
            mean_outage_s=300.0)
        supervisor = SupervisorModel(heartbeat_timeout_s=30.0,
                                     poll_period_s=5.0,
                                     recovery_deadline_s=120.0,
                                     resync_time_s=30.0)
        with_sup = run_with_failures(steady, strategy, schedule,
                                     supervisor=supervisor, num_workers=8)
        without = run_with_failures(steady, strategy, schedule,
                                    num_workers=8)
        assert with_sup.detection_time_s == pytest.approx(
            schedule.count * supervisor.detection_latency_s())
        assert with_sup.degraded_time_s > 0.0
        assert without.detection_time_s == 0.0
        assert without.degraded_time_s == 0.0
        # Detection stalls and degraded throughput can only hurt.
        assert with_sup.effective_ratio <= without.effective_ratio

    def test_strategy_carries_supervisor_model(self):
        strategy = GeminiStrategy(every=1, storage_every=50)
        supervisor = SupervisorModel()
        assert strategy.set_supervisor(supervisor) is strategy
        steady = self.steady(strategy)
        schedule = worker_failure_schedule(8, 7200.0, 86400.0, Rng(3))
        metrics = run_with_failures(steady, strategy, schedule, num_workers=8)
        assert metrics.detection_time_s > 0.0  # picked up from the strategy

    def test_gemini_correlated_loss_pricing(self):
        memory_only = GeminiStrategy(every=1)
        tiered = GeminiStrategy(every=1, storage_every=50)
        self.steady(memory_only)
        self.steady(tiered)
        # Memory-only: a correlated loss forfeits everything.
        assert memory_only.failure_profile("correlated").lost_iterations \
            == float("inf")
        # Tiered: falls back to the durable tier's staleness.
        correlated = tiered.failure_profile("correlated")
        assert correlated.lost_iterations == pytest.approx(25.0)
        assert correlated.recovery_time_s > \
            tiered.failure_profile("hardware").recovery_time_s

    def test_gemini_replica_loss_blend_monotone(self):
        lost = []
        for p in (0.0, 0.2, 0.8):
            strategy = GeminiStrategy(every=1, replica_loss_prob=p,
                                      storage_every=50)
            self.steady(strategy)
            lost.append(strategy.failure_profile("hardware").lost_iterations)
        assert lost[0] < lost[1] < lost[2]
        assert lost[0] == pytest.approx(0.5)   # every/2
        # p=1 would be pure storage staleness.
        full_loss = GeminiStrategy(every=1, replica_loss_prob=1.0,
                                   storage_every=50)
        self.steady(full_loss)
        assert full_loss.failure_profile("hardware").lost_iterations \
            == pytest.approx(25.0)

    def test_gemini_storage_tier_accounting(self):
        strategy = GeminiStrategy(every=1, storage_every=50)
        steady = self.steady(strategy)
        counts = strategy.checkpoint_counts()
        assert counts["memory_ckpt"] == 200
        assert counts["storage_ckpt"] == 4
        assert strategy.storage_bytes_per_iter() > 0.0
        assert steady.iterations == 200
