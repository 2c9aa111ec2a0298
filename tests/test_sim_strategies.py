"""Tests for the simulator's checkpoint strategies — the paper's ordering
claims live here."""

import dataclasses

import pytest

from repro.sim import (
    CheckFreqStrategy,
    GeminiStrategy,
    LowDiffPlusStrategy,
    LowDiffStrategy,
    NaiveDCStrategy,
    NoCheckpoint,
    FullSyncStrategy,
    TrainingSim,
    Workload,
    make_strategy,
)
from repro.sim.cluster import A100_CLUSTER


def overhead(model, strategy, rho=0.01, iterations=300):
    workload = Workload.create(model, A100_CLUSTER, rho=rho)
    return TrainingSim(workload, strategy).run(iterations).overhead_fraction


class TestFactory:
    def test_known_names(self):
        assert isinstance(make_strategy("lowdiff"), LowDiffStrategy)
        assert isinstance(make_strategy("Gemini"), GeminiStrategy)
        assert isinstance(make_strategy("w/o ckpt"), NoCheckpoint)
        assert isinstance(make_strategy("torch.save"), FullSyncStrategy)
        assert isinstance(make_strategy("lowdiff+"), LowDiffPlusStrategy)

    def test_unknown_name(self):
        with pytest.raises(KeyError):
            make_strategy("zfs-snapshots")

    def test_kwargs_forwarded(self):
        strategy = make_strategy("checkfreq", every=7)
        assert strategy.every == 7


class TestExp1Ordering:
    """Per-iteration checkpointing: LowDiff ~ free, others expensive."""

    @pytest.mark.parametrize("model", ["gpt2_small", "gpt2_large",
                                       "bert_large", "resnet101"])
    def test_lowdiff_under_5_percent(self, model):
        strategy = LowDiffStrategy(full_every=100, batch_size=2)
        assert overhead(model, strategy) < 0.05

    @pytest.mark.parametrize("model", ["gpt2_small", "gpt2_large"])
    def test_method_ordering(self, model):
        lowdiff = overhead(model, LowDiffStrategy(full_every=100, batch_size=2))
        gemini = overhead(model, GeminiStrategy(every=1))
        naive = overhead(model, NaiveDCStrategy(full_every=100, diff_every=1))
        checkfreq = overhead(model, CheckFreqStrategy(every=1))
        assert lowdiff < gemini < naive < checkfreq

    def test_gpt2l_checkfreq_blowup(self):
        """Paper: CheckFreq ~9-10x at per-iteration frequency on GPT2-L."""
        ratio = 1 + overhead("gpt2_large", CheckFreqStrategy(every=1))
        assert 6.0 < ratio < 14.0

    def test_overhead_grows_with_model_size(self):
        small = overhead("gpt2_small", CheckFreqStrategy(every=1))
        large = overhead("gpt2_large", CheckFreqStrategy(every=1))
        assert large > small


class TestExp2NoCompression:
    def test_lowdiff_plus_under_15_percent(self):
        for model in ("gpt2_small", "gpt2_large"):
            assert overhead(model, LowDiffPlusStrategy(), rho=None) < 0.15

    def test_lowdiff_plus_beats_alternatives(self):
        for model in ("gpt2_small", "gpt2_large"):
            ld_plus = overhead(model, LowDiffPlusStrategy(), rho=None)
            checkfreq = overhead(model, CheckFreqStrategy(every=1), rho=None)
            gemini = overhead(model, GeminiStrategy(every=1), rho=None)
            assert ld_plus < gemini < checkfreq

    def test_persist_every_auto_scales_with_model(self):
        small = Workload.create("resnet101", A100_CLUSTER, rho=None)
        large = Workload.create("gpt2_large", A100_CLUSTER, rho=None)
        s_small = LowDiffPlusStrategy()
        s_large = LowDiffPlusStrategy()
        TrainingSim(small, s_small).run(10)
        TrainingSim(large, s_large).run(10)
        assert s_small.persist_every <= s_large.persist_every


class TestFrequencyScaling:
    def test_overhead_monotone_in_frequency(self):
        """Fig. 1's monotonicity: higher frequency, more overhead."""
        values = [
            overhead("gpt2_large", NaiveDCStrategy(full_every=1000, diff_every=k))
            for k in (8, 4, 2, 1)
        ]
        assert all(a <= b + 1e-9 for a, b in zip(values, values[1:]))

    def test_checkfreq_cheap_at_its_native_interval(self):
        assert overhead("gpt2_small", CheckFreqStrategy(every=10)) < 0.05


class TestFailureProfiles:
    def workload(self, model="gpt2_small", rho=0.01):
        return Workload.create(model, A100_CLUSTER, rho=rho)

    def bind(self, strategy, model="gpt2_small", rho=0.01):
        TrainingSim(self.workload(model, rho), strategy)
        return strategy

    def test_lowdiff_lost_work_scales_with_batch(self):
        small = self.bind(LowDiffStrategy(full_every=20, batch_size=1))
        large = self.bind(LowDiffStrategy(full_every=20, batch_size=8))
        assert (large.failure_profile().lost_iterations
                > small.failure_profile().lost_iterations)

    def test_lowdiff_parallel_recovery_faster(self):
        strategy = self.bind(LowDiffStrategy(full_every=100, batch_size=1))
        serial = strategy.failure_profile(parallel_recovery=False)
        parallel = strategy.failure_profile(parallel_recovery=True)
        assert parallel.recovery_time_s < serial.recovery_time_s

    def test_lowdiff_plus_software_vs_hardware(self):
        strategy = self.bind(LowDiffPlusStrategy(persist_every=10), rho=None)
        software = strategy.failure_profile("software")
        hardware = strategy.failure_profile("hardware")
        assert software.lost_iterations < hardware.lost_iterations
        assert software.recovery_time_s < hardware.recovery_time_s

    def test_no_checkpoint_loses_everything(self):
        strategy = self.bind(NoCheckpoint())
        assert strategy.failure_profile().lost_iterations == float("inf")

    def test_storage_rate_ordering(self):
        """Durable bytes/iter: full-every-iter >> naive >> lowdiff."""
        full = self.bind(FullSyncStrategy(every=1))
        naive = self.bind(NaiveDCStrategy(full_every=100, diff_every=1))
        lowdiff = self.bind(LowDiffStrategy(full_every=100, batch_size=2))
        assert (lowdiff.storage_bytes_per_iter()
                < naive.storage_bytes_per_iter()
                < full.storage_bytes_per_iter())

    def test_invalid_strategy_args(self):
        with pytest.raises(ValueError):
            CheckFreqStrategy(every=0)
        with pytest.raises(ValueError):
            GeminiStrategy(remote_fraction=2.0)
        with pytest.raises(ValueError):
            LowDiffStrategy(batch_size=0)
        with pytest.raises(ValueError):
            NaiveDCStrategy(diff_every=0)
        with pytest.raises(ValueError):
            LowDiffPlusStrategy(persist_every=0)
        with pytest.raises(ValueError):
            FullSyncStrategy(every=0)


class TestAsyncEnginePricing:
    """Opt-in overlap pricing for the measured writer-pool engine."""

    def test_overlapped_stall_helper(self):
        strategy = LowDiffStrategy()
        assert strategy._overlapped_stall(5.0, 3.0) == 2.0
        assert strategy._overlapped_stall(2.0, 3.0) == 0.0
        assert strategy._overlapped_stall(3.0, 3.0) == 0.0

    def test_default_off_matches_legacy_pricing(self):
        """async_engine=False must be bit-identical to the historical
        backlog-budget model — the flag cannot perturb existing results."""
        legacy = overhead("gpt2_small",
                          LowDiffStrategy(full_every=100, batch_size=2))
        explicit = overhead("gpt2_small",
                            LowDiffStrategy(full_every=100, batch_size=2,
                                            async_engine=False))
        assert legacy == explicit

    @pytest.mark.parametrize("model", ["gpt2_small", "gpt2_large"])
    def test_overlap_pricing_stays_cheap(self, model):
        """stall = max(0, backlog − compute gap): per-iteration overhead
        stays small even under the stricter overlap accounting."""
        strategy = LowDiffStrategy(full_every=100, batch_size=2,
                                   async_engine=True)
        assert overhead(model, strategy) < 0.10

    def test_larger_batches_hide_more(self):
        """A larger write batch widens the compute gap each persist can
        hide behind, so overlap-priced overhead is monotone non-increasing
        in batch size."""
        small = overhead("gpt2_large",
                         LowDiffStrategy(full_every=100, batch_size=1,
                                         async_engine=True))
        large = overhead("gpt2_large",
                         LowDiffStrategy(full_every=100, batch_size=4,
                                         async_engine=True))
        assert large <= small


class TestPersistWorkerLanes:
    """Multi-process persist-worker pricing (persist_workers lanes)."""

    @staticmethod
    def heavy_codec(strategy):
        """A codec whose encode CPU dominates — the regime worker
        processes exist for."""
        return strategy.set_codec_model(ratio=2.0, encode_s_per_gb=60.0)

    def test_single_lane_matches_legacy(self):
        """persist_workers=1 must be bit-identical to the pre-lane
        pricing under every engine flag combination."""
        for flag in (False, True):
            legacy = overhead("gpt2_large", self.heavy_codec(
                LowDiffStrategy(full_every=100, batch_size=2,
                                async_engine=flag)))
            laned = overhead("gpt2_large", self.heavy_codec(
                LowDiffStrategy(full_every=100, batch_size=2,
                                async_engine=flag, persist_workers=1)))
            assert legacy == laned

    def test_invalid_worker_count(self):
        with pytest.raises(ValueError):
            LowDiffStrategy(persist_workers=0)

    def test_more_lanes_never_hurt(self):
        """Exposed stall is priced from the least-loaded lane, so adding
        lanes is monotone non-increasing in overhead."""
        results = [overhead("gpt2_large", self.heavy_codec(
            LowDiffStrategy(full_every=50, batch_size=1,
                            async_engine=True, persist_workers=w)))
            for w in (1, 2, 4)]
        assert results[1] <= results[0]
        assert results[2] <= results[1]

    def test_shard_lanes_never_hurt_and_one_lane_is_unsharded(self):
        """A record split over S shards goes out in ceil(S / lanes) waves:
        four concurrent IO lanes cannot cost more than the unsharded
        record, and one lane serializes the waves back to exactly it."""
        def sharded(**knobs):
            return overhead("gpt2_small", LowDiffStrategy(
                full_every=10, batch_size=2, async_engine=True, **knobs),
                iterations=200)
        unsharded = sharded(shards=1)
        assert sharded(shards=4) <= unsharded
        assert sharded(shards=4, shard_concurrency=1) == \
            pytest.approx(unsharded)

    def test_lanes_relieve_saturated_channel(self):
        """When encode CPU saturates a single persist lane, spreading
        records over 4 lanes must strictly reduce overhead."""
        one = overhead("gpt2_large", self.heavy_codec(
            LowDiffStrategy(full_every=50, batch_size=1,
                            async_engine=True, persist_workers=1)))
        four = overhead("gpt2_large", self.heavy_codec(
            LowDiffStrategy(full_every=50, batch_size=1,
                            async_engine=True, persist_workers=4)))
        assert one > 0.0  # the single channel is genuinely saturated
        assert four < one

    def test_lanes_ignored_without_async_engine(self):
        """Lanes model the engine's worker pool; the legacy backlog-budget
        pricing is untouched by the knob."""
        base = overhead("gpt2_large", self.heavy_codec(
            LowDiffStrategy(full_every=100, batch_size=2)))
        laned = overhead("gpt2_large", self.heavy_codec(
            LowDiffStrategy(full_every=100, batch_size=2,
                            persist_workers=8)))
        assert base == laned


class TestCalibrateFromBench:
    """Measured storage rates enter the simulator as a replaced
    :class:`ClusterSpec`."""

    def test_round_trip_into_sim(self):
        spec = dataclasses.replace(A100_CLUSTER, ssd_write_bandwidth=850e6,
                                   ssd_read_bandwidth=1200e6)
        workload = Workload.create("gpt2_small", spec, rho=0.01)
        result = TrainingSim(workload, LowDiffStrategy(
            full_every=100, batch_size=2, async_engine=True,
            persist_workers=4)).run(100)
        assert result.overhead_fraction >= 0.0

    def test_top_level_keys_accepted(self):
        """A slower disk prices a full persist slower."""
        slow = dataclasses.replace(A100_CLUSTER, ssd_write_bandwidth=500e6)
        fast, slowed = (Workload.create("gpt2_small", spec, rho=0.01)
                        for spec in (A100_CLUSTER, slow))
        size = fast.full_checkpoint_bytes
        assert slowed.persist_time(size) > fast.persist_time(size)

    def test_missing_rates_rejected(self):
        with pytest.raises(ValueError):
            dataclasses.replace(A100_CLUSTER, ssd_read_bandwidth=0.0)
