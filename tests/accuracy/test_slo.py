"""SLO declarations, the accuracy accumulator, and the ε inversion."""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.accuracy.models import uncertainty_model_for
from repro.accuracy.slo import (
    AccuracySLO,
    AccuracySnapshot,
    AccuracyStats,
    combine_accuracy_snapshots,
    required_epsilon,
)
from repro.exceptions import ReproError
from repro.serving.planner import QueryBatch
from repro.serving.store import ReleaseStore
from repro.sharding.streaming import ShardedStreamingEngine
from repro.streaming.engine import StreamingHistogramEngine
from repro.streaming.policy import GeometricEpsilonSchedule


class TestAccuracySLO:
    def test_defaults(self):
        slo = AccuracySLO(target_ci_halfwidth=5.0)
        assert slo.confidence == 0.95
        assert slo.workload_weight == 1.0

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"target_ci_halfwidth": 0.0},
            {"target_ci_halfwidth": -1.0},
            {"target_ci_halfwidth": 5.0, "confidence": 0.0},
            {"target_ci_halfwidth": 5.0, "confidence": 1.0},
            {"target_ci_halfwidth": 5.0, "workload_weight": 0.0},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ReproError):
            AccuracySLO(**kwargs)


class TestAccuracyStats:
    def test_record_and_snapshot(self):
        stats = AccuracyStats()
        stats.record_batch(
            halfwidths=[1.0, 3.0],
            variances=[0.5, 2.0],
            within=[True, False],
            weight=2.0,
        )
        snap = stats.snapshot()
        assert snap.answers == 2
        assert snap.within_slo == 1
        assert snap.satisfaction == 0.5
        assert snap.weighted_satisfaction == 0.5
        assert snap.mean_halfwidth == pytest.approx(2.0)
        assert snap.max_halfwidth == 3.0
        assert snap.sum_variance == pytest.approx(2.5)

    def test_without_slo_everything_counts_as_met(self):
        stats = AccuracyStats()
        stats.record_batch([4.0], [8.0], within=None)
        assert stats.snapshot().satisfaction == 1.0

    def test_empty_batch_is_a_noop(self):
        stats = AccuracyStats()
        stats.record_batch(np.empty(0), np.empty(0))
        assert stats.snapshot() == AccuracySnapshot()

    def test_idle_snapshot_reads(self):
        snap = AccuracySnapshot()
        assert snap.satisfaction == 1.0
        assert snap.weighted_satisfaction == 1.0
        assert snap.mean_halfwidth == 0.0

    def test_concurrent_recording_loses_nothing(self):
        stats = AccuracyStats()

        def work():
            for _ in range(200):
                stats.record_batch([1.0], [1.0], within=[True])

        threads = [threading.Thread(target=work) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        snap = stats.snapshot()
        assert snap.answers == 800
        assert snap.within_slo == 800
        assert snap.sum_halfwidth == pytest.approx(800.0)

    def test_fold_matches_single_accumulator(self):
        rng = np.random.default_rng(5)
        parts = [AccuracyStats() for _ in range(3)]
        whole = AccuracyStats()
        for i, part in enumerate(parts):
            halfwidths = rng.uniform(0.1, 9.0, size=4)
            variances = halfwidths**2
            within = halfwidths < 5.0
            part.record_batch(halfwidths, variances, within, weight=i + 1.0)
            whole.record_batch(halfwidths, variances, within, weight=i + 1.0)
        folded = combine_accuracy_snapshots(p.snapshot() for p in parts)
        assert folded == whole.snapshot()


class TestRequiredEpsilon:
    @pytest.mark.parametrize("estimator", ["L~", "H~", "H_bar", "wavelet"])
    @pytest.mark.parametrize("range_length", [1, 16])
    def test_inversion_hits_the_target(self, estimator, range_length):
        slo = AccuracySLO(target_ci_halfwidth=3.0, confidence=0.9)
        epsilon = required_epsilon(
            slo, estimator=estimator, domain_size=32, range_length=range_length
        )
        model = uncertainty_model_for(
            estimator, domain_size=32, epsilon=epsilon
        )
        half = model.interval_halfwidths(
            [0], [range_length - 1], slo.confidence
        )[0]
        assert half == pytest.approx(slo.target_ci_halfwidth, rel=1e-9)

    def test_tighter_targets_cost_more(self):
        loose = required_epsilon(
            AccuracySLO(10.0), estimator="L~", domain_size=32
        )
        tight = required_epsilon(
            AccuracySLO(1.0), estimator="L~", domain_size=32
        )
        assert tight == pytest.approx(10 * loose)

    def test_range_length_validation(self):
        with pytest.raises(ReproError):
            required_epsilon(
                AccuracySLO(1.0), domain_size=8, range_length=0
            )
        with pytest.raises(ReproError):
            required_epsilon(
                AccuracySLO(1.0), domain_size=8, range_length=9
            )


class TestStreamModelCache:
    """Streams keep only the live release's uncertainty model."""

    @pytest.mark.parametrize("sharded", [False, True])
    def test_one_model_survives_twenty_epochs(self, sharded, tmp_path):
        counts = np.random.default_rng(15).poisson(3.0, size=128).astype(float)
        batch = QueryBatch.random(counts.size, 50, rng=2)

        def build():
            common = dict(
                store=ReleaseStore(tmp_path / "store"),
                name="cache",
                seed=9,
                slo=AccuracySLO(target_ci_halfwidth=10.0),
            )
            schedule = GeometricEpsilonSchedule(0.4, decay=0.8)
            if sharded:
                return ShardedStreamingEngine(
                    counts, 5.0, schedule, num_shards=4, **common
                )
            return StreamingHistogramEngine(counts, 5.0, schedule, **common)

        engine = build()
        for _ in range(20):
            engine.submit(batch)
            engine.ingest(np.arange(10))
            engine.advance_epoch()
        scored = engine.submit(batch)
        assert len(engine._uncertainty_models) == 1
        fresh = build().submit(batch)
        assert np.array_equal(scored.variances, fresh.variances)
