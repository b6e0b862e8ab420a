"""Tests for the sharded serving engine: ε accounting, cache, store, threads."""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.exceptions import PrivacyBudgetError, ReproError
from repro.privacy.budget import PrivacyBudget
from repro.privacy.definitions import PrivacyParameters
from repro.serving.cache import ReleaseCache
from repro.serving.engine import HistogramEngine
from repro.serving.planner import QueryBatch
from repro.serving.store import ReleaseStore
from repro.sharding import engine as sharding_engine
from repro.sharding.engine import (
    ShardedHistogramEngine,
    build_shard_releases,
    derive_shard_seed,
)
from repro.sharding.plan import ShardPlan


@pytest.fixture
def counts(rng) -> np.ndarray:
    return rng.poisson(4.0, size=256).astype(float)


class TestConstruction:
    def test_default_plan_uses_shard_size(self, counts):
        engine = ShardedHistogramEngine(counts, 1.0, shard_size=64)
        assert engine.num_shards == 4
        assert engine.domain_size == 256

    def test_num_shards_and_plan_are_exclusive(self, counts):
        with pytest.raises(ReproError, match="at most one"):
            ShardedHistogramEngine(
                counts, 1.0, num_shards=4, plan=ShardPlan.uniform(256, 4)
            )

    def test_plan_must_cover_the_domain(self, counts):
        with pytest.raises(ReproError, match="plan covers"):
            ShardedHistogramEngine(counts, 1.0, plan=ShardPlan.uniform(100, 4))

    def test_budget_and_total_epsilon_are_exclusive(self, counts):
        budget = PrivacyBudget(PrivacyParameters(1.0))
        with pytest.raises(ReproError, match="not both"):
            ShardedHistogramEngine(counts, 1.0, budget=budget)
        with pytest.raises(ReproError, match="required"):
            ShardedHistogramEngine(counts)

    def test_invalid_workers_rejected(self, counts):
        with pytest.raises(ReproError, match="workers"):
            ShardedHistogramEngine(counts, 1.0, num_shards=4, workers=0)


class TestEpsilonAccounting:
    def test_one_charge_for_all_shards(self, counts):
        engine = ShardedHistogramEngine(counts, 1.0, num_shards=8)
        engine.materialize("constrained", epsilon=0.3, seed=1)
        assert engine.spent_epsilon == 0.3
        assert engine.materializations == 1
        assert engine.shard_builds == 8
        [spend] = engine.budget.history
        assert "sharded" in spend.label and "8/8" in spend.label

    def test_charged_epsilon_is_bit_exactly_the_monolithic_charge(self, counts):
        for shards in (1, 2, 3, 5, 8):
            sharded = ShardedHistogramEngine(counts, 1.0, num_shards=shards)
            sharded.materialize("constrained", epsilon=0.1, seed=1)
            mono = HistogramEngine(counts, 1.0)
            mono.materialize("constrained", epsilon=0.1, seed=1)
            assert sharded.spent_epsilon == mono.spent_epsilon

    def test_repeat_materialize_is_free(self, counts):
        engine = ShardedHistogramEngine(counts, 1.0, num_shards=4)
        first = engine.materialize("constrained", epsilon=0.2, seed=3)
        second = engine.materialize("constrained", epsilon=0.2, seed=3)
        assert first is second
        assert engine.spent_epsilon == 0.2
        assert engine.materializations == 1

    def test_distinct_identities_charge_separately(self, counts):
        engine = ShardedHistogramEngine(counts, 1.0, num_shards=4)
        engine.materialize("constrained", epsilon=0.2, seed=3)
        engine.materialize("constrained", epsilon=0.2, seed=4)
        assert engine.spent_epsilon == pytest.approx(0.4)

    def test_exhausted_budget_fails_before_building_and_charges_nothing(self, counts):
        engine = ShardedHistogramEngine(counts, 0.1, num_shards=4)
        with pytest.raises(PrivacyBudgetError):
            engine.materialize("constrained", epsilon=0.5, seed=0)
        assert engine.spent_epsilon == 0.0
        assert engine.materializations == 0
        assert len(engine.cache) == 0

    def test_invalid_request_never_charges(self, counts):
        engine = ShardedHistogramEngine(counts, 1.0, num_shards=4)
        with pytest.raises(ReproError):
            engine.materialize("nonsense", epsilon=0.1)
        with pytest.raises(Exception):
            engine.materialize("constrained", epsilon=-1.0)
        assert engine.spent_epsilon == 0.0

    def test_concurrent_materialize_same_identity_charges_once(self, counts):
        engine = ShardedHistogramEngine(counts, 1.0, num_shards=4)
        barrier = threading.Barrier(4)
        failures = []

        def run():
            try:
                barrier.wait()
                engine.materialize("constrained", epsilon=0.25, seed=5)
            except Exception as error:  # pragma: no cover - failure detail
                failures.append(error)

        threads = [threading.Thread(target=run) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not failures
        assert engine.spent_epsilon == 0.25
        assert engine.materializations == 1


class TestShardIdentities:
    def test_shard_keys_are_distinct_and_deterministic(self, counts):
        engine = ShardedHistogramEngine(counts, 1.0, num_shards=4)
        keys = engine.shard_keys("constrained", epsilon=0.1, seed=10)
        assert [k.seed for k in keys] == [derive_shard_seed(10, s) for s in range(4)]
        assert len({k.seed for k in keys}) == 4
        assert len({k.dataset_fingerprint for k in keys}) == 4
        again = engine.shard_keys("constrained", epsilon=0.1, seed=10)
        assert keys == again

    def test_shard_seeds_never_collide_across_nearby_base_seeds(self, counts):
        # The hazard a naive base+shard schedule has: materialize(seed=0)
        # and materialize(seed=1) sharing a noise stream on some shard.
        engine = ShardedHistogramEngine(counts, 1.0, num_shards=8)
        seeds = set()
        for base in range(16):
            for key in engine.shard_keys("constrained", epsilon=0.1, seed=base):
                assert key.seed not in seeds
                seeds.add(key.seed)
        assert all(0 <= s < 2**63 for s in seeds)  # fits the artifact int64

    def test_shard_key_matches_monolithic_engine_over_the_slice(self, counts):
        # The same (counts, key) must resolve to the same release no
        # matter which engine builds it — cache identity is builder-free.
        engine = ShardedHistogramEngine(counts, 1.0, num_shards=4)
        release = engine.materialize("constrained", epsilon=0.2, seed=10)
        piece = engine.plan.slice_of(2)
        mono = HistogramEngine(counts[piece], 1.0)
        mono_release = mono.materialize(
            "constrained", epsilon=0.2, seed=derive_shard_seed(10, 2)
        )
        assert mono_release.key == release.shard_releases[2].key
        assert np.array_equal(
            mono_release.unit_counts(), release.shard_releases[2].unit_counts()
        )


    def test_warm_submits_derive_no_shard_seeds(self, counts, monkeypatch):
        engine = ShardedHistogramEngine(counts, 1.0, num_shards=4)
        batch = QueryBatch.random(counts.size, 10, rng=0)
        engine.submit(batch, "constrained", epsilon=0.1, seed=3)
        calls = []

        def counting(*args):
            calls.append(args)
            return derive_shard_seed(*args)

        monkeypatch.setattr(sharding_engine, "derive_shard_seed", counting)
        for _ in range(3):
            result = engine.submit(batch, "H_bar", epsilon=0.1, seed=3)
            assert result.from_cache
        assert calls == []
        assert engine.spent_epsilon == pytest.approx(0.1)
        # A new identity still derives one seed per shard.
        engine.submit(batch, "constrained", epsilon=0.1, seed=4)
        assert len(calls) == 4


class TestStoreIntegration:
    def test_every_shard_persists_as_its_own_artifact(self, counts, tmp_path):
        store = ReleaseStore(tmp_path / "store")
        engine = ShardedHistogramEngine(counts, 1.0, num_shards=4, store=store)
        release = engine.materialize("constrained", epsilon=0.1, seed=0)
        assert len(store) == 4
        assert set(store.keys()) == set(release.shard_keys)

    def test_warm_restart_costs_zero_epsilon(self, counts, tmp_path):
        store_dir = tmp_path / "store"
        cold = ShardedHistogramEngine(
            counts, 1.0, num_shards=4, store=ReleaseStore(store_dir)
        )
        batch = QueryBatch.random(counts.size, 2000, rng=0)
        before = cold.submit(batch, "constrained", epsilon=0.1, seed=7)
        assert cold.spent_epsilon == 0.1

        warm = ShardedHistogramEngine(
            counts, 1.0, num_shards=4, store=ReleaseStore(store_dir)
        )
        after = warm.submit(batch, "constrained", epsilon=0.1, seed=7)
        assert warm.spent_epsilon == 0.0
        assert warm.materializations == 0
        assert warm.shard_builds == 0
        assert after.from_cache
        assert np.array_equal(before.answers, after.answers)

    def test_partial_warm_set_still_charges_conservatively(self, counts, tmp_path):
        store_dir = tmp_path / "store"
        cold = ShardedHistogramEngine(
            counts, 1.0, num_shards=4, store=ReleaseStore(store_dir)
        )
        cold.materialize("constrained", epsilon=0.1, seed=7)
        # Drop one shard's artifact: the warm engine must rebuild it and,
        # conservatively, charge the full ε for the release.
        store = ReleaseStore(store_dir)
        victim = cold.shard_keys("constrained", epsilon=0.1, seed=7)[2]
        pruned = store.prune(keep_latest=0)
        assert victim in pruned
        warm = ShardedHistogramEngine(
            counts, 1.0, num_shards=4, store=ReleaseStore(store_dir)
        )
        warm.materialize("constrained", epsilon=0.1, seed=7)
        assert warm.spent_epsilon == 0.1
        assert warm.shard_builds == 4  # prune(0) removed every artifact


class TestServing:
    def test_submit_records_stats_and_matches_plain_range_sums(self, counts):
        engine = ShardedHistogramEngine(counts, 1.0, num_shards=4)
        batch = QueryBatch.random(counts.size, 5000, rng=2)
        result = engine.submit(batch, "constrained", epsilon=0.1, seed=1)
        release = engine.materialize("constrained", epsilon=0.1, seed=1)
        assert np.array_equal(
            result.answers, release.range_sums(batch.los, batch.his)
        )
        snapshot = engine.stats.snapshot()
        assert snapshot.requests == 1
        assert snapshot.queries == 5000
        assert snapshot.cold_builds == 1
        assert not result.from_cache

    def test_parallel_build_equals_sequential_build(self, counts):
        plan = ShardPlan.uniform(counts.size, 4)
        keys = ShardedHistogramEngine(counts, 1.0, plan=plan).shard_keys(
            "constrained", epsilon=0.1, seed=3
        )
        pieces = plan.split(counts)
        sequential = build_shard_releases(pieces, keys, workers=1)
        parallel = build_shard_releases(pieces, keys, workers=4)
        for a, b in zip(sequential, parallel):
            assert a.key == b.key
            assert np.array_equal(a.unit_counts(), b.unit_counts())


class TestPersistFailure:
    def test_store_failure_after_charge_never_recharges(
        self, counts, tmp_path, monkeypatch
    ):
        """A persist failure raises, but retries serve the paid release."""
        store = ReleaseStore(tmp_path / "store")
        engine = ShardedHistogramEngine(counts, 1.0, num_shards=4, store=store)

        real_put = ReleaseStore.put
        calls = {"n": 0}

        def flaky_put(self, release):
            calls["n"] += 1
            if calls["n"] == 3:  # fail on the third shard's artifact
                raise OSError("disk full")
            return real_put(self, release)

        monkeypatch.setattr(ReleaseStore, "put", flaky_put)
        with pytest.raises(Exception, match="disk full|persist"):
            engine.materialize("constrained", epsilon=0.2, seed=1)
        # ε was charged once for the successful build; the assembled
        # release survived the persist failure in memory.
        assert engine.spent_epsilon == 0.2
        assert engine.materializations == 1

        monkeypatch.setattr(ReleaseStore, "put", real_put)
        release = engine.materialize("constrained", epsilon=0.2, seed=1)
        # No rebuild, no second charge — and the retry completed the
        # pending store writes, so a fresh engine warm-starts.
        assert engine.spent_epsilon == 0.2
        assert engine.shard_builds == 4
        assert len(store) == 4
        warm = ShardedHistogramEngine(
            counts, 1.0, num_shards=4, store=ReleaseStore(tmp_path / "store")
        )
        warm_release = warm.materialize("constrained", epsilon=0.2, seed=1)
        assert warm.spent_epsilon == 0.0
        assert np.array_equal(warm_release.unit_counts(), release.unit_counts())

    def test_warm_identity_not_blocked_by_cold_build_lock(self, counts):
        """The assembled-release fast path never takes the build lock."""
        engine = ShardedHistogramEngine(counts, 1.0, num_shards=4)
        release = engine.materialize("constrained", epsilon=0.1, seed=1)
        with engine._materialize_lock:  # simulate an in-flight cold build
            again = engine.materialize("constrained", epsilon=0.1, seed=1)
        assert again is release
