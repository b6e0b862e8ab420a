"""Tests for the assembled sharded release and the shard router."""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import QueryError, ReproError
from repro.serving.planner import QueryBatch
from repro.serving.release import MaterializedRelease
from repro.sharding.plan import ShardPlan
from repro.sharding.release import ShardedRelease
from repro.sharding.router import ShardRouter
from stitching import answer_stitched


def shard_release(values, seed, epsilon=0.1) -> MaterializedRelease:
    return MaterializedRelease(
        values,
        estimator="H_bar",
        epsilon=epsilon,
        dataset_fingerprint=f"shard-{seed}",
        seed=seed,
    )


@pytest.fixture
def sharded(rng):
    """A 3-shard release over 10 buckets with uneven shard widths."""
    plan = ShardPlan([0, 4, 7, 10])
    leaves = rng.integers(0, 50, size=10).astype(float)
    shards = [shard_release(leaves[plan.slice_of(s)], seed=s) for s in range(3)]
    return ShardedRelease(plan, shards, dataset_fingerprint="full"), leaves


class TestAssembly:
    def test_metadata_and_geometry(self, sharded):
        release, leaves = sharded
        assert release.num_shards == 3
        assert release.domain_size == 10
        assert release.estimator == "H_bar"
        assert release.epsilon == 0.1
        assert release.shard_seeds == (0, 1, 2)
        assert np.array_equal(release.unit_counts(), leaves)
        assert release.total() == pytest.approx(leaves.sum())

    def test_shard_count_mismatch_rejected(self, sharded):
        release, _ = sharded
        with pytest.raises(ReproError, match="2 releases"):
            ShardedRelease(
                release.plan, release.shard_releases[:2], dataset_fingerprint="x"
            )

    def test_shard_width_mismatch_rejected(self):
        plan = ShardPlan([0, 4, 10])
        shards = [shard_release(np.ones(4), 0), shard_release(np.ones(5), 1)]
        with pytest.raises(ReproError, match="plan expects 6"):
            ShardedRelease(plan, shards, dataset_fingerprint="x")

    def test_mixed_strategy_rejected(self):
        plan = ShardPlan([0, 2, 4])
        a = shard_release(np.ones(2), 0)
        b = MaterializedRelease(
            np.ones(2), estimator="L~", epsilon=0.1, dataset_fingerprint="y", seed=1
        )
        with pytest.raises(ReproError, match="one release"):
            ShardedRelease(plan, [a, b], dataset_fingerprint="x")

    def test_heterogeneous_epsilon_allowed_reports_max(self):
        # A partial-refresh stream legitimately mixes epochs.
        plan = ShardPlan([0, 2, 4])
        shards = [
            shard_release(np.ones(2), 0, epsilon=0.4),
            shard_release(np.ones(2), 1, epsilon=0.2),
        ]
        release = ShardedRelease(plan, shards, dataset_fingerprint="x")
        assert release.epsilon == 0.4
        assert release.shard_epsilons == (0.4, 0.2)

    def test_duplicate_shard_seeds_rejected(self):
        # Reused seeds could reuse noise across shards — a privacy hazard.
        plan = ShardPlan([0, 2, 4])
        shards = [shard_release(np.ones(2), 7), shard_release(np.ones(2), 7)]
        with pytest.raises(ReproError, match="pairwise distinct"):
            ShardedRelease(plan, shards, dataset_fingerprint="x")

    def test_range_sum_bounds_checked(self, sharded):
        release, leaves = sharded
        assert release.range_sum(2, 8) == pytest.approx(leaves[2:9].sum())
        with pytest.raises(QueryError):
            release.range_sum(0, 10)
        with pytest.raises(QueryError):
            release.range_sum(-1, 2)


class TestRouterAnswers:
    def test_bit_identical_to_monolithic(self, sharded, rng):
        release, leaves = sharded
        mono = MaterializedRelease(
            leaves, estimator="H_bar", epsilon=0.1, dataset_fingerprint="m", seed=9
        )
        batch = QueryBatch.random(10, 500, rng=rng)
        router = ShardRouter()
        assert np.array_equal(
            router.answer(release, batch), mono.range_sums(batch.los, batch.his)
        )

    def test_stitched_matches_fast_path(self, sharded, rng):
        release, _ = sharded
        batch = QueryBatch.random(10, 500, rng=rng)
        router = ShardRouter()
        fast = router.answer(release, batch)
        stitched = answer_stitched(release, batch)
        np.testing.assert_allclose(stitched, fast, rtol=1e-12, atol=1e-9)

    def test_single_shard_and_whole_domain(self, rng):
        plan = ShardPlan([0, 8])
        leaves = rng.integers(0, 9, size=8).astype(float)
        release = ShardedRelease(
            plan, [shard_release(leaves, 0)], dataset_fingerprint="x"
        )
        router = ShardRouter()
        batch = QueryBatch.from_pairs([(0, 7), (3, 3)])
        assert router.answer(release, batch).tolist() == pytest.approx(
            [leaves.sum(), leaves[3]]
        )

    def test_empty_batch(self, sharded):
        release, _ = sharded
        batch = QueryBatch(np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64))
        router = ShardRouter()
        assert router.answer(release, batch).size == 0
        assert answer_stitched(release, batch).size == 0

    def test_out_of_domain_batch_rejected(self, sharded):
        release, _ = sharded
        router = ShardRouter()
        batch = QueryBatch.from_pairs([(0, 10)])
        with pytest.raises(QueryError, match="beyond"):
            router.answer(release, batch)

