"""Sharded-vs-monolithic equivalence property suite.

Two contracts, both exact:

* **ε equivalence** — a sharded release's total charged ε equals the
  monolithic charge *bit-exactly* for any shard count.  This is not a
  float coincidence but the accounting design: the disjoint shards
  compose in parallel, so the engine charges the one ε value once,
  never a per-shard split that would have to re-sum to it.
* **answer equivalence** — the router's stitched answers over the
  per-shard releases are *bit-identical* to a monolithic
  :class:`MaterializedRelease` over the same leaves (the same seed
  schedule builds the same shards; the assembled index is the same
  ``cumsum``), on 1k random ranges per configuration.

Run standalone with ``pytest -m equivalence``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.serving.engine import HistogramEngine
from repro.serving.planner import QueryBatch
from repro.serving.release import MaterializedRelease
from repro.sharding.engine import ShardedHistogramEngine
from repro.sharding.router import ShardRouter
from stitching import answer_stitched

pytestmark = pytest.mark.equivalence

SHARD_COUNTS = [1, 2, 3, 4, 7, 16]


@pytest.fixture(scope="module")
def counts() -> np.ndarray:
    return np.random.default_rng(20100901).poisson(4.0, size=1024).astype(float)


@pytest.fixture(scope="module")
def batch(counts) -> QueryBatch:
    return QueryBatch.random(counts.size, 1000, rng=17)


@pytest.mark.parametrize("num_shards", SHARD_COUNTS)
def test_total_charged_epsilon_equals_monolithic_bit_exactly(counts, num_shards):
    epsilon = 0.1
    sharded = ShardedHistogramEngine(counts, 1.0, num_shards=num_shards)
    sharded.materialize("constrained", epsilon=epsilon, seed=11)
    mono = HistogramEngine(counts, 1.0)
    mono.materialize("constrained", epsilon=epsilon, seed=11)
    # Bit-exact: the very same float, not an approximation.
    assert sharded.spent_epsilon == mono.spent_epsilon == epsilon
    assert len(sharded.budget.history) == 1


@pytest.mark.parametrize("num_shards", SHARD_COUNTS)
def test_router_answers_bit_identical_to_monolithic_release(
    counts, batch, num_shards
):
    sharded = ShardedHistogramEngine(counts, 1.0, num_shards=num_shards)
    release = sharded.materialize("constrained", epsilon=0.1, seed=11)
    # The monolithic reference: one release whose leaves are exactly the
    # per-shard estimates under the same seed schedule.
    mono = MaterializedRelease(
        release.unit_counts(),
        estimator=release.estimator,
        epsilon=release.epsilon,
        dataset_fingerprint=release.dataset_fingerprint,
        branching=release.branching,
        seed=11,
    )
    router = ShardRouter()
    routed = router.answer(release, batch)
    reference = mono.range_sums(batch.los, batch.his)
    assert np.array_equal(routed, reference)  # bit-identical, no tolerance
    # The distributed stitching (per-shard partial sums + O(1) totals)
    # differs only by float summation order.
    np.testing.assert_allclose(
        answer_stitched(release, batch), reference, rtol=1e-12, atol=1e-9
    )


@pytest.mark.parametrize("num_shards", [1, 3, 8])
def test_sharded_release_prefix_equals_monolithic_prefix(counts, num_shards):
    sharded = ShardedHistogramEngine(counts, 1.0, num_shards=num_shards)
    release = sharded.materialize("constrained", epsilon=0.1, seed=5)
    mono = MaterializedRelease(
        release.unit_counts(),
        estimator="H_bar",
        epsilon=0.1,
        dataset_fingerprint="ref",
        seed=5,
    )
    # Every prefix [0, p] must answer exactly as the monolithic index
    # does — this is the invariant the bit-identity rests on.
    his = np.arange(release.domain_size)
    los = np.zeros_like(his)
    assert np.array_equal(release.range_sums(los, his), mono.range_sums(los, his))
