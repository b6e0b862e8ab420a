"""Answering range-query batches against sharded releases.

H̄'s released leaves are consistent, so every range answer is a sum of
leaves, and sharding only splits the build (parallel composition).  A
:class:`~repro.sharding.release.ShardedRelease` therefore indexes the
concatenated shard leaves exactly as a monolithic release does, and the
:class:`ShardRouter` answers a whole batch from that one global prefix
index: ``prefix[hi + 1] - prefix[lo]`` per query, whichever shards the
range spans.  The answers are **bit-identical** to a monolithic release
over the same leaves for every shard count.
"""

from __future__ import annotations

import numpy as np

from repro import obs
from repro.exceptions import QueryError
from repro.serving.planner import QueryBatch
from repro.sharding.release import ShardedRelease

__all__ = ["ShardRouter"]


class ShardRouter:
    """Answers query batches against sharded releases.

    Stateless, like :class:`~repro.serving.planner.BatchQueryPlanner` —
    the router owns no data, only the batch-level domain check.
    """

    @staticmethod
    def _check(release: ShardedRelease, batch: QueryBatch) -> None:
        if batch.max_hi >= release.domain_size:
            raise QueryError(
                f"batch {batch.name!r} reaches bucket {batch.max_hi}, beyond "
                f"the sharded release domain of size {release.domain_size}"
            )

    def answer(self, release: ShardedRelease, batch: QueryBatch) -> np.ndarray:
        """All answers from the release's global prefix index."""
        self._check(release, batch)
        answers = release.range_sums(batch.los, batch.his, assume_valid=True)
        if obs.enabled():
            obs.registry().counter(
                "repro_router_batches_total", "Batches routed across shards"
            ).inc()
        return answers
