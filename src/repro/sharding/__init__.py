"""Sharded massive-domain releases: partition, build in parallel, route.

The serving tier answers millions of queries from one materialized
release, but every layer below this one materializes a single monolithic
tree per attribute — capping practical domain size and build
parallelism.  This package removes that cap by sharding the *data
structure*:

* :class:`ShardPlan` — a contiguous partition of the unit-count domain
  into non-empty shards; every routing decision is one ``searchsorted``
  over its boundaries (:mod:`repro.sharding.plan`);
* :func:`build_shard_releases` /
  :class:`ShardedHistogramEngine` — one hierarchical release per shard,
  built in parallel on a worker pool, each persisting as a normal
  versioned store artifact under its own
  :class:`~repro.serving.release.ReleaseKey`
  (:mod:`repro.sharding.engine`);
* the worker pool itself (:mod:`repro.sharding.pool`) — thread or
  spawn-process execution behind a ``worker_mode`` knob; only the
  process pool scales past one core (the build kernels hold the GIL),
  and releases are bit-identical for any ``(workers, worker_mode)``;
* :class:`ShardedRelease` — the assembled, immutable serving artifact:
  the concatenated shard leaves under one global prefix-sum index, the
  same index a monolithic release builds (:mod:`repro.sharding.release`);
* :class:`ShardRouter` — answers 100k+ query batches from that global
  index, one subtraction per query whichever shards a range spans; its
  answers are **bit-identical** to a monolithic release over the same
  leaves (:mod:`repro.sharding.router`);
* :class:`ShardedStreamingEngine` /
  :class:`~repro.sharding.lineage.ShardedLineage` — per-shard epoch
  refresh: only shards whose ingest deltas cross the refresh threshold
  are re-released, the lineage records the refresh set, and warm
  restarts re-assemble the latest epoch with zero ε
  (:mod:`repro.sharding.streaming`).

Privacy invariants
------------------

1. **One ε per sharded release (parallel composition).**  Shards
   partition the domain, so neighbouring databases differ in exactly one
   shard's sub-histogram; running an ε-DP mechanism independently per
   shard is ε-DP overall.  A sharded materialization therefore charges
   the shared :class:`~repro.privacy.budget.PrivacyBudget` exactly the
   monolithic ε — bit-exactly, for any shard count — and a sharded
   stream's epoch charges its schedule εᵢ once however many shards it
   refreshes.
2. **Independent shard noise.**  Parallel composition requires each
   shard's mechanism to draw its own randomness: shard ``s`` seeds with
   :func:`~repro.sharding.engine.derive_shard_seed(base_seed, s)
   <repro.sharding.engine.derive_shard_seed>` (streams hash
   ``(base_seed, epoch, s)``) — a hash, not an offset, so requests with
   nearby base seeds can never alias a noise stream — and
   :class:`ShardedRelease` refuses duplicated shard seeds outright.
3. **Charge only on success, once.**  Shard builds are computed before
   anything is cached or persisted; ε is charged only after *every*
   shard in the build set has succeeded, and an all-warm resolution
   (cache or store) charges nothing — assembly and routing are pure
   post-processing (Proposition 2).
4. **Exactness of stitching.**  The assembled release's index is the
   same ``cumsum`` a monolithic release computes, so routed answers are
   bit-identical to a monolithic release over the same leaves — sharding
   changes cost, never answers.

Quickstart::

    import numpy as np
    from repro.serving import QueryBatch, ReleaseStore
    from repro.sharding import ShardedHistogramEngine

    counts = np.random.default_rng(0).poisson(3, size=1 << 22)
    engine = ShardedHistogramEngine(
        counts, total_epsilon=1.0, shard_size=1 << 16,
        store=ReleaseStore("releases"),
    )
    batch = QueryBatch.random(engine.domain_size, 100_000, rng=0)
    result = engine.submit(batch, "constrained", epsilon=0.1, seed=7)
    engine.spent_epsilon      # 0.1 — one ε for all 64 shards
    engine.num_shards         # 64, built in parallel, each persisted
"""

from repro.sharding.engine import (
    ShardedHistogramEngine,
    build_shard_releases,
    derive_shard_seed,
)
from repro.sharding.lineage import ShardedLineage, ShardEpochRecord
from repro.sharding.plan import DEFAULT_SHARD_SIZE, ShardPlan, resolve_plan
from repro.sharding.pool import (
    WORKER_MODES,
    effective_cpu_count,
    resolve_worker_mode,
    shutdown_worker_pools,
)
from repro.sharding.release import ShardedRelease
from repro.sharding.router import ShardRouter
from repro.sharding.streaming import ShardedStreamingEngine

__all__ = [
    "DEFAULT_SHARD_SIZE",
    "ShardPlan",
    "resolve_plan",
    "ShardedRelease",
    "ShardRouter",
    "build_shard_releases",
    "derive_shard_seed",
    "WORKER_MODES",
    "effective_cpu_count",
    "resolve_worker_mode",
    "shutdown_worker_pools",
    "ShardedHistogramEngine",
    "ShardedLineage",
    "ShardEpochRecord",
    "ShardedStreamingEngine",
]
