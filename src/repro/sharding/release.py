"""The assembled sharded release: one logical histogram, many artifacts.

A :class:`ShardedRelease` stitches per-shard
:class:`~repro.serving.release.MaterializedRelease` artifacts — each a
normal, individually persisted release over its shard's sub-histogram —
into one queryable release over the full domain.  Assembly concatenates
the shard leaves and indexes them exactly as a monolithic release would
(:class:`~repro.serving.release.PrefixIndexedRelease`): H̄'s leaves are
consistent, so every range answer is a sum of leaves, and the global
prefix sums answer any range — within a shard or across many — with one
subtraction, **bit-identical** to a monolithic release built over the
same leaves.  Sharding splits the build, never the read path.

The sharded release is post-processing of its shards (Proposition 2):
assembling, persisting, or re-assembling it never touches the private
data and never costs ε.  Privacy accounting for *building* the shards
lives in :class:`~repro.sharding.engine.ShardedHistogramEngine`.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import ReproError
from repro.serving.release import (
    MaterializedRelease,
    PrefixIndexedRelease,
    ReleaseKey,
)
from repro.sharding.plan import ShardPlan

__all__ = ["ShardedRelease"]


class ShardedRelease(PrefixIndexedRelease):
    """An immutable sharded consistent-histogram release.

    Parameters
    ----------
    plan:
        The :class:`ShardPlan` the shards were built under.
    shard_releases:
        One :class:`MaterializedRelease` per shard, in shard order; shard
        ``s``'s domain size must equal the plan's shard width.  Estimator,
        ε, and branching must agree across shards (they are one release);
        seeds are per-shard (distinct seeds keep the shards' noise
        independent, which the privacy argument requires).
    dataset_fingerprint:
        Fingerprint of the *full* count vector, for telemetry and
        identity; the per-shard artifacts carry their own sub-histogram
        fingerprints.
    """

    def __init__(
        self,
        plan: ShardPlan,
        shard_releases,
        *,
        dataset_fingerprint: str,
    ) -> None:
        shards = tuple(shard_releases)
        if len(shards) != plan.num_shards:
            raise ReproError(
                f"plan has {plan.num_shards} shards but {len(shards)} "
                f"releases were supplied"
            )
        sizes = plan.sizes
        for s, release in enumerate(shards):
            if not isinstance(release, MaterializedRelease):
                raise ReproError(
                    f"shard {s} is {type(release).__name__}, expected a "
                    f"MaterializedRelease"
                )
            if release.domain_size != int(sizes[s]):
                raise ReproError(
                    f"shard {s} covers {release.domain_size} buckets, plan "
                    f"expects {int(sizes[s])}"
                )
        first = shards[0]
        for s, release in enumerate(shards):
            # Per-shard ε may legitimately differ (a partial-refresh
            # stream serves shards released in different epochs); the
            # strategy itself must not.
            if (
                release.estimator != first.estimator
                or release.branching != first.branching
            ):
                raise ReproError(
                    f"shard {s} ({release.estimator}, b={release.branching}) "
                    f"disagrees with shard 0 ({first.estimator}, "
                    f"b={first.branching}); a sharded release is one release"
                )
        seeds = [release.seed for release in shards]
        if len(set(seeds)) != len(seeds):
            raise ReproError(
                "shard seeds must be pairwise distinct: reusing a seed "
                "across shards with identical counts would reuse the same "
                "noise draw, voiding the parallel-composition guarantee"
            )
        self.plan = plan
        self.shard_releases = shards
        self.estimator = first.estimator
        #: the largest per-shard mechanism ε in the assembly — the
        #: uniform ε for one-shot sharded releases; partial-refresh
        #: streams mix epochs (see :attr:`shard_epsilons`), and their
        #: lifetime guarantee is the lineage's Σεᵢ, not any single value.
        self.epsilon = max(release.epsilon for release in shards)
        self.branching = first.branching
        self.dataset_fingerprint = str(dataset_fingerprint)
        # Fill a preallocated array from each shard's read-only view: one
        # copy per shard instead of unit_counts()'s defensive copy plus
        # the concatenate copy (this runs on every epoch publish).
        leaves = np.empty(plan.domain_size, dtype=np.float64)
        for s, release in enumerate(shards):
            lo = int(plan.boundaries[s])
            leaves[lo : lo + release.domain_size] = release.unit_counts_view()
        self._index(leaves)

    # -- geometry --------------------------------------------------------------

    @property
    def num_shards(self) -> int:
        return self.plan.num_shards

    @property
    def shard_seeds(self) -> tuple[int, ...]:
        return tuple(release.seed for release in self.shard_releases)

    @property
    def shard_epsilons(self) -> tuple[float, ...]:
        """Per-shard mechanism ε (uniform except for partial-refresh streams)."""
        return tuple(release.epsilon for release in self.shard_releases)

    @property
    def shard_keys(self) -> tuple[ReleaseKey, ...]:
        """The full release identity of every shard artifact, in order."""
        return tuple(release.key for release in self.shard_releases)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"ShardedRelease(estimator={self.estimator!r}, "
            f"epsilon={self.epsilon:g}, num_shards={self.num_shards}, "
            f"domain_size={self.domain_size})"
        )
