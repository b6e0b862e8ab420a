"""Partitioning a massive domain into contiguous shards.

A :class:`ShardPlan` is the static geometry of a sharded release: a
strictly increasing boundary array ``b[0]=0 < b[1] < ... < b[k]=n``
splitting the unit-count domain ``[0, n)`` into ``k`` contiguous,
non-empty shards ``[b[s], b[s+1])``.  Everything else in
:mod:`repro.sharding` — per-shard builds, the query router, per-shard
epoch refresh — is parameterized by a plan, and every routing decision is
one vectorized ``searchsorted`` against the boundaries.

Shards partition the domain, so each database record falls in exactly
one shard; that disjointness is what makes the sharded privacy
accounting work (parallel composition — see :mod:`repro.sharding`).
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import DomainError

__all__ = ["DEFAULT_SHARD_SIZE", "ShardPlan", "resolve_plan"]

#: Default target shard width.  Chosen so one shard's H̄ build (tree
#: nodes, noise, inference passes) stays resident in CPU cache — the
#: measured sweet spot that makes a sharded build beat a monolithic one
#: even on a single core.
DEFAULT_SHARD_SIZE = 65_536


class ShardPlan:
    """Immutable contiguous partition of ``[0, domain_size)`` into shards.

    Parameters
    ----------
    boundaries:
        Integer array ``[0, b_1, ..., domain_size]``, strictly
        increasing — shard ``s`` covers buckets ``[b_s, b_{s+1})`` and is
        never empty.
    """

    def __init__(self, boundaries) -> None:
        bounds = np.asarray(boundaries, dtype=np.int64)
        if bounds.ndim != 1 or bounds.size < 2:
            raise DomainError(
                f"shard boundaries must be a 1-D array of >= 2 entries, "
                f"got shape {bounds.shape}"
            )
        if bounds[0] != 0:
            raise DomainError(f"shard boundaries must start at 0, got {bounds[0]}")
        if np.any(np.diff(bounds) <= 0):
            raise DomainError("shard boundaries must be strictly increasing")
        bounds = bounds.copy()
        bounds.setflags(write=False)
        self.boundaries = bounds

    # -- factories -------------------------------------------------------------

    @classmethod
    def uniform(cls, domain_size: int, num_shards: int) -> "ShardPlan":
        """``num_shards`` near-equal shards (the first ``n % k`` get one extra)."""
        if domain_size < 1:
            raise DomainError(f"domain_size must be positive, got {domain_size}")
        if not 1 <= num_shards <= domain_size:
            raise DomainError(
                f"num_shards must be in [1, {domain_size}], got {num_shards}"
            )
        base, extra = divmod(int(domain_size), int(num_shards))
        sizes = np.full(int(num_shards), base, dtype=np.int64)
        sizes[:extra] += 1
        return cls(np.concatenate(([0], np.cumsum(sizes))))

    @classmethod
    def with_shard_size(
        cls, domain_size: int, shard_size: int = DEFAULT_SHARD_SIZE
    ) -> "ShardPlan":
        """Shards of width ``shard_size`` (the last one may be narrower)."""
        if domain_size < 1:
            raise DomainError(f"domain_size must be positive, got {domain_size}")
        if shard_size < 1:
            raise DomainError(f"shard_size must be positive, got {shard_size}")
        bounds = np.arange(0, int(domain_size), int(shard_size), dtype=np.int64)
        return cls(np.concatenate((bounds, [int(domain_size)])))

    # -- geometry --------------------------------------------------------------

    @property
    def domain_size(self) -> int:
        return int(self.boundaries[-1])

    @property
    def num_shards(self) -> int:
        return int(self.boundaries.size - 1)

    @property
    def starts(self) -> np.ndarray:
        """First bucket of each shard."""
        return self.boundaries[:-1]

    @property
    def ends(self) -> np.ndarray:
        """One past the last bucket of each shard."""
        return self.boundaries[1:]

    @property
    def sizes(self) -> np.ndarray:
        """Bucket count of each shard."""
        return np.diff(self.boundaries)

    def slice_of(self, shard: int) -> slice:
        """The ``[start, end)`` slice shard ``shard`` covers."""
        shard = self._check_shard(shard)
        return slice(int(self.boundaries[shard]), int(self.boundaries[shard + 1]))

    def shard_of(self, positions) -> np.ndarray:
        """The shard index holding each bucket position (vectorized).

        One ``searchsorted`` over the boundaries; positions must lie in
        ``[0, domain_size)``.
        """
        positions = np.asarray(positions, dtype=np.int64)
        if positions.size and (
            positions.min() < 0 or positions.max() >= self.domain_size
        ):
            raise DomainError(
                f"positions must lie in [0, {self.domain_size}), got range "
                f"[{positions.min()}, {positions.max()}]"
            )
        return np.searchsorted(self.boundaries, positions, side="right") - 1

    def shard_of_prefix(self, positions) -> np.ndarray:
        """The shard a prefix position ``p`` is attributed to (vectorized).

        Prefix positions live in ``[0, domain_size]`` (one past the last
        bucket).  Each maps to the shard holding bucket ``p``, and ``p =
        domain_size`` clamps into the last shard — e.g. to count how many
        shards a batch's endpoints touch.
        """
        positions = np.asarray(positions, dtype=np.int64)
        if positions.size and (
            positions.min() < 0 or positions.max() > self.domain_size
        ):
            raise DomainError(
                f"prefix positions must lie in [0, {self.domain_size}], got "
                f"range [{positions.min()}, {positions.max()}]"
            )
        shards = np.searchsorted(self.boundaries, positions, side="right") - 1
        return np.minimum(shards, self.num_shards - 1)

    def split(self, counts: np.ndarray) -> list[np.ndarray]:
        """Views of ``counts`` sliced per shard (no copies)."""
        counts = np.asarray(counts)
        if counts.shape[-1] != self.domain_size:
            raise DomainError(
                f"counts cover {counts.shape[-1]} buckets, plan covers "
                f"{self.domain_size}"
            )
        return [counts[..., self.slice_of(s)] for s in range(self.num_shards)]

    def _check_shard(self, shard: int) -> int:
        shard = int(shard)
        if not 0 <= shard < self.num_shards:
            raise DomainError(
                f"shard index must be in [0, {self.num_shards}), got {shard}"
            )
        return shard

    # -- identity --------------------------------------------------------------

    def __eq__(self, other) -> bool:
        return isinstance(other, ShardPlan) and np.array_equal(
            self.boundaries, other.boundaries
        )

    def __hash__(self) -> int:
        return hash(self.boundaries.tobytes())

    def __len__(self) -> int:
        return self.num_shards

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"ShardPlan(num_shards={self.num_shards}, "
            f"domain_size={self.domain_size})"
        )


def resolve_plan(
    domain_size: int,
    num_shards: int | None = None,
    shard_size: int | None = None,
    plan: ShardPlan | None = None,
) -> ShardPlan:
    """The partition geometry from the engines' three-way constructor knob.

    At most one of ``num_shards`` / ``shard_size`` / ``plan`` may be
    given; the default is :data:`DEFAULT_SHARD_SIZE`-wide shards.  One
    implementation shared by the serving and streaming sharded engines
    so their geometry semantics can never drift.
    """
    given = [p is not None for p in (num_shards, shard_size, plan)]
    if sum(given) > 1:
        raise DomainError("pass at most one of num_shards, shard_size, or plan")
    if plan is not None:
        if plan.domain_size != domain_size:
            raise DomainError(
                f"plan covers {plan.domain_size} buckets, data has {domain_size}"
            )
        return plan
    if num_shards is not None:
        return ShardPlan.uniform(domain_size, num_shards)
    return ShardPlan.with_shard_size(
        domain_size, shard_size if shard_size is not None else DEFAULT_SHARD_SIZE
    )
