"""Materialized releases: the immutable serving artifact.

The paper's central operational fact (Proposition 2) is that constrained
inference is post-processing: once a consistent private histogram H̄ has
been computed, *any* number of range queries may be answered from it with
no further privacy cost.  A :class:`MaterializedRelease` freezes one such
release — the estimated unit counts plus the provenance needed to identify
it (estimator, ε, branching, seed, and a fingerprint of the source data) —
and equips it with an O(1) prefix-sum range index so the serving tier can
answer queries at memory speed.

Releases serialize to a single ``.npz`` file, so a data owner can
materialize once (paying ε) and ship the artifact to any number of
analysts or serving replicas.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.estimators.base import FittedRangeEstimate
from repro.exceptions import QueryError, ReproError
from repro.privacy.definitions import PrivacyParameters
from repro.utils.arrays import as_float_vector, as_range_bounds

__all__ = [
    "ReleaseKey",
    "PrefixIndexedRelease",
    "MaterializedRelease",
    "fingerprint_counts",
]

#: On-disk format version; bump when the ``.npz`` layout changes.
FORMAT_VERSION = 1


def fingerprint_counts(counts) -> str:
    """A short, stable fingerprint of a count vector.

    Two datasets share a fingerprint iff they have identical unit counts,
    so the fingerprint is a safe cache-key component: a release computed
    for one dataset is never served for another.
    """
    counts = np.ascontiguousarray(as_float_vector(counts, name="counts"))
    digest = hashlib.sha256()
    digest.update(str(counts.shape).encode("ascii"))
    digest.update(counts.tobytes())
    return digest.hexdigest()[:16]


@dataclass(frozen=True)
class ReleaseKey:
    """The identity of one materialized release.

    Two materialization requests that agree on every field would produce
    the same artifact, so the serving cache may (and does) answer the
    second from the first — with zero additional ε spent.
    """

    dataset_fingerprint: str
    estimator: str
    epsilon: float
    branching: int
    seed: int

    def to_json(self) -> dict:
        """The key as a plain JSON-ready dict (one field per identity part)."""
        return {
            "dataset_fingerprint": self.dataset_fingerprint,
            "estimator": self.estimator,
            "epsilon": self.epsilon,
            "branching": self.branching,
            "seed": self.seed,
        }

    @classmethod
    def from_json(cls, entry: dict) -> "ReleaseKey":
        """Rebuild a key from :meth:`to_json` output (extra fields ignored).

        Raises :class:`~repro.exceptions.ReproError` on missing or
        mistyped fields, so every ledger that embeds keys fails loudly on
        a malformed entry instead of serving a half-parsed identity.
        """
        try:
            return cls(
                dataset_fingerprint=str(entry["dataset_fingerprint"]),
                estimator=str(entry["estimator"]),
                epsilon=float(entry["epsilon"]),
                branching=int(entry["branching"]),
                seed=int(entry["seed"]),
            )
        except (KeyError, TypeError, ValueError) as error:
            raise ReproError(
                f"malformed release key entry {entry!r}: {error}"
            ) from error


class PrefixIndexedRelease:
    """Frozen unit estimates answered through one prefix-sum index.

    The one read path of every release, monolithic or sharded: a range
    answer is a sum of released leaves, ``c([lo, hi]) = prefix[hi + 1] -
    prefix[lo]``, one subtraction per query regardless of range length,
    and a whole batch is two fancy indexing operations.  Because every
    release indexes its leaves with this same ``cumsum``, releases over
    the same leaves answer bit-identically however they were assembled.
    """

    def _index(self, leaves: np.ndarray) -> None:
        """Take ownership of ``leaves``, freeze them and build the index."""
        leaves.setflags(write=False)
        self._leaves = leaves
        prefix = np.concatenate(([0.0], np.cumsum(leaves)))
        prefix.setflags(write=False)
        self._prefix = prefix

    @property
    def domain_size(self) -> int:
        """Number of unit buckets the release covers."""
        return int(self._leaves.size)

    def unit_counts(self) -> np.ndarray:
        """The released unit estimates (copy)."""
        return self._leaves.copy()

    def total(self) -> float:
        """Estimate of the total number of records."""
        return float(self._prefix[-1])

    def range_sum(self, lo: int, hi: int) -> float:
        """Estimate ``c([lo, hi])`` (inclusive) in O(1)."""
        lo, hi = int(lo), int(hi)
        if not 0 <= lo <= hi < self._leaves.size:
            raise QueryError(
                f"invalid range [{lo}, {hi}] for domain size {self._leaves.size}"
            )
        return float(self._prefix[hi + 1] - self._prefix[lo])

    def range_sums(self, los, his, assume_valid: bool = False) -> np.ndarray:
        """Estimates for a whole batch of inclusive ranges in one pass.

        ``los`` and ``his`` are equal-length integer arrays; the answer is
        computed with two vectorized gathers on the prefix-sum array —
        no Python-level loop.

        ``assume_valid`` skips the bounds scans for callers that have
        already validated the batch (the planner validates once per
        :class:`~repro.serving.planner.QueryBatch`, not once per answer
        pass); invalid bounds then raise or, worse, silently wrap, so
        only pass ``True`` for pre-checked arrays.
        """
        if assume_valid:
            los = np.asarray(los, dtype=np.int64)
            his = np.asarray(his, dtype=np.int64)
        else:
            los, his = as_range_bounds(los, his, self._leaves.size)
        return self._prefix[his + 1] - self._prefix[los]


class MaterializedRelease(PrefixIndexedRelease):
    """An immutable consistent-histogram release with an O(1) range index.

    Parameters
    ----------
    unit_estimates:
        The released per-bucket estimates (the consistent leaves for H̄;
        noisy unit counts for the baselines).  Copied and frozen.
    estimator:
        Name of the strategy that produced the estimates ("H_bar", "L~",
        "H~", "wavelet", or "truth" for non-private ground truth).
    epsilon:
        Privacy parameter the release consumed.
    dataset_fingerprint:
        Fingerprint of the source counts (:func:`fingerprint_counts`).
    branching:
        Branching factor of the underlying tree query (recorded even for
        flat strategies so the cache key is total).
    seed:
        The seed the mechanism noise was drawn with; materialized releases
        require an explicit seed so that identity, not chance, determines
        cache hits.

    Range queries are answered from the precomputed prefix-sum index of
    :class:`PrefixIndexedRelease`.
    """

    def __init__(
        self,
        unit_estimates,
        *,
        estimator: str,
        epsilon: float,
        dataset_fingerprint: str,
        branching: int = 2,
        seed: int = 0,
    ) -> None:
        leaves = as_float_vector(unit_estimates, name="unit_estimates").copy()
        PrivacyParameters(float(epsilon))  # validates ε > 0
        if int(branching) < 2:
            raise QueryError(f"branching factor must be >= 2, got {branching}")
        self._index(leaves)
        self.estimator = str(estimator)
        self.epsilon = float(epsilon)
        self.dataset_fingerprint = str(dataset_fingerprint)
        self.branching = int(branching)
        self.seed = int(seed)

    # -- identity -------------------------------------------------------------

    @property
    def key(self) -> ReleaseKey:
        """The cache key this release answers for."""
        return ReleaseKey(
            dataset_fingerprint=self.dataset_fingerprint,
            estimator=self.estimator,
            epsilon=self.epsilon,
            branching=self.branching,
            seed=self.seed,
        )

    # -- answering ------------------------------------------------------------

    def unit_counts_view(self) -> np.ndarray:
        """The released unit estimates as a read-only view (no copy).

        For bulk consumers (sharded assembly stitches many releases per
        epoch) where the defensive copy of :meth:`unit_counts` would
        double the transient memory.  A slice view, not the owning
        array: ``setflags(write=True)`` on it raises, so callers cannot
        re-enable writes and mutate the served release.
        """
        return self._leaves[:]

    # -- constructors ----------------------------------------------------------

    @classmethod
    def from_fitted(
        cls,
        fitted: FittedRangeEstimate,
        dataset_fingerprint: str,
        *,
        branching: int = 2,
        seed: int = 0,
    ) -> "MaterializedRelease":
        """Freeze the analyst-side result of one estimator run.

        Only the unit estimates are materialized; range queries are then
        sums of released unit counts.  For consistent releases (H̄, L̃, the
        wavelet reconstruction) this equals every other decomposition of
        the range, which is exactly the consistency property the paper's
        inference step buys.
        """
        return cls(
            fitted.unit_estimates,
            estimator=fitted.name,
            epsilon=fitted.epsilon,
            dataset_fingerprint=dataset_fingerprint,
            branching=branching,
            seed=seed,
        )

    # -- serialization ---------------------------------------------------------

    def _write_npz(self, handle) -> None:
        """Serialize the release's ``.npz`` payload to an open binary handle.

        Exposed (privately) so :class:`~repro.serving.store.ReleaseStore`
        can stream the exact same format into a temporary file for its
        atomic write-then-rename protocol.
        """
        np.savez(
            handle,
            format_version=np.int64(FORMAT_VERSION),
            unit_estimates=self._leaves,
            estimator=np.str_(self.estimator),
            epsilon=np.float64(self.epsilon),
            dataset_fingerprint=np.str_(self.dataset_fingerprint),
            branching=np.int64(self.branching),
            seed=np.int64(self.seed),
        )

    def save(self, path) -> Path:
        """Write the release to ``path`` as a ``.npz`` archive.

        Returns the path actually written (numpy appends ``.npz`` when the
        suffix is missing).
        """
        path = Path(path)
        try:
            with open(path, "wb") as handle:
                self._write_npz(handle)
        except OSError as error:
            raise ReproError(f"cannot write release to {path}: {error}") from error
        return path

    @classmethod
    def load(cls, path) -> "MaterializedRelease":
        """Read a release previously written by :meth:`save`."""
        path = Path(path)
        try:
            with np.load(path, allow_pickle=False) as data:
                version = int(data["format_version"])
                if version > FORMAT_VERSION:
                    raise ReproError(
                        f"release file {path} has format version {version}, "
                        f"newer than the supported {FORMAT_VERSION}"
                    )
                return cls(
                    data["unit_estimates"],
                    estimator=str(data["estimator"]),
                    epsilon=float(data["epsilon"]),
                    dataset_fingerprint=str(data["dataset_fingerprint"]),
                    branching=int(data["branching"]),
                    seed=int(data["seed"]),
                )
        except (OSError, KeyError, ValueError) as error:
            raise ReproError(f"cannot load release from {path}: {error}") from error

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"MaterializedRelease(estimator={self.estimator!r}, "
            f"epsilon={self.epsilon:g}, domain_size={self.domain_size}, "
            f"fingerprint={self.dataset_fingerprint!r})"
        )
