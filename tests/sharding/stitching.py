"""The distributed oracle for sharded answers: each shard answers locally.

A range ``[lo, hi]`` splits against the shard plan into a left partial
piece in the shard holding ``lo``, a run of full shards, and a right
partial piece in the shard holding ``hi``.  :func:`answer_stitched`
answers each piece where a multi-process deployment would: partials from
the owning shard's own :class:`~repro.serving.release.MaterializedRelease`
(its local prefix index), full runs from the cumulated per-shard
``total()``s, and a coordinator adds the pieces.  It shares no index
with the served path, so agreeing with it (up to float summation order)
checks the global prefix index independently.
"""

from __future__ import annotations

import numpy as np


def _local_sums(release, shards, los, his) -> np.ndarray:
    """Range sums answered by each query's own shard release."""
    answers = np.empty(shards.size, dtype=np.float64)
    starts = release.plan.boundaries
    for shard in np.unique(shards):
        member = shards == shard
        answers[member] = release.shard_releases[shard].range_sums(
            los[member] - starts[shard], his[member] - starts[shard]
        )
    return answers


def answer_stitched(release, batch) -> np.ndarray:
    """Answers of ``batch`` on ``release``, stitched piece by piece."""
    plan = release.plan
    starts = plan.boundaries
    lo_s = plan.shard_of(batch.los)
    hi_s = plan.shard_of(batch.his)
    # Left piece: [lo, min(hi, shard end)] — the whole query when it lies
    # inside one shard.
    left_hi = np.minimum(batch.his, starts[lo_s + 1] - 1)
    answers = _local_sums(release, lo_s, batch.los, left_hi)
    spanning = lo_s != hi_s
    if np.any(spanning):
        totals = np.concatenate(
            ([0.0], np.cumsum([shard.total() for shard in release.shard_releases]))
        )
        lo_s, hi_s, his = lo_s[spanning], hi_s[spanning], batch.his[spanning]
        full = totals[hi_s] - totals[lo_s + 1]
        right = _local_sums(release, hi_s, starts[hi_s], his)
        answers[spanning] = answers[spanning] + full + right
    return answers
