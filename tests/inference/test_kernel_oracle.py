"""The H̄ build kernels against their reshape-and-sum reference versions.

:meth:`TreeLayout.child_sums` replaces ``reshape(..., -1, k).sum`` with
strided adds (for k < 8), and :class:`HierarchicalInference` runs both
Theorem 3 passes and the Section 4.2 heuristic in place on one buffer.
None of that may change a bit, so the level-by-level versions they
replaced live on here as the oracle: every level split out and copied,
summed with ``reshape(...).sum``, concatenated back, and the heuristic
applied as a separate pass over a copy.

Run standalone with ``pytest -m equivalence``.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.inference.hierarchical import (
    HierarchicalInference,
    hierarchical_inference,
)
from repro.queries.hierarchical import TreeLayout

pytestmark = pytest.mark.equivalence


# -- the oracle: level-split, reshape-and-sum kernels ----------------------------


def oracle_child_sums(level: np.ndarray, k: int) -> np.ndarray:
    return level.reshape(level.shape[0], -1, k).sum(axis=2)


def oracle_aggregate(layout: TreeLayout, leaves: np.ndarray) -> np.ndarray:
    """``(trials, num_leaves)`` in, ``(trials, num_nodes)`` out."""
    levels = [leaves]
    for _ in range(layout.height - 1):
        levels.insert(0, oracle_child_sums(levels[0], layout.branching))
    return np.concatenate(levels, axis=1)


def oracle_infer(layout: TreeLayout, noisy: np.ndarray) -> np.ndarray:
    """Theorem 3 on a ``(trials, num_nodes)`` matrix, one copied level at a time."""
    k, height = layout.branching, layout.height
    levels = [noisy[:, layout.level_slice(level)].copy() for level in range(height)]
    z = [np.empty(0)] * height
    z[height - 1] = levels[height - 1].copy()
    for level in range(height - 2, -1, -1):
        node_height = height - level
        k_l = float(k**node_height)
        k_lm1 = float(k ** (node_height - 1))
        own_weight = (k_l - k_lm1) / (k_l - 1.0)
        child_weight = (k_lm1 - 1.0) / (k_l - 1.0)
        child_sums = oracle_child_sums(z[level + 1], k)
        z[level] = own_weight * levels[level] + child_weight * child_sums
    h = [np.empty(0)] * height
    h[0] = z[0].copy()
    for level in range(1, height):
        corrections = (h[level - 1] - oracle_child_sums(z[level], k)) / k
        h[level] = z[level] + np.repeat(corrections, k, axis=1)
    return np.concatenate(h, axis=1)


def oracle_zero_nonpositive_subtrees(
    layout: TreeLayout, values: np.ndarray
) -> np.ndarray:
    values = values.copy()
    k = layout.branching
    zeroed = values[:, layout.level_slice(0)] <= 0.0
    values[:, layout.level_slice(0)][zeroed] = 0.0
    for level in range(1, layout.height):
        level_values = values[:, layout.level_slice(level)]
        zeroed = np.repeat(zeroed, k, axis=1) | (level_values <= 0.0)
        level_values[zeroed] = 0.0
    return values


# -- inputs ------------------------------------------------------------------------


def noisy_tree(layout: TreeLayout, trials: int | None, rng) -> np.ndarray:
    """A noisy tree over sparse counts: 1-D, or ``(trials, num_nodes)``."""
    rows = trials or 1
    counts = rng.poisson(3.0, size=(rows, layout.num_leaves)) * (
        rng.random((rows, layout.num_leaves)) < 0.3
    )
    truth = oracle_aggregate(layout, counts.astype(np.float64))
    noisy = truth + rng.laplace(scale=float(layout.height), size=truth.shape)
    # Exact zeros exercise the heuristic's ``<= 0`` boundary.
    noisy[rng.random(noisy.shape) < 0.05] = 0.0
    return noisy[0] if trials is None else noisy


@st.composite
def trees(draw):
    """A layout (k ∈ 2..16, height 1..6, at most 2^16 leaves) and a noisy
    tree over it, passed 1-D or as a batch of 1-3 trials."""
    k = draw(st.integers(2, 16))
    height = draw(st.integers(1, 6).filter(lambda h: k ** (h - 1) <= 1 << 16))
    layout = TreeLayout(num_leaves=k ** (height - 1), branching=k)
    trials = draw(st.sampled_from([None, 1, 2, 3]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return layout, noisy_tree(layout, trials, rng)


def as_matrix(values: np.ndarray) -> np.ndarray:
    return values if values.ndim == 2 else values[np.newaxis, :]


# -- the sweep --------------------------------------------------------------------


class TestKernelsMatchOracle:
    @given(case=trees(), nonnegative=st.booleans())
    @settings(max_examples=80, deadline=None)
    def test_inference(self, case, nonnegative):
        layout, noisy = case
        before = noisy.copy()
        got = hierarchical_inference(noisy, layout, nonnegative=nonnegative)
        want = oracle_infer(layout, as_matrix(noisy))
        if nonnegative:
            want = oracle_zero_nonpositive_subtrees(layout, want)
        assert got.shape == noisy.shape
        assert np.array_equal(as_matrix(got), want)
        assert np.array_equal(noisy, before), "inference must not write its input"

    @given(case=trees())
    @settings(max_examples=60, deadline=None)
    def test_zero_nonpositive_subtrees(self, case):
        layout, values = case
        got = HierarchicalInference(layout).zero_nonpositive_subtrees(values)
        want = oracle_zero_nonpositive_subtrees(layout, as_matrix(values))
        assert got.shape == values.shape
        assert np.array_equal(as_matrix(got), want)

    @given(case=trees())
    @settings(max_examples=60, deadline=None)
    def test_aggregation(self, case):
        layout, noisy = case
        leaves = as_matrix(noisy)[:, layout.leaf_offset :]
        want = oracle_aggregate(layout, leaves)
        assert np.array_equal(layout.aggregate_many(leaves), want)
        assert np.array_equal(layout.aggregate(leaves[0]), want[0])
        for level in range(1, layout.height):
            children = want[:, layout.level_slice(level)]
            assert np.array_equal(
                layout.child_sums(children),
                oracle_child_sums(children, layout.branching),
            )


@pytest.mark.parametrize("k", range(2, 17))
def test_every_branching_factor_on_a_deep_batch(k):
    """Every k, on a tree with at least 4096 leaves, so each level has
    enough sibling runs for any change in summation order to show."""
    height = 2
    while k ** (height - 1) < 4096:
        height += 1
    layout = TreeLayout(num_leaves=k ** (height - 1), branching=k)
    noisy = noisy_tree(layout, 2, np.random.default_rng(k))
    want = oracle_infer(layout, noisy)
    assert np.array_equal(hierarchical_inference(noisy, layout), want)
    assert np.array_equal(
        hierarchical_inference(noisy, layout, nonnegative=True),
        oracle_zero_nonpositive_subtrees(layout, want),
    )
    leaves = noisy[:, layout.leaf_offset :]
    want = oracle_aggregate(layout, leaves)
    assert np.array_equal(layout.aggregate_many(leaves), want)


def test_nonnegative_inference_allocates_at_most_two_tree_buffers():
    layout = TreeLayout(num_leaves=1 << 20, branching=2)
    noisy = np.random.default_rng(3).laplace(scale=21.0, size=layout.num_nodes)
    engine = HierarchicalInference(layout)
    tracemalloc.start()
    try:
        engine.infer_nonnegative(noisy)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 2 * noisy.nbytes
