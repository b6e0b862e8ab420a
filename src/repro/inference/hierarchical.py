"""Hierarchical constrained inference (Theorem 3) for the ``H`` query.

Given the noisy breadth-first tree counts ``h̃``, the minimum-L2 vector
satisfying the parent-equals-sum-of-children constraints γ_H is computed
by two linear passes over the tree:

1. **Bottom-up** — compute an intermediate estimate ``z[v]`` for every
   node: leaves keep their noisy value, and an internal node of height
   ``l`` (leaves have height 1) takes the inverse-variance-weighted
   average of its own noisy count and the sum of its children's ``z``
   values::

       z[v] = (k^l - k^(l-1))/(k^l - 1) * h̃[v]
            + (k^(l-1) - 1)/(k^l - 1)   * Σ_{u ∈ succ(v)} z[u]

2. **Top-down** — the root's final estimate is ``z[root]``; descending the
   tree, any discrepancy between a parent's final estimate and the sum of
   its children's ``z`` values is divided equally among the ``k``
   children::

       h̄[v] = z[v] + (1/k) * ( h̄[parent(v)] - Σ_{w ∈ succ(parent(v))} z[w] )

Both passes run in place on one ``(trials, num_nodes)`` buffer, a copy of
the input: the bottom-up pass overwrites each internal level with ``z``
and the top-down pass overwrites each level with ``h̄``.  Every level is
handled in one vectorised step *across Monte Carlo trials*: each entry
point accepts either one noisy tree (a 1-D vector of ``num_nodes``
values) or a stacked batch of ``trials`` independent noisy trees (a
``(trials, num_nodes)`` matrix), so inferring 64 trials costs one pass
over a matrix instead of 64 scalar passes.  The sibling sums come from
:meth:`TreeLayout.child_sums`, and the per-child correction is added
with one strided add per child position, so row ``t`` of the batched
result is bit-for-bit the scalar result for row ``t`` of the input.

The module also implements the Section 4.2 non-negativity heuristic: after
inference, any subtree whose root estimate is ``<= 0`` is zeroed out
entirely.  This is exposed as an option rather than always applied, so the
ablation benchmark can quantify its effect.  :meth:`infer_nonnegative`
folds it into the top-down pass: once level ``L`` holds its final
estimates, level ``L - 1`` is no longer read, so it is zeroed right then
under the mask propagated from above.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.exceptions import InferenceError
from repro.queries.hierarchical import TreeLayout
from repro.utils.arrays import as_float_vector_or_matrix

__all__ = ["HierarchicalInference", "hierarchical_inference"]


@dataclass
class HierarchicalInference:
    """Constrained-inference engine bound to one tree layout."""

    layout: TreeLayout

    # -- main entry points ----------------------------------------------------

    def infer(self, noisy_values) -> np.ndarray:
        """Minimum-L2 consistent tree counts ``h̄`` for the noisy vector ``h̃``.

        Accepts one tree (1-D, ``num_nodes`` entries) or a trial batch
        (``(trials, num_nodes)``); the output matches the input shape.
        Leaves are the last ``num_leaves`` entries of each row.
        """
        return self._infer(noisy_values, nonnegative=False)

    def infer_leaves(self, noisy_values) -> np.ndarray:
        """Convenience: the consistent estimates of the unit counts only."""
        return self.infer(noisy_values)[..., self.layout.leaf_offset :]

    def infer_nonnegative(self, noisy_values) -> np.ndarray:
        """Inference followed by the Section 4.2 non-negativity heuristic.

        After computing ``h̄``, every subtree whose root estimate is
        ``<= 0`` is set to zero (the root and all of its descendants).
        The result is still consistent and non-negative wherever the
        heuristic fired; remaining small negative leaf estimates (under a
        positive parent) are left untouched, matching the paper.  The
        result equals :meth:`zero_nonpositive_subtrees` of :meth:`infer`,
        computed within the one top-down pass.
        """
        return self._infer(noisy_values, nonnegative=True)

    # -- heuristics --------------------------------------------------------------

    def zero_nonpositive_subtrees(self, values) -> np.ndarray:
        """Zero out every subtree whose root has a non-positive estimate.

        Works on one tree or a ``(trials, num_nodes)`` batch; the "zeroed"
        mask propagates down the levels independently per trial.
        """
        tree, batched = self._check(values)
        zeroed = None
        for level_slice in self.layout.level_slices:
            zeroed = self._zero_level(tree[:, level_slice], zeroed)
        return tree if batched else tree[0]

    # -- internals ----------------------------------------------------------------

    def _check(self, values) -> tuple[np.ndarray, bool]:
        """Copy into a fresh ``(trials, num_nodes)`` buffer; flag 2-D input."""
        values = as_float_vector_or_matrix(values, name="noisy tree counts")
        if values.shape[-1] != self.layout.num_nodes:
            raise InferenceError(
                f"expected {self.layout.num_nodes} node values per tree, "
                f"got {values.shape[-1]}"
            )
        tree = np.array(values, dtype=np.float64, order="C", ndmin=2)
        return tree, values.ndim == 2

    def _infer(self, noisy_values, nonnegative: bool) -> np.ndarray:
        tree, batched = self._check(noisy_values)
        self._bottom_up(tree)
        self._top_down(tree, nonnegative)
        return tree if batched else tree[0]

    def _bottom_up(self, tree: np.ndarray) -> None:
        """Overwrite each internal level with its ``z`` estimate, leaves first."""
        k = self.layout.branching
        height = self.layout.height
        slices = self.layout.level_slices
        for level in range(height - 2, -1, -1):
            node_height = height - level  # leaves have height 1
            k_l = float(k**node_height)
            k_lm1 = float(k ** (node_height - 1))
            own_weight = (k_l - k_lm1) / (k_l - 1.0)
            child_weight = (k_lm1 - 1.0) / (k_l - 1.0)
            weighted_sums = self.layout.child_sums(tree[:, slices[level + 1]])
            weighted_sums *= child_weight
            level_values = tree[:, slices[level]]
            level_values *= own_weight
            level_values += weighted_sums

    def _top_down(self, tree: np.ndarray, nonnegative: bool) -> None:
        """Overwrite each level's ``z`` with ``h̄`` (Theorem 3 recurrence).

        With ``nonnegative``, each parent level is zeroed under the
        Section 4.2 mask as soon as its children are final.
        """
        k = self.layout.branching
        slices = self.layout.level_slices
        zeroed = None
        for level in range(1, self.layout.height):
            parents = tree[:, slices[level - 1]]
            children = tree[:, slices[level]]
            corrections = self.layout.child_sums(children)
            np.subtract(parents, corrections, out=corrections)
            corrections /= k
            for child in range(k):
                children[:, child::k] += corrections
            if nonnegative:
                zeroed = self._zero_level(parents, zeroed)
        if nonnegative:
            self._zero_level(tree[:, slices[-1]], zeroed)

    def _zero_level(
        self, level_values: np.ndarray, parent_zeroed: np.ndarray | None
    ) -> np.ndarray:
        """Zero one level's nodes that are ``<= 0`` or under a zeroed parent.

        Returns the level's zeroed mask, which its children inherit.
        """
        zeroed = level_values <= 0.0
        if parent_zeroed is not None:
            k = self.layout.branching
            for child in range(k):
                zeroed[:, child::k] |= parent_zeroed
        level_values[zeroed] = 0.0
        return zeroed


def hierarchical_inference(
    noisy_values, layout: TreeLayout, nonnegative: bool = False
) -> np.ndarray:
    """Functional front-end: consistent tree counts for ``noisy_values``.

    Parameters
    ----------
    noisy_values:
        Breadth-first noisy node counts ``h̃`` — one tree (1-D) or a
        stacked trial batch (``(trials, num_nodes)``).
    layout:
        The tree geometry the counts were produced for.
    nonnegative:
        Apply the Section 4.2 zero-out-non-positive-subtrees heuristic.
    """
    engine = HierarchicalInference(layout)
    if nonnegative:
        return engine.infer_nonnegative(noisy_values)
    return engine.infer(noisy_values)
