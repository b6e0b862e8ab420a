"""The hierarchical query sequence ``H`` (Section 4 of the paper).

``H`` arranges interval counts into a complete k-ary tree ``T`` over the
domain: the root covers the whole domain ``[x_1, x_n]``, every node has
``k`` children covering equal sub-intervals, and the leaves are the unit
ranges.  The sequence lists the counts in breadth-first order.  Its
sensitivity is ℓ, the number of nodes on a root-to-leaf path (Proposition
4), because one record contributes to exactly one node per level.

The module has two layers:

* :class:`TreeLayout` — the pure geometry of a complete k-ary tree stored
  in breadth-first array order: parent/child navigation, node intervals,
  level slices, minimal subtree decompositions of ranges, and vectorised
  aggregation of leaf counts up the tree.  It is shared by the ``H``
  estimators and by the hierarchical constrained-inference code.
* :class:`HierarchicalQuery` — the :class:`~repro.queries.base.QuerySequence`
  built on a layout.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from repro.exceptions import QueryError
from repro.queries.base import QuerySequence

__all__ = ["TreeLayout", "HierarchicalQuery", "decomposition_sums"]


def decomposition_sums(gathered: np.ndarray) -> np.ndarray:
    """Sum the last axis of gathered node values, shape-independently.

    ``gathered`` is ``(..., L)`` — the values of the ``L`` decomposition
    nodes for each trial (and optionally each query).  A plain
    ``.sum(axis=-1)`` picks different accumulation orders depending on the
    array's shape, so a one-trial sum would not be bit-for-bit equal to the
    same trial inside a batch.  ``np.add.reduceat`` reduces each length-L
    segment independently, making the result a function of the segment
    contents only — the invariant the batched-vs-scalar equality tests
    rely on.
    """
    gathered = np.ascontiguousarray(gathered, dtype=np.float64)
    length = gathered.shape[-1]
    flat = gathered.reshape(-1)
    starts = np.arange(0, flat.size, length)
    return np.add.reduceat(flat, starts).reshape(gathered.shape[:-1])


@dataclass(frozen=True)
class TreeLayout:
    """Geometry of a complete k-ary tree over ``num_leaves`` unit buckets.

    Nodes are identified by their breadth-first index: the root is 0,
    level ``i`` occupies indexes ``offset(i) .. offset(i+1) - 1`` where
    ``offset(i) = (k^i - 1)/(k - 1)``.  ``num_leaves`` must be a positive
    power of ``branching``.
    """

    num_leaves: int
    branching: int

    def __post_init__(self) -> None:
        if self.branching < 2:
            raise QueryError(f"branching factor must be >= 2, got {self.branching}")
        if self.num_leaves < 1:
            raise QueryError(f"num_leaves must be positive, got {self.num_leaves}")
        size = self.num_leaves
        while size % self.branching == 0:
            size //= self.branching
        if size != 1:
            raise QueryError(
                f"num_leaves={self.num_leaves} is not a power of branching="
                f"{self.branching}; pad the count vector first"
            )

    # -- global shape -------------------------------------------------------

    @cached_property
    def height(self) -> int:
        """ℓ: number of nodes on a root-to-leaf path (paper's convention)."""
        leaves = self.num_leaves
        levels = 1
        while leaves > 1:
            leaves //= self.branching
            levels += 1
        return levels

    @cached_property
    def num_nodes(self) -> int:
        """Total number of nodes ``m = (k^ℓ - 1)/(k - 1)``."""
        return (self.branching**self.height - 1) // (self.branching - 1)

    @property
    def num_internal(self) -> int:
        """Number of non-leaf nodes."""
        return self.num_nodes - self.num_leaves

    def level_sizes(self) -> list[int]:
        """Number of nodes per level, root (level 0) first."""
        return [self.branching**level for level in range(self.height)]

    @cached_property
    def _level_offsets(self) -> np.ndarray:
        """Cumulative level offsets ``offset(0) .. offset(height)``.

        Entry ``i`` is the breadth-first index of the first node at level
        ``i``; the final entry is ``num_nodes``.  Precomputed once so that
        per-node level lookups are a single ``searchsorted`` instead of a
        per-call scan over the levels.
        """
        sizes = self.branching ** np.arange(self.height, dtype=np.int64)
        return np.concatenate(([0], np.cumsum(sizes)))

    def level_offset(self, level: int) -> int:
        """Breadth-first index of the first node at ``level``."""
        self._check_level(level)
        return int(self._level_offsets[level])

    @cached_property
    def level_slices(self) -> tuple[slice, ...]:
        """Breadth-first index slice of every level, root (level 0) first."""
        bounds = self._level_offsets.tolist()
        return tuple(slice(lo, hi) for lo, hi in zip(bounds, bounds[1:]))

    def level_slice(self, level: int) -> slice:
        """Slice of breadth-first indexes occupied by ``level``."""
        return self.level_slices[self._check_level(level)]

    @property
    def leaf_offset(self) -> int:
        """Breadth-first index of the first leaf."""
        return self.level_offset(self.height - 1)

    # -- per-node navigation ---------------------------------------------------

    def _check_level(self, level: int) -> int:
        if not 0 <= level < self.height:
            raise QueryError(f"level {level} outside [0, {self.height})")
        return level

    def check_node(self, node: int) -> int:
        """Validate a breadth-first node index."""
        if not 0 <= node < self.num_nodes:
            raise QueryError(f"node {node} outside [0, {self.num_nodes})")
        return node

    def level_of(self, node: int) -> int:
        """Level (root = 0) of a node, via the precomputed offset table."""
        self.check_node(node)
        return int(np.searchsorted(self._level_offsets, node, side="right") - 1)

    def is_leaf(self, node: int) -> bool:
        """True when the node is a unit-length leaf."""
        return self.check_node(node) >= self.leaf_offset

    def is_root(self, node: int) -> bool:
        """True for the root node."""
        return self.check_node(node) == 0

    def parent(self, node: int) -> int:
        """Breadth-first index of the parent (root has no parent)."""
        self.check_node(node)
        if node == 0:
            raise QueryError("the root has no parent")
        level = self.level_of(node)
        position = node - self.level_offset(level)
        return self.level_offset(level - 1) + position // self.branching

    def children(self, node: int) -> list[int]:
        """Breadth-first indexes of the node's children (empty for leaves)."""
        self.check_node(node)
        if self.is_leaf(node):
            return []
        level = self.level_of(node)
        position = node - self.level_offset(level)
        first = self.level_offset(level + 1) + position * self.branching
        return list(range(first, first + self.branching))

    def node_interval(self, node: int) -> tuple[int, int]:
        """Inclusive leaf-index interval ``[lo, hi]`` covered by the node."""
        self.check_node(node)
        level = self.level_of(node)
        position = node - self.level_offset(level)
        span = self.num_leaves // (self.branching**level)
        lo = position * span
        return lo, lo + span - 1

    def leaf_node(self, leaf_index: int) -> int:
        """Breadth-first node index of the leaf covering unit bucket ``leaf_index``."""
        if not 0 <= leaf_index < self.num_leaves:
            raise QueryError(
                f"leaf index {leaf_index} outside [0, {self.num_leaves})"
            )
        return self.leaf_offset + leaf_index

    def path_to_root(self, node: int) -> list[int]:
        """Nodes from ``node`` up to (and including) the root."""
        self.check_node(node)
        path = [node]
        while path[-1] != 0:
            path.append(self.parent(path[-1]))
        return path

    # -- aggregation and decomposition -------------------------------------------

    def child_sums(
        self, level_values: np.ndarray, out: np.ndarray | None = None
    ) -> np.ndarray:
        """Sum each run of ``branching`` siblings along the last axis.

        ``level_values`` is ``(..., w)`` with ``w`` a multiple of ``k``;
        entry ``i`` of the ``(..., w/k)`` result is the sum of entries
        ``i·k .. i·k + k - 1``, i.e. the children of node ``i`` one level
        up.  ``out``, when given, receives the sums.

        The bits are those of ``reshape(..., -1, k).sum(axis=-1)``.  NumPy
        reduces a trailing axis shorter than 8 strictly left to right, so
        for ``k < 8`` the same sums come from ``k - 1`` strided adds over
        the level, with no reshape and no per-row reduction loop.  From
        ``k = 8`` NumPy's reduction switches to pairwise blocks, whose
        rounding the strided adds would not reproduce, so the reduction
        itself is kept there.  (An all ``-0.0`` sibling run sums to
        ``-0.0`` here and to ``+0.0`` in the reduction; the two compare
        equal.)
        """
        k = self.branching
        if k >= 8:
            runs = level_values.reshape(*level_values.shape[:-1], -1, k)
            return runs.sum(axis=-1, out=out)
        sums = np.add(level_values[..., 0::k], level_values[..., 1::k], out=out)
        for child in range(2, k):
            sums += level_values[..., child::k]
        return sums

    def aggregate(self, leaf_counts: np.ndarray) -> np.ndarray:
        """Sum leaf values up the tree, returning all node values in BFS order.

        ``result[v]`` is the sum of ``leaf_counts`` over ``node_interval(v)``.
        Each level is written in place as the :meth:`child_sums` of the one
        below, so the cost is ``O(num_nodes)`` with no per-level copies.
        """
        leaf_counts = np.asarray(leaf_counts, dtype=np.float64)
        if leaf_counts.shape != (self.num_leaves,):
            raise QueryError(
                f"leaf_counts has shape {leaf_counts.shape}, "
                f"expected ({self.num_leaves},)"
            )
        return self._aggregate_into(np.empty(self.num_nodes), leaf_counts)

    def aggregate_many(self, leaf_counts: np.ndarray) -> np.ndarray:
        """Trial-batched :meth:`aggregate`: ``(trials, num_leaves)`` in,
        ``(trials, num_nodes)`` out.

        Row ``t`` of the result equals ``aggregate(leaf_counts[t])``; the
        per-level child sums run once over all trials.
        """
        leaf_counts = np.asarray(leaf_counts, dtype=np.float64)
        if leaf_counts.ndim != 2 or leaf_counts.shape[1] != self.num_leaves:
            raise QueryError(
                f"leaf_counts has shape {leaf_counts.shape}, "
                f"expected (trials, {self.num_leaves})"
            )
        values = np.empty((leaf_counts.shape[0], self.num_nodes))
        return self._aggregate_into(values, leaf_counts)

    def _aggregate_into(self, values: np.ndarray, leaf_counts) -> np.ndarray:
        """Fill ``values`` (``(..., num_nodes)``) from the leaf level up."""
        slices = self.level_slices
        values[..., slices[-1]] = leaf_counts
        for level in range(self.height - 2, -1, -1):
            self.child_sums(
                values[..., slices[level + 1]], out=values[..., slices[level]]
            )
        return values

    def decompose_range(self, lo: int, hi: int) -> list[int]:
        """Minimal set of nodes whose disjoint intervals exactly cover ``[lo, hi]``.

        This is the "sum the fewest sub-intervals" strategy of Section 4.2:
        at most ``2(k-1)`` nodes per level are needed, so the answer to any
        range query is a sum of ``O(k·ℓ)`` noisy node counts.
        """
        if not 0 <= lo <= hi < self.num_leaves:
            raise QueryError(
                f"invalid leaf range [{lo}, {hi}] for {self.num_leaves} leaves"
            )
        nodes: list[int] = []
        self._decompose(0, lo, hi, nodes)
        return nodes

    def _decompose(self, node: int, lo: int, hi: int, out: list[int]) -> None:
        node_lo, node_hi = self.node_interval(node)
        if lo <= node_lo and node_hi <= hi:
            out.append(node)
            return
        if node_hi < lo or hi < node_lo:
            return
        for child in self.children(node):
            self._decompose(child, lo, hi, out)

    def node_label(self, node: int) -> str:
        """Readable label for a node, e.g. ``"[0,7]"`` or ``"[3]"`` for a leaf."""
        lo, hi = self.node_interval(node)
        return f"[{lo}]" if lo == hi else f"[{lo},{hi}]"


class HierarchicalQuery(QuerySequence):
    """The hierarchical query sequence ``H`` with branching factor ``k``.

    The domain size must be a power of ``k``; callers with other sizes pad
    the count vector with empty buckets first
    (:func:`repro.db.histogram.pad_counts`).
    """

    def __init__(self, domain_size: int, branching: int = 2) -> None:
        super().__init__(domain_size)
        self.layout = TreeLayout(num_leaves=domain_size, branching=branching)

    @property
    def branching(self) -> int:
        """Branching factor ``k`` of the interval tree."""
        return self.layout.branching

    @property
    def height(self) -> int:
        """Tree height ℓ (nodes on a root-to-leaf path)."""
        return self.layout.height

    @property
    def output_size(self) -> int:
        return self.layout.num_nodes

    @property
    def sensitivity(self) -> float:
        """Sensitivity of ``H`` is ℓ (Proposition 4)."""
        return float(self.layout.height)

    def answer(self, counts: np.ndarray) -> np.ndarray:
        """All node counts of the tree in breadth-first order."""
        return self.layout.aggregate(self._check_counts(counts))

    def entry_names(self) -> list[str]:
        return [
            f"c({self.layout.node_label(node)})"
            for node in range(self.layout.num_nodes)
        ]

    def range_from_answer(self, answer: np.ndarray, lo: int, hi: int) -> float:
        """Answer ``c([lo, hi])`` by summing the minimal subtree decomposition.

        Works on true or noisy answer vectors alike; this is the H̃ range
        estimator of Section 4.2.
        """
        answer = np.asarray(answer, dtype=np.float64)
        if answer.size != self.layout.num_nodes:
            raise QueryError(
                f"answer vector has length {answer.size}, "
                f"expected {self.layout.num_nodes}"
            )
        nodes = self.layout.decompose_range(lo, hi)
        return float(decomposition_sums(answer[nodes]))

    def range_from_answers(self, answers: np.ndarray, lo: int, hi: int) -> np.ndarray:
        """Trial-batched :meth:`range_from_answer` over a ``(trials, m)`` matrix.

        Entry ``t`` equals ``range_from_answer(answers[t], lo, hi)`` bit
        for bit — the same minimal-decomposition gather-and-sum, run once
        across trials.
        """
        answers = np.asarray(answers, dtype=np.float64)
        if answers.ndim != 2 or answers.shape[1] != self.layout.num_nodes:
            raise QueryError(
                f"answer matrix has shape {answers.shape}, "
                f"expected (trials, {self.layout.num_nodes})"
            )
        nodes = self.layout.decompose_range(lo, hi)
        return decomposition_sums(answers[:, nodes])

    def constraint_violations(self, answer: np.ndarray, tolerance: float = 1e-9) -> int:
        """Number of internal nodes whose count differs from the sum of children.

        Zero means the vector satisfies the tree constraints γ_H.
        """
        answer = np.asarray(answer, dtype=np.float64)
        if answer.size != self.layout.num_nodes:
            raise QueryError(
                f"answer vector has length {answer.size}, "
                f"expected {self.layout.num_nodes}"
            )
        violations = 0
        for node in range(self.layout.num_internal):
            children = self.layout.children(node)
            if abs(answer[node] - answer[children].sum()) > tolerance:
                violations += 1
        return violations
