"""Constraint sets γ_Q and their satisfaction checks.

Constraints are properties of the *query*, not the data (Section 1), so
they are known to the analyst a priori.  The two constraint families in
the paper are represented explicitly so that code (and tests) can ask
three questions about any vector: does it satisfy the constraints, how
badly does it violate them, and project-onto-them via the corresponding
inference routine.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.exceptions import ConstraintViolationError
from repro.queries.hierarchical import TreeLayout
from repro.utils.arrays import as_float_vector

__all__ = ["OrderingConstraints", "TreeConsistencyConstraints"]


@dataclass(frozen=True)
class OrderingConstraints:
    """γ_S: the answer vector must be non-decreasing (``s[i] <= s[i+1]``)."""

    length: int
    tolerance: float = 1e-9

    def check_shape(self, values) -> np.ndarray:
        values = as_float_vector(values, name="values")
        if values.size != self.length:
            raise ConstraintViolationError(
                f"vector has length {values.size}, constraints expect {self.length}"
            )
        return values

    def satisfied_by(self, values) -> bool:
        """True when the vector is sorted in non-decreasing order."""
        values = self.check_shape(values)
        if values.size <= 1:
            return True
        return bool(np.all(values[1:] - values[:-1] >= -self.tolerance))

    def violation_count(self, values) -> int:
        """Number of adjacent pairs that are out of order."""
        values = self.check_shape(values)
        if values.size <= 1:
            return 0
        return int(np.sum(values[:-1] - values[1:] > self.tolerance))

    def max_violation(self, values) -> float:
        """Largest amount by which an adjacent pair is out of order."""
        values = self.check_shape(values)
        if values.size <= 1:
            return 0.0
        return float(max(0.0, np.max(values[:-1] - values[1:])))

    def require(self, values) -> np.ndarray:
        """Validate, raising :class:`ConstraintViolationError` when violated."""
        values = self.check_shape(values)
        if not self.satisfied_by(values):
            raise ConstraintViolationError(
                f"ordering constraints violated at {self.violation_count(values)} "
                f"positions (max gap {self.max_violation(values):.3g})"
            )
        return values


@dataclass(frozen=True)
class TreeConsistencyConstraints:
    """γ_H: every internal node's count equals the sum of its children."""

    layout: TreeLayout
    tolerance: float = 1e-6

    def check_shape(self, values) -> np.ndarray:
        values = as_float_vector(values, name="values")
        if values.size != self.layout.num_nodes:
            raise ConstraintViolationError(
                f"vector has length {values.size}, "
                f"tree has {self.layout.num_nodes} nodes"
            )
        return values

    def residuals(self, values) -> np.ndarray:
        """Per-internal-node residual ``value - sum(children)``.

        Vectorised level by level; residuals are listed in breadth-first
        order of the internal nodes.
        """
        values = self.check_shape(values)
        residuals = np.empty(self.layout.num_internal, dtype=np.float64)
        slices = self.layout.level_slices
        for parents, children in zip(slices, slices[1:]):
            child_sums = self.layout.child_sums(values[children])
            np.subtract(values[parents], child_sums, out=residuals[parents])
        return residuals

    def satisfied_by(self, values) -> bool:
        """True when every parent equals the sum of its children (within tolerance)."""
        if self.layout.num_internal == 0:
            self.check_shape(values)
            return True
        return bool(np.all(np.abs(self.residuals(values)) <= self.tolerance))

    def violation_count(self, values) -> int:
        """Number of internal nodes violating the sum constraint."""
        if self.layout.num_internal == 0:
            self.check_shape(values)
            return 0
        return int(np.sum(np.abs(self.residuals(values)) > self.tolerance))

    def max_violation(self, values) -> float:
        """Largest absolute parent-vs-children discrepancy."""
        if self.layout.num_internal == 0:
            self.check_shape(values)
            return 0.0
        return float(np.max(np.abs(self.residuals(values))))

    def require(self, values) -> np.ndarray:
        """Validate, raising :class:`ConstraintViolationError` when violated."""
        values = self.check_shape(values)
        if not self.satisfied_by(values):
            raise ConstraintViolationError(
                f"tree-consistency constraints violated at "
                f"{self.violation_count(values)} nodes "
                f"(max residual {self.max_violation(values):.3g})"
            )
        return values
