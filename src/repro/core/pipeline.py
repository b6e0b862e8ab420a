"""The three-step protocol of Figure 1 with explicit roles.

Step 1 — the **analyst** chooses a query sequence whose answers satisfy
useful constraints (``S`` for unattributed histograms, ``H`` for universal
histograms) and sends it to the data owner.

Step 2 — the **data owner** evaluates the query on the private database,
adds Laplace noise calibrated to the query's sensitivity and the agreed ε
(charging the privacy budget), and returns the noisy answers.

Step 3 — the **analyst** post-processes the noisy answers with constrained
inference.  This step sees only the noisy answers and the constraints, so
it cannot affect the privacy guarantee (Proposition 2).

The estimator classes collapse the three steps into a single call; this
module keeps them separate so that examples, documentation, and tests can
exercise (and assert) the trust boundary explicitly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.db.domain import padded_size
from repro.db.histogram import HistogramBuilder, pad_counts
from repro.db.relation import Relation
from repro.exceptions import QueryError
from repro.inference.hierarchical import hierarchical_inference
from repro.inference.isotonic import isotonic_regression
from repro.privacy.budget import PrivacyBudget
from repro.privacy.definitions import PrivacyParameters
from repro.queries.base import NoisyAnswer, QuerySequence
from repro.queries.hierarchical import HierarchicalQuery
from repro.queries.sorted import SortedCountQuery
from repro.utils.arrays import as_float_vector

__all__ = ["DataOwner", "Analyst", "PrivateSession"]


class DataOwner:
    """Holds the private data and answers query sequences under ε-DP.

    The data can be a :class:`~repro.db.relation.Relation` plus a range
    attribute, or a raw count vector (useful for experiments where the
    relational layer is unnecessary).
    """

    def __init__(
        self,
        data: Relation | np.ndarray | list,
        budget: PrivacyBudget,
        attribute: str | None = None,
    ) -> None:
        if isinstance(data, Relation):
            if attribute is None:
                raise QueryError(
                    "a range attribute is required when the data is a Relation"
                )
            self._counts = HistogramBuilder(data, attribute).counts()
        else:
            self._counts = as_float_vector(data, name="counts")
        self.budget = budget

    @property
    def domain_size(self) -> int:
        """Size of the histogram domain the owner can answer queries over."""
        return int(self._counts.size)

    def answer(
        self,
        query: QuerySequence,
        epsilon: float,
        rng: np.random.Generator | int | None = None,
        label: str | None = None,
    ) -> NoisyAnswer:
        """Answer a query sequence, charging ``epsilon`` to the budget.

        The true counts never leave this method; only the noisy answer
        vector is returned.
        """
        if query.domain_size != self._counts.size:
            raise QueryError(
                f"query expects domain size {query.domain_size}, "
                f"data has {self._counts.size}"
            )
        # Charge-after-success: draw the noisy answer first, debit ε only
        # once the fallible randomize step has produced it, so a failed
        # build can never leak budget.  The un-released draw is harmless —
        # it never leaves this method.
        params = PrivacyParameters(epsilon, self.budget.total.delta)
        answer = query.randomize(self._counts, params, rng=rng)
        self.budget.spend(epsilon, label=label or type(query).__name__)
        return answer


class Analyst:
    """Formulates query sequences and post-processes noisy answers.

    The analyst never touches the private data: its methods consume only
    query descriptions and noisy answers.
    """

    def sorted_query(self, domain_size: int) -> SortedCountQuery:
        """Step 1 for an unattributed histogram: the sorted query ``S``."""
        return SortedCountQuery(domain_size)

    def hierarchical_query(
        self, domain_size: int, branching: int = 2
    ) -> HierarchicalQuery:
        """Step 1 for a universal histogram: the hierarchical query ``H``.

        ``domain_size`` must already be a power of ``branching``; use
        :func:`repro.db.histogram.pad_counts` on the owner side otherwise.
        """
        return HierarchicalQuery(domain_size, branching=branching)

    def infer_sorted(self, noisy: NoisyAnswer) -> np.ndarray:
        """Step 3 for ``S``: isotonic regression on the noisy answers."""
        return isotonic_regression(noisy.values)

    def infer_hierarchical(
        self,
        noisy: NoisyAnswer,
        query: HierarchicalQuery,
        nonnegative: bool = True,
    ) -> np.ndarray:
        """Step 3 for ``H``: tree least squares; returns consistent unit counts."""
        consistent = hierarchical_inference(
            noisy.values, query.layout, nonnegative=nonnegative
        )
        return consistent[query.layout.leaf_offset :]


@dataclass
class PrivateSession:
    """Convenience wrapper pairing one analyst with one data owner.

    Provides the two end-to-end flows of the paper as single calls while
    still routing every interaction through the explicit roles (and hence
    the budget accounting).
    """

    owner: DataOwner
    analyst: Analyst

    @classmethod
    def over_counts(
        cls, counts, total_epsilon: float, delta: float = 0.0
    ) -> "PrivateSession":
        """Create a session over a raw count vector with a fresh budget."""
        budget = PrivacyBudget(PrivacyParameters(total_epsilon, delta))
        return cls(owner=DataOwner(counts, budget), analyst=Analyst())

    @classmethod
    def over_relation(
        cls, relation: Relation, attribute: str, total_epsilon: float, delta: float = 0.0
    ) -> "PrivateSession":
        """Create a session over a relation's range attribute."""
        budget = PrivacyBudget(PrivacyParameters(total_epsilon, delta))
        return cls(
            owner=DataOwner(relation, budget, attribute=attribute), analyst=Analyst()
        )

    def unattributed_histogram(
        self, epsilon: float, rng: np.random.Generator | int | None = None
    ) -> np.ndarray:
        """Run the full S̄ flow: sorted query, noisy answer, isotonic inference."""
        query = self.analyst.sorted_query(self.owner.domain_size)
        noisy = self.owner.answer(query, epsilon, rng=rng, label="unattributed (S)")
        return self.analyst.infer_sorted(noisy)

    def universal_histogram(
        self,
        epsilon: float,
        branching: int = 2,
        nonnegative: bool = True,
        rng: np.random.Generator | int | None = None,
    ) -> np.ndarray:
        """Run the full H̄ flow, returning consistent unit counts.

        The domain is padded to a power of ``branching`` if necessary; the
        returned estimates cover the original domain.
        """
        original_size = self.owner.domain_size
        padded = padded_size(original_size, branching)
        if padded != original_size:
            # Rebuild an owner over the padded counts so the tree query lines
            # up; the padding buckets are structurally empty so the privacy
            # semantics are unchanged.
            padded_owner = DataOwner(
                pad_counts(self._owner_counts(), branching), self.owner.budget
            )
            query = self.analyst.hierarchical_query(padded, branching)
            noisy = padded_owner.answer(query, epsilon, rng=rng, label="universal (H)")
        else:
            query = self.analyst.hierarchical_query(original_size, branching)
            noisy = self.owner.answer(query, epsilon, rng=rng, label="universal (H)")
        leaves = self.analyst.infer_hierarchical(noisy, query, nonnegative=nonnegative)
        return leaves[:original_size]

    def _owner_counts(self) -> np.ndarray:
        # Internal bridge used only for padding; keeps the raw counts out of
        # the Analyst code paths.
        return self.owner._counts  # noqa: SLF001 - deliberate same-module access
