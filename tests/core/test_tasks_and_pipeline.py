"""Tests for the high-level tasks and the Figure 1 analyst/owner pipeline."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.pipeline import Analyst, DataOwner, PrivateSession
from repro.core.tasks import UnattributedHistogramTask, UniversalHistogramTask
from repro.exceptions import PrivacyBudgetError, QueryError
from repro.privacy.budget import PrivacyBudget
from repro.privacy.definitions import PrivacyParameters


class TestUnattributedHistogramTask:
    def test_from_counts(self, paper_counts):
        task = UnattributedHistogramTask(paper_counts)
        assert task.true_sequence.tolist() == [0.0, 2.0, 2.0, 10.0]

    def test_from_relation(self, paper_relation):
        task = UnattributedHistogramTask(paper_relation, attribute="src")
        assert task.true_sequence.tolist() == [0, 0, 0, 0, 0, 2, 2, 10]

    def test_relation_requires_attribute(self, paper_relation):
        with pytest.raises(ValueError):
            UnattributedHistogramTask(paper_relation)

    def test_release_is_sorted_and_integral(self, paper_counts):
        release = UnattributedHistogramTask(paper_counts).release(1.0, rng=0)
        assert np.all(np.diff(release) >= 0)
        assert np.all(release == np.rint(release))

    def test_release_baseline_differs_from_inferred(self, paper_counts):
        task = UnattributedHistogramTask(paper_counts)
        assert not np.array_equal(task.release(0.5, rng=1), task.release_baseline(0.5, rng=1))

    def test_compare_produces_all_cells(self, paper_counts):
        comparison = UnattributedHistogramTask(np.repeat(paper_counts, 20)).compare(
            epsilons=[1.0], trials=5, rng=0
        )
        assert len(comparison.errors) == 3


class TestUniversalHistogramTask:
    def test_release_supports_range_queries(self, sparse_counts):
        task = UniversalHistogramTask(sparse_counts)
        fitted = task.release(1.0, rng=0)
        assert fitted.domain_size == 64
        assert fitted.range_query(0, 63) >= 0

    def test_release_from_relation(self, paper_relation):
        task = UniversalHistogramTask(paper_relation, attribute="src")
        fitted = task.release(2.0, rng=1)
        assert fitted.domain_size == 8

    def test_baselines(self, sparse_counts):
        task = UniversalHistogramTask(sparse_counts)
        identity = task.release_baseline(1.0, strategy="identity", rng=0)
        hierarchical = task.release_baseline(1.0, strategy="hierarchical", rng=0)
        assert identity.name == "L~"
        assert hierarchical.name == "H~"
        with pytest.raises(ValueError):
            task.release_baseline(1.0, strategy="bogus")

    def test_default_range_sizes(self, sparse_counts):
        task = UniversalHistogramTask(sparse_counts)
        sizes = task.default_range_sizes()
        assert sizes[0] == 2
        assert max(sizes) <= 64

    def test_compare_structure(self, sparse_counts):
        comparison = UniversalHistogramTask(sparse_counts).compare(
            epsilons=[1.0], range_sizes=[2, 8], trials=3, queries_per_size=5, rng=0
        )
        assert len(comparison.errors) == 6


class TestDataOwner:
    def test_domain_size_from_counts(self, paper_counts):
        owner = DataOwner(paper_counts, PrivacyBudget(PrivacyParameters(1.0)))
        assert owner.domain_size == 4

    def test_domain_size_from_relation(self, paper_relation):
        owner = DataOwner(
            paper_relation, PrivacyBudget(PrivacyParameters(1.0)), attribute="src"
        )
        assert owner.domain_size == 8

    def test_relation_requires_attribute(self, paper_relation):
        with pytest.raises(QueryError):
            DataOwner(paper_relation, PrivacyBudget(PrivacyParameters(1.0)))

    def test_answer_charges_budget(self, paper_counts):
        budget = PrivacyBudget(PrivacyParameters(1.0))
        owner = DataOwner(paper_counts, budget)
        analyst = Analyst()
        owner.answer(analyst.sorted_query(4), 0.4, rng=0)
        assert budget.spent_epsilon == pytest.approx(0.4)
        owner.answer(analyst.sorted_query(4), 0.6, rng=0)
        with pytest.raises(PrivacyBudgetError):
            owner.answer(analyst.sorted_query(4), 0.1, rng=0)

    def test_answer_rejects_mismatched_query(self, paper_counts):
        owner = DataOwner(paper_counts, PrivacyBudget(PrivacyParameters(1.0)))
        with pytest.raises(QueryError):
            owner.answer(Analyst().sorted_query(8), 0.5)


class TestPrivateSession:
    def test_unattributed_flow(self, paper_counts):
        session = PrivateSession.over_counts(paper_counts, total_epsilon=1.0)
        estimate = session.unattributed_histogram(0.5, rng=0)
        assert estimate.size == 4
        assert np.all(np.diff(estimate) >= -1e-9)
        assert session.owner.budget.spent_epsilon == pytest.approx(0.5)

    def test_universal_flow_power_of_two(self, sparse_counts):
        session = PrivateSession.over_counts(sparse_counts, total_epsilon=1.0)
        estimate = session.universal_histogram(0.5, rng=0)
        assert estimate.size == 64
        # The subtree-zeroing heuristic makes most of this sparse histogram's
        # empty buckets exactly zero.
        assert np.mean(estimate >= 0) > 0.8

    def test_universal_flow_with_padding(self):
        counts = np.arange(10, dtype=float)
        session = PrivateSession.over_counts(counts, total_epsilon=1.0)
        estimate = session.universal_histogram(0.5, rng=0)
        assert estimate.size == 10

    @pytest.mark.parametrize("size", [1000, 1024])
    def test_universal_flow_owns_its_leaves(self, size):
        # A view would pin the whole (num_nodes,) inference buffer.
        counts = np.arange(size, dtype=float)
        session = PrivateSession.over_counts(counts, total_epsilon=1.0)
        estimate = session.universal_histogram(0.5, rng=0)
        assert estimate.base is None
        assert estimate.flags.owndata and estimate.nbytes == size * 8

    def test_over_relation(self, paper_relation):
        session = PrivateSession.over_relation(paper_relation, "src", total_epsilon=2.0)
        estimate = session.unattributed_histogram(1.0, rng=0)
        assert estimate.size == 8

    def test_budget_shared_across_flows(self, sparse_counts):
        session = PrivateSession.over_counts(sparse_counts, total_epsilon=1.0)
        session.unattributed_histogram(0.6, rng=0)
        with pytest.raises(PrivacyBudgetError):
            session.universal_histogram(0.6, rng=0)

    def test_budget_exhaustion_message_lists_spends(self, paper_counts):
        session = PrivateSession.over_counts(paper_counts, total_epsilon=1.0)
        session.unattributed_histogram(1.0, rng=0)
        assert "unattributed" in session.owner.budget.summary()
