"""The serving façade: materialize once, answer millions of times.

:class:`HistogramEngine` turns the library's one-shot release flow into a
long-lived query-answering service.  It wires together

* the Figure 1 roles — each cold H̄ build runs through an explicit
  :class:`~repro.core.pipeline.PrivateSession` (analyst poses H, owner
  answers under ε, analyst infers the consistent leaves);
* a thread-safe :class:`PrivacyBudget` enforcing sequential composition
  across every release the engine ever materializes — charged **only
  after** a release has actually been computed, so a failing mechanism or
  inference run can never leak ε;
* the :class:`~repro.serving.cache.ReleaseCache`, so a repeated
  ``(estimator, ε, branching, seed)`` request is answered from the
  existing artifact with **zero** additional inference and **zero**
  additional ε — the operational payoff of Proposition 2;
* optionally a :class:`~repro.serving.store.ReleaseStore`, so releases
  survive process restarts and a cold engine warm-starts from disk, again
  with zero recomputation and zero additional ε;
* the :class:`~repro.serving.planner.BatchQueryPlanner`, so a batch of
  thousands of range queries costs one vectorized prefix-sum pass.

The engine lives in the data owner's trust domain (it holds the true
counts); everything it returns — releases and batch answers — is
post-processing of differentially private output and safe to export.
"""

from __future__ import annotations

import threading
from time import perf_counter

import numpy as np

from repro import obs
from repro.accuracy.models import UncertaintyModel, uncertainty_model_for
from repro.accuracy.slo import DEFAULT_CONFIDENCE, AccuracySLO, AccuracyStats
from repro.core.pipeline import PrivateSession
from repro.db.histogram import HistogramBuilder
from repro.db.relation import Relation
from repro.estimators.base import RangeQueryEstimator
from repro.estimators.hierarchical import (
    ConstrainedHierarchicalEstimator,
    HierarchicalLaplaceEstimator,
)
from repro.estimators.identity import IdentityLaplaceEstimator
from repro.estimators.wavelet import WaveletEstimator
from repro.exceptions import BudgetExhaustedError, PrivacyBudgetError, ReproError
from repro.privacy.budget import PrivacyBudget
from repro.privacy.definitions import PrivacyParameters
from repro.queries.workload import RangeWorkload
from repro.serving.cache import ReleaseCache
from repro.serving.planner import BatchQueryPlanner, BatchResult, QueryBatch
from repro.serving.release import MaterializedRelease, ReleaseKey, fingerprint_counts
from repro.serving.stats import ServingStats
from repro.serving.store import ReleaseStore
from repro.utils.arrays import as_float_vector

__all__ = [
    "ESTIMATOR_NAMES",
    "canonical_estimator_name",
    "resolve_estimator",
    "compute_release_leaves",
    "record_submit_metrics",
    "record_accuracy_metrics",
    "score_batch_accuracy",
    "HistogramEngine",
]


#: (registry, handles) pair backing :func:`record_submit_metrics`; the
#: serve families are resolved once per registry instead of five
#: get-or-create lookups per answered batch.  Racy rebuilds are benign
#: (both threads compute the same handles for the same registry).
_submit_metric_handles: tuple = (None, None)


def _submit_handles(registry):
    global _submit_metric_handles
    cached_registry, handles = _submit_metric_handles
    if cached_registry is not registry:
        handles = (
            registry.counter("repro_serve_batches_total", "Query batches answered"),
            registry.counter("repro_serve_queries_total", "Range queries answered"),
            registry.histogram(
                "repro_serve_answer_seconds", "Batch answer latency (seconds)"
            ),
            registry.histogram(
                "repro_serve_build_seconds",
                "Release resolution latency per batch (seconds)",
            ),
            registry.counter(
                "repro_serve_cold_builds_total",
                "Batches whose release was built cold (charged ε)",
            ),
        )
        _submit_metric_handles = (registry, handles)
    return handles


def record_submit_metrics(
    engine_kind: str,
    num_queries: int,
    answer_seconds: float,
    build_seconds: float = 0.0,
    built: bool = False,
) -> None:
    """Report one answered batch into the default metrics registry.

    Shared by every submit path (monolithic, sharded, streaming) so the
    serve metric families carry one consistent ``engine`` label.  Callers
    gate on :func:`repro.obs.enabled` — this function assumes reporting
    is on.
    """
    # Caller-gated contract (docstring above): every submit path checks
    # obs.enabled() before calling in, keeping the hot path boolean-only.
    batches, queries, answer, build, cold = _submit_handles(obs.registry())  # statan: ignore[OBS001]
    batches.inc(engine=engine_kind)
    queries.inc(num_queries, engine=engine_kind)
    answer.observe(answer_seconds, engine=engine_kind)
    build.observe(build_seconds, engine=engine_kind)
    if built:
        cold.inc(engine=engine_kind)


#: (registry, handles) cache for :func:`record_accuracy_metrics`,
#: mirroring :func:`_submit_handles`; racy rebuilds are benign.
_accuracy_metric_handles: tuple = (None, None)


def _accuracy_handles(registry):
    global _accuracy_metric_handles
    cached_registry, handles = _accuracy_metric_handles
    if cached_registry is not registry:
        handles = (
            registry.counter(
                "repro_accuracy_answers_total",
                "Answers scored against an uncertainty model",
            ),
            registry.counter(
                "repro_accuracy_slo_misses_total",
                "Scored answers whose CI halfwidth exceeded the SLO target",
            ),
        )
        _accuracy_metric_handles = (registry, handles)
    return handles


def record_accuracy_metrics(
    engine_kind: str, num_answers: int, num_misses: int
) -> None:
    """Report one accuracy-scored batch into the default registry.

    Shared by every submit path so the ``repro_accuracy_*`` families
    carry the same ``engine`` label as the serve families.  Callers gate
    on :func:`repro.obs.enabled` — this function assumes reporting is on.
    """
    # Caller-gated contract (docstring above), same as record_submit_metrics.
    answers, misses = _accuracy_handles(obs.registry())  # statan: ignore[OBS001]
    answers.inc(num_answers, engine=engine_kind)
    if num_misses:
        misses.inc(num_misses, engine=engine_kind)


def score_batch_accuracy(
    model: UncertaintyModel,
    batch: QueryBatch,
    answers: np.ndarray,
    slo: AccuracySLO | None,
    accuracy_stats: AccuracyStats | None,
    engine_kind: str,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, float]:
    """Exact variances and CI bounds for one answered batch.

    Evaluates ``model`` over the batch's ranges, checks the halfwidths
    against ``slo`` (when declared), folds the outcome into
    ``accuracy_stats``, and reports the ``repro_accuracy_*`` counters.
    Returns ``(variances, ci_los, ci_his, confidence)`` for the engine to
    attach to its result.  Shared by every submit path so scoring
    semantics cannot drift between engines.
    """
    confidence = slo.confidence if slo is not None else DEFAULT_CONFIDENCE
    variances = model.range_variances(batch.los, batch.his)
    halfwidths = model.interval_halfwidths(
        batch.los, batch.his, confidence, variances=variances
    )
    within = None
    if slo is not None:
        within = halfwidths <= slo.target_ci_halfwidth
    if accuracy_stats is not None:
        accuracy_stats.record_batch(
            halfwidths,
            variances,
            within,
            weight=slo.workload_weight if slo is not None else 1.0,
        )
    if obs.enabled():
        misses = 0 if within is None else int(within.size - np.count_nonzero(within))
        record_accuracy_metrics(engine_kind, int(halfwidths.size), misses)
    return variances, answers - halfwidths, answers + halfwidths, confidence


#: CLI-friendly aliases accepted anywhere an estimator name is expected,
#: mapped to the canonical paper names used in cache keys and releases.
ESTIMATOR_NAMES = {
    "identity": "L~",
    "hierarchical": "H~",
    "constrained": "H_bar",
    "wavelet": "wavelet",
    "L~": "L~",
    "H~": "H~",
    "H_bar": "H_bar",
}


def canonical_estimator_name(name: str) -> str:
    """The canonical paper name for ``name`` (alias or already canonical)."""
    canonical = ESTIMATOR_NAMES.get(name)
    if canonical is None:
        raise ReproError(
            f"unknown estimator {name!r}; expected one of {sorted(ESTIMATOR_NAMES)}"
        )
    return canonical


def resolve_estimator(name: str, branching: int = 2) -> RangeQueryEstimator:
    """An estimator instance for ``name`` (alias or canonical paper name)."""
    canonical = canonical_estimator_name(name)
    if canonical == "L~":
        return IdentityLaplaceEstimator()
    if canonical == "H~":
        return HierarchicalLaplaceEstimator(branching=branching)
    if canonical == "H_bar":
        return ConstrainedHierarchicalEstimator(branching=branching)
    return WaveletEstimator()


def compute_release_leaves(counts, key: ReleaseKey, delta: float = 0.0) -> np.ndarray:
    """Run the private mechanism for ``key`` over ``counts``; no accounting.

    This is the one place a release's values are computed, shared by the
    monolithic engine and the per-shard builds in :mod:`repro.sharding`
    so that the same :class:`ReleaseKey` always resolves to the same
    values no matter which engine built it — a cache/store identity must
    never depend on the builder.  The caller owns the ε charge.

    The H̄ flow still exercises the explicit Figure 1 roles, but against
    a scratch :class:`PrivateSession` whose budget is exactly this
    build's ε.
    """
    if key.estimator == "H_bar":
        scratch = PrivateSession.over_counts(counts, key.epsilon, delta=delta)
        leaves = scratch.universal_histogram(
            key.epsilon, branching=key.branching, rng=key.seed
        )
        # np.rint matches the ConstrainedHierarchicalEstimator
        # round_output default; the leaves are a fresh copy, so round
        # them in place.
        return np.rint(leaves, out=leaves)
    instance = resolve_estimator(key.estimator, branching=key.branching)
    return instance.fit(counts, key.epsilon, rng=key.seed).unit_estimates


class HistogramEngine:
    """Long-lived private-histogram server over one dataset.

    Parameters
    ----------
    data:
        A :class:`Relation` (with ``attribute`` naming the range column)
        or a raw unit-count vector.
    total_epsilon:
        The overall privacy budget for every release this engine will
        ever materialize; enforced by sequential composition.  Omit it
        (and pass ``budget``) to share another accountant's budget.
    attribute:
        Range attribute when ``data`` is a relation.
    delta:
        Optional δ for the budget's parameters (the paper's mechanisms
        are pure ε-DP).
    branching:
        Default branching factor for tree-based estimators.
    cache:
        A shared :class:`ReleaseCache` (e.g. across engines serving
        replicas of the same data, or across a fleet); a private one is
        created otherwise.
    cache_capacity:
        Capacity of the private cache when ``cache`` is not supplied.
    store:
        Optional durable :class:`ReleaseStore` backing the private cache:
        the engine warm-starts from its artifacts (zero ε, zero
        inference) and persists new releases into it.  When sharing a
        ``cache``, attach the store to that cache instead.
    budget:
        An existing :class:`PrivacyBudget` to charge instead of creating a
        private one — the streaming tier uses this to account every
        epoch's build against one shared budget.  Mutually exclusive with
        ``total_epsilon``.
    spend_label:
        Label recorded on the budget for each charge (defaults to
        ``"materialize <estimator>"``); the streaming tier stamps its
        epoch index here so the audit trail names every epoch.
    slo:
        Optional :class:`~repro.accuracy.slo.AccuracySLO`.  When set,
        every submitted batch is scored against the release's exact
        uncertainty model: results carry ``(variance, ci_lo, ci_hi)``
        columns and the engine's ``accuracy`` statistics (surfaced via
        ``FleetStats`` and ``repro_accuracy_*`` metrics) track SLO
        satisfaction.  Without an SLO the scoring is off unless a submit
        passes ``with_accuracy=True``.
    """

    def __init__(
        self,
        data,
        total_epsilon: float | None = None,
        *,
        attribute: str | None = None,
        delta: float = 0.0,
        branching: int = 2,
        cache: ReleaseCache | None = None,
        cache_capacity: int = 32,
        store: ReleaseStore | None = None,
        budget: PrivacyBudget | None = None,
        spend_label: str | None = None,
        slo: AccuracySLO | None = None,
    ) -> None:
        if isinstance(data, Relation):
            if attribute is None:
                raise ReproError(
                    "a range attribute is required when the data is a Relation"
                )
            counts = HistogramBuilder(data, attribute).counts()
        else:
            counts = as_float_vector(data, name="counts")
        self._counts = counts
        self.fingerprint = fingerprint_counts(counts)
        self.default_branching = int(branching)
        if budget is not None:
            if total_epsilon is not None:
                raise ReproError(
                    "pass either total_epsilon or a shared budget, not both"
                )
            self._budget = budget
        elif total_epsilon is None:
            raise ReproError("either total_epsilon or a shared budget is required")
        else:
            self._budget = PrivacyBudget(PrivacyParameters(total_epsilon, delta))
        self._spend_label = spend_label
        if cache is not None and store is not None:
            raise ReproError(
                "pass either a shared cache or a store, not both; attach the "
                "store to the shared ReleaseCache instead"
            )
        self.cache = cache if cache is not None else ReleaseCache(cache_capacity, store=store)
        self.planner = BatchQueryPlanner()
        self.stats = ServingStats()
        #: number of times an actual private release was computed by *this*
        #: engine (charging its budget); cache and store hits leave it
        #: untouched, which is what the warm-start benchmarks assert.
        self.materializations = 0  # guarded-by: _materializations_lock
        self._materializations_lock = threading.Lock()
        self.slo = slo
        self.accuracy = AccuracyStats()
        # Uncertainty models per (estimator, ε, branching); racy rebuilds
        # are benign (same inputs produce an identical model).
        self._uncertainty_models: dict[tuple, UncertaintyModel] = {}

    # -- budget ----------------------------------------------------------------

    @property
    def budget(self) -> PrivacyBudget:
        """The engine's (thread-safe) privacy budget."""
        return self._budget

    @property
    def spent_epsilon(self) -> float:
        return self.budget.spent_epsilon

    @property
    def remaining_epsilon(self) -> float:
        return self.budget.remaining_epsilon

    @property
    def domain_size(self) -> int:
        """Number of unit buckets in the served histogram domain."""
        return int(self._counts.size)

    # -- materialization -------------------------------------------------------

    def release_key(
        self,
        estimator: str = "constrained",
        *,
        epsilon: float,
        branching: int | None = None,
        seed: int = 0,
    ) -> ReleaseKey:
        """The cache identity a materialization request resolves to.

        Every parameter is validated here — before any ε is spent — so an
        invalid request can never charge the budget.
        """
        branching = self.default_branching if branching is None else int(branching)
        if branching < 2:
            raise ReproError(f"branching factor must be >= 2, got {branching}")
        PrivacyParameters(float(epsilon))  # validates ε > 0
        return ReleaseKey(
            dataset_fingerprint=self.fingerprint,
            estimator=canonical_estimator_name(estimator),
            epsilon=float(epsilon),
            branching=branching,
            seed=int(seed),
        )

    def materialize(
        self,
        estimator: str = "constrained",
        *,
        epsilon: float,
        branching: int | None = None,
        seed: int = 0,
    ) -> MaterializedRelease:
        """The release for ``(estimator, ε, branching, seed)``, cached.

        On a cache miss this loads the release from the durable store if
        one is attached (no ε), else charges ``epsilon`` to the budget and
        runs the private mechanism plus inference; on a hit it returns the
        existing artifact untouched.  Raises
        :class:`~repro.exceptions.PrivacyBudgetError` when the charge
        would exceed the remaining budget.

        ``seed`` is part of the release identity: materialized artifacts
        are deterministic, so replicas and repeated requests agree on the
        exact released values.
        """
        key = self.release_key(estimator, epsilon=epsilon, branching=branching, seed=seed)
        release, _ = self._materialize(key)
        return release

    def _materialize(self, key: ReleaseKey) -> tuple[MaterializedRelease, bool]:
        """Resolve ``key`` to a release, reporting whether *this call* built it.

        The flag is derived from whether our own build callback actually
        ran — not from a racy pre-check of cache membership — so it is
        exact under concurrent submits and evictions.
        """
        built: list[bool] = []

        def build() -> MaterializedRelease:
            release = self._build_release(key)
            built.append(True)
            return release

        release = self.cache.get_or_build(key, build)
        return release, bool(built)

    def _build_release(self, key: ReleaseKey) -> MaterializedRelease:
        # Fail fast so an already-exhausted budget does not pay the
        # mechanism-plus-inference compute cost; the authoritative check
        # is the atomic spend() below.
        if not self.budget.can_spend(key.epsilon):
            raise BudgetExhaustedError(
                f"cannot materialize {key.estimator} at ε={key.epsilon:g}: only "
                f"{self.budget.remaining_epsilon:g} of "
                f"{self.budget.total.epsilon:g} remains"
            )
        if obs.enabled():
            with obs.tracer().span(
                "serve.build_release",
                estimator=key.estimator,
                epsilon=key.epsilon,
            ):
                leaves = self._compute_leaves(key)
            obs.registry().counter(
                "repro_release_builds_total",
                "Cold private releases computed (ε charged)",
            ).inc(estimator=key.estimator)
        else:
            leaves = self._compute_leaves(key)
        # ε is charged only once the release exists: a mechanism or
        # inference failure above spends nothing, and if a concurrent
        # build exhausted the budget meanwhile the freshly computed leaves
        # are discarded unreleased (pure post-processing never happened).
        self.budget.spend(
            key.epsilon, label=self._spend_label or f"materialize {key.estimator}"
        )
        with self._materializations_lock:
            self.materializations += 1
        return MaterializedRelease(
            leaves,
            estimator=key.estimator,
            epsilon=key.epsilon,
            dataset_fingerprint=key.dataset_fingerprint,
            branching=key.branching,
            seed=key.seed,
        )

    def _compute_leaves(self, key: ReleaseKey) -> np.ndarray:
        """Run the private mechanism for ``key`` without touching the budget.

        Delegates to the shared :func:`compute_release_leaves` — the
        engine's real budget is charged by the caller, after the
        computation has succeeded.
        """
        return compute_release_leaves(
            self._counts, key, delta=self.budget.total.delta
        )

    # -- serving ---------------------------------------------------------------

    def uncertainty_model(
        self, estimator: str, epsilon: float, branching: int
    ) -> UncertaintyModel:
        """The (cached) exact uncertainty model for one release identity."""
        key = (canonical_estimator_name(estimator), float(epsilon), int(branching))
        model = self._uncertainty_models.get(key)
        if model is None:
            model = uncertainty_model_for(
                key[0],
                domain_size=self.domain_size,
                epsilon=key[1],
                branching=key[2],
            )
            self._uncertainty_models[key] = model
        return model

    def submit(
        self,
        batch: QueryBatch | RangeWorkload,
        estimator: str = "constrained",
        *,
        epsilon: float,
        branching: int | None = None,
        seed: int = 0,
        with_accuracy: bool | None = None,
    ) -> BatchResult:
        """Answer a batch of range queries from the materialized release.

        The first submission for a given release identity pays the ε and
        inference cost; every subsequent one is pure post-processing at
        prefix-sum speed.  ``BatchResult.build_seconds`` isolates that
        one-off resolution cost from ``answer_seconds``, so throughput
        figures reflect steady-state serving.

        ``with_accuracy`` forces per-answer variance/CI scoring on (or
        off); the default scores exactly when the engine has an SLO.
        """
        if isinstance(batch, RangeWorkload):
            batch = QueryBatch.from_workload(batch)
        key = self.release_key(estimator, epsilon=epsilon, branching=branching, seed=seed)
        build_start = perf_counter()
        release, built = self._materialize(key)
        answer_start = perf_counter()
        answers = self.planner.answer(release, batch)
        answer_seconds = perf_counter() - answer_start
        build_seconds = answer_start - build_start
        self.stats.record_batch(
            len(batch), answer_seconds, build_seconds=build_seconds, cold=built
        )
        if obs.enabled():
            record_submit_metrics(
                "histogram", len(batch), answer_seconds, build_seconds, built
            )
        variances = ci_los = ci_his = confidence = None
        if with_accuracy or (with_accuracy is None and self.slo is not None):
            model = self.uncertainty_model(key.estimator, key.epsilon, key.branching)
            variances, ci_los, ci_his, confidence = score_batch_accuracy(
                model, batch, answers, self.slo, self.accuracy, "histogram"
            )
        return BatchResult(
            answers=answers,
            estimator=release.estimator,
            epsilon=release.epsilon,
            build_seconds=build_seconds,
            answer_seconds=answer_seconds,
            from_cache=not built,
            variances=variances,
            ci_los=ci_los,
            ci_his=ci_his,
            confidence=confidence,
        )
