"""Continuously refreshed private serving: the streaming façade.

:class:`StreamingHistogramEngine` turns the one-shot release flow into an
epoch-based loop over live data:

* rows arrive through :meth:`~StreamingHistogramEngine.ingest` and are
  aggregated in an :class:`~repro.streaming.buffer.IngestBuffer` (true
  data, owner's trust domain);
* a :class:`~repro.streaming.policy.RefreshPolicy` decides when the
  backlog justifies a new epoch, and an
  :class:`~repro.streaming.policy.EpsilonSchedule` decides the ε that
  epoch may spend — sequential composition across epochs is enforced by
  one shared :class:`~repro.privacy.budget.PrivacyBudget`, charged **only
  when an epoch build succeeds** (a failing mechanism, inference run, or
  exhausted budget leaks nothing and loses no ingested rows);
* each epoch folds the drained delta into the current counts and
  materializes a fresh consistent release through the serving tier's
  cache/store machinery, so every epoch is persisted as its own versioned
  artifact (cache keys embed the epoch's fingerprint, ε, and seed) and a
  replayed or restarted stream re-loads epochs for **zero** additional ε;
* queries keep flowing the whole time: :meth:`submit` answers every batch
  from one immutable release snapshot, so readers never observe a torn
  epoch — a background build publishes the next epoch with a single
  atomic swap;
* the :class:`~repro.streaming.lineage.EpochLineage` records every
  epoch's identity and ε durably next to the store, which is how a
  restarted engine resumes the schedule (and keeps serving) with zero ε
  spent in the new process.
"""

from __future__ import annotations

import threading
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass
from time import perf_counter

import numpy as np

from repro import faults, obs
from repro.accuracy.models import UncertaintyModel, uncertainty_model_for
from repro.accuracy.slo import AccuracySLO, AccuracyStats
from repro.db.histogram import HistogramBuilder
from repro.db.relation import Relation
from repro.exceptions import (
    BudgetExhaustedError,
    LineageConflictError,
    PrivacyBudgetError,
    ReproError,
)
from repro.faults.degrade import CircuitBreaker
from repro.faults.retry import RetryPolicy
from repro.privacy.budget import PrivacyBudget
from repro.privacy.definitions import PrivacyParameters
from repro.queries.workload import RangeWorkload
from repro.serving.cache import ReleaseCache
from repro.serving.engine import (
    HistogramEngine,
    canonical_estimator_name,
    record_submit_metrics,
    score_batch_accuracy,
)
from repro.serving.planner import BatchQueryPlanner, QueryBatch
from repro.serving.release import MaterializedRelease
from repro.serving.stats import ServingStats
from repro.serving.store import ReleaseStore, stream_ledger_path
from repro.streaming.buffer import IngestBuffer
from repro.streaming.lineage import EpochLineage, EpochRecord
from repro.streaming.policy import (
    EpsilonSchedule,
    ManualRefreshPolicy,
    RefreshPolicy,
)
from repro.utils.arrays import as_float_vector

__all__ = ["StreamBatchResult", "StreamingHistogramEngine"]

@dataclass(frozen=True)
class StreamBatchResult:
    """Answers for one batch, pinned to the epoch that produced them.

    ``epoch`` identifies the single consistent release every answer in the
    batch came from — the streaming tier's no-torn-reads contract.
    """

    answers: np.ndarray
    epoch: int
    estimator: str
    epsilon: float
    dataset_fingerprint: str
    answer_seconds: float
    #: the stream's circuit breaker was open when this batch was
    #: answered: the answers are valid but come from the last epoch
    #: published before refreshes started failing (stale-serve mode).
    degraded: bool = False
    #: per-answer accuracy columns, populated when the stream has an
    #: :class:`~repro.accuracy.slo.AccuracySLO` (None otherwise — the
    #: hot path pays nothing).
    variances: np.ndarray | None = None
    ci_los: np.ndarray | None = None
    ci_his: np.ndarray | None = None
    confidence: float | None = None

    @property
    def num_queries(self) -> int:
        return int(self.answers.size)

    @property
    def ci_halfwidths(self) -> np.ndarray | None:
        """Per-answer CI halfwidths (None when accuracy was not scored)."""
        if self.ci_his is None:
            return None
        return self.ci_his - self.answers

    @property
    def queries_per_second(self) -> float:
        """Serving throughput for this batch (0 below clock resolution)."""
        if self.answer_seconds <= 0:
            return 0.0
        return self.num_queries / self.answer_seconds


class StreamingHistogramEngine:
    """Epoch-refreshed private-histogram server over one live dataset.

    Parameters
    ----------
    data:
        The *current* database: a :class:`Relation` (with ``attribute``)
        or a raw unit-count vector.  On a warm restart this is the base
        the next epoch's delta folds into.
    total_epsilon:
        The overall budget every epoch's charge composes against — over
        the stream's whole *lifetime*: after a warm restart the process
        budget restarts at zero, but new epochs are checked against the
        lineage's cross-restart Σεᵢ ledger before building.
    schedule:
        The per-epoch ε schedule (e.g.
        :class:`~repro.streaming.policy.GeometricEpsilonSchedule`).
    policy:
        When to auto-refresh on ingest; defaults to manual-only.
    estimator / branching / seed:
        Release strategy; epoch ``i`` is built with seed ``seed + i`` so
        every epoch is a distinct, deterministic release identity.
    store:
        Optional durable :class:`ReleaseStore`.  Epoch artifacts persist
        into it and the epoch lineage lives beside it
        (``<root>/streams/<name>-<hash>.json``), enabling zero-ε warm
        restarts.
    cache:
        A pre-built shared :class:`ReleaseCache` (attach any store to it);
        mutually exclusive with ``store``.
    name:
        Stream name used for the lineage file and telemetry.
    build_first_epoch:
        Build epoch 0 from the base data at construction (default).  Has
        no effect on a warm restart, which resumes from the lineage.
    retry:
        Optional :class:`~repro.faults.retry.RetryPolicy` applied to the
        lineage's per-append persist (the store takes its own policy at
        construction).  Retries only re-run persistence — never the
        ε-charged build.
    breaker:
        The stream's :class:`~repro.faults.degrade.CircuitBreaker`; a
        default one (trip on first failure, probe every 4th suppressed
        auto-refresh) is created when omitted.  While open, the engine
        keeps answering from the last published epoch with
        ``degraded=True`` on every batch, and one successful build heals
        it.
    """

    def __init__(
        self,
        data,
        total_epsilon: float,
        schedule: EpsilonSchedule,
        *,
        attribute: str | None = None,
        policy: RefreshPolicy | None = None,
        estimator: str = "constrained",
        branching: int = 2,
        seed: int = 0,
        delta: float = 0.0,
        store: ReleaseStore | None = None,
        cache: ReleaseCache | None = None,
        cache_capacity: int = 32,
        name: str = "stream",
        build_first_epoch: bool = True,
        retry: RetryPolicy | None = None,
        breaker: CircuitBreaker | None = None,
        slo: AccuracySLO | None = None,
    ) -> None:
        if isinstance(data, Relation):
            if attribute is None:
                raise ReproError(
                    "a range attribute is required when the data is a Relation"
                )
            counts = HistogramBuilder(data, attribute).counts()
        else:
            counts = as_float_vector(data, name="counts").copy()
        if not hasattr(schedule, "epsilon_for"):
            raise ReproError(
                f"schedule must implement epsilon_for(epoch), got {schedule!r}"
            )
        self._counts = counts  # guarded-by: _advance_lock
        #: immutable after construction; lets lock-free monitoring paths
        #: read the domain size without touching the guarded counts
        self._domain_size = int(counts.size)
        self.estimator = canonical_estimator_name(estimator)
        self.branching = int(branching)
        self.base_seed = int(seed)
        self.schedule = schedule
        self.policy: RefreshPolicy = policy if policy is not None else ManualRefreshPolicy()
        self.name = str(name)
        if not self.name:
            raise ReproError("a stream name is required")
        if cache is not None and store is not None:
            raise ReproError(
                "pass either a shared cache or a store, not both; attach the "
                "store to the shared ReleaseCache instead"
            )
        self.cache = cache if cache is not None else ReleaseCache(cache_capacity, store=store)
        self._budget = PrivacyBudget(PrivacyParameters(total_epsilon, delta))
        self._buffer = IngestBuffer(counts.size)
        self.planner = BatchQueryPlanner()
        self.stats = ServingStats()
        #: the exception the most recent policy-triggered auto-refresh
        #: failed with, or ``None``; explicit advance_epoch() calls raise
        #: instead of recording here.
        self.last_refresh_error: BaseException | None = None
        self._advance_lock = threading.Lock()
        self._serve_lock = threading.Lock()
        self.materializations = 0  # guarded-by: _serve_lock
        #: set on warm restart; the first epoch build validates the base
        #: counts against the lineage ledger before proceeding
        self._resume_unvalidated = False  # guarded-by: _advance_lock
        self._current: tuple[int, MaterializedRelease] | None = None  # guarded-by: _serve_lock
        self._executor: ThreadPoolExecutor | None = None  # guarded-by: _executor_lock
        self._executor_lock = threading.Lock()
        self.retry = retry
        self.breaker = breaker if breaker is not None else CircuitBreaker(name=self.name)
        self.slo = slo
        self.accuracy = AccuracyStats()
        # The current release's uncertainty model, keyed by its ε; an epoch
        # with a new ε replaces it.  Racy rebuilds are benign.
        self._uncertainty_models: dict[tuple, UncertaintyModel] = {}
        self.lineage = self._open_lineage()
        if len(self.lineage):
            with self._advance_lock:
                self._resume_from_lineage_locked()
        elif build_first_epoch:
            self.advance_epoch()

    # -- construction helpers --------------------------------------------------

    def _open_lineage(self) -> EpochLineage:
        store = self.cache.store
        if store is None:
            return EpochLineage(retry=self.retry)
        return EpochLineage(
            stream_ledger_path(store.root, self.name), retry=self.retry
        )

    def _resume_from_lineage_locked(self) -> None:
        """Warm restart: serve the latest recorded epoch, spending zero ε.

        Caller holds ``_advance_lock`` (the ``_locked`` convention); the
        published release is still swapped in under ``_serve_lock``.
        """
        latest = self.lineage.latest
        store = self.cache.store
        release = store.get(latest.key) if store is not None else None
        if release is None:
            raise ReproError(
                f"stream {self.name!r} has lineage through epoch {latest.epoch} "
                f"but its release artifact is missing from the store"
            )
        self.cache.put(latest.key, release)
        with self._serve_lock:
            self._current = (latest.epoch, release)
        # Serving resumed releases needs no counts at all, but *building*
        # on stale base counts would silently rebase the stream and drop
        # every previously folded row — so the first build after a resume
        # cross-checks the counts against the lineage's true-count ledger
        # (see _advance_locked).
        self._resume_unvalidated = True

    # -- budget ----------------------------------------------------------------

    @property
    def budget(self) -> PrivacyBudget:
        """The shared (thread-safe) budget every epoch composes against."""
        return self._budget

    @property
    def spent_epsilon(self) -> float:
        """ε spent by *this process* (a warm restart starts at zero)."""
        return self._budget.spent_epsilon

    @property
    def remaining_epsilon(self) -> float:
        return self._budget.remaining_epsilon

    # -- ingestion -------------------------------------------------------------

    @property
    def domain_size(self) -> int:
        return self._domain_size

    @property
    def pending_rows(self) -> int:
        """Rows ingested but not yet folded into any epoch."""
        return self._buffer.pending_rows

    def ingest(self, indexes) -> int:
        """Ingest rows given as domain indexes; may trigger a refresh.

        Returns the number of rows ingested.  When the refresh policy
        fires and no build is already in flight, the epoch advances
        synchronously (for latency-sensitive ingest paths, keep the
        default :class:`~repro.streaming.policy.ManualRefreshPolicy` and
        drive :meth:`advance_epoch_background` yourself).  A *failed*
        auto-refresh never raises out of ingest — the rows are already
        safely buffered, and re-ingesting them would double-count; the
        failure is recorded in :attr:`last_refresh_error` for monitoring
        (a persistent cause, such as an exhausted budget, will surface
        again on the next explicit :meth:`advance_epoch`).
        """
        rows = self._buffer.add(indexes)
        self._record_ingest(rows)
        self._maybe_refresh()
        return rows

    def ingest_counts(self, delta) -> int:
        """Ingest a pre-aggregated delta count vector; may trigger a refresh."""
        rows = self._buffer.add_counts(delta)
        self._record_ingest(rows)
        self._maybe_refresh()
        return rows

    def ingest_relation(self, relation: Relation, attribute: str) -> int:
        """Ingest every tuple of a delta relation; may trigger a refresh."""
        rows = self._buffer.add_relation(relation, attribute)
        self._record_ingest(rows)
        self._maybe_refresh()
        return rows

    def _record_ingest(self, rows: int) -> None:
        if obs.enabled():
            obs.registry().counter(
                "repro_stream_ingest_rows_total", "Rows ingested into streams"
            ).inc(rows, stream=self.name)

    def _maybe_refresh(self) -> None:
        if not self.policy.should_refresh(self._buffer.pending_rows):
            return
        # Never stack policy-triggered builds: the non-blocking acquire
        # makes the in-flight check atomic, and the policy is re-checked
        # under the lock — a concurrent ingest that lost the race finds
        # its rows already drained and must not charge a near-empty
        # epoch for them.  Pending rows simply ride into the next epoch.
        if not self.breaker.allow_probe():
            # Open breaker: keep serving the last published epoch (stale
            # but valid) instead of hammering a failing build path on
            # every ingest.  Every probe_interval-th opportunity is let
            # through as the healing probe, and an explicit
            # advance_epoch() always bypasses this gate.
            if obs.enabled():
                obs.registry().counter(
                    "repro_stream_refreshes_suppressed_total",
                    "Auto-refreshes suppressed by an open circuit breaker",
                ).inc(stream=self.name)
            return
        if not self._advance_lock.acquire(blocking=False):
            return
        try:
            if self.policy.should_refresh(self._buffer.pending_rows):
                self._advance_locked()
                self.breaker.record_success()
                self.last_refresh_error = None
        except Exception as error:
            self.breaker.record_failure(error)
            # The ingest itself succeeded — the rows are in the buffer and
            # a failed build restored its drained share — so raising here
            # would invite the caller to re-ingest the same batch and
            # double-count it.  Auto-refresh degrades to buffer-only
            # ingestion; the error surfaces on the next explicit
            # advance_epoch() and through last_refresh_error.
            self.last_refresh_error = error
        finally:
            self._advance_lock.release()

    # -- epoch building --------------------------------------------------------

    @property
    def epoch(self) -> int:
        """Index of the epoch currently being served (-1 before epoch 0)."""
        with self._serve_lock:
            return self._current[0] if self._current is not None else -1

    def advance_epoch(self) -> EpochRecord:
        """Build and publish the next epoch synchronously.

        Drains the ingest buffer, folds the delta into the current counts,
        materializes the epoch's release at the scheduled ε, records the
        epoch in the lineage, and atomically swaps it in for serving.  On
        *any* failure the drained rows are restored to the buffer, the
        epoch counter does not advance, and — because the charge happens
        only after the release is computed — no ε is spent.
        """
        with self._advance_lock:
            try:
                record = self._advance_locked()
            except Exception as error:
                self.breaker.record_failure(error)
                raise
        self.breaker.record_success()
        return record

    def advance_epoch_background(self) -> "Future[EpochRecord]":
        """Schedule :meth:`advance_epoch` on the build thread.

        Queries keep being answered from the current epoch while the build
        runs; the returned future resolves to the new
        :class:`EpochRecord` (or carries the build's exception).  Builds
        are serialized on a single worker so concurrent triggers can never
        race the schedule.
        """
        with self._executor_lock:
            if self._executor is None:
                self._executor = ThreadPoolExecutor(
                    max_workers=1, thread_name_prefix=f"epoch-build-{self.name}"
                )
            return self._executor.submit(self.advance_epoch)

    def _advance_locked(self) -> EpochRecord:
        epoch = self.lineage.next_epoch
        epsilon = self.schedule.epsilon_for(epoch)
        # The process budget starts at zero after a warm restart, so it
        # alone cannot enforce total_epsilon over the stream's *lifetime*;
        # the lineage carries the cross-restart ledger, and this check
        # composes the new epoch against it before any work is done.  The
        # process budget is the floor for charges the lineage missed (a
        # lineage persist failure after a successful build); a charge
        # orphaned that way is unrecoverable across restarts, which is
        # the documented residual of non-transactional store + lineage.
        lifetime = max(self.lineage.spent_epsilon, self._budget.spent_epsilon)
        if lifetime + epsilon > self._budget.total.epsilon + 1e-12:
            raise BudgetExhaustedError(
                f"epoch {epoch} would charge ε={epsilon:g}, but the stream "
                f"has already spent ε={lifetime:g} of its lifetime "
                f"{self._budget.total.epsilon:g} across its lineage"
            )
        if self._resume_unvalidated:
            # Building on stale base counts after a resume would publish a
            # release that regresses by every previously folded row; the
            # lineage records each epoch's true total exactly so the
            # mismatch is detectable before any work (0.5 of absolute
            # slack tolerates text-serialized counts, never a whole row).
            recorded = self.lineage.latest.total_rows
            current = float(self._counts.sum())
            if abs(current - recorded) > 0.5 + 1e-9 * abs(recorded):
                raise LineageConflictError(
                    f"stream {self.name!r} resumed at epoch "
                    f"{self.lineage.latest.epoch} whose release covered "
                    f"{recorded:g} rows, but the supplied counts hold "
                    f"{current:g}; pass the stream's *current* database "
                    f"(base plus previously released rows) to keep building"
                )
            self._resume_unvalidated = False
        delta, rows = self._buffer.drain()
        # Gate the fold on the delta itself, not the row count: fractional
        # pre-aggregated deltas can sum below one whole row yet still
        # carry data that must reach the epoch.
        counts = self._counts + delta if delta.any() else self._counts
        try:
            if faults.enabled():
                # Injected before any mechanism work: a failed epoch
                # charges nothing and the drained rows are restored.
                faults.check("stream.epoch_build")
            builder = HistogramEngine(
                counts,
                branching=self.branching,
                cache=self.cache,
                budget=self._budget,
                spend_label=f"epoch {epoch} ({self.estimator})",
            )
            if obs.enabled():
                build_start = perf_counter()
                with obs.tracer().span(
                    "stream.advance_epoch",
                    stream=self.name,
                    epoch=epoch,
                    epsilon=epsilon,
                    rows=rows,
                ):
                    release = builder.materialize(
                        self.estimator,
                        epsilon=epsilon,
                        branching=self.branching,
                        seed=self.base_seed + epoch,
                    )
                obs.registry().histogram(
                    "repro_stream_epoch_build_seconds",
                    "Epoch build latency (seconds)",
                ).observe(perf_counter() - build_start, stream=self.name)
            else:
                release = builder.materialize(
                    self.estimator,
                    epsilon=epsilon,
                    branching=self.branching,
                    seed=self.base_seed + epoch,
                )
        except BaseException:
            # The build charged nothing (the engine charges only after a
            # successful computation) and must lose nothing: the drained
            # rows rejoin the backlog for the next attempt.
            self._restore_backlog(delta, rows)
            raise
        record = EpochRecord(
            epoch=epoch,
            key=release.key,
            epsilon=epsilon,
            rows_ingested=rows,
            total_rows=float(counts.sum()),
        )
        try:
            self.lineage.append(record)
        except BaseException:
            # The epoch's ε is already charged (the artifact exists), but
            # the epoch is not published: restore the rows so they are
            # re-released by the next successful epoch rather than lost.
            self._restore_backlog(delta, rows)
            raise
        self._counts = counts
        with self._serve_lock:
            self._current = (epoch, release)
            self.materializations += builder.materializations
        if obs.enabled():
            obs.registry().counter(
                "repro_stream_epochs_total", "Epochs built and published"
            ).inc(stream=self.name)
        return record

    def _restore_backlog(self, delta, rows: int) -> None:
        """Return a drained delta to the buffer, counting the restore."""
        self._buffer.restore(delta, rows)
        if obs.enabled():
            obs.registry().counter(
                "repro_stream_buffer_restores_total",
                "Drained deltas restored after a failed epoch",
            ).inc(stream=self.name)

    def release_for_epoch(self, epoch: int) -> MaterializedRelease:
        """The immutable release a past epoch published (no ε, ever).

        Resolved from the in-memory cache, falling back to the durable
        store; raises when the epoch was never built or its artifact is
        gone from both.
        """
        records = self.lineage.records
        if not 0 <= epoch < len(records):
            raise ReproError(
                f"stream {self.name!r} has no epoch {epoch} "
                f"(built through {len(records) - 1})"
            )
        key = records[epoch].key
        release = self.cache.get(key)
        if release is None and self.cache.store is not None:
            release = self.cache.store.get(key)
            if release is not None:
                self.cache.put(key, release)
        if release is None:
            raise ReproError(
                f"epoch {epoch} of stream {self.name!r} was evicted and no "
                f"store holds its artifact"
            )
        return release

    # -- serving ---------------------------------------------------------------

    def submit(self, batch: QueryBatch | RangeWorkload) -> StreamBatchResult:
        """Answer a batch from the latest published epoch.

        The epoch snapshot is taken once, before answering, and the whole
        batch is answered from that single immutable release — a
        concurrent epoch swap affects only batches submitted after it.
        """
        if isinstance(batch, RangeWorkload):
            batch = QueryBatch.from_workload(batch)
        with self._serve_lock:
            current = self._current
        if current is None:
            raise ReproError(
                f"stream {self.name!r} has no epoch yet; ingest data and "
                f"advance an epoch first"
            )
        epoch, release = current
        start = perf_counter()
        answers = self.planner.answer(release, batch)
        answer_seconds = perf_counter() - start
        self.stats.record_batch(len(batch), answer_seconds)
        if obs.enabled():
            record_submit_metrics("stream", len(batch), answer_seconds)
        variances = ci_los = ci_his = confidence = None
        if self.slo is not None:
            model_key = (release.estimator, float(release.epsilon), release.branching)
            model = self._uncertainty_models.get(model_key)
            if model is None:
                model = uncertainty_model_for(
                    release.estimator,
                    domain_size=self._domain_size,
                    epsilon=release.epsilon,
                    branching=release.branching,
                )
                self._uncertainty_models = {model_key: model}
            variances, ci_los, ci_his, confidence = score_batch_accuracy(
                model, batch, answers, self.slo, self.accuracy, "stream"
            )
        return StreamBatchResult(
            answers=answers,
            epoch=epoch,
            estimator=release.estimator,
            epsilon=release.epsilon,
            dataset_fingerprint=release.dataset_fingerprint,
            answer_seconds=answer_seconds,
            degraded=self.breaker.degraded,
            variances=variances,
            ci_los=ci_los,
            ci_his=ci_his,
            confidence=confidence,
        )

    # -- lifecycle -------------------------------------------------------------

    def close(self) -> None:
        """Wait for any in-flight background build and release its thread."""
        with self._executor_lock:
            executor, self._executor = self._executor, None
        if executor is not None:
            executor.shutdown(wait=True)

    def __enter__(self) -> "StreamingHistogramEngine":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"StreamingHistogramEngine(name={self.name!r}, epoch={self.epoch}, "
            f"pending_rows={self.pending_rows}, "
            f"spent_epsilon={self.spent_epsilon:g})"
        )
