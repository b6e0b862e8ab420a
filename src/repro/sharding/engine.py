"""The sharded serving façade: massive domains, one ε, parallel builds.

:class:`ShardedHistogramEngine` is the sharded sibling of
:class:`~repro.serving.engine.HistogramEngine`: it partitions a huge
unit-count domain with a :class:`~repro.sharding.plan.ShardPlan`, builds
one hierarchical release *per shard* on a worker pool, and serves range
batches through the :class:`~repro.sharding.router.ShardRouter`.

**Privacy accounting (parallel composition).**  The shards partition the
domain, so neighbouring databases (one record added or removed) differ
in exactly one shard's sub-histogram.  Running an ε-DP mechanism
independently on every shard is therefore ε-DP *overall* — the charge
for a whole sharded materialization is one ε, exactly the monolithic
charge, for any shard count.  Two invariants make the argument hold:

* **disjointness** — shards are contiguous, non-overlapping, and cover
  the domain (enforced by :class:`ShardPlan`);
* **independent noise** — every shard draws from its own stream, seeded
  by :func:`derive_shard_seed` (a hash of the request's base seed and
  the shard index, so no two requests can alias a stream);
  :class:`~repro.sharding.release.ShardedRelease` additionally refuses
  duplicated shard seeds outright, since a reused seed over identical
  sub-histograms would reuse the same noise and void the argument.

ε is charged **once per sharded materialization, only when at least one
shard was actually built** (all-warm resolutions are pure
post-processing and free), and only *after* every shard's computation
has succeeded — a failing shard build charges nothing and caches
nothing.  When some shards come warm from the cache/store and others are
built cold, the engine still charges the full ε: conservative (never an
under-charge), and the common cases — all cold, all warm — are exact.

Each shard persists as a normal versioned
:class:`~repro.serving.store.ReleaseStore` artifact under its own
:class:`~repro.serving.release.ReleaseKey` (sub-histogram fingerprint,
estimator, ε, branching, per-shard seed), so a restarted engine over the
same data and parameters warm-starts every shard from disk with zero
recomputation and zero additional ε — the monolithic warm-start story,
shard by shard.
"""

from __future__ import annotations

import hashlib
import threading
from time import perf_counter

from repro import faults, obs
from repro.accuracy.models import UncertaintyModel, composite_uncertainty_model
from repro.accuracy.slo import AccuracySLO, AccuracyStats
from repro.db.histogram import HistogramBuilder
from repro.db.relation import Relation
from repro.exceptions import BudgetExhaustedError, PrivacyBudgetError, ReproError
from repro.faults.retry import RetryPolicy, run_with_retry
from repro.privacy.budget import PrivacyBudget
from repro.privacy.definitions import PrivacyParameters
from repro.queries.workload import RangeWorkload
from repro.serving.cache import ReleaseCache
from repro.serving.engine import (
    canonical_estimator_name,
    compute_release_leaves,
    record_submit_metrics,
    score_batch_accuracy,
)
from repro.serving.planner import BatchResult, QueryBatch
from repro.serving.release import MaterializedRelease, ReleaseKey, fingerprint_counts
from repro.serving.stats import ServingStats
from repro.serving.store import ReleaseStore
from repro.sharding.plan import ShardPlan, resolve_plan
from repro.sharding.pool import (
    ShardBuildSpec,
    effective_cpu_count,
    resolve_worker_mode,
    run_shard_builds,
)
from repro.sharding.release import ShardedRelease
from repro.sharding.router import ShardRouter
from repro.utils.arrays import as_float_vector

__all__ = ["derive_shard_seed", "build_shard_releases", "ShardedHistogramEngine"]


def resolve_workers(workers: int | None, num_shards: int) -> int:
    """Worker-pool width: explicit, else one per *available* core.

    The default sizes from the effective CPU budget
    (:func:`~repro.sharding.pool.effective_cpu_count` — affinity mask /
    cgroup aware), capped at the shard count.  Raw ``os.cpu_count()``
    would oversubscribe a container pinned to a slice of the box.
    """
    if workers is not None:
        if workers < 1:
            raise ReproError(f"workers must be >= 1, got {workers}")
        return int(workers)
    return max(1, min(num_shards, effective_cpu_count()))


def resolve_shard_cache(
    cache: ReleaseCache | None,
    store: ReleaseStore | None,
    cache_capacity: int | None,
    num_shards: int,
) -> ReleaseCache:
    """The engines' shared cache/store resolution (default: two shard sets)."""
    if cache is not None and store is not None:
        raise ReproError(
            "pass either a shared cache or a store, not both; attach the "
            "store to the shared ReleaseCache instead"
        )
    if cache is not None:
        return cache
    capacity = (
        cache_capacity if cache_capacity is not None else max(32, 2 * num_shards)
    )
    return ReleaseCache(capacity, store=store)


def derive_shard_seed(base_seed: int, *indices: int) -> int:
    """A deterministic, collision-resistant seed for one shard's mechanism.

    A naive ``base_seed + shard`` schedule collides across *requests*
    with nearby base seeds — shard ``s`` of ``materialize(seed=1)`` and
    shard ``s+1`` of ``materialize(seed=0)`` would share a seed, and for
    equal-width shards that means the same noise realization backs two
    separately ε-charged releases (given one, the other adds no fresh
    randomness — the composition guarantee breaks).  Hashing the whole
    ``(base_seed, *indices)`` identity instead keeps every (request,
    shard) pair on its own noise stream with overwhelming probability,
    while releases stay deterministic functions of their identity.

    Returns a non-negative 63-bit integer (fits the artifact's int64).
    """
    payload = ":".join(str(int(value)) for value in (base_seed, *indices))
    digest = hashlib.sha256(payload.encode("ascii")).digest()
    return int.from_bytes(digest[:8], "big") >> 1


def build_shard_releases(
    shard_counts,
    shard_keys,
    *,
    delta: float = 0.0,
    workers: int = 1,
    worker_mode: str = "thread",
    retry: RetryPolicy | None = None,
) -> list[MaterializedRelease]:
    """Compute one release per shard, in shard order, on a worker pool.

    Pure computation: nothing is cached, persisted, or charged — callers
    sequence the ε charge *after* every shard has succeeded so a failure
    anywhere leaks nothing.  Results are deterministic functions of
    ``(counts, key)`` regardless of worker count, worker mode, or
    completion order, and the pooled paths fail fast: the first shard
    failure cancels every build not yet started
    (:func:`~repro.sharding.pool.run_shard_builds`).

    ``worker_mode`` selects the pool (``"thread"``, ``"process"``, or
    ``"auto"`` by shard width — see
    :func:`~repro.sharding.pool.resolve_worker_mode`).  The process pool
    is the one that actually scales: the build kernels hold the GIL, so
    threads add no cores.

    **Fault and obs semantics are parent-side, for every mode.**  The
    ``shard.build`` fault point is consulted here, in shard order, for
    all shards *before* any build is dispatched — so an armed schedule
    consumes one deterministic invocation sequence whether the builds
    then run inline, on threads, or in worker processes, and an injected
    failure aborts before any kernel work.  With a ``retry`` policy each
    shard's fault check is retried independently (safe pre-charge: a
    recomputed shard is bit-identical and no ε has been charged yet).
    Metrics likewise: pooled workers return per-shard durations and the
    parent records them; per-shard ``shard.build`` spans are emitted
    only on the inline ``workers=1`` path (worker processes are bare —
    see :mod:`repro.sharding.pool`).
    """
    shard_counts = list(shard_counts)
    shard_keys = list(shard_keys)
    if len(shard_counts) != len(shard_keys):
        raise ReproError(
            f"{len(shard_counts)} shard count vectors but {len(shard_keys)} keys"
        )
    shard_width = max((counts.size for counts in shard_counts), default=0)
    mode = resolve_worker_mode(worker_mode, workers=workers, shard_width=shard_width)

    if faults.enabled():
        # Before any mechanism work, for every shard, in shard order: an
        # injected shard failure aborts the whole epoch/materialization
        # pre-charge and pre-dispatch, and schedules see the same
        # invocation sequence in every worker mode.
        for index in range(len(shard_keys)):
            if retry is None:
                faults.check("shard.build")
            else:
                run_with_retry(
                    retry,
                    lambda: faults.check("shard.build"),
                    describe=f"build shard {index}",
                )

    def assemble(key: ReleaseKey, leaves) -> MaterializedRelease:
        return MaterializedRelease(
            leaves,
            estimator=key.estimator,
            epsilon=key.epsilon,
            dataset_fingerprint=key.dataset_fingerprint,
            branching=key.branching,
            seed=key.seed,
        )

    def build_one(index: int) -> MaterializedRelease:
        key = shard_keys[index]
        if obs.enabled():
            shard_start = perf_counter()
            with obs.tracer().span(
                "shard.build", shard=index, estimator=key.estimator
            ):
                leaves = compute_release_leaves(
                    shard_counts[index], key, delta=delta
                )
            registry = obs.registry()
            registry.histogram(
                "repro_shard_build_seconds", "Per-shard release build latency"
            ).observe(perf_counter() - shard_start)
            registry.counter(
                "repro_shard_builds_total", "Individual shard releases built"
            ).inc()
        else:
            leaves = compute_release_leaves(shard_counts[index], key, delta=delta)
        return assemble(key, leaves)

    if workers <= 1 or len(shard_keys) <= 1:
        return [build_one(i) for i in range(len(shard_keys))]

    specs = [
        ShardBuildSpec(shard_counts[i], shard_keys[i], delta)
        for i in range(len(shard_keys))
    ]
    outcomes = run_shard_builds(specs, workers=workers, mode=mode)
    if obs.enabled():
        registry = obs.registry()
        build_seconds = registry.histogram(
            "repro_shard_build_seconds", "Per-shard release build latency"
        )
        builds_total = registry.counter(
            "repro_shard_builds_total", "Individual shard releases built"
        )
        for outcome in outcomes:
            build_seconds.observe(outcome.seconds)
            builds_total.inc()
    return [
        assemble(key, outcome.leaves)
        for key, outcome in zip(shard_keys, outcomes)
    ]


class ShardedHistogramEngine:
    """Long-lived sharded private-histogram server over one huge dataset.

    Parameters
    ----------
    data:
        A :class:`Relation` (with ``attribute``) or a raw unit-count
        vector covering the full domain.
    total_epsilon:
        Overall budget for every release this engine materializes
        (sequential composition across releases; parallel composition
        *within* each sharded release).  Omit it (and pass ``budget``)
        to share another accountant's budget.
    num_shards / shard_size / plan:
        The partition geometry — at most one of the three; the default
        is :data:`~repro.sharding.plan.DEFAULT_SHARD_SIZE`-wide shards.
    workers:
        Worker-pool width for parallel shard builds (default: one per
        *available* CPU core — affinity/cgroup aware — capped at the
        shard count).
    worker_mode:
        ``"thread"``, ``"process"``, or ``"auto"`` (default): how
        parallel builds execute.  Only the process pool scales past one
        core (the build kernels hold the GIL); ``"auto"`` picks it when
        ``workers > 1`` and shards are wide enough that kernel time
        dominates the pickle/IPC cost.  Bit-identity of releases and ε
        accounting are mode-independent.
    cache / cache_capacity / store:
        As for :class:`~repro.serving.engine.HistogramEngine`; the
        default private cache is sized to hold at least two full shard
        sets.  Note the engine keeps strong references to its own
        assembled releases, so cache evictions never force a re-charge.
    budget / spend_label:
        As for :class:`~repro.serving.engine.HistogramEngine`.
    retry:
        Optional :class:`~repro.faults.retry.RetryPolicy` applied to
        each cold shard build (pure recomputation, pre-charge — retries
        never touch ε).  Store writes take their own policy on the
        :class:`~repro.serving.store.ReleaseStore` itself.
    """

    def __init__(
        self,
        data,
        total_epsilon: float | None = None,
        *,
        attribute: str | None = None,
        delta: float = 0.0,
        branching: int = 2,
        num_shards: int | None = None,
        shard_size: int | None = None,
        plan: ShardPlan | None = None,
        workers: int | None = None,
        worker_mode: str = "auto",
        cache: ReleaseCache | None = None,
        cache_capacity: int | None = None,
        store: ReleaseStore | None = None,
        budget: PrivacyBudget | None = None,
        spend_label: str | None = None,
        retry: RetryPolicy | None = None,
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
        self.plan = resolve_plan(
            counts.size, num_shards=num_shards, shard_size=shard_size, plan=plan
        )
        self.workers = resolve_workers(workers, self.plan.num_shards)
        self.worker_mode = resolve_worker_mode(
            worker_mode,
            workers=self.workers,
            shard_width=int(self.plan.sizes.max()),
        )
        self.retry = retry
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
        self.cache = resolve_shard_cache(
            cache, store, cache_capacity, self.plan.num_shards
        )
        self.router = ShardRouter()
        self.stats = ServingStats()
        #: sharded materializations that actually charged ε in this
        #: process; all-warm resolutions leave it untouched.
        self.materializations = 0  # guarded-by: _materialize_lock
        #: individual shard releases built cold by this engine.
        self.shard_builds = 0  # guarded-by: _materialize_lock
        self._materialize_lock = threading.Lock()
        self._releases: dict[tuple, ShardedRelease] = {}  # guarded-by: _materialize_lock
        #: freshly built shard releases whose store write failed; the
        #: persist is retried on the next materialize/submit (ε for them
        #: was charged exactly once and is never re-spent).
        self._unpersisted: list[MaterializedRelease] = []  # guarded-by: _materialize_lock
        self._shard_counts = self.plan.split(counts)
        self._shard_fingerprints = [
            fingerprint_counts(sub) for sub in self._shard_counts
        ]
        self.slo = slo
        self.accuracy = AccuracyStats()
        # Composite uncertainty models per (estimator, shard ε's,
        # branching); racy rebuilds are benign (identical inputs).
        self._uncertainty_models: dict[tuple, UncertaintyModel] = {}

    # -- budget ----------------------------------------------------------------

    @property
    def budget(self) -> PrivacyBudget:
        return self._budget

    @property
    def spent_epsilon(self) -> float:
        return self._budget.spent_epsilon

    @property
    def remaining_epsilon(self) -> float:
        return self._budget.remaining_epsilon

    @property
    def domain_size(self) -> int:
        return int(self._counts.size)

    @property
    def num_shards(self) -> int:
        return self.plan.num_shards

    # -- materialization -------------------------------------------------------

    def shard_keys(
        self,
        estimator: str = "constrained",
        *,
        epsilon: float,
        branching: int | None = None,
        seed: int = 0,
    ) -> list[ReleaseKey]:
        """The per-shard release identities a request resolves to.

        Validated before any ε is spent.  Shard ``s`` seeds with
        :func:`derive_shard_seed(seed, s) <derive_shard_seed>`:
        pairwise-distinct — across shards *and* across requests with
        different base seeds — which keeps every shard's noise stream
        independent, the precondition of the parallel-composition charge.
        """
        branching = self.default_branching if branching is None else int(branching)
        if branching < 2:
            raise ReproError(f"branching factor must be >= 2, got {branching}")
        PrivacyParameters(float(epsilon))  # validates ε > 0
        estimator = canonical_estimator_name(estimator)
        return [
            ReleaseKey(
                dataset_fingerprint=self._shard_fingerprints[s],
                estimator=estimator,
                epsilon=float(epsilon),
                branching=branching,
                seed=derive_shard_seed(seed, s),
            )
            for s in range(self.plan.num_shards)
        ]

    def materialize(
        self,
        estimator: str = "constrained",
        *,
        epsilon: float,
        branching: int | None = None,
        seed: int = 0,
    ) -> ShardedRelease:
        """The sharded release for ``(estimator, ε, branching, seed)``, cached."""
        release, _ = self._materialize(estimator, epsilon, branching, seed)
        return release

    def _materialize(
        self, estimator, epsilon, branching, seed
    ) -> tuple[ShardedRelease, bool]:
        try:
            identity = (
                canonical_estimator_name(estimator),
                float(epsilon),
                self.default_branching if branching is None else int(branching),
                int(seed),
                self.plan,
            )
        except (ReproError, TypeError, ValueError):
            identity = None  # invalid: shard_keys below raises its own error
        # Lock-free warm path: an identity this engine already assembled
        # is served without deriving shard keys or touching the build
        # lock, so warm traffic is never stalled behind another identity's
        # multi-second cold build.  Invalid requests never match a stored
        # identity.  Reads are benign races on a dict that only ever
        # grows: a miss falls through to the locked double-check below.
        assembled = self._releases.get(identity)  # statan: ignore[LOCK001]
        if assembled is not None:
            if self._unpersisted:  # statan: ignore[LOCK001] racy peek; locked flush re-checks
                with self._materialize_lock:
                    self._flush_unpersisted_locked()
            return assembled, False
        keys = self.shard_keys(
            estimator, epsilon=epsilon, branching=branching, seed=seed
        )
        with self._materialize_lock:
            assembled = self._releases.get(identity)
            if assembled is not None:
                return assembled, False
            self._flush_unpersisted_locked()
            shard_releases: list[MaterializedRelease | None] = []
            cold: list[int] = []
            for s, key in enumerate(keys):
                found = self.cache.get(key)
                if found is None and self.cache.store is not None:
                    found = self.cache.store.get(key)
                    if found is not None:
                        self.cache.put(key, found)
                shard_releases.append(found)
                if found is None:
                    cold.append(s)
            built = bool(cold)
            fresh: list[MaterializedRelease] = []
            if built:
                epsilon_value = keys[0].epsilon
                # Fail fast before the build; the authoritative check is
                # the atomic spend() after it.
                if not self._budget.can_spend(epsilon_value):
                    raise BudgetExhaustedError(
                        f"cannot materialize sharded {keys[0].estimator} at "
                        f"ε={epsilon_value:g}: only "
                        f"{self._budget.remaining_epsilon:g} of "
                        f"{self._budget.total.epsilon:g} remains"
                    )
                if obs.enabled():
                    with obs.tracer().span(
                        "shard.materialize",
                        estimator=keys[0].estimator,
                        cold_shards=len(cold),
                        num_shards=self.plan.num_shards,
                    ):
                        # statan: ignore[LOCK002] cold builds are serialized
                        # under this lock by design (double-builds would
                        # double-charge ε); warm reads use the lock-free
                        # fast path above, so a backoff here stalls no one.
                        fresh = build_shard_releases(  # statan: ignore[LOCK002]
                            [self._shard_counts[s] for s in cold],
                            [keys[s] for s in cold],
                            delta=self._budget.total.delta,
                            workers=self.workers,
                            worker_mode=self.worker_mode,
                            retry=self.retry,
                        )
                else:
                    fresh = build_shard_releases(  # statan: ignore[LOCK002]
                        [self._shard_counts[s] for s in cold],
                        [keys[s] for s in cold],
                        delta=self._budget.total.delta,
                        workers=self.workers,
                        worker_mode=self.worker_mode,
                        retry=self.retry,
                    )
                # One ε for the whole sharded release, by parallel
                # composition over the disjoint shards — charged only now
                # that every shard's computation has succeeded, and
                # *before* anything is cached or persisted, so a failed
                # charge leaves no free-to-replay artifacts behind.
                self._budget.spend(
                    epsilon_value,
                    label=self._spend_label
                    or (
                        f"materialize-sharded {keys[0].estimator} "
                        f"({len(cold)}/{self.plan.num_shards} shards)"
                    ),
                )
                for s, release in zip(cold, fresh):
                    self.cache.put(keys[s], release)
                    shard_releases[s] = release
                self.materializations += 1
                self.shard_builds += len(cold)
            # The assembled release is recorded before the (fallible)
            # store writes: once ε is charged the release must survive a
            # persist failure in memory, so no retry can ever rebuild —
            # and therefore re-charge — what was already paid for.
            assembled = ShardedRelease(
                self.plan,
                shard_releases,
                dataset_fingerprint=self.fingerprint,
            )
            self._releases[identity] = assembled
            if fresh:
                self._persist_shards_locked(fresh)
            return assembled, built

    def _persist_shards_locked(self, releases: list[MaterializedRelease]) -> None:
        """Write fresh shard artifacts to the store, queueing failures.

        A failing write raises (durability loss must be loud) but the
        unwritten remainder is parked in :attr:`_unpersisted` and retried
        on the next request — mirroring the monolithic cache's persist
        contract: the ε was charged exactly once and is never re-spent.
        """
        if self.cache.store is None:
            return
        pending = list(releases)
        while pending:
            try:
                self.cache.store.put(pending[0])
            except BaseException:
                self._unpersisted.extend(pending)
                raise
            pending.pop(0)

    def _flush_unpersisted_locked(self) -> None:
        """Retry store writes that failed after their ε was charged.

        The caller must hold the materialize lock; a failing retry
        re-parks the remainder (via :meth:`_persist_shards_locked`) and raises.
        """
        if not self._unpersisted:
            return
        pending, self._unpersisted = self._unpersisted, []
        self._persist_shards_locked(pending)

    # -- serving ---------------------------------------------------------------

    def uncertainty_model(
        self, estimator: str, shard_epsilons, branching: int
    ) -> UncertaintyModel:
        """The (cached) composite uncertainty model for one shard set.

        Variance composes across shard pieces exactly as counts do: each
        shard's model covers its local domain at its own ε, and a query's
        variance is the sum over its per-shard pieces.
        Homogeneous additive shard models collapse to one global model,
        making the reported variance independent of the shard count.
        """
        epsilons = tuple(float(value) for value in shard_epsilons)
        key = (canonical_estimator_name(estimator), epsilons, int(branching))
        model = self._uncertainty_models.get(key)
        if model is None:
            model = composite_uncertainty_model(
                self.plan.starts,
                self.domain_size,
                key[0],
                epsilons,
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
        """Answer a batch of range queries through the shard router.

        Same contract as :meth:`HistogramEngine.submit`: the first
        submission for a release identity pays the ε and build cost,
        every later one is pure post-processing at prefix-sum speed, and
        ``with_accuracy`` (or a configured SLO) attaches per-answer
        variance/CI columns scored on the composite uncertainty model.
        """
        if isinstance(batch, RangeWorkload):
            batch = QueryBatch.from_workload(batch)
        build_start = perf_counter()
        release, built = self._materialize(estimator, epsilon, branching, seed)
        answer_start = perf_counter()
        answers = self.router.answer(release, batch)
        answer_seconds = perf_counter() - answer_start
        build_seconds = answer_start - build_start
        self.stats.record_batch(
            len(batch), answer_seconds, build_seconds=build_seconds, cold=built
        )
        if obs.enabled():
            record_submit_metrics(
                "sharded", len(batch), answer_seconds, build_seconds, built
            )
        variances = ci_los = ci_his = confidence = None
        if with_accuracy or (with_accuracy is None and self.slo is not None):
            model = self.uncertainty_model(
                release.estimator, release.shard_epsilons, release.branching
            )
            variances, ci_los, ci_his, confidence = score_batch_accuracy(
                model, batch, answers, self.slo, self.accuracy, "sharded"
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

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"ShardedHistogramEngine(domain_size={self.domain_size}, "
            f"num_shards={self.num_shards}, workers={self.workers}, "
            f"worker_mode={self.worker_mode!r}, "
            f"spent_epsilon={self.spent_epsilon:g})"
        )
