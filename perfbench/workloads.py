"""The benchmark's four workloads, driven through the public ``EngineFleet``.

Every workload is a closed loop: one client thread issues an operation,
waits for its answer, and only then issues the next.  That matches the
system, whose engines answer synchronously in the caller's thread with
no request queue.

A run has the same shape on every workload:

1. **Set-up**, repeated ``setups`` times from scratch (a fresh fleet,
   fresh tenants, the first build or epoch, a warm worker pool); the
   last fleet is kept.  ``setup_s`` is the median.
2. **Rounds**, a fixed number per workload.  Each round runs one build —
   a cold H̄ build with a fresh seed on a static tenant, or one ingest
   plus ``advance_epoch`` on a stream — and then slices of warm traffic:
   points (batch size 1), 100k-query batches and SLO-scored points.  The
   point and batch slices share ``--seconds`` between them; scored points
   run a fixed number of whole cycles over their query set.  The build
   count, and with it every released value, depends on the seed alone.
   Rounds end with ``restarts`` spread evenly over them: each builds a
   new fleet that resumes the tenant at zero ε, against the live store,
   and is gated against the live fleet's answers.  Spreading every phase
   over every round means slow drift of the machine shifts all metrics
   alike instead of whichever phase it hit.
3. **Gates** on answers and ε, checked outside every timed region.

Static tenants rotate warm traffic over several resident releases with
distinct seeds, so no metric hangs on the memory placement of one
release; a stream reads a new release every epoch anyway.

Tails resist bursts of load from outside the process: ``point_p90_us``
is the median over rounds of each round's p90.  Builds have no percentile
tail: a stream's slowest epochs are those whose fsyncs stalled, and how
often the disk stalls changes from run to run far more than anything the
program does.  ``epoch_late_p50_ms`` instead is the median over the last
quarter of the builds (at least 3): a stream's freshness once its lineage
has grown, set against ``epoch_p50_ms`` over all of them.

``range_mae`` is the mean, over every release the run published, of the
mean |answer − truth| over a fixed seeded set of ranges; averaging over
independent noise draws keeps its seed-to-seed spread small, and it is
bit-identical for a given seed.  ``peak_rss_bytes_per_leaf`` is peak RSS
less the RSS after imports and input generation, over the leaves held by
resident releases (cache entries plus assembled sharded releases).

Every workload reports every end-to-end metric, so a workload reports
its nearest analogue for a metric that has no direct meaning there:

* ``epoch_*`` on a static tenant: publishing fresher data there means a
  new release, so its epoch times are its cold-build times;
* ``cold_p50_ms`` on a stream: a stream's releases are built cold only
  by its epochs, so its cold-build times are its epoch times;
* ``scored_p50_ms`` on a stream: SLO-scored points on a static tenant
  over the stream's base counts with the stream's layout (for the
  monolithic stream it shares epoch 0's release through the cache);
* ``restart_p50_ms`` on a static tenant without a store: a new fleet over
  the old fleet's release cache re-registers the tenant and answers its
  first point from the cache, at zero ε.
"""

from __future__ import annotations

import gc
import math
import os
import resource
import sys
import traceback
from dataclasses import dataclass, field, replace
from time import perf_counter

import numpy as np

from repro.accuracy.slo import AccuracySLO
from repro.data import NetTraceGenerator, arrival_stream
from repro.serving import EngineFleet, MaterializedRelease, QueryBatch, ReleaseStore
from repro.sharding import shutdown_worker_pools
from repro.sharding.pool import resolve_worker_mode, warm_worker_pool
from repro.streaming import FixedEpsilonSchedule

#: ε of every build and epoch; budgets are sized so none is ever refused.
EPSILON = 1.0
#: Target CI halfwidth of the scored tenant; scoring cost does not depend on it.
SLO = AccuracySLO(target_ci_halfwidth=1000.0)
#: Shares of ``--seconds`` given to each warm phase.
WARM_SHARES = {"point": 0.55, "batch": 0.45}
PHASES = ("setup", "cold", "epoch", "point", "batch", "scored", "restart")
TENANT = "tenant"
SCORED = "scored"


@dataclass(frozen=True)
class Sizes:
    domain_bits: int
    hosts: int
    shard_bits: int | None = None
    #: resident releases that warm traffic rotates over (static tenants)
    rotation: int = 1
    #: rounds: one cold build or one epoch each
    rounds: int = 10
    setups: int = 3
    #: restarts, spread evenly over the rounds
    restarts: int = 20
    #: distinct pre-generated point queries, and the smaller set scored
    #: points cycle through (scoring cost grows with range length, so a
    #: short cycle of fixed lengths keeps its median independent of seed)
    points: int = 4096
    scored_points: int = 16
    scored_cycles: int = 3
    #: least number of timed points per run (sub-ms samples need ≥10k)
    min_points: int = 10_000
    #: queries per batch, and distinct batches to rotate over
    batch_group: int = 100_000
    batches: int = 4
    #: back-to-back submits timed as one batch sample, so a sample of a
    #: sub-millisecond batch still lasts over a millisecond
    batch_reps: int = 1
    #: ranges in the fixed accuracy-check set
    check: int = 100_000
    #: rows per ingest and per-shard refresh threshold (streams)
    arrivals: int = 0
    refresh_rows: int = 1
    #: arrival skew: the hot set's share of the domain and of the rows,
    #: and how far it moves per ingest (shares of the domain)
    hot_fraction: float = 0.1
    hot_weight: float = 0.7
    drift: float = 0.0

    @property
    def domain(self) -> int:
        return 1 << self.domain_bits

    @property
    def shard_size(self) -> int | None:
        return None if self.shard_bits is None else 1 << self.shard_bits


@dataclass(frozen=True)
class Workload:
    name: str
    stream: bool
    sharded: bool
    full: Sizes
    why: str

    def sizes(self, scale: str) -> Sizes:
        if scale == "full":
            return self.full
        return replace(
            self.full,
            domain_bits=12 if self.full.domain_bits > 16 else 10,
            hosts=300,
            shard_bits=None if self.full.shard_bits is None else self.full.shard_bits - 8,
            rounds=3,
            setups=2,
            restarts=2,
            points=64,
            scored_points=4,
            scored_cycles=3,
            min_points=50,
            batch_group=1000,
            batches=2,
            check=1000,
            arrivals=max(1, self.full.arrivals // 50),
            refresh_rows=max(1, self.full.refresh_rows // 50),
        )


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "serve-mono",
            stream=False,
            sharded=False,
            full=Sizes(domain_bits=20, hosts=65_000, rotation=6, rounds=10, setups=5),
            why="monolithic H-bar at 2^20: cold build is mechanism plus inference, "
            "warm time is the planner; bypasses router, pool, store and lineage",
        ),
        Workload(
            "serve-sharded",
            stream=False,
            sharded=True,
            full=Sizes(
                domain_bits=20, hosts=65_000, shard_bits=12, rotation=4, rounds=6,
                setups=5, restarts=18, min_points=0,
            ),
            why="256 shards of 2^12: per-request shard-key derivation and the "
            "grouped router gather dominate warm reads",
        ),
        Workload(
            "stream-epochs",
            stream=True,
            sharded=False,
            full=Sizes(
                domain_bits=16, hosts=16_000, rounds=200, setups=5, batch_reps=4,
                restarts=40, scored_cycles=25,
                arrivals=2_000, drift=0.002,
            ),
            why="monolithic stream at 2^16 with a durable store: per-epoch "
            "fingerprint, fsynced write and whole-file lineage rewrite",
        ),
        Workload(
            "stream-sharded",
            stream=True,
            sharded=True,
            full=Sizes(
                domain_bits=20, hosts=65_000, shard_bits=14, rounds=40,
                arrivals=20_000, refresh_rows=2_000, hot_fraction=1 / 16,
                hot_weight=0.9, drift=0.002,
            ),
            why="64 shards of 2^14 with partial refresh: sharded lineage, "
            "process pool and shard store writes",
        ),
    )
}


# -- load generator -------------------------------------------------------------


@dataclass
class Phase:
    """Operations of one phase: counts, latencies, and traced request ids."""

    attempted: int = 0
    succeeded: int = 0
    failed: int = 0
    latencies: list = field(default_factory=list)
    requests: list = field(default_factory=list)
    #: index into ``latencies`` where each round's operations begin
    round_starts: list = field(default_factory=list)

    def per_round(self, q: float) -> float:
        """The median over rounds of the ``q``-th percentile within a round.

        A burst of contention from outside moves one round's figure, not
        the median of them all.
        """
        bounds = self.round_starts + [len(self.latencies)]
        return float(np.median([
            np.percentile(self.latencies[a:b], q) for a, b in zip(bounds, bounds[1:]) if b > a
        ]))


class LoadGen:
    """The single client: times operations, counts failures, keeps gates."""

    def __init__(self, tracer=None) -> None:
        self.tracer = tracer
        self.phases = {name: Phase() for name in PHASES}
        self.gates: list[tuple[str, bool, str]] = []
        self.cache_hits = 0
        self.cache_misses = 0

    @property
    def attempted(self) -> int:
        return sum(phase.attempted for phase in self.phases.values())

    @property
    def failed(self) -> int:
        return sum(phase.failed for phase in self.phases.values())

    def timed(self, phase: str, op, *, prepare=None, reps: int = 1, traced: bool = True):
        """Run ``op`` once as one operation of ``phase``; return its result.

        ``prepare`` runs inside the operation's trace request but outside
        its latency.  An exception counts as a failure, is reported on
        standard error, and yields ``None``.
        """
        stats = self.phases[phase]
        stats.attempted += 1
        root = None
        if traced and self.tracer is not None:
            root = self.tracer.begin_request(phase)
            stats.requests.append(self.tracer.request)
        try:
            if prepare is not None:
                prepare()
            start = perf_counter()
            result = op()
            elapsed = perf_counter() - start
        except Exception:
            stats.failed += 1
            traceback.print_exc(file=sys.stderr)
            return None
        finally:
            if root is not None:
                self.tracer.end_request(root)
        stats.succeeded += 1
        stats.latencies.append(elapsed / reps)
        return result

    def collect(self) -> None:
        """Collect garbage before a timed operation or phase.

        A traced run collects only the young generations: a full
        collection would rescan every span recorded so far, and a run
        makes hundreds of them, so its time would grow with the square of
        its length.
        """
        gc.collect(1 if self.tracer is not None else 2)

    def slice(self, phase: str, ops, *, warmup, seconds: float = 0.0, least: int = 1, reps: int = 1):
        """Run ``warmup`` untimed, then time ``ops`` items until both
        ``seconds`` have passed and ``least`` operations ran.

        An operation of ``reps`` submits records its mean latency.
        Returns the last successful result.
        """
        self.collect()
        try:
            warmup()
        except Exception:
            self.phases[phase].attempted += 1
            self.phases[phase].failed += 1
            traceback.print_exc(file=sys.stderr)
        last = None
        done = 0
        deadline = perf_counter() + seconds
        while done < least or perf_counter() < deadline:
            result = self.timed(phase, next(ops), reps=reps)
            if result is not None:
                last = result
            done += 1
        return last

    def hit(self, from_cache: bool) -> None:
        """Count a warm submit by the ``from_cache`` flag of its result."""
        if from_cache:
            self.cache_hits += 1
        else:
            self.cache_misses += 1

    def gate(self, name: str, ok: bool, detail: str = "") -> None:
        self.gates.append((name, bool(ok), detail))
        if not ok:
            print(f"gate failed: {name}: {detail}", file=sys.stderr)


# -- inputs ---------------------------------------------------------------------


@dataclass
class Inputs:
    counts: np.ndarray
    points: list
    scored_points: list
    batches: list
    check: QueryBatch
    release_seeds: list
    stream_seed: int
    arrivals: list


def make_inputs(workload: Workload, sizes: Sizes, seed: int) -> Inputs:
    """Every input of the run, derived from ``seed`` alone."""
    data_seq, query_seq, arrival_seq, release_seq = np.random.SeedSequence(seed).spawn(4)
    counts = NetTraceGenerator(sizes.hosts, sizes.domain_bits).generate(
        np.random.default_rng(data_seq)
    ).counts
    queries = np.random.default_rng(query_seq)
    points = stratified_points(sizes.domain, sizes.points, queries)
    scored_points = stratified_points(sizes.domain, sizes.scored_points, queries)
    batches = [
        QueryBatch.random(sizes.domain, sizes.batch_group, rng=queries, name="batch")
        for _ in range(sizes.batches)
    ]
    check = QueryBatch.random(sizes.domain, sizes.check, rng=queries, name="check")
    release_rng = np.random.default_rng(release_seq)
    release_seeds = [
        int(s) for s in release_rng.choice(1 << 31, size=sizes.rotation + sizes.rounds, replace=False)
    ]
    arrivals = []
    if workload.stream:
        arrivals = list(
            arrival_stream(
                sizes.domain,
                sizes.arrivals,
                sizes.rounds,
                hot_fraction=sizes.hot_fraction,
                hot_weight=sizes.hot_weight,
                drift=sizes.drift,
                rng=np.random.default_rng(arrival_seq),
            )
        )
    return Inputs(
        counts=counts,
        points=points,
        scored_points=scored_points,
        batches=batches,
        check=check,
        release_seeds=release_seeds,
        stream_seed=int(release_rng.integers(1 << 31)),
        arrivals=arrivals,
    )


def stratified_points(domain: int, count: int, rng) -> list:
    """``count`` single-range batches, lengths at evenly spaced quantiles.

    Every seed gets the same multiset of lengths, uniform over
    ``[1, domain]``; the seed only shuffles them and places each range.
    """
    lengths = 1 + ((np.arange(count) + 0.5) / count * (domain - 1)).astype(np.int64)
    rng.shuffle(lengths)
    los = (rng.random(count) * (domain - lengths + 1)).astype(np.int64)
    his = los + lengths - 1
    return [QueryBatch(los[i : i + 1], his[i : i + 1], name="point") for i in range(count)]


def prefix_of(leaves: np.ndarray) -> np.ndarray:
    """The prefix array a release over ``leaves`` answers from."""
    return np.concatenate(([0.0], np.cumsum(leaves)))


def range_answers(prefix: np.ndarray, batch: QueryBatch) -> np.ndarray:
    return prefix[batch.his + 1] - prefix[batch.los]


def current_rss() -> int:
    with open("/proc/self/statm", encoding="ascii") as handle:
        return int(handle.read().split()[1]) * os.sysconf("SC_PAGE_SIZE")


def peak_rss() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024


def percentile(values, q: float) -> float:
    return float(np.percentile(values, q)) if values else math.nan


def late_median(values) -> float:
    """The median of the last quarter of ``values``, and of at least 3."""
    return percentile(values[-max(3, len(values) // 4):], 50)


def sequential_sum(values) -> float:
    total = 0.0
    for value in values:
        total += value
    return total


# -- runs -----------------------------------------------------------------------


def operations(call, queries, reps: int = 1):
    """Endless warm operations cycling through ``queries``.

    Operation ``k`` calls ``call(query, i)`` for ``reps`` consecutive
    queries (``i`` counts queries issued) and returns ``(result, query)``
    of the last one.
    """
    issued = 0
    while True:
        group = [(queries[(issued + j) % len(queries)], issued + j) for j in range(reps)]
        issued += reps

        def op(group=group):
            result = None
            for query, i in group:
                result = call(query, i)
            return result, group[-1][0]

        yield op


class Run:
    """What every workload does: set-ups, rounds of build plus warm traffic,
    restarts, and the gates around them.  Subclasses supply the tenants."""

    def __init__(self, workload, sizes, inputs, loadgen, seconds, scratch) -> None:
        self.w, self.sizes, self.inputs, self.lg = workload, sizes, inputs, loadgen
        self.seconds = seconds
        self.scratch = scratch
        self.maes: list[float] = []
        self.setups = 0
        self.restarts = 0

    def run(self) -> dict:
        lg, sizes = self.lg, self.sizes
        setups = []
        fleet = None
        for _ in range(sizes.setups):
            fleet = None  # free the previous set-up before the next
            lg.collect()
            self.setups += 1
            fleet = lg.timed("setup", self.new_fleet, traced=False)
            setups.append(lg.phases["setup"].latencies[-1] if fleet else math.nan)
        if fleet is None:
            raise RuntimeError("set-up failed")
        self.fleet = fleet
        self.before_rounds()

        tenants = self.tenants(fleet)
        point_call, batch_call, scored_call = self.calls()
        inputs = self.inputs
        points = operations(point_call, inputs.points)
        batches = operations(batch_call, inputs.batches, sizes.batch_reps)
        scored = operations(scored_call, inputs.scored_points)
        per_round = self.seconds / sizes.rounds
        scored_total = sizes.scored_points * sizes.scored_cycles
        warm_spent = warm_builds = 0
        for r in range(sizes.rounds):
            lg.collect()
            self.build_round(r)
            lg.phases["point"].round_starts.append(len(lg.phases["point"].latencies))
            spent = [t.spent_epsilon for t in tenants]
            built = [t.materializations for t in tenants]
            lg.slice(
                "point", points,
                warmup=lambda: point_call(inputs.points[0], 0),
                seconds=per_round * WARM_SHARES["point"],
                least=-(-sizes.min_points // sizes.rounds),
            )
            last = lg.slice(
                "batch", batches,
                warmup=lambda: batch_call(inputs.batches[0], 0),
                seconds=per_round * WARM_SHARES["batch"],
                reps=sizes.batch_reps,
            )
            # Whole cycles of the scored set, spread evenly over the rounds.
            lg.slice(
                "scored", scored,
                warmup=lambda: scored_call(inputs.scored_points[0], 0),
                least=scored_total * (r + 1) // sizes.rounds - scored_total * r // sizes.rounds,
            )
            warm_spent += sum(t.spent_epsilon for t in tenants) - sum(spent)
            warm_builds += sum(t.materializations for t in tenants) - sum(built)
            self.after_round(last)
            self.restart_round(
                sizes.restarts * (r + 1) // sizes.rounds - sizes.restarts * r // sizes.rounds
            )
        lg.gate("warm_spends_zero_epsilon", warm_spent == 0, f"{warm_spent!r}")
        lg.gate("warm_builds_nothing", warm_builds == 0, f"{warm_builds}")
        self.check_epsilon()
        resident = sum(fleet.cache.get(key).domain_size for key in fleet.cache.keys())
        return {
            "setup_s": setups,
            "build_ms": [1e3 * s for s in lg.phases[self.build_phase].latencies],
            "resident_leaves": resident + self.assembled_leaves(),
            "range_mae": float(np.mean(self.maes)),
        }

    def restart_round(self, count: int) -> None:
        """Time ``count`` restarts against the live store; gate each one."""
        if not count:
            return
        lg = self.lg
        reference = self.read(self.fleet, self.inputs.check)
        for _ in range(count):
            lg.collect()
            i = self.restarts
            self.restarts += 1
            restarted = lg.timed("restart", lambda: self.restart(i))
            if restarted is None:
                continue
            tenant = self.tenants(restarted)[0]
            lg.gate(
                "restart_spends_zero_epsilon",
                tenant.spent_epsilon == 0.0 and tenant.materializations == 0,
                f"restart {i}: {tenant.spent_epsilon!r}",
            )
            lg.gate(
                "restart_answers_match",
                np.array_equal(self.read(restarted, self.inputs.check), reference),
                f"restart {i}",
            )
            restarted.unregister(TENANT)

    def add_mae(self, prefix: np.ndarray, truth_prefix: np.ndarray) -> None:
        check = self.inputs.check
        self.maes.append(
            float(np.mean(np.abs(range_answers(prefix, check) - range_answers(truth_prefix, check))))
        )

    def gate_answers(self, result, batch, leaves: np.ndarray, where: str) -> np.ndarray:
        """Gate that answers equal the prefix sums of ``leaves`` and, when
        sharded, a monolithic release over the assembled leaves; return
        the prefix array."""
        prefix = prefix_of(leaves)
        self.lg.gate(
            "answers_are_prefix_sums",
            np.array_equal(result.answers, range_answers(prefix, batch)),
            where,
        )
        if self.w.sharded:
            mono = MaterializedRelease(
                leaves, estimator="H_bar", epsilon=EPSILON, dataset_fingerprint="assembled"
            )
            self.lg.gate(
                "sharded_equals_monolithic",
                np.array_equal(result.answers, mono.range_sums(batch.los, batch.his)),
                where,
            )
        return prefix


class Serve(Run):
    """``serve-mono`` and ``serve-sharded``: static H̄ tenants without a store.

    Rounds build a fresh-seed release cold; warm traffic rotates over the
    first ``rotation`` releases, which stay resident.
    """

    build_phase = "cold"

    def __init__(self, *args) -> None:
        super().__init__(*args)
        self.truth = prefix_of(self.inputs.counts)
        self.rotation = self.inputs.release_seeds[: self.sizes.rotation]
        self.fresh = iter(self.inputs.release_seeds[1:])
        self.builds = 0

    def register(self, fleet: EngineFleet, name: str, slo=None):
        # One build thread: the kernels hold the GIL, so a second thread
        # adds no core, only sensitivity to load on the machine's other CPU.
        if self.w.sharded:
            return fleet.register_sharded(
                name, self.inputs.counts, 1e9, shard_size=self.sizes.shard_size,
                workers=1, slo=slo,
            )
        return fleet.register(name, self.inputs.counts, 1e9, slo=slo)

    def new_fleet(self) -> EngineFleet:
        seed, point = self.rotation[0], self.inputs.points[0]
        per_release = self.sizes.domain // (self.sizes.shard_size or self.sizes.domain)
        fleet = EngineFleet(cache_capacity=per_release * (self.sizes.rotation + 2))
        self.register(fleet, TENANT)
        first = fleet.submit(TENANT, point, epsilon=EPSILON, seed=seed)
        self.register(fleet, SCORED, slo=SLO)
        scored = fleet.submit(SCORED, point, epsilon=EPSILON, seed=seed)
        if first.from_cache or not scored.from_cache:
            raise RuntimeError("set-up expected one cold build shared by both tenants")
        return fleet

    @staticmethod
    def tenants(fleet: EngineFleet):
        tenants = [fleet.engine(TENANT)]
        return tenants + [fleet.engine(SCORED)] if SCORED in fleet else tenants

    def before_rounds(self) -> None:
        self.builds = 1
        self.check_release(self.rotation[0])
        for _ in range(self.sizes.rotation - 1):
            self.build_round(None)
        for seed in self.rotation:
            # The scored tenant adopts every resident release while its
            # shards are still cached, so warm scoring never builds.
            self.fleet.submit(SCORED, self.inputs.points[0], epsilon=EPSILON, seed=seed)

    def build_round(self, r) -> None:
        seed = next(self.fresh)
        point = self.inputs.points[self.builds % len(self.inputs.points)]

        def cold():
            result = self.fleet.submit(TENANT, point, epsilon=EPSILON, seed=seed)
            if result.from_cache:
                raise RuntimeError(f"seed {seed} was expected to build cold")
            return result

        self.lg.collect()
        if self.lg.timed("cold", cold) is not None:
            self.builds += 1
        self.check_release(seed)
        self.last_seed = seed

    def check_release(self, seed: int) -> None:
        """Gate one release's answers and add its accuracy to ``range_mae``."""
        check = self.inputs.check
        leaves = self.fleet.materialize(TENANT, epsilon=EPSILON, seed=seed).unit_counts()
        result = self.fleet.submit(TENANT, check, epsilon=EPSILON, seed=seed)
        self.add_mae(self.gate_answers(result, check, leaves, f"seed {seed}"), self.truth)

    def calls(self):
        fleet, rotation = self.fleet, self.rotation

        def call(tenant):
            def submit(query, i):
                result = fleet.submit(tenant, query, epsilon=EPSILON, seed=rotation[i % len(rotation)])
                self.lg.hit(result.from_cache)
                return result

            return submit

        return call(TENANT), call(TENANT), call(SCORED)

    def after_round(self, last) -> None:
        pass

    def check_epsilon(self) -> None:
        engine, scored = self.tenants(self.fleet)
        expected = sequential_sum([EPSILON] * self.builds)
        self.lg.gate(
            "epsilon_equals_schedule",
            engine.spent_epsilon == expected and scored.spent_epsilon == 0.0,
            f"{engine.spent_epsilon!r} vs {expected!r}; scored {scored.spent_epsilon!r}",
        )

    def read(self, fleet: EngineFleet, batch) -> np.ndarray:
        """Answers from the release the restarts resume: the last one built."""
        return fleet.submit(TENANT, batch, epsilon=EPSILON, seed=self.last_seed).answers

    def restart(self, i: int) -> EngineFleet:
        """A new fleet over the old cache re-registers and answers from it."""
        restarted = EngineFleet(cache=self.fleet.cache)
        self.register(restarted, TENANT)
        restarted.submit(TENANT, self.inputs.points[i], epsilon=EPSILON, seed=self.last_seed)
        return restarted

    def assembled_leaves(self) -> int:
        if not self.w.sharded:
            return 0
        # Sharded engines hold every release they assembled: the tenant
        # all it built, the scored tenant the rotation.
        return self.sizes.domain * (self.builds + self.sizes.rotation)


class Stream(Run):
    """``stream-epochs`` and ``stream-sharded``: streams over a durable store.

    Rounds ingest one arrival batch and advance one epoch; warm traffic
    reads the epoch just published.
    """

    build_phase = "epoch"

    def __init__(self, *args) -> None:
        super().__init__(*args)
        self.schedule = FixedEpsilonSchedule(EPSILON)
        self.workers = 2
        self.truth_counts = self.inputs.counts.copy()

    def store_dir(self) -> str:
        return os.path.join(self.scratch, f"store-{self.setups}")

    def open_fleet(self) -> EngineFleet:
        per_release = self.sizes.domain // (self.sizes.shard_size or self.sizes.domain)
        # Room for the resident set to outweigh transient allocations in
        # peak_rss_bytes_per_leaf: 64 monolithic epochs, or three shard sets.
        return EngineFleet(store=ReleaseStore(self.store_dir()), cache_capacity=2 * per_release + 64)

    def register_stream(self, fleet: EngineFleet, counts):
        total = EPSILON * (self.sizes.rounds + 1)
        if self.w.sharded:
            return fleet.register_sharded_stream(
                TENANT, counts, total, schedule=self.schedule, seed=self.inputs.stream_seed,
                shard_size=self.sizes.shard_size, refresh_rows=self.sizes.refresh_rows,
                workers=self.workers,
            )
        return fleet.register_stream(
            TENANT, counts, total, schedule=self.schedule, seed=self.inputs.stream_seed
        )

    def new_fleet(self) -> EngineFleet:
        if self.w.sharded:
            shutdown_worker_pools()
            mode = resolve_worker_mode("auto", workers=self.workers, shard_width=self.sizes.shard_size)
            if mode == "process":
                warm_worker_pool(self.workers)
        fleet = self.open_fleet()
        self.register_stream(fleet, self.inputs.counts)
        if self.w.sharded:
            fleet.register_sharded(
                SCORED, self.inputs.counts, 1e9, shard_size=self.sizes.shard_size,
                workers=self.workers, slo=SLO,
            )
        else:
            fleet.register(SCORED, self.inputs.counts, 1e9, slo=SLO)
        fleet.submit(SCORED, self.inputs.points[0], epsilon=EPSILON, seed=self.inputs.stream_seed)
        return fleet

    @staticmethod
    def tenants(fleet: EngineFleet):
        tenants = [fleet.stream(TENANT)]
        return tenants + [fleet.engine(SCORED)] if SCORED in fleet else tenants

    def before_rounds(self) -> None:
        self.scored_spent = self.fleet.engine(SCORED).spent_epsilon
        self.add_mae(prefix_of(self.published_leaves()), prefix_of(self.truth_counts))

    def build_round(self, r: int) -> None:
        rows = self.inputs.arrivals[r]
        fleet = self.fleet
        record = self.lg.timed(
            "epoch",
            lambda: fleet.advance_epoch(TENANT),
            prepare=lambda: fleet.ingest(TENANT, rows),
        )
        self.truth_counts += np.bincount(rows, minlength=self.sizes.domain)
        self.lg.gate(
            "epoch_published",
            record is not None and fleet.stream(TENANT).epoch == r + 1,
            f"round {r}",
        )

    def published_leaves(self) -> np.ndarray:
        stream = self.fleet.stream(TENANT)
        if not self.w.sharded:
            return stream.release_for_epoch(stream.epoch).unit_counts()
        parts = []
        for key in stream.lineage.latest.shard_keys:
            release = self.fleet.cache.get(key)
            if release is None:
                release = self.fleet.cache.store.get(key)
            parts.append(release.unit_counts())
        return np.concatenate(parts)

    def calls(self):
        fleet, seed = self.fleet, self.inputs.stream_seed

        def read(query, i):
            return fleet.submit_stream(TENANT, query)

        def scored(query, i):
            # Stream reads carry no cache flag; the scored tenant's do.
            result = fleet.submit(SCORED, query, epsilon=EPSILON, seed=seed)
            self.lg.hit(result.from_cache)
            return result

        return read, read, scored

    def after_round(self, last) -> None:
        leaves = self.published_leaves()
        if last is None:  # every batch of the round failed, and counted so
            prefix = prefix_of(leaves)
        else:
            result, batch = last
            prefix = self.gate_answers(result, batch, leaves, f"epoch {result.epoch}")
        self.add_mae(prefix, prefix_of(self.truth_counts))

    def check_epsilon(self) -> None:
        stream, scored = self.tenants(self.fleet)
        expected = self.schedule.total_through(stream.epoch)
        self.lg.gate(
            "epsilon_equals_schedule",
            stream.spent_epsilon == expected
            and stream.lineage.spent_epsilon == expected
            and scored.spent_epsilon == self.scored_spent,
            f"{stream.spent_epsilon!r} / {stream.lineage.spent_epsilon!r} vs {expected!r}",
        )

    @staticmethod
    def read(fleet: EngineFleet, batch) -> np.ndarray:
        return fleet.submit_stream(TENANT, batch).answers

    def restart(self, i: int) -> EngineFleet:
        """A new fleet over the same store resumes the stream at zero ε."""
        restarted = self.open_fleet()
        self.register_stream(restarted, self.truth_counts)
        restarted.submit_stream(TENANT, self.inputs.points[i])
        return restarted

    def assembled_leaves(self) -> int:
        # The published assembly of the sharded stream and scored tenant.
        return 2 * self.sizes.domain if self.w.sharded else 0


# -- entry point ----------------------------------------------------------------


def stop_worker_processes() -> None:
    """Stop every process the run started, and wait for each to end.

    The spawn pool's workers are joined by ``shutdown_worker_pools``.  The
    first spawn pool also starts multiprocessing's resource tracker, which
    would otherwise outlive this process; it is stopped and reaped here,
    once the pools' semaphores are collected (a later unregister would
    start it again).
    """
    shutdown_worker_pools()
    gc.collect()
    from multiprocessing import resource_tracker

    stop = getattr(getattr(resource_tracker, "_resource_tracker", None), "_stop", None)
    if stop is not None:
        stop()


def run_workload(name, seed, seconds, scale, scratch, tracer=None):
    """Run one workload; return ``(loadgen, workload, sizes, metrics)``.

    ``metrics`` maps every end-to-end metric name to ``(value, unit)``.
    """
    workload = WORKLOADS[name]
    sizes = workload.sizes(scale)
    inputs = make_inputs(workload, sizes, seed)
    # Long-lived inputs and imported modules move to the permanent
    # generation, so the collections before each phase stay cheap.
    gc.collect()
    gc.freeze()
    base_rss = current_rss()
    loadgen = LoadGen(tracer)
    runner = Stream if workload.stream else Serve
    try:
        out = runner(workload, sizes, inputs, loadgen, seconds, scratch).run()
    finally:
        stop_worker_processes()
    phases = loadgen.phases
    batch = phases["batch"].latencies
    # A static tenant publishes fresher data only through a new release,
    # and a stream builds cold only through its epochs: one set of build
    # times serves both the cold and the epoch metrics.
    build = out["build_ms"]
    metrics = {
        "setup_s": (float(np.median(out["setup_s"])), "s"),
        "cold_p50_ms": (percentile(build, 50), "ms"),
        "point_p50_us": (1e6 * phases["point"].per_round(50), "us"),
        "point_p90_us": (1e6 * phases["point"].per_round(90), "us"),
        "batch_qps": (sizes.batch_group / float(np.median(batch)) if batch else math.nan, "queries/s"),
        "scored_p50_ms": (percentile([1e3 * s for s in phases["scored"].latencies], 50), "ms"),
        "epoch_p50_ms": (percentile(build, 50), "ms"),
        "epoch_late_p50_ms": (late_median(build), "ms"),
        "restart_p50_ms": (percentile([1e3 * s for s in phases["restart"].latencies], 50), "ms"),
        "peak_rss_bytes_per_leaf": ((peak_rss() - base_rss) / out["resident_leaves"], "bytes"),
        "range_mae": (out["range_mae"], "count"),
    }
    return loadgen, workload, sizes, metrics
