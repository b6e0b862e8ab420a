"""Span recording and the timing shims of the traced run.

The traced run measures each layer from outside: :func:`install_shims`
replaces the public entry points of every layer with thin wrappers that
open and close a span around the original call.  Methods are patched on
their classes and module functions where their callers look them up, so
nothing under ``src/`` changes.  :meth:`ShimSet.restore` puts every
original back, and :func:`assert_no_shims` lets the untraced run prove
that it measures unpatched code.

Spans live in memory as ``[name, start, end, parent, request, thread]``
lists and are written out once, at the end of the run.  A layer's self
time is its span's duration minus the durations of its direct children
in the same thread.  Spans opened on pool threads are roots of their own
thread: they are attributed to the request that was current when they
opened, but never subtracted from a main-thread parent.  Spawned worker
processes import the code afresh and carry no shims.
"""

from __future__ import annotations

import functools
import gzip
import json
import os
import threading
from collections import Counter, defaultdict
from time import perf_counter

SHIM_MARK = "__perfbench_shim__"


class Tracer:
    """Collects spans and counters, tagged with the current request id."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        #: (request, counter name, amount, innermost open span name)
        self.counts: list[tuple] = []
        #: (request, kind, payload) items resolved after the run ends
        self.deferred: list[tuple] = []
        #: the request spans are attributed to; 0 outside timed operations
        self.request = 0
        #: each request's root span, by request id
        self.roots: dict[int, list] = {}
        #: closes of a span that was not the innermost open one
        self.misnested = 0
        self._issued = 0
        self.main_thread = threading.get_ident()
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str) -> list:
        stack = self._stack()
        span = [
            name,
            perf_counter(),
            None,
            stack[-1] if stack else None,
            self.request,
            threading.get_ident(),
        ]
        self.spans.append(span)
        stack.append(span)
        return span

    def close(self, span: list) -> None:
        span[2] = perf_counter()
        if self._stack().pop() is not span:
            self.misnested += 1

    def count(self, name: str, amount: float = 1) -> None:
        stack = self._stack()
        inside = stack[-1][0] if stack else None
        self.counts.append((self.request, name, amount, inside))

    def defer(self, kind: str, payload) -> None:
        self.deferred.append((self.request, kind, payload))

    def begin_request(self, phase: str) -> list:
        """Open the root span of a new timed operation of ``phase``."""
        self._issued += 1
        self.request = self._issued
        root = self.roots[self.request] = self.open(f"loadgen:{phase}")
        return root

    def end_request(self, root: list) -> None:
        self.close(root)
        self.request = 0

    def write(self, path: str) -> None:
        """Write every span as one gzipped JSON line: index, name, start,
        end, parent index, request, and whether it ran on the main thread."""
        index = {id(span): i for i, span in enumerate(self.spans)}
        with gzip.open(path, "wt", encoding="utf-8") as handle:
            for i, (name, start, end, parent, request, thread) in enumerate(self.spans):
                handle.write(
                    json.dumps(
                        [
                            i,
                            name,
                            start,
                            end,
                            None if parent is None else index[id(parent)],
                            request,
                            thread == self.main_thread,
                        ]
                    )
                )
                handle.write("\n")


def per_request(tracer: Tracer) -> dict[int, dict]:
    """Fold spans and counters into per-request layer totals.

    Returns ``{request: {"self": Counter, "incl": Counter, "calls":
    Counter, "counts": Counter}}`` where ``self`` sums each layer's self
    time and ``incl`` its inclusive time.  The main-thread self times of
    a request add up to its root span, whose own self time is the load
    generator's.
    """
    out: dict[int, dict] = defaultdict(
        lambda: {"self": Counter(), "incl": Counter(), "calls": Counter(), "counts": Counter()}
    )
    self_time = {}
    for span in tracer.spans:
        self_time[id(span)] = span[2] - span[1]
    for span in tracer.spans:
        parent = span[3]
        if parent is not None:
            self_time[id(parent)] -= span[2] - span[1]
    for span in tracer.spans:
        name, start, end, parent, request, thread = span
        if not request:
            continue
        layer = name.split(":", 1)[0]
        entry = out[request]
        entry["self"][layer] += self_time[id(span)]
        entry["incl"][layer] += end - start
        entry["calls"][layer] += 1
    for request, name, amount, inside in tracer.counts:
        if request:
            out[request]["counts"][name] += amount
            if name == "fsync" and inside is not None:
                out[request]["counts"][f"fsync@{inside.split(':', 1)[0]}"] += amount
    return out


def span_faults(tracer: Tracer) -> dict[str, int]:
    """Count the spans that break the tree self times are derived from.

    ``unclosed``: spans never closed.  ``misnested``: spans closed while
    not innermost, or not inside their parent's interval and request.
    ``outside_request``: spans of a request that do not lie inside that
    request's root span, pool-thread spans included.
    """
    faults = {"unclosed": 0, "misnested": tracer.misnested, "outside_request": 0}
    for name, start, end, parent, request, thread in tracer.spans:
        if end is None:
            faults["unclosed"] += 1
            continue
        if parent is not None and not (
            parent[2] is not None
            and parent[1] <= start <= end <= parent[2]
            and parent[4] == request
        ):
            faults["misnested"] += 1
        root = tracer.roots.get(request)
        if request and not (
            root is not None and root[2] is not None and root[1] <= start <= end <= root[2]
        ):
            faults["outside_request"] += 1
    return faults


class ShimSet:
    """Installed shims and the originals they replaced, restorable."""

    def __init__(self) -> None:
        self._saved: list[tuple] = []

    def patch(self, owner, attr: str, make) -> None:
        own = attr in vars(owner)
        original = getattr(owner, attr)
        shim = make(original)
        setattr(shim, SHIM_MARK, True)
        self._saved.append((owner, attr, own, vars(owner).get(attr)))
        setattr(owner, attr, shim)

    def restore(self) -> None:
        while self._saved:
            owner, attr, own, original = self._saved.pop()
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)


def _span(tracer: Tracer, name: str, after=None):
    """A shim factory: time ``original`` in a span named ``name``.

    ``after(args, kwargs, result)`` runs once the span is closed, so its
    bookkeeping is charged to the caller's self time, not the layer's.
    """

    def make(original):
        @functools.wraps(original)
        def shim(*args, **kwargs):
            span = tracer.open(name)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer.close(span)
            if after is not None:
                after(args, kwargs, result)
            return result

        return shim

    return make


def _counter(tracer: Tracer, name: str, after=None):
    """A shim factory that only counts calls (no span, no timing)."""

    def make(original):
        @functools.wraps(original)
        def shim(*args, **kwargs):
            tracer.count(name)
            result = original(*args, **kwargs)
            if after is not None:
                after(args, kwargs, result)
            return result

        return shim

    return make


def _targets(tracer: Tracer):
    """Every (owner, attribute, shim factory) the traced run installs."""
    from repro.accuracy import models
    from repro.core.pipeline import Analyst
    from repro.queries.hierarchical import HierarchicalQuery
    from repro.serving import engine as serving_engine
    from repro.serving.fleet import EngineFleet
    from repro.serving.planner import BatchQueryPlanner
    from repro.serving.release import MaterializedRelease
    from repro.serving.store import ReleaseStore
    from repro.sharding import engine as sharding_engine
    from repro.sharding import streaming as sharding_streaming
    from repro.sharding.lineage import ShardedLineage
    from repro.sharding.release import ShardedRelease
    from repro.sharding.router import ShardRouter
    from repro.streaming.buffer import IngestBuffer
    from repro.streaming.engine import StreamingHistogramEngine
    from repro.streaming.lineage import EpochLineage

    def store_written(args, kwargs, path):
        size = os.path.getsize(path) + os.path.getsize(args[0].manifest_path)
        tracer.count("store.bytes", size)

    def lineage_written(args, kwargs, result):
        if args[0].path is not None:
            tracer.count("lineage.bytes", os.path.getsize(args[0].path))

    def routed(args, kwargs, result):
        release, batch = args[1], args[2]
        tracer.defer("router_batch", (release.plan, batch))

    def ingested(args, kwargs, rows):
        tracer.count("ingest_rows", rows)

    def pool_shards(args, kwargs, releases):
        tracer.count("pool.shards", len(releases))

    def pool_outcomes(args, kwargs, outcomes):
        tracer.count("pool.busy_seconds", sum(o.seconds for o in outcomes))
        tracer.count("pool.workers", kwargs.get("workers", 1))

    span = functools.partial(_span, tracer)
    targets = [
        (HierarchicalQuery, "randomize", span("queries.randomize")),
        (Analyst, "infer_hierarchical", span("inference.infer")),
        (MaterializedRelease, "__init__", span("serving.release.index")),
        (ReleaseStore, "__init__", span("serving.store.open")),
        (ReleaseStore, "put", span("serving.store.put", store_written)),
        (ReleaseStore, "get", span("serving.store.get")),
        (EpochLineage, "append", span("streaming.lineage.append", lineage_written)),
        (EpochLineage, "_load", span("streaming.lineage.load")),
        (ShardedLineage, "append", span("sharding.lineage.append", lineage_written)),
        (ShardedLineage, "_load", span("sharding.lineage.load")),
        (ShardedRelease, "__init__", span("sharding.release.assemble")),
        (IngestBuffer, "add", span("streaming.buffer.ingest", ingested)),
        (BatchQueryPlanner, "answer", span("serving.planner.answer")),
        (ShardRouter, "answer", span("sharding.router.answer", routed)),
        (
            sharding_engine.ShardedHistogramEngine,
            "shard_keys",
            span("sharding.engine.shard_keys"),
        ),
        (
            sharding_engine,
            "run_shard_builds",
            _counter(tracer, "pool.dispatches", pool_outcomes),
        ),
        (os, "fsync", _counter(tracer, "fsync")),
    ]
    for module in (serving_engine, sharding_engine, sharding_streaming):
        targets.append(
            (module, "fingerprint_counts", span("serving.release.fingerprint"))
        )
    for module in (sharding_engine, sharding_streaming):
        targets.append(
            (module, "build_shard_releases", span("sharding.pool.build", pool_shards))
        )
        targets.append(
            (module, "derive_shard_seed", _counter(tracer, "seed_derivations"))
        )
    for model in (
        models.AdditiveUncertaintyModel,
        models.ConstrainedTreeUncertaintyModel,
        models.WaveletUncertaintyModel,
        models.CompositeUncertaintyModel,
    ):
        targets.append((model, "range_variances", span("accuracy.range_variances")))
    engines = {
        "serving.engine": (serving_engine.HistogramEngine, ("__init__", "submit")),
        "streaming.engine": (
            StreamingHistogramEngine,
            ("__init__", "submit", "ingest", "advance_epoch"),
        ),
        "sharding.engine": (
            sharding_engine.ShardedHistogramEngine,
            ("__init__", "submit"),
        ),
        "sharding.streaming": (
            sharding_streaming.ShardedStreamingEngine,
            ("__init__", "submit", "ingest", "advance_epoch"),
        ),
        "serving.fleet": (
            EngineFleet,
            (
                "__init__",
                "register",
                "register_sharded",
                "register_stream",
                "register_sharded_stream",
                "unregister",
                "submit",
                "submit_stream",
                "ingest",
                "advance_epoch",
            ),
        ),
    }
    for layer, (owner, methods) in engines.items():
        for method in methods:
            # The method rides along in the span name so fleet dispatch can
            # be told apart from registration; layers fold on the prefix.
            targets.append((owner, method, span(f"{layer}:{method}")))
    return targets


def install_shims(tracer: Tracer) -> ShimSet:
    """Patch every layer entry point to record spans into ``tracer``."""
    shims = ShimSet()
    try:
        for owner, attr, make in _targets(tracer):
            shims.patch(owner, attr, make)
    except BaseException:
        shims.restore()
        raise
    return shims


def assert_no_shims() -> None:
    """Raise if any layer entry point still carries a timing shim."""
    for owner, attr, _ in _targets(Tracer()):
        if getattr(getattr(owner, attr), SHIM_MARK, False):
            raise RuntimeError(
                f"{getattr(owner, '__name__', owner)}.{attr} is still shimmed; "
                f"the untraced run must measure unpatched code"
            )
