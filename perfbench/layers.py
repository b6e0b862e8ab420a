"""Per-layer metrics of the traced run, derived from its spans.

Each metric is named by the module whose entry points the shims wrap and
is the median, over one phase's operations, of that layer's per-operation
figure.  Build-side layers are read on the workload's build phase —
``cold`` for static tenants, ``epoch`` for streams — and serve-side
layers on the warm phases.  A layer a workload never enters reads 0: the
prediction that an optimisation of it moves nothing there.

Spawned pool workers carry no shims, so a layer that runs only inside
them reads 0 although the workload does enter it.  On ``stream-sharded``,
whose shard builds run in the spawn pool, ``queries.randomize_ms`` and
``inference.infer_ms`` read 0 for that reason: their cost, most of each
epoch, shows only in ``sharding.pool.build_ms`` and
``sharding.pool.busy_share``.  Releases are indexed, fingerprinted and
stored in the parent, so those layers are measured there.

``serving.cache.hit_rate`` is the share of warm submits whose result
carries the program's own ``from_cache`` flag set.  Stream reads carry no
such flag, so on streams it covers the SLO-scored tenant's submits.
"""

from __future__ import annotations

import numpy as np

from tracing import per_request, span_faults

#: (metric name, unit) of every per-layer metric, in output order.
LAYER_METRICS = (
    ("queries.randomize_ms", "ms"),
    ("inference.infer_ms", "ms"),
    ("serving.release.index_ms", "ms"),
    ("serving.release.fingerprint_ms", "ms"),
    ("serving.release.fingerprint_calls", "count"),
    ("serving.store.put_ms", "ms"),
    ("serving.store.bytes_written", "bytes"),
    ("serving.store.fsyncs", "count"),
    ("serving.store.get_ms", "ms"),
    ("streaming.lineage.append_ms_first_decile", "ms"),
    ("streaming.lineage.append_ms_last_decile", "ms"),
    ("streaming.lineage.bytes_per_append", "bytes"),
    ("streaming.lineage.load_ms", "ms"),
    ("sharding.lineage.append_ms_first_decile", "ms"),
    ("sharding.lineage.append_ms_last_decile", "ms"),
    ("sharding.lineage.bytes_per_append", "bytes"),
    ("sharding.lineage.load_ms", "ms"),
    ("sharding.pool.build_ms", "ms"),
    ("sharding.pool.shards_built", "count"),
    ("sharding.pool.busy_share", "share"),
    ("sharding.release.assemble_ms", "ms"),
    ("streaming.buffer.ingest_ms", "ms"),
    ("streaming.buffer.ingest_rows", "count"),
    ("serving.fleet.dispatch_us", "us"),
    ("serving.cache.hit_rate", "share"),
    ("serving.planner.answer_us_b1", "us"),
    ("serving.planner.answer_us_b100k", "us"),
    ("sharding.router.answer_us_b1", "us"),
    ("sharding.router.answer_us_b100k", "us"),
    ("sharding.router.gather_groups_b1", "count"),
    ("sharding.router.gather_groups_b100k", "count"),
    ("sharding.engine.shard_keys_us", "us"),
    ("sharding.engine.seed_derivations", "count"),
    ("accuracy.range_variances_ms", "ms"),
    ("serving.engine.self_us", "us"),
    ("streaming.engine.self_us", "us"),
    ("sharding.engine.self_us", "us"),
    ("sharding.streaming.self_us", "us"),
    ("loadgen.self_us", "us"),
)

#: End-to-end metrics whose traced-minus-untraced difference is reported.
OVERHEAD_OF = (
    ("setup_s", "s"),
    ("cold_p50_ms", "ms"),
    ("point_p50_us", "us"),
    ("point_p90_us", "us"),
    ("batch_qps", "queries/s"),
    ("scored_p50_ms", "ms"),
    ("epoch_p50_ms", "ms"),
    ("epoch_late_p50_ms", "ms"),
    ("restart_p50_ms", "ms"),
    ("peak_rss_bytes_per_leaf", "bytes"),
    ("range_mae", "count"),
)


def _median(values) -> float:
    values = list(values)
    return float(np.median(values)) if values else 0.0


def layer_metrics(loadgen, workload, sizes, tracer, traced: dict, untraced: dict) -> dict:
    """Every per-layer metric as ``{name: (value, unit)}``; gates on spans."""
    data = per_request(tracer)
    phases = loadgen.phases
    build = phases["epoch" if workload.stream else "cold"].requests
    point = phases["point"].requests
    batch = phases["batch"].requests
    # A batch operation times ``batch_reps`` submits back to back.
    reps = sizes.batch_reps

    def over(requests, read, scale=1.0):
        return _median(read(data[r]) for r in requests) * scale

    def self_of(layer):
        return lambda entry: entry["self"][layer]

    def deciles(layer):
        per_op = [data[r]["self"][layer] for r in build if data[r]["calls"][layer]]
        if not per_op:
            return 0.0, 0.0
        tenth = max(1, len(per_op) // 10)
        return _median(per_op[:tenth]) * 1e3, _median(per_op[-tenth:]) * 1e3

    def bytes_per_append(layer):
        return _median(
            data[r]["counts"]["lineage.bytes"] / data[r]["calls"][layer]
            for r in build
            if data[r]["calls"][layer]
        )

    def busy_share(entry):
        dispatches = entry["counts"]["pool.dispatches"]
        wall = entry["incl"]["sharding.pool.build"]
        if not dispatches or wall <= 0:
            return 0.0
        workers = entry["counts"]["pool.workers"] / dispatches
        return entry["counts"]["pool.busy_seconds"] / (wall * workers)

    groups = {}
    for request, kind, (plan, routed) in tracer.deferred:
        if kind == "router_batch":
            positions = np.concatenate((routed.los, routed.his + 1))
            groups.setdefault(request, []).append(
                np.unique(plan.shard_of_prefix(positions)).size
            )

    def gather(requests):
        return _median(g for r in requests for g in groups.get(r, ()))

    stream_first, stream_last = deciles("streaming.lineage.append")
    shard_first, shard_last = deciles("sharding.lineage.append")
    lookups = loadgen.cache_hits + loadgen.cache_misses
    values = {
        "queries.randomize_ms": over(build, self_of("queries.randomize"), 1e3),
        "inference.infer_ms": over(build, self_of("inference.infer"), 1e3),
        "serving.release.index_ms": over(build, self_of("serving.release.index"), 1e3),
        "serving.release.fingerprint_ms": over(
            build, self_of("serving.release.fingerprint"), 1e3
        ),
        "serving.release.fingerprint_calls": over(
            build, lambda e: e["calls"]["serving.release.fingerprint"]
        ),
        "serving.store.put_ms": over(build, self_of("serving.store.put"), 1e3),
        "serving.store.bytes_written": over(build, lambda e: e["counts"]["store.bytes"]),
        "serving.store.fsyncs": over(
            build, lambda e: e["counts"]["fsync@serving.store.put"]
        ),
        "serving.store.get_ms": over(
            phases["restart"].requests, self_of("serving.store.get"), 1e3
        ),
        "streaming.lineage.append_ms_first_decile": stream_first,
        "streaming.lineage.append_ms_last_decile": stream_last,
        "streaming.lineage.bytes_per_append": bytes_per_append("streaming.lineage.append"),
        "streaming.lineage.load_ms": over(
            phases["restart"].requests, self_of("streaming.lineage.load"), 1e3
        ),
        "sharding.lineage.append_ms_first_decile": shard_first,
        "sharding.lineage.append_ms_last_decile": shard_last,
        "sharding.lineage.bytes_per_append": bytes_per_append("sharding.lineage.append"),
        "sharding.lineage.load_ms": over(
            phases["restart"].requests, self_of("sharding.lineage.load"), 1e3
        ),
        "sharding.pool.build_ms": over(
            build, lambda e: e["incl"]["sharding.pool.build"], 1e3
        ),
        "sharding.pool.shards_built": over(build, lambda e: e["counts"]["pool.shards"]),
        "sharding.pool.busy_share": over(build, busy_share),
        "sharding.release.assemble_ms": over(
            build, self_of("sharding.release.assemble"), 1e3
        ),
        "streaming.buffer.ingest_ms": over(
            phases["epoch"].requests, self_of("streaming.buffer.ingest"), 1e3
        ),
        "streaming.buffer.ingest_rows": over(
            phases["epoch"].requests, lambda e: e["counts"]["ingest_rows"]
        ),
        "serving.fleet.dispatch_us": over(point, self_of("serving.fleet"), 1e6),
        "serving.cache.hit_rate": loadgen.cache_hits / lookups if lookups else 1.0,
        "serving.planner.answer_us_b1": over(point, self_of("serving.planner.answer"), 1e6),
        "serving.planner.answer_us_b100k": over(
            batch, self_of("serving.planner.answer"), 1e6 / reps
        ),
        "sharding.router.answer_us_b1": over(point, self_of("sharding.router.answer"), 1e6),
        "sharding.router.answer_us_b100k": over(
            batch, self_of("sharding.router.answer"), 1e6 / reps
        ),
        "sharding.router.gather_groups_b1": gather(point),
        "sharding.router.gather_groups_b100k": gather(batch),
        "sharding.engine.shard_keys_us": over(
            point, self_of("sharding.engine.shard_keys"), 1e6
        ),
        "sharding.engine.seed_derivations": over(
            point, lambda e: e["counts"]["seed_derivations"]
        ),
        "accuracy.range_variances_ms": over(
            phases["scored"].requests, self_of("accuracy.range_variances"), 1e3
        ),
        "serving.engine.self_us": over(point, self_of("serving.engine"), 1e6),
        "streaming.engine.self_us": over(point, self_of("streaming.engine"), 1e6),
        "sharding.engine.self_us": over(point, self_of("sharding.engine"), 1e6),
        "sharding.streaming.self_us": over(point, self_of("sharding.streaming"), 1e6),
        "loadgen.self_us": over(point, self_of("loadgen"), 1e6),
    }
    metrics = {name: (values[name], unit) for name, unit in LAYER_METRICS}
    for name, unit in OVERHEAD_OF:
        metrics[f"obs.tracing_overhead.{name}"] = (
            traced[name][0] - untraced[name]["value"],
            unit,
        )

    # Self times are only meaningful over a well-formed span tree.
    faults = span_faults(tracer)
    loadgen.gate("trace.spans_form_a_tree", not any(faults.values()), f"{faults}")
    # Every timed operation goes through the fleet; a request that never
    # reached its shim means a layer was looked up somewhere unpatched.
    missing = [
        r for p in phases.values() for r in p.requests if not data[r]["calls"]["serving.fleet"]
    ]
    loadgen.gate(
        "trace.every_operation_reaches_fleet",
        not missing,
        f"{len(missing)} operations without a serving.fleet span",
    )
    return metrics
