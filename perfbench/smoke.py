"""Tiny-size smoke run of every benchmark workload.

Run from the root of a checkout::

    python3 perfbench/smoke.py

For each workload it runs the benchmark at ``--scale smoke`` twice
untraced and twice traced, all with one seed, and checks that

* every run exits 0 and reports ``correct`` (every gate held, no
  operation failed);
* every ``end_to_end`` metric of ``BENCHMARK.json`` is emitted untraced,
  and every ``per_layer`` metric traced, each with its declared unit;
* ``range_mae`` is bit-identical across the two untraced runs, and the
  per-layer counts that must repeat exactly do so across the traced runs.

Exits 0 when every check passes and prints one line per failure otherwise.
"""

from __future__ import annotations

import json
import subprocess
import sys

#: Per-layer counts that are functions of the seed alone.
EXACT_COUNTS = (
    "serving.release.fingerprint_calls",
    "serving.store.bytes_written",
    "serving.store.fsyncs",
    "streaming.lineage.bytes_per_append",
    "sharding.lineage.bytes_per_append",
    "sharding.pool.shards_built",
    "streaming.buffer.ingest_rows",
    "sharding.router.gather_groups_b1",
    "sharding.router.gather_groups_b100k",
    "sharding.engine.seed_derivations",
)


def run(workload: str, trace: int) -> dict:
    command = [
        sys.executable, "perfbench/run.py",
        "--workload", workload,
        "--seed", "3",
        "--seconds", "1",
        "--trace", str(trace),
        "--scale", "smoke",
    ]
    child = subprocess.run(command, capture_output=True, text=True, timeout=170)
    lines = child.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else {}
    if child.returncode != 0 or not result.get("correct"):
        sys.stderr.write(child.stderr)
        raise AssertionError(
            f"{workload} --trace {trace}: exit {child.returncode}, "
            f"correct={result.get('correct')}"
        )
    return result["metrics"]


def check_declared(declared: list, metrics: dict, where: str) -> list[str]:
    problems = []
    for entry in declared:
        got = metrics.get(entry["name"])
        if got is None:
            problems.append(f"{where}: {entry['name']} missing")
        elif got["unit"] != entry["unit"]:
            problems.append(f"{where}: {entry['name']} in {got['unit']}, declared {entry['unit']}")
    return problems


def main() -> int:
    with open("BENCHMARK.json", encoding="utf-8") as handle:
        spec = json.load(handle)
    problems: list[str] = []
    for workload in (w["name"] for w in spec["workloads"]):
        try:
            untraced = [run(workload, 0) for _ in range(2)]
            traced = [run(workload, 1) for _ in range(2)]
        except (AssertionError, subprocess.TimeoutExpired, ValueError) as error:
            problems.append(str(error))
            continue
        problems += check_declared(spec["end_to_end"], untraced[0], f"{workload} untraced")
        problems += check_declared(spec["per_layer"], traced[0], f"{workload} traced")
        first, second = (m["range_mae"]["value"] for m in untraced)
        if first != second:
            problems.append(f"{workload}: range_mae {first!r} then {second!r}")
        for name in EXACT_COUNTS:
            first, second = (m[name]["value"] for m in traced)
            if first != second:
                problems.append(f"{workload}: {name} {first!r} then {second!r}")
        print(f"{workload}: ok", flush=True)
    for problem in problems:
        print(f"FAIL {problem}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
