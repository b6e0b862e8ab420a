"""Run one benchmark workload and print its metrics as one JSON line.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload serve-mono --seed 1 --seconds 20 --trace 0

``--trace 0`` runs the workload untraced and reports every end-to-end
metric.  ``--trace 1`` first runs the same workload untraced in a child
process, then again with timing shims on every layer entry point, and
reports the per-layer metrics plus the tracing overhead (traced minus
untraced) of each end-to-end metric; its spans are written to
``.perfbench-out/``.  The last line of standard output is always the
result object; the line before it records the run (seed, CPUs, versions,
git revision, per-phase operation counts and gates).  Exit status is 0
only when every operation succeeded and every correctness gate held.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import signal
import subprocess
import sys
import tempfile
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("serve-mono", "serve-sharded", "stream-epochs", "stream-sharded")
#: Per-run scratch (stores) and trace output, both inside the checkout.
SCRATCH_DIR = ".perfbench-tmp"
OUTPUT_DIR = ".perfbench-out"
#: Limit on the untraced child of a traced run, leaving time for the traced pass.
UNTRACED_TIMEOUT_S = 100


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--scale",
        choices=("full", "smoke"),
        default="full",
        help="'smoke' runs tiny sizes for the smoke test",
    )
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


def git_rev(root: str) -> str:
    """The checked-out commit, read from ``.git`` (no git binary needed)."""
    head = os.path.join(root, ".git", "HEAD")
    try:
        with open(head, encoding="ascii") as handle:
            ref = handle.read().strip()
        if ref.startswith("ref: "):
            with open(os.path.join(root, ".git", ref[5:]), encoding="ascii") as handle:
                return handle.read().strip()
        return ref
    except OSError:
        return "unknown"


def run_record(args, root, loadgen) -> dict:
    import numpy as np
    from repro.sharding.pool import effective_cpu_count

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "scale": args.scale,
        "effective_cpus": effective_cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git_rev": git_rev(root),
        "phases": {
            name: {
                "attempted": phase.attempted,
                "succeeded": phase.succeeded,
                "failed": phase.failed,
                "seconds": round(sum(phase.latencies), 3),
            }
            for name, phase in loadgen.phases.items()
        },
        "gates_failed": sorted({name for name, ok, _ in loadgen.gates if not ok}),
        "gates_checked": len(loadgen.gates),
    }


def untraced_pass(args) -> dict:
    """Run the workload untraced in a child process; return its metrics."""
    command = [
        sys.executable,
        os.path.abspath(__file__),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", "0",
        "--scale", args.scale,
    ]
    # Its own session, so a timeout can stop the child's pool workers too.
    child = subprocess.Popen(
        command, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        start_new_session=True,
    )
    try:
        stdout, stderr = child.communicate(timeout=UNTRACED_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(child.pid, signal.SIGKILL)
        child.communicate()
        raise
    sys.stderr.write(stderr)
    lines = stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else {}
    if child.returncode != 0 or not result.get("correct"):
        raise RuntimeError(f"untraced pass failed (exit {child.returncode})")
    return result["metrics"]


def main(argv=None) -> int:
    args = parse_args(argv)
    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        print(
            f"error: no repro package under {src}; run from the root of a checkout",
            file=sys.stderr,
        )
        return 2
    sys.path.insert(0, src)

    try:
        return measure(args, root)
    except Exception:
        # A run that cannot finish reports a failure, not numbers.
        traceback.print_exc()
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))
        return 1


def measure(args, root: str) -> int:
    untraced = untraced_pass(args) if args.trace else None

    import tracing
    from workloads import run_workload

    os.makedirs(os.path.join(root, SCRATCH_DIR), exist_ok=True)
    scratch = tempfile.mkdtemp(prefix="run-", dir=os.path.join(root, SCRATCH_DIR))
    tracer = shims = None
    try:
        if args.trace:
            tracer = tracing.Tracer()
            shims = tracing.install_shims(tracer)
        else:
            tracing.assert_no_shims()
        try:
            loadgen, workload, sizes, metrics = run_workload(
                args.workload, args.seed, args.seconds, args.scale, scratch, tracer
            )
        finally:
            if shims is not None:
                shims.restore()
        if args.trace:
            from layers import layer_metrics

            metrics = layer_metrics(loadgen, workload, sizes, tracer, metrics, untraced)
            out = os.path.join(root, OUTPUT_DIR)
            os.makedirs(out, exist_ok=True)
            tracer.write(os.path.join(out, f"spans-{args.workload}-seed{args.seed}.jsonl.gz"))
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    gates_ok = all(ok for _, ok, _ in loadgen.gates)
    finite = all(math.isfinite(value) for value, _ in metrics.values())
    # End-to-end metrics are positive by construction; a zero or negative
    # one means a phase measured nothing.
    positive = args.trace or all(value > 0 for value, _ in metrics.values())
    correct = gates_ok and loadgen.failed == 0 and finite and bool(positive)
    print(json.dumps({"record": run_record(args, root, loadgen)}))
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": loadgen.attempted,
                "failed": loadgen.failed,
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()
                }
                if correct
                else {},
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
