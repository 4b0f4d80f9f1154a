"""One pass over a workload's operations, in this (fresh) process.

    python3 bench/one_pass.py --workload NAME --seed N --trace 0|1

Runs every operation back to back, timing each, then checks every
output and prints one JSON object: the pass's wall time, per-operation
latencies, peak resident memory, attempted/failed counts, the problems
found and, when traced, the spans and the per-layer figures.  ``run.py``
starts one such process per pass, so no cache of the library survives
from one pass to the next, as none survives between two CLI calls.
"""

from __future__ import annotations

import argparse
import json
import platform
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy  # noqa: E402

import tracing  # noqa: E402


def run_pass(workload: str, seed: int, traced: bool) -> dict:
    tracer = None
    if traced:
        tracer = tracing.Tracer()
        tracing.install(tracer)
    # imported after install so the workloads bind nothing unwrapped
    import workloads

    ops, results = workloads.WORKLOADS[workload](seed)
    latencies = []
    started = time.perf_counter()
    for index, op in enumerate(ops):
        if tracer:
            tracer.open_op(index, op.label)
        t0 = time.perf_counter()
        try:
            output = op.run()
        except Exception as exc:  # reported as the operation's failure
            output = exc
        latencies.append(time.perf_counter() - t0)
        if tracer:
            tracer.close_op()
        results[op.label] = output
    run_s = time.perf_counter() - started
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    failed, correct, problems = [], True, []
    for op in ops:
        output = results[op.label]
        if isinstance(output, Exception):
            problem = f"raised {output!r}"
        else:
            try:
                problem = op.check(output)
            except Exception as exc:  # a malformed output
                problem = f"check raised {exc!r}"
        if problem:
            problems.append({"op": op.label, "problem": problem, "known_fault": op.known_fault})
            failed.append(op.label)
            correct = correct and op.known_fault
    doc = {
        "run_s": run_s,
        "peak_rss_mb": peak_rss_mb,
        "op_s": latencies,
        "ops": [op.label for op in ops],
        "attempted": len(ops),
        "failed": len(failed),
        "correct": correct,
        "problems": problems,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }
    if tracer:
        doc["layers"] = tracing.layer_metrics(tracer.spans)
        doc["spans"] = tracer.spans
    return doc


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    doc = run_pass(args.workload, args.seed, bool(args.trace))
    sys.stdout.write(json.dumps(doc) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
