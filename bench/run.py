"""Benchmark of restricted-words: one workload, timed end to end.

    python3 bench/run.py --workload verify-grid|deep-sequences|cli-mix \\
        --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
``src``.  The run times the cold start a CLI call pays (a fresh
interpreter importing the package and building the parser) a few times
before the first pass and once after each round, and runs whole passes
over the workload, each in a fresh process, for about ``S`` seconds: at
least one, ending as near to ``S`` as whole passes can.  With
``--trace 1`` untraced and traced passes alternate, and the run reports
the per-layer figures of the traced ones and the tracing overhead
instead of the end-to-end metrics.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The whole run,
with machine facts, every pass and (traced) the spans, is written as one
JSON document under ``bench/runs/``.  Exit status 0 means the run
completed; ``correct`` says whether every output that did not fail
matched the reference.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RUNS = HERE / "runs"
WORKLOADS = ("verify-grid", "deep-sequences", "cli-mix")
# set-up samples taken before the first pass; one more follows each round,
# so the median spans the run as the machine's speed drifts
SETUP_SAMPLES = 3
SETUP_CODE = "import restricted_words.cli as cli; cli.build_parser()"
PASS_TIMEOUT_S = 120


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p
    )
    return env


def time_setup(env) -> float:
    """Wall time of a fresh interpreter importing the package and
    building the CLI parser."""
    t0 = time.perf_counter()
    subprocess.run(
        [sys.executable, "-c", SETUP_CODE],
        env=env,
        cwd=ROOT,
        check=True,
        stdout=subprocess.DEVNULL,
    )
    return time.perf_counter() - t0


def run_pass(env, workload: str, seed: int, traced: bool) -> dict:
    proc = subprocess.run(
        [
            sys.executable,
            str(HERE / "one_pass.py"),
            "--workload",
            workload,
            "--seed",
            str(seed),
            "--trace",
            str(int(traced)),
        ],
        env=env,
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=PASS_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise RuntimeError(
            f"pass exited with {proc.returncode}: {proc.stderr.strip()[-2000:]}"
        )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _percentile(values, q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end(setup, passes) -> dict:
    # percentiles are taken per pass, whose operations are fixed, and the
    # median over passes is reported: pooling would move the percentile
    # between operations as the number of passes changes
    def per_pass(q):
        return statistics.median(
            _percentile([t * 1000 for t in p["op_s"]], q) for p in passes
        )

    return {
        "setup_s": (statistics.median(setup), "s"),
        "run_s": (statistics.median(p["run_s"] for p in passes), "s"),
        "op_p50_ms": (per_pass(50), "ms"),
        "op_p95_ms": (per_pass(95), "ms"),
        "peak_rss_mb": (statistics.median(p["peak_rss_mb"] for p in passes), "MB"),
    }


LAYER_UNITS = {
    "busy_s": "s",
    "self_s": "s",
    "words": "count",
    "steps": "count",
    "cell_steps": "count",
    "calls": "count",
    "words_per_s": "1/s",
    "us_per_step": "us",
    "us_per_cell_step": "us",
    "repeat_ratio": "ratio",
}


def per_layer(plain, traced) -> dict:
    names = traced[0]["layers"]
    out = {
        name: (statistics.median(p["layers"][name] for p in traced), LAYER_UNITS[name.rsplit(".", 1)[1]])
        for name in names
    }
    # passes run in untraced/traced pairs; the median difference within a
    # pair is less exposed to drift in machine speed than a difference of
    # medians
    out["trace.overhead_s"] = (
        statistics.median(t["run_s"] - p["run_s"] for p, t in zip(plain, traced)),
        "s",
    )
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "restricted_words" / "__init__.py").is_file():
        print(f"error: no restricted_words package under {SRC}", file=sys.stderr)
        return 2
    env = _env()
    try:
        setup = [time_setup(env) for _ in range(SETUP_SAMPLES)]
        plain, traced = [], []
        started = time.perf_counter()
        # whole passes only, so every run attempts whole rounds of the same
        # operations; a traced run takes untraced and traced passes in turn.
        # Another round starts only if it would end nearer the window's end
        # than stopping now does.
        while True:
            round_start = time.perf_counter()
            plain.append(run_pass(env, args.workload, args.seed, False))
            if args.trace:
                traced.append(run_pass(env, args.workload, args.seed, True))
            setup.append(time_setup(env))
            now = time.perf_counter()
            if now - started + (now - round_start) / 2 >= args.seconds:
                break
    except (subprocess.SubprocessError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    passes = [dict(p, traced=False) for p in plain] + [dict(p, traced=True) for p in traced]
    metrics = per_layer(plain, traced) if args.trace else end_to_end(setup, plain)
    result = {
        "correct": all(p["correct"] for p in passes),
        "attempted": sum(p["attempted"] for p in passes),
        "failed": sum(p["failed"] for p in passes),
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }
    document = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": {
            "nproc": os.cpu_count(),
            "python": plain[0]["python"],
            "numpy": plain[0]["numpy"],
            "platform": sys.platform,
        },
        "setup_s": setup,
        "result": result,
        "passes": passes,
    }
    RUNS.mkdir(exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    path = RUNS / f"{args.workload}-seed{args.seed}-trace{args.trace}-{stamp}-{os.getpid()}.json"
    path.write_text(json.dumps(document) + "\n")
    for p in passes:
        for problem in p["problems"]:
            kind = "failed (known fault)" if problem["known_fault"] else "WRONG"
            print(f"{kind}: {problem['op']}: {problem['problem']}", file=sys.stderr)
            break
    for name, (value, unit) in metrics.items():
        print(f"{args.workload} {name} = {value:.6g} {unit}")
    print(f"{args.workload} attempted = {result['attempted']}, failed = {result['failed']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
