"""latentid benchmark: end-to-end metrics, or per-layer metrics with --trace 1.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from its `src/`.
NAME is one of the workloads in perfbench/README.md, or `all` to run each
of them in turn (one JSON line per workload, then a combined line).

Every workload runs in fresh interpreters started by this script (see
worker.py): `criteria._det_net_cache` is process-global, and a cache warmed
by one workload would change the next one's figures.

--trace 0: one interpreter runs timed rounds of the workload until the
next round would end past --seconds (at least one round), and fourteen
more interpreters only build the inputs, so that set-up time is a median
of fifteen. --trace 1: one interpreter runs one round with per-layer
spans and reports what the tracing cost (see tracer.py).

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics. Details go to perfbench/_out/.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "_out"

WORKLOADS = ("enum-fig5a-full", "enum-fig5b-htc", "dense-check", "roundtrip")
SETUP_SAMPLES = 15
RUN_DEADLINE_S = 170.0

DEFAULT_SEED = 0
DEFAULT_SECONDS = 20.0
DEFAULT_CORPUS_SEED = 2605


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def spawn(args: list[str], deadline: float) -> tuple[dict, float]:
    """Run worker.py with `args`; return its JSON result and the
    CLOCK_MONOTONIC reading taken just before the process was started."""
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("time budget used up before the next run")
    cmd = [sys.executable, str(BENCH_DIR / "worker.py")] + args
    started = time.monotonic()
    try:
        proc = subprocess.run(
            cmd, stdout=subprocess.PIPE, text=True, timeout=remaining
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{' '.join(args)}: no result in time") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{' '.join(args)}: exit code {proc.returncode}")
    return json.loads(lines[-1]), started


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def worker_args(workload: str, seed: int, corpus_seed: int) -> list[str]:
    return ["--workload", workload, "--seed", str(seed),
            "--corpus-seed", str(corpus_seed)]


def measure(base: list[str], seconds: float, deadline: float):
    res, started = spawn(
        base + ["--mode", "measure", "--seconds", str(seconds)], deadline
    )
    setup = [res["ready"] - started]
    for _ in range(SETUP_SAMPLES - 1):
        probe, probe_started = spawn(base + ["--mode", "setup"], deadline)
        setup.append(probe["ready"] - probe_started)
    lat_ms = [x * 1000.0 for x in res["latencies"]]
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "wall_s": (statistics.median(res["walls"]), "s"),
        "op_p50_ms": (statistics.median(lat_ms), "ms"),
        "op_p90_ms": (percentile(lat_ms, 0.9), "ms"),
        "peak_rss_mb": (res["peak_rss_mb"], "MB"),
        "edges_identified": (res["edges_identified"], "count"),
    }
    detail = {
        "setup_samples_s": setup,
        "round_walls_s": res["walls"],
        "operations_per_round": len(lat_ms) // len(res["walls"]),
    }
    return metrics, [res], detail


def trace(base: list[str], deadline: float):
    traced, _ = spawn(base + ["--mode", "trace"], deadline)
    metrics = {k: tuple(v) for k, v in traced["layers"].items()}
    counters = traced["counters"]
    metrics["enumeration.classes"] = (
        counters.get("enumeration.classes", 0),
        "count",
    )
    metrics["cli.output_bytes"] = (counters.get("cli.output_bytes", 0), "B")
    detail = {
        "traced_wall_s": traced["walls"][0],
        "layers": traced["raw_layers"],
    }
    return metrics, [traced], detail


def run_workload(workload: str, seed: int, corpus_seed: int, seconds: float,
                 traced: bool):
    deadline = time.monotonic() + RUN_DEADLINE_S
    base = worker_args(workload, seed, corpus_seed)
    if traced:
        metrics, results, detail = trace(base, deadline)
    else:
        metrics, results, detail = measure(base, seconds, deadline)
    problems = [p for r in results for p in r["problems"]]
    for p in problems:
        print(f"{workload}: {p}", file=sys.stderr)
    summary = {
        "correct": not problems,
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }
    OUT_DIR.mkdir(exist_ok=True)
    out = OUT_DIR / f"{workload}-seed{seed}-trace{int(traced)}.json"
    out.write_text(
        json.dumps(
            dict(summary, workload=workload, seed=seed,
                 corpus_seed=corpus_seed, seconds=seconds, problems=problems,
                 detail=detail),
            indent=1,
        )
    )
    return summary


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--corpus-seed", type=int, default=DEFAULT_CORPUS_SEED,
                   help="seed of the dense-check and roundtrip graph corpora")
    args = p.parse_args(argv)

    if not (ROOT / "src" / "latentid" / "__init__.py").is_file():
        print(f"error: no program source at {ROOT / 'src' / 'latentid'}",
              file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    summaries = {}
    try:
        for name in names:
            summaries[name] = run_workload(
                name, args.seed, args.corpus_seed, args.seconds,
                bool(args.trace),
            )
            if args.workload == "all":
                print(json.dumps(dict(summaries[name], workload=name)))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.workload == "all":
        final = {
            "correct": all(s["correct"] for s in summaries.values()),
            "attempted": sum(s["attempted"] for s in summaries.values()),
            "failed": sum(s["failed"] for s in summaries.values()),
            "metrics": {
                f"{name}.{metric}": value
                for name, s in summaries.items()
                for metric, value in s["metrics"].items()
            },
        }
    else:
        final = summaries[args.workload]
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
