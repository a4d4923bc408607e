"""One workload in a fresh interpreter; started by run.py.

    python3 perfbench/worker.py --workload NAME --seed N --corpus-seed C
        --mode MODE [--seconds S]

MODE is `setup` (build the inputs, report when ready, exit), `measure`
(timed rounds, no tracing) or `trace` (one round with per-layer spans
and an estimate of their cost).
The last line of standard output is one JSON object. `ready` is the
CLOCK_MONOTONIC reading when set-up ended, so the parent, which read the
same clock just before starting this process, can take the set-up time.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(ROOT / "src"))


def main() -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--mode", choices=["setup", "measure", "trace"],
                   required=True)
    p.add_argument("--seconds", type=float, default=0.0)
    p.add_argument("--corpus-seed", type=int, required=True)
    args = p.parse_args()

    import latentid

    src = (ROOT / "src").resolve()
    if src not in Path(latentid.__file__).resolve().parents:
        print(f"error: latentid imported from {latentid.__file__}, "
              f"not from {src}", file=sys.stderr)
        return 2
    import workloads
    from tracer import Tracer

    work_dir = BENCH_DIR / "_out" / f"work-{os.getpid()}"
    wl = workloads.WORKLOADS[args.workload](
        args.seed, work_dir, args.corpus_seed
    )
    result = {"ready": time.monotonic()}
    try:
        if args.mode == "trace":
            tracer = Tracer()
            tracer.install()
            try:
                result.update(timed_rounds(wl, workloads.Ops(), 0.0))
            finally:
                tracer.remove()
            result["layers"] = {
                k: list(v) for k, v in tracer.layer_metrics().items()
            }
            result["layers"]["trace.overhead_s"] = [tracer.overhead_s(), "s"]
            result["raw_layers"] = tracer.raw()
        elif args.mode == "measure":
            result.update(timed_rounds(wl, workloads.Ops(), args.seconds))
        if args.mode != "setup":
            wl.check()
            result["problems"] = wl.problems
            result["counters"] = wl.counters
    finally:
        wl.close()
    print(json.dumps(result))
    return 0


def timed_rounds(wl, ops, seconds: float) -> dict:
    """Run whole rounds until the next round would probably end past
    `seconds`, and at least one."""
    walls: list[float] = []
    edges: list[int] = []
    clock = time.perf_counter
    start = clock()
    while True:
        t0 = clock()
        edges.append(wl.run_round(ops, first=not walls))
        walls.append(clock() - t0)
        if clock() - start + max(walls) > seconds:
            break
    if len(set(edges)) != 1:
        wl.problems.append(f"edges identified differ between rounds: {edges}")
    return {
        "walls": walls,
        "latencies": ops.latencies,
        "attempted": ops.attempted,
        "failed": ops.failed,
        "edges_identified": edges[0],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
    }


if __name__ == "__main__":
    sys.exit(main())
