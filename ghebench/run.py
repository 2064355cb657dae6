"""Benchmark of the `ghe` verdict: cold CLI runs, or a traced in-process split.

    python3 ghebench/run.py --workload cloud_large --seed 1 \
        --seconds 20 --trace 0

--trace 0 times cold `ghe` children and prints the end-to-end metrics;
--trace 1 runs the same invocations in-process with spans and counters and
prints the per-layer metrics.  The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
from pathlib import Path

from coldrun import run_cold
from measure import median, tail_percentile
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".ghebench_out"


def log(msg: str) -> None:
    print(msg, file=sys.stderr, flush=True)


def _describe(label: str, values, unit: str) -> str:
    tail = tail_percentile(values)
    tail_txt = (f"p{tail[0]:g} {tail[1]:.4f} {unit} ({tail[2]} beyond)"
                if tail else "no percentile has 10 samples beyond it")
    return (f"{label}: median {median(values):.4f} {unit}, {tail_txt}, "
            f"n={len(values)}")


def cold(args, invocations, workdir: Path) -> dict:
    res = run_cold(ROOT, invocations, args.seed, args.seconds, workdir, log)
    print(_describe("wall_s (one pass)", res["pass_walls"], "s"))
    print(_describe("scaled invocation wall, all samples", res["inv_walls"],
                    "s"))
    print(_describe("unscaled pass wall", res["raw_pass_walls"], "s"))
    print(_describe("speed-gauge loop", res["loops"], "s"))
    print(f"failed_fraction: {res['failed']}/{res['attempted']} = "
          f"{res['failed'] / res['attempted']:.4f}")
    metrics = {
        "wall_s": (median(res["pass_walls"]), "s"),
        "verdict_s": (res["verdict_s"], "s"),
        "point_seeds_per_s": (res["point_seeds_per_s"], "1/s"),
        "setup_s": (res["setup_s"], "s"),
        "peak_rss_mb": (res["peak_rss_mb"], "MB"),
    }
    return {"attempted": res["attempted"], "failed": res["failed"],
            "metrics": metrics}


def traced(args, invocations, workdir: Path) -> dict:
    from tracing import run_traced
    metrics, attempted, failed, missing = run_traced(
        ROOT, args.workload, invocations, args.seed, args.seconds, workdir,
        OUT, log)
    if missing:
        log("span coverage check failed: these probes never fired on "
            f"{args.workload}: {', '.join(missing)}")
        sys.exit(3)
    for name, (value, unit) in metrics.items():
        print(f"{name}: {value:.6g} {unit}")
    return {"attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    missing = [p for p in ("src/heavenly/cliapp.py", "scenarios")
               if not (ROOT / p).exists()]
    if missing:
        log(f"not a heavenly checkout: {ROOT} lacks {', '.join(missing)}")
        return 2

    invocations = WORKLOADS[args.workload]
    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        result = (traced if args.trace else cold)(args, invocations, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in result["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
