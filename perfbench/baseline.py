#!/usr/bin/env python3
"""Run every workload over ten seeds and record the results.

    python3 perfbench/baseline.py --out perfbench/baseline.json

The runs go seed by seed, each seed running every workload, in an order
that rotates from one seed to the next, so that a slow phase of the machine
falls on all workloads rather than on one. For each workload and end-to-end
metric this records the median, the quartiles and the spread (distance
between the quartiles as a share of the median, as
`statistics.quantiles(values, n=4)` gives them) over the seeds, and whether
the spread is within the metric's bound in BENCHMARK.json. One traced run
per workload adds the per-layer metrics and the tracing overhead.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = range(1, 11)


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} failed:\n{proc.stderr}")
    result = json.loads(proc.stdout.splitlines()[-1])
    if not result["correct"]:
        print(proc.stdout, file=sys.stderr)
    if not trace:
        print(workload, seed, " ".join(f"{k}={m['value']:.4g}" for k, m in result["metrics"].items()), flush=True)
    return result


def summarize(values: list[float], bound: float) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / median
    return {"median": median, "q1": q1, "q3": q3, "spread": spread, "bound": bound,
            "within_bound": spread <= bound, "values": values}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--out", help="write the results as JSON here")
    args = ap.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    workloads = [w["name"] for w in spec["workloads"]]
    runs: dict[str, list[dict]] = {w: [] for w in workloads}
    for k, seed in enumerate(SEEDS):
        for workload in workloads[k % len(workloads):] + workloads[:k % len(workloads)]:
            runs[workload].append(run_once(workload, seed, seconds, 0))
    report: dict = {
        "machine": {"nproc": os.cpu_count(), "python": platform.python_version(),
                    "platform": platform.platform()},
        "run_seconds": seconds,
        "seeds": list(SEEDS),
        "workloads": {},
    }
    for workload in workloads:
        entry = {
            "attempted": [r["attempted"] for r in runs[workload]],
            "failed": [r["failed"] for r in runs[workload]],
            "end_to_end": {name: summarize([r["metrics"][name]["value"] for r in runs[workload]], bound)
                           for name, bound in bounds.items()},
        }
        traced = run_once(workload, SEEDS[0], seconds, 1)
        entry["per_layer"] = {name: m["value"] for name, m in traced["metrics"].items()}
        report["workloads"][workload] = entry
        for name, s in entry["end_to_end"].items():
            flag = "" if s["spread"] <= s["bound"] / 3 else "  (above a third of the bound)"
            print(f"{workload:13s} {name:16s} median {s['median']:10.4f}  spread {s['spread']:.4f}"
                  f" / bound {s['bound']}{flag}", flush=True)
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
