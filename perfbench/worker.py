"""Child process of run.py: `setup` prints a workload's inputs as JSON; `run`
reads them on stdin, runs every op once in order, and prints the results.

Each phase runs in a fresh interpreter, so nothing kept inside qrc1 (the
module-level decide cache in particular) carries over from generating the
inputs, from another pass or from another run.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

import qrc1
import speed
import tracing
import workloads
from qrc1.syntax import parse_signature

SRC = Path(__file__).resolve().parent.parent / "src"
PROBE_EVERY_S = 0.25


def measure(workload: str, inputs: dict, tracer: tracing.Tracer | None = None) -> dict:
    """Run each op once, closed loop: the next op starts when the previous ends.
    The speed probe runs every PROBE_EVERY_S; in a traced run only between
    ops, since inside one it would count in the self time of a span."""
    op = workloads.OPS[workload]
    sig = parse_signature(inputs["sig"])
    times: list[tuple[float, float]] = []
    undecided = 0
    failures: list[list] = []
    clock = time.perf_counter
    with speed.Sampler(PROBE_EVERY_S, tracer is None, clock) as sampler:
        for i, (name, *args) in enumerate(inputs["items"]):
            if tracer is not None:
                tracer.op = i
            t = clock()
            try:
                undecided += op(sig, *args) == qrc1.decider.UNDECIDED
            except Exception as exc:  # a failed op is counted and named; the run goes on
                failures.append([name, args, f"{type(exc).__name__}: {exc}"])
            times.append((t, clock()))
            sampler.between_ops()
    latencies, scaled = zip(*(sampler.split(*t) for t in times))
    return {
        "attempted": len(times),
        "latencies_s": latencies,
        "scaled_s": scaled,
        "probes_s": sampler.probes_s(),
        "undecided": undecided,
        "failures": failures,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("phase", choices=("setup", "run"))
    ap.add_argument("--workload", required=True, choices=sorted(workloads.OPS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True, help="length of one pass")
    ap.add_argument("--spans", help="trace the run and write its spans to this file")
    args = ap.parse_args()
    if Path(qrc1.__file__).resolve().parent != SRC / "qrc1":
        raise SystemExit(f"qrc1 was imported from {qrc1.__file__}, not from {SRC}")

    if args.phase == "setup":
        json.dump(workloads.SETUP[args.workload](args.seed, args.seconds), sys.stdout)
        return 0
    inputs = json.load(sys.stdin)
    if args.spans is None:
        json.dump(measure(args.workload, inputs), sys.stdout)
        return 0
    tracer = tracing.Tracer()
    with tracing.installed(tracer):
        result = measure(args.workload, inputs, tracer)
    tracer.write_spans(args.spans)
    result["layers"] = tracer.layer_metrics()
    result["spans"] = {"kept": len(tracer.spans), "dropped": tracer.dropped}
    json.dump(result, sys.stdout)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
