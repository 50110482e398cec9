#!/usr/bin/env python3
"""qrc1 benchmark: certified verdicts per second on three workloads.

    python3 perfbench/run.py --workload random-batch --seed 1 --seconds 20 --trace 0

Workloads (see README.md in this directory for why each was chosen):
  random-batch  distinct README-default random sequents, decided, with each
                certificate reloaded from JSON and re-checked
  hard-decide   the checked-in corpus of slow sequents, same op
  termmodel     random consistent pairs saturated into term models, with
                the truth lemma and adequacy checked

One closed-loop caller in one process. The inputs of one pass are built
in a fresh interpreter (set-up, timed nine times, the median reported);
then the passes (four, or one for hard-decide), each in a fresh
interpreter, run every op once. The passes together take about --seconds,
or less, at the commit that introduced the benchmark. With --trace 0 the
last line holds the end-to-end metrics, taken over each op's median
latency over the passes, and scaled to a reference machine speed by the
probe in speed.py; with --trace 1 it holds the per-layer
metrics of one traced pass, and the tracing overhead against one untraced
pass of the same inputs. Every op's verdict and certificate are checked in
every pass; failed ops are listed by name.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
SPANS_DIR = HERE / "out"

# On a shared 2-core machine the speed of the same code moves by up to 1.8
# times in phases of seconds to minutes. So every timing is scaled by the
# speed probe around it (speed.py), set-up time is the median of many
# repeats, and each op's latency is its median over the passes. The
# unscaled op time of every pass is printed too.
SETUP_REPEATS = 9
# hard-decide has one long pass, so that its slow members fit in it.
PASSES = {"random-batch": 4, "hard-decide": 1, "termmodel": 4}
DEADLINE_S = 170.0  # the whole run, children included
TAIL_PERCENTILES = (50, 90, 99, 99.9, 99.99, 99.999)
TAIL_BEYOND = 10


class RunError(Exception):
    pass


def tail_latency(values: list[float]) -> tuple[float, str, int]:
    """(value, label, samples above it) for the highest of TAIL_PERCENTILES
    that has at least TAIL_BEYOND samples above it; the maximum if none has."""
    xs = sorted(values)
    n = len(xs)
    for p in reversed(TAIL_PERCENTILES):
        rank = math.ceil(round(p * n / 100, 6))  # nearest-rank percentile, 1-based
        if n - rank >= TAIL_BEYOND:
            return xs[rank - 1], f"p{p:g}", n - rank
    return xs[-1], "max", 0


class Child:
    """Runs worker.py phases for one workload, seed and length, within one deadline."""

    def __init__(self, args: argparse.Namespace):
        self.argv = ["--workload", args.workload, "--seed", str(args.seed),
                     "--seconds", str(args.seconds / PASSES[args.workload])]
        self.deadline = time.monotonic() + DEADLINE_S
        path = os.environ.get("PYTHONPATH")
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src") + (os.pathsep + path if path else ""))

    def __call__(self, phase: str, stdin: str | None = None, extra: tuple = ()) -> tuple[float, str]:
        """(seconds from start to exit, standard output) of one phase."""
        cmd = [sys.executable, str(WORKER), phase, *self.argv, *extra]
        start = time.perf_counter()
        try:
            proc = subprocess.run(cmd, input=stdin, capture_output=True, text=True, cwd=ROOT,
                                  env=self.env, timeout=max(1.0, self.deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            raise RunError(f"{phase} did not end within the {DEADLINE_S:.0f} s deadline") from None
        elapsed = time.perf_counter() - start
        if proc.returncode != 0:
            raise RunError(f"{phase} exited with {proc.returncode}:\n{proc.stderr.strip()}")
        return elapsed, proc.stdout


def report_failures(run: dict) -> None:
    for name, args, reason in run["failures"]:
        print(f"FAILED {name}: {' | '.join(map(str, args))}: {reason}")


def end_to_end(setup_times: list[float], passes: list[dict]) -> dict[str, tuple[float, str]]:
    """Metrics over passes of the same inputs, in seconds of the reference
    machine (speed.py). Each op's latency is its median over the passes;
    the timings are taken over those per-op latencies."""
    n = passes[0]["attempted"]
    failed = len(passes[0]["failures"])
    latencies = [statistics.median(op) for op in zip(*(p["scaled_s"] for p in passes))]
    total = sum(latencies)
    tail, label, beyond = tail_latency(latencies)
    raw = ", ".join(f"{sum(p['latencies_s']):.3f}" for p in passes)
    probes = [t for p in passes for t in p["probes_s"]]
    print(f"setup (scaled): {', '.join(f'{t:.3f}' for t in setup_times)} s; "
          f"unscaled op time per pass: {raw} s, {n} ops each")
    print(f"speed probe: median {statistics.median(probes) * 1e3:.2f} ms over {len(probes)} probes, "
          f"reference {speed.REFERENCE_S * 1e3:g} ms")
    print(f"latency_tail_ms is {label} of {n} samples, {beyond} above it")
    return {
        "setup_s": (statistics.median(setup_times), "s"),
        "wall_s": (total, "s"),
        "ops_per_s": ((n - failed) / total, "1/s"),
        "latency_p50_ms": (statistics.median(latencies) * 1e3, "ms"),
        "latency_tail_ms": (tail * 1e3, "ms"),
        "peak_rss_mb": (min(p["peak_rss_mb"] for p in passes), "MB"),
    }


def timed_setup(child: Child) -> tuple[float, str]:
    """(scaled seconds, inputs) of one set-up, between two speed probes."""
    before = speed.probe()
    elapsed, inputs = child("setup")
    return speed.scale(elapsed, before, speed.probe()), inputs


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=PASSES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True, help="total length of the timed passes (1 to 60)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "qrc1" / "__init__.py").is_file():
        print(f"no qrc1 sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if not 1 <= args.seconds <= 60:
        ap.error("--seconds must be between 1 and 60")

    if hasattr(os, "sched_setaffinity"):
        # One CPU for this process and every child: the probes then measure
        # the CPU the work runs on. The CPUs of a shared VM differ in speed.
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    child = Child(args)
    try:
        speed.probe()  # warm-up
        setups = [timed_setup(child) for _ in range(1 if args.trace else SETUP_REPEATS)]
        inputs = setups[0][1]
        if any(out != inputs for _, out in setups):
            raise RunError("set-up built different inputs from the same seed")
        passes = [json.loads(child("run", inputs)[1]) for _ in range(1 if args.trace else PASSES[args.workload])]
        if args.trace:
            spans = SPANS_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl"
            SPANS_DIR.mkdir(exist_ok=True)
            passes.append(json.loads(child("run", inputs, ("--spans", str(spans)))[1]))
    except RunError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    print(f"{args.workload} seed {args.seed} seconds {args.seconds} trace {args.trace}")
    if args.trace:
        traced = passes[1]
        plain_s, traced_s = (sum(p["scaled_s"]) for p in passes)
        overhead = traced_s - plain_s
        print(f"tracing overhead {overhead:.3f} s (scaled): traced {traced_s:.3f} s, untraced {plain_s:.3f} s; "
              f"unscaled {sum(traced['latencies_s']):.3f} s and {sum(passes[0]['latencies_s']):.3f} s")
        print(f"spans: {traced['spans']['kept']} written to {spans.relative_to(ROOT)}, "
              f"{traced['spans']['dropped']} over the cap not written")
        metrics = {name: tuple(v) for name, v in traced["layers"].items()}
        metrics["trace.overhead_s"] = (overhead, "s")
    else:
        metrics = end_to_end([t for t, _ in setups], passes)
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(len(p["failures"]) for p in passes)
    report_failures(passes[0])
    print(f"undecided {passes[0]['undecided']} count (per pass)")
    print(f"failed_share {failed / attempted:.6f} ratio ({failed} of {attempted} ops)")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
