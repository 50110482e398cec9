#!/usr/bin/env python3
"""Regenerate the benchmark's checked-in data. Needs `src` on PYTHONPATH.

    PYTHONPATH=src python3 perfbench/make_data.py random-batch
        data/random_batch_expected.json: the verdict of every sequent in the
        random-batch pool, and digests that detect a changed generator.
    PYTHONPATH=src python3 perfbench/make_data.py termmodel
        data/termmodel_pool.json: which draws of the termmodel pair generator
        are closed and consistent, and digests that detect a changed generator.
    PYTHONPATH=src python3 perfbench/make_data.py hard-decide
        data/hard_corpus.json: the named hard cases plus the seeded draws
        above the time threshold, each with its verdict, time and the split
        between proof search and countermodel search. Times depend on the
        machine, so rerun this only to rebuild the corpus, on an idle machine.

All three run the code under test: random-batch and hard-decide re-check
each verdict's certificate before it is recorded.
"""

from __future__ import annotations

import argparse
import json
import platform
import random
import signal
import time

import tracing
import workloads
from qrc1 import decider, termmodel
from qrc1.generate import DEFAULT_SIG, random_sequent
from qrc1.syntax import free_vars, parse_sequent, pretty_sequent, signature_str

POOL_SIZE = 10_000  # enough for --seconds 60
TERMMODEL_DRAWS = 10_000  # enough for --seconds 60
CHUNK = 1000

NAMED = (  # fastest first, so that short runs still include some
    ("prove-bound", "hand-picked: derivable, proof search takes most of the time",
     "R(c1,c1) & <><>R(c0,c0) |- <>T & <>T & <>(T & T)"),
    ("refute-before-proof", "hand-picked: derivable, but refute takes most of the time",
     "<><>S(c0) |- (A x0 . T & T) & <>(T & S(c0))"),
    ("deep-diamond-refuted", "hand-picked: underivable, thousands of frames enumerated",
     "<><>(A x0 . R(c0,c1)) & ((A x0 . T) & T) |- <><><>(A x0 . A x1 . T & T)"),
    ("swap-foralls", "ROADMAP item 2: 19,537 proof nodes expanded for a 10-node proof",
     "A x . A y . R(x,y) |- A y . A x . R(y,x) & R(c0,c1)"),
    ("barcan-diamond", "ROADMAP baseline case: 42 s, 97% of it in refute",
     "<>A x . <>S(x) & <>R(c0,c1) |- <>(T & <>R(c0,c1)) & A y . <><>S(y)"),
    ("refute-five-rounds", "hand-picked: refute-bound over five dovetail rounds",
     "(T & (A x0 . R(c0,c0))) & <>(A x0 . <>T) |- <>(A x0 . A x1 . T) & R(c0,c0)"),
)
DRAW_SEED, DRAW_COUNT, DRAW_SHAPE = 2, 3000, (3, 2, 8)  # mdepth, udepth, size
THRESHOLD_S = 0.5  # a draw joins the corpus when deciding it takes at least this long
EXCLUDE_S = 10.0  # a member slower than this would take half of a 20 s run alone
NAMED_CAP_S, DRAW_CAP_S = 300, 10


class Timeout(Exception):
    pass


def _alarm(signum, frame):
    raise Timeout


def timed_decide(s, sig, cap_s: int) -> dict:
    """Decide s once; wall time and the time spent in prove and refute."""
    tracer = tracing.Tracer()
    signal.signal(signal.SIGALRM, _alarm)
    signal.alarm(cap_s)
    start = time.perf_counter()
    try:
        with tracing.installed(tracer):
            out = {"expected": decider.decide(s, sig).status}
    except Timeout:
        out = {"expected": None}
    finally:
        seconds = time.perf_counter() - start
        signal.alarm(0)
    out.update(seed_s=round(seconds, 3), prove_s=round(tracer.total_s["calculus.prove"], 3),
               refute_s=round(tracer.total_s["semantics.refute"], 3))
    if out["expected"] is None:
        out["excluded"] = f"not decided within the {cap_s} s cap at seed"
    elif seconds > EXCLUDE_S:
        out["excluded"] = f"slower than {EXCLUDE_S:g} s at seed, too slow for the run length"
    else:
        out["excluded"] = None
        workloads.decide_op(sig, pretty_sequent(s), out["expected"])  # the certificate re-checks
    return out


def make_hard_decide() -> None:
    sig = DEFAULT_SIG
    members = []
    for name, source, text in NAMED:
        m = {"name": name, "source": source, "sequent": text}
        m.update(timed_decide(parse_sequent(text, sig), sig, NAMED_CAP_S))
        members.append(m)
        print(json.dumps(m), flush=True)
    rng = random.Random(DRAW_SEED)
    seen: set[str] = set()
    draws = []
    for i in range(DRAW_COUNT):
        drawn = random_sequent(rng, sig, *DRAW_SHAPE)
        text = pretty_sequent(drawn)
        if text in seen:
            continue
        seen.add(text)
        s = parse_sequent(text, sig)
        m = timed_decide(s, sig, DRAW_CAP_S)
        if m["seed_s"] < THRESHOLD_S:
            continue
        m = {"name": f"draw-{i}", "source": f"seeded draw {i}", "sequent": text, **m}
        if s != drawn:
            m["source"] += "; its printed text parses to another sequent (printer defect), kept as printed"
        draws.append(m)
        print(json.dumps(m), flush=True)
    members += sorted(draws, key=lambda m: m["seed_s"])
    doc = {
        "sig": signature_str(sig),
        "selection": (
            f"The named cases, then draw i of random_sequent(random.Random({DRAW_SEED}), DEFAULT_SIG, "
            f"{', '.join(map(str, DRAW_SHAPE))}) for i < {DRAW_COUNT}, first occurrence of each printed "
            f"text, when deciding it took at least {THRESHOLD_S} s (capped at {DRAW_CAP_S} s), "
            "fastest first. A pass takes the members in this order, skipping each whose seed_s "
            "would take the total over the pass length."
        ),
        "measured_on": f"{platform.machine()}, Python {platform.python_version()}",
        "members": members,
    }
    (workloads.DATA / "hard_corpus.json").write_text(json.dumps(doc, indent=1) + "\n")


def make_random_batch() -> None:
    sig = DEFAULT_SIG
    pool = workloads.random_batch_pool(POOL_SIZE)
    letters = {v: k for k, v in workloads.LETTER.items()}
    verdicts, failures = [], []
    for i, text in enumerate(pool):
        try:
            verdicts.append(letters[workloads.decide_op(sig, text, decider.UNDECIDED)])
        except Exception as exc:  # recorded; the verdict is still the one decide returns
            failures.append([i, text, f"{type(exc).__name__}: {exc}"])
            verdicts.append(letters[decider.decide(parse_sequent(text, sig), sig).status])
    doc = {
        "pool": ("first distinct pretty_sequent(random_sequent(random.Random(0), DEFAULT_SIG, 2, 1, 4)) "
                 "texts; D derivable, U underivable, X undecided"),
        "chunk": CHUNK,
        "chunk_sha256": workloads.chunk_digests(pool, CHUNK),
        "failures_at_seed": failures,
        "verdicts": "".join(verdicts),
    }
    (workloads.DATA / "random_batch_expected.json").write_text(json.dumps(doc, indent=1) + "\n")
    print(f"{POOL_SIZE} verdicts, {len(failures)} ops failed at seed")


def make_termmodel() -> None:
    sig = workloads.TERMMODEL_SIG
    draws = workloads.termmodel_draws(TERMMODEL_DRAWS)
    kept = "".join(
        "1" if not any(free_vars(f) for f in pos | neg)
        and termmodel.is_consistent(termmodel.PairPM(pos, neg, sig.constants), sig) else "0"
        for pos, neg in draws
    )
    doc = {
        "pool": ("draws of the scripts/saturation_demo.py pair generator (workloads.termmodel_draws); "
                 "1 where the pair is closed and consistent, which puts it in the pool"),
        "chunk": CHUNK,
        "chunk_sha256": workloads.chunk_digests([json.dumps(workloads.pair_texts(d)) for d in draws], CHUNK),
        "kept": kept,
    }
    (workloads.DATA / "termmodel_pool.json").write_text(json.dumps(doc, indent=1) + "\n")
    print(f"{kept.count('1')} of {TERMMODEL_DRAWS} draws kept")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    makers = {"random-batch": make_random_batch, "termmodel": make_termmodel, "hard-decide": make_hard_decide}
    ap.add_argument("dataset", choices=makers)
    args = ap.parse_args()
    workloads.DATA.mkdir(exist_ok=True)
    makers[args.dataset]()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
