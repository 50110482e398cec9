#!/usr/bin/env python3
"""Decide every closed sequent over a signature up to a total size, in the
order of generate.enumerate_sequents. Print the status counts, by status and
certificate model, and the SHA-256 digest of the statuses in that order (one
"<status>\\n" per sequent). The run's time and peak resident memory go to
stderr.

With --term-model, also run the paper's completeness construction on each
sequent phi |- psi. build_term_model must refuse the pair <{phi}, {psi}>
exactly when decide says derivable. Otherwise its term model must pass the
truth lemma and refute the sequent at world 0. Exits 1 at the first
disagreement.

Example:
    python scripts/small_statuses.py --sig "sig: constants c; relations S/1 R/2;" --max-size 6
"""

import argparse
import hashlib
import resource
import sys
import time
from collections import Counter

from qrc1.decider import DERIVABLE, decide
from qrc1.generate import enumerate_sequents
from qrc1.semantics import Countermodel, ModelError, default_assignment
from qrc1.syntax import parse_signature, pretty_sequent
from qrc1.termmodel import PairError, PairPM, build_term_model, truth_lemma_check


def term_model_check(s, sig, derivable: bool) -> tuple[int, str | None]:
    """The worlds of the term model of <{s.lhs}, {s.rhs}> (0 where the pair
    is refused), and why it disagrees with decide's status, or None."""
    p = PairPM(frozenset({s.lhs}), frozenset({s.rhs}), ())
    try:
        result = build_term_model(p, sig)
    except PairError:
        return 0, None if derivable else "the pair of an underivable sequent is refused"
    m = result.model
    if derivable:
        return len(m.worlds), "the pair of a derivable sequent gives a term model"
    report = truth_lemma_check(result, p, sig)
    if not report.ok:
        return len(m.worlds), f"truth lemma violated: {report.violations[0]}"
    try:
        Countermodel(m, 0, default_assignment(m, 0), s).validate()
    except ModelError as e:
        return len(m.worlds), f"the term model is no countermodel: {e}"
    return len(m.worlds), None


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--sig", default="sig: constants c; relations S/1 R/2;", help="signature header line")
    ap.add_argument("--max-size", type=int, default=6, help="largest total size of a sequent")
    ap.add_argument("--term-model", action="store_true", help="check the term model of each sequent too")
    args = ap.parse_args()

    sig = parse_signature(args.sig)
    t0 = time.perf_counter()
    counts, digest = Counter(), hashlib.sha256()
    term_models = max_worlds = 0
    for s in enumerate_sequents(sig, args.max_size):
        v = decide(s, sig)
        counts[v.status, v.stats["certificate_model"]] += 1
        digest.update(f"{v.status}\n".encode())
        if args.term_model:
            worlds, why = term_model_check(s, sig, v.status == DERIVABLE)
            term_models += worlds > 0
            max_worlds = max(max_worlds, worlds)
            if why is not None:
                print(f"disagreement on {pretty_sequent(s)}: {why}")
                return 1
    for (status, model), n in sorted(counts.items()):
        print(f"{status} {model} {n}")
    print(f"sequents {sum(counts.values())}")
    print(f"digest {digest.hexdigest()}")
    if args.term_model:
        print(f"term models {term_models}, at most {max_worlds} worlds")
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(f"done in {time.perf_counter() - t0:.1f}s, peak RSS {peak_mb:.1f} MB", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
