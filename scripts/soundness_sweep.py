#!/usr/bin/env python3
"""Cross-check the decision procedure against exhaustive model enumeration.

For every sequent of a seeded random corpus:
  - derivable verdicts must not be refuted by any adequate model within the
    bounds (soundness): seen from any of its worlds, such a model is one of
    the enumerated models rooted at 0, up to isomorphism, so each of these is
    checked at its root under every assignment into the root's domain, and
  - underivable verdicts must come with a validated countermodel.

Example:
    python scripts/soundness_sweep.py --count 300 --max-worlds 3 --max-domain 3
"""

import argparse
import itertools
import random
import time

from qrc1.decider import DERIVABLE, UNDERIVABLE, decide
from qrc1.generate import random_sequent
from qrc1.semantics import Assignment, enumerate_models, forces
from qrc1.syntax import Signature, free_vars, parse_signature, pretty_sequent


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--count", type=int, default=300)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--max-worlds", type=int, default=3)
    ap.add_argument("--max-domain", type=int, default=3)
    ap.add_argument("--sig", help="signature header line (default: constants c0; relations S/1)")
    args = ap.parse_args()

    sig = parse_signature(args.sig) if args.sig else Signature(
        constants=("c0",), relations=(("S", 1),))
    rng = random.Random(args.seed)
    corpus = [random_sequent(rng, sig, 2, 1, 3) for _ in range(args.count)]

    t0 = time.perf_counter()
    models = list(enumerate_models(sig, args.max_worlds, args.max_domain))
    print(f"enumerated {len(models)} rooted adequate models "
          f"(<= {args.max_worlds} worlds, domain <= {args.max_domain}) "
          f"in {time.perf_counter() - t0:.1f}s")

    derivable = underivable = violations = 0
    for s in corpus:
        v = decide(s, sig)
        if v.status == DERIVABLE:
            derivable += 1
            fv = sorted(free_vars(s.lhs) | free_vars(s.rhs))
            for m in models:
                dom = sorted(m.domain[0])
                for vals in itertools.product(dom, repeat=len(fv)):
                    g = Assignment(0, dict(zip(fv, vals)), dom[0])
                    if forces(m, 0, g, s.lhs) and not forces(m, 0, g, s.rhs):
                        violations += 1
                        print(f"VIOLATION: {pretty_sequent(s)} refuted at the root of {m}")
        elif v.status == UNDERIVABLE:
            underivable += 1
            v.countermodel.validate()

    print(f"corpus {len(corpus)}: {derivable} derivable, {underivable} underivable, "
          f"{len(corpus) - derivable - underivable} undecided, "
          f"{violations} soundness violations "
          f"({time.perf_counter() - t0:.1f}s total)")
    return 1 if violations else 0


if __name__ == "__main__":
    raise SystemExit(main())
