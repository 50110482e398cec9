#!/usr/bin/env python3
"""Build saturation models for random consistent pairs and self-check the
truth lemma and adequacy, printing the per-world formula annotations. Exits 1
at the first model that violates the truth lemma or is not adequate.

Example:
    python scripts/saturation_demo.py --count 5 --seed 3
"""

import argparse
import random
import time

from qrc1.generate import random_formula
from qrc1.semantics import check_adequate, model_text
from qrc1.syntax import Signature, free_vars, parse_signature
from qrc1.termmodel import PairPM, build_term_model, is_consistent, truth_lemma_check


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--count", type=int, default=5)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--sig", help="signature header line (default: constants c; relations S/1)")
    args = ap.parse_args()

    sig = parse_signature(args.sig) if args.sig else Signature(
        constants=("c",), relations=(("S", 1),))
    rng = random.Random(args.seed)
    built = 0
    t0 = time.perf_counter()
    while built < args.count:
        pos = frozenset(random_formula(rng, sig, 2, 1, 3) for _ in range(rng.randint(1, 2)))
        neg = frozenset(random_formula(rng, sig, 2, 1, 3) for _ in range(rng.randint(0, 2)))
        p = PairPM(pos, neg, sig.constants)
        if any(free_vars(f) for f in p.formulas()) or not is_consistent(p, sig):
            continue
        built += 1
        result = build_term_model(p, sig)
        report = truth_lemma_check(result, p, sig)
        print(f"--- pair {built}")
        print(model_text(result.model))
        for ann in result.annotations():
            print(f"world {ann['world']}: + {ann['positive']}")
            print(f"{' ' * (6 + len(str(ann['world'])))} - {ann['negative']}")
        adequate = check_adequate(result.model).adequate
        print(f"adequate: {adequate}  "
              f"truth lemma: {report.checked} checked, {len(report.violations)} violations")
        if not (adequate and report.ok):
            return 1
    print(f"done in {time.perf_counter() - t0:.1f}s")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
