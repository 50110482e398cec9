"""Inputs and operations of the three benchmark workloads.

`SETUP[name](seed, seconds)` builds the inputs of one pass of a workload,
about `seconds` long at the commit that introduced the benchmark, as text:
sequents or formulas as `pretty` prints them. `OPS[name](sig, *args)` is one
op on one input. It parses the text, as `qrc1 decide FILE` and
`qrc1 termmodel PAIR` do, and then checks the result. An op returns its
verdict and raises when the output is wrong.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from pathlib import Path

from qrc1 import calculus, decider, semantics, syntax, termmodel
from qrc1.generate import DEFAULT_SIG, random_formula, random_sequent
from qrc1.syntax import Signature, pretty, pretty_sequent, signature_str, sorted_formulas

DATA = Path(__file__).resolve().parent / "data"

# Inputs per second of a pass. These are fixed numbers, not measurements, so
# that one pass length always means the same amount of work. At the commit
# that introduced the benchmark they make a pass last about its length on a
# 2-core machine.
RANDOM_BATCH_PER_S = 600
TERMMODEL_PER_S = 250

# Each seed takes this share of a pool that does not depend on the seed. Op
# costs are heavy-tailed: the slowest random-batch sequent in ten thousand
# costs as much as a thousand typical ones. So fully independent draws differ
# by ~15% in total time from seed to seed. Shared pools keep that spread near
# 2%, and each seed still picks its own subset and order.
SUBSET = 0.95
POOL_SEED = 0

# Pairs as scripts/saturation_demo.py draws them, over a signature with a
# binary relation so that pairs are less often repeated.
TERMMODEL_SIG = Signature(constants=("c",), relations=(("S", 1), ("R", 2)))

LETTER = {"D": decider.DERIVABLE, "U": decider.UNDERIVABLE, "X": decider.UNDECIDED}


class OpFailed(Exception):
    """An op produced a wrong verdict or a certificate that does not check."""


def random_batch_pool(size: int) -> list[str]:
    """The first `size` distinct sequents drawn with the README defaults
    (`scripts/gen_corpus.py`: DEFAULT_SIG, mdepth 2, udepth 1, size 4)."""
    rng = random.Random(POOL_SEED)
    seen: set[str] = set()
    pool: list[str] = []
    while len(pool) < size:
        text = pretty_sequent(random_sequent(rng, DEFAULT_SIG, 2, 1, 4))
        if text not in seen:
            seen.add(text)
            pool.append(text)
    return pool


def chunk_digest(texts: list[str]) -> str:
    return hashlib.sha256("\n".join(texts).encode()).hexdigest()[:16]


def chunk_digests(texts: list[str], chunk: int) -> list[str]:
    return [chunk_digest(texts[k:k + chunk]) for k in range(0, len(texts), chunk)]


def check_pool(texts: list[str], doc: dict, dataset: str) -> None:
    """Raise unless `texts` are the pool the checked-in data was computed for."""
    if chunk_digests(texts, doc["chunk"]) != doc["chunk_sha256"][:math.ceil(len(texts) / doc["chunk"])]:
        raise SystemExit(f"the {dataset} pool differs from the one its checked-in data was computed "
                         f"for; rerun perfbench/make_data.py {dataset}")


def setup_random_batch(seed: int, seconds: float) -> dict:
    expected = json.loads((DATA / "random_batch_expected.json").read_text())
    n = round(seconds * RANDOM_BATCH_PER_S)
    size = math.ceil(n / SUBSET)
    chunk = expected["chunk"]
    if size > len(expected["verdicts"]):
        raise SystemExit(f"a {seconds:g} s pass needs {size} pool sequents; "
                         f"expected verdicts cover {len(expected['verdicts'])}")
    pool = random_batch_pool(math.ceil(size / chunk) * chunk)
    check_pool(pool, expected, "random-batch")
    picks = random.Random(seed).sample(range(size), n)
    return {
        "sig": signature_str(DEFAULT_SIG),
        "items": [[f"pool#{i}", pool[i], LETTER[expected["verdicts"][i]]] for i in picks],
    }


def setup_hard_decide(seed: int, seconds: float) -> dict:
    """Corpus members in file order, skipping each that would take the total
    of their seed times over `seconds` (the first always fits), run in a
    seeded order."""
    corpus = json.loads((DATA / "hard_corpus.json").read_text())
    chosen: list[dict] = []
    total = 0.0
    for member in corpus["members"]:
        if member["excluded"] or (chosen and total + member["seed_s"] > seconds):
            continue
        chosen.append(member)
        total += member["seed_s"]
    random.Random(seed).shuffle(chosen)
    return {"sig": corpus["sig"], "items": [[m["name"], m["sequent"], m["expected"]] for m in chosen]}


def termmodel_draws(count: int) -> list[tuple[frozenset, frozenset]]:
    """The first `count` pairs (positive formulas, negative formulas) the
    saturation_demo.py generator draws, closed and consistent or not."""
    rng = random.Random(POOL_SEED)
    sig = TERMMODEL_SIG
    draws = []
    for _ in range(count):
        pos = frozenset(random_formula(rng, sig, 2, 1, 3) for _ in range(rng.randint(1, 2)))
        neg = frozenset(random_formula(rng, sig, 2, 1, 3) for _ in range(rng.randint(0, 2)))
        draws.append((pos, neg))
    return draws


def pair_texts(draw: tuple[frozenset, frozenset]) -> list[list[str]]:
    return [[pretty(f) for f in sorted_formulas(fs)] for fs in draw]


def termmodel_pool(size: int) -> list[list[list[str]]]:
    """The first `size` closed consistent pairs of the saturation_demo.py
    generator, each as [positive formulas, negative formulas]. Which draws
    are closed and consistent was decided once, by `make_data.py termmodel`,
    and is read from data/termmodel_pool.json."""
    doc = json.loads((DATA / "termmodel_pool.json").read_text())
    kept = [i for i, flag in enumerate(doc["kept"]) if flag == "1"]
    if size > len(kept):
        raise SystemExit(f"a pass needs {size} pairs; data/termmodel_pool.json has {len(kept)}")
    chunk = doc["chunk"]
    texts = [pair_texts(d) for d in termmodel_draws(math.ceil((kept[size - 1] + 1) / chunk) * chunk)]
    check_pool([json.dumps(t) for t in texts], doc, "termmodel")
    return [texts[i] for i in kept[:size]]


def setup_termmodel(seed: int, seconds: float) -> dict:
    n = round(seconds * TERMMODEL_PER_S)
    size = math.ceil(n / SUBSET)
    pool = termmodel_pool(size)
    picks = random.Random(seed).sample(range(size), n)
    return {"sig": signature_str(TERMMODEL_SIG), "items": [[f"pair#{i}", *pool[i]] for i in picks]}


def certificate_roundtrip(v: decider.Verdict, sig: Signature):
    """The verdict's certificate after `qrc1 decide --format json-lines`
    output and `qrc1 check-*` input: (certificate, signature to check it in)."""
    doc = json.loads(json.dumps(decider.verdict_to_dict(v, sig), sort_keys=True))
    cert = doc["certificate"]
    if cert["kind"] == "derivation":
        inner = cert["derivation"]
        return (calculus.derivation_from_dict(inner, sig),
                sig.with_constants(inner.get("extra_constants", ())))
    return semantics.countermodel_from_dict(cert["countermodel"], sig), sig


def decide_op(sig: Signature, text: str, expected: str) -> str:
    """Decide one sequent and re-check its certificate after a JSON round trip."""
    s = syntax.parse_sequent(text, sig)
    v = decider.decide(s, sig)
    if v.status == decider.UNDECIDED:
        return v.status
    if expected != decider.UNDECIDED and v.status != expected:
        raise OpFailed(f"verdict {v.status}, expected {expected}")
    cert, cert_sig = certificate_roundtrip(v, sig)
    if v.status == decider.DERIVABLE:
        concluded = calculus.check_derivation(cert, cert_sig)
    else:
        cert.validate()
        concluded = cert.sequent
    if concluded != s:
        raise OpFailed(f"reloaded certificate concludes {pretty_sequent(concluded)}")
    return v.status


def termmodel_op(sig: Signature, pos: list[str], neg: list[str]) -> str:
    """Saturate one pair and check the truth lemma and adequacy of its model."""
    p = termmodel.PairPM(
        frozenset(syntax.parse_formula(t, sig) for t in pos),
        frozenset(syntax.parse_formula(t, sig) for t in neg),
        sig.constants,
    )
    try:
        result = termmodel.build_term_model(p, sig)
    except termmodel.OracleUndecidedError:
        return decider.UNDECIDED
    report = termmodel.truth_lemma_check(result, p, sig)
    if not report.ok:
        raise OpFailed(f"truth lemma violated: {report.violations[0]}")
    adequacy = semantics.check_adequate(result.model)
    if not adequacy.adequate:
        raise OpFailed(f"term model is not adequate: {adequacy.witness}")
    return "model"


SETUP = {"random-batch": setup_random_batch, "hard-decide": setup_hard_decide, "termmodel": setup_termmodel}
OPS = {"random-batch": decide_op, "hard-decide": decide_op, "termmodel": termmodel_op}
