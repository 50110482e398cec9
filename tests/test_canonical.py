import dataclasses
import json
import random
import time
from collections import Counter

import pytest

from qrc1 import canonical, decider, semantics, termmodel
from qrc1.calculus import check_derivation, derivation_from_dict
from qrc1.decider import (
    DERIVABLE,
    UNDECIDED,
    UNDERIVABLE,
    decide,
    entails,
    ground,
    names_of,
    refute,
    verdict_to_dict,
)
from qrc1.generate import DEFAULT_SIG, random_sequent
from qrc1.syntax import TOP, Sequent, Signature, parse_sequent
from qrc1.termmodel import udepth

SIG = DEFAULT_SIG
# the models a certificate comes from, as the stats name them
ONE_ELEMENT, CANONICAL = "one-element", "canonical"
STATS_KEYS = {"canonical_worlds", "canonical_elements", "canonical_facts", "certificate_model", "certificate_size"}


def seq(text: str):
    return parse_sequent(text, SIG)


def test_one_fresh_element_per_quantifier_of_the_rhs():
    # with one fresh element at the root, R(e,e) would force the right-hand side
    v = decide(seq("A x . R(x,x) |- A x . A y . R(x,y)"), SIG)
    assert v.status == UNDERIVABLE
    v.countermodel.validate()
    assert v.stats["canonical_elements"] == 2


@pytest.mark.parametrize("pairs", [2, 14, 50])
def test_one_fresh_element_per_world_on_a_chain_of_layers(pairs):
    # each universal of the right-hand side is a layer of its own, so each
    # world has one fresh element and the elements grow linearly with the chain
    sig = Signature(relations=(("S", 1),))
    lhs = "".join(f"<>A x{i} . " for i in range(pairs)) + "S(x0)"
    rhs = "".join(f"<>A y{i} . " for i in range(pairs - 1)) + "T"
    v = decide(parse_sequent(f"{lhs} |- {rhs}", sig), sig)
    assert v.status == DERIVABLE
    assert v.stats["canonical_elements"] == v.stats["canonical_worlds"] == 2 * pairs
    check_derivation(v.derivation, sig)


def test_fresh_elements_per_layer_keep_every_status(monkeypatch):
    # random sequents whose right-hand side nests a universal under a diamond
    # under a universal, so that a layer has fewer universals than psi nests;
    # entails builds M_phi first, decide after M_phi^1, and both give what
    # they gave with udepth(psi) fresh elements per world
    rng = random.Random(11)
    corpus = []
    while len(corpus) < 300:
        s = random_sequent(rng, SIG, *rng.choice(((1, 3, 12), (3, 3, 15), (5, 5, 30))))
        if canonical._layer_udepth(s.rhs) < udepth(s.rhs):
            corpus.append(s)
    by_layer = [(decide(s, SIG).status, entails(s, SIG)) for s in corpus]
    monkeypatch.setattr(canonical, "_layer_udepth", udepth)
    for s, status in zip(corpus, by_layer, strict=True):
        assert (decide(s, SIG).status, entails(s, SIG)) == status, s
    assert {status for status, _ in by_layer} == {DERIVABLE, UNDERIVABLE}


def test_converse_barcan_has_a_two_world_countermodel():
    v = decide(seq("A x . <>S(x) |- <>A x . S(x)"), SIG)
    assert v.status == UNDERIVABLE
    v.countermodel.validate()
    assert len(v.countermodel.model.worlds) == 2
    # every one-element model forces the right-hand side
    assert v.stats["certificate_model"] == CANONICAL


@pytest.mark.parametrize(
    "text",
    [
        # the sides differ only in the names of bound variables
        "A x0 . <>A x1 . <>A x2 . <>R(x0,x2) |- A y0 . <>A y1 . <>A y2 . <>R(y0,y2)",
        # barcan-diamond, refute-five-rounds and draw-2508 of the hard corpus
        "<>A x . <>S(x) & <>R(c0,c1) |- <>(T & <>R(c0,c1)) & A y . <><>S(y)",
        "(T & (A x0 . R(c0,c0))) & <>(A x0 . <>T) |- <>(A x0 . A x1 . T) & R(c0,c0)",
        "A x0 . <>(S(x0) & A x1 . <>R(x0,x1)) |- T & <><>T",
        # fresh variables must avoid the sequent's own names
        "A v#0 . A v#1 . R(v#0,v#1) |- A v#1 . A v#0 . R(v#0,v#1)",
        # free variables
        "<>A y . R(x,y) |- <>R(x,x)",
        "A y . R(x,y) |- A z . R(x,z)",
    ],
)
def test_derivations_read_off_the_canonical_model_check(text):
    s = seq(text)
    v = decide(s, SIG)
    assert v.status == DERIVABLE
    assert v.stats["certificate_model"] == CANONICAL
    assert v.derivation.conclusion == s
    check_derivation(v.derivation, SIG)  # the checker reads only relation arities
    # fresh variables print and parse back as variables
    doc = json.loads(json.dumps(verdict_to_dict(v, SIG)))["certificate"]["derivation"]
    reloaded = derivation_from_dict(doc, SIG)
    assert check_derivation(reloaded, SIG.with_constants(doc.get("extra_constants", ()))) == s


def test_every_stats_key_on_both_paths(fact_cap):
    # M_phi^1 refutes the first sequent, so M_phi is not built; M_phi^1 forces
    # the right-hand sides of the others, and M_phi derives or refutes them
    for text, status, model in (("T |- <>T", UNDERIVABLE, ONE_ELEMENT), ("T |- T", DERIVABLE, CANONICAL),
                                ("A x . <>S(x) |- <>A x . S(x)", UNDERIVABLE, CANONICAL)):
        v = decide(seq(text), SIG)
        assert v.stats.keys() == STATS_KEYS
        assert (v.status, v.stats["certificate_model"]) == (status, model)
        assert (v.stats["canonical_worlds"] == 0) == (model == ONE_ELEMENT)
    # M_phi^1 refutes past a cap that stops M_phi: M_phi's root instantiates
    # the universals over c0 and a fresh element, in 9 facts, while M_phi^1
    # has 4 in all
    fact_cap(5)
    s = seq("A x . A y . R(x,y) & <>S(c0) |- S(c0)")
    assert not _canonical_model(s, SIG)[2].complete
    v = decide(s, SIG)
    assert v.stats.keys() == STATS_KEYS
    assert v.stats["certificate_model"] == ONE_ELEMENT
    assert v.stats["canonical_worlds"] == v.stats["canonical_facts"] == 0
    assert v.status == UNDERIVABLE
    v.countermodel.validate()


# The statuses the dovetail, the search decide ran before the canonical model,
# gave the corpus below: D derivable, U underivable.
DOVETAIL_STATUSES = (
    "UUUDUUDUDDUUDUDUDDDUUUDDUDDUUUDDUUUUDUUDUDUDDUUUUUUUUUUUUUUDUUUUDUDUUUDUUDUUUUUU"
    "DUDUDDDUUUDDUDUDDDUDDUUUUUDUDDDUUDUUUUUUUDUUDUDUUUUUUUUUUUUDUDDDUDUUUUDUUDUUUUUD"
    "DDDDUUUDUUDUDUUUDDUDUUDDUUUUDUUUUUUUUUDDUUUUUDUUUUUUDUDDDUUUUDUUDUUDUDDDDDUUUUUU"
    "UUUUDUUDDDUUUUUUUUUUUUUUUUDUUUUDUDUDUUUDUDUUUUUDUUUUUUDUDDUDUUUUDUDDUUUDDDUUUDDU"
    "DUUDDUDUUUDDDUUUUUDUUUUDDUUDUDUUUUUUDUUUUUUUUDUUDUDUDUUUUUUDUDDDUUUUDUUDUDUUUDDU"
)


def test_canonical_status_equals_the_dovetail_status():
    rng = random.Random(3)
    free_sig = Signature(relations=SIG.relations)  # no constants, so atoms take free variables
    corpus = [(random_sequent(rng, SIG, 2, 1, 4), SIG) for _ in range(300)]
    corpus += [(random_sequent(rng, free_sig, 2, 1, 4), free_sig) for _ in range(100)]
    letters = {DERIVABLE: "D", UNDERIVABLE: "U"}
    for (s, sig), expected in zip(corpus, DOVETAIL_STATUSES, strict=True):
        # M_phi alone, and decide, which asks M_phi^1 first
        assert entails(s, sig) is (expected == "D"), s
        assert letters[decide(s, sig).status] == expected, s


NESTED = "A x1 . A x2 . A x3 . A x4 . A x5 . A x6 . A x7 . A x8 . (R(x1,x2) & R(x3,x4) & R(x5,x6) & R(x7,x8))"


@pytest.mark.parametrize(
    "text, facts",
    [
        # M_phi's root alone would hold 8^8 instances of the left-hand side
        (f"{NESTED} |- {NESTED}", canonical.CANONICAL_FACT_CAP),
        # forcing each instance of the right-hand side would take 8^8 tests
        (f"A x . A y . R(x,y) |- {NESTED}", 73),
        # M_phi grows past the cap, and its first 10,000 facts force the
        # right-hand side: its four universals of one layer give each world
        # four fresh elements
        ("A x0 . <>(A x1 . <>(R(x0,x1) & A x2 . <>(R(x1,x2) & A x3 . <>(R(x2,x3) & A x4 . <>R(x3,x4)))))"
         " |- A y0 . A y1 . A y2 . A y3 . <><><>T", canonical.CANONICAL_FACT_CAP),
        # with one universal per layer, one fresh element per world: M_phi is complete
        ("A x0 . <>(A x1 . <>(R(x0,x1) & A x2 . <>(R(x1,x2) & A x3 . <>(R(x2,x3) & A x4 . <>R(x3,x4)))))"
         " |- A y0 . <>A y1 . <>A y2 . <>T", 371),
    ],
)
def test_large_canonical_models_are_bounded(text, facts):
    start = time.perf_counter()
    v = decide(seq(text), SIG)
    assert time.perf_counter() - start < 10  # 0.2 s measured; minutes unbounded
    assert v.status == DERIVABLE
    assert v.stats["canonical_facts"] == facts
    assert v.stats["certificate_model"] == CANONICAL


@pytest.mark.parametrize(
    "text, worlds",
    [
        pytest.param("A x0 . <>(A x1 . <>(R(x0,x1) & A x2 . <>(R(x1,x2) & A x3 . <>R(x2,x3))))"
                     " |- A y0 . A y1 . A y3 . A y4 . <>A y2 . <>S(y2)", 5, id="one-world"),
        pytest.param("A x1 . A x2 . A x3 . A x4 . A x5 . A x6 . (R(x1,x2) & R(x3,x4) & R(x5,x6))"
                     " |- A y1 . A y2 . A y3 . A y4 . A y5 . A y6 . S(y1)", 1, id="six-universals"),
        pytest.param("A x0 . <>(A x1 . <>(R(x0,x1) & A x2 . <>(R(x1,x2) & A x3 . <>R(x2,x3))))"
                     " |- A y0 . A y1 . A y2 . A y3 . R(c0,c0)", 5, id="two-worlds"),
    ],
)
def test_the_fallback_refutes_past_the_cap(text, worlds):
    # M_phi stops at the cap without forcing the right-hand side, and M_phi^1
    # refutes the sequent: neither decide nor entails, which both ask M_phi^1
    # first, builds M_phi; M_phi^1 has one world per diamond of the
    # left-hand side, while the ids name the smallest countermodel
    s = seq(text)
    grounded, _, canon = _canonical_model(s, SIG)
    assert not canon.complete and canon.facts == canonical.CANONICAL_FACT_CAP
    assert not canon.forces(0, grounded.rhs)
    assert entails(s, SIG) is False
    v = decide(s, SIG)
    assert v.stats["canonical_facts"] == 0
    assert v.stats["certificate_model"] == ONE_ELEMENT
    assert v.status == UNDERIVABLE
    assert v.countermodel.sequent == s
    v.countermodel.validate()
    assert len(v.countermodel.model.worlds) == worlds


def test_a_derivable_sequent_past_the_cap_gets_a_verdict():
    # the instances of the universals fill the cap before M_phi has a child
    # world, so the part built cannot force the right-hand side
    clauses = " & ".join(f"R(x{i},x{i + 1})" for i in range(1, 12, 2))
    universals = " . ".join(f"A x{i}" for i in range(1, 13))
    s = seq(f"({universals} . ({clauses})) & <>(S(c0) & <>S(c1)) |- <><>S(c1)")
    start = time.perf_counter()
    v = decide(s, SIG)
    assert time.perf_counter() - start < 10
    assert v.stats["canonical_facts"] == canonical.CANONICAL_FACT_CAP
    # M_phi^1 forces the right-hand side of a derivable sequent
    assert v.stats["certificate_model"] != ONE_ELEMENT
    assert v.status != UNDERIVABLE
    if v.derivation is not None:
        check_derivation(v.derivation, SIG)


def _canonical_model(s, sig):
    """M_phi built by CanonicalModel as decide builds it: the grounded
    sequent, its grounding pairs and the model."""
    used = {*sig.constants, *names_of(s.lhs), *names_of(s.rhs)}
    (lhs, rhs), pairs = ground((s.lhs, s.rhs), used)
    grounded = Sequent(lhs, rhs)
    return grounded, pairs, canonical.CanonicalModel(grounded, used)


def test_generic_instance_forcing_equals_forcing():
    # a universal is forced at a world iff its instance at the world's own
    # fresh variable is; compare with forcing over every element
    rng = random.Random(5)
    free_sig = Signature(relations=SIG.relations)
    corpus = [(random_sequent(rng, SIG, 2, 2, 5), SIG) for _ in range(200)]
    corpus += [(random_sequent(rng, free_sig, 2, 2, 5), free_sig) for _ in range(100)]
    forced = set()
    for s, sig in corpus:
        grounded, pairs, canon = _canonical_model(s, sig)
        assert canon.complete
        cm = canon.countermodel(canon.model(decider._constants(s, sig)), s, pairs)
        assert semantics.forces(cm.model, 0, cm.assignment, s.lhs)
        forced.add(canon.forces(0, grounded.rhs))
        assert canon.forces(0, grounded.rhs) == semantics.forces(cm.model, 0, cm.assignment, s.rhs), s
    assert forced == {True, False}


def _status_by_the_canonical_model_first(s, sig):
    """The status decide gave when it built M_phi first and asked M_phi^1
    only where that build stopped; built here from CanonicalModel and refute,
    not from entails, which asks in decide's order and is under test."""
    grounded, _, canon = _canonical_model(s, sig)
    if canon.worlds and canon.forces(0, grounded.rhs):
        return DERIVABLE
    if canon.complete or refute(s, sig) is not None:
        return UNDERIVABLE
    return UNDECIDED


def _seeded_corpus():
    """1,500 seeded sequents at three sizes, over SIG and over no constants."""
    rng = random.Random(11)
    open_sig = Signature(relations=SIG.relations)  # no constants, so atoms take free variables
    return [(random_sequent(rng, sig, *bounds), sig)
            for bounds in ((2, 2, 8), (3, 3, 15), (5, 5, 30))
            for sig in (SIG,) * 400 + (open_sig,) * 100]


def test_refuting_by_the_one_element_model_first_keeps_every_status(fact_cap):
    corpus = _seeded_corpus()
    seen = Counter()
    # a cap of 10 facts stops some builds, of M_phi or M_phi^1, so that every
    # status occurs
    for cap in (canonical.CANONICAL_FACT_CAP, 10):
        fact_cap(cap)
        for s, sig in corpus:
            v = decide(s, sig)
            assert v.status == _status_by_the_canonical_model_first(s, sig), s
            assert entails(s, sig) is {DERIVABLE: True, UNDERIVABLE: False}.get(v.status), s
            seen[v.status, v.stats["certificate_model"]] += 1
            if v.stats["certificate_model"] == ONE_ELEMENT:
                doc = json.loads(json.dumps(verdict_to_dict(v, sig)))["certificate"]["countermodel"]
                cm = semantics.countermodel_from_dict(doc, sig)
                cm.validate()
                assert cm.sequent == s
                assert len(set().union(*cm.model.domain.values())) == 1
    assert seen.keys() == {(DERIVABLE, CANONICAL), (UNDERIVABLE, CANONICAL), (UNDERIVABLE, ONE_ELEMENT),
                           (UNDECIDED, None)}


def _by_the_oracle(s, sig):
    try:
        return termmodel.oracle([s.lhs], sig)(s.rhs)
    except termmodel.OracleUndecidedError:
        return None


def test_memos_warmed_under_one_cap_answer_as_empty_ones_under_another(monkeypatch, fact_cap):
    """The memos of M_phi^1 and of the oracle key their entries by the fact
    cap: warmed at the default cap, they give under a cap of 10 the statuses
    that empty memos give, though many differ from the default cap's."""
    corpus = _seeded_corpus()
    default_cap = canonical.CANONICAL_FACT_CAP

    def statuses():
        return [(decide(s, sig).status, _by_the_oracle(s, sig)) for s, sig in corpus]

    def empty_memos():
        monkeypatch.setattr(decider, "_ONE_ELEMENT", semantics.WeighedMemo(decider._ONE_ELEMENT.bound))
        monkeypatch.setattr(termmodel, "_MEMO", semantics.WeighedMemo(termmodel._MEMO.bound))

    empty_memos()
    fact_cap(10)
    cold = statuses()
    empty_memos()
    fact_cap(default_cap)
    at_default = statuses()
    fact_cap(10)
    assert statuses() == cold
    assert sum(a != b for a, b in zip(at_default, cold)) > 20


def _printed(corpus):
    return [json.dumps(verdict_to_dict(decide(s, sig), sig)) for s, sig in corpus]


def test_verdict_bytes_do_not_depend_on_the_one_element_memo(monkeypatch):
    """Each verdict decided with an empty memo, the corpus decided twice with
    one memo, and the corpus decided in reverse print the same bytes; the
    warm pass reads many countermodels off one kept Model."""
    corpus = _seeded_corpus()
    memo = semantics.WeighedMemo(decider._ONE_ELEMENT.bound)
    monkeypatch.setattr(decider, "_ONE_ELEMENT", memo)
    cold = []
    for item in corpus:
        memo.clear()
        cold += _printed([item])
    _printed(corpus)
    assert _printed(corpus) == cold
    memo.clear()
    assert _printed(corpus[::-1])[::-1] == cold
    models = Counter(id(v.countermodel.model) for v in (decide(s, sig) for s, sig in corpus)
                     if v.stats["certificate_model"] == ONE_ELEMENT)
    assert sum(models.values()) > 500 and len(models) < sum(models.values()) / 3


def test_one_collapsed_left_hand_side_under_two_signatures(monkeypatch):
    """Two left-hand sides that collapse alike share M_phi^1, and each
    signature's countermodels get a Model of their own, with that
    signature's constants, built once and kept as an entry of the memo."""
    memo = semantics.WeighedMemo(decider._ONE_ELEMENT.bound)
    monkeypatch.setattr(decider, "_ONE_ELEMENT", memo)
    narrow = Signature(constants=("c0",), relations=SIG.relations)
    wide = Signature(constants=("c0", "c1", "d"), relations=SIG.relations)
    texts = ["A x . R(x,c0) & <>S(c0) |- S(c0)", "R(c0,c0) & <>S(y) |- <>R(c0,c0)"]
    models = {}
    for sig in (narrow, wide, narrow):
        for text in texts:
            s = parse_sequent(text, sig)
            v = decide(s, sig)
            assert v.stats["certificate_model"] == ONE_ELEMENT
            cm = v.countermodel
            assert cm.model.constI[0].keys() == set(sig.constants)
            assert models.setdefault(sig, cm.model) is cm.model
            doc = json.loads(json.dumps(verdict_to_dict(v, sig)))["certificate"]["countermodel"]
            loaded = semantics.countermodel_from_dict(doc, sig)
            loaded.validate()
            assert loaded.sequent == s
            assert refute(s, sig).model is cm.model
    ones = [v for v in memo.values() if isinstance(v, canonical.CanonicalModel)]
    kept = {key[-1]: v for key, v in memo.items() if isinstance(v, semantics.Model)}
    assert len(ones) == 1 and len(memo) == 3
    assert kept.keys() == {narrow.constants, wide.constants}
    assert kept[narrow.constants] is models[narrow] and kept[wide.constants] is models[wide]
    assert models[narrow] is not models[wide]


def test_a_model_read_off_the_one_element_model_serves_every_cap_that_completes_it(monkeypatch, fact_cap):
    """M_phi^1 of 4 facts completes under the default cap and under a cap of
    5, where M_phi stops. It is built once per cap, but the Model read off it
    is kept by collapsed left-hand side and constants, so decide returns the
    default cap's Model under the lower cap too."""
    monkeypatch.setattr(decider, "_ONE_ELEMENT", semantics.WeighedMemo(decider._ONE_ELEMENT.bound))
    s = seq("A x . A y . R(x,y) & <>S(c0) |- S(c0)")
    kept = decide(s, SIG).countermodel.model
    fact_cap(5)
    v = decide(s, SIG)
    assert v.stats["certificate_model"] == ONE_ELEMENT
    assert v.countermodel.model is kept
    ones = [m for m in decider._ONE_ELEMENT.values() if isinstance(m, canonical.CanonicalModel)]
    assert len(ones) == 2 and len(decider._ONE_ELEMENT) == 3


def test_a_kept_model_serializes_and_checks_as_a_fresh_build_does(monkeypatch):
    """A Model keeps its document and its adequacy report. After the CI corpus
    (scripts/gen_corpus.py --count 500 --seed 7) is decided and printed, each
    Model the M_phi^1 memo keeps gives what a copy with no caches gives, and
    the verdicts refuted by one kept Model print a fresh build's bytes."""
    monkeypatch.setattr(decider, "_ONE_ELEMENT", semantics.WeighedMemo(decider._ONE_ELEMENT.bound))
    rng = random.Random(7)
    verdicts = [decide(random_sequent(rng, SIG, 2, 1, 4), SIG) for _ in range(500)]
    printed = [json.dumps(verdict_to_dict(v, SIG)) for v in verdicts]
    models = [m for m in decider._ONE_ELEMENT.values() if isinstance(m, semantics.Model)]
    assert len(models) > 10
    for m in models:
        fresh = dataclasses.replace(m)
        assert semantics.model_to_dict(m) is semantics.model_to_dict(m)
        assert semantics.model_to_dict(m) == semantics.model_to_dict(fresh)
        assert semantics.check_adequate(m) is semantics.check_adequate(m)
        assert semantics.check_adequate(m) == semantics.check_adequate(fresh)
    shared = Counter(id(v.countermodel.model) for v in verdicts if v.stats["certificate_model"] == ONE_ELEMENT)
    checked = 0
    for v, text in zip(verdicts, printed):
        if v.countermodel is not None and shared[id(v.countermodel.model)] > 1:
            cm = dataclasses.replace(v.countermodel, model=dataclasses.replace(v.countermodel.model))
            assert json.dumps(verdict_to_dict(dataclasses.replace(v, countermodel=cm), SIG)) == text
            checked += 1
    assert checked > 100


def _memo_weight(memo):
    """The facts of the M_phi^1 each entry of the memo is, or is a Model read
    off; 1 for an M_phi^1 whose build stopped."""
    return sum(1 if v is None else canonical.CanonicalModel(Sequent(key[0], TOP), ()).facts
               for key, v in memo.items())


def test_the_one_element_memo_holds_no_more_than_the_cap(monkeypatch):
    """Distinct left-hand sides, each refuted with a Model kept, are fed
    past a memo bounded at 60 facts: the facts the memo holds stay within
    the bound, are the weight the memo keeps, and entries are dropped. A
    model built when the memo has no room is held after the memo is emptied,
    and so is a Model read off it."""
    memo = semantics.WeighedMemo(60)
    monkeypatch.setattr(decider, "_ONE_ELEMENT", memo)
    held = []
    for depth in range(12):
        s = seq("<>" * depth + "S(c0) |- R(c0,c0)")
        assert decide(s, SIG).stats["certificate_model"] == ONE_ELEMENT
        held.append(_memo_weight(memo))
        assert held[-1] == memo.weight <= 60
    # each left-hand side kept an M_phi^1 and a Model
    assert max(held) > 30 and len(memo) < 2 * 12

    # under a bound of 12, a model of 4 facts with its Model, then one of 8
    # facts: the memo is emptied for the second model, which it then holds,
    # and emptied again for that model's Model, which it then holds
    memo = semantics.WeighedMemo(12)
    monkeypatch.setattr(decider, "_ONE_ELEMENT", memo)
    first, second = seq("S(c0) & <>S(c0) |- <><>T"), seq("R(c0,c0) & <>R(c0,c0) & <><>S(c0) |- <><><>T")
    assert decide(first, SIG).stats["certificate_model"] == ONE_ELEMENT
    assert _memo_weight(memo) == memo.weight == 8
    one = decider._one_element(second)
    assert list(memo.values()) == [one]
    assert _memo_weight(memo) == memo.weight == 8
    v = decide(second, SIG)
    assert v.stats["certificate_model"] == ONE_ELEMENT
    assert len(memo) == 1 and next(iter(memo.values())) is v.countermodel.model
    assert _memo_weight(memo) == memo.weight == 8
