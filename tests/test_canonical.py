import json
import random
import time
from collections import Counter

import pytest

from qrc1 import canonical, semantics
from qrc1.calculus import check_derivation, derivation_from_dict
from qrc1.decider import (
    DERIVABLE,
    UNDECIDED,
    UNDERIVABLE,
    DeciderConfig,
    decide,
    entails,
    ground,
    refute,
    verdict_to_dict,
)
from qrc1.generate import DEFAULT_SIG, random_sequent
from qrc1.syntax import Sequent, Signature, names_of, parse_sequent, udepth

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


def test_every_stats_key_on_both_paths():
    # M_phi^1 refutes the first sequent, so M_phi is not built; M_phi^1 forces
    # the right-hand sides of the others, and M_phi derives or refutes them
    for text, status, model in (("T |- <>T", UNDERIVABLE, ONE_ELEMENT), ("T |- T", DERIVABLE, CANONICAL),
                                ("A x . <>S(x) |- <>A x . S(x)", UNDERIVABLE, CANONICAL)):
        v = decide(seq(text), SIG)
        assert v.stats.keys() == STATS_KEYS
        assert (v.status, v.stats["certificate_model"]) == (status, model)
        assert (v.stats["canonical_worlds"] == 0) == (model == ONE_ELEMENT)
    # M_phi^1 refutes past a bound that stops M_phi: M_phi's root holds c0
    # and a fresh element, one past it
    v = decide(seq("<>S(c0) |- S(c0)"), SIG, DeciderConfig(max_domain=1))
    assert v.stats.keys() == STATS_KEYS
    assert v.stats["certificate_model"] == ONE_ELEMENT
    assert v.stats["canonical_worlds"] == v.stats["canonical_facts"] == 0
    assert v.status == UNDERIVABLE
    v.countermodel.validate()


def test_config_bounds_below_the_canonical_model_run_the_fallback():
    # a bound below M_phi stops its build and leaves the sequent undecided:
    # M_phi has 2 worlds and 2 elements, and M_phi^1 forces the right-hand side
    s = seq("A x . <>S(x) |- <>A x . S(x)")
    for config in (DeciderConfig(max_worlds=1), DeciderConfig(max_domain=1)):
        v = decide(s, SIG, config)
        assert v.status == UNDECIDED and v.stats["certificate_model"] is None
        # building stops at the bound, not after the whole model
        assert v.stats["canonical_worlds"] == 1 and v.stats["canonical_elements"] == 1
    v = decide(s, SIG, DeciderConfig(max_worlds=2, max_domain=2))
    assert v.status == UNDERIVABLE and v.stats["certificate_model"] == CANONICAL


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


# The statuses decide gave the corpus below under DeciderConfig(max_domain=1)
# when its fallback searched frames of at most two worlds and one element:
# D derivable, U underivable, X undecided.
TWO_WORLD_FALLBACK_STATUSES = (
    "XDUDXUUUUUDDUUUUXUUUXDXUXUUUUUXXUXXXXDXDDXUUUUXDUUXDUUXUUUUUDXXDUUXUXDXUUUUUUUXU"
    "UUXUUUUUUUUDUUUXUXUUUUDUXUDUDUDUUDUXUXXUUUUUUUUUUUUUXUUUUUUDXUUUUUUXUXDXUDUDUXUU"
    "DXXUDUDUDXDDUUUUXUUUUXXUUUXXUUXUXUUXDXXUDUUDXUXUDUUUUUDDXXDUDUDDDUXUUUUXXXUDDDDU"
    "XUUUXUXUUUXUXUUXUUXXUXXDUUUDUUDUDDXUUXUUXXUUUXUUDUDXUXDXUUXXXUUDUUUUDDXUUUUUUXUU"
    "UXXUUUXXUUDUUDXUUUUUDXUUUUXUXXUDDUUXUXXUUUDUUUDUUUDXUUUXXDUUUDUUXDDUDXUUDUXUUXXX"
)


def test_the_one_element_fallback_decides_what_the_two_world_search_did():
    # under max_domain=1, decide (M_phi^1, then M_phi up to the bound) decides
    # every sequent the two-world search decided, the same way, and refutes one
    # more, whose countermodel has three worlds
    rng = random.Random(7)
    free_sig = Signature(relations=SIG.relations)
    corpus = [(random_sequent(rng, SIG, 2, 2, 5), SIG) for _ in range(300)]
    corpus += [(random_sequent(rng, free_sig, 2, 2, 5), free_sig) for _ in range(100)]
    letters = {DERIVABLE: "D", UNDERIVABLE: "U", UNDECIDED: "X"}
    newly_refuted = 0
    for (s, sig), before in zip(corpus, TWO_WORLD_FALLBACK_STATUSES, strict=True):
        v = decide(s, sig, DeciderConfig(max_domain=1))
        if before == "X" and v.status == UNDERIVABLE:
            newly_refuted += 1
        else:
            assert letters[v.status] == before, s
        if v.countermodel is not None:
            assert v.countermodel.sequent == s
            v.countermodel.validate()
    assert newly_refuted == 1


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
    # refutes the sequent: decide never builds M_phi, and entails, which
    # builds it first, asks M_phi^1 where it stops; M_phi^1 has one world per
    # diamond of the left-hand side, while the ids name the smallest
    # countermodel
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


def _canonical_model(s, sig, config=DeciderConfig()):
    """M_phi built by CanonicalModel as decide builds it: the grounded
    sequent, its grounding pairs and the model."""
    used = {*sig.constants, *names_of(s.lhs), *names_of(s.rhs)}
    (lhs, rhs), pairs = ground((s.lhs, s.rhs), used)
    grounded = Sequent(lhs, rhs)
    return grounded, pairs, canonical.CanonicalModel(grounded, used, config.max_worlds, config.max_domain)


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
        cm = canon.countermodel(s, sig, pairs)
        assert semantics.forces(cm.model, 0, cm.assignment, s.lhs)
        forced.add(canon.forces(0, grounded.rhs))
        assert canon.forces(0, grounded.rhs) == semantics.forces(cm.model, 0, cm.assignment, s.rhs), s
    assert forced == {True, False}


def _status_by_the_canonical_model_first(s, sig, config):
    """The status decide gave when it built M_phi first and asked M_phi^1
    only where that build stopped; built here from CanonicalModel and refute,
    not from entails, which asks in the same order and is under test."""
    grounded, _, canon = _canonical_model(s, sig, config)
    if canon.worlds and canon.forces(0, grounded.rhs):
        return DERIVABLE
    if canon.complete or refute(s, sig, config) is not None:
        return UNDERIVABLE
    return UNDECIDED


def test_refuting_by_the_one_element_model_first_keeps_every_status():
    rng = random.Random(11)
    open_sig = Signature(relations=SIG.relations)  # no constants, so atoms take free variables
    corpus = [(random_sequent(rng, sig, *bounds), sig)
              for bounds in ((2, 2, 8), (3, 3, 15), (5, 5, 30))
              for sig in (SIG,) * 400 + (open_sig,) * 100]
    seen = Counter()
    # the bounds stop some builds, of M_phi or M_phi^1, so that every status occurs
    for config in (DeciderConfig(), DeciderConfig(max_worlds=3, max_domain=4)):
        for s, sig in corpus:
            v = decide(s, sig, config)
            assert v.status == _status_by_the_canonical_model_first(s, sig, config), s
            assert entails(s, sig, config) is {DERIVABLE: True, UNDERIVABLE: False}.get(v.status), s
            seen[v.status, v.stats["certificate_model"]] += 1
            if v.stats["certificate_model"] == ONE_ELEMENT:
                doc = json.loads(json.dumps(verdict_to_dict(v, sig)))["certificate"]["countermodel"]
                cm = semantics.countermodel_from_dict(doc, sig)
                cm.validate()
                assert cm.sequent == s
                assert len(set().union(*cm.model.domain.values())) == 1
    assert seen.keys() == {(DERIVABLE, CANONICAL), (UNDERIVABLE, CANONICAL), (UNDERIVABLE, ONE_ELEMENT),
                           (UNDECIDED, None)}
