import gc
import hashlib
import json
import random
import weakref
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from qrc1 import semantics
from qrc1.calculus import check_derivation, derivation_from_dict
from qrc1.decider import (
    DERIVABLE,
    UNDERIVABLE,
    decide,
    entails,
    ground,
    verdict_to_dict,
)
from qrc1.generate import DEFAULT_SIG, enumerate_models, enumerate_sequents, random_sequent
from qrc1.syntax import (
    And, Const, Diamond, Forall, Pred, Sequent, Signature, free_vars, parse_sequent, parse_signature, sort_key,
)
from qrc1.termmodel import mdepth

SIG = DEFAULT_SIG


def seq(text: str) -> Sequent:
    return parse_sequent(text, SIG)


DERIVABLE_CASES = [
    "T |- T",
    "S(c0) |- T",
    "S(c0) & S(c1) |- S(c1) & S(c0)",
    "<><>S(c0) |- <>S(c0)",
    "<>(A x . S(x)) |- A x . <>S(x)",
    "A x . S(x) |- S(c1)",
    "A x . A y . R(x,y) |- A y . A x . R(x,y)",
    "<>(S(c0) & S(c1)) |- <>S(c0) & <>S(c1)",
    "A y . R(x,y) |- R(x,x)",
    "<><><>T |- <>T",
]

UNDERIVABLE_CASES = [
    "T |- <>T",
    "T |- S(c0)",
    "<>S(c0) |- S(c0)",
    "<>S(c0) |- <><>S(c0)",
    "S(c0) |- A x . S(x)",
    "A x . <>S(x) |- <>(A x . S(x))",
    "S(x) |- <>S(x)",
    "S(x) |- S(c0)",
    "<>S(c0) & <>S(c1) |- <>(S(c0) & S(c1))",
]


@pytest.mark.parametrize("text", DERIVABLE_CASES)
def test_decide_derivable_with_checked_certificate(text):
    s = seq(text)
    v = decide(s, SIG)
    assert v.status == DERIVABLE
    assert v.derivation.conclusion == s
    check_derivation(v.derivation, SIG.with_constants(
        f"@{x}" for x in sorted(free_vars(s.lhs) | free_vars(s.rhs))))


@pytest.mark.parametrize("text", UNDERIVABLE_CASES)
def test_decide_underivable_with_validated_countermodel(text):
    s = seq(text)
    v = decide(s, SIG)
    assert v.status == UNDERIVABLE
    assert v.countermodel.sequent == s
    v.countermodel.validate()


def test_decide_retains_no_verdict():
    v = decide(seq("T |- <>T"), SIG)
    assert v.countermodel is not None
    ref = weakref.ref(v)
    del v
    gc.collect()
    assert ref() is None


def test_a_deeper_right_hand_side_is_underivable():
    assert decide(seq("T |- <><>T"), SIG).status == UNDERIVABLE


def test_grounding_free_variables():
    s = seq("R(x,y) |- S(x)")
    used = {"x", "y", "c0", "c1"}
    (lhs, rhs), pairs = ground((s.lhs, s.rhs), used)
    assert pairs == [("x", "@x"), ("y", "@y")]
    assert not (free_vars(lhs) | free_vars(rhs))
    assert used >= {"@x", "@y", "c0", "c1"}
    # a name in use is skipped, and so is a name already taken for a variable
    # sorted before: x takes @x0, so x0 takes @x00
    s = seq("R(x,x0) |- S(y)")
    (lhs, rhs), pairs = ground((s.lhs, s.rhs), {"@x", "@y0"})
    assert pairs == [("x", "@x0"), ("x0", "@x00"), ("y", "@y")]
    assert lhs == Pred("R", (Const("@x0"), Const("@x00")))


def test_verdict_document_shape():
    v = decide(seq("T |- <>T"), SIG)
    doc = verdict_to_dict(v, SIG)
    assert doc["status"] == UNDERIVABLE
    assert doc["certificate"]["kind"] == "countermodel"
    v2 = decide(seq("T |- T"), SIG)
    doc2 = verdict_to_dict(v2, SIG)
    assert doc2["certificate"]["kind"] == "derivation"


def test_decide_random_sequents_always_certified():
    rng = random.Random(11)
    for _ in range(40):
        s = random_sequent(rng, SIG, max_mdepth=1, max_udepth=1, size=3)
        v = decide(s, SIG)
        assert v.status in (DERIVABLE, UNDERIVABLE), s
        if v.status == DERIVABLE:
            assert mdepth(s.lhs) >= mdepth(s.rhs)
        else:
            v.countermodel.validate()


@pytest.mark.parametrize("text,status", [
    ("A x . S(x) |- S(d)", DERIVABLE),
    ("S(d) |- S(e) & <>T", UNDERIVABLE),
])
def test_decide_adopts_undeclared_constants(text, status):
    sig = Signature(relations=(("S", 1),))
    s = parse_sequent(text, Signature(constants=("d", "e"), relations=sig.relations))
    v = decide(s, sig)
    assert v.status == status
    if status == DERIVABLE:
        assert check_derivation(v.derivation, sig.with_constants(["d"])) == s
        doc = verdict_to_dict(v, sig)["certificate"]["derivation"]
        assert doc["extra_constants"] == ["d"]
    else:
        assert v.countermodel.sequent == s
        assert {"d", "e"} <= v.countermodel.model.constI[0].keys()
        doc = verdict_to_dict(v, sig)["certificate"]["countermodel"]
        semantics.countermodel_from_dict(doc, sig).validate()


def test_conservativity_under_fresh_constants():
    extended = SIG.with_constants(["d0", "d1", "d2"])
    for text in DERIVABLE_CASES[:4] + UNDERIVABLE_CASES[:4]:
        s = seq(text)
        assert decide(s, SIG).status == decide(s, extended).status, text


# names decide could invent: fresh elements of M_phi, and the constants that
# name the free variables x and y
INVENTED_NAMES = ("v#0", "v#1", "@x", "@y")


@st.composite
def sequents_near_invented_names(draw):
    """A signature that declares some of INVENTED_NAMES, and the text of a
    sequent over it whose free variables are among x, y and @x and whose
    right-hand side holds a universal. Half the left-hand sides hold the
    same universal under another binder, which the right-hand one is then
    derived from at a fresh element of M_phi."""
    declared = draw(st.lists(st.sampled_from(INVENTED_NAMES + ("c0",)), unique=True))
    sig = Signature(tuple(declared), (("S", 1), ("R", 2)))
    # % stands for the variable a universal binds, and for x elsewhere
    terms = st.sampled_from(sorted({*declared, "x", "y", "@x", "%"}))
    binders = st.sampled_from([v for v in ("x", "y", "z", "v#0", "@x") if v not in declared])
    atoms = st.one_of(
        st.just("T"),
        terms.map("S({})".format),
        st.tuples(terms, terms).map(lambda ts: "R({},{})".format(*ts)),
    )
    formulas = st.recursive(atoms, lambda inner: st.one_of(
        st.tuples(inner, inner).map(lambda fs: "({} & {})".format(*fs)),
        inner.map("<>({})".format),
        st.tuples(binders, inner).map(lambda bf: "(A {} . {})".format(*bf)),
    ), max_leaves=5)
    b, c = draw(binders), draw(binders)
    body, side, rest = draw(formulas), draw(formulas), draw(formulas)
    lhs = draw(st.sampled_from([side, f"(A {c} . {body.replace('%', c)}) & {side}"]))
    text = f"{lhs} |- (A {b} . {body.replace('%', b)}) & {rest}"
    return sig, text.replace("%", "x")


@settings(max_examples=300, deadline=None)
@given(sequents_near_invented_names())
def test_certificates_check_after_the_json_round_trip_whatever_names_are_declared(case):
    # as `qrc1 decide --format json-lines` prints a certificate and
    # `qrc1 check-*` reads it back under the same signature
    sig, text = case
    s = parse_sequent(text, sig)
    v = decide(s, sig)
    cert = json.loads(json.dumps(verdict_to_dict(v, sig), sort_keys=True))["certificate"]
    if v.status == DERIVABLE:
        d = derivation_from_dict(cert["derivation"], sig)
        assert check_derivation(d, sig) == s
    elif v.status == UNDERIVABLE:
        cm = semantics.countermodel_from_dict(cert["countermodel"], sig)
        cm.validate()
        assert cm.sequent == s


# ---------------------------------------------------------------------------
# every small sequent (ROADMAP item 16)

SMALL_SIG = parse_signature("sig: constants c; relations S/1 R/2;")


def _binders_named_by_depth(f, depth=0) -> bool:
    match f:
        case And(l, r):
            return _binders_named_by_depth(l, depth) and _binders_named_by_depth(r, depth)
        case Diamond(b):
            return _binders_named_by_depth(b, depth)
        case Forall(x, b):
            return x == f"x{depth}" and _binders_named_by_depth(b, depth + 1)
    return True


def test_the_enumeration_holds_each_closed_sequent_once():
    sequents = list(enumerate_sequents(SMALL_SIG, 6))
    assert len(set(sequents)) == len(sequents)
    totals = [sort_key(s.lhs)[0] + sort_key(s.rhs)[0] for s in sequents]
    assert totals == sorted(totals)
    assert Counter(totals) == {2: 9, 3: 60, 4: 334, 5: 1992, 6: 12605}
    for s in sequents:
        assert not free_vars(s.lhs) and not free_vars(s.rhs)
        assert _binders_named_by_depth(s.lhs) and _binders_named_by_depth(s.rhs)
    assert sum(1 for _ in enumerate_sequents(SMALL_SIG, 7)) == 98_348


# decide's statuses in enumeration order, per signature and total size, as
# recorded before the change that added each case touched src/;
# certificate_model tells M_phi^1 from M_phi
SMALL_STATUS_CASES = {
    "c-S1-R2-size6": (
        SMALL_SIG, 6,
        {(DERIVABLE, "canonical"): 3950, (UNDERIVABLE, "one-element"): 10012, (UNDERIVABLE, "canonical"): 1038},
        "7e3e0a290322a0a7cf2c24b746eaa39cd9c067d99e486927dfaea5761da762af",
    ),
    "S1-R2-size7": (
        parse_signature("sig: relations S/1 R/2;"), 7,
        {(DERIVABLE, "canonical"): 3684, (UNDERIVABLE, "one-element"): 5634, (UNDERIVABLE, "canonical"): 118},
        "d4c71269f95aee4dff134d8650f6624a3cd43623729abdf5d6eabf34ecffc7d2",
    ),
}


@pytest.mark.parametrize("case", SMALL_STATUS_CASES)
def test_every_small_sequent_keeps_its_status(case):
    sig, max_size, statuses, pinned = SMALL_STATUS_CASES[case]
    counts, digest = Counter(), hashlib.sha256()
    for s in enumerate_sequents(sig, max_size):
        v = decide(s, sig)
        counts[v.status, v.stats["certificate_model"]] += 1
        digest.update(f"{v.status}\n".encode())
        assert entails(s, sig) is {DERIVABLE: True, UNDERIVABLE: False}[v.status], s
    assert counts == statuses
    assert digest.hexdigest() == pinned


def test_every_small_derivable_sequent_is_forced_on_every_small_model():
    """Soundness over every sequent of c; S/1 up to size 6: each derivable
    one holds at the root of every adequate model of at most 2 worlds and 2
    elements, its right-hand side forced wherever its left-hand side is. The
    sequents are closed, so one assignment per model suffices."""
    sig = parse_signature("sig: constants c; relations S/1;")
    derivable = [s for s in enumerate_sequents(sig, 6) if decide(s, sig).status == DERIVABLE]
    models = list(enumerate_models(sig, 2, 2))
    assert (len(derivable), len(models)) == (961, 144)
    sides = list(dict.fromkeys(f for s in derivable for f in (s.lhs, s.rhs)))
    for m in models:
        forced = dict(zip(sides, semantics.forces_each(m, 0, semantics.default_assignment(m, 0), sides)))
        unsound = [s for s in derivable if forced[s.lhs] and not forced[s.rhs]]
        assert not unsound, (m, unsound[:3])
