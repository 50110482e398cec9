import json
import random

import pytest

from qrc1 import calculus, syntax
from qrc1.calculus import (
    AND_E_L,
    AND_E_R,
    AND_I,
    BARCAN_AX,
    CONST_GEN,
    CUT,
    Derivation,
    DerivationError,
    FORALL_L,
    FORALL_R,
    ID,
    Instantiation,
    NEC,
    ProofSearch,
    TERM_INST,
    TOP_I,
    TRANS_AX,
    check_derivation,
    derivation_from_dict,
    derivation_to_dict,
    prove,
)
from qrc1.decider import UNDECIDED, decide
from qrc1.derived import (
    derived_gen_rhs,
    derived_inst,
    derived_inst_rhs,
    derived_rename,
    derived_swap_foralls,
)
from qrc1.generate import DEFAULT_SIG, random_formula, random_sequent
from qrc1.syntax import (
    And,
    Const,
    Diamond,
    Forall,
    Formula,
    ParseError,
    Pred,
    Sequent,
    Signature,
    Var,
    constants_of,
    parse_formula,
    parse_sequent,
    parse_signature,
    pretty,
    substitute,
)
from qrc1.termmodel import mdepth

SIG = Signature(constants=("c0", "c1"), relations=(("S", 1), ("R", 2)))


def f(text: str):
    return parse_formula(text, SIG)


def seq(text: str) -> Sequent:
    return parse_sequent(text, SIG)


# ---------------------------------------------------------------------------
# leaf rules


def test_top_intro_and_identity():
    check_derivation(Derivation(TOP_I, seq("S(c0) |- T")), SIG)
    check_derivation(Derivation(ID, seq("S(c0) |- S(c0)")), SIG)
    with pytest.raises(DerivationError):
        check_derivation(Derivation(ID, seq("S(c0) |- S(c1)")), SIG)


def test_conjunction_elimination():
    check_derivation(Derivation(AND_E_L, seq("S(c0) & T |- S(c0)")), SIG)
    with pytest.raises(DerivationError):
        check_derivation(Derivation(AND_E_L, seq("S(c0) & T |- T")), SIG)


def test_transitivity_axiom():
    check_derivation(Derivation(TRANS_AX, seq("<><>S(c0) |- <>S(c0)")), SIG)
    with pytest.raises(DerivationError):
        check_derivation(Derivation(TRANS_AX, seq("<>S(c0) |- <>S(c0)")), SIG)


def test_quantified_modal_axiom():
    check_derivation(Derivation(BARCAN_AX, seq("<>(A x . S(x)) |- A x . <>S(x)")), SIG)
    with pytest.raises(DerivationError):
        # the converse direction is not an instance
        check_derivation(Derivation(BARCAN_AX, seq("A x . <>S(x) |- <>(A x . S(x))")), SIG)


def test_term_instantiation_leaf():
    d = Derivation(
        TERM_INST,
        seq("S(c0) |- <>S(c0)"),
        instantiation=Instantiation("x", Const("c0")),
    )
    # conclusion must be a substitution instance phi[x/t] |- psi[x/t] of a
    # derivable-shaped premise; here the premise is the underivable S(x) |- <>S(x)
    with pytest.raises(DerivationError):
        check_derivation(d, SIG)


# ---------------------------------------------------------------------------
# unary/binary rules


def test_conjunction_introduction():
    d = Derivation(
        AND_I,
        seq("S(c0) & S(c1) |- S(c1) & S(c0)"),
        (
            Derivation("AndE-R", seq("S(c0) & S(c1) |- S(c1)")),
            Derivation("AndE-L", seq("S(c0) & S(c1) |- S(c0)")),
        ),
    )
    check_derivation(d, SIG)


def test_cut():
    d = Derivation(
        CUT,
        seq("S(c0) & T |- T"),
        (
            Derivation(AND_E_L, seq("S(c0) & T |- S(c0)")),
            Derivation(TOP_I, seq("S(c0) |- T")),
        ),
    )
    check_derivation(d, SIG)
    bad = Derivation(
        CUT,
        seq("S(c0) & T |- T"),
        (
            Derivation(AND_E_L, seq("S(c0) & T |- S(c0)")),
            Derivation(TOP_I, seq("S(c1) |- T")),  # middle formulas disagree
        ),
    )
    with pytest.raises(DerivationError):
        check_derivation(bad, SIG)


def test_necessitation():
    d = Derivation(
        NEC,
        seq("<>(S(c0) & T) |- <>S(c0)"),
        (Derivation(AND_E_L, seq("S(c0) & T |- S(c0)")),),
    )
    check_derivation(d, SIG)


def test_forall_right_eigenvariable_condition():
    d = Derivation(FORALL_R, seq("T |- A x . T"), (Derivation(TOP_I, seq("T |- T")),))
    check_derivation(d, SIG)
    bad = Derivation(
        FORALL_R,
        seq("S(x) |- A x . S(x)"),
        (Derivation(ID, seq("S(x) |- S(x)")),),
    )
    with pytest.raises(DerivationError):
        check_derivation(bad, SIG)


def test_forall_left_instantiation():
    d = Derivation(
        FORALL_L,
        seq("A x . S(x) |- S(c0)"),
        (Derivation(ID, seq("S(c0) |- S(c0)")),),
        Instantiation("x", Const("c0")),
    )
    check_derivation(d, SIG)


def test_forall_left_capture_rejected():
    # substituting y for x in A y . R(x,y) would capture y
    body = f("A y . R(x,y)")
    d = Derivation(
        FORALL_L,
        Sequent(Forall("x", body), f("T")),
        (Derivation(TOP_I, Sequent(substitute(body, "x", Const("c0")), f("T"))),),
        Instantiation("x", Var("y")),
    )
    with pytest.raises(DerivationError, match="side condition violated: term not free for the variable$"):
        check_derivation(d, SIG)


def test_term_instantiation_capture_rejected():
    # substituting y for x in the premise's A y . R(x,y) would capture y
    premise = Derivation(ID, Sequent(f("A y . R(x,y)"), f("A y . R(x,y)")))
    d = Derivation(TERM_INST, premise.conclusion, (premise,), Instantiation("x", Var("y")))
    with pytest.raises(DerivationError, match="side condition violated: term not free for the variable$"):
        check_derivation(d, SIG)


def test_constant_generalization_freshness():
    inner = Derivation(
        FORALL_L,
        seq("A x . S(x) |- S(c0)"),
        (Derivation(ID, seq("S(c0) |- S(c0)")),),
        Instantiation("x", Const("c0")),
    )
    bad = Derivation(
        CONST_GEN,
        seq("A x . S(x) |- S(y)"),
        (inner,),
        Instantiation("y", Const("c0")),
    )
    # c0 appears on the left-hand side? it does not, but it appears in S(c0)
    # only via the grounding, so this direction is fine
    check_derivation(bad, SIG)
    not_fresh = Derivation(
        CONST_GEN,
        seq("S(c0) & S(y) |- S(y)"),
        (Derivation("AndE-R", seq("S(c0) & S(c0) |- S(c0)")),),
        Instantiation("y", Const("c0")),
    )
    with pytest.raises(DerivationError):
        check_derivation(not_fresh, SIG)


def test_undeclared_relation_rejected():
    d = Derivation(ID, parse_sequent("Q(c0) |- Q(c0)", Signature(constants=("c0",), relations=(("Q", 1),))))
    with pytest.raises(DerivationError):
        check_derivation(d, SIG)


# ---------------------------------------------------------------------------
# derived rules elaborate to primitive rules


PRIMITIVES = {TOP_I, ID, "AndE-L", "AndE-R", AND_I, CUT, NEC, TRANS_AX,
              BARCAN_AX, FORALL_R, FORALL_L, TERM_INST, CONST_GEN}


def all_rules(d: Derivation) -> set[str]:
    out = {d.rule}
    for p in d.premises:
        out |= all_rules(p)
    return out


def test_swap_universal_quantifiers():
    d = derived_swap_foralls(f("R(x,y)"), "x", "y")
    assert check_derivation(d, SIG) == seq("A x . A y . R(x,y) |- A y . A x . R(x,y)")
    assert all_rules(d) <= PRIMITIVES


def test_instantiate_on_the_left():
    d = derived_inst(f("S(x)"), "x", Const("c1"))
    assert check_derivation(d, SIG) == seq("A x . S(x) |- S(c1)")
    assert all_rules(d) <= PRIMITIVES


def test_rename_bound_variable():
    d = derived_rename(f("S(x)"), "x", "y")
    assert check_derivation(d, SIG) == seq("A x . S(x) |- A y . S(y)")
    assert all_rules(d) <= PRIMITIVES


def test_instantiate_on_the_right():
    premise = derived_inst(f("S(x)"), "x", Var("x"))  # A x . S(x) |- S(x)
    d = derived_inst_rhs(premise, "x", Const("c0"))
    assert check_derivation(d, SIG) == seq("A x . S(x) |- S(c0)")
    assert all_rules(d) <= PRIMITIVES


def test_generalize_on_the_right():
    premise = Derivation(
        FORALL_L,
        seq("A x . S(x) |- S(c0)"),
        (Derivation(ID, seq("S(c0) |- S(c0)")),),
        Instantiation("x", Const("c0")),
    )
    d = derived_gen_rhs(premise, "y", "c0")
    assert check_derivation(d, SIG) == seq("A x . S(x) |- A y . S(y)")
    assert all_rules(d) <= PRIMITIVES


# ---------------------------------------------------------------------------
# proof search


@pytest.mark.parametrize(
    "text",
    [
        "S(c0) |- T",
        "S(c0) |- S(c0)",
        "S(c0) & S(c1) |- S(c1) & S(c0)",
        "<><>S(c0) |- <>S(c0)",
        "<>(A x . S(x)) |- A x . <>S(x)",
        "A x . S(x) |- S(c1)",
        "A x . A y . R(x,y) |- A y . A x . R(x,y)",
        "<>(S(c0) & S(c1)) |- <>S(c0) & <>S(c1)",
        "A x . (S(x) & R(x,x)) |- A x . S(x)",
        "<><><>T |- <>T",
    ],
)
def test_prove_finds_checked_derivations(text):
    s = seq(text)
    d = prove(s, SIG, budget=20)
    assert d is not None, text
    assert check_derivation(d, SIG) == s


def test_prove_respects_modal_depth_necessary_condition():
    assert prove(seq("<>S(c0) |- <><>S(c0)"), SIG, budget=12) is None
    assert prove(seq("T |- <>T"), SIG, budget=12) is None


def test_prove_derivations_never_raise_modal_depth():
    rng = random.Random(7)
    search = ProofSearch(SIG)
    found = 0
    for _ in range(60):
        s = Sequent(
            random_formula(rng, SIG, max_mdepth=2, max_udepth=1, size=3),
            random_formula(rng, SIG, max_mdepth=2, max_udepth=1, size=3),
        )
        d = search.prove(s, budget=8)
        if d is not None:
            found += 1
            assert mdepth(s.lhs) >= mdepth(s.rhs)
            check_derivation(d, SIG)
    assert found > 0


def test_prove_returns_decides_derivation_under_a_node_budget():
    # the CI corpus: scripts/gen_corpus.py --count 500 --seed 7
    rng = random.Random(7)
    corpus = [random_sequent(rng, DEFAULT_SIG, 2, 1, 4) for _ in range(500)]
    search = ProofSearch(DEFAULT_SIG)
    proved = []
    for s in corpus:
        d = search.prove(s, 12)
        assert prove(s, DEFAULT_SIG) == d
        if d is not None:
            assert d == decide(s, DEFAULT_SIG).derivation
            proved.append(d)
    assert len(proved) == 197
    assert search.stats.nodes_expanded == sum(d.size() for d in proved)
    # every derivation above has at most 6 nodes; 167 of them at most 3
    assert sum(prove(s, DEFAULT_SIG, budget=3) is not None for s in corpus) == 167


def test_prove_gives_nothing_where_the_canonical_model_fills_its_fact_cap():
    # derivable in 4 nodes, but the 12 nested universals fill
    # CANONICAL_FACT_CAP in the root world before it has a child world
    xs = [f"x{i}" for i in range(1, 13)]
    chain = " & ".join(f"R({a},{b})" for a, b in zip(xs, xs[1:]))
    universals = "".join(f"A {x} . " for x in xs)
    s = seq(f"({universals}({chain})) & <>(S(c0) & <>S(c1)) |- <><>S(c1)")
    assert prove(s, SIG) is None
    assert decide(s, SIG).status == UNDECIDED


# ---------------------------------------------------------------------------
# serialization


def test_derivation_round_trip():
    s = seq("<>(A x . S(x)) |- A x . <>S(x)")
    d = prove(s, SIG, budget=20)
    doc = derivation_to_dict(d, SIG)
    back = derivation_from_dict(doc, SIG)
    assert check_derivation(back, SIG.with_constants(doc.get("extra_constants", ()))) == s


def test_extra_constants_list_every_constant_the_signature_lacks():
    # k occurs only in the root's conclusion; d occurs below it only, in the
    # Cut formula S(d), brought in by the ForallL step that instantiates x by
    # d; e is the term of a vacuous TermInst and occurs in no formula
    sig = Signature(relations=(("S", 1),))
    wide = sig.with_constants(["d", "e", "k"])
    s = lambda text: parse_sequent(text, wide)
    to_cut = Derivation(FORALL_L, s("A x . S(x) |- S(d)"), (Derivation(ID, s("S(d) |- S(d)")),),
                        Instantiation("x", Const("d")))
    cut_d = Derivation(CUT, s("A x . S(x) |- T"), (to_cut, Derivation(TOP_I, s("S(d) |- T"))))
    left = Derivation(CUT, s("S(k) & A x . S(x) |- T"),
                      (Derivation(AND_E_R, s("S(k) & A x . S(x) |- A x . S(x)")), cut_d))
    vacuous = Derivation(TERM_INST, s("T |- T"), (Derivation(TOP_I, s("T |- T")),), Instantiation("z", Const("e")))
    root = Derivation(CUT, s("S(k) & A x . S(x) |- T"), (left, vacuous))
    doc = json.loads(json.dumps(derivation_to_dict(root, sig)))
    assert doc["extra_constants"] == ["d", "e", "k"]
    back = derivation_from_dict(doc, sig)
    assert back == root
    assert check_derivation(back, sig) == root.conclusion


def test_derivation_documents_parse_each_distinct_side_once(monkeypatch):
    s = seq("<>(A x . S(x)) & R(c0,c1) |- A x . <>S(x) & R(c0,c1)")
    d = decide(s, SIG).derivation
    doc = derivation_to_dict(d, SIG)
    sides, stack = set(), [doc]
    while stack:
        node = stack.pop()
        sides.update(side.strip() for side in node["conclusion"].split("|-"))
        stack.extend(node.get("premises", []))
    parses = []

    class Counted(syntax._Parser):
        def __init__(self, text, sig):
            parses.append(text)
            super().__init__(text, sig)

    monkeypatch.setattr(syntax, "_Parser", Counted)
    parse_formula.cache_clear()
    assert len(sides) < 2 * d.size()  # sides repeat across the document's conclusions
    assert derivation_from_dict(doc, SIG) == d
    assert sorted(parses) == sorted(sides)  # each distinct side once, and no whole conclusion
    parses.clear()
    assert derivation_from_dict(doc, SIG) == d
    assert parses == []  # a second load of the document parses nothing


def test_a_conclusion_side_that_fails_to_parse_reports_the_sequents_error():
    doc = derivation_to_dict(decide(seq("S(c0) & S(c1) |- S(c1) & S(c0)"), SIG).derivation, SIG)
    known = doc["conclusion"].split(" |- ")[0]
    doc["premises"][0]["conclusion"] = bad = f"{known} |- S(c1 ?"
    with pytest.raises(ParseError) as seen:
        derivation_from_dict(doc, SIG)
    with pytest.raises(ParseError) as expected:
        parse_sequent(bad, SIG)
    assert str(seen.value) == str(expected.value) and "position" in str(seen.value)


def test_an_ill_formed_side_names_its_first_atom_at_fault():
    wide = Signature(constants=("c0",), relations=(("Q", 1), ("R", 1)))
    d = Derivation(ID, parse_sequent("Q(c0) & R(c0) |- Q(c0) & R(c0)", wide))
    with pytest.raises(DerivationError, match=r"^Id concluding '.*': undeclared relation 'Q'$"):
        check_derivation(d, SIG)
    with pytest.raises(DerivationError, match=r"arity mismatch for 'R'$"):
        check_derivation(d, Signature(constants=("c0",), relations=(("Q", 1), ("R", 2))))


def _atoms(f: Formula) -> set[tuple[str, int]]:
    match f:
        case Pred(name, args):
            return {(name, len(args))}
        case And(l, r):
            return _atoms(l) | _atoms(r)
        case Diamond(b) | Forall(_, b):
            return _atoms(b)
    return set()


def test_relations_are_the_name_and_arity_of_each_atom():
    rng = random.Random(5)
    sig = Signature(constants=("c0",), relations=(("P", 0), ("S", 1), ("R", 2), ("Q", 3)))
    for size in (1, 4, 12, 30):
        for _ in range(200):
            f = random_formula(rng, sig, max_mdepth=3, max_udepth=2, size=size, scope=["y"])
            assert calculus._relations(f) == _atoms(f), pretty(f)


# derivation_to_dict as it was written with a per-document print memo: each
# distinct formula printed once, and its constants collected then


def _reference_node(d: Derivation, text, constants: set[str]) -> dict:
    doc: dict = {"rule": d.rule, "conclusion": f"{text(d.conclusion.lhs)} |- {text(d.conclusion.rhs)}"}
    if d.instantiation is not None:
        t = d.instantiation.term
        if isinstance(t, Const):
            constants.add(t.name)
        doc["instantiation"] = {
            "var": d.instantiation.var,
            "term": t.name,
            "kind": "const" if isinstance(t, Const) else "var",
        }
    if d.premises:
        doc["premises"] = [_reference_node(p, text, constants) for p in d.premises]
    return doc


def _reference_derivation_to_dict(d: Derivation, sig: Signature) -> dict:
    texts: dict[Formula, str] = {}
    constants: set[str] = set()

    def text(f: Formula) -> str:
        printed = texts.get(f)
        if printed is None:
            printed = texts[f] = pretty(f)
            constants.update(constants_of(f))
        return printed

    doc = _reference_node(d, text, constants)
    extra = sorted(constants - set(sig.constants))
    if extra:
        doc["extra_constants"] = extra
    return doc


@pytest.mark.parametrize("header", [None, "sig: relations S/1 R/2;"], ids=["closed", "open"])
def test_derivation_documents_match_the_memoized_serializer(header):
    # the CI corpora: scripts/gen_corpus.py --count 500 --seed 7 [--sig HEADER]
    sig = parse_signature(header) if header else DEFAULT_SIG
    rng = random.Random(7)
    derivations = [decide(random_sequent(rng, sig, 2, 1, 4), sig).derivation for _ in range(500)]
    derivations = [d for d in derivations if d is not None]
    assert len(derivations) > 100
    extra = sum("extra_constants" in derivation_to_dict(d, sig) for d in derivations)
    assert extra > 0 if header else extra == 0
    # k only on a right-hand side, where no checked derivation has a constant of its own
    unchecked = Derivation(ID, parse_sequent("S(c0) |- S(k)", sig.with_constants(["c0", "k"])))
    for d in derivations + [unchecked]:
        doc, expected = derivation_to_dict(d, sig), _reference_derivation_to_dict(d, sig)
        assert json.dumps(doc) == json.dumps(expected)
