import hashlib
import json
import random
import re

import pytest

from qrc1.arith import (
    AndA,
    BoxOf,
    ConOf,
    EqQuote,
    Exists,
    ForallA,
    Implies,
    OrA,
    Quote,
    RealizationError,
    Realization,
    Tau,
    TemplateAtom,
    TheoremVar,
    arith_sequent,
    arith_to_dict,
    default_realization,
    param_index,
    parse_realization,
    realize,
    render,
    sigma1_warnings,
)
from qrc1.generate import DEFAULT_SIG, random_sequent
from qrc1.syntax import ParseError, Signature, parse_formula, parse_sequent

SIG = Signature(constants=("c0", "c1"), relations=(("S", 1), ("R", 2)))
R = default_realization(SIG)


def f(text: str):
    return parse_formula(text, SIG)


# ---------------------------------------------------------------------------
# golden translations


def test_top_translates_to_tau():
    assert render(realize(f("T"), R, sig=SIG)) == "τ(u)"


def test_diamond_top_golden():
    assert render(realize(f("<>T"), R, sig=SIG)) == "τ(u) ∨ (u = ⌜Con_{τ(u)}⌝)"


def test_universal_becomes_existential():
    out = realize(f("A x . S(x)"), R, sig=SIG)
    assert isinstance(out, Exists) and out.var == "z0"
    assert render(out) == "∃z0 (S(z0, u) ∨ τ(u))"


def test_conjunction_becomes_disjunction():
    out = realize(f("S(c0) & T"), R, sig=SIG)
    assert isinstance(out, OrA)
    assert out == OrA(realize(f("S(c0)"), R, sig=SIG), Tau())


def test_atom_clause_appends_tau_disjunct():
    out = realize(f("S(c0)"), R, sig=SIG)
    assert out == OrA(TemplateAtom("S", ("y0", "u")), Tau())


def test_diamond_clause_nests_consistency_codes():
    out = realize(f("<><>T"), R, sig=SIG)
    assert out == OrA(Tau(), EqQuote(Quote(ConOf(OrA(Tau(), EqQuote(Quote(ConOf(Tau()))))))))


# ---------------------------------------------------------------------------
# statement direction and parameter bookkeeping


def test_statement_reverses_the_implication():
    s = parse_sequent("<><>T |- <>T", SIG)
    out = arith_sequent(s, R, SIG)
    assert isinstance(out, ForallA) and out.var == "θ"
    body = out.body
    assert isinstance(body, Implies)
    # the antecedent is provability from the RIGHT-hand side's translation
    assert body.left == BoxOf(realize(s.rhs, R, sig=SIG), TheoremVar())
    assert body.right == BoxOf(realize(s.lhs, R, sig=SIG), TheoremVar())


def test_statement_quantifies_occurring_parameters():
    s = parse_sequent("A x . S(x) |- S(c0)", SIG)
    out = render(arith_sequent(s, R, SIG))
    assert out.startswith("∀θ ∀y0 ∀z0 (")
    assert "y1" not in out  # c1 does not occur


def test_constants_take_signature_indices():
    idx = param_index([f("S(c1)")], SIG)
    assert idx.y_of == {"c1": "y1"}
    idx2 = param_index([f("R(c1, c0)")], SIG)
    assert idx2.y_of == {"c0": "y0", "c1": "y1"}


def test_variables_take_first_occurrence_indices():
    idx = param_index([f("R(y, x) & A w . S(w)")], SIG)
    assert idx.z_of == {"y": "z0", "x": "z1", "w": "z2"}


def test_shared_parameter_space_across_both_sides():
    s = parse_sequent("S(x) |- R(x, c1)", SIG)
    out = arith_sequent(s, R, SIG)
    doc = arith_to_dict(out)
    assert doc["node"] == "forall" and doc["var"] == "θ"


# ---------------------------------------------------------------------------
# structural properties


def test_translation_always_carries_a_tau_disjunct():
    for text in ["T", "S(c0)", "S(c0) & <>T", "<>S(c1)", "A x . S(x)"]:
        out = realize(f(text), R, sig=SIG)
        while isinstance(out, Exists):
            out = out.body
        assert _has_tau_disjunct(out), text


def _has_tau_disjunct(g) -> bool:
    if isinstance(g, Tau):
        return True
    if isinstance(g, OrA):
        return _has_tau_disjunct(g.left) or _has_tau_disjunct(g.right)
    return False


def test_missing_template_is_an_error():
    bad = Realization({})
    with pytest.raises(RealizationError):
        realize(f("S(c0)"), bad, sig=SIG)


def test_arity_mismatch_is_an_error():
    bad = Realization({"S": (("a", "b"), Tau())})
    with pytest.raises(RealizationError):
        realize(f("S(c0)"), bad, sig=SIG)


# ---------------------------------------------------------------------------
# realization files


def test_parse_realization_file():
    text = """
    # sample templates
    S(a)    := E v . a + v = u
    R(a, b) := a + b <= u
    """
    r, warnings = parse_realization(text)
    assert warnings == []
    out = realize(f("S(c0)"), r, sig=SIG)
    assert render(out) == "(∃v y0 + v = u) ∨ τ(u)"


def test_parse_realization_rejects_bad_heads():
    with pytest.raises(ParseError):
        parse_realization("S := u = u")
    with pytest.raises(ParseError):
        parse_realization("S(u) := u = u")
    with pytest.raises(ParseError):
        parse_realization("S(a) := u = u\nS(a) := u = u")


@pytest.mark.parametrize("head", [
    "S((a))", "S(a b)", "S(a,)", "S(,a)", "S(a,,b)", "S(3)", "S(a)(b)", "(a)", "S(",
])
def test_parse_realization_wants_names_separated_by_single_commas(head):
    with pytest.raises(ParseError, match=rf"^line 2: bad template head {re.escape(repr(head))}$"):
        parse_realization(f"R(a, b) := a = b\n{head} := u = u")


@pytest.mark.parametrize("head, params", [
    ("S()", ()), ("S(a)", ("a",)), ("S( a ,b )", ("a", "b")), ("S(a_1, b, c)", ("a_1", "b", "c")),
])
def test_parse_realization_reads_the_head_parameters(head, params):
    r, _ = parse_realization(f"{head} := u = u")
    assert r.templates["S"][0] == params


@pytest.mark.parametrize("template, name", [
    ("a = b", "b"),
    ("E v . a = v | v = u", "v"),  # the existential binds only its own unit
    ("A w <= w . a = w", "w"),  # the bound lies outside the binder's scope
], ids=["unbound", "out-of-scope", "in-the-bound"])
def test_parse_realization_rejects_free_names(template, name):
    with pytest.raises(ParseError, match=f"^line 1: '{name}' in the template for S is neither"):
        parse_realization(f"S(a) := {template}")


@pytest.mark.parametrize("template, message", [
    ("E y0 . a + y0 = u", "y0 is reserved for the statement and cannot be bound"),
    ("A z3 <= a . z3 + a <= u", "z3 is reserved for the statement and cannot be bound"),
    ("E u . a = u", "u is reserved for the statement and cannot be bound"),
    ("E 3 . a = u", "bad binder '3'"),
    ("A + <= 2 . a = u", "bad binder '\\+'"),
], ids=["y0", "z3", "u", "numeral", "operator"])
def test_parse_realization_refuses_binders_that_are_not_free_names(template, message):
    # the translation puts y0, z0, ... for the parameters, so such a binder
    # would capture them; a bound u would leave the template no axiom code
    with pytest.raises(ParseError, match=f"^line 2: {message}$"):
        parse_realization(f"R(a, b) := a = b\nS(a) := {template}")


def test_sigma1_lint_flags_unbounded_universals():
    r, warnings = parse_realization("S(a) := E v . a = v")
    assert warnings == []
    assert sigma1_warnings(Exists("v", Tau())) == []
    assert sigma1_warnings(ForallA("v", Tau()))
    assert sigma1_warnings(AndA(Exists("v", Tau()), Tau()))  # ∃ outside the prefix


def test_bounded_universal_is_sigma1_clean():
    r, warnings = parse_realization("S(a) := E v . A w <= v . w + a <= u")
    assert warnings == []
    out = realize(f("S(c0)"), r, sig=SIG)
    assert "∀w ≤ v" in render(out)


# ---------------------------------------------------------------------------
# the printed bytes, pinned

SAMPLE_REALIZATION = """
S(a) := E v . (a + v = u | A w <= v * 2 . w + a <= u) & (E q . a * (q + 1) = u)
R(a, b) := (a + b) * 3 <= u & E v . A w <= (a + v) . w = b | u = 0
"""


@pytest.mark.parametrize("realization, digest", [
    (default_realization(DEFAULT_SIG), "cb093851dec9fe590ec3f121dfe170de611c4266fd6fcb46ce798e526580fdc0"),
    (parse_realization(SAMPLE_REALIZATION)[0], "36c575c01c714bc9a4edbbedd92b7a055c804cf72152546be52e75217e268493"),
], ids=["default", "sample-file"])
def test_translation_bytes_are_pinned(realization, digest):
    """Both printed forms of 300 seeded statements, hashed: a refactor of the
    translation or the printers must leave every byte as it is."""
    rng = random.Random(7)
    h = hashlib.sha256()
    for _ in range(300):
        statement = arith_sequent(random_sequent(rng, DEFAULT_SIG), realization, DEFAULT_SIG)
        h.update(render(statement).encode() + b"\n")
        h.update(json.dumps(arith_to_dict(statement), sort_keys=True).encode() + b"\n")
    assert h.hexdigest() == digest
