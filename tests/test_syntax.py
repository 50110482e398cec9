import copy
import hashlib
import itertools
import json
import os
import pickle
import random
import subprocess
import sys
import threading
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from qrc1 import syntax
from qrc1.calculus import _relations
from qrc1.decider import DERIVABLE, UNDERIVABLE, decide, names_of
from qrc1.generate import random_formula, random_sequent
from qrc1.syntax import (
    MAX_NESTING,
    And,
    Const,
    Diamond,
    Forall,
    Formula,
    ParseError,
    Pred,
    Sequent,
    Signature,
    SignatureError,
    SubstitutionError,
    TOP,
    Term,
    Top,
    Var,
    constants_of,
    free_vars,
    parse_formula,
    parse_sequent,
    parse_sequent_file,
    parse_signature,
    pretty,
    pretty_sequent,
    signature_str,
    sort_key,
    sorted_formulas,
    substitute,
)
from qrc1.termmodel import ClosureError, closure, mdepth, set_mdepth, set_udepth, udepth

SIG = Signature(constants=("c0", "c1"), relations=(("S", 1), ("R", 2)))


# ---------------------------------------------------------------------------
# construction and signatures


def _python(code: str, hash_seed: int, stdin: bytes = b"") -> bytes:
    """Run code in a fresh interpreter with the given PYTHONHASHSEED."""
    import qrc1

    src = str(Path(qrc1.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONHASHSEED=str(hash_seed), PYTHONPATH=src)
    return subprocess.run(
        [sys.executable, "-c", code], input=stdin, capture_output=True, env=env, check=True
    ).stdout


_PARSE = """
import json, pickle, sys
from qrc1.syntax import Signature, parse_formula, parse_sequent
sig = Signature(constants=("c0", "c1"), relations=(("S", 1), ("R", 2)))
f = parse_formula("A x . <>(R(x,c0) & S(y))", sig)
s = parse_sequent("A x . A y . R(x,y) |- A y . A x . R(y,x) & R(c0,c1)", sig)
"""


def test_pickled_formulas_hash_anew_under_another_hash_seed():
    # hashed before pickling, so a hash that travelled would be the old seed's
    dumped = _python(_PARSE + "{f, s}\nsys.stdout.buffer.write(pickle.dumps((f, s)))", hash_seed=1)
    checks = _python(_PARSE + """
g, t = pickle.loads(sys.stdin.buffer.read())
print(json.dumps({
    "equal": g == f and t == s,
    "hash": hash(g) == hash(f) and hash(t) == hash(s),
    "in set": g in {f} and t in {s},
    "dict key": {f: 1}.get(g) == 1 and {s: 1}.get(t) == 1,
}))
""", hash_seed=2, stdin=dumped)
    assert json.loads(checks) == {"equal": True, "hash": True, "in set": True, "dict key": True}


def test_pickles_and_copies_are_the_interned_node():
    f = parse_formula("A x . <>(R(x,c0) & S(c1))", SIG)
    assert pickle.loads(pickle.dumps(f)) is f
    assert copy.copy(f) is f
    assert copy.deepcopy(f) is f
    # a sequent is a plain value: a rebuilt or copied one is equal, hashes
    # equal, and holds the interned sides
    s = Sequent(f, TOP)
    rebuilt = Sequent(parse_formula("A x . <>(R(x,c0) & S(c1))", SIG), TOP)
    for t in (rebuilt, pickle.loads(pickle.dumps(s)), copy.copy(s), copy.deepcopy(s)):
        assert t == s and hash(t) == hash(s)
        assert t.lhs is f and t.rhs is TOP
    assert Sequent(TOP, f) != s
    # a pickle of a node built in another process interns on load too
    dumped = _python(_PARSE + "sys.stdout.buffer.write(pickle.dumps((f, s)))", hash_seed=1)
    live = parse_sequent("A x . A y . R(x,y) |- A y . A x . R(y,x) & R(c0,c1)", SIG)
    g, t = pickle.loads(dumped)
    assert g is parse_formula("A x . <>(R(x,c0) & S(y))", SIG)
    assert t == live and hash(t) == hash(live)
    assert t.lhs is live.lhs and t.rhs is live.rhs


def test_a_sequent_that_nothing_holds_is_freed():
    # no table or cache keeps a sequent: the only references are the name s
    # and getrefcount's argument, before deciding it and after
    for text, status in [("A x . R(x,c0) |- <>S(c1)", UNDERIVABLE), ("S(c0) & R(c0,c1) |- S(c0)", DERIVABLE)]:
        s = parse_sequent(text, SIG)
        assert sys.getrefcount(s) == 2
        assert decide(s, SIG).status == status
        assert sys.getrefcount(s) == 2


def test_two_threads_building_one_formula_keep_one_copy():
    rounds, workers = 1000, 4
    built = [[] for _ in range(workers)]
    barrier = threading.Barrier(workers, timeout=30)

    def build(out):
        for i in range(rounds):
            barrier.wait()
            out.append(Pred(f"Race{i}", ()))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=build, args=(out,)) for out in built]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert all(len(out) == rounds for out in built)
    for copies in zip(*built):
        assert all(c is copies[0] for c in copies)


def test_no_node_carries_an_instance_dict():
    f = parse_formula("A x . <>(R(x,c0) & S(c1)) & T", SIG)
    nodes = [f, Sequent(f, TOP), *_subformulas(f), Var("x"), Const("c0")]
    assert {type(n) for n in nodes} == {Var, Const, Top, Pred, And, Diamond, Forall, Sequent}
    for node in nodes:
        assert not hasattr(node, "__dict__"), type(node)


def test_nodes_are_immutable():
    f = parse_formula("S(c0) & T", SIG)
    with pytest.raises(AttributeError):
        f.left = TOP
    with pytest.raises(AttributeError):
        del f.left
    with pytest.raises(TypeError):
        Var()


def _rebuilt(f):
    """f built again, node by node, from its fields."""
    match f:
        case Pred(name, args):
            return Pred(name, tuple(type(a)(a.name) for a in args))
        case And(l, r):
            return And(_rebuilt(l), _rebuilt(r))
        case Diamond(b):
            return Diamond(_rebuilt(b))
        case Forall(x, b):
            return Forall(x, _rebuilt(b))
    return type(f)()


def _subformulas(f: Formula):
    """f and each formula below it, left to right, repeats included."""
    yield f
    match f:
        case And(l, r):
            yield from _subformulas(l)
            yield from _subformulas(r)
        case Diamond(b) | Forall(_, b):
            yield from _subformulas(b)


@pytest.mark.parametrize("scope", [[], ["y", "z"]], ids=["closed", "free-variables"])
def test_equal_formulas_are_one_object(scope):
    for seed in range(300):
        draw = lambda: random_formula(random.Random(seed), SIG, 3, 2, 12, list(scope))
        f = draw()
        assert draw() is f and _rebuilt(f) is f
        assert parse_formula(pretty(f), SIG) is f
        for x in sorted(free_vars(f)):
            # the draws name their variables x0, x1, ..., y and z, so w is fresh
            renamed = substitute(f, x, Var("w"))
            assert substitute(renamed, "w", Var(x)) is f
            assert substitute(renamed, "w", Const("c0")) is substitute(f, x, Const("c0"))
        for g in _subformulas(f):
            if isinstance(g, Pred):
                assert Pred(g.name, list(g.args)) is g
        s = random_sequent(random.Random(seed), SIG, 3, 2, 12)
        t = random_sequent(random.Random(seed), SIG, 3, 2, 12)
        assert t == s and hash(t) == hash(s)
        assert t.lhs is s.lhs and t.rhs is s.rhs
        assert Sequent(f, s.rhs) == Sequent(f, s.rhs) and Sequent(f, s.rhs).lhs is f


# reference walks: the four fact sets by plain set algebra, with no sharing


def _free_vars(f: Formula) -> frozenset:
    match f:
        case Pred(_, args):
            return frozenset(t.name for t in args if isinstance(t, Var))
        case And(l, r):
            return _free_vars(l) | _free_vars(r)
        case Diamond(b):
            return _free_vars(b)
        case Forall(x, b):
            return _free_vars(b) - {x}
    return frozenset()


def _constants_of(f: Formula) -> frozenset:
    match f:
        case Pred(_, args):
            return frozenset(t.name for t in args if isinstance(t, Const))
        case And(l, r):
            return _constants_of(l) | _constants_of(r)
        case Diamond(b) | Forall(_, b):
            return _constants_of(b)
    return frozenset()


def _names_of(f: Formula) -> frozenset:
    match f:
        case Pred(_, args):
            return frozenset(t.name for t in args)
        case And(l, r):
            return _names_of(l) | _names_of(r)
        case Diamond(b):
            return _names_of(b)
        case Forall(x, b):
            return _names_of(b) | {x}
    return frozenset()


def _relations_of(f: Formula) -> frozenset:
    match f:
        case Pred(name, args):
            return frozenset({(name, len(args))})
        case And(l, r):
            return _relations_of(l) | _relations_of(r)
        case Diamond(b) | Forall(_, b):
            return _relations_of(b)
    return frozenset()


_WALKS = [(free_vars, _free_vars), (constants_of, _constants_of), (names_of, _names_of), (_relations, _relations_of)]


@pytest.mark.parametrize("scope", [[], ["y", "z"]], ids=["closed", "free-variables"])
def test_fact_walks_give_the_plain_sets_and_share_equal_ones(scope):
    seen: dict[frozenset, frozenset] = {}
    for seed in range(300):
        f = random_formula(random.Random(seed), SIG, 3, 2, 12, list(scope))
        for g in _subformulas(f):
            for walk, reference in _WALKS:
                facts = walk(g)
                assert type(facts) is frozenset and facts == reference(g)
                assert seen.setdefault(facts, facts) is facts


def test_equal_fact_sets_are_one_object():
    s0, r00 = parse_formula("S(c0)", SIG), parse_formula("R(c0,c0)", SIG)
    assert constants_of(s0) is constants_of(r00)
    assert _relations(parse_formula("S(x)", SIG)) is _relations(s0)
    a, b = parse_formula("R(x,y) & S(c0)", SIG), parse_formula("<>S(y)", SIG)
    # a union returns the operand that holds the other
    assert free_vars(And(a, b)) is free_vars(a)
    assert free_vars(And(b, a)) is free_vars(a)
    assert names_of(And(b, a)) is names_of(a)
    # a binder that binds nothing leaves the body's set as it is
    assert free_vars(Forall("z", a)) is free_vars(a)
    assert names_of(Forall("x", a)) is names_of(a)
    assert free_vars(Forall("x", a)) is free_vars(parse_formula("S(y)", SIG))
    assert free_vars(TOP) is constants_of(TOP) is names_of(TOP) is _relations(TOP)


def test_signature_rejects_duplicates_and_reserved_names():
    with pytest.raises(SignatureError):
        Signature(constants=("c", "c"))
    with pytest.raises(SignatureError):
        Signature(constants=("T",))
    with pytest.raises(SignatureError):
        Signature(relations=(("A", 1),))
    with pytest.raises(SignatureError):
        Signature(constants=("S",), relations=(("S", 1),))


def test_with_constants_is_idempotent():
    s2 = SIG.with_constants(["c1", "d"])
    assert s2.constants == ("c0", "c1", "d")
    assert s2.with_constants(["d"]).constants == s2.constants


# ---------------------------------------------------------------------------
# depths and free variables


def test_depths_on_nested_formula():
    f = parse_formula("<> A x . (S(x) & <> R(x, c0))", SIG)
    assert mdepth(f) == 2
    assert udepth(f) == 1
    assert free_vars(f) == frozenset()
    assert constants_of(f) == frozenset({"c0"})


def test_set_depths_empty_is_zero():
    assert set_mdepth([]) == 0
    assert set_udepth([]) == 0


def test_free_vars_respects_binding():
    f = parse_formula("A x . R(x, y)", SIG)
    assert free_vars(f) == frozenset({"y"})


# ---------------------------------------------------------------------------
# substitution


def test_substitute_replaces_free_occurrences_only():
    f = parse_formula("S(x) & A x . R(x, x)", SIG)
    g = substitute(f, "x", Const("c0"))
    # a trailing universal needs no parentheses: it extends maximally right
    assert pretty(g) == "S(c0) & A x . R(x,x)"
    assert parse_formula(pretty(g), SIG) == g


def _free_for(t, x: str, f) -> bool:
    """Whether t is free for x in f: substitute refuses exactly where it is not."""
    try:
        substitute(f, x, t)
    except SubstitutionError:
        return False
    return True


def test_substitute_detects_capture():
    f = parse_formula("A y . R(x, y)", SIG)
    assert not _free_for(Var("y"), "x", f)
    with pytest.raises(SubstitutionError):
        substitute(f, "x", Var("y"))


def test_substitute_constant_always_free():
    f = parse_formula("A y . R(x, y)", SIG)
    assert _free_for(Const("c0"), "x", f)
    assert pretty(substitute(f, "x", Const("c0"))) == "A y . R(c0,y)"


# capture found by a walk of its own, apart from substituting: the reference
# for the check substitute makes while it substitutes
def free_for(t: Term, x: str, f: Formula) -> bool:
    """True iff substituting t for free x in f captures no variable of t."""
    if isinstance(t, Const):
        return True
    y = t.name
    if y == x:
        return True

    def ok(g: Formula, bound: frozenset[str]) -> bool:
        match g:
            case Top():
                return True
            case Pred(_, args):
                # a free occurrence of x here would put y under the binders
                if any(isinstance(a, Var) and a.name == x for a in args):
                    return y not in bound
                return True
            case And(l, r):
                return ok(l, bound) and ok(r, bound)
            case Diamond(b):
                return ok(b, bound)
            case Forall(z, b):
                if z == x:
                    return True
                return ok(b, bound | {z})
        raise TypeError(f"not a formula: {g!r}")

    return ok(f, frozenset())


def test_substitute_refuses_exactly_where_the_reference_finds_capture():
    rng = random.Random(27)
    names = ["x0", "x1", "x2"]
    terms = [*map(Var, names), Const("c0")]
    captures = 0
    for _ in range(20_000):
        # binders are named x0, x1, ..., so they can shadow x and capture t
        f = random_formula(rng, SIG, max_mdepth=2, max_udepth=2, size=6, scope=names[:2])
        x, t = rng.choice(names), rng.choice(terms)
        try:
            substitute(f, x, t)
        except SubstitutionError as e:
            assert not free_for(t, x, f), (pretty(f), x, t)
            assert str(e) == f"{t.name} is not free for {x} in {pretty(f)}"
            captures += 1
        else:
            assert free_for(t, x, f), (pretty(f), x, t)
    assert captures > 0


@given(st.sampled_from(["x", "y", "z"]), st.sampled_from(["c0", "c1"]))
def test_substitute_is_identity_when_var_absent(x, c):
    f = parse_formula("S(c0) & <> T", SIG)
    assert substitute(f, x, Const(c)) == f


# ---------------------------------------------------------------------------
# closure


def test_closure_example_three_formulas():
    f = parse_formula("A x . S(x)", Signature(constants=("c",), relations=(("S", 1),)))
    cl = closure([f], ["c"])
    assert {pretty(g) for g in cl} == {"T", "S(c)", "A x . S(x)"}


def test_closure_preserves_depths():
    f = parse_formula("<> A x . (S(x) & <> R(x, c0))", SIG)
    cl = closure([f], SIG.constants)
    assert set_mdepth(cl) == mdepth(f)
    assert set_udepth(cl) == udepth(f)


def test_closure_requires_constants_for_universals():
    f = parse_formula("A x . S(x)", SIG)
    with pytest.raises(ClosureError):
        closure([f], [])


def test_closure_contains_top_and_subformulas():
    f = parse_formula("S(c0) & <> S(c1)", SIG)
    cl = {pretty(g) for g in closure([f], SIG.constants)}
    assert {"T", "S(c0)", "<>S(c1)", "S(c1)", "S(c0) & <>S(c1)"} <= cl


def reference_closure(gamma, constants) -> frozenset:
    """The least fixpoint of one step of the closure rules, from gamma."""
    out = set(gamma)
    while True:
        step = set()
        for f in out:
            match f:
                case Pred():
                    step.add(TOP)
                case And(l, r):
                    step |= {l, r}
                case Diamond(b):
                    step.add(b)
                case Forall(x, b):
                    if not constants:
                        raise ClosureError("no constants")
                    step |= {substitute(b, x, Const(c)) for c in constants}
        if step <= out:
            return frozenset(out)
        out |= step


def test_closure_agrees_with_the_least_fixpoint():
    rng = random.Random(26)
    tuples = [("c0",), ("c0", "c1"), ("c1", "c0"), ("c1", "c0", "c1", "c1"), ("c0", "d", "c0")]
    for _ in range(300):
        gamma = [random_formula(rng, SIG, 2, 2, rng.choice([3, 6, 10])) for _ in range(rng.randint(1, 3))]
        for cs in tuples:
            assert closure(gamma, cs) == reference_closure(gamma, cs)
            assert closure(iter(gamma), iter(cs)) == closure(reversed(gamma), reversed(cs))


def test_closure_without_constants_still_refuses_a_universal():
    f = parse_formula("A x . <>(S(x) & A y . R(x, y))", SIG)
    assert closure([f], ["c0"]) == reference_closure([f], ["c0"])
    with pytest.raises(ClosureError):
        closure([f], [])
    with pytest.raises(ClosureError):
        closure([parse_formula("<>S(c0)", SIG), f], ())


# ---------------------------------------------------------------------------
# parsing and printing


@pytest.mark.parametrize(
    "text",
    [
        "T",
        "S(c0)",
        "R(c0,c1)",
        "S(c0) & S(c1)",
        "<>S(c0)",
        "<><>T",
        "A x . S(x)",
        "A x . A y . R(x,y)",
        "<>(A x . S(x))",
        "(A x . S(x)) & T",
        "S(c0) & (S(c1) & T)",
        "<>(S(c0) & T)",
        "A x . (S(x) & <>R(x,c0))",
        "(T & A x . S(x)) & S(c0)",
    ],
)
def test_pretty_parse_round_trip(text):
    f = parse_formula(text, SIG)
    assert parse_formula(pretty(f), SIG) == f


TERMS = st.sampled_from([Var("x"), Var("y"), Const("c0"), Const("c1")])
FORMULAS = st.recursive(
    st.just(TOP)
    | st.builds(lambda t: Pred("S", (t,)), TERMS)
    | st.builds(lambda a, b: Pred("R", (a, b)), TERMS, TERMS),
    lambda sub: st.builds(And, sub, sub)
    | st.builds(Diamond, sub)
    | st.builds(Forall, st.sampled_from(["x", "y"]), sub),
    max_leaves=12,
)


@given(FORMULAS)
def test_pretty_parses_back_to_the_same_formula(f):
    assert parse_formula(pretty(f), SIG) == f


def test_nesting_limit():
    assert mdepth(parse_formula("<>" * MAX_NESTING + "T", SIG)) == MAX_NESTING
    parse_formula("A x . " * (MAX_NESTING - 1) + "<>S(x)", SIG)
    # parentheses do not count towards the limit; twice as many may be open
    parse_formula("(" * (2 * MAX_NESTING) + "T" + ")" * (2 * MAX_NESTING), SIG)
    for deep in (
        "<>" * (MAX_NESTING + 1) + "T",
        "(" * (2 * MAX_NESTING + 1) + "T" + ")" * (2 * MAX_NESTING + 1),
        " & ".join(["T"] * (MAX_NESTING + 2)),  # the chain nests to the left
        "<>" * MAX_NESTING + "(T & T)",
    ):
        with pytest.raises(ParseError, match="nested more than"):
            parse_formula(deep, SIG)


@pytest.mark.parametrize("text", [
    # pretty adds a parenthesis around each A x . under a <>
    "<>A x . " * 34 + "S(c0)",
    "<>A x . " * (MAX_NESTING // 2) + "S(x)",
    # and around each & that is the right operand of &
    "S(c0) & (" * MAX_NESTING + "T" + ")" * MAX_NESTING,
], ids=["<>A x . 34 times", "<>A x . to the limit", "& nested right to the limit"])
def test_pretty_of_a_formula_within_the_limit_parses_back(text):
    f = parse_formula(text, SIG)
    assert parse_formula(pretty(f), SIG) == f


def test_precedence_diamond_binds_tighter_than_and():
    f = parse_formula("<> S(c0) & S(c1)", SIG)
    assert isinstance(f, And) and isinstance(f.left, Diamond)


def test_forall_extends_right():
    f = parse_formula("A x . S(x) & T", SIG)
    assert isinstance(f, Forall)
    assert isinstance(f.body, And)


def test_parse_errors():
    for bad in ["", "S(", "S(c0", "T |-", "A . S(c0)", "<>", "S(c0) &", "Q(c0)", "S(c0,c1)"]:
        with pytest.raises(ParseError):
            parse_formula(bad, SIG)


def test_relation_in_term_position_rejected():
    with pytest.raises(ParseError):
        parse_formula("S(R)", SIG)


def test_constant_as_bound_variable_rejected():
    with pytest.raises(ParseError):
        parse_formula("A c0 . S(c0)", SIG)


def test_parse_sequent():
    s = parse_sequent("S(c0) |- <> T", SIG)
    assert s == Sequent(Pred("S", (Const("c0"),)), Diamond(TOP))
    assert pretty_sequent(s) == "S(c0) |- <>T"


def test_parse_sequent_file_with_header_and_comments():
    text = "# corpus\nsig: constants c0; relations S/1;\n\nT |- T\nS(c0) |- S(c0)\n"
    sig, seqs = parse_sequent_file(text)
    assert sig.constants == ("c0",)
    assert len(seqs) == 2


def test_signature_header_round_trip():
    assert parse_signature(signature_str(SIG)) == SIG


@pytest.mark.parametrize("header, declaration", [
    ("sig: constants c0, c1;", "c0,"),
    ("sig: constants c0 (;", "("),
    ("sig: relations S/1_0;", "S/1_0"),
    ("sig: relations S/+1;", "S/+1"),
    ("sig: relations S/-1;", "S/-1"),
    ("sig: relations S/\u0661;", "S/\u0661"),
    ("sig: relations S/;", "S/"),
    ("sig: relations S/1, R/2;", "S/1,"),
    ("sig: relations /1;", "/1"),
    ("sig: relations S&R/1;", "S&R/1"),
])
def test_a_declaration_is_identifier_tokens_and_ascii_digits(header, declaration):
    # str.split and int() alone would read c0, as a constant that S(c0) never
    # names, 1_0 as arity 10, and +1 and \u0661 as arity 1
    with pytest.raises(ParseError) as error:
        parse_signature(header)
    assert repr(declaration) in str(error.value)


def test_declared_names_are_the_lexer_identifiers():
    sig = parse_signature("sig: constants @x v#0 a!b 0; relations S/0 R_2/10;")
    assert sig == Signature(("@x", "v#0", "a!b", "0"), (("S", 0), ("R_2", 10)))
    args = parse_formula("R_2(@x,v#0,a!b,0,y,y,y,y,y,y)", sig).args
    assert args[:4] == tuple(map(Const, sig.constants))


def test_undeclared_name_is_a_variable():
    f = parse_formula("S(w)", SIG)
    assert f == Pred("S", (Var("w"),))


# ---------------------------------------------------------------------------
# the parse memo: keyed by the whole input, and sequents read side by side


def test_the_memo_keys_by_signature_as_well_as_text():
    with_c = Signature(constants=("c",), relations=(("S", 1),))
    without_c = Signature(relations=(("S", 1),))
    for order in ([with_c, without_c], [without_c, with_c]):
        parse_formula.cache_clear()
        for sig in order + order:
            expected = Const("c") if sig is with_c else Var("c")
            assert parse_formula("S(c)", sig) is Pred("S", (expected,))
            assert parse_sequent("S(c) |- S(c)", sig).rhs is Pred("S", (expected,))


def test_equal_signatures_hash_equal_and_share_one_memo_entry():
    first = Signature(constants=("c",), relations=(("S", 1),))
    second = Signature(constants=("c",), relations=(("S", 1),))
    assert first is not second and first == second and hash(first) == hash(second)
    parse_formula.cache_clear()
    assert parse_formula("S(c)", first) is parse_formula("S(c)", second)
    info = parse_formula.cache_info()
    assert (info.currsize, info.hits) == (1, 1)


def test_a_pickled_signature_hashes_anew_under_another_hash_seed():
    # a signature's hash is worked out when it is built, so a pickle rebuilds it
    dumped = _python(_PARSE + "hash(sig)\nsys.stdout.buffer.write(pickle.dumps(sig))", hash_seed=1)
    checks = _python(_PARSE + """
other = pickle.loads(sys.stdin.buffer.read())
print(json.dumps([other == sig, hash(other) == hash(sig), {sig: 1}.get(other)]))
""", hash_seed=2, stdin=dumped)
    assert json.loads(checks) == [True, True, 1]


def test_parse_errors_are_not_memoized():
    parse_formula.cache_clear()
    messages = []
    for _ in range(2):
        with pytest.raises(ParseError) as seen:
            parse_formula("S(c0) & Q(c0)", SIG)
        messages.append((str(seen.value), seen.value.position))
    assert messages == [("undeclared relation 'Q' (at position 8)", 8)] * 2
    with_q = Signature(constants=("c0",), relations=(("S", 1), ("Q", 1)))
    assert parse_formula("S(c0) & Q(c0)", with_q) is And(Pred("S", (Const("c0"),)), Pred("Q", (Const("c0"),)))
    assert parse_formula("S(c0)", SIG) is Pred("S", (Const("c0"),))


def reference_parse_sequent(text: str, sig: Signature) -> Sequent:
    """The whole-text parse that parse_sequent falls back to, as it read
    before sequents were parsed side by side."""
    p = syntax._Parser(text, sig)
    s = p.parse_sequent()
    p.done()
    return s


#: what a one-character mutant inserts, or puts in place of a character
_MUTANT_CHARACTERS = "|-<>?()&.x"


def _mutant(rng: random.Random, text: str) -> str:
    i = rng.randrange(len(text) + 1)
    c = rng.choice(_MUTANT_CHARACTERS)
    op = rng.randrange(3)
    if op == 0:
        return text[:i] + c + text[i:]
    if op == 1:
        return text[:i] + text[i + 1:]
    return text[:i] + c + text[i + 1:]


def test_sequents_parsed_side_by_side_agree_with_the_whole_text_parse():
    rng = random.Random(29)
    texts = []
    for _ in range(1200):
        text = pretty_sequent(random_sequent(
            rng, SIG, rng.randint(0, 3), rng.randint(0, 2), rng.randint(1, 16)))
        texts += [text, _mutant(rng, text)]
    texts += ["", "|-", "T |- T |- T", "T", "T |-", "|- T", " T|-T ", "T |- (T"]

    def outcome(parse, text):
        try:
            return parse(text, SIG)
        except ParseError as e:
            return str(e), e.position

    errors = 0
    for text in texts:
        expected = outcome(reference_parse_sequent, text)
        parse_formula.cache_clear()
        assert outcome(parse_sequent, text) == expected, text  # cold
        assert outcome(parse_sequent, text) == expected, text  # warm
        errors += isinstance(expected, tuple)
    for text in texts:  # warm with every other text's sides
        assert outcome(parse_sequent, text) == outcome(reference_parse_sequent, text), text
    assert 300 < errors < len(texts) - 300


# ---------------------------------------------------------------------------
# canonical ordering


def test_sorted_formulas_is_deterministic():
    fs = [parse_formula(t, SIG) for t in ["<>T", "T", "S(c0)", "S(c0) & T"]]
    once = sorted_formulas(fs)
    assert sorted_formulas(reversed(fs)) == once
    assert once[0] == TOP


# The order key as three functions, one walk each: the size, the tag, and
# the pair of them. sort_key must give the same key in one walk.


def _reference_size(f: Formula) -> int:
    match f:
        case Top() | Pred():
            return 1
        case And(l, r):
            return 1 + _reference_size(l) + _reference_size(r)
        case Diamond(b) | Forall(_, b):
            return 1 + _reference_size(b)
    raise TypeError(f"not a formula: {f!r}")


def _reference_tag(f: Formula) -> tuple:
    match f:
        case Top():
            return (0,)
        case Pred(name, args):
            return (1, name, tuple((isinstance(a, Const), a.name) for a in args))
        case And(l, r):
            return (2, _reference_tag(l), _reference_tag(r))
        case Diamond(b):
            return (3, _reference_tag(b))
        case Forall(x, b):
            return (4, x, _reference_tag(b))
    raise TypeError(f"not a formula: {f!r}")


def _reference_sort_key(f: Formula) -> tuple:
    return (_reference_size(f), _reference_tag(f))


@pytest.mark.parametrize(
    "max_mdepth, max_udepth, size", [(1, 1, 3), (2, 1, 6), (3, 2, 12), (4, 3, 24)]
)
def test_sort_key_is_the_three_walk_key(max_mdepth, max_udepth, size):
    rng = random.Random(size)
    fs = [random_formula(rng, SIG, max_mdepth, max_udepth, size, ["y", "z"]) for _ in range(500)]
    for f in fs:
        for g in _subformulas(f):
            assert sort_key(g) == _reference_sort_key(g), pretty(g)
    assert sorted_formulas(fs) == sorted(fs, key=_reference_sort_key)
    with pytest.raises(TypeError):
        sort_key(Var("y"))


# ---------------------------------------------------------------------------
# lexing, and parse outcomes pinned by digest


def _outcome(parse, text: str, sig: Signature = SIG) -> str:
    try:
        return repr(parse(text, sig))
    except ParseError as e:
        return f"ParseError: {e}"


def _single_character_outcome(c: str) -> str:
    return _outcome(parse_formula, c, Signature())


def test_each_code_point_lexes_as_the_str_methods_say():
    # identifiers are runs of str.isalnum characters and _ # @ !, and the
    # str.isspace characters separate tokens, by the running interpreter's
    # own Unicode tables; every other character outside the symbols is refused
    assert _single_character_outcome("T") == "Top"
    assert _single_character_outcome("A") == "ParseError: expected 'ident', found '' (at position 1)"
    assert _single_character_outcome("(") == "ParseError: expected a formula, found '' (at position 1)"
    for c in ").,;:/&":
        assert _single_character_outcome(c) == f"ParseError: expected a formula, found {c!r} (at position 0)"
    wrong = []
    for code in itertools.chain(range(0x10000), range(0x10000, 0x110000, 97)):
        c = chr(code)
        if c in "TA(),.;:/&":
            continue
        if c.isalnum() or c in "_#@!":
            expected = f"ParseError: undeclared relation {c!r} (at position 0)"
        elif c.isspace():
            expected = "ParseError: expected a formula, found '' (at position 1)"
        else:
            expected = f"ParseError: unexpected character {c!r} (at position 0)"
        if _single_character_outcome(c) != expected:
            wrong.append(f"U+{code:04X}")
    assert wrong == []


#: what a random edit inserts or puts in place of one character
_EDITS = ["(", ")", "<>", "|-", "&", ".", ",", "A", "T", "c0", "#", "@", "!", "é", "?", " ", "\t"]


def _edited(rng: random.Random, text: str) -> str:
    for _ in range(rng.randint(0, 3)):
        i = rng.randrange(len(text) + 1)
        op = rng.randrange(3)
        if op == 0:
            text = text[:i] + rng.choice(_EDITS) + text[i:]
        elif op == 1:
            text = text[:i] + text[i + 1:]
        else:
            text = text[:i] + rng.choice(_EDITS) + text[i + 1:]
    return text


def test_parser_outcomes_are_pinned():
    # each parse's result or error message, with its position; a change to
    # the lexer or parser that moves any of them changes the digest
    rng = random.Random(12)
    texts = [
        _edited(rng, pretty_sequent(random_sequent(
            rng, SIG, rng.randint(0, 4), rng.randint(0, 3), rng.randint(1, 24))))
        for _ in range(5000)
    ] + ["A c0 . S(c0) |- T", "A T . S(c0) |- T", "S(R) |- T", "S(A) |- T", "T |- T T"]
    deep = [
        "<>" * MAX_NESTING + "T",
        "<>" * (MAX_NESTING + 1) + "T",
        "(" * (2 * MAX_NESTING) + "T" + ")" * (2 * MAX_NESTING),
        "(" * (2 * MAX_NESTING + 1) + "T" + ")" * (2 * MAX_NESTING + 1),
        "A x . " * (MAX_NESTING - 1) + "<>S(x)",
        "A x . " * (MAX_NESTING + 1) + "S(x)",
        " & ".join(["T"] * (MAX_NESTING + 1)),
        " & ".join(["T"] * (MAX_NESTING + 2)),
        "<>" * MAX_NESTING + "(T & T)",
    ]
    lines = [_outcome(parse_sequent, t) for t in texts]
    lines += [_outcome(parse_formula, t) for t in deep]
    lines += [_outcome(parse_sequent, t) for t in deep for t in (t + " |- T", "T |- " + t)]
    assert len(lines) == 5005 + 3 * len(deep)
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == "e7869184aa094c09d4006e44eb3326160b68f3c16220acbd0dfde62b301d11cb"
