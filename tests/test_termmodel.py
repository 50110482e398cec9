import hashlib
import json
import random
from collections import Counter

import pytest

import qrc1.decider as decider
import qrc1.termmodel as termmodel

from qrc1.decider import DERIVABLE, UNDECIDED, UNDERIVABLE, DeciderConfig, decide, entails
from qrc1.generate import DEFAULT_SIG, random_formula, random_sequent
from qrc1.semantics import check_adequate
from qrc1.syntax import (
    And,
    Diamond,
    Forall,
    Sequent,
    Signature,
    closure,
    constants_of,
    free_vars,
    parse_formula,
    parse_signature,
    pretty_sequent,
    set_mdepth,
    signature_str,
    sorted_formulas,
    substitute,
    Const,
)
from qrc1.termmodel import (
    OracleUndecidedError,
    PairPM,
    PairError,
    build_term_model,
    conjunction,
    hatR,
    is_consistent,
    lindenbaum,
    oracle,
    pair_existence,
    truth_lemma_check,
)

SIG = Signature(constants=("c",), relations=(("S", 1),))


def f(text: str, sig=SIG):
    return parse_formula(text, sig)


def pair(pos, neg, sig=SIG) -> PairPM:
    return PairPM(
        frozenset(f(t, sig) for t in pos),
        frozenset(f(t, sig) for t in neg),
        sig.constants,
    )


# ---------------------------------------------------------------------------
# entailment oracle and consistency


def test_entails_basics():
    assert oracle([f("S(c)"), f("<>T")], SIG)(f("S(c)"))
    assert oracle([], SIG)(f("T"))
    assert not oracle([f("S(c)")], SIG)(f("<>S(c)"))
    assert oracle([f("A x . S(x)")], SIG)(f("S(c)"))


def test_conjunction_is_canonical():
    a = conjunction([f("S(c)"), f("<>T")])
    b = conjunction([f("<>T"), f("S(c)")])
    assert a == b


def test_consistency():
    assert is_consistent(pair({"S(c)"}, {"<>T"}), SIG)
    assert not is_consistent(pair({"S(c)"}, {"S(c)", "<>T"}), SIG)
    assert not is_consistent(pair({"A x . S(x)"}, {"S(c)"}), SIG)


# ---------------------------------------------------------------------------
# saturation


def test_lindenbaum_covers_closure_and_witnesses():
    p = pair({"<>S(c)"}, {"A x . S(x)"})
    phi = sorted(p.formulas(), key=str)
    q = lindenbaum(p, phi, SIG)
    d = q.constants
    # one fresh witness for the single universal level
    assert len(d) == len(SIG.constants) + 1
    assert p.pos <= q.pos and p.neg <= q.neg
    assert not (q.pos & q.neg)
    # every negative universal has a negative constant witness
    for g in q.neg:
        if isinstance(g, Forall):
            assert any(substitute(g.body, g.var, Const(c)) in q.neg for c in d)
    # positives really follow from the original positive part
    entailed = oracle(p.pos, SIG)
    for g in q.pos:
        assert entailed(g)
    # modal depth of the positive part never grows
    assert set_mdepth(q.pos) <= max(set_mdepth(p.pos), set_mdepth(phi))


def test_lindenbaum_rejects_open_formulas():
    p = PairPM(frozenset({f("S(x)")}), frozenset(), SIG.constants)
    with pytest.raises(PairError):
        lindenbaum(p, [f("S(x)")], SIG)


def test_lindenbaum_witnesses_skip_the_pairs_and_the_signatures_constants():
    sig = Signature(constants=("n3",), relations=(("S", 1),))
    p = PairPM(frozenset(), frozenset(), ("n0", "n2"))
    q = lindenbaum(p, [f("A x . A y . A z . T", sig)], sig)  # udepth 3: three witnesses
    assert q.constants == ("n0", "n2", "n1", "n4", "n5")


@pytest.mark.parametrize("pos,neg", [({"S(c)"}, {"S(c)", "<>T"}), ({"A x . S(x)"}, {"S(c)"})])
def test_lindenbaum_rejects_inconsistent_pairs(pos, neg):
    p = pair(pos, neg)
    with pytest.raises(PairError, match="inconsistent pair"):
        lindenbaum(p, sorted_formulas(p.formulas()), SIG)


# ---------------------------------------------------------------------------
# successor pairs


def test_pair_existence_properties():
    p = pair({"<>S(c)"}, {"<>(A x . S(x))", "A x . S(x)"})
    phi = sorted(p.formulas(), key=str)
    q0 = lindenbaum(p, phi, SIG)
    dphi = next(g for g in q0.pos if isinstance(g, Diamond))
    child = pair_existence(q0, dphi, SIG)
    assert hatR(q0, child)
    assert dphi.body in child.pos
    assert set(child.constants) >= set(q0.constants)
    assert set_mdepth(child.pos) < set_mdepth(q0.pos) or set_mdepth(q0.pos) == 0


def test_pair_existence_requires_positive_diamond():
    p = pair({"S(c)"}, {"<>T"})
    with pytest.raises(PairError):
        pair_existence(p, f("<>T"), SIG)


# ---------------------------------------------------------------------------
# the full construction


def test_build_rejects_inconsistent_pairs():
    with pytest.raises(PairError):
        build_term_model(pair({"S(c)"}, {"S(c)"}), SIG)


@pytest.mark.parametrize(
    "pos,neg",
    [
        ({"<>S(c)"}, {"A x . S(x)"}),
        ({"S(c)"}, {"<>T"}),
        ({"<><>T"}, set()),
        ({"<>(A x . S(x))"}, {"S(c)"}),
        ({"A x . <>S(x)"}, {"<>(A x . S(x))"}),
        (set(), {"S(c)", "<>S(c)"}),
    ],
)
def test_term_model_truth_lemma(pos, neg):
    p = pair(pos, neg)
    result = build_term_model(p, SIG)
    assert check_adequate(result.model).adequate
    report = truth_lemma_check(result, p, SIG)
    assert report.ok, report.violations
    # the root realizes the pair itself
    root = result.worlds[0]
    assert p.pos <= root.pos
    assert p.neg <= root.neg


def test_term_model_grounds_a_free_variable_past_the_signatures_constants():
    # x is grounded by @x0, since @x is declared: S(@x) and S(x) stay apart
    sig = Signature(constants=("@x",), relations=(("S", 1),))
    p = pair({"S(@x)"}, {"S(x)"}, sig)
    result = build_term_model(p, sig)
    assert result.model.domain[0] == {"@x", "@x0"}
    assert truth_lemma_check(result, p, sig).ok


def test_term_model_relation_is_strict_order():
    p = pair({"<><>S(c)"}, set())
    result = build_term_model(p, SIG)
    r = result.model.R
    assert all((a, c) in r for (a, b) in r for (b2, c) in r if b2 == b)
    assert all((w, w) not in r for w in result.model.worlds)


def test_term_model_empty_pair_has_one_world():
    p = PairPM(frozenset(), frozenset(), ())
    result = build_term_model(p, Signature())
    assert len(result.worlds) == 1
    assert result.model.domain[0] == {"w0_c0"}  # one witness, as there are no constants


def test_random_consistent_pairs_satisfy_truth_lemma():
    rng = random.Random(3)
    sig = Signature(constants=("c",), relations=(("S", 1),))
    done = 0
    attempts = 0
    while done < 8 and attempts < 60:
        attempts += 1
        pos = frozenset(
            random_formula(rng, sig, max_mdepth=1, max_udepth=1, size=2)
            for _ in range(rng.randint(0, 2))
        )
        neg = frozenset(
            random_formula(rng, sig, max_mdepth=1, max_udepth=1, size=2)
            for _ in range(rng.randint(0, 2))
        )
        p = PairPM(pos, neg, sig.constants)
        if any(free_vars(g) for g in p.formulas()):
            continue
        if not is_consistent(p, sig):
            continue
        result = build_term_model(p, sig)
        assert check_adequate(result.model).adequate
        assert truth_lemma_check(result, p, sig).ok
        done += 1
    assert done >= 5


def _demo_pairs(count: int):
    """The first `count` closed consistent pairs that scripts/saturation_demo.py
    draws with seed 3 over `c; S/1 R/2`."""
    sig = parse_signature("sig: constants c; relations S/1 R/2;")
    rng = random.Random(3)
    pairs = []
    while len(pairs) < count:
        pos = frozenset(random_formula(rng, sig, 2, 1, 3) for _ in range(rng.randint(1, 2)))
        neg = frozenset(random_formula(rng, sig, 2, 1, 3) for _ in range(rng.randint(0, 2)))
        p = PairPM(pos, neg, sig.constants)
        if any(free_vars(g) for g in p.formulas()) or not is_consistent(p, sig):
            continue
        pairs.append(p)
    return sig, pairs


# the status decide gives for each answer of entails
STATUS = {True: DERIVABLE, False: UNDERIVABLE, None: UNDECIDED}


def test_oracle_queries_are_pinned(monkeypatch):
    """Building and checking term models gives the models recorded before the
    oracle settled T, conjunctions and members of the left-hand side by rule,
    and asks exactly the distinct queries it asked before the oracle kept a
    memo, with the same answers. The digest pins each query (sequent,
    signature as decide extends it by the sequent's constants, status) in
    first-seen order, which saturates each root once. A query is recorded
    where the oracle asks entails, which gives decide's status."""
    sig, pairs = _demo_pairs(150)
    monkeypatch.setattr(termmodel, "_MEMO", {})
    queries = hashlib.sha256()
    models = hashlib.sha256()
    calls = 0
    original = termmodel.entails

    def recording_entails(s, query_sig, config=None):
        nonlocal calls
        a = original(s, query_sig, config)
        calls += 1
        extended = query_sig.with_constants(sorted(constants_of(s.lhs) | constants_of(s.rhs)))
        queries.update(f"{pretty_sequent(s)}\t{signature_str(extended)}\t{STATUS[a]}\n".encode())
        return a

    monkeypatch.setattr(termmodel, "entails", recording_entails)
    for p in pairs:
        result = build_term_model(p, sig)
        truth_lemma_check(result, p, sig)
        models.update(json.dumps([result.annotations(), sorted(result.model.R)]).encode())
    assert models.hexdigest() == "fd0d054472a84dd477210ae2bdd3afa229b758aefa0f13a22881ae024bc02de2"
    assert calls == 393
    assert queries.hexdigest() == "ce3d415857554fc71334409e339eb1740de6e0dc18eb9f79754639eec688660b"


def test_oracle_memo_asks_each_query_once(monkeypatch):
    """A query is answered once across oracles and term-model builds, and again
    under another signature or config; build_term_model counts its answers by
    source."""
    monkeypatch.setattr(termmodel, "_MEMO", {})
    asked = []
    original = termmodel.entails

    def recording_entails(s, query_sig, config=None):
        asked.append((s, query_sig, config))
        return original(s, query_sig, config)

    monkeypatch.setattr(termmodel, "entails", recording_entails)
    gamma, query = [f("<>S(c)")], f("<>T")
    assert oracle(gamma, SIG)(query) and oracle(gamma, SIG)(query)
    assert len(asked) == 1
    other_sig = Signature(constants=("c", "d"), relations=(("S", 1),))
    assert oracle(gamma, other_sig)(query)
    assert oracle(gamma, SIG, DeciderConfig(max_worlds=3))(query)
    assert [(s_sig, config) for _, s_sig, config in asked[1:]] == [
        (other_sig, DeciderConfig()), (SIG, DeciderConfig(max_worlds=3))]

    p = pair(["<>S(c)"], ["A x . S(x)"])
    asked.clear()
    first = build_term_model(p, SIG)
    answered = len(asked)
    assert answered > 0 and first.oracle_answers["model"] == answered
    assert first.oracle_answers.keys() == {"rule", "memo", "model"}
    second = build_term_model(p, SIG)
    assert len(asked) == answered
    assert second.oracle_answers["model"] == 0
    assert second.oracle_answers["memo"] == first.oracle_answers["memo"] + answered
    assert second.oracle_answers["rule"] == first.oracle_answers["rule"] > 0
    assert second == first


def test_entails_agrees_with_decide(monkeypatch):
    """entails, which builds no certificate, gives decide's status, None
    exactly where decide is undecided: on random sequents, closed and (over no
    constants) open, and on every query the oracle asks while building term
    models of the demo pairs; also under max_domain=1, where the build of
    M_Gamma stops and entails asks the one-element canonical model."""
    rng = random.Random(17)
    open_sig = parse_signature("sig: relations S/1 R/2;")
    sequents = [(random_sequent(rng, query_sig, 3, 2, 6), query_sig)
                for query_sig in [DEFAULT_SIG] * 1000 + [open_sig] * 300]
    assert any(free_vars(s.lhs) | free_vars(s.rhs) for s, _ in sequents)
    sig, pairs = _demo_pairs(150)
    monkeypatch.setattr(termmodel, "_MEMO", {})
    asked = []
    original = termmodel.entails

    def recording_entails(s, query_sig, config=None):
        asked.append((s, query_sig))
        return original(s, query_sig, config)

    monkeypatch.setattr(termmodel, "entails", recording_entails)
    for p in pairs:
        build_term_model(p, sig)
    assert len(asked) > 100
    # whether each call of the one-element step refutes its sequent
    refuted = []
    original_one_element = decider._one_element

    def recording_one_element(s, config):
        one = original_one_element(s, config)
        refuted.append(one is not None)
        return one

    monkeypatch.setattr(decider, "_one_element", recording_one_element)
    answers = Counter()
    for config in (DeciderConfig(), DeciderConfig(max_domain=1)):
        for s, query_sig in sequents + asked:
            refuted.clear()
            a = entails(s, query_sig, config)
            # entails asks the one-element step at most once, where M_Gamma stops
            by_one_element = refuted == [True]
            assert decide(s, query_sig, config).status == STATUS[a], pretty_sequent(s)
            answers[config.max_domain, a, by_one_element] += 1
    assert answers[1, False, True] > 0 and answers[1, None, False] > 0


def test_oracle_answers_by_the_one_element_model_where_the_build_stops(monkeypatch):
    """Where M_Gamma is built in full, entails answers by it; under
    max_domain=1 the build stops before the root, whose c and fresh element
    pass the bound, and entails answers by the one-element canonical model,
    which refutes the query."""
    monkeypatch.setattr(termmodel, "_MEMO", {})
    gamma, query = [f("<>S(c)")], f("S(c)")
    s = Sequent(conjunction(gamma), query)
    tally = Counter()
    assert entails(s, SIG) is False
    assert not oracle(gamma, SIG, tally=tally)(query)
    assert tally == Counter(model=1)

    config = DeciderConfig(max_domain=1)
    termmodel._MEMO.clear()
    tally.clear()
    assert entails(s, SIG, config) is False
    assert decide(s, SIG, config).status == UNDERIVABLE
    assert not oracle(gamma, SIG, config, tally=tally)(query)
    assert tally == Counter(model=1)


def test_a_stuck_query_builds_each_canonical_model_once(monkeypatch):
    """The 12 nested universals fill the fact cap in M_Gamma's root world, and
    the one-element canonical model forces the right-hand side: the query is
    undecided after one build of each model."""
    sig = parse_signature("sig: constants c0 c1; relations S/1 R/2;")
    universals = " . ".join(f"A x{i}" for i in range(1, 13))
    chain = " & ".join(f"R(x{i},x{i + 1})" for i in range(1, 12))
    gamma = [parse_formula(f"({universals} . ({chain})) & <><>S(c0)", sig)]
    builds = []
    original = decider.CanonicalModel

    def counting_canonical_model(*args):
        builds.append(args[0])
        return original(*args)

    monkeypatch.setattr(decider, "CanonicalModel", counting_canonical_model)
    monkeypatch.setattr(termmodel, "_MEMO", {})
    with pytest.raises(OracleUndecidedError):
        oracle(gamma, sig)(parse_formula("<>S(c1)", sig))
    assert len(builds) == 2


def test_lindenbaum_agrees_with_one_query_entails():
    """Saturation, a fresh oracle asked once, and decide on the whole sequent
    agree on every closure formula, though the oracle settles T, conjunctions
    and members of the left-hand side by rule."""
    sig, pairs = _demo_pairs(150)
    for p in pairs:
        phi = sorted_formulas(p.formulas())
        lhs = conjunction(p.pos)
        q = lindenbaum(p, phi, sig)
        for g in closure(phi, q.constants):
            query_sig = sig.with_constants(sorted(constants_of(lhs) | constants_of(g)))
            by_decide = decide(Sequent(lhs, g), query_sig).status == DERIVABLE
            assert (g in q.pos) == oracle(p.pos, sig)(g) == by_decide, (p, g)


def test_oracle_asks_about_a_conjunction_with_an_undecided_conjunct(monkeypatch):
    a, b = f("S(c)"), f("<>S(c)")
    # entails's answers; None is undecided
    answer = {a: None, b: True, And(a, b): True}
    asked = []

    def fake_entails(s, query_sig, config=None):
        asked.append(s.rhs)
        return answer[s.rhs]

    monkeypatch.setattr(termmodel, "entails", fake_entails)
    monkeypatch.setattr(termmodel, "_MEMO", {})
    gamma = [f("<>T & S(c)")]
    assert oracle(gamma, SIG)(f("T")) and oracle(gamma, SIG)(gamma[0])
    assert asked == []
    assert oracle(gamma, SIG)(And(a, b))
    assert asked == [a, b, And(a, b)]
    with pytest.raises(OracleUndecidedError):
        oracle(gamma, SIG)(a)
    answer[And(a, b)] = None
    termmodel._MEMO.clear()  # the memo keeps the answers of the phase before
    with pytest.raises(OracleUndecidedError):
        oracle(gamma, SIG)(And(a, b))
    answer[b] = False  # a refuted conjunct settles the conjunction
    termmodel._MEMO.clear()
    asked.clear()
    assert not oracle(gamma, SIG)(And(a, b))
    assert asked == [a, b]
