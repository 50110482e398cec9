import dataclasses
import hashlib
import json
import random
from collections import Counter

import pytest

import qrc1.canonical as canonical
import qrc1.decider as decider
import qrc1.termmodel as termmodel

from qrc1.decider import DERIVABLE, UNDECIDED, UNDERIVABLE, decide, entails
from qrc1.generate import DEFAULT_SIG, enumerate_sequents, random_formula, random_sequent
from qrc1.semantics import Countermodel, WeighedMemo, check_adequate, default_assignment, forces
from qrc1.syntax import (
    And,
    Diamond,
    Forall,
    Sequent,
    Signature,
    constants_of,
    free_vars,
    parse_formula,
    parse_signature,
    pretty,
    pretty_sequent,
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
    closure,
    conjunction,
    is_consistent,
    lindenbaum,
    oracle,
    pair_existence,
    set_mdepth,
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


def hatR(p: PairPM, q: PairPM) -> bool:
    """Syntactic accessibility between pairs."""
    for f in p.neg:
        if isinstance(f, Diamond):
            if f.body not in q.neg or f not in q.neg:
                return False
    return any(isinstance(f, Diamond) and f in q.neg for f in p.pos)


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


def _corrupted(result, R=None, relJ=None):
    m = result.model
    m = dataclasses.replace(m, R=m.R if R is None else R, relJ=m.relJ if relJ is None else relJ)
    return dataclasses.replace(result, model=m)


def test_truth_lemma_check_reports_a_corrupted_model():
    p = pair({"S(c)", "<>(A x . S(x))"}, {"<><>T"})
    result = build_term_model(p, SIG)
    assert result.model.R == {(0, 1), (0, 2)}
    assert result.model.relJ[2] == {"S": {("c",), ("w0_c0",), ("w2_c0",)}}
    assert truth_lemma_check(result, p, SIG) == termmodel.TruthLemmaReport(23, ())

    relJ = {**result.model.relJ, 2: {"S": frozenset({("c",), ("w0_c0",)})}}
    report = truth_lemma_check(_corrupted(result, relJ=relJ), p, SIG)
    assert report.checked == 23
    assert report.violations == (
        (0, "<>(A x . S(x))", "positive-but-unforced"),
        (2, "S(w2_c0)", "positive-but-unforced"),
        (2, "A x . S(x)", "positive-but-unforced"),
    )

    report = truth_lemma_check(_corrupted(result, R=frozenset({(0, 1)})), p, SIG)
    assert report == termmodel.TruthLemmaReport(23, ((0, "<>(A x . S(x))", "positive-but-unforced"),))


def _violations_one_formula_at_a_time(result, p, sig):
    """The truth lemma's violations as forced one sorted formula at a time."""
    out = []
    m = result.model
    for i, w in enumerate(result.worlds):
        g = default_assignment(m, i)
        for phi in sorted_formulas(closure(p.formulas(), w.constants)):
            forced = forces(m, i, g, phi)
            if forced != (phi in w.pos):
                out.append((i, pretty(phi), "forced-but-negative" if forced else "positive-but-unforced"))
    return tuple(out)


def test_truth_lemma_violations_are_listed_by_world_then_formula():
    p = pair({"S(c)", "<>(A x . S(x))", "<>(S(c) & <>T)"}, {"<><><>T", "A x . S(x)"})
    result = build_term_model(p, SIG)
    assert len(result.worlds) > 2
    everything = {i: {"S": frozenset((d,) for d in result.model.domain[i])} for i in result.model.worlds}
    for relJ in ({i: {} for i in result.model.worlds}, everything):
        doctored = _corrupted(result, relJ=relJ)
        report = truth_lemma_check(doctored, p, SIG)
        assert len(report.violations) > 5
        assert len({i for i, _, _ in report.violations}) > 1
        assert report.violations == _violations_one_formula_at_a_time(doctored, p, SIG)


def test_a_closed_pair_is_not_grounded(monkeypatch):
    # no name of a closed pair is collected, and the pair itself is returned
    monkeypatch.setattr(termmodel, "names_of", None)
    p = pair({"S(c)", "A x . <>S(x)"}, {"<><>S(c)"})
    assert termmodel._ground_pair(p, SIG) is p
    assert truth_lemma_check(build_term_model(p, SIG), p, SIG).ok


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
    where the oracle asks entails, which gives decide's status. The model
    digest also pins each truth-lemma report and the oracle's answers by
    source."""
    sig, pairs = _demo_pairs(150)
    monkeypatch.setattr(termmodel, "_MEMO", WeighedMemo(termmodel._MEMO.bound))
    queries = hashlib.sha256()
    models = hashlib.sha256()
    calls = 0
    original = termmodel.entails

    def recording_entails(s, query_sig):
        nonlocal calls
        a = original(s, query_sig)
        calls += 1
        extended = query_sig.with_constants(sorted(constants_of(s.lhs) | constants_of(s.rhs)))
        queries.update(f"{pretty_sequent(s)}\t{signature_str(extended)}\t{STATUS[a]}\n".encode())
        return a

    monkeypatch.setattr(termmodel, "entails", recording_entails)
    for p in pairs:
        result = build_term_model(p, sig)
        report = truth_lemma_check(result, p, sig)
        models.update(json.dumps([result.annotations(), sorted(result.model.R), report.checked,
                                  report.violations, result.oracle_answers]).encode())
    assert models.hexdigest() == "70b9c35a85dc7e9a933681b2c7be77f659ed14550fe3626377f21ab5cc4831eb"
    assert calls == 393
    assert queries.hexdigest() == "ce3d415857554fc71334409e339eb1740de6e0dc18eb9f79754639eec688660b"


def test_oracle_memo_asks_each_query_once(monkeypatch):
    """A query is answered once across oracles and term-model builds;
    build_term_model counts its answers by source."""
    monkeypatch.setattr(termmodel, "_MEMO", WeighedMemo(termmodel._MEMO.bound))
    asked = []
    original = termmodel.entails

    def recording_entails(s, query_sig):
        asked.append((s, query_sig))
        return original(s, query_sig)

    monkeypatch.setattr(termmodel, "entails", recording_entails)
    gamma, query = [f("<>S(c)")], f("<>T")
    assert oracle(gamma, SIG)(query) and oracle(gamma, SIG)(query)
    assert len(asked) == 1

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


def test_a_query_under_another_signature_is_answered_from_the_memo(monkeypatch):
    """entails' status does not depend on the signature, which steers only
    fresh names, so the memo keys an answer by the query's two sides and the
    fact cap: the query asked under a second signature, which parses to the
    same formula nodes, is answered from the memo."""
    monkeypatch.setattr(termmodel, "_MEMO", WeighedMemo(termmodel._MEMO.bound))
    asked = []
    original = termmodel.entails

    def recording_entails(s, query_sig):
        asked.append(query_sig)
        return original(s, query_sig)

    monkeypatch.setattr(termmodel, "entails", recording_entails)
    other_sig = Signature(constants=("c", "d"), relations=(("S", 1),))
    gamma, query = [f("<>S(c)")], f("<>T")
    assert f("<>S(c)", other_sig) is gamma[0] and f("<>T", other_sig) is query
    assert oracle(gamma, SIG)(query)
    tally = Counter()
    assert oracle(gamma, other_sig, tally)(query)
    assert asked == [SIG] and tally == Counter(memo=1)


def test_an_oracle_memo_emptied_under_pressure_builds_the_same_term_models(monkeypatch):
    """The term models of test_oracle_queries_are_pinned, built with an oracle
    memo bounded at 3 answers, which empties it again and again, have the
    worlds and models of those built at the default bound; only the split of
    the oracle's answers between the memo and entails differs."""
    sig, pairs = _demo_pairs(150)
    default = termmodel._MEMO.bound

    def built(bound):
        memo = WeighedMemo(bound)
        monkeypatch.setattr(termmodel, "_MEMO", memo)
        return [build_term_model(p, sig) for p in pairs], memo

    pressed, small = built(3)
    assert 0 < len(small) == small.weight <= 3
    at_default, memo = built(default)
    assert len(memo) == memo.weight > 3
    assert pressed == at_default
    assert [r.worlds for r in pressed] == [r.worlds for r in at_default]
    assert [r.model for r in pressed] == [r.model for r in at_default]
    for a, b in zip(pressed, at_default):
        assert a.oracle_answers["rule"] == b.oracle_answers["rule"]
        assert a.oracle_answers["memo"] + a.oracle_answers["model"] == b.oracle_answers["memo"] + b.oracle_answers["model"]
    assert sum(r.oracle_answers["model"] for r in pressed) > sum(r.oracle_answers["model"] for r in at_default)


def test_entails_agrees_with_decide(monkeypatch, fact_cap):
    """entails, which builds no certificate, gives decide's status, None
    exactly where decide is undecided: on random sequents, closed and (over no
    constants) open, and on every query the oracle asks while building term
    models of the demo pairs; also under a cap of 5 facts, where some builds
    stop. entails asks the one-element canonical model exactly once, first."""
    rng = random.Random(17)
    open_sig = parse_signature("sig: relations S/1 R/2;")
    sequents = [(random_sequent(rng, query_sig, 3, 2, 6), query_sig)
                for query_sig in [DEFAULT_SIG] * 1000 + [open_sig] * 300]
    assert any(free_vars(s.lhs) | free_vars(s.rhs) for s, _ in sequents)
    sig, pairs = _demo_pairs(150)
    monkeypatch.setattr(termmodel, "_MEMO", WeighedMemo(termmodel._MEMO.bound))
    asked = []
    original = termmodel.entails

    def recording_entails(s, query_sig):
        asked.append((s, query_sig))
        return original(s, query_sig)

    monkeypatch.setattr(termmodel, "entails", recording_entails)
    for p in pairs:
        build_term_model(p, sig)
    assert len(asked) > 100
    # whether each call of the one-element step refutes its sequent
    refuted = []
    original_one_element = decider._one_element

    def recording_one_element(s):
        one = original_one_element(s)
        refuted.append(one is not None)
        return one

    monkeypatch.setattr(decider, "_one_element", recording_one_element)
    answers = Counter()
    for cap in (canonical.CANONICAL_FACT_CAP, 5):
        fact_cap(cap)
        for s, query_sig in sequents + asked:
            refuted.clear()
            a = entails(s, query_sig)
            # entails asks the one-element step exactly once, first
            assert len(refuted) == 1
            by_one_element = refuted[0]
            assert decide(s, query_sig).status == STATUS[a], pretty_sequent(s)
            answers[cap, a, by_one_element] += 1
    assert answers[5, False, True] > 0 and answers[5, None, False] > 0


def test_entails_builds_the_canonical_models_decide_builds(monkeypatch, fact_cap):
    """On seeded sequents, closed and (over no constants) open, under the
    default cap and a cap of 5 facts, entails builds exactly the canonical
    models decide builds, in decide's order, each from an empty memo of
    M_phi^1, and gives decide's status: where M_phi^1 refutes the sequent,
    neither builds M_phi."""
    rng = random.Random(23)
    open_sig = parse_signature("sig: relations S/1 R/2;")
    sequents = [(random_sequent(rng, query_sig, 3, 2, 6), query_sig)
                for query_sig in [DEFAULT_SIG] * 400 + [open_sig] * 200]
    assert any(free_vars(s.lhs) | free_vars(s.rhs) for s, _ in sequents)
    builds = []
    original = decider.CanonicalModel

    def recording_canonical_model(s, used):
        builds.append(s)
        return original(s, used)

    monkeypatch.setattr(decider, "CanonicalModel", recording_canonical_model)
    memo = WeighedMemo(decider._ONE_ELEMENT.bound)
    monkeypatch.setattr(decider, "_ONE_ELEMENT", memo)

    def cold(ask, s, query_sig):
        """ask's answer from an empty memo, and the models it builds."""
        memo.clear()
        builds.clear()
        return ask(s, query_sig), list(builds)

    seen = Counter()
    for cap in (canonical.CANONICAL_FACT_CAP, 5):
        fact_cap(cap)
        for s, query_sig in sequents:
            v, by_decide = cold(decide, s, query_sig)
            a, by_entails = cold(entails, s, query_sig)
            assert by_entails == by_decide and STATUS[a] == v.status, pretty_sequent(s)
            model = v.stats["certificate_model"]
            assert len(by_entails) == (1 if model == "one-element" else 2), pretty_sequent(s)
            seen[cap, v.status, model] += 1
    assert seen.keys() >= {(cap, UNDERIVABLE, "one-element") for cap in (canonical.CANONICAL_FACT_CAP, 5)}
    assert seen.keys() >= {(5, DERIVABLE, "canonical"), (5, UNDERIVABLE, "canonical"), (5, UNDECIDED, None)}


def test_term_models_do_not_depend_on_the_one_element_memo(monkeypatch):
    """The oracle reads the memo of M_phi^1 that decide fills. The term models
    of the demo pairs, their truth-lemma reports and the oracle's answers by
    source are the same from an empty memo, after deciding the seed-7 CI
    corpus, and with the pairs built in reverse order. The oracle's own memo
    is emptied before each pair, so each pair asks its queries."""
    sig, pairs = _demo_pairs(150)
    oracle_memo = WeighedMemo(termmodel._MEMO.bound)
    monkeypatch.setattr(termmodel, "_MEMO", oracle_memo)

    def built(order):
        out = []
        for p in order:
            oracle_memo.clear()
            result = build_term_model(p, sig)
            report = truth_lemma_check(result, p, sig)
            out.append((result.annotations(), sorted(result.model.R), report.checked,
                        report.violations, result.oracle_answers))
        return out

    monkeypatch.setattr(decider, "_ONE_ELEMENT", WeighedMemo(decider._ONE_ELEMENT.bound))
    first = built(pairs)
    assert sum(answers["model"] for *_, answers in first) > 0
    rng = random.Random(7)  # scripts/gen_corpus.py --count 500 --seed 7
    for _ in range(500):
        decide(random_sequent(rng, DEFAULT_SIG, 2, 1, 4), DEFAULT_SIG)
    assert built(pairs) == first
    assert built(pairs[::-1])[::-1] == first


def test_oracle_answers_by_the_one_element_model_where_the_build_stops(fact_cap):
    """entails answers by the one-element canonical model, of 4 facts, which
    refutes the query, whether or not M_Gamma would be built in full: under a
    cap of 5 facts its build stops in the root, which instantiates the
    universals over c and a fresh element."""
    fact_cap(canonical.CANONICAL_FACT_CAP)
    sig = Signature(constants=("c",), relations=(("S", 1), ("R", 2)))
    gamma, query = [f("A x . A y . R(x,y)", sig), f("<>S(c)", sig)], f("S(c)", sig)
    s = Sequent(conjunction(gamma), query)
    tally = Counter()
    assert entails(s, sig) is False
    assert not oracle(gamma, sig, tally=tally)(query)
    assert tally == Counter(model=1)

    fact_cap(5)
    tally.clear()
    assert not decider._canonical(s, sig)[2].complete
    assert entails(s, sig) is False
    assert decide(s, sig).status == UNDERIVABLE
    assert not oracle(gamma, sig, tally=tally)(query)
    assert tally == Counter(model=1)


def test_a_stuck_query_builds_each_canonical_model_once(monkeypatch):
    """The 12 nested universals fill the fact cap in M_Gamma's root world, and
    the one-element canonical model forces the right-hand side: the query is
    undecided after one build of each model, from an empty memo of M_phi^1."""
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
    monkeypatch.setattr(termmodel, "_MEMO", WeighedMemo(termmodel._MEMO.bound))
    monkeypatch.setattr(decider, "_ONE_ELEMENT", WeighedMemo(decider._ONE_ELEMENT.bound))
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

    def fake_entails(s, query_sig):
        asked.append(s.rhs)
        return answer[s.rhs]

    monkeypatch.setattr(termmodel, "entails", fake_entails)
    monkeypatch.setattr(termmodel, "_MEMO", WeighedMemo(termmodel._MEMO.bound))
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


# The paper's completeness construction on every small sequent phi |- psi:
# per signature and total size, the sequents whose pair <{phi}, {psi}> is
# refused and those with a term model, and the most worlds a term model has
TERM_MODEL_CASES = {
    "S1-R2-size6": ("sig: relations S/1 R/2;", 6, 684, 956, 8),
    "c-S1-R2-size5": ("sig: constants c; relations S/1 R/2;", 5, 676, 1719, 10),
}


@pytest.mark.parametrize("case", TERM_MODEL_CASES)
def test_the_term_model_refutes_exactly_the_underivable_small_sequents(case):
    text, max_size, refused, built, most_worlds = TERM_MODEL_CASES[case]
    sig = parse_signature(text)
    counts, worlds = Counter(), 0
    for s in enumerate_sequents(sig, max_size):
        p = PairPM(frozenset({s.lhs}), frozenset({s.rhs}), ())
        try:
            result = build_term_model(p, sig)
        except PairError:
            assert entails(s, sig) is True, pretty_sequent(s)
            counts["refused"] += 1
            continue
        assert entails(s, sig) is False, pretty_sequent(s)
        report = truth_lemma_check(result, p, sig)
        assert report.ok, (pretty_sequent(s), report.violations)
        m = result.model
        Countermodel(m, 0, default_assignment(m, 0), s).validate()
        counts["built"] += 1
        worlds = max(worlds, len(m.worlds))
    assert counts == {"refused": refused, "built": built}
    assert worlds == most_worlds
