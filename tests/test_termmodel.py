import hashlib
import random

import pytest

import qrc1.termmodel as termmodel

from qrc1.generate import random_formula
from qrc1.semantics import check_adequate
from qrc1.syntax import (
    Diamond,
    Forall,
    Signature,
    closure,
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
    FreshConstants,
    PairPM,
    PairError,
    build_term_model,
    conjunction,
    entails,
    hatR,
    is_consistent,
    lindenbaum,
    pair_existence,
    truth_lemma_check,
    TermWorld,
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
    assert entails([f("S(c)"), f("<>T")], f("S(c)"), SIG)
    assert entails([], f("T"), SIG)
    assert not entails([f("S(c)")], f("<>S(c)"), SIG)
    assert entails([f("A x . S(x)")], f("S(c)"), SIG)


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
    d, q = lindenbaum(p, phi, SIG.constants, SIG)
    # one fresh witness for the single universal level
    assert len(d) == len(SIG.constants) + 1
    assert p.pos <= q.pos and p.neg <= q.neg
    assert not (q.pos & q.neg)
    # every negative universal has a negative constant witness
    for g in q.neg:
        if isinstance(g, Forall):
            assert any(substitute(g.body, g.var, Const(c)) in q.neg for c in d)
    # positives really follow from the original positive part
    for g in q.pos:
        assert entails(p.pos, g, SIG)
    # modal depth of the positive part never grows
    assert set_mdepth(q.pos) <= max(set_mdepth(p.pos), set_mdepth(phi))


def test_lindenbaum_rejects_open_formulas():
    p = PairPM(frozenset({f("S(x)")}), frozenset(), SIG.constants)
    with pytest.raises(PairError):
        lindenbaum(p, [f("S(x)")], SIG.constants, SIG)


def test_fresh_constants_avoid_collisions():
    fresh = FreshConstants({"n0", "n2"})
    assert fresh.take(3) == ["n1", "n3", "n4"]


# ---------------------------------------------------------------------------
# successor pairs


def test_pair_existence_properties():
    p = pair({"<>S(c)"}, {"<>(A x . S(x))", "A x . S(x)"})
    phi = sorted(p.formulas(), key=str)
    d, q0 = lindenbaum(p, phi, SIG.constants, SIG)
    w = TermWorld(q0, d)
    dphi = next(g for g in q0.pos if isinstance(g, Diamond))
    e, child = pair_existence(w, dphi, SIG)
    assert hatR(q0, child.pair)
    assert dphi.body in child.pair.pos
    assert set(child.domain_constants) >= set(d)
    assert set_mdepth(child.pair.pos) < set_mdepth(q0.pos) or set_mdepth(q0.pos) == 0


def test_pair_existence_requires_positive_diamond():
    p = pair({"S(c)"}, {"<>T"})
    w = TermWorld(p, SIG.constants)
    with pytest.raises(PairError):
        pair_existence(w, f("<>T"), SIG)


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
    root = result.worlds[result.root]
    assert p.pos <= root.pair.pos
    assert p.neg <= root.pair.neg


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
    assert result.model.domain[0]  # padded to a nonempty domain


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


def test_oracle_queries_are_pinned(monkeypatch):
    """Building and checking term models asks the decider exactly the queries
    (sequent, signature, order) recorded before the per-left-hand-side oracle,
    and gets the same verdicts."""
    sig, pairs = _demo_pairs(150)
    digest = hashlib.sha256()
    calls = 0
    original = termmodel.decide

    def recording_decide(s, query_sig, config=None):
        nonlocal calls
        verdict = original(s, query_sig, config)
        calls += 1
        digest.update(f"{pretty_sequent(s)}\t{signature_str(query_sig)}\t{verdict.status}\n".encode())
        return verdict

    monkeypatch.setattr(termmodel, "decide", recording_decide)
    for p in pairs:
        truth_lemma_check(build_term_model(p, sig), p, sig)
    assert calls == 1252
    assert digest.hexdigest() == "af45f8ae63a6c933eb77558461cd6b69b1114d4b406696824f3f2d3bc9033aeb"


def test_lindenbaum_agrees_with_one_query_entails():
    sig, pairs = _demo_pairs(150)
    for p in pairs:
        phi = sorted_formulas(p.formulas())
        d, q = lindenbaum(p, phi, sig.constants, sig)
        for g in closure(phi, d):
            assert (g in q.pos) == entails(p.pos, g, sig), (p, g)
