"""End-to-end acceptance suite.

Each test covers one acceptance criterion and prints a single PASS/FAIL line
(written past pytest's capture so the lines always appear in the run log).
"""

import functools
import random
import time

import pytest

from qrc1.arith import arith_sequent, default_realization, realize, render
from qrc1.calculus import (
    AND_E_L,
    AND_E_R,
    AND_I,
    BARCAN_AX,
    CONST_GEN,
    CUT,
    FORALL_L,
    FORALL_R,
    ID,
    NEC,
    TERM_INST,
    TOP_I,
    TRANS_AX,
    check_derivation,
    derived_gen_rhs,
    derived_inst,
    derived_inst_rhs,
    derived_rename,
    derived_swap_foralls,
)
from qrc1.decider import DERIVABLE, UNDERIVABLE, decide
from qrc1.generate import DEFAULT_SIG, enumerate_models, random_formula, random_sequent
from qrc1.semantics import check_adequate, forces
from qrc1.syntax import (
    And,
    Const,
    Diamond,
    Forall,
    Sequent,
    Signature,
    TOP,
    Var,
    closure,
    free_vars,
    mdepth,
    parse_formula,
    parse_sequent,
    set_mdepth,
    set_udepth,
    substitute,
    substitute_sequent,
    udepth,
    free_for,
)
from qrc1.semantics import Assignment
from qrc1.termmodel import PairPM, build_term_model, is_consistent, truth_lemma_check

PRIMITIVE_RULES = {TOP_I, ID, AND_E_L, AND_E_R, AND_I, CUT, NEC, TRANS_AX,
                   BARCAN_AX, FORALL_R, FORALL_L, TERM_INST, CONST_GEN}

SMALL_SIG = Signature(constants=("c0",), relations=(("S", 1),))


_CAPTURE = None


@pytest.fixture(autouse=True)
def _report_through_capture(capfd):
    global _CAPTURE
    _CAPTURE = capfd
    yield
    _CAPTURE = None


def report(number: int, ok: bool, detail: str) -> None:
    line = f"ACCEPTANCE {number}: {'PASS' if ok else 'FAIL'} - {detail}"
    if _CAPTURE is not None:
        with _CAPTURE.disabled():
            print(line, flush=True)
    else:
        print(line, flush=True)
    assert ok, line


def rules_of(d):
    out = {d.rule}
    for p in d.premises:
        out |= rules_of(p)
    return out


def closed_formula(rng, sig=DEFAULT_SIG, md=2, ud=1, size=4):
    return random_formula(rng, sig, max_mdepth=md, max_udepth=ud, size=size)


# ---------------------------------------------------------------------------
# 1. axiom and rule instances decide as derivable with re-checked certificates


def _axiom_instances(rng) -> list[Sequent]:
    """One randomized derivable instance of each calculus item (eleven total)."""
    sig = DEFAULT_SIG
    phi = closed_formula(rng)
    psi = closed_formula(rng)
    phix = random_formula(rng, sig, max_mdepth=1, max_udepth=1, size=3, scope=["x"])
    phiv = random_formula(rng, sig, max_mdepth=1, max_udepth=0, size=3, scope=["v"])
    t = rng.choice([Const("c0"), Const("c1"), Var("w")])
    out = [
        Sequent(phi, TOP),                                   # top introduction
        Sequent(And(phi, psi), rng.choice([phi, psi])),      # conjunction elimination
        Sequent(phi, And(phi, TOP)),                         # conjunction introduction
        Sequent(And(phi, psi), TOP),                         # cut through phi |- T
        Sequent(Diamond(And(phi, psi)), Diamond(phi)),       # necessitation
        Sequent(Diamond(Diamond(phi)), Diamond(phi)),        # transitivity axiom
        Sequent(Diamond(Forall("x", phix)), Forall("x", Diamond(phix))),  # quantifier/diamond axiom
        Sequent(Forall("x", phix), Forall("y", substitute(phix, "x", Var("y")))),  # right universal
        Sequent(Forall("x", phix), substitute(phix, "x", t) if free_for(t, "x", phix) else phix),
    ]
    # left universal instantiation needs t free for x; fall back to Id otherwise
    if not free_for(t, "x", phix):
        out[-1] = Sequent(Forall("x", phix), Forall("x", phix))
    base = Sequent(Forall("v", phiv), substitute(phiv, "v", Var("x")))
    out.append(substitute_sequent(base, "x", Const("c0")))   # term instantiation
    out.append(base)                                          # constant generalization (free x)
    return out


def test_acceptance_01_axiom_rule_suite():
    rng = random.Random(101)
    t0 = time.perf_counter()
    total = 0
    for _ in range(200):
        for s in _axiom_instances(rng):
            v = decide(s, DEFAULT_SIG)
            assert v.status == DERIVABLE, f"not derivable: {s}"
            gsig = DEFAULT_SIG.with_constants(
                f"@{x}" for x in sorted(free_vars(s.lhs) | free_vars(s.rhs)))
            assert check_derivation(v.derivation, gsig) == s
            total += 1
    dt = time.perf_counter() - t0
    report(1, True, f"axiom/rule suite: {total} randomized instances derivable "
                    f"with re-checked derivations ({dt:.1f}s)")


# ---------------------------------------------------------------------------
# 2. derived rules elaborate to primitive rules and decide as derivable


def test_acceptance_02_derived_rules_suite():
    rng = random.Random(202)
    sig = DEFAULT_SIG
    t0 = time.perf_counter()
    count = 0
    for _ in range(50):
        f = random_formula(rng, sig, max_mdepth=1, max_udepth=0, size=3, scope=["x", "y"])
        elaborations = [
            derived_swap_foralls(f, "x", "y"),
            derived_inst(f, "x", rng.choice([Const("c0"), Const("c1")])),
            derived_rename(f, "x", "z"),
            derived_inst_rhs(derived_inst(f, "x", Var("x")), "x", Const("c0")),
            derived_gen_rhs(derived_inst(substitute(f, "y", Const("c1")), "x", Const("#w")), "x", "#w"),
        ]
        for d in elaborations:
            sig_d = sig.with_constants(["#w"])
            concluded = check_derivation(d, sig_d)
            assert rules_of(d) <= PRIMITIVE_RULES
            v = decide(concluded, sig_d)
            assert v.status == DERIVABLE, f"not derivable: {concluded}"
            count += 1
    dt = time.perf_counter() - t0
    report(2, True, f"derived-rules suite: {count} elaborations use only primitive "
                    f"rules and decide derivable ({dt:.1f}s)")


# ---------------------------------------------------------------------------
# 3. no formula derives its own diamond


def test_acceptance_03_irreflexivity_suite():
    rng = random.Random(303)
    t0 = time.perf_counter()
    for _ in range(100):
        phi = closed_formula(rng, md=2, ud=1, size=4)
        s = Sequent(phi, Diamond(phi))
        v = decide(s, DEFAULT_SIG)
        assert v.status == UNDERIVABLE, f"derivable?! {s}"
        v.countermodel.validate()
    dt = time.perf_counter() - t0
    report(3, True, f"irreflexivity suite: 100 random formulas never derive their "
                    f"own diamond; all countermodels validate ({dt:.1f}s)")


# ---------------------------------------------------------------------------
# 4. converse of the quantifier/diamond axiom is refuted with a small model


def test_acceptance_04_converse_barcan_refutation():
    sig = Signature(relations=(("S", 1),))
    s = parse_sequent("A x . <>S(x) |- <>(A x . S(x))", sig)
    t0 = time.perf_counter()
    v = decide(s, sig)
    dt = time.perf_counter() - t0
    assert v.status == UNDERIVABLE
    v.countermodel.validate()
    worlds = len(v.countermodel.model.worlds)
    report(4, worlds <= 2,
           f"converse quantifier/diamond refutation: underivable with a validated "
           f"{worlds}-world countermodel ({dt:.1f}s)")


# ---------------------------------------------------------------------------
# 5. derivable verdicts are never refuted by any small adequate model


def _corpus(rng, n, sig):
    return [random_sequent(rng, sig, max_mdepth=2, max_udepth=1, size=3) for _ in range(n)]


@functools.cache
def _derivable_corpus():
    """The derivable sequents of the 505-seeded corpus, decided once for
    criteria 5 and 7."""
    corpus = _corpus(random.Random(505), 500, SMALL_SIG)
    return [s for s in corpus if decide(s, SMALL_SIG).status == DERIVABLE]


def test_acceptance_05_soundness_cross_check():
    t0 = time.perf_counter()
    models = list(enumerate_models(SMALL_SIG, max_worlds=3, max_domain=2))
    derivable = _derivable_corpus()
    distinct = list(dict.fromkeys(derivable))  # a repeated sequent is checked once
    violations = 0
    for s in distinct:
        fv = sorted(free_vars(s.lhs) | free_vars(s.rhs))
        for m in models:
            # each model is rooted at 0, and every pointed model within the
            # bounds is one of them at its root up to isomorphism
            dom = sorted(m.domain[0])
            for vals in _tuples(dom, len(fv)):
                g = Assignment(dict(zip(fv, vals)), dom[0])
                if forces(m, 0, g, s.lhs) and not forces(m, 0, g, s.rhs):
                    violations += 1
    dt = time.perf_counter() - t0
    report(5, violations == 0,
           f"soundness cross-check: {len(derivable)} derivable sequents ({len(distinct)} "
           f"distinct) of a 500-sequent corpus refuted by none of {len(models)} enumerated "
           f"rooted models (<= 3 worlds, <= 2 elements) ({dt:.1f}s)")


def _tuples(dom, k):
    if k == 0:
        return [()]
    return [(d,) + rest for d in dom for rest in _tuples(dom, k - 1)]


# ---------------------------------------------------------------------------
# 6. saturation models satisfy the truth lemma and adequacy


def test_acceptance_06_truth_lemma_suite():
    rng = random.Random(606)
    sig = Signature(constants=("c",), relations=(("S", 1),))
    t0 = time.perf_counter()
    built = 0
    attempts = 0
    while built < 100 and attempts < 1000:
        attempts += 1
        pos = frozenset(
            random_formula(rng, sig, max_mdepth=2, max_udepth=1, size=3)
            for _ in range(rng.randint(0, 2)))
        neg = frozenset(
            random_formula(rng, sig, max_mdepth=2, max_udepth=1, size=3)
            for _ in range(rng.randint(0, 2)))
        p = PairPM(pos, neg, sig.constants)
        if any(free_vars(g) for g in p.formulas()):
            continue
        if not is_consistent(p, sig):
            continue
        result = build_term_model(p, sig)
        assert check_adequate(result.model).adequate
        rep = truth_lemma_check(result, p, sig)
        assert rep.ok, (p, rep.violations)
        built += 1
    dt = time.perf_counter() - t0
    report(6, built == 100,
           f"truth-lemma suite: {built} random consistent pairs built into "
           f"adequate models with zero truth-lemma violations ({dt:.1f}s)")


# ---------------------------------------------------------------------------
# 7. depth laws


def test_acceptance_07_depth_laws():
    rng = random.Random(707)
    t0 = time.perf_counter()
    for _ in range(1000):
        f = closed_formula(rng, md=2, ud=2, size=5)
        cl = closure([f], DEFAULT_SIG.constants)
        assert set_mdepth(cl) == mdepth(f)
        assert set_udepth(cl) == udepth(f)
    # modal depth never increases left to right on the derivable corpus
    checked = 0
    for s in _derivable_corpus():
        assert mdepth(s.lhs) >= mdepth(s.rhs), s
        checked += 1
    dt = time.perf_counter() - t0
    report(7, True, f"depth laws: closure preserves both depths on 1000 formulas; "
                    f"{checked} derivable verdicts respect the modal-depth bound ({dt:.1f}s)")


# ---------------------------------------------------------------------------
# 8. substitution lemma for forcing


def test_acceptance_08_substitution_lemma():
    from qrc1.generate import random_adequate_model

    rng = random.Random(808)
    t0 = time.perf_counter()
    checked = 0
    while checked < 1000:
        m = random_adequate_model(rng, DEFAULT_SIG, max_worlds=2, max_domain=2)
        w = rng.choice(m.worlds)
        f = random_formula(rng, DEFAULT_SIG, max_mdepth=1, max_udepth=1, size=3,
                           scope=["x", "y"])
        t = rng.choice([Const("c0"), Const("c1"), Var("y")])
        if not free_for(t, "x", f):
            continue
        dom = sorted(m.domain[w])
        g = Assignment({"x": rng.choice(dom), "y": rng.choice(dom)}, dom[0])
        tv = m.const_value(w, t.name) if isinstance(t, Const) else g.mapping[t.name]
        g_x = Assignment({**g.mapping, "x": tv}, g.default)
        assert forces(m, w, g_x, f) == forces(m, w, g, substitute(f, "x", t))
        checked += 1
    dt = time.perf_counter() - t0
    report(8, True, f"substitution lemma: forcing equality held on {checked}/1000 "
                    f"random instances ({dt:.1f}s)")


# ---------------------------------------------------------------------------
# 9. translation goldens


def test_acceptance_09_translation_goldens():
    sig = Signature(relations=(("S", 1),))
    r = default_realization(sig)
    t0 = time.perf_counter()
    g1 = render(realize(parse_formula("T", sig), r, sig=sig))
    g2 = render(realize(parse_formula("<>T", sig), r, sig=sig))
    s = parse_sequent("<><>T |- <>T", sig)
    g3 = render(arith_sequent(s, r, sig))
    expected3 = ("∀θ (□_{τ(u) ∨ (u = ⌜Con_{τ(u)}⌝)}θ → "
                 "□_{τ(u) ∨ (u = ⌜Con_{τ(u) ∨ (u = ⌜Con_{τ(u)}⌝)}⌝)}θ)")
    ok = (g1 == "τ(u)"
          and g2 == "τ(u) ∨ (u = ⌜Con_{τ(u)}⌝)"
          and g3 == expected3)
    dt = time.perf_counter() - t0
    report(9, ok, f"translation goldens byte-exact, provability direction reversed "
                  f"({dt:.2f}s)")


# ---------------------------------------------------------------------------
# 10. verdicts are stable under fresh constants


def test_acceptance_10_conservativity():
    rng = random.Random(1010)
    corpus = _corpus(rng, 100, SMALL_SIG)
    extended = SMALL_SIG.with_constants(["d0", "d1", "d2"])
    t0 = time.perf_counter()
    mismatches = [
        s for s in corpus
        if decide(s, SMALL_SIG).status != decide(s, extended).status
    ]
    dt = time.perf_counter() - t0
    report(10, not mismatches,
           f"conservativity: verdicts on a 100-sequent corpus unchanged by 3 "
           f"fresh constants ({dt:.1f}s)")
