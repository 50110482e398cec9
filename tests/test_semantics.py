import functools
import itertools
import json
import random
from collections.abc import Mapping
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from qrc1 import canonical, decider
from qrc1.canonical import CanonicalModel
from qrc1.decider import UNDERIVABLE, decide, ground, names_of, refute
from qrc1.generate import (
    DEFAULT_SIG,
    _rooted_frames,
    enumerate_models,
    random_adequate_model,
    random_formula,
    restrict,
)
from qrc1.semantics import (
    Assignment,
    Countermodel,
    Model,
    ModelError,
    WeighedMemo,
    check_adequate,
    countermodel_from_dict,
    countermodel_to_dict,
    default_assignment,
    forces,
    forces_each,
    model_from_dict,
    model_to_dict,
    validate_model,
)
from qrc1.syntax import (
    TOP,
    And,
    Const,
    Diamond,
    Forall,
    Formula,
    Pred,
    Sequent,
    Signature,
    Term,
    Top,
    SubstitutionError,
    Var,
    free_vars,
    parse_formula,
    parse_sequent,
    pretty_sequent,
    substitute,
)
from qrc1.termmodel import udepth

SIG = Signature(constants=("c0", "c1"), relations=(("S", 1), ("R", 2)))


def growing_model() -> Model:
    """Two worlds, the successor gains an element; S holds of the shared
    element only at the successor."""
    return Model(
        worlds=(0, 1),
        R=frozenset({(0, 1)}),
        domain={0: frozenset({"a"}), 1: frozenset({"a", "b"})},
        constI={0: {"c0": "a", "c1": "a"}, 1: {"c0": "a", "c1": "a"}},
        relJ={0: {}, 1: {"S": frozenset({("a",)})}},
    )


# ---------------------------------------------------------------------------
# validation and adequacy


def test_validate_rejects_empty_domain():
    m = Model((0,), frozenset(), {0: frozenset()}, {0: {}}, {0: {}})
    with pytest.raises(ModelError):
        validate_model(m)


def test_validate_rejects_escaping_tuples():
    m = Model(
        (0,), frozenset(), {0: frozenset({"a"})}, {0: {}},
        {0: {"S": frozenset({("b",)})}},
    )
    with pytest.raises(ModelError):
        validate_model(m)


@pytest.mark.parametrize("max_worlds,max_domain", [(0, 1), (1, 0)])
def test_model_sources_refuse_bounds_below_one(max_worlds, max_domain):
    with pytest.raises(ModelError, match="^bounds must be at least 1$"):
        next(enumerate_models(DEFAULT_SIG, max_worlds, max_domain))
    with pytest.raises(ModelError, match="^bounds must be at least 1$"):
        random_adequate_model(random.Random(0), DEFAULT_SIG, max_worlds, max_domain)


def test_adequacy_of_growing_model():
    assert check_adequate(growing_model()).adequate


def test_adequacy_flags_missing_transitivity():
    m = Model(
        (0, 1, 2),
        frozenset({(0, 1), (1, 2)}),
        {w: frozenset({"a"}) for w in (0, 1, 2)},
        {w: {} for w in (0, 1, 2)},
        {w: {} for w in (0, 1, 2)},
    )
    rep = check_adequate(m)
    assert not rep.adequate and rep.witness[0] == "transitive"


def test_adequacy_flags_shrinking_domain():
    m = Model(
        (0, 1),
        frozenset({(0, 1)}),
        {0: frozenset({"a", "b"}), 1: frozenset({"a"})},
        {0: {}, 1: {}},
        {0: {}, 1: {}},
    )
    rep = check_adequate(m)
    assert not rep.adequate and rep.witness[0] == "inclusive"


def test_adequacy_flags_discordant_constants():
    m = Model(
        (0, 1),
        frozenset({(0, 1)}),
        {0: frozenset({"a", "b"}), 1: frozenset({"a", "b"})},
        {0: {"c0": "a"}, 1: {"c0": "b"}},
        {0: {}, 1: {}},
    )
    rep = check_adequate(m)
    assert not rep.adequate and rep.witness[0] == "concordant"


# ---------------------------------------------------------------------------
# forcing


def test_forcing_clauses_on_growing_model():
    m = growing_model()
    g = default_assignment(m, 0)
    assert forces(m, 0, g, parse_formula("T", SIG))
    assert not forces(m, 0, g, parse_formula("S(c0)", SIG))
    assert forces(m, 1, default_assignment(m, 1), parse_formula("S(c0)", SIG))
    assert forces(m, 0, g, parse_formula("<>S(c0)", SIG))
    assert not forces(m, 0, g, parse_formula("<><>S(c0)", SIG))


def test_quantifier_is_actualist():
    m = growing_model()
    g = default_assignment(m, 0)
    # at the root every element satisfies <>S(x) (the only element is "a")
    assert forces(m, 0, g, parse_formula("A x . <>S(x)", SIG))
    # but no successor world forces A x . S(x): "b" never satisfies S
    assert not forces(m, 0, g, parse_formula("<>(A x . S(x))", SIG))


def test_forcing_reads_assignment_through_coercion():
    m = growing_model()
    g = Assignment({"x": "a"}, "a")
    assert forces(m, 0, g, parse_formula("<>S(x)", SIG))


def test_forcing_reports_an_unknown_world_and_an_uninterpreted_constant():
    m = growing_model()
    g = default_assignment(m, 0)
    with pytest.raises(ModelError, match="^unknown world 7$"):
        forces(m, 7, g, parse_formula("T", SIG))
    partial = Model(m.worlds, m.R, m.domain, {0: {"c0": "a"}, 1: {}}, m.relJ)
    assert forces(partial, 0, g, parse_formula("S(c0)", SIG)) is False
    with pytest.raises(ModelError, match="^constant 'c0' is not interpreted at world 1$"):
        forces(partial, 0, g, parse_formula("<>S(c0)", SIG))
    # a successor with no domain is an unknown world, when forcing reaches it
    dangling = Model((0, 1), m.R, {0: m.domain[0]}, m.constI, m.relJ)
    assert forces(dangling, 0, g, parse_formula("S(c0)", SIG)) is False
    with pytest.raises(ModelError, match="^unknown world 1$"):
        forces(dangling, 0, g, parse_formula("<>T", SIG))


# ---------------------------------------------------------------------------
# forcing against the recursive reference


def _value(m: Model, w, g: Assignment, t: Term):
    """The element that term t denotes at world w under g."""
    if isinstance(t, Const):
        return m.const_value(w, t.name)
    return g.mapping.get(t.name, g.default)


def _free_for(t: Term, x: str, f: Formula) -> bool:
    """Whether t is free for x in f: substitute refuses exactly where it is not."""
    try:
        substitute(f, x, t)
    except SubstitutionError:
        return False
    return True


def _set(g: Assignment, x: str, d) -> Assignment:
    """g with x sent to d."""
    return Assignment({**g.mapping, x: d}, g.default)


def reference_forces(m: Model, w, g: Assignment, f: Formula) -> bool:
    """Forcing as the semantics states it, clause by clause: the evaluator's
    reference. It allocates an assignment per element and per successor and
    tests a subformula again for every value of every enclosing quantifier."""
    if w not in m.domain:
        raise ModelError(f"unknown world {w!r}")
    match f:
        case Top():
            return True
        case Pred(name, args):
            tup = tuple(_value(m, w, g, t) for t in args)
            return tup in m.relJ.get(w, {}).get(name, frozenset())
        case And(l, r):
            return reference_forces(m, w, g, l) and reference_forces(m, w, g, r)
        case Diamond(b):
            # the inclusion coercion: g's values are read at v unchanged
            return any(reference_forces(m, v, g, b) for v in m.successors(w))
        case Forall(x, b):
            return all(reference_forces(m, w, _set(g, x, d), b) for d in m.domain[w])
    raise TypeError(f"not a formula: {f!r}")


def _outcome(check, m, w, g, f):
    try:
        return check(m, w, g, f)
    except ModelError as e:
        return f"ModelError: {e}"


ELEMENTS = (0, 1, 2)
VARIABLES = ("x", "y", "z")
TERMS = [Var(x) for x in VARIABLES] + [Const(c) for c in SIG.constants]


def _any_model(rng: random.Random) -> Model:
    """Any relation on one to three worlds, constants interpreted at some
    worlds only, and relations over each world's domain."""
    worlds = tuple(range(rng.randint(1, 3)))
    domain = {w: frozenset(rng.sample(ELEMENTS, rng.randint(1, 3))) for w in worlds}
    return Model(
        worlds,
        frozenset((w, u) for w in worlds for u in worlds if rng.random() < 0.4),
        domain,
        {w: {c: rng.choice(sorted(domain[w])) for c in SIG.constants if rng.random() < 0.8}
         for w in worlds},
        {w: {name: frozenset(tuple(rng.choices(sorted(domain[w]), k=arity))
                             for _ in range(rng.randint(0, 4)))
             for name, arity in SIG.relations}
         for w in worlds},
    )


def _any_formula(rng: random.Random, size: int) -> Formula:
    """Binders over three names, so that they nest, shadow each other, bind
    nothing and leave free variables."""
    if size <= 1:
        return rng.choice([TOP, Pred("S", (rng.choice(TERMS),)),
                           Pred("R", (rng.choice(TERMS), rng.choice(TERMS)))])
    kind = rng.choice(["and", "dia", "all"])
    if kind == "and":
        k = rng.randint(1, size - 1)
        return And(_any_formula(rng, k), _any_formula(rng, size - k))
    body = _any_formula(rng, size - 1)
    return Diamond(body) if kind == "dia" else Forall(rng.choice(VARIABLES), body)


@settings(max_examples=250, deadline=None)
@given(st.integers(0, 10**9))
def test_forcing_agrees_with_the_reference(seed):
    # 250 examples of 12 cases each: 3,000 (model, world, assignment, formula)
    rng = random.Random(seed)
    m = _any_model(rng)
    w = rng.choice(m.worlds)
    g = Assignment({x: rng.choice(ELEMENTS) for x in VARIABLES if rng.random() < 0.5},
                   rng.choice(sorted(m.domain[w])))
    for _ in range(4):
        f = _any_formula(rng, rng.randint(1, 8))
        # universals around a diamond or universal with fewer free variables
        # than they bind are where the evaluator keeps results
        for f in (f, Forall("x", Forall("y", f)), Forall("z", Diamond(Forall("x", f)))):
            assert _outcome(forces, m, w, g, f) == _outcome(reference_forces, m, w, g, f)


@functools.cache
def _enumerated_models() -> tuple[Model, ...]:
    # every 53rd of the 42,328 adequate models of up to two worlds and two elements
    return tuple(itertools.islice(enumerate_models(SIG, 2, 2), 0, None, 53))


def _subformulas(f: Formula) -> list[Formula]:
    match f:
        case And(l, r):
            return [f, *_subformulas(l), *_subformulas(r)]
        case Diamond(b) | Forall(_, b):
            return [f, *_subformulas(b)]
    return [f]


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 10**9))
def test_forcing_several_formulas_under_one_setup_gives_each_answer(seed):
    rng = random.Random(seed)
    m = rng.choice(_enumerated_models())
    w = rng.choice(m.worlds)
    g = Assignment({x: rng.choice(sorted(m.domain[w])) for x in VARIABLES if rng.random() < 0.5},
                   rng.choice(sorted(m.domain[w])))
    formulas = []
    for _ in range(3):
        f = _any_formula(rng, rng.randint(1, 8))
        # the wrappers' universals make forces_each keep results, which later
        # formulas, their subformulas and the repeats then meet
        formulas += _subformulas(Forall("x", Forall("y", f))) + _subformulas(Forall("z", Diamond(Forall("x", f))))
    formulas += rng.sample(formulas, 5)
    rng.shuffle(formulas)
    assert forces_each(m, w, g, formulas) == [forces(m, w, g, f) for f in formulas]


def test_a_later_formula_meets_a_kept_result_of_an_earlier_one():
    # <>S(c0) is kept at world 0 under the first universal, and the second
    # formula reads it; the third reads x as the assignment gives it, not as
    # the second's universal left it, since a universal puts back what it found
    m = Model((0, 1), frozenset({(0, 1)}), {0: frozenset({0}), 1: frozenset({0, 1})},
              {0: {"c0": 0}, 1: {"c0": 0}}, {0: {"S": frozenset({(0,)})}, 1: {"S": frozenset({(0,)})}})
    g = Assignment({"x": 1}, 0)
    first = Forall("y", Diamond(Pred("S", (Const("c0"),))))
    second = Forall("x", And(Diamond(Pred("S", (Const("c0"),))), Pred("S", (Var("x"),))))
    third = Diamond(Pred("S", (Var("x"),)))
    assert forces_each(m, 0, g, [first, second, third]) == [True, True, False]
    assert forces_each(m, 1, g, [first, second, third]) == [False, False, False]
    assert forces_each(m, 0, Assignment({}, 0), [third, first]) == [True, True]


class _OverBudget(Exception):
    pass


class _CountedReads(Mapping):
    """A model's domain or relJ that counts every read of it against a shared
    budget: each atom forcing tests reads relJ, and each universal and each
    step to a successor reads the domain."""

    def __init__(self, data: Mapping, counter: list[int], budget: int):
        self.data, self.counter, self.budget = data, counter, budget

    def _read(self) -> None:
        self.counter[0] += 1
        if self.counter[0] > self.budget:
            raise _OverBudget

    def __getitem__(self, key):
        self._read()
        return self.data[key]

    def get(self, key, default=None):
        self._read()
        return self.data.get(key, default)

    def __contains__(self, key):
        self._read()
        return key in self.data

    def __iter__(self):
        return iter(self.data)

    def __len__(self) -> int:
        return len(self.data)


def _reads(check, cm: Countermodel, budget: int) -> int:
    """How often checking cm's two sides with check reads its model."""
    counter = [0]
    m = replace(cm.model, domain=_CountedReads(cm.model.domain, counter, budget),
                relJ=_CountedReads(cm.model.relJ, counter, budget))
    assert check(m, cm.root, cm.assignment, cm.sequent.lhs)
    assert not check(m, cm.root, cm.assignment, cm.sequent.rhs)
    return counter[0]


HARD_SIG = Signature(constants=("c0", "c1"), relations=(("S", 1), ("R", 2)))


@pytest.mark.parametrize("text, worlds, budget", [
    ("A x0 . A x1 . <>(A x2 . T & <>R(x2,x2) & A x3 . A x4 . <><><>R(x3,x4)) |- "
     "A x0 . (A x1 . <>(A x2 . A x3 . T & T & <>R(c1,x2) & <>R(x0,x3))) & R(c1,c0)", 312, 100_000),
    ("A x10 . A x11 . <>(A x12 . A x13 . R(x10,c0) & A x14 . A x15 . R(x11,x10)) & T |- "
     "A x10 . A x11 . A x12 . <>(A x13 . A x14 . A x15 . S(x14)) & "
     "(<>(T & S(x10)) & (R(x12,x12) & R(x12,c0)))", 50, 25_000),
], ids=["312-worlds", "50-worlds"])
def test_hard_countermodels_check_within_a_read_budget(monkeypatch, text, worlds, budget):
    # decide refutes both by the one-element canonical model, of a few worlds;
    # the canonical model M_phi is the large countermodel that stresses forcing,
    # built with udepth(psi) fresh elements per world rather than those of a
    # layer of psi, so that it has hundreds of worlds
    s = parse_sequent(text, HARD_SIG)
    v = decide(s, HARD_SIG)
    assert v.status == UNDERIVABLE and v.stats["certificate_model"] == "one-element"
    assert len(v.countermodel.model.worlds) <= 6
    used = {*HARD_SIG.constants, *names_of(s.lhs), *names_of(s.rhs)}
    (lhs, rhs), pairs = ground((s.lhs, s.rhs), used)
    monkeypatch.setattr(canonical, "_layer_udepth", udepth)
    canon = CanonicalModel(Sequent(lhs, rhs), used)
    assert canon.complete and not canon.forces(0, rhs)
    model = canon.countermodel(canon.model(decider._constants(s, HARD_SIG)), s, pairs)
    assert len(model.model.worlds) == worlds
    doc = json.loads(json.dumps(countermodel_to_dict(model)))
    cm = countermodel_from_dict(doc, HARD_SIG)
    cm.validate()
    # a count of the model's reads, not a time, bounds the evaluator's work;
    # the reference spends the budget long before it is done
    assert _reads(forces, cm, budget) <= budget
    with pytest.raises(_OverBudget):
        _reads(reference_forces, cm, budget)


# ---------------------------------------------------------------------------
# model surgery


def test_restriction_keeps_root_and_successors():
    m = growing_model()
    sub = restrict(m, 1)
    assert sub.worlds == (1,)
    assert check_adequate(sub).adequate


def test_restriction_preserves_forcing():
    rng = random.Random(5)
    for _ in range(50):
        m = random_adequate_model(rng, DEFAULT_SIG, max_worlds=3, max_domain=2)
        r = rng.choice(m.worlds)
        sub = restrict(m, r)
        f = random_formula(rng, DEFAULT_SIG, max_mdepth=2, max_udepth=1, size=4)
        assert not free_vars(f)
        g = default_assignment(m, r)
        assert forces(m, r, g, f) == forces(sub, r, default_assignment(sub, r), f)


# ---------------------------------------------------------------------------
# substitution lemma: g-with-x-set-to-t forces f iff g forces f[x/t]


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 10**9))
def test_substitution_lemma(seed):
    rng = random.Random(seed)
    m = random_adequate_model(rng, DEFAULT_SIG, max_worlds=2, max_domain=2)
    w = rng.choice(m.worlds)
    f = random_formula(rng, DEFAULT_SIG, max_mdepth=1, max_udepth=1, size=3,
                       scope=["x", "y"])
    t = rng.choice([Const("c0"), Const("c1"), Var("y")])
    if not _free_for(t, "x", f):
        return
    dom = sorted(m.domain[w])
    g = Assignment({"x": rng.choice(dom), "y": rng.choice(dom)}, dom[0])
    tv = _value(m, w, g, t)
    lhs = forces(m, w, _set(g, "x", tv), f)
    rhs = forces(m, w, g, substitute(f, "x", t))
    assert lhs == rhs


# ---------------------------------------------------------------------------
# enumeration


def _canon(m: Model):
    return (
        m.worlds,
        tuple(sorted(m.R)),
        tuple(sorted((w, tuple(sorted(m.domain[w]))) for w in m.worlds)),
        tuple(sorted((w, tuple(sorted(m.constI[w].items()))) for w in m.worlds)),
        tuple(
            sorted(
                (w, tuple(sorted((s, tuple(sorted(ts))) for s, ts in m.relJ[w].items())))
                for w in m.worlds
            )
        ),
    )


@functools.cache
def _oracle_models(sig, max_worlds, max_domain):
    """Independent brute-force enumeration: build every labeled candidate
    structure directly and keep the ones that validate as adequate."""
    out = {}
    elements = list(range(max_domain))
    for n in range(1, max_worlds + 1):
        worlds = tuple(range(n))
        pairs = [(i, j) for i in range(n) for j in range(n)]
        nonempty = [frozenset(s) for k in range(1, max_domain + 1)
                    for s in itertools.combinations(elements, k)]
        for bits in itertools.product([False, True], repeat=len(pairs)):
            rel = frozenset(p for p, b in zip(pairs, bits) if b)
            for doms in itertools.product(nonempty, repeat=n):
                domain = {w: doms[w] for w in worlds}
                const_choices = [
                    list(itertools.product(sorted(doms[w]) or [None], repeat=len(sig.constants)))
                    for w in worlds
                ]
                for cvals in itertools.product(*const_choices):
                    constI = {
                        w: dict(zip(sig.constants, cvals[w])) for w in worlds
                    }
                    table_choices = []
                    for w in worlds:
                        opts = []
                        for name, arity in sig.relations:
                            tuples = list(itertools.product(sorted(doms[w]), repeat=arity))
                            subsets = []
                            for k in range(len(tuples) + 1):
                                subsets.extend(frozenset(c) for c in itertools.combinations(tuples, k))
                            opts.append([(name, s) for s in subsets])
                        table_choices.append([dict(c) for c in itertools.product(*opts)])
                    for tables in itertools.product(*table_choices):
                        m = Model(worlds, rel, domain, constI, {w: tables[w] for w in worlds})
                        try:
                            if check_adequate(m).adequate:
                                out[_canon(m)] = m
                        except ModelError:
                            continue
    return tuple(out.values())


def _pointed_class(m: Model, root):
    """The isomorphism class of m restricted to what root sees, pointed at
    root: its least relabeling with root as world 0."""
    sub = restrict(m, root)
    others = [w for w in sub.worlds if w != root]
    elements = sorted(set().union(*sub.domain.values()))
    keys = []
    for order in itertools.permutations(others):
        wmap = {root: 0, **{w: i for i, w in enumerate(order, 1)}}
        for image in itertools.permutations(range(len(elements))):
            emap = dict(zip(elements, image))
            keys.append(_canon(Model(
                tuple(range(len(sub.worlds))),
                frozenset((wmap[w], wmap[u]) for w, u in sub.R),
                {wmap[w]: frozenset(emap[d] for d in sub.domain[w]) for w in sub.worlds},
                {wmap[w]: {c: emap[d] for c, d in sub.constI[w].items()} for w in sub.worlds},
                {wmap[w]: {s: frozenset(tuple(emap[d] for d in t) for t in ts)
                           for s, ts in sub.relJ[w].items() if ts} for w in sub.worlds})))
    return min(keys)


ORACLE_SIG = Signature(constants=("c0", "c1"), relations=(("S", 1),))


def test_enumeration_matches_independent_oracle():
    # each model of the stream, at its root 0, against each world of each
    # labeled model: the same pointed models up to isomorphism
    for bounds in [(2, 1), (2, 2), (3, 1)]:
        expected = {_pointed_class(m, w) for m in _oracle_models(ORACLE_SIG, *bounds) for w in m.worlds}
        models = list(enumerate_models(ORACLE_SIG, *bounds))
        assert all(check_adequate(m).adequate and all((0, w) in m.R for w in m.worlds[1:])
                   for m in models)
        assert {_pointed_class(m, 0) for m in models} == expected, bounds


def test_enumeration_one_world_counts():
    sig = Signature(constants=(), relations=(("S", 1),))
    models = list(enumerate_models(sig, max_worlds=1, max_domain=1))
    # one world, domain {0}: the relation is empty or reflexive, S empty or total
    assert len(models) == 4
    assert all(check_adequate(m).adequate for m in models)


def test_enumeration_is_deterministic():
    sig = Signature(constants=("c0",), relations=(("S", 1),))
    a = [_canon(m) for m in enumerate_models(sig, 2, 1)]
    b = [_canon(m) for m in enumerate_models(sig, 2, 1)]
    assert a == b
    assert len(a) == len(set(a))


# ---------------------------------------------------------------------------
# refutation by the one-element canonical model


def test_refute_diamond_top():
    s = parse_sequent("T |- <>T", SIG)
    cm = refute(s, SIG)
    assert cm is not None
    cm.validate()
    assert len(cm.model.worlds) == 1


def test_refute_converse_of_quantified_modal_axiom():
    # every one-element model forces the right-hand side; decide finds two elements
    sig = Signature(constants=(), relations=(("S", 1),))
    s = parse_sequent("A x . <>S(x) |- <>(A x . S(x))", sig)
    assert refute(s, sig) is None
    v = decide(s, sig)
    assert v.status == UNDERIVABLE
    v.countermodel.validate()
    assert len(v.countermodel.model.worlds) <= 2


def test_refute_returns_none_on_derivable_sequents():
    for text in ["<><>S(c0) |- <>S(c0)", "A x . S(x) |- S(c0)",
                 "<>(A x . S(x)) |- A x . <>S(x)", "S(c0) & T |- S(c0)"]:
        s = parse_sequent(text, SIG)
        assert refute(s, SIG) is None, text


def test_refute_handles_free_variables_via_assignment():
    # x and c0 must be two elements, so decide refutes it and refute does not
    s = parse_sequent("S(x) |- S(c0)", SIG)
    assert refute(s, SIG) is None
    v = decide(s, SIG)
    assert v.status == UNDERIVABLE
    assert v.countermodel.assignment.mapping["x"] != v.countermodel.model.const_value(0, "c0")
    v.countermodel.validate()


# ---------------------------------------------------------------------------
# serialization


def test_model_round_trip():
    m = growing_model()
    assert _canon(model_from_dict(model_to_dict(m))) == _canon(m)


def test_countermodel_round_trip():
    s = parse_sequent("T |- <>T", SIG)
    cm = refute(s, SIG)
    back = countermodel_from_dict(countermodel_to_dict(cm), SIG)
    back.validate()


def test_a_weighed_memo_keeps_its_weight_within_the_cap():
    """Under a bound of 10: an entry that fits is added, one that would pass
    the bound empties the memo first, one heavier than the bound is not kept,
    and clear resets the weight. After every step the weight is the sum of
    the held entries' weights."""
    memo = WeighedMemo(10)
    weights = {}
    steps = [
        ("keep", "a", 4, {"a"}),
        ("keep", "b", 5, {"a", "b"}),
        ("keep", "c", 2, {"c"}),  # 4 + 5 + 2 passes the bound
        ("keep", "d", 11, {"c"}),  # heavier than the bound
        ("keep", "e", 8, {"c", "e"}),  # reaches the bound, and fits
        ("keep", "f", 0, {"c", "e", "f"}),
        ("clear", None, None, set()),
        ("keep", "g", 10, {"g"}),
    ]
    for step, key, weight, held in steps:
        if step == "clear":
            memo.clear()
        else:
            weights[key] = weight
            memo.keep(key, key.upper(), weight)
        assert memo == {k: k.upper() for k in held}
        assert memo.weight == sum(weights[k] for k in memo) <= 10


# ---------------------------------------------------------------------------
# rooted frames up to isomorphism


def _frame_class(n, rel, profiles):
    """The isomorphism class of a rooted frame: least image, over the world
    permutations that fix the root, of its relation and of the sorted
    profiles (the worlds whose domain holds each element)."""
    return n, min(
        (tuple(sorted((p[w], p[u]) for w, u in rel)),
         tuple(sorted(tuple(sorted(p[w] for w in prof)) for prof in profiles)))
        for p in [(0, *q) for q in itertools.permutations(range(1, n))]
    )


def _brute_force_frame_classes(max_worlds, max_domain):
    """Every labeled rooted frame, from all relation bit patterns and all
    domain tuples, reduced to its isomorphism class."""
    classes = set()
    elements = range(max_domain)
    nonempty = [frozenset(c) for k in range(1, max_domain + 1)
                for c in itertools.combinations(elements, k)]
    for n in range(1, max_worlds + 1):
        pairs = [(w, u) for w in range(n) for u in range(n)]
        for bits in itertools.product((False, True), repeat=n * n):
            rel = {p for p, b in zip(pairs, bits) if b}
            if any((0, w) not in rel for w in range(1, n)):
                continue
            if any((w, v) not in rel for w, u in rel for u2, v in rel if u2 == u):
                continue
            for doms in itertools.product(nonempty, repeat=n):
                if any(not doms[w] <= doms[u] for w, u in rel):
                    continue
                profiles = [{w for w in range(n) if e in doms[w]} for e in elements]
                classes.add(_frame_class(n, rel, [p for p in profiles if p]))
    return classes


def _frames(max_worlds, max_domain):
    return list(_rooted_frames(max_worlds, max_domain))


def _class_of(frame):
    elements = set().union(*frame.domains)
    return _frame_class(frame.n, frame.rel,
                        [{w for w in range(frame.n) if e in frame.domains[w]} for e in elements])


@pytest.mark.parametrize("bounds, count", [((2, 4), 52), ((3, 3), 214), ((3, 4), 422), ((4, 3), 1772)])
def test_rooted_frames_are_the_isomorphism_classes(bounds, count):
    frames = _frames(*bounds)
    expected = _brute_force_frame_classes(*bounds)
    assert len(expected) == count
    assert len(frames) == count
    assert {_class_of(f) for f in frames} == expected


def test_rooted_frames_are_adequate_and_worlds_ascend():
    frames = _frames(4, 3)
    assert [f.n for f in frames] == sorted(f.n for f in frames)
    for f in frames:
        worlds = tuple(range(f.n))
        m = Model(worlds, f.rel, dict(enumerate(f.domains)), {w: {} for w in worlds},
                  {w: {} for w in worlds})
        assert check_adequate(m).adequate
        assert all((0, w) in f.rel for w in worlds[1:])


def test_random_models_are_drawn_from_the_enumerated_frames():
    rng = random.Random(3)
    frames = {(f.n, f.rel, f.domains) for f in _frames(3, 3)}
    for _ in range(200):
        m = random_adequate_model(rng, DEFAULT_SIG, max_worlds=3, max_domain=3)
        assert (len(m.worlds), m.R, tuple(m.domain[w] for w in m.worlds)) in frames
        assert all(c in m.domain[0] for c in m.constI[0].values())
        assert check_adequate(m).adequate


def _labeled_rooted_models(bound_pairs):
    """Brute force: each labeled adequate model within some of the bounds,
    restricted to the worlds each of its worlds sees, with its root and its
    (worlds, elements) box."""
    out = {}
    for bounds in bound_pairs:
        for m in _oracle_models(ORACLE_SIG, *bounds):
            for w in m.worlds:
                sub = restrict(m, w)
                box = (len(sub.worlds), len(set().union(*sub.domain.values())))
                out[(_canon(sub), w)] = (sub, w, box)
    return list(out.values())


def _countermodel_boxes(s, rooted):
    fv = sorted(free_vars(s.lhs) | free_vars(s.rhs))
    boxes = set()
    for m, w, box in rooted:
        dom = sorted(m.domain[w])
        for vals in itertools.product(dom, repeat=len(fv)):
            g = Assignment(dict(zip(fv, vals)), dom[0])
            if forces(m, w, g, s.lhs) and not forces(m, w, g, s.rhs):
                boxes.add(box)
    return boxes


def test_refute_agrees_with_a_labeled_brute_force_search():
    # refute finds a countermodel wherever some one-element model of at most
    # 3 worlds refutes the sequent, and each it returns is such a model when
    # it has at most 3 worlds
    rooted = _labeled_rooted_models([(3, 1)])
    rng = random.Random(3)
    found = 0
    for _ in range(100):
        s = Sequent(*(random_formula(rng, ORACLE_SIG, max_mdepth=2, max_udepth=1, size=3, scope=["x"])
                      for _ in "lr"))
        boxes = _countermodel_boxes(s, rooted)
        cm = refute(s, ORACLE_SIG)
        assert cm is not None or not boxes, pretty_sequent(s)
        if cm is not None:
            cm.validate()
            assert set().union(*cm.model.domain.values()) == {0}
            worlds = len(cm.model.worlds)
            assert worlds > 3 or (worlds, 1) in boxes, pretty_sequent(s)
            found += 1
    assert found
