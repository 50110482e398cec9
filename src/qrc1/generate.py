"""Seeded random generators for formulas, sequents, and adequate models.

Used by the experiment scripts and the randomized test suites; everything is
driven by an explicit random.Random so runs are reproducible.
"""

from __future__ import annotations

import random

from .semantics import Model, check_adequate, transitive_closure
from .syntax import (
    And,
    Const,
    Diamond,
    Forall,
    Formula,
    Pred,
    Sequent,
    Signature,
    TOP,
    Term,
    Var,
)

DEFAULT_SIG = Signature(constants=("c0", "c1"), relations=(("S", 1), ("R", 2)))


def random_term(rng: random.Random, sig: Signature, scope: list[str]) -> Term:
    choices: list[Term] = [Const(c) for c in sig.constants]
    choices += [Var(x) for x in scope]
    if not choices:
        choices = [Var("x0")]
    return rng.choice(choices)


def random_formula(
    rng: random.Random,
    sig: Signature,
    max_mdepth: int = 2,
    max_udepth: int = 1,
    size: int = 4,
    scope: list[str] | None = None,
    _next_var: int = 0,
) -> Formula:
    """A random strictly positive formula within the given depth bounds."""
    scope = scope if scope is not None else []
    options = ["top", "atom"]
    if size > 1:
        options.append("and")
        if max_mdepth > 0:
            options.append("dia")
        if max_udepth > 0:
            options.append("all")
    kind = rng.choice(options)
    if kind == "top":
        return TOP
    if kind == "atom":
        if not sig.relations:
            return TOP
        name, arity = rng.choice(sig.relations)
        return Pred(name, tuple(random_term(rng, sig, scope) for _ in range(arity)))
    if kind == "and":
        left = random_formula(rng, sig, max_mdepth, max_udepth, size // 2, scope, _next_var)
        right = random_formula(rng, sig, max_mdepth, max_udepth, size // 2, scope, _next_var)
        return And(left, right)
    if kind == "dia":
        return Diamond(random_formula(rng, sig, max_mdepth - 1, max_udepth, size - 1, scope, _next_var))
    x = f"x{_next_var}"
    body = random_formula(rng, sig, max_mdepth, max_udepth - 1, size - 1, scope + [x], _next_var + 1)
    return Forall(x, body)


def random_sequent(
    rng: random.Random,
    sig: Signature,
    max_mdepth: int = 2,
    max_udepth: int = 1,
    size: int = 4,
) -> Sequent:
    return Sequent(
        random_formula(rng, sig, max_mdepth, max_udepth, size),
        random_formula(rng, sig, max_mdepth, max_udepth, size),
    )


def random_adequate_model(
    rng: random.Random,
    sig: Signature,
    max_worlds: int = 3,
    max_domain: int = 3,
) -> Model:
    """A random model that satisfies transitivity, domain inclusion along the
    relation, and concordant constant interpretations."""
    n = rng.randint(1, max_worlds)
    worlds = tuple(range(n))
    edges = transitive_closure((a, b) for a in worlds for b in worlds if a != b and rng.random() < 0.4)

    base = {w: {f"d{w}_{i}" for i in range(rng.randint(1, max_domain))} for w in worlds}
    # each world holds its own elements and those of every world that sees
    # it; edges are transitive, so the domains grow along them
    domain: dict[int, frozenset[str]] = {}
    for w in worlds:
        dom = set(base[w])
        for (a, b) in edges:
            if b == w:
                dom |= base[a]
        domain[w] = frozenset(dom)

    # a shared core element keeps constant interpretations concordant
    core = "d_core"
    domain = {w: d | {core} for w, d in domain.items()}
    constI = {w: {c: core for c in sig.constants} for w in worlds}

    relJ: dict[int, dict[str, frozenset[tuple[str, ...]]]] = {}
    for w in worlds:
        table: dict[str, frozenset[tuple[str, ...]]] = {}
        dom = sorted(domain[w])
        for name, arity in sig.relations:
            tuples = set()
            for _ in range(rng.randint(0, 1 + len(dom))):
                tuples.add(tuple(rng.choice(dom) for _ in range(arity)))
            table[name] = frozenset(tuples)
        relJ[w] = table
    m = Model(worlds=worlds, R=edges, domain=domain, constI=constI, relJ=relJ)
    report = check_adequate(m)
    assert report.adequate, report
    return m
