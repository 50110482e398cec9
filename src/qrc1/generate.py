"""The sources of formulas, sequents and models that the decider is checked
against, none of them trusted: seeded random generators, the exhaustive
enumeration of small sequents, and the exhaustive, isomorphism-reduced
enumeration of small adequate models.

The experiment scripts and the randomized tests use them. Every random
choice is drawn from an explicit random.Random, so runs are reproducible.
"""

from __future__ import annotations

import functools
import itertools
import random
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

from .semantics import Model, ModelError, World
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


def enumerate_sequents(sig: Signature, max_size: int) -> Iterator[Sequent]:
    """Every closed sequent over sig of total size at most max_size, by total
    size, then by the size of the left-hand side. Size counts one per T, atom
    and connective. The binder at depth d, counting the universals above it,
    is named x<d>, so no two sequents that differ only in the names of bound
    variables both appear."""

    @functools.cache
    def formulas(size: int, depth: int) -> tuple[Formula, ...]:
        """The formulas of the given size over the binders x0 .. x<depth - 1>."""
        if size == 1:
            terms = [Const(c) for c in sig.constants] + [Var(f"x{i}") for i in range(depth)]
            atoms = (Pred(name, args) for name, arity in sig.relations
                     for args in itertools.product(terms, repeat=arity))
            return (TOP, *atoms)
        found = [And(l, r) for k in range(1, size - 1)
                 for l in formulas(k, depth) for r in formulas(size - 1 - k, depth)]
        found += [Diamond(b) for b in formulas(size - 1, depth)]
        found += [Forall(f"x{depth}", b) for b in formulas(size - 1, depth + 1)]
        return tuple(found)

    for total in range(2, max_size + 1):
        for left in range(1, total):
            for lhs in formulas(left, 0):
                for rhs in formulas(total - left, 0):
                    yield Sequent(lhs, rhs)


def random_adequate_model(
    rng: random.Random,
    sig: Signature,
    max_worlds: int = 3,
    max_domain: int = 3,
) -> Model:
    """A random model of the enumeration within the bounds, up to renaming of
    the root's elements: one of its rooted frames, the constants on random
    root elements, and each possible relation atom kept with probability 1/2."""
    frame = rng.choice(_frame_list(max_worlds, max_domain))
    root_domain = sorted(frame.domains[0])
    cmap = {c: rng.choice(root_domain) for c in sig.constants}
    atoms = frozenset(a for a in _atoms(frame, sig) if rng.random() < 0.5)
    return _model_from_atoms(frame, cmap, atoms)


# ---------------------------------------------------------------------------
# enumeration of adequate models


def restrict(m: Model, r: World) -> Model:
    """The submodel of r and the worlds r sees, all that forcing at r reads."""
    if r not in m.domain:
        raise ModelError(f"unknown world {r!r}")
    keep = {r} | {w for w in m.worlds if (r, w) in m.R}
    worlds = tuple(w for w in m.worlds if w in keep)
    return Model(
        worlds=worlds,
        R=frozenset((w, u) for (w, u) in m.R if w in keep and u in keep),
        domain={w: m.domain[w] for w in worlds},
        constI={w: dict(m.constI.get(w, {})) for w in worlds},
        relJ={w: {s: ts for s, ts in m.relJ.get(w, {}).items()} for w in worlds},
    )


def transitive_closure(edges: Iterable[tuple[World, World]]) -> frozenset[tuple[World, World]]:
    """The least transitive relation that contains edges."""
    closed = set(edges)
    while True:
        new = {(w, v) for (w, u) in closed for (u2, v) in closed if u2 == u} - closed
        if not new:
            return frozenset(closed)
        closed |= new


def _extensions(rel: frozenset[tuple[int, int]], n: int) -> Iterator[frozenset[tuple[int, int]]]:
    """Transitive relations on worlds 0..n in which the root 0 sees the new
    world n and whose restriction to 0..n-1 is the rooted transitive relation rel.

    Restricting a rooted transitive relation to fewer worlds, the root among
    them, keeps it rooted and transitive, so extending every relation on n
    worlds by one world in every way reaches every relation on n + 1 worlds.
    """
    subsets = [frozenset(c) for k in range(n + 1) for c in itertools.combinations(range(n), k)]
    for ins in (s for s in subsets if 0 in s):
        for outs in subsets:
            for loop in ((), ((n, n),)):
                ext = rel.union(((w, n) for w in ins), ((n, u) for u in outs), loop)
                if transitive_closure(ext) == ext:
                    yield ext


def enumerate_models(
    sig: Signature,
    max_worlds: int,
    max_domain: int,
) -> Iterator[Model]:
    """Deterministic stream of adequate models rooted at world 0, over every
    rooted frame within the bounds.

    Every adequate model within the bounds, restricted to one of its worlds
    and the worlds that world sees, appears rooted at 0 at least once up to
    isomorphism (renaming of worlds and elements). Forcing at a world reads
    only the worlds it sees, so checking each model of the stream at its root
    covers every world of every adequate model within the bounds.
    """
    for frame in _rooted_frames(max_worlds, max_domain):
        root_domain = sorted(frame.domains[0])
        atoms = _atoms(frame, sig)
        for picks in _root_choices(len(root_domain), len(sig.constants)):
            cmap = {c: root_domain[i] for c, i in zip(sig.constants, picks)}
            for k in range(len(atoms) + 1):
                for chosen in itertools.combinations(atoms, k):
                    yield _model_from_atoms(frame, cmap, frozenset(chosen))


@dataclass
class _Frame:
    n: int
    rel: frozenset[tuple[int, int]]
    domains: tuple[frozenset[int], ...]


def _relabel(rel: frozenset[tuple[int, int]], perm: Sequence[int]) -> frozenset[tuple[int, int]]:
    return frozenset((perm[w], perm[u]) for (w, u) in rel)


@dataclass(frozen=True)
class _RootedRelation:
    rel: frozenset[tuple[int, int]]
    upsets: tuple[int, ...]  # sets of worlds closed upward along rel, without the root, as bit masks, descending
    automorphisms: tuple[tuple[int, ...], ...]  # all but the identity, each as its image of every bit mask


@functools.cache
def _rooted_relations(n: int) -> tuple[_RootedRelation, ...]:
    """Rooted transitive relations on worlds 0..n-1, one per class up to the
    world permutations that fix the root 0.

    Root 0 sees every other world. Each class is represented by its least
    relabeling; classes on n worlds come from extending those on n - 1.
    """
    perms = [(0, *p) for p in itertools.permutations(range(1, n))]
    if n == 1:
        found = [frozenset(), frozenset({(0, 0)})]
    else:
        found = [ext for r in _rooted_relations(n - 1) for ext in _extensions(r.rel, n - 1)]
    classes = {min(tuple(sorted(_relabel(rel, p))) for p in perms) for rel in found}
    full = (1 << n) - 1
    out = []
    for key in sorted(classes):
        rel = frozenset(key)
        succ = tuple(tuple(u for u in range(n) if (w, u) in rel) for w in range(n))
        upsets = tuple(mask for mask in range(full - 1, 0, -1) if not mask & 1
                       and all(mask >> u & 1 for w in range(n) if mask >> w & 1 for u in succ[w]))
        autos = tuple(tuple(sum(1 << p[w] for w in range(n) if mask >> w & 1) for mask in range(full + 1))
                      for p in perms[1:] if _relabel(rel, p) == rel)
        out.append(_RootedRelation(rel, upsets, autos))
    return tuple(out)


def _rooted_frames(max_worlds: int, max_domain: int) -> Iterator[_Frame]:
    """Every rooted frame within the bounds once up to isomorphism: world
    permutations that fix the root 0, and any renaming of elements.

    An element is determined up to renaming by its profile, the set of worlds
    whose domain holds it, which inclusivity makes closed upward along R. The
    root's elements have every world as profile. So a frame is a relation and
    a multiset of up-closed profiles, at least one of them full; elements are
    labeled 0..k-1 in descending profile order, and only the multiset that is
    least under the relation's automorphisms is kept. Bounds below 1 raise
    ModelError, since a frame has a world and a world an element.
    """
    if max_worlds < 1 or max_domain < 1:
        raise ModelError("bounds must be at least 1")
    for n in range(1, max_worlds + 1):
        full = (1 << n) - 1
        for k in range(1, max_domain + 1):
            for r in _rooted_relations(n):
                for roots in range(1, k + 1):
                    for rest in itertools.combinations_with_replacement(r.upsets, k - roots):
                        profiles = (full,) * roots + rest
                        if any(tuple(sorted((image[m] for m in profiles), reverse=True)) < profiles
                               for image in r.automorphisms):
                            continue
                        domains = tuple(frozenset(i for i, m in enumerate(profiles) if m >> w & 1)
                                        for w in range(n))
                        yield _Frame(n, r.rel, domains)


@functools.cache
def _frame_list(max_worlds: int, max_domain: int) -> tuple[_Frame, ...]:
    return tuple(_rooted_frames(max_worlds, max_domain))


def _atoms(frame: _Frame, sig: Signature) -> list[tuple]:
    """Every relation atom (world, relation, tuple) that the frame's domains allow."""
    return [(w, name, tup) for w in range(frame.n) for name, arity in sig.relations
            for tup in itertools.product(sorted(frame.domains[w]), repeat=arity)]


def _root_choices(m: int, length: int, prefix: tuple[int, ...] = ()) -> Iterator[tuple[int, ...]]:
    """Tuples of root-element indices 0..m-1, one per class under renaming of
    the root elements: each index is at most one more than any before it.

    Root elements lie in every world's domain, so renaming them among
    themselves maps the frame onto itself (Zhang & Zhang's least-number rule).
    """
    if len(prefix) == length:
        yield prefix
        return
    for i in range(min(max(prefix, default=-1) + 2, m)):
        yield from _root_choices(m, length, prefix + (i,))


def _model_from_atoms(
    frame: _Frame, cmap: dict[str, int], atoms: frozenset[tuple]
) -> Model:
    relJ: dict[int, dict[str, set[tuple]]] = {w: {} for w in range(frame.n)}
    for (w, name, tup) in atoms:
        relJ[w].setdefault(name, set()).add(tup)
    return Model(
        worlds=tuple(range(frame.n)),
        R=frame.rel,
        domain={w: frame.domains[w] for w in range(frame.n)},
        constI={w: dict(cmap) for w in range(frame.n)},
        relJ={w: {name: frozenset(ts) for name, ts in relJ[w].items()} for w in range(frame.n)},
    )
