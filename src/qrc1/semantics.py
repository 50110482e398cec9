"""Adequate relational models, forcing, model surgery, countermodels, and model enumeration."""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, replace
from typing import Iterable, Iterator, Mapping, Optional, Sequence

from . import syntax
from .syntax import (
    And,
    Const,
    Diamond,
    Forall,
    Formula,
    Pred,
    QRCError,
    Sequent,
    Signature,
    Term,
    Top,
    pretty_sequent,
)

World = int | str
Element = int | str


class ModelError(QRCError):
    pass


@dataclass(frozen=True)
class Model:
    """A relational structure with per-world domains and interpretations.

    Element ids are global, so inclusivity along R is literal set inclusion.
    Constant interpretations may be partial per world: a world only needs to
    interpret the constants whose value lies in its domain.
    """

    worlds: tuple[World, ...]
    R: frozenset[tuple[World, World]]
    domain: Mapping[World, frozenset[Element]]
    constI: Mapping[World, Mapping[str, Element]]
    relJ: Mapping[World, Mapping[str, frozenset[tuple[Element, ...]]]]

    def successors(self, w: World) -> tuple[World, ...]:
        return self._successors.get(w, ())

    @functools.cached_property
    def _successors(self) -> dict[World, tuple[World, ...]]:
        # forcing asks for the successors of a world at every diamond; each
        # list is in the order of self.worlds
        position = {w: i for i, w in enumerate(self.worlds)}
        succ: dict[World, list[World]] = {}
        for w, v in self.R:
            if v in position:
                succ.setdefault(w, []).append(v)
        return {w: tuple(sorted(vs, key=position.__getitem__)) for w, vs in succ.items()}

    def const_value(self, w: World, c: str) -> Element:
        try:
            return self.constI[w][c]
        except KeyError:
            raise ModelError(f"constant {c!r} is not interpreted at world {w!r}") from None

    @functools.cached_property
    def _defect(self) -> Optional[str]:
        """What makes the model ill-formed, or None; loading and validating ask."""
        wset = set(self.worlds)
        if len(wset) != len(self.worlds):
            return "duplicate world ids"
        if not wset:
            return "a model needs at least one world"
        for (w, u) in self.R:
            if w not in wset or u not in wset:
                return f"edge ({w!r}, {u!r}) mentions an unknown world"
        for w in self.worlds:
            dom = self.domain.get(w)
            if not dom:
                return f"world {w!r} has an empty domain"
            for c, d in self.constI.get(w, {}).items():
                if d not in dom:
                    return f"constant {c!r} at {w!r} maps outside the domain"
            for s, tuples in self.relJ.get(w, {}).items():
                for tup in tuples:
                    if not dom.issuperset(tup):
                        return f"tuple {tup!r} of {s!r} at {w!r} leaves the domain"


def validate_model(m: Model) -> None:
    """Structural well-formedness; adequacy is checked separately."""
    if m._defect is not None:
        raise ModelError(m._defect)


@dataclass(frozen=True)
class AdequacyReport:
    inclusive: bool
    transitive: bool
    concordant: bool
    witness: Optional[tuple] = None

    @property
    def adequate(self) -> bool:
        return self.inclusive and self.transitive and self.concordant


def check_adequate(m: Model) -> AdequacyReport:
    validate_model(m)
    for (w, u) in m.R:
        missing = m.domain[w] - m.domain[u]
        if missing:
            return AdequacyReport(False, True, True, ("inclusive", w, u, min(missing, key=str)))
    for (w, u) in m.R:
        for v in m.successors(u):
            if (w, v) not in m.R:
                return AdequacyReport(True, False, True, ("transitive", w, u, v))
    for (w, u) in m.R:
        iw, iu = m.constI.get(w, {}), m.constI.get(u, {})
        for c, d in iw.items():
            if c not in iu or iu[c] != d:
                return AdequacyReport(True, True, False, ("concordant", w, u, c))
    return AdequacyReport(True, True, True)


# ---------------------------------------------------------------------------
# assignments and forcing


@dataclass(frozen=True)
class Assignment:
    """A total map variable -> domain(world), explicit on a finite support."""

    world: World
    mapping: Mapping[str, Element]
    default: Element

    def __call__(self, x: str) -> Element:
        return self.mapping.get(x, self.default)

    def value(self, m: Model, w: World, t: Term) -> Element:
        if isinstance(t, Const):
            return m.const_value(w, t.name)
        return self(t.name)

    def set(self, x: str, d: Element) -> "Assignment":
        new = dict(self.mapping)
        new[x] = d
        return Assignment(self.world, new, self.default)


def default_assignment(m: Model, w: World) -> Assignment:
    return Assignment(w, {}, min(m.domain[w], key=str))


def forces(m: Model, w: World, g: Assignment, f: Formula) -> bool:
    """Truth at a world under an assignment (actualist quantification), with bounded
    variables (Vardi, PODS 1995): a diamond or universal with fewer free variables than the
    universals entered around it keeps its result for the call, by world, subformula and values."""
    if w not in m.domain:
        raise ModelError(f"unknown world {w!r}")
    domain, relJ, successors = m.domain, m.relJ, m._successors
    env, default, memo = dict(g.mapping), g.default, {}

    def holds(w: World, f: Formula, entered: int) -> bool:
        kind = type(f)
        if kind is Pred:
            values = []
            for t in f.args:
                values.append(m.const_value(w, t.name) if type(t) is Const else env.get(t.name, default))
            return tuple(values) in relJ.get(w, {}).get(f.name, ())
        if kind is And:
            return holds(w, f.left, entered) and holds(w, f.right, entered)
        if kind is Top:
            return True
        if kind is not Diamond and kind is not Forall:
            raise TypeError(f"not a formula: {f!r}")
        fv = syntax.free_vars(f) if entered else ()
        key = (w, f, *[env.get(x, default) for x in fv]) if len(fv) < entered else None
        if key in memo:
            return memo[key]
        result = kind is Forall
        if kind is Diamond:  # the inclusion coercion: values are read at v unchanged
            for v in successors.get(w, ()):
                if v not in domain:
                    raise ModelError(f"unknown world {v!r}")
                if holds(v, f.body, entered):
                    result = True
                    break
        else:  # an unset variable reads as the default, so it is restored as one
            x, outer = f.var, env.get(f.var, default)
            for d in domain[w]:
                env[x] = d
                if not holds(w, f.body, entered + 1):
                    result = False
                    break
            env[x] = outer
        if key is not None:
            memo[key] = result
        return result

    result = holds(w, f, 0)
    del holds  # it refers to itself: unless this breaks the cycle, only the collector frees it
    return result


# ---------------------------------------------------------------------------
# model surgery


def restrict(m: Model, r: World) -> Model:
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


def reinterpret_constant(m: Model, r: World, c: str, d: Element) -> Model:
    if r not in m.domain:
        raise ModelError(f"unknown world {r!r}")
    if d not in m.domain[r]:
        raise ModelError(f"{d!r} is not in the domain of {r!r}")
    sub = restrict(m, r)
    constI = {w: {**sub.constI.get(w, {}), c: d} for w in sub.worlds}
    return replace(sub, constI=constI)


# ---------------------------------------------------------------------------
# countermodels


@dataclass(frozen=True)
class Countermodel:
    model: Model
    root: World
    assignment: Assignment
    sequent: Sequent

    def validate(self) -> None:
        report = check_adequate(self.model)
        if not report.adequate:
            raise ModelError(f"countermodel is not adequate: {report.witness}")
        if self.root not in self.model.worlds:
            raise ModelError(f"root {self.root!r} is not a world of the model")
        g = self.assignment
        for d in (*g.mapping.values(), g.default):
            if d not in self.model.domain[self.root]:
                raise ModelError(f"the assignment's value {d!r} is not in the root's domain")
        if not forces(self.model, self.root, self.assignment, self.sequent.lhs):
            raise ModelError("countermodel does not force the left-hand side")
        if forces(self.model, self.root, self.assignment, self.sequent.rhs):
            raise ModelError("countermodel forces the right-hand side")


# ---------------------------------------------------------------------------
# enumeration of adequate models


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
    if max_worlds < 1 or max_domain < 1:
        raise ModelError("bounds must be at least 1")
    for frame in _rooted_frames(max_worlds, max_domain):
        root_domain = sorted(frame.domains[0])
        atoms = [(w, name, tup) for w in range(frame.n) for name, arity in sig.relations
                 for tup in itertools.product(sorted(frame.domains[w]), repeat=arity)]
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
    successors: tuple[tuple[int, ...], ...]


def _relabel(rel: frozenset[tuple[int, int]], perm: Sequence[int]) -> frozenset[tuple[int, int]]:
    return frozenset((perm[w], perm[u]) for (w, u) in rel)


@dataclass(frozen=True)
class _RootedRelation:
    rel: frozenset[tuple[int, int]]
    successors: tuple[tuple[int, ...], ...]
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
        out.append(_RootedRelation(rel, succ, upsets, autos))
    return tuple(out)


def _rooted_frames(max_worlds: int, max_domain: int) -> Iterator[_Frame]:
    """Every rooted frame within the bounds once up to isomorphism: world
    permutations that fix the root 0, and any renaming of elements.

    An element is determined up to renaming by its profile, the set of worlds
    whose domain holds it, which inclusivity makes closed upward along R. The
    root's elements have every world as profile. So a frame is a relation and
    a multiset of up-closed profiles, at least one of them full; elements are
    labeled 0..k-1 in descending profile order, and only the multiset that is
    least under the relation's automorphisms is kept.
    """
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
                        yield _Frame(n, r.rel, domains, r.successors)


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


# ---------------------------------------------------------------------------
# serialization


def model_to_dict(m: Model) -> dict:
    return {
        "worlds": [
            {
                "id": w,
                "domain": sorted(m.domain[w], key=str),
                "constants": {c: d for c, d in sorted(m.constI.get(w, {}).items())},
                "relations": {
                    s: sorted([list(t) for t in ts])
                    for s, ts in sorted(m.relJ.get(w, {}).items())
                },
            }
            for w in m.worlds
        ],
        "edges": sorted([list(e) for e in m.R]),
    }


def _shaped(value, kind, what: str):
    """value when it has the given JSON type; otherwise the document is malformed.
    JSON's true and false are no integers, though Python's bool is an int."""
    if not isinstance(value, kind) or isinstance(value, bool):
        raise ModelError(f"malformed model document: {what}")
    return value


def _ids(values, what: str) -> tuple[Element, ...]:
    if {*map(type, _shaped(values, list, f"{what} must be a list"))} <= {int, str}:  # no bool
        return tuple(values)
    raise ModelError(f"malformed model document: {what} must hold integers or strings")


def model_from_dict(doc: dict) -> Model:
    """Rebuild a model; a document of the wrong shape raises ModelError."""
    doc = _shaped(doc, dict, "a model must be an object")
    worlds: list[World] = []
    domain, constI, relJ = {}, {}, {}
    for entry in _shaped(doc.get("worlds"), list, "'worlds' must be a list"):
        entry = _shaped(entry, dict, "a world must be an object")
        w = _shaped(entry.get("id"), World, "a world id must be an integer or a string")
        worlds.append(w)
        domain[w] = frozenset(_ids(entry.get("domain"), "a domain"))
        constants = _shaped(entry.get("constants", {}), dict, "'constants' must be an object")
        constI[w] = {c: _shaped(d, Element, "a constant's value must be an integer or a string")
                     for c, d in constants.items()}
        relations = _shaped(entry.get("relations", {}), dict, "'relations' must be an object")
        relJ[w] = {name: frozenset(_ids(t, "a tuple") for t in _shaped(ts, list, "a relation must be a list"))
                   for name, ts in relations.items()}
    edges = [_ids(e, "an edge") for e in _shaped(doc.get("edges", []), list, "'edges' must be a list")]
    if any(len(e) != 2 for e in edges):
        raise ModelError("malformed model document: an edge must name two worlds")
    m = Model(worlds=tuple(worlds), R=frozenset(edges), domain=domain, constI=constI, relJ=relJ)
    validate_model(m)
    return m


def countermodel_to_dict(cm: Countermodel) -> dict:
    return {
        "model": model_to_dict(cm.model),
        "root": cm.root,
        "assignment": {
            "map": dict(cm.assignment.mapping),
            "default": cm.assignment.default,
        },
        "sequent": pretty_sequent(cm.sequent),
    }


def countermodel_from_dict(doc: dict, sig: Signature) -> Countermodel:
    """Rebuild a countermodel; a document of the wrong shape, or a model that
    interprets a relation outside sig or at the wrong arity, raises ModelError."""
    doc = _shaped(doc, dict, "a countermodel must be an object")
    model = model_from_dict(doc.get("model"))
    arity = dict(sig.relations)
    for w in model.worlds:
        for name, tuples in model.relJ[w].items():
            if name not in arity:
                raise ModelError(f"relation {name!r} at {w!r} is not in the signature")
            if any(len(t) != arity[name] for t in tuples):
                raise ModelError(f"a tuple of {name!r} at {w!r} does not have arity {arity[name]}")
    root = _shaped(doc.get("root"), World, "'root' must be an integer or a string")
    raw = _shaped(doc.get("assignment"), dict, "'assignment' must be an object")
    mapping = _shaped(raw.get("map"), dict, "the assignment's 'map' must be an object")
    g = Assignment(
        root,
        {x: _shaped(d, Element, "an assigned value must be an integer or a string") for x, d in mapping.items()},
        _shaped(raw.get("default"), Element, "the assignment's 'default' must be an integer or a string"),
    )
    seq = syntax.parse_sequent(_shaped(doc.get("sequent"), str, "'sequent' must be a string"), sig)
    return Countermodel(model, root, g, seq)


def model_text(m: Model) -> str:
    lines = []
    for w in m.worlds:
        lines.append(f"world {w}: domain {{{', '.join(str(d) for d in sorted(m.domain[w], key=str))}}}")
        for c, d in sorted(m.constI.get(w, {}).items()):
            lines.append(f"  {c} -> {d}")
        for s, ts in sorted(m.relJ.get(w, {}).items()):
            shown = ", ".join("(" + ",".join(str(x) for x in t) + ")" for t in sorted(ts))
            lines.append(f"  {s}: {{{shown}}}")
    edges = ", ".join(f"{w}->{u}" for (w, u) in sorted(m.R))
    lines.append(f"edges: {edges if edges else '(none)'}")
    return "\n".join(lines)
