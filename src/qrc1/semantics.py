"""Adequate relational models, forcing, model surgery, and countermodel search."""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, replace
from typing import Iterable, Iterator, Mapping, Optional, Sequence

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
    constants_of,
    free_vars,
    parse_sequent,
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


def validate_model(m: Model) -> None:
    """Structural well-formedness; adequacy is checked separately."""
    wset = set(m.worlds)
    if len(wset) != len(m.worlds):
        raise ModelError("duplicate world ids")
    if not wset:
        raise ModelError("a model needs at least one world")
    for (w, u) in m.R:
        if w not in wset or u not in wset:
            raise ModelError(f"edge ({w!r}, {u!r}) mentions an unknown world")
    for w in m.worlds:
        dom = m.domain.get(w)
        if not dom:
            raise ModelError(f"world {w!r} has an empty domain")
        for c, d in m.constI.get(w, {}).items():
            if d not in dom:
                raise ModelError(f"constant {c!r} at {w!r} maps outside the domain")
        for s, tuples in m.relJ.get(w, {}).items():
            for tup in tuples:
                if any(d not in dom for d in tup):
                    raise ModelError(f"tuple {tup!r} of {s!r} at {w!r} leaves the domain")


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
    """Truth at a world under an assignment (actualist quantification)."""
    if w not in m.domain:
        raise ModelError(f"unknown world {w!r}")
    match f:
        case Top():
            return True
        case Pred(name, args):
            tup = tuple(g.value(m, w, t) for t in args)
            return tup in m.relJ.get(w, {}).get(name, frozenset())
        case And(l, r):
            return forces(m, w, g, l) and forces(m, w, g, r)
        case Diamond(b):
            # the inclusion coercion: g's values are read at v unchanged
            return any(forces(m, v, g, b) for v in m.successors(w))
        case Forall(x, b):
            return all(forces(m, w, g.set(x, d), b) for d in m.domain[w])
    raise TypeError(f"not a formula: {f!r}")


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


def _transitive(relation: frozenset[tuple[int, int]]) -> bool:
    return all(
        (w, v) in relation
        for (w, u) in relation
        for (u2, v) in relation
        if u2 == u
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
                if _transitive(ext):
                    yield ext


def enumerate_models(
    sig: Signature,
    max_worlds: int,
    max_domain: int,
) -> Iterator[Model]:
    """Deterministic stream of adequate models rooted at world 0, on the
    frames that refute searches.

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


# ---------------------------------------------------------------------------
# refutation search


@dataclass
class RefuteBounds:
    """Search frames of at most max_worlds worlds and max_domain elements."""

    max_worlds: int
    max_domain: int

    def __post_init__(self):
        if self.max_worlds < 1 or self.max_domain < 1:
            raise ModelError("bounds must be at least 1")


@dataclass
class RefuteStats:
    frames: int = 0
    candidates: int = 0
    truncated: int = 0  # implicant lists cut at IMPLICANT_CAP: the search was not complete


# Past this many minimal implicants a universal's list is cut short, and
# countermodels that need the rest are not found.
IMPLICANT_CAP = 4096


def _forcing_implicants(
    m_frame: "_Frame", w: int, g: dict[str, int], f: Formula, cmap: dict[str, int], stats: RefuteStats
) -> list[frozenset[tuple]] | None:
    """Minimal sets of relation atoms that force f at w, or None if unforceable.

    The forcing condition of a strictly positive formula is a monotone AND/OR
    combination of atoms (world, relation, tuple), so its minimal models are a
    finite antichain computed structurally.
    """
    match f:
        case Top():
            return [frozenset()]
        case Pred(name, args):
            vals = []
            for t in args:
                if isinstance(t, Const):
                    v = cmap.get(t.name)
                    if v is None:
                        return None
                    vals.append(v)
                else:
                    vals.append(g[t.name])
            return [frozenset({(w, name, tuple(vals))})]
        case And(l, r):
            li = _forcing_implicants(m_frame, w, g, l, cmap, stats)
            if li is None:
                return None
            ri = _forcing_implicants(m_frame, w, g, r, cmap, stats)
            if ri is None:
                return None
            return _minimize([a | b for a in li for b in ri])
        case Diamond(b):
            out: list[frozenset[tuple]] = []
            for v in m_frame.successors[w]:
                vi = _forcing_implicants(m_frame, v, g, b, cmap, stats)
                if vi:
                    out.extend(vi)
            return _minimize(out) if out else None
        case Forall(x, b):
            if x not in free_vars(b):
                # domains are nonempty and b's implicants are the same for every d
                return _forcing_implicants(m_frame, w, g, b, cmap, stats)
            acc: list[frozenset[tuple]] = [frozenset()]
            for d in sorted(m_frame.domains[w]):
                g2 = dict(g)
                g2[x] = d
                bi = _forcing_implicants(m_frame, w, g2, b, cmap, stats)
                if bi is None:
                    return None
                acc = _minimize([a | c for a in acc for c in bi])
                if len(acc) > IMPLICANT_CAP:
                    acc = acc[:IMPLICANT_CAP]
                    stats.truncated += 1
            return acc
    raise TypeError(f"not a formula: {f!r}")


def _minimize(sets: list[frozenset]) -> list[frozenset]:
    sets = sorted(set(sets), key=lambda s: (len(s), sorted(s)))
    out: list[frozenset] = []
    for s in sets:
        if not any(o <= s for o in out):
            out.append(s)
    return out


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


def refute(
    s: Sequent,
    sig: Signature,
    bounds: RefuteBounds,
    stats: RefuteStats | None = None,
) -> Optional[Countermodel]:
    """Search for an adequate countermodel to s within the bounds.

    Complete within the bounds unless stats.truncated grows: frames are
    enumerated exhaustively up to isomorphism, constant values and free
    variable assignments over the root domain up to renaming of the root
    elements, and per frame only minimal
    relation interpretations forcing the lhs need testing against the rhs
    (forcing is monotone in the relation tables).
    """
    stats = stats if stats is not None else RefuteStats()
    # only constants occurring in the sequent constrain the search; the rest
    # are interpreted uniformly at the root element afterwards
    occurring = constants_of(s.lhs) | constants_of(s.rhs)
    constants = sorted(c for c in sig.constants if c in occurring)
    padding = sorted(c for c in sig.constants if c not in occurring)
    fvars = sorted(free_vars(s.lhs) | free_vars(s.rhs))
    for frame in _rooted_frames(bounds.max_worlds, bounds.max_domain):
        stats.frames += 1
        root_domain = sorted(frame.domains[0])
        for picks in _root_choices(len(root_domain), len(constants) + len(fvars)):
            values = [root_domain[i] for i in picks]
            cmap = dict(zip(constants, values))
            g = dict(zip(fvars, values[len(constants):]))
            implicants = _forcing_implicants(frame, 0, g, s.lhs, cmap, stats)
            if implicants is None:
                continue
            for atoms in implicants:
                stats.candidates += 1
                full_cmap = dict(cmap)
                for c in padding:
                    full_cmap[c] = root_domain[0]
                model = _model_from_atoms(frame, full_cmap, atoms)
                assignment = Assignment(0, g, root_domain[0])
                if not forces(model, 0, assignment, s.rhs):
                    cm = Countermodel(model, 0, assignment, s)
                    cm.validate()
                    return cm
    return None


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
    """value when it has the given JSON type; otherwise the document is malformed."""
    if not isinstance(value, kind):
        raise ModelError(f"malformed model document: {what}")
    return value


def _ids(values, what: str) -> tuple[Element, ...]:
    return tuple(_shaped(d, Element, f"{what} must hold integers or strings")
                 for d in _shaped(values, list, f"{what} must be a list"))


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
    """Rebuild a countermodel; a document of the wrong shape raises ModelError."""
    doc = _shaped(doc, dict, "a countermodel must be an object")
    model = model_from_dict(doc.get("model"))
    root = _shaped(doc.get("root"), World, "'root' must be an integer or a string")
    raw = _shaped(doc.get("assignment"), dict, "'assignment' must be an object")
    mapping = _shaped(raw.get("map"), dict, "the assignment's 'map' must be an object")
    g = Assignment(
        root,
        {x: _shaped(d, Element, "an assigned value must be an integer or a string") for x, d in mapping.items()},
        _shaped(raw.get("default"), Element, "the assignment's 'default' must be an integer or a string"),
    )
    seq = parse_sequent(_shaped(doc.get("sequent"), str, "'sequent' must be a string"), sig)
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
