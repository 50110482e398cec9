"""Adequate relational models, forcing and countermodels, and their JSON documents:
the countermodel checker of the trusted base. Models to cross-check against come
from qrc1.generate, and countermodels from qrc1.canonical."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Optional

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
    Top,
    cached_attribute,
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

    @cached_attribute
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

    @cached_attribute
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

    @cached_attribute
    def _adequacy(self) -> AdequacyReport:
        for (w, u) in self.R:
            missing = self.domain[w] - self.domain[u]
            if missing:
                return AdequacyReport(("inclusive", w, u, min(missing, key=str)))
        for (w, u) in self.R:
            for v in self.successors(u):
                if (w, v) not in self.R:
                    return AdequacyReport(("transitive", w, u, v))
        for (w, u) in self.R:
            iw, iu = self.constI.get(w, {}), self.constI.get(u, {})
            for c, d in iw.items():
                if c not in iu or iu[c] != d:
                    return AdequacyReport(("concordant", w, u, c))
        return AdequacyReport()

    @cached_attribute
    def _document(self) -> dict:
        worlds = [{"id": w,
                   "domain": sorted(self.domain[w], key=str),
                   "constants": dict(sorted(self.constI.get(w, {}).items())),
                   "relations": {s: sorted(map(list, ts)) for s, ts in sorted(self.relJ.get(w, {}).items())}}
                  for w in self.worlds]
        return {"worlds": worlds, "edges": sorted(map(list, self.R))}


def validate_model(m: Model) -> None:
    """Structural well-formedness; adequacy is checked separately."""
    if m._defect is not None:
        raise ModelError(m._defect)


@dataclass(frozen=True)
class AdequacyReport:
    """Why the model is not adequate: ("inclusive", w, u, element),
    ("transitive", w, u, v) or ("concordant", w, u, constant); None if it is."""

    witness: Optional[tuple] = None

    @property
    def adequate(self) -> bool:
        return self.witness is None


def check_adequate(m: Model) -> AdequacyReport:
    """The model's adequacy, after its structure is checked; both answers are kept on the model."""
    validate_model(m)
    return m._adequacy


# ---------------------------------------------------------------------------
# assignments and forcing


@dataclass(frozen=True)
class Assignment:
    """A total map variable -> domain(world), explicit on a finite support."""

    mapping: Mapping[str, Element]
    default: Element


def default_assignment(m: Model, w: World) -> Assignment:
    return Assignment({}, min(m.domain[w], key=str))


def forces(m: Model, w: World, g: Assignment, f: Formula) -> bool:
    """Truth at a world under an assignment (actualist quantification)."""
    return forces_each(m, w, g, (f,))[0]


def forces_each(m: Model, w: World, g: Assignment, formulas: Iterable[Formula]) -> list[bool]:
    """forces(m, w, g, f) for each f of formulas, in order, under one setup, with bounded
    variables (Vardi, PODS 1995): a diamond or universal with fewer free variables than the
    universals entered around it keeps its result for the call, by world, subformula and
    values. Each universal restores the environment it found, so a kept result holds for
    every later formula too."""
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

    results = [holds(w, f, 0) for f in formulas]
    del holds  # it refers to itself: unless this breaks the cycle, only the collector frees it
    return results


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
# serialization


def model_to_dict(m: Model) -> dict:
    """The model's JSON document. It is built once per Model and kept on it, so
    every caller shares one document: read it, copy it, never change it."""
    return m._document


class WeighedMemo(dict):
    """A memo that keeps the summed weight of its entries within the bound it
    is built with: an entry heavier than the bound is not kept, and one that
    would take the sum past it empties the memo first."""

    def __init__(self, bound: int):
        super().__init__()
        self.bound, self.weight = bound, 0

    def keep(self, key, value, weight: int) -> None:
        if weight <= self.bound:
            if self.weight + weight > self.bound:
                self.clear()
            self[key] = value
            self.weight += weight

    def clear(self) -> None:
        super().clear()
        self.weight = 0


# The models model_from_dict has loaded and checked, by content, each weighing
# its worlds, domain elements, constant entries, relation tuples and edges.
_MODELS = WeighedMemo(10_000)


def model_from_dict(doc: dict) -> Model:
    """Rebuild a model in one pass; a document of the wrong shape raises ModelError.
    An id or a value is an int or a str, never a bool: JSON's true is no integer.

    A well-formed model is kept, within _MODELS' bound, keyed by the
    document's content in the order it is written: per world its id, domain,
    constants and relations, then the edges. A document with the same content
    gets the same Model, whose structure, successors, adequacy and document
    are worked out once. It is the Model that document would build, set
    iteration order included, so no result depends on what was loaded before.
    A loaded Model is shared: read it, never change it."""
    if not isinstance(doc, dict):
        raise ModelError("malformed model document: a model must be an object")
    if not isinstance(entries := doc.get("worlds"), list):
        raise ModelError("malformed model document: 'worlds' must be a list")
    content = []
    for entry in entries:
        if not isinstance(entry, dict):
            raise ModelError("malformed model document: a world must be an object")
        if not isinstance(w := entry.get("id"), (int, str)) or type(w) is bool:
            raise ModelError("malformed model document: a world id must be an integer or a string")
        if not isinstance(elements := entry.get("domain"), list):
            raise ModelError("malformed model document: a domain must be a list")
        for d in elements:
            if type(d) is not int and type(d) is not str:
                raise ModelError("malformed model document: a domain must hold integers or strings")
        if not isinstance(constants := entry.get("constants", {}), dict):
            raise ModelError("malformed model document: 'constants' must be an object")
        if not {*map(type, constants.values())} <= {int, str}:
            raise ModelError("malformed model document: a constant's value must be an integer or a string")
        if not isinstance(relations := entry.get("relations", {}), dict):
            raise ModelError("malformed model document: 'relations' must be an object")
        for tuples in relations.values():
            if not isinstance(tuples, list):
                raise ModelError("malformed model document: a relation must be a list")
            for t in tuples:
                if not isinstance(t, list):
                    raise ModelError("malformed model document: a tuple must be a list")
                for d in t:
                    if type(d) is not int and type(d) is not str:
                        raise ModelError("malformed model document: a tuple must hold integers or strings")
        content.append((w, tuple(elements), tuple(constants.items()),
                        tuple((name, tuple(map(tuple, tuples))) for name, tuples in relations.items())))
    if not isinstance(edges := doc.get("edges", []), list):
        raise ModelError("malformed model document: 'edges' must be a list")
    for e in edges:
        if not isinstance(e, list):
            raise ModelError("malformed model document: an edge must be a list")
        for w in e:
            if type(w) is not int and type(w) is not str:
                raise ModelError("malformed model document: an edge must hold integers or strings")
    if any(len(e) != 2 for e in edges):
        raise ModelError("malformed model document: an edge must name two worlds")
    key = (*content, tuple(map(tuple, edges)))
    m = _MODELS.get(key)
    if m is None:
        m = Model(worlds=tuple(w for w, *_ in content), R=frozenset(key[-1]),
                  domain={w: frozenset(elements) for w, elements, _, _ in content},
                  constI={w: dict(constants) for w, _, constants, _ in content},
                  relJ={w: {name: frozenset(tuples) for name, tuples in relations}
                        for w, _, _, relations in content})
        validate_model(m)
        weight = sum(1 + len(elements) + len(constants) + sum(len(ts) for _, ts in relations)
                     for _, elements, constants, relations in content)
        _MODELS.keep(key, m, weight + len(edges))
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
    if not isinstance(doc, dict):
        raise ModelError("malformed model document: a countermodel must be an object")
    model = model_from_dict(doc.get("model"))
    arity = sig.arities
    for w in model.worlds:
        for name, tuples in model.relJ[w].items():
            if name not in arity:
                raise ModelError(f"relation {name!r} at {w!r} is not in the signature")
            if any(len(t) != arity[name] for t in tuples):
                raise ModelError(f"a tuple of {name!r} at {w!r} does not have arity {arity[name]}")
    if not isinstance(root := doc.get("root"), (int, str)) or type(root) is bool:
        raise ModelError("malformed model document: 'root' must be an integer or a string")
    if not isinstance(raw := doc.get("assignment"), dict):
        raise ModelError("malformed model document: 'assignment' must be an object")
    if not isinstance(mapping := raw.get("map"), dict):
        raise ModelError("malformed model document: the assignment's 'map' must be an object")
    if not {*map(type, mapping.values())} <= {int, str}:
        raise ModelError("malformed model document: an assigned value must be an integer or a string")
    if not isinstance(default := raw.get("default"), (int, str)) or type(default) is bool:
        raise ModelError("malformed model document: the assignment's 'default' must be an integer or a string")
    if not isinstance(text := doc.get("sequent"), str):
        raise ModelError("malformed model document: 'sequent' must be a string")
    return Countermodel(model, root, Assignment(dict(mapping), default), syntax.parse_sequent(text, sig))


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
