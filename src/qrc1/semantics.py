"""Adequate relational models, forcing and countermodels, and their JSON documents:
the countermodel checker of the trusted base. Models to cross-check against come
from qrc1.generate, and countermodels from qrc1.canonical."""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Mapping, Optional

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
    """Why the model is not adequate: ("inclusive", w, u, element),
    ("transitive", w, u, v) or ("concordant", w, u, constant); None if it is."""

    witness: Optional[tuple] = None

    @property
    def adequate(self) -> bool:
        return self.witness is None


def check_adequate(m: Model) -> AdequacyReport:
    validate_model(m)
    for (w, u) in m.R:
        missing = m.domain[w] - m.domain[u]
        if missing:
            return AdequacyReport(("inclusive", w, u, min(missing, key=str)))
    for (w, u) in m.R:
        for v in m.successors(u):
            if (w, v) not in m.R:
                return AdequacyReport(("transitive", w, u, v))
    for (w, u) in m.R:
        iw, iu = m.constI.get(w, {}), m.constI.get(u, {})
        for c, d in iw.items():
            if c not in iu or iu[c] != d:
                return AdequacyReport(("concordant", w, u, c))
    return AdequacyReport()


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
    arity = sig.arities
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
