"""Total decision procedure for sequents, with a verifiable certificate either way.

decide takes one path. The one-element canonical model M_phi^1 refutes the
sequent if any one-element model does, and is then the countermodel.
Otherwise decide builds the canonical model M_phi of the left-hand side
(canonical.py): if M_phi forces the right-hand side, it reads off a checked
derivation; if M_phi is complete, it is the countermodel; else the verdict is
undecided. `entails` gives decide's status with no certificate.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Optional, Sequence

from . import canonical
from .calculus import (
    CONST_GEN,
    Derivation,
    Instantiation,
    check_derivation,
    derivation_to_dict,
)
from .canonical import FRESH_VAR_PREFIX, CanonicalModel, fresh_names
from .semantics import Countermodel, Model, WeighedMemo, countermodel_to_dict
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
    Top,
    Var,
    constants_of,
    free_vars,
    shared,
    shared_union,
    substitute,
    substitute_sequent,
)

GROUND_PREFIX = "@"

SCHEMA_VERSION = 1

DERIVABLE = "derivable"
UNDERIVABLE = "underivable"
UNDECIDED = "undecided"


@dataclass
class Verdict:
    status: str
    derivation: Optional[Derivation] = None
    countermodel: Optional[Countermodel] = None
    stats: dict = field(default_factory=dict)


def verdict_to_dict(v: Verdict, sig: Signature) -> dict:
    """The verdict's JSON document, a fresh dict at the top level. A
    countermodel's "model" is its Model's document (semantics.model_to_dict),
    shared by every verdict read off that Model: read it, never change it."""
    doc: dict = {"schema": SCHEMA_VERSION, "status": v.status, "stats": v.stats}
    if v.derivation is not None:
        doc["certificate"] = {"kind": "derivation", "derivation": derivation_to_dict(v.derivation, sig)}
    elif v.countermodel is not None:
        doc["certificate"] = {"kind": "countermodel", "countermodel": countermodel_to_dict(v.countermodel)}
    else:
        doc["certificate"] = None
    return doc


# fieldless, and read nowhere here: perfbench/tracing.py builds one per traced
# decide; it goes when the tracer is retargeted (ROADMAP item 2)
@dataclass(frozen=True)
class DeciderConfig:
    pass


@functools.lru_cache(maxsize=None)
def names_of(f: Formula) -> frozenset[str]:
    """Every constant and variable name of f, free or bound."""
    match f:
        case Top():
            return shared(())
        case Pred(_, args):
            return shared(t.name for t in args)
        case And(l, r):
            return shared_union(names_of(l), names_of(r))
        case Diamond(b):
            return names_of(b)
        case Forall(x, b):
            body = names_of(b)
            return body if x in body else shared(body | {x})
    raise TypeError(f"not a formula: {f!r}")


def ground(formulas: Sequence[Formula], used: set[str]) -> tuple[list[Formula], list[tuple[str, str]]]:
    """Name each free variable x of formulas, in sorted order, by the constant
    @x, or by the first fresh @x0, @x1, ... when used holds @x; each constant
    joins used. Returns the formulas with the constants put for their
    variables, and the (variable, constant) pairs in order."""
    pairs = []
    for x in sorted(set().union(*map(free_vars, formulas))):
        c = f"{GROUND_PREFIX}{x}"
        if c in used:
            c = next(fresh_names(c, used))
        used.add(c)
        pairs.append((x, c))
    grounded = list(formulas)
    for x, c in pairs:
        grounded = [substitute(f, x, Const(c)) for f in grounded]
    return grounded, pairs


def _canonical(s: Sequent, sig: Signature) -> tuple[Sequent, list[tuple[str, str]], CanonicalModel]:
    """s grounded, its grounding pairs, and M_phi of the grounded sequent."""
    # every name of the sequent and the signature, so that the names grounding
    # and M_phi invent parse back as what they stand for
    used = {*sig.constants, *names_of(s.lhs), *names_of(s.rhs)}
    # the canonical model takes free variables as fresh constants
    (lhs, rhs), ground_pairs = ground((s.lhs, s.rhs), used)
    grounded = Sequent(lhs, rhs)
    return grounded, ground_pairs, CanonicalModel(grounded, used)


def entails(s: Sequent, sig: Signature) -> bool | None:
    """decide's status, by decide's steps in decide's order, with no
    certificate: True derivable, False underivable, None undecided."""
    if _one_element(s) is not None:
        return False
    grounded, _, canon = _canonical(s, sig)
    if canon.forces(0, grounded.rhs):
        return True
    return False if canon.complete else None


# the ignored config is passed by perfbench/tracing.py (ROADMAP item 2)
def decide(s: Sequent, sig: Signature, config=None) -> Verdict:
    """Decide derivability, returning a validated certificate either way.
    Constants of s that sig does not declare join it, so that a countermodel
    interprets them. Between calls decide keeps M_phi^1 per collapsed
    left-hand side and fact cap, and each Model read off it per collapsed
    left-hand side and constants, in _ONE_ELEMENT; every countermodel read off
    them is validated here, so the verdict depends on s and sig alone."""
    one = _one_element(s)
    if one is not None:
        return _verdict(UNDERIVABLE, "one-element", None, countermodel=_refutation(one, s, sig))
    grounded, ground_pairs, canon = _canonical(s, sig)
    # a derivation reads off whatever the part of M_phi built forces
    if canon.forces(0, grounded.rhs):
        d = reattach_free_variables(canon.derive(0, grounded.rhs), s, ground_pairs)
        check_derivation(d, sig)
        return _verdict(DERIVABLE, "canonical", canon, derivation=d)
    if canon.complete:
        cm = _countermodel(canon, canon.model(_constants(s, sig)), s, ground_pairs)
        return _verdict(UNDERIVABLE, "canonical", canon, countermodel=cm)
    return _verdict(UNDECIDED, None, canon)


def refute(s: Sequent, sig: Signature) -> Optional[Countermodel]:
    """decide's first step alone: M_phi^1 as a validated countermodel to s, or
    None where decide goes on to build M_phi."""
    one = _one_element(s)
    return None if one is None else _refutation(one, s, sig)


def _constants(s: Sequent, sig: Signature) -> tuple[str, ...]:
    """The constants a countermodel to s interprets: sig's and then s's own."""
    return sig.with_constants(sorted(constants_of(s.lhs) | constants_of(s.rhs))).constants


def _countermodel(canon: CanonicalModel, model: Model, s: Sequent, ground_pairs: list) -> Countermodel:
    cm = canon.countermodel(model, s, ground_pairs)
    cm.validate()
    return cm


# M_phi^1's one element: the root's first fresh name, as no other name is in
# use; with no universal on the right, no child world adds another
_E = Var(next(fresh_names(FRESH_VAR_PREFIX, ())))


@functools.lru_cache(maxsize=None)
def _collapse(f: Formula) -> Formula:
    """f with every term read as _E and each universal as its body."""
    match f:
        case Pred(name, args):
            return Pred(name, (_E,) * len(args))
        case And(l, r):
            return And(_collapse(l), _collapse(r))
        case Diamond(b):
            return Diamond(_collapse(b))
        case Forall(_, b):
            return _collapse(b)
    return f


# M_phi^1 by (collapsed left-hand side, fact cap), None where its build
# stops, and each Model read off it by (collapsed left-hand side, constants):
# a Model is read only off a complete M_phi^1, which every cap that lets it
# finish builds alike. The collapsed right-hand side holds no constant and no
# universal, so it changes nothing in the build, and it is forced per call.
# Each entry weighs M_phi^1's facts (1 for None): for a Model, that covers
# the Model together with its document and adequacy report.
_ONE_ELEMENT = WeighedMemo(10_000)


def _one_element(s: Sequent) -> Optional[CanonicalModel]:
    """M_phi^1, the canonical model of s with every term read as one element
    and each universal as its body, when it is built in full within the fact
    cap and refutes s. Its size is linear in s, and every one-element
    model of the left-hand side is an image of it."""
    lhs = _collapse(s.lhs)
    key = (lhs, canonical.CANONICAL_FACT_CAP)
    if key in _ONE_ELEMENT:
        canon = _ONE_ELEMENT[key]
    else:
        canon = CanonicalModel(Sequent(lhs, TOP), ())
        canon = canon if canon.complete else None
        _ONE_ELEMENT.keep(key, canon, 1 if canon is None else canon.facts)
    # the forcing is kept per call, so that a kept model does not grow with it
    return canon if canon is not None and not canon.forces(0, _collapse(s.rhs), {}) else None


def _refutation(one: CanonicalModel, s: Sequent, sig: Signature) -> Countermodel:
    """The validated countermodel read off M_phi^1, one, whose Model is kept."""
    constants = _constants(s, sig)
    key = (_collapse(s.lhs), constants)
    model = _ONE_ELEMENT.get(key)
    if model is None:
        model = one.model(constants)
        _ONE_ELEMENT.keep(key, model, one.facts)
    return _countermodel(one, model, s, [])


def _verdict(status: str, model: Optional[str], canon: Optional[CanonicalModel], **certificate) -> Verdict:
    """The verdict and its stats (README.md)."""
    v = Verdict(status, **certificate)
    cm, d = v.countermodel, v.derivation
    v.stats = {
        "canonical_worlds": len(canon.worlds) if canon else 0,
        "canonical_elements": canon.elements if canon else 0,
        "canonical_facts": canon.facts if canon else 0,
        "certificate_model": model,
        "certificate_size": len(cm.model.worlds) if cm else d.size() if d else 0,
    }
    return v


def reattach_free_variables(
    d: Derivation, original: Sequent, ground_pairs: list[tuple[str, str]]
) -> Derivation:
    """Wrap the derivation of the grounded sequent in constant-generalization
    steps so that it concludes the original sequent."""
    seqs = [original]
    for x, c in ground_pairs:
        seqs.append(substitute_sequent(seqs[-1], x, Const(c)))
    for i in range(len(ground_pairs) - 1, -1, -1):
        x, c = ground_pairs[i]
        d = Derivation(CONST_GEN, seqs[i], (d,), Instantiation(x, Const(c)))
    return d
