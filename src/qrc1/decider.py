"""Total decision procedure for sequents, with a verifiable certificate either way.

decide takes one path. The one-element canonical model M_phi^1 refutes the
sequent if any one-element model does, and is then the countermodel.
Otherwise decide builds the canonical model M_phi of the left-hand side
(canonical.py): if M_phi forces the right-hand side, it reads off a checked
derivation; if M_phi is complete, it is the countermodel; else the verdict is
undecided. `entails` gives decide's status with no certificate.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

from .calculus import (
    CONST_GEN,
    Derivation,
    Instantiation,
    check_derivation,
    derivation_to_dict,
)
from .canonical import FRESH_VAR_PREFIX, CanonicalModel
from .semantics import Countermodel, countermodel_to_dict
from .syntax import (
    And,
    Const,
    Diamond,
    Forall,
    Formula,
    Pred,
    Sequent,
    Signature,
    Var,
    constants_of,
    free_vars,
    fresh_names,
    names_of,
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
    doc: dict = {"schema": SCHEMA_VERSION, "status": v.status, "stats": v.stats}
    if v.derivation is not None:
        doc["certificate"] = {"kind": "derivation", "derivation": derivation_to_dict(v.derivation, sig)}
    elif v.countermodel is not None:
        doc["certificate"] = {"kind": "countermodel", "countermodel": countermodel_to_dict(v.countermodel)}
    else:
        doc["certificate"] = None
    return doc


@dataclass(frozen=True)
class DeciderConfig:
    """Bounds on the canonical model as built; None leaves only its fact cap."""

    max_worlds: Optional[int] = None
    max_domain: Optional[int] = None

    def __post_init__(self):
        if any(b is not None and b < 1 for b in (self.max_worlds, self.max_domain)):
            raise ValueError("bounds must be at least 1")


_DEFAULT_CONFIG = DeciderConfig()


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


def _canonical(
    s: Sequent, sig: Signature, config: DeciderConfig
) -> tuple[Sequent, list[tuple[str, str]], CanonicalModel]:
    """s grounded, its grounding pairs, and M_phi of the grounded sequent."""
    # every name of the sequent and the signature, so that the names grounding
    # and M_phi invent parse back as what they stand for
    used = {*sig.constants, *names_of(s.lhs), *names_of(s.rhs)}
    # the canonical model takes free variables as fresh constants
    (lhs, rhs), ground_pairs = ground((s.lhs, s.rhs), used)
    grounded = Sequent(lhs, rhs) if ground_pairs else s
    return grounded, ground_pairs, CanonicalModel(grounded, used, config.max_worlds, config.max_domain)


def entails(s: Sequent, sig: Signature, config: DeciderConfig | None = None) -> bool | None:
    """decide's status with no certificate: True derivable, False underivable,
    None undecided. M_phi answers first, and M_phi^1 only where its build
    stops; decide asks M_phi^1 first, for its small certificates."""
    config = config or _DEFAULT_CONFIG
    grounded, _, canon = _canonical(s, sig, config)
    if canon.worlds and canon.forces(0, grounded.rhs):
        return True
    return False if canon.complete or _one_element(s, config) is not None else None


def decide(s: Sequent, sig: Signature, config: DeciderConfig | None = None) -> Verdict:
    """Decide derivability, returning a validated certificate either way. A
    pure function: it keeps nothing between calls. Constants of s that sig
    does not declare join it, so that a countermodel interprets them."""
    config = config or _DEFAULT_CONFIG
    one = _one_element(s, config)
    if one is not None:
        return _verdict(UNDERIVABLE, "one-element", None, countermodel=_countermodel(one, s, sig, []))
    grounded, ground_pairs, canon = _canonical(s, sig, config)
    # a derivation reads off whatever the part of M_phi built forces
    if canon.worlds and canon.forces(0, grounded.rhs):
        d = reattach_free_variables(canon.derive(0, grounded.rhs), s, ground_pairs)
        check_derivation(d, sig.with_constants(sorted(constants_of(s.lhs) | constants_of(s.rhs))))
        return _verdict(DERIVABLE, "canonical", canon, derivation=d)
    if canon.complete:
        return _verdict(UNDERIVABLE, "canonical", canon, countermodel=_countermodel(canon, s, sig, ground_pairs))
    return _verdict(UNDECIDED, None, canon)


def refute(s: Sequent, sig: Signature, config: DeciderConfig | None = None) -> Optional[Countermodel]:
    """decide's first step alone: M_phi^1 as a validated countermodel to s, or
    None where decide goes on to build M_phi."""
    one = _one_element(s, config or _DEFAULT_CONFIG)
    return None if one is None else _countermodel(one, s, sig, [])


def _countermodel(canon: CanonicalModel, s: Sequent, sig: Signature, ground_pairs: list) -> Countermodel:
    cm = canon.countermodel(s, sig, ground_pairs)
    cm.validate()
    return cm


def _collapse(f: Formula, e: Var) -> Formula:
    """f with every term read as e and each universal as its body."""
    match f:
        case Pred(name, args):
            return Pred(name, (e,) * len(args))
        case And(l, r):
            return And(_collapse(l, e), _collapse(r, e))
        case Diamond(b):
            return Diamond(_collapse(b, e))
        case Forall(_, b):
            return _collapse(b, e)
    return f


def _one_element(s: Sequent, config: DeciderConfig) -> Optional[CanonicalModel]:
    """M_phi^1, the canonical model of s with every term read as one element
    and each universal as its body, when it is built in full under config's
    bounds and refutes s. Its size is linear in s, and every one-element
    model of the left-hand side is an image of it."""
    # the root's one fresh element when no other name is in use; with no
    # universal on the right, no child world adds another
    e = Var(next(fresh_names(FRESH_VAR_PREFIX, ())))
    collapsed = Sequent(_collapse(s.lhs, e), _collapse(s.rhs, e))
    canon = CanonicalModel(collapsed, (), config.max_worlds, config.max_domain)
    return canon if canon.complete and not canon.forces(0, collapsed.rhs) else None


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
