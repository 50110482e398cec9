"""Derivations for the sequent calculus, their checker and their JSON form:
the derivation checker of the trusted base. The derived rules, elaborated
into primitive ones, live in qrc1.derived; `prove` returns the derivation
`decide` reads off the canonical model."""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Optional

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
    SignatureError,
    SubstitutionError,
    Term,
    TOP,
    Top,
    Var,
    free_vars,
    constants_of,
    pretty_sequent,
    shared,
    shared_union,
    substitute,
    substitute_sequent,
)

TOP_I = "TopI"
ID = "Id"
AND_E_L = "AndE-L"
AND_E_R = "AndE-R"
AND_I = "AndI"
CUT = "Cut"
NEC = "Nec"
TRANS_AX = "TransAx"
BARCAN_AX = "BarcanAx"
FORALL_R = "ForallR"
FORALL_L = "ForallL"
TERM_INST = "TermInst"
CONST_GEN = "ConstGen"

LEAF_RULES = frozenset({TOP_I, ID, AND_E_L, AND_E_R, TRANS_AX, BARCAN_AX})
ALL_RULES = LEAF_RULES | {AND_I, CUT, NEC, FORALL_R, FORALL_L, TERM_INST, CONST_GEN}


class DerivationError(QRCError):
    pass


@dataclass(frozen=True, slots=True)
class Instantiation:
    """Binding data a rule mentions: the variable and the term (or constant)."""

    var: str
    term: Term


@dataclass(frozen=True, slots=True)
class Derivation:
    rule: str
    conclusion: Sequent
    premises: tuple["Derivation", ...] = ()
    instantiation: Optional[Instantiation] = None

    def size(self) -> int:
        return 1 + sum(p.size() for p in self.premises)


# ---------------------------------------------------------------------------
# checking


def _fail(d: Derivation, msg: str) -> None:
    raise DerivationError(f"{d.rule} concluding '{pretty_sequent(d.conclusion)}': {msg}")


@functools.lru_cache(maxsize=None)
def _relations(f: Formula) -> frozenset[tuple[str, int]]:
    """The name and arity of every atom of f, in one walk cached per subformula."""
    match f:
        case Pred(name, args):
            return shared({(name, len(args))})
        case And(l, r):
            return shared_union(_relations(l), _relations(r))
        case Diamond(b) | Forall(_, b):
            return _relations(b)
    return shared(())


def _well_formed(f: Formula, sig: Signature, d: Derivation) -> None:
    if _relations(f) <= sig.arities.items():  # one set comparison, else find the atom at fault
        return
    match f:
        case Top():
            pass
        case Pred(name, args):
            arity = sig.arities.get(name)
            if arity is None:
                _fail(d, f"undeclared relation {name!r}")
            if arity != len(args):
                _fail(d, f"arity mismatch for {name!r}")
        case And(l, r):
            _well_formed(l, sig, d)
            _well_formed(r, sig, d)
        case Diamond(b) | Forall(_, b):
            _well_formed(b, sig, d)


def check_derivation(d: Derivation, sig: Signature) -> Sequent:
    """Verify every node of d, returning its conclusion. Raises DerivationError."""
    phi, psi = d.conclusion.lhs, d.conclusion.rhs
    _well_formed(phi, sig, d)
    _well_formed(psi, sig, d)

    expected_premises = 0 if d.rule in LEAF_RULES else 2 if d.rule in (AND_I, CUT) else 1
    if d.rule not in ALL_RULES:
        _fail(d, f"unknown rule {d.rule!r}")
    if len(d.premises) != expected_premises:
        _fail(d, f"expected {expected_premises} premises, found {len(d.premises)}")
    for p in d.premises:
        check_derivation(p, sig)

    inst = d.instantiation
    match d.rule:
        case "TopI":
            if psi != TOP:
                _fail(d, "right-hand side must be T")
        case "Id":
            if phi != psi:
                _fail(d, "sides must be identical")
        case "AndE-L":
            if not (isinstance(phi, And) and phi.left == psi):
                _fail(d, "conclusion must be (psi & chi) |- psi")
        case "AndE-R":
            if not (isinstance(phi, And) and phi.right == psi):
                _fail(d, "conclusion must be (chi & psi) |- psi")
        case "AndI":
            (p1, p2) = d.premises
            if not isinstance(psi, And):
                _fail(d, "right-hand side must be a conjunction")
            if p1.conclusion != Sequent(phi, psi.left):
                _fail(d, "first premise must conclude lhs |- left conjunct")
            if p2.conclusion != Sequent(phi, psi.right):
                _fail(d, "second premise must conclude lhs |- right conjunct")
        case "Cut":
            (p1, p2) = d.premises
            if p1.conclusion.lhs != phi:
                _fail(d, "first premise lhs mismatch")
            if p2.conclusion.rhs != psi:
                _fail(d, "second premise rhs mismatch")
            if p1.conclusion.rhs != p2.conclusion.lhs:
                _fail(d, "cut formula mismatch between premises")
        case "Nec":
            (p1,) = d.premises
            if not (isinstance(phi, Diamond) and isinstance(psi, Diamond)):
                _fail(d, "both sides must start with <>")
            if p1.conclusion != Sequent(phi.body, psi.body):
                _fail(d, "premise must conclude the unboxed sequent")
        case "TransAx":
            if not (
                isinstance(phi, Diamond)
                and isinstance(phi.body, Diamond)
                and isinstance(psi, Diamond)
                and phi.body.body == psi.body
            ):
                _fail(d, "conclusion must be <><>phi |- <>phi")
        case "BarcanAx":
            if not (
                isinstance(phi, Diamond)
                and isinstance(phi.body, Forall)
                and isinstance(psi, Forall)
                and phi.body.var == psi.var
                and isinstance(psi.body, Diamond)
                and phi.body.body == psi.body.body
            ):
                _fail(d, "conclusion must be <>A x . phi |- A x . <>phi")
        case "ForallR":
            (p1,) = d.premises
            if not isinstance(psi, Forall):
                _fail(d, "right-hand side must be universally quantified")
            if psi.var in free_vars(phi):
                _fail(d, f"side condition violated: {psi.var} is free in the lhs")
            if p1.conclusion != Sequent(phi, psi.body):
                _fail(d, "premise must conclude lhs |- body")
        case "ForallL":
            (p1,) = d.premises
            if inst is None:
                _fail(d, "missing instantiation")
            if not isinstance(phi, Forall) or phi.var != inst.var:
                _fail(d, "left-hand side must quantify the instantiation variable")
            try:
                body = substitute(phi.body, inst.var, inst.term)
            except SubstitutionError:
                _fail(d, "side condition violated: term not free for the variable")
            if p1.conclusion != Sequent(body, psi):
                _fail(d, "premise must conclude the instantiated body |- rhs")
        case "TermInst":
            (p1,) = d.premises
            if inst is None:
                _fail(d, "missing instantiation")
            try:
                substituted = substitute_sequent(p1.conclusion, inst.var, inst.term)
            except SubstitutionError:
                _fail(d, "side condition violated: term not free for the variable")
            if d.conclusion != substituted:
                _fail(d, "conclusion must be the substituted premise")
        case "ConstGen":
            (p1,) = d.premises
            if inst is None or not isinstance(inst.term, Const):
                _fail(d, "instantiation must name a constant")
            c = inst.term.name
            if c in constants_of(phi) | constants_of(psi):
                _fail(d, f"side condition violated: {c} occurs in the conclusion")
            if p1.conclusion != substitute_sequent(d.conclusion, inst.var, inst.term):
                _fail(d, "premise must be the conclusion with the constant substituted")
    return d.conclusion


# ---------------------------------------------------------------------------
# prove: decide's derivation under a node budget


@dataclass
class SearchStats:
    nodes_expanded: int = 0


class ProofSearch:
    """decide's derivations, read off the canonical model of the left-hand
    side, under a node budget. A left-hand side whose canonical model fills
    its fact cap gets no derivation here, as it gets no verdict from decide.
    """

    def __init__(self, sig: Signature):
        self.sig = sig
        self.stats = SearchStats()

    def prove(self, goal: Sequent, budget: int) -> Optional[Derivation]:
        """decide's checked derivation of `goal` if it has at most `budget`
        nodes, else None."""
        from .decider import decide  # decider imports this module

        d = decide(goal, self.sig).derivation
        if d is None or d.size() > budget:
            return None
        self.stats.nodes_expanded += d.size()
        return d


def prove(s: Sequent, sig: Signature, budget: int = 12) -> Optional[Derivation]:
    return ProofSearch(sig).prove(s, budget)


# ---------------------------------------------------------------------------
# certificate serialization


def _node_to_dict(d: Derivation, constants: set[str]) -> dict:
    constants.update(constants_of(d.conclusion.lhs), constants_of(d.conclusion.rhs))
    doc: dict = {"rule": d.rule, "conclusion": pretty_sequent(d.conclusion)}
    if d.instantiation is not None:
        t = d.instantiation.term
        if isinstance(t, Const):
            constants.add(t.name)
        doc["instantiation"] = {
            "var": d.instantiation.var,
            "term": t.name,
            "kind": "const" if isinstance(t, Const) else "var",
        }
    if d.premises:
        doc["premises"] = [_node_to_dict(p, constants) for p in d.premises]
    return doc


def derivation_to_dict(d: Derivation, sig: Signature) -> dict:
    """d as a document, in one walk. pretty and constants_of are memoized per
    formula; the constants of each conclusion and each constant instantiation
    that sig lacks are listed as extra_constants."""
    constants: set[str] = set()
    doc = _node_to_dict(d, constants)
    extra = sorted(constants - set(sig.constants))
    if extra:
        doc["extra_constants"] = extra
    return doc


def _field(node: dict, key: str, kind: type, default=None):
    value = node.get(key, default)
    if not isinstance(value, kind):
        raise DerivationError(f"malformed derivation document: {key!r} must be a {kind.__name__}")
    return value


def derivation_from_dict(doc: dict, sig: Signature) -> Derivation:
    """Rebuild a derivation; a document of the wrong shape raises DerivationError.
    parse_sequent's memo parses each distinct side text once, across documents."""

    def build(node: dict) -> Derivation:
        if not isinstance(node, dict):
            raise DerivationError("malformed derivation document: a node must be an object")
        inst = None
        if "instantiation" in node:
            raw = _field(node, "instantiation", dict)
            kind = raw.get("kind")
            if kind not in ("const", "var"):
                raise DerivationError("malformed derivation document: 'kind' must be 'const' or 'var'")
            name = _field(raw, "term", str)
            inst = Instantiation(_field(raw, "var", str), Const(name) if kind == "const" else Var(name))
        return Derivation(
            rule=_field(node, "rule", str),
            conclusion=syntax.parse_sequent(_field(node, "conclusion", str), sig),
            premises=tuple(build(p) for p in _field(node, "premises", list, [])),
            instantiation=inst,
        )

    if isinstance(doc, dict):
        extra = _field(doc, "extra_constants", list, [])
        if not all(isinstance(c, str) for c in extra):
            raise DerivationError("malformed derivation document: 'extra_constants' must hold names")
        try:
            sig = sig.with_constants(extra)
        except SignatureError as e:
            raise DerivationError(f"malformed derivation document: 'extra_constants': {e}") from None
    return build(doc)
