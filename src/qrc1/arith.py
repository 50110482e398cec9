"""Arithmetical reading of sequents: realizations and the star translation.

This is a translator and pretty-printer only; no arithmetic is proved here.
Quoted formulas stay opaque (no numbering is computed).
"""

from __future__ import annotations

import re
from dataclasses import dataclass, fields
from typing import Iterable, Iterator

from .syntax import (
    MAX_NESTING,
    And,
    Const,
    Diamond,
    Forall,
    Formula,
    ParseError,
    Pred,
    QRCError,
    Sequent,
    Signature,
    Top,
    constants_of,
)


class RealizationError(QRCError):
    pass


# ---------------------------------------------------------------------------
# arithmetic terms


class ATerm:
    __slots__ = ()


@dataclass(frozen=True, slots=True)
class ANum(ATerm):
    value: int


@dataclass(frozen=True, slots=True)
class AVar(ATerm):
    name: str


@dataclass(frozen=True, slots=True)
class AOp(ATerm):
    op: str  # "+" or "*"
    left: ATerm
    right: ATerm


# ---------------------------------------------------------------------------
# arithmetic formulas


class ArithFormula:
    __slots__ = ()


@dataclass(frozen=True, slots=True)
class Tau(ArithFormula):
    """The axiom-membership predicate applied to the code variable u."""


@dataclass(frozen=True, slots=True)
class Cmp(ArithFormula):
    op: str  # "=" or "<="
    left: ATerm
    right: ATerm


@dataclass(frozen=True, slots=True)
class TemplateAtom(ArithFormula):
    """An opaque named template atom, e.g. the default reading of a relation."""

    name: str
    args: tuple[str, ...]


@dataclass(frozen=True, slots=True)
class OrA(ArithFormula):
    left: ArithFormula
    right: ArithFormula


@dataclass(frozen=True, slots=True)
class AndA(ArithFormula):
    left: ArithFormula
    right: ArithFormula


@dataclass(frozen=True, slots=True)
class Implies(ArithFormula):
    left: ArithFormula
    right: ArithFormula


@dataclass(frozen=True, slots=True)
class Exists(ArithFormula):
    var: str
    body: ArithFormula


@dataclass(frozen=True, slots=True)
class BoundedForall(ArithFormula):
    var: str
    bound: ATerm
    body: ArithFormula


@dataclass(frozen=True, slots=True)
class ForallA(ArithFormula):
    """Unbounded universal quantifier (used only for the outer statement)."""

    var: str
    body: ArithFormula


@dataclass(frozen=True, slots=True)
class TheoremVar(ArithFormula):
    """The schematic sentence variable of the provability statement."""


@dataclass(frozen=True, slots=True)
class Quote(ArithFormula):
    body: ArithFormula


@dataclass(frozen=True, slots=True)
class ConOf(ArithFormula):
    """Formalized consistency of the axiom set defined by the body."""

    axioms: ArithFormula


@dataclass(frozen=True, slots=True)
class EqQuote(ArithFormula):
    """u = <quoted formula>; the second disjunct of the diamond clause."""

    quote: Quote


@dataclass(frozen=True, slots=True)
class BoxOf(ArithFormula):
    """Formalized provability from the axiom set defined by `axioms`."""

    axioms: ArithFormula
    target: ArithFormula


# ---------------------------------------------------------------------------
# realizations


@dataclass(frozen=True)
class Realization:
    """Per-relation templates; each n-ary relation maps to a template whose
    parameters are its n argument slots, with the code variable u implicit."""

    templates: dict[str, tuple[tuple[str, ...], ArithFormula]]

    def template_for(self, name: str, arity: int) -> tuple[tuple[str, ...], ArithFormula]:
        if name not in self.templates:
            raise RealizationError(f"no template for relation {name}")
        params, body = self.templates[name]
        if len(params) != arity:
            raise RealizationError(
                f"template for {name} has {len(params)} parameters, relation has arity {arity}"
            )
        return params, body


def default_realization(sig: Signature) -> Realization:
    """Each relation becomes an opaque template atom carrying its own name."""
    templates = {}
    for name, arity in sig.relations:
        params = tuple(f"a{i}" for i in range(arity))
        templates[name] = (params, TemplateAtom(name, params + ("u",)))
    return Realization(templates)


# ---------------------------------------------------------------------------
# parameter indexing: constants -> y_i, object variables -> z_i


@dataclass(frozen=True)
class ParamIndex:
    y_of: dict[str, str]  # constant name -> y variable
    z_of: dict[str, str]  # object variable name -> z variable


def _variables(f: Formula) -> Iterator[str]:
    """The variables of f in order of occurrence; a bound variable occurs at
    its binder."""
    match f:
        case Pred(_, args):
            yield from (t.name for t in args if not isinstance(t, Const))
        case And(l, r):
            yield from _variables(l)
            yield from _variables(r)
        case Diamond(b):
            yield from _variables(b)
        case Forall(x, b):
            yield x
            yield from _variables(b)


def param_index(formulas: Iterable[Formula], sig: Signature) -> ParamIndex:
    """Constants take y-indices by signature position, and constants outside
    the signature the next indices in name order; variables take z-indices by
    first occurrence. Both maps list their parameters in index order."""
    formulas = list(formulas)
    consts = frozenset().union(*map(constants_of, formulas))
    extra = sorted(consts - set(sig.constants))
    y_of = {c: f"y{i}" for i, c in enumerate([*sig.constants, *extra]) if c in consts}
    variables = dict.fromkeys(x for f in formulas for x in _variables(f))
    return ParamIndex(y_of, {x: f"z{i}" for i, x in enumerate(variables)})


# ---------------------------------------------------------------------------
# the star translation


def _subst_term(t: ATerm, env: dict[str, str]) -> ATerm:
    match t:
        case AVar(name):
            return AVar(env.get(name, name))
        case AOp(op, l, r):
            return AOp(op, _subst_term(l, env), _subst_term(r, env))
        case _:
            return t


def _subst(f: ArithFormula, env: dict[str, str]) -> ArithFormula:
    match f:
        case Cmp(op, l, r):
            return Cmp(op, _subst_term(l, env), _subst_term(r, env))
        case TemplateAtom(name, args):
            return TemplateAtom(name, tuple(env.get(a, a) for a in args))
        case OrA(l, r):
            return OrA(_subst(l, env), _subst(r, env))
        case AndA(l, r):
            return AndA(_subst(l, env), _subst(r, env))
        case Exists(v, b):
            inner = {k: w for k, w in env.items() if k != v}
            return Exists(v, _subst(b, inner))
        case BoundedForall(v, bound, b):
            inner = {k: w for k, w in env.items() if k != v}
            return BoundedForall(v, _subst_term(bound, env), _subst(b, inner))
        case _:
            return f


def realize(f: Formula, r: Realization, sig: Signature) -> ArithFormula:
    """Structural translation: T to Tau; atoms to template-or-Tau; conjunction
    to disjunction of translations; diamond to Tau-or-consistency-code;
    universal object quantifiers to existential z quantifiers."""
    return _realize(f, r, param_index([f], sig))


def _realize(f: Formula, r: Realization, idx: ParamIndex) -> ArithFormula:
    match f:
        case Top():
            return Tau()
        case Pred(name, args):
            params, body = r.template_for(name, len(args))
            env = {p: idx.y_of[t.name] if isinstance(t, Const) else idx.z_of[t.name]
                   for p, t in zip(params, args)}
            return OrA(_subst(body, env), Tau())
        case And(l, rr):
            return OrA(_realize(l, r, idx), _realize(rr, r, idx))
        case Diamond(b):
            return OrA(Tau(), EqQuote(Quote(ConOf(_realize(b, r, idx)))))
        case Forall(x, b):
            return Exists(idx.z_of[x], _realize(b, r, idx))
    raise RealizationError(f"cannot translate {f!r}")


def arith_sequent(s: Sequent, r: Realization, sig: Signature) -> ArithFormula:
    """The provability statement for a sequent: for every sentence and every
    choice of parameters, provability from the right translation's axiom set
    implies provability from the left's."""
    idx = param_index([s.lhs, s.rhs], sig)
    lhs_t = _realize(s.lhs, r, idx)
    rhs_t = _realize(s.rhs, r, idx)
    body: ArithFormula = Implies(BoxOf(rhs_t, TheoremVar()), BoxOf(lhs_t, TheoremVar()))
    for p in reversed([*idx.y_of.values(), *idx.z_of.values()]):
        body = ForallA(p, body)
    return ForallA("θ", body)


# ---------------------------------------------------------------------------
# rendering


def render_term(t: ATerm) -> str:
    match t:
        case ANum(v):
            return str(v)
        case AVar(name):
            return name
        case AOp(op, l, r):
            ls = render_term(l)
            rs = render_term(r)
            if op == "*":
                if isinstance(l, AOp) and l.op == "+":
                    ls = f"({ls})"
                if isinstance(r, AOp) and r.op == "+":
                    rs = f"({rs})"
            op_str = "×" if op == "*" else " + "
            return f"{ls}{op_str}{rs}"
    raise RealizationError(f"bad term {t!r}")


_ATOMIC = (Tau, Cmp, TemplateAtom, TheoremVar)
_CLOSED = _ATOMIC + (Quote, ConOf, BoxOf)  # each printed inside its own brackets


def _operand(f: ArithFormula, bare: tuple[type, ...]) -> str:
    """f as an operand: in parentheses unless it is an instance of bare."""
    return render(f) if isinstance(f, bare) else f"({render(f)})"


def render(f: ArithFormula) -> str:
    match f:
        case Tau():
            return "τ(u)"
        case TheoremVar():
            return "θ"
        case Cmp(op, l, r):
            op_str = "=" if op == "=" else "≤"
            return f"{render_term(l)} {op_str} {render_term(r)}"
        case TemplateAtom(name, args):
            return f"{name}({', '.join(args)})"
        case Quote(b):
            return f"⌜{render(b)}⌝"
        case ConOf(a):
            return f"Con_{{{render(a)}}}"
        case EqQuote(q):
            return f"u = {render(q)}"
        case BoxOf(a, target):
            return f"□_{{{render(a)}}}{render(target)}"
        case OrA(l, r):
            return f"{_operand(l, _CLOSED + (OrA,))} ∨ {_operand(r, _CLOSED + (OrA,))}"
        case AndA(l, r):
            return f"{_operand(l, _CLOSED + (AndA,))} ∧ {_operand(r, _CLOSED + (AndA,))}"
        case Implies(l, r):
            return f"{render(l)} → {render(r)}"
        case Exists(v, b):
            return f"∃{v} {_operand(b, _ATOMIC)}"
        case BoundedForall(v, bound, b):
            return f"∀{v} ≤ {render_term(bound)} {_operand(b, _ATOMIC)}"
        case ForallA(v, b):
            return f"∀{v} {_operand(b, (ForallA,))}"
    raise RealizationError(f"cannot render {f!r}")


_NODE_NAMES = {
    Tau: "tau", TheoremVar: "theorem-var", Cmp: "cmp", TemplateAtom: "template-atom",
    Quote: "quote", ConOf: "con", EqQuote: "eq-quote", BoxOf: "box", OrA: "or", AndA: "and",
    Implies: "implies", Exists: "exists", BoundedForall: "bounded-forall", ForallA: "forall",
}


def arith_to_dict(f: ArithFormula) -> dict:
    """The node name, then each field: a term as its rendering, a tuple as a
    list, a name as itself and a subformula as its dict."""
    if type(f) not in _NODE_NAMES:
        raise RealizationError(f"cannot serialize {f!r}")
    out: dict = {"node": _NODE_NAMES[type(f)]}
    for field in fields(f):
        value = getattr(f, field.name)
        if isinstance(value, ATerm):
            out[field.name] = render_term(value)
        elif isinstance(value, tuple):
            out[field.name] = list(value)
        elif isinstance(value, str):
            out[field.name] = value
        else:
            out[field.name] = arith_to_dict(value)
    return out


# ---------------------------------------------------------------------------
# sigma-1 shape lint (warnings, never errors)


def sigma1_warnings(f: ArithFormula) -> list[str]:
    """Warn when a template strays from the shape `existential block over a
    matrix with only bounded quantifiers`."""
    out: list[str] = []

    def walk(g: ArithFormula, in_prefix: bool) -> None:
        match g:
            case Exists(v, b):
                if not in_prefix:
                    out.append(f"unbounded existential ∃{v} outside the leading block")
                walk(b, in_prefix)
            case ForallA(v, _b):
                out.append(f"unbounded universal ∀{v}")
                walk(_b, False)
            case BoundedForall(_, _, b):
                walk(b, False)
            case OrA(l, r) | AndA(l, r) | Implies(l, r):
                walk(l, False)
                walk(r, False)
            case _:
                pass

    walk(f, True)
    return out


# ---------------------------------------------------------------------------
# realization files
#
# One template per line:   S(a)     := E v . a + v = u
#                          R(a, b)  := a + b <= u
# Arithmetic grammar: comparisons t = t and t <= t over terms built from
# numerals, names, + and *; connectives & and | (| binds looser); E x . for
# an existential and A x <= t . for a bounded universal; parentheses group.


class _ArithParser:
    """Recursive descent; each method takes the number of binders and
    parentheses open around the current token, and returns a node and its
    height, the number of binders, parentheses, &, |, + and * on its deepest
    path. The translation and the printer recurse on a template's structure,
    so templates taller than MAX_NESTING are refused."""

    def __init__(self, tokens: list[str], line: int):
        self.toks = tokens
        self.i = 0
        self.line = line

    def peek(self) -> str | None:
        return self.toks[self.i] if self.i < len(self.toks) else None

    def take(self, expected: str | None = None) -> str:
        if self.i >= len(self.toks):
            raise ParseError(f"line {self.line}: unexpected end of template")
        tok = self.toks[self.i]
        if expected is not None and tok != expected:
            raise ParseError(f"line {self.line}: expected {expected!r}, found {tok!r}")
        self.i += 1
        return tok

    def too_deep(self) -> ParseError:
        return ParseError(f"line {self.line}: template nested more than {MAX_NESTING} levels deep")

    def enter(self, depth: int) -> int:
        # checked on the way down, so that the recursion stops in time
        if depth == MAX_NESTING:
            raise self.too_deep()
        return depth + 1

    def template(self) -> ArithFormula:
        body, height = self.formula(0)
        if height > MAX_NESTING:
            raise self.too_deep()
        if self.peek() is not None:
            raise ParseError(f"line {self.line}: trailing input {self.peek()!r}")
        return body

    def chain(self, op: str, operand, make, depth: int) -> tuple:
        """A left-associated chain of operands joined by op."""
        out, height = operand(depth)
        while self.peek() == op:
            self.take()
            right, right_height = operand(depth)
            out, height = make(out, right), 1 + max(height, right_height)
        return out, height

    def formula(self, depth: int) -> tuple[ArithFormula, int]:
        return self.chain("|", self.conjunct, OrA, depth)

    def conjunct(self, depth: int) -> tuple[ArithFormula, int]:
        return self.chain("&", self.unit, AndA, depth)

    def unit(self, depth: int) -> tuple[ArithFormula, int]:
        tok = self.peek()
        if tok == "E":
            self.take()
            v = self.binder()
            self.take(".")
            body, height = self.unit(self.enter(depth))
            return Exists(v, body), height + 1
        if tok == "A":
            self.take()
            v = self.binder()
            self.take("<=")
            bound, bound_height = self.term(depth)
            self.take(".")
            body, height = self.unit(self.enter(depth))
            return BoundedForall(v, bound, body), 1 + max(bound_height, height)
        if tok == "(":
            save = self.i
            self.take()
            try:
                inner, height = self.formula(self.enter(depth))
                self.take(")")
                return inner, height + 1
            except ParseError:
                self.i = save  # parenthesized term inside a comparison
        return self.comparison(depth)

    def binder(self) -> str:
        """The name an E or A binds. The statement's u and its parameters y0,
        z0, y1, ..., which the translation substitutes in, are never bound."""
        v = self.take()
        if not _is_name(v):
            raise ParseError(f"line {self.line}: bad binder {v!r}")
        if v == "u" or re.fullmatch(r"[yz][0-9]+", v):
            raise ParseError(f"line {self.line}: {v} is reserved for the statement and cannot be bound")
        return v

    def comparison(self, depth: int) -> tuple[ArithFormula, int]:
        left, left_height = self.term(depth)
        op = self.take()
        if op not in ("=", "<="):
            raise ParseError(f"line {self.line}: expected = or <=, found {op!r}")
        right, right_height = self.term(depth)
        return Cmp(op, left, right), max(left_height, right_height)

    def term(self, depth: int) -> tuple[ATerm, int]:
        return self.chain("+", self.factor, lambda l, r: AOp("+", l, r), depth)

    def factor(self, depth: int) -> tuple[ATerm, int]:
        return self.chain("*", self.prim, lambda l, r: AOp("*", l, r), depth)

    def prim(self, depth: int) -> tuple[ATerm, int]:
        tok = self.take()
        if tok == "(":
            inner, height = self.term(self.enter(depth))
            self.take(")")
            return inner, height + 1
        if tok.isascii() and tok.isdigit():  # str.isdigit alone takes ² too, which int refuses
            try:
                return ANum(int(tok)), 0
            except ValueError:  # more digits than the interpreter converts
                raise ParseError(f"line {self.line}: numeral of {len(tok)} digits is too long") from None
        if _is_name(tok):
            return AVar(tok), 0
        raise ParseError(f"line {self.line}: bad term token {tok!r}")


# A token is a run of letters, digits and _, or one of <= := ( ) , . & | = + *,
# and whitespace separates tokens; as in syntax._TOKEN, \w is str.isalnum or
# _, and _ARITH_LEXABLE's match ends at the first character that starts no token.
_ARITH_TOKEN = re.compile(r"<=|:=|[(),.&|=+*]|\w+")
_ARITH_LEXABLE = re.compile(r"(?:\s|[\w(),.&|=+*]|<=|:=)*")


def _is_name(tok: str) -> bool:
    """A variable or parameter: a run of letters, digits and _ other than a numeral."""
    return tok.replace("_", "").isalnum() and not (tok.isascii() and tok.isdigit())


def _tokenize_arith(text: str, line: int) -> list[str]:
    bad = _ARITH_LEXABLE.match(text).end()
    if bad < len(text):
        raise ParseError(f"line {line}: bad character {text[bad]!r} in template")
    return _ARITH_TOKEN.findall(text)


def _free_names(f: ArithFormula | ATerm) -> set[str]:
    """The names a parsed template or term leaves unbound."""
    match f:
        case AVar(name):
            return {name}
        case AOp(_, l, r) | Cmp(_, l, r) | OrA(l, r) | AndA(l, r):
            return _free_names(l) | _free_names(r)
        case Exists(v, b):
            return _free_names(b) - {v}
        case BoundedForall(v, bound, b):
            return _free_names(bound) | (_free_names(b) - {v})
        case _:
            return set()


def parse_realization(text: str) -> tuple[Realization, list[str]]:
    """Parse a realization file; returns the realization and any shape
    warnings, keyed by relation."""
    templates: dict[str, tuple[tuple[str, ...], ArithFormula]] = {}
    warnings: list[str] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.split("#", 1)[0].strip()
        if not stripped:
            continue
        if ":=" not in stripped:
            raise ParseError(f"line {lineno}: expected `relation(params) := template`")
        head, body_src = stripped.split(":=", 1)
        # name(p1, ..., pn): names separated by single commas, or name()
        name, *rest = _tokenize_arith(head, lineno) or [""]
        params = tuple(rest[1:-1:2])
        separated = [tok for p in params for tok in (",", p)][1:]
        if (not re.fullmatch(r"\w+", name) or rest != ["(", *separated, ")"]
                or not all(map(_is_name, params))):
            raise ParseError(f"line {lineno}: bad template head {head.strip()!r}")
        if len(set(params)) != len(params):
            raise ParseError(f"line {lineno}: repeated parameter in template for {name}")
        if "u" in params:
            raise ParseError(f"line {lineno}: u is reserved for the axiom code")
        body = _ArithParser(_tokenize_arith(body_src, lineno), lineno).template()
        # a free name would leave the translation an open formula, not a sentence
        free = sorted(_free_names(body) - {*params, "u"})
        if free:
            raise ParseError(f"line {lineno}: {free[0]!r} in the template for {name} "
                             "is neither a parameter, u, nor bound")
        if name in templates:
            raise ParseError(f"line {lineno}: duplicate template for {name}")
        templates[name] = (params, body)
        for w in sigma1_warnings(body):
            warnings.append(f"{name}: {w}")
    return Realization(templates), warnings
