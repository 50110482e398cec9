"""Arithmetical reading of sequents: realizations and the star translation.

This is a translator and pretty-printer only; no arithmetic is proved here.
Quoted formulas stay opaque (no numbering is computed).
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterable, Union

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
    Var,
)


class RealizationError(QRCError):
    pass


# ---------------------------------------------------------------------------
# arithmetic terms


@dataclass(frozen=True, slots=True)
class ANum:
    value: int


@dataclass(frozen=True, slots=True)
class AVar:
    name: str


@dataclass(frozen=True, slots=True)
class AOp:
    op: str  # "+" or "*"
    left: "ATerm"
    right: "ATerm"


ATerm = Union[ANum, AVar, AOp]


# ---------------------------------------------------------------------------
# arithmetic formulas


@dataclass(frozen=True, slots=True)
class Tau:
    """The axiom-membership predicate applied to the code variable u."""


@dataclass(frozen=True, slots=True)
class Cmp:
    op: str  # "=" or "<="
    left: ATerm
    right: ATerm


@dataclass(frozen=True, slots=True)
class TemplateAtom:
    """An opaque named template atom, e.g. the default reading of a relation."""

    name: str
    args: tuple[str, ...]


@dataclass(frozen=True, slots=True)
class OrA:
    left: "ArithFormula"
    right: "ArithFormula"


@dataclass(frozen=True, slots=True)
class AndA:
    left: "ArithFormula"
    right: "ArithFormula"


@dataclass(frozen=True, slots=True)
class Implies:
    left: "ArithFormula"
    right: "ArithFormula"


@dataclass(frozen=True, slots=True)
class Exists:
    var: str
    body: "ArithFormula"


@dataclass(frozen=True, slots=True)
class BoundedForall:
    var: str
    bound: ATerm
    body: "ArithFormula"


@dataclass(frozen=True, slots=True)
class ForallA:
    """Unbounded universal quantifier (used only for the outer statement)."""

    var: str
    body: "ArithFormula"


@dataclass(frozen=True, slots=True)
class TheoremVar:
    """The schematic sentence variable of the provability statement."""


@dataclass(frozen=True, slots=True)
class Quote:
    body: "ArithFormula"


@dataclass(frozen=True, slots=True)
class ConOf:
    """Formalized consistency of the axiom set defined by the body."""

    axioms: "ArithFormula"


@dataclass(frozen=True, slots=True)
class EqQuote:
    """u = <quoted formula>; the second disjunct of the diamond clause."""

    quote: Quote


@dataclass(frozen=True, slots=True)
class BoxOf:
    """Formalized provability from the axiom set defined by `axioms`."""

    axioms: "ArithFormula"
    target: "ArithFormula"


ArithFormula = Union[
    Tau,
    Cmp,
    TemplateAtom,
    OrA,
    AndA,
    Implies,
    Exists,
    BoundedForall,
    ForallA,
    TheoremVar,
    Quote,
    ConOf,
    EqQuote,
    BoxOf,
]


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

    def ordered_params(self) -> list[str]:
        return sorted(self.y_of.values(), key=_param_key) + sorted(
            self.z_of.values(), key=_param_key
        )


def _param_key(p: str) -> tuple[str, int]:
    return p[0], int(p[1:])


def _occurring_names(f: Formula, consts: list[str], vars_: list[str]) -> None:
    """Append the constants and the variables of f, each in order of first
    occurrence; a bound variable occurs at its binder."""
    match f:
        case Pred(_, args):
            for t in args:
                acc = consts if isinstance(t, Const) else vars_
                if t.name not in acc:
                    acc.append(t.name)
        case And(l, r):
            _occurring_names(l, consts, vars_)
            _occurring_names(r, consts, vars_)
        case Diamond(b):
            _occurring_names(b, consts, vars_)
        case Forall(x, b):
            if x not in vars_:
                vars_.append(x)
            _occurring_names(b, consts, vars_)


def param_index(formulas: Iterable[Formula], sig: Signature | None = None) -> ParamIndex:
    """Constants take y-indices by signature position when a signature is
    given (otherwise first occurrence); variables take z-indices by first
    occurrence."""
    consts: list[str] = []
    vars_: list[str] = []
    for f in formulas:
        _occurring_names(f, consts, vars_)
    if sig is not None:
        order = {c: i for i, c in enumerate(sig.constants)}
        known = sorted((c for c in consts if c in order), key=order.get)
        unknown = sorted(c for c in consts if c not in order)
        y_of = {c: f"y{order[c]}" for c in known}
        next_i = len(sig.constants)
        for c in unknown:
            y_of[c] = f"y{next_i}"
            next_i += 1
    else:
        y_of = {c: f"y{i}" for i, c in enumerate(consts)}
    z_of = {x: f"z{i}" for i, x in enumerate(vars_)}
    return ParamIndex(y_of, z_of)


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


def _term_param(t: Var | Const, idx: ParamIndex) -> str:
    if isinstance(t, Const):
        return idx.y_of[t.name]
    return idx.z_of[t.name]


def realize(f: Formula, r: Realization, idx: ParamIndex | None = None, sig: Signature | None = None) -> ArithFormula:
    """Structural translation: T to Tau; atoms to template-or-Tau; conjunction
    to disjunction of translations; diamond to Tau-or-consistency-code;
    universal object quantifiers to existential z quantifiers."""
    if idx is None:
        idx = param_index([f], sig)
    return _realize(f, r, idx)


def _realize(f: Formula, r: Realization, idx: ParamIndex) -> ArithFormula:
    match f:
        case Top():
            return Tau()
        case Pred(name, args):
            params, body = r.template_for(name, len(args))
            env = {p: _term_param(t, idx) for p, t in zip(params, args)}
            return OrA(_subst(body, env), Tau())
        case And(l, rr):
            return OrA(_realize(l, r, idx), _realize(rr, r, idx))
        case Diamond(b):
            return OrA(Tau(), EqQuote(Quote(ConOf(_realize(b, r, idx)))))
        case Forall(x, b):
            return Exists(idx.z_of[x], _realize(b, r, idx))
    raise RealizationError(f"cannot translate {f!r}")


def arith_sequent(s: Sequent, r: Realization, sig: Signature | None = None) -> ArithFormula:
    """The provability statement for a sequent: for every sentence and every
    choice of parameters, provability from the right translation's axiom set
    implies provability from the left's."""
    idx = param_index([s.lhs, s.rhs], sig)
    lhs_t = _realize(s.lhs, r, idx)
    rhs_t = _realize(s.rhs, r, idx)
    body: ArithFormula = Implies(BoxOf(rhs_t, TheoremVar()), BoxOf(lhs_t, TheoremVar()))
    for p in reversed(idx.ordered_params()):
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
            return f"{_paren_or(l)} ∨ {_paren_or(r)}"
        case AndA(l, r):
            return f"{_paren_and(l)} ∧ {_paren_and(r)}"
        case Implies(l, r):
            return f"{render(l)} → {render(r)}"
        case Exists(v, b):
            return f"∃{v} {_paren_q(b)}"
        case BoundedForall(v, bound, b):
            return f"∀{v} ≤ {render_term(bound)} {_paren_q(b)}"
        case ForallA(v, b):
            if isinstance(b, ForallA):
                return f"∀{v} {render(b)}"
            return f"∀{v} ({render(b)})"
    raise RealizationError(f"cannot render {f!r}")


def _paren_or(f: ArithFormula) -> str:
    if isinstance(f, (AndA, Implies, Exists, BoundedForall, ForallA, EqQuote)):
        return f"({render(f)})"
    return render(f)


def _paren_and(f: ArithFormula) -> str:
    if isinstance(f, (OrA, Implies, Exists, BoundedForall, ForallA, EqQuote)):
        return f"({render(f)})"
    return render(f)


def _paren_q(f: ArithFormula) -> str:
    if isinstance(f, (Tau, Cmp, TemplateAtom, TheoremVar)):
        return render(f)
    return f"({render(f)})"


def arith_to_dict(f: ArithFormula) -> dict:
    match f:
        case Tau():
            return {"node": "tau"}
        case TheoremVar():
            return {"node": "theorem-var"}
        case Cmp(op, l, r):
            return {"node": "cmp", "op": op, "left": render_term(l), "right": render_term(r)}
        case TemplateAtom(name, args):
            return {"node": "template-atom", "name": name, "args": list(args)}
        case Quote(b):
            return {"node": "quote", "body": arith_to_dict(b)}
        case ConOf(a):
            return {"node": "con", "axioms": arith_to_dict(a)}
        case EqQuote(q):
            return {"node": "eq-quote", "quote": arith_to_dict(q)}
        case BoxOf(a, t):
            return {"node": "box", "axioms": arith_to_dict(a), "target": arith_to_dict(t)}
        case OrA(l, r):
            return {"node": "or", "left": arith_to_dict(l), "right": arith_to_dict(r)}
        case AndA(l, r):
            return {"node": "and", "left": arith_to_dict(l), "right": arith_to_dict(r)}
        case Implies(l, r):
            return {"node": "implies", "left": arith_to_dict(l), "right": arith_to_dict(r)}
        case Exists(v, b):
            return {"node": "exists", "var": v, "body": arith_to_dict(b)}
        case BoundedForall(v, bound, b):
            return {"node": "bounded-forall", "var": v, "bound": render_term(bound), "body": arith_to_dict(b)}
        case ForallA(v, b):
            return {"node": "forall", "var": v, "body": arith_to_dict(b)}
    raise RealizationError(f"cannot serialize {f!r}")


# ---------------------------------------------------------------------------
# sigma-1 shape lint (warnings, never errors)


def sigma1_warnings(f: ArithFormula, prefix_ok: bool = True) -> list[str]:
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

    walk(f, prefix_ok)
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
            v = self.take()
            self.take(".")
            body, height = self.unit(self.enter(depth))
            return Exists(v, body), height + 1
        if tok == "A":
            self.take()
            v = self.take()
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
