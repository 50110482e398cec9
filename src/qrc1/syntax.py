"""Formulas, terms, signatures and the syntactic operations shared by every module.

The language is strictly positive: top, n-ary predicates over variables and
constants, conjunction, diamond, and universal quantification. Nothing else.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field
from typing import Container, Iterable, Mapping, Optional, Union


class QRCError(Exception):
    """Base class for errors raised by this package."""


class ParseError(QRCError):
    def __init__(self, message: str, position: int | None = None):
        self.position = position
        if position is not None:
            message = f"{message} (at position {position})"
        super().__init__(message)


class SignatureError(QRCError):
    pass


class SubstitutionError(QRCError):
    pass


class ClosureError(QRCError):
    pass


# ---------------------------------------------------------------------------
# terms


@dataclass(frozen=True, slots=True)
class Var:
    name: str

    def __repr__(self) -> str:
        return f"Var({self.name})"


@dataclass(frozen=True, slots=True)
class Const:
    name: str

    def __repr__(self) -> str:
        return f"Const({self.name})"


Term = Union[Var, Const]


# ---------------------------------------------------------------------------
# formulas


def _hash_once(cls):
    """Keep the dataclass's structural hash in the `_hash` field of cls.

    Proof search looks the same formulas and sequents up over and over, so
    each computes its hash once, at the first __hash__ call. A string's hash
    differs from process to process, so pickling and copying carry only the
    constructor fields, and the copy computes its own hash.
    """
    structural = cls.__hash__

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = structural(self)
            object.__setattr__(self, "_hash", h)
        return h

    def __reduce__(self):
        return cls, tuple(getattr(self, name) for name in cls.__match_args__)

    cls.__hash__ = __hash__
    cls.__reduce__ = __reduce__
    return cls


def _hash_slot():
    return field(default=None, init=False, repr=False, compare=False)


class Formula:
    __slots__ = ()

    def __and__(self, other: "Formula") -> "And":
        return And(self, other)


@dataclass(frozen=True, slots=True, repr=False)
class Top(Formula):
    def __repr__(self) -> str:
        return "Top"


@_hash_once
@dataclass(frozen=True, slots=True, repr=False)
class Pred(Formula):
    name: str
    args: tuple[Term, ...] = ()
    _hash: Optional[int] = _hash_slot()

    def __repr__(self) -> str:
        return f"Pred({self.name}, {list(self.args)})"


@_hash_once
@dataclass(frozen=True, slots=True, repr=False)
class And(Formula):
    left: Formula
    right: Formula
    _hash: Optional[int] = _hash_slot()

    def __repr__(self) -> str:
        return f"And({self.left!r}, {self.right!r})"


@_hash_once
@dataclass(frozen=True, slots=True, repr=False)
class Diamond(Formula):
    body: Formula
    _hash: Optional[int] = _hash_slot()

    def __repr__(self) -> str:
        return f"Diamond({self.body!r})"


@_hash_once
@dataclass(frozen=True, slots=True, repr=False)
class Forall(Formula):
    var: str
    body: Formula
    _hash: Optional[int] = _hash_slot()

    def __repr__(self) -> str:
        return f"Forall({self.var}, {self.body!r})"


TOP = Top()


@_hash_once
@dataclass(frozen=True, slots=True)
class Sequent:
    lhs: Formula
    rhs: Formula
    _hash: Optional[int] = _hash_slot()

    def __str__(self) -> str:
        return f"{pretty(self.lhs)} |- {pretty(self.rhs)}"


# ---------------------------------------------------------------------------
# signatures

#: names that the grammar reserves and a signature may not declare
RESERVED_NAMES = frozenset({"T", "A"})


@dataclass(frozen=True)
class Signature:
    constants: tuple[str, ...] = ()
    relations: tuple[tuple[str, int], ...] = ()

    def __post_init__(self):
        const_set = set(self.constants)
        rel_names = [name for name, _ in self.relations]
        if len(const_set) != len(self.constants):
            raise SignatureError("duplicate constant names")
        if len(set(rel_names)) != len(rel_names):
            raise SignatureError("duplicate relation names")
        clash = const_set & set(rel_names)
        if clash:
            raise SignatureError(f"names used both as constant and relation: {sorted(clash)}")
        for name in list(const_set) + rel_names:
            if name in RESERVED_NAMES:
                raise SignatureError(f"{name!r} is reserved by the grammar")
        for name, arity in self.relations:
            if arity < 0:
                raise SignatureError(f"negative arity for {name}")

    @functools.cached_property
    def arities(self) -> Mapping[str, int]:
        return dict(self.relations)

    def is_constant(self, name: str) -> bool:
        return name in self.constants

    def with_constants(self, extra: Iterable[str]) -> "Signature":
        new = [c for c in extra if c not in self.constants]
        return Signature(self.constants + tuple(new), self.relations)


# ---------------------------------------------------------------------------
# basic syntactic operations


def fresh_name(prefix: str, used: Container[str]) -> str:
    """The first of prefix0, prefix1, ... that is not in used."""
    for k in itertools.count():
        name = f"{prefix}{k}"
        if name not in used:
            return name
    raise AssertionError


@functools.lru_cache(maxsize=None)
def free_vars(f: Formula) -> frozenset[str]:
    match f:
        case Top():
            return frozenset()
        case Pred(_, args):
            return frozenset(t.name for t in args if isinstance(t, Var))
        case And(l, r):
            return free_vars(l) | free_vars(r)
        case Diamond(b):
            return free_vars(b)
        case Forall(x, b):
            return free_vars(b) - {x}
    raise TypeError(f"not a formula: {f!r}")


@functools.lru_cache(maxsize=None)
def constants_of(f: Formula) -> frozenset[str]:
    match f:
        case Top():
            return frozenset()
        case Pred(_, args):
            return frozenset(t.name for t in args if isinstance(t, Const))
        case And(l, r):
            return constants_of(l) | constants_of(r)
        case Diamond(b) | Forall(_, b):
            return constants_of(b)
    raise TypeError(f"not a formula: {f!r}")


@functools.lru_cache(maxsize=None)
def formula_size(f: Formula) -> int:
    match f:
        case Top() | Pred():
            return 1
        case And(l, r):
            return 1 + formula_size(l) + formula_size(r)
        case Diamond(b) | Forall(_, b):
            return 1 + formula_size(b)
    raise TypeError(f"not a formula: {f!r}")


def subformulas(f: Formula) -> frozenset[Formula]:
    out: set[Formula] = set()

    def walk(g: Formula) -> None:
        out.add(g)
        match g:
            case And(l, r):
                walk(l)
                walk(r)
            case Diamond(b) | Forall(_, b):
                walk(b)

    walk(f)
    return frozenset(out)


@functools.lru_cache(maxsize=None)
def mdepth(f: Formula) -> int:
    match f:
        case Top() | Pred():
            return 0
        case And(l, r):
            return max(mdepth(l), mdepth(r))
        case Forall(_, b):
            return mdepth(b)
        case Diamond(b):
            return mdepth(b) + 1
    raise TypeError(f"not a formula: {f!r}")


@functools.lru_cache(maxsize=None)
def udepth(f: Formula) -> int:
    match f:
        case Top() | Pred():
            return 0
        case And(l, r):
            return max(udepth(l), udepth(r))
        case Forall(_, b):
            return udepth(b) + 1
        case Diamond(b):
            return udepth(b)
    raise TypeError(f"not a formula: {f!r}")


def set_mdepth(gamma: Iterable[Formula]) -> int:
    # max over the empty set is 0 by convention
    return max((mdepth(f) for f in gamma), default=0)


def set_udepth(gamma: Iterable[Formula]) -> int:
    return max((udepth(f) for f in gamma), default=0)


def free_for(t: Term, x: str, f: Formula) -> bool:
    """True iff substituting t for free x in f captures no variable of t."""
    if isinstance(t, Const):
        return True
    y = t.name
    if y == x:
        return True

    def ok(g: Formula, bound: frozenset[str]) -> bool:
        match g:
            case Top():
                return True
            case Pred(_, args):
                # a free occurrence of x here would put y under the binders
                if any(isinstance(a, Var) and a.name == x for a in args):
                    return y not in bound
                return True
            case And(l, r):
                return ok(l, bound) and ok(r, bound)
            case Diamond(b):
                return ok(b, bound)
            case Forall(z, b):
                if z == x:
                    return True
                return ok(b, bound | {z})
        raise TypeError(f"not a formula: {g!r}")

    return ok(f, frozenset())


def substitute(f: Formula, x: str, t: Term) -> Formula:
    """f with every free occurrence of x replaced by t.

    Refuses to capture: raises SubstitutionError when t is not free for x.
    """
    if not free_for(t, x, f):
        raise SubstitutionError(
            f"{term_str(t)} is not free for {x} in {pretty(f)}"
        )
    return _subst(f, x, t)


def _subst(f: Formula, x: str, t: Term) -> Formula:
    match f:
        case Top():
            return f
        case Pred(name, args):
            if any(isinstance(a, Var) and a.name == x for a in args):
                return Pred(name, tuple(t if isinstance(a, Var) and a.name == x else a for a in args))
            return f
        case And(l, r):
            return And(_subst(l, x, t), _subst(r, x, t))
        case Diamond(b):
            return Diamond(_subst(b, x, t))
        case Forall(z, b):
            if z == x:
                return f
            return Forall(z, _subst(b, x, t))
    raise TypeError(f"not a formula: {f!r}")


def substitute_sequent(s: Sequent, x: str, t: Term) -> Sequent:
    return Sequent(substitute(s.lhs, x, t), substitute(s.rhs, x, t))


# ---------------------------------------------------------------------------
# closure


def closure(gamma: Iterable[Formula], constants: Iterable[str]) -> frozenset[Formula]:
    """Least set containing gamma, closed under subformulas with universals
    unfolded by every constant in `constants`."""
    cs = tuple(dict.fromkeys(constants))
    out: set[Formula] = set()

    def close(f: Formula) -> None:
        if f in out:
            return
        out.add(f)
        match f:
            case Top():
                pass
            case Pred():
                out.add(TOP)
            case And(l, r):
                close(l)
                close(r)
            case Diamond(b):
                close(b)
            case Forall(x, b):
                if not cs:
                    raise ClosureError(
                        "closure of a universally quantified formula needs at "
                        "least one constant"
                    )
                for c in cs:
                    close(substitute(b, x, Const(c)))
    for f in gamma:
        close(f)
    return frozenset(out)


# ---------------------------------------------------------------------------
# canonical order


@functools.lru_cache(maxsize=None)
def sort_key(f: Formula) -> tuple:
    """Total order on formulas: size, then constructor tag, then names."""
    return (formula_size(f), _tag_key(f))


@functools.lru_cache(maxsize=None)
def _tag_key(f: Formula) -> tuple:
    match f:
        case Top():
            return (0,)
        case Pred(name, args):
            return (1, name, tuple((isinstance(a, Const), a.name) for a in args))
        case And(l, r):
            return (2, _tag_key(l), _tag_key(r))
        case Diamond(b):
            return (3, _tag_key(b))
        case Forall(x, b):
            return (4, x, _tag_key(b))
    raise TypeError(f"not a formula: {f!r}")


def sorted_formulas(gamma: Iterable[Formula]) -> list[Formula]:
    return sorted(gamma, key=sort_key)


# ---------------------------------------------------------------------------
# pretty-printing


def term_str(t: Term) -> str:
    return t.name


def pretty(f: Formula) -> str:
    match f:
        case Top():
            return "T"
        case Pred(name, args):
            if not args:
                return name
            return f"{name}({','.join(term_str(a) for a in args)})"
        case And(l, r):
            ls = pretty(l)
            # a quantifier extends to the right, so one that ends the left
            # operand must be closed off before the &
            if isinstance(l, Forall) or (isinstance(l, And) and isinstance(l.right, Forall)):
                ls = f"({ls})"
            rs = pretty(r)
            if isinstance(r, And):
                rs = f"({rs})"
            return f"{ls} & {rs}"
        case Diamond(b):
            bs = pretty(b)
            if isinstance(b, (And, Forall)):
                bs = f"({bs})"
            return f"<>{bs}"
        case Forall(x, b):
            return f"A {x} . {pretty(b)}"
    raise TypeError(f"not a formula: {f!r}")


def pretty_sequent(s: Sequent) -> str:
    return f"{pretty(s.lhs)} |- {pretty(s.rhs)}"


# ---------------------------------------------------------------------------
# parsing


_PAIR_SYMBOLS = frozenset({"|-", "<>"})
_SINGLE_SYMBOLS = frozenset("(),.;:/&")


@dataclass
class _Token:
    kind: str  # "ident" | symbol text
    text: str
    pos: int


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        pair = text[i:i + 2]
        if pair in _PAIR_SYMBOLS:
            tokens.append(_Token(pair, pair, i))
            i += 2
        elif ch in _SINGLE_SYMBOLS:
            tokens.append(_Token(ch, ch, i))
            i += 1
        elif ch.isalnum() or ch in "_#@!":
            j = i
            while j < n and (text[j].isalnum() or text[j] in "_#@!"):
                j += 1
            tokens.append(_Token("ident", text[i:j], i))
            i = j
        else:
            raise ParseError(f"unexpected character {ch!r}", i)
    tokens.append(_Token("eof", "", n))
    return tokens


#: The deepest formula the parser accepts, counting <>, A and & on every
#: path from the top. Operations on formulas recurse on their structure, and
#: a formula this deep stays well inside Python's recursion limit; deeper ones
#: raise ParseError instead of RecursionError.
MAX_NESTING = 100

# Parentheses do not count towards MAX_NESTING, since pretty adds some that
# the input did not need, at most one around each subformula. The parser
# itself recurses on <>, A and (, so it stops once more than twice
# MAX_NESTING of them are open at once: pretty's text of a formula within
# MAX_NESTING never is.
_MAX_OPEN = 2 * MAX_NESTING


def _too_deep(tok: _Token, what: str) -> ParseError:
    return ParseError(f"formula nested more than {what} deep", tok.pos)


class _Parser:
    """Recursive descent; each parse_* method takes the number of <>, A and (
    open around the current token, and returns a formula and its height, the
    number of <>, A and & on its deepest path."""

    def __init__(self, text: str, sig: Signature):
        self.tokens = _tokenize(text)
        self.sig = sig
        self.i = 0

    @property
    def cur(self) -> _Token:
        return self.tokens[self.i]

    def advance(self) -> _Token:
        tok = self.cur
        self.i += 1
        return tok

    def expect(self, kind: str) -> _Token:
        if self.cur.kind != kind:
            raise ParseError(f"expected {kind!r}, found {self.cur.text!r}", self.cur.pos)
        return self.advance()

    def formula(self) -> Formula:
        tok = self.cur
        f, height = self.parse_formula(0)
        if height > MAX_NESTING:
            raise _too_deep(tok, f"{MAX_NESTING} levels")
        return f

    def enter(self, tok: _Token, depth: int) -> int:
        # checked on the way down, so that the recursion stops in time
        if depth == _MAX_OPEN:
            raise _too_deep(tok, f"{_MAX_OPEN} levels, counting parentheses,")
        return depth + 1

    def parse_formula(self, depth: int) -> tuple[Formula, int]:
        left, height = self.parse_unary(depth)
        while self.cur.kind == "&":
            self.advance()
            right, right_height = self.parse_unary(depth)
            left, height = And(left, right), 1 + max(height, right_height)
        return left, height

    def parse_unary(self, depth: int) -> tuple[Formula, int]:
        tok = self.cur
        if tok.kind == "<>":
            self.advance()
            body, height = self.parse_unary(self.enter(tok, depth))
            return Diamond(body), height + 1
        if tok.kind == "ident" and tok.text == "A":
            self.advance()
            var = self.expect("ident")
            if self.sig.is_constant(var.text):
                raise ParseError(
                    f"declared constant {var.text!r} used as bound variable", var.pos
                )
            self.expect(".")
            # the quantifier extends maximally to the right
            body, height = self.parse_formula(self.enter(tok, depth))
            return Forall(var.text, body), height + 1
        return self.parse_atom(depth)

    def parse_atom(self, depth: int) -> tuple[Formula, int]:
        tok = self.cur
        if tok.kind == "(":
            self.advance()
            f = self.parse_formula(self.enter(tok, depth))
            self.expect(")")
            return f
        if tok.kind == "ident":
            if tok.text == "T":
                self.advance()
                return TOP, 0
            self.advance()
            if self.cur.kind == "(":
                self.advance()
                args = [self.parse_term()]
                while self.cur.kind == ",":
                    self.advance()
                    args.append(self.parse_term())
                self.expect(")")
                return self._mk_pred(tok, tuple(args)), 0
            # bare identifier in formula position: only a 0-ary relation fits
            return self._mk_pred(tok, ()), 0
        raise ParseError(f"expected a formula, found {tok.text!r}", tok.pos)

    def _mk_pred(self, tok: _Token, args: tuple[Term, ...]) -> Pred:
        arity = self.sig.arities.get(tok.text)
        if arity is None:
            raise ParseError(f"undeclared relation {tok.text!r}", tok.pos)
        if arity != len(args):
            raise ParseError(
                f"relation {tok.text!r} has arity {arity}, got {len(args)} arguments",
                tok.pos,
            )
        return Pred(tok.text, args)

    def parse_term(self) -> Term:
        tok = self.expect("ident")
        if tok.text in self.sig.arities:
            raise ParseError(f"relation {tok.text!r} used in term position", tok.pos)
        if tok.text in RESERVED_NAMES:
            raise ParseError(f"{tok.text!r} is reserved", tok.pos)
        if self.sig.is_constant(tok.text):
            return Const(tok.text)
        return Var(tok.text)

    def parse_sequent(self) -> Sequent:
        lhs = self.formula()
        self.expect("|-")
        rhs = self.formula()
        return Sequent(lhs, rhs)

    def done(self) -> None:
        if self.cur.kind != "eof":
            raise ParseError(f"trailing input {self.cur.text!r}", self.cur.pos)


def parse_formula(text: str, sig: Signature) -> Formula:
    p = _Parser(text, sig)
    f = p.formula()
    p.done()
    return f


def parse_sequent(text: str, sig: Signature) -> Sequent:
    p = _Parser(text, sig)
    s = p.parse_sequent()
    p.done()
    return s


def parse_signature(text: str) -> Signature:
    """Parse a header like ``sig: constants c0 c1; relations S/1 R/2;``."""
    body = text.strip()
    if body.startswith("sig:"):
        body = body[len("sig:"):]
    constants: list[str] = []
    relations: list[tuple[str, int]] = []
    for part in body.split(";"):
        part = part.strip()
        if not part:
            continue
        words = part.split()
        if words[0] == "constants":
            constants.extend(words[1:])
        elif words[0] == "relations":
            for decl in words[1:]:
                if "/" not in decl:
                    raise ParseError(f"relation declaration {decl!r} lacks '/arity'")
                name, _, ar = decl.partition("/")
                try:
                    arity = int(ar)
                except ValueError:
                    raise ParseError(f"bad arity in {decl!r}") from None
                relations.append((name, arity))
        else:
            raise ParseError(f"unknown signature section {words[0]!r}")
    return Signature(tuple(constants), tuple(relations))


def parse_sequent_file(text: str, sig: Signature | None = None) -> tuple[Signature, list[Sequent]]:
    """A sequent file: optional ``sig:`` header line, then one sequent per line.

    Blank lines and lines starting with ``#`` are skipped.
    """
    lines = text.splitlines()
    sequents: list[Sequent] = []
    for lineno, line in enumerate(lines, start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if stripped.startswith("sig:"):
            if sig is not None and sequents:
                raise ParseError(f"line {lineno}: signature header after sequents")
            sig = parse_signature(stripped)
            continue
        if sig is None:
            raise ParseError(f"line {lineno}: no signature declared")
        try:
            sequents.append(parse_sequent(stripped, sig))
        except ParseError as e:
            raise ParseError(f"line {lineno}: {e}") from None
    if sig is None:
        raise ParseError("no signature declared")
    return sig, sequents


def signature_str(sig: Signature) -> str:
    parts = []
    if sig.constants:
        parts.append("constants " + " ".join(sig.constants))
    if sig.relations:
        parts.append("relations " + " ".join(f"{n}/{a}" for n, a in sig.relations))
    return "sig: " + "; ".join(parts) + ";"
