"""Formulas, terms, signatures and the syntactic operations shared by every module.

The language is strictly positive: top, n-ary predicates over variables and
constants, conjunction, diamond, and universal quantification. Nothing else.

Terms, formulas and sequents are hash-consed: equal ones are one object, so
equality is identity and hashing is by id. A set of them iterates in memory
order, so code whose output depends on the order sorts first (sorted_formulas).
"""

from __future__ import annotations

import functools
import itertools
import re
from dataclasses import dataclass
from typing import Callable, Container, Iterable, Iterator, Mapping, TypeVar, Union


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
# terms and formulas

#: every node built, keyed by its class and fields; it lives as long as the process
_TABLE: dict[tuple, "_Node"] = {}


class _Node:
    """A hash-consed node: building one whose class and fields equal an
    existing node's returns that node. So equal nodes are one object, and
    __eq__ and __hash__ are object's, by identity."""

    __slots__ = ()
    __match_args__: tuple[str, ...] = ()

    def __new__(cls, *fields):
        key = (cls, *fields)
        node = _TABLE.get(key)
        if node is None:
            if len(fields) != len(cls.__match_args__):
                raise TypeError(f"{cls.__name__} takes the fields {cls.__match_args__}")
            node = object.__new__(cls)
            for name, value in zip(cls.__match_args__, fields):
                object.__setattr__(node, name, value)
            # setdefault, so that two threads building one node keep one copy
            node = _TABLE.setdefault(key, node)
        return node

    def __setattr__(self, *_):
        raise AttributeError(f"{type(self).__name__} is immutable")

    __delattr__ = __setattr__

    def __reduce__(self):
        # unpickling builds through the constructor, so the copy is interned
        return type(self), tuple(getattr(self, name) for name in self.__match_args__)

    def __deepcopy__(self, memo=None):
        return self

    __copy__ = __deepcopy__


class Var(_Node):
    __slots__ = __match_args__ = ("name",)

    def __repr__(self) -> str:
        return f"Var({self.name})"


class Const(_Node):
    __slots__ = __match_args__ = ("name",)

    def __repr__(self) -> str:
        return f"Const({self.name})"


Term = Union[Var, Const]


class Formula(_Node):
    __slots__ = ()


class Top(Formula):
    def __repr__(self) -> str:
        return "Top"


class Pred(Formula):
    __slots__ = __match_args__ = ("name", "args")

    def __new__(cls, name: str, args: Iterable[Term] = ()):
        return super().__new__(cls, name, tuple(args))

    def __repr__(self) -> str:
        return f"Pred({self.name}, {list(self.args)})"


class And(Formula):
    __slots__ = __match_args__ = ("left", "right")

    def __repr__(self) -> str:
        return f"And({self.left!r}, {self.right!r})"


class Diamond(Formula):
    __slots__ = __match_args__ = ("body",)

    def __repr__(self) -> str:
        return f"Diamond({self.body!r})"


class Forall(Formula):
    __slots__ = __match_args__ = ("var", "body")

    def __repr__(self) -> str:
        return f"Forall({self.var}, {self.body!r})"


TOP = Top()


class Sequent(_Node):
    __slots__ = __match_args__ = ("lhs", "rhs")

    def __repr__(self) -> str:
        return f"Sequent(lhs={self.lhs!r}, rhs={self.rhs!r})"

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

    @functools.cached_property
    def constant_names(self) -> frozenset[str]:
        return frozenset(self.constants)

    def with_constants(self, extra: Iterable[str]) -> "Signature":
        new = [c for c in extra if c not in self.constants]
        return Signature(self.constants + tuple(new), self.relations) if new else self


# ---------------------------------------------------------------------------
# basic syntactic operations


def fresh_names(prefix: str, used: Container[str]) -> Iterator[str]:
    """prefix0, prefix1, ... in order, skipping the names in used. Every name
    the decider and the term model invent comes from here."""
    for k in itertools.count():
        name = f"{prefix}{k}"
        if name not in used:
            yield name


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
def names_of(f: Formula) -> frozenset[str]:
    """Every constant and variable name of f, free or bound."""
    match f:
        case Top():
            return frozenset()
        case Pred(_, args):
            return frozenset(t.name for t in args)
        case And(l, r):
            return names_of(l) | names_of(r)
        case Diamond(b):
            return names_of(b)
        case Forall(x, b):
            return names_of(b) | {x}
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
                return Pred(name, (t if isinstance(a, Var) and a.name == x else a for a in args))
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


# A token is an identifier, a run of letters, digits, _, #, @ and !, or one of
# the symbols |- <> ( ) , . ; : / &, and whitespace separates tokens. The
# lexer hands the parser the tokens' strings, then "" for the end of input.
_SYMBOLS = frozenset({"|-", "<>", "(", ")", ",", ".", ";", ":", "/", "&"})
_TOKEN = re.compile(r"\|-|<>|[(),.;:/&]|[\w#@!]+")
# one character or two-character symbol per repetition, so that the match
# ends, without backtracking, at the first character that starts no token;
# on str patterns \s is str.isspace, and \w is str.isalnum or _
_LEXABLE = re.compile(r"(?:\s|[\w#@!(),.;:/&]|\|-|<>)*")


def _tokenize(text: str) -> list[str]:
    bad = _LEXABLE.match(text).end()
    if bad < len(text):
        raise ParseError(f"unexpected character {text[bad]!r}", bad)
    tokens = _TOKEN.findall(text)
    tokens.append("")
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


class _Parser:
    """Recursive descent over the token strings, self.i indexing the current
    one; each parse_* method takes the number of <>, A and ( open around the
    current token, and returns a formula and its height, the number of <>, A
    and & on its deepest path."""

    def __init__(self, text: str, sig: Signature):
        self.text = text
        self.tokens = _tokenize(text)
        self.constants = sig.constant_names
        self.arities = sig.arities
        self.i = 0

    def error(self, message: str, i: int | None = None) -> ParseError:
        """message at the offset of token i, by default the current one; the
        offsets are found again only here, on the way out."""
        i = self.i if i is None else i
        if i == len(self.tokens) - 1:
            return ParseError(message, len(self.text))
        match = next(itertools.islice(_TOKEN.finditer(self.text), i, None))
        return ParseError(message, match.start())

    def expect(self, symbol: str) -> None:
        tok = self.tokens[self.i]
        if tok != symbol:
            raise self.error(f"expected {symbol!r}, found {tok!r}")
        self.i += 1

    def ident(self) -> str:
        tok = self.tokens[self.i]
        if not tok or tok in _SYMBOLS:
            raise self.error(f"expected 'ident', found {tok!r}")
        self.i += 1
        return tok

    def formula(self) -> Formula:
        start = self.i
        f, height = self.parse_formula(0)
        if height > MAX_NESTING:
            raise self.error(f"formula nested more than {MAX_NESTING} levels deep", start)
        return f

    def enter(self, i: int, depth: int) -> int:
        # checked on the way down, so that the recursion stops in time
        if depth == _MAX_OPEN:
            raise self.error(
                f"formula nested more than {_MAX_OPEN} levels, counting parentheses, deep", i
            )
        return depth + 1

    def parse_formula(self, depth: int) -> tuple[Formula, int]:
        left, height = self.parse_unary(depth)
        while self.tokens[self.i] == "&":
            self.i += 1
            right, right_height = self.parse_unary(depth)
            left, height = And(left, right), 1 + max(height, right_height)
        return left, height

    def parse_unary(self, depth: int) -> tuple[Formula, int]:
        i = self.i
        tok = self.tokens[i]
        if tok == "<>":
            self.i += 1
            body, height = self.parse_unary(self.enter(i, depth))
            return Diamond(body), height + 1
        if tok == "A":
            self.i += 1
            var = self.ident()
            if var in self.constants:
                raise self.error(f"declared constant {var!r} used as bound variable", self.i - 1)
            self.expect(".")
            # the quantifier extends maximally to the right
            body, height = self.parse_formula(self.enter(i, depth))
            return Forall(var, body), height + 1
        return self.parse_atom(depth)

    def parse_atom(self, depth: int) -> tuple[Formula, int]:
        i = self.i
        tok = self.tokens[i]
        if tok == "(":
            self.i += 1
            f = self.parse_formula(self.enter(i, depth))
            self.expect(")")
            return f
        if not tok or tok in _SYMBOLS:
            raise self.error(f"expected a formula, found {tok!r}")
        self.i += 1
        if tok == "T":
            return TOP, 0
        args: tuple[Term, ...] = ()
        if self.tokens[self.i] == "(":
            self.i += 1
            terms = [self.parse_term()]
            while self.tokens[self.i] == ",":
                self.i += 1
                terms.append(self.parse_term())
            self.expect(")")
            args = tuple(terms)
        # bare identifier in formula position: only a 0-ary relation fits
        arity = self.arities.get(tok)
        if arity is None:
            raise self.error(f"undeclared relation {tok!r}", i)
        if arity != len(args):
            raise self.error(f"relation {tok!r} has arity {arity}, got {len(args)} arguments", i)
        return Pred(tok, args), 0

    def parse_term(self) -> Term:
        name = self.ident()
        if name in self.arities:
            raise self.error(f"relation {name!r} used in term position", self.i - 1)
        if name in RESERVED_NAMES:
            raise self.error(f"{name!r} is reserved", self.i - 1)
        if name in self.constants:
            return Const(name)
        return Var(name)

    def parse_sequent(self) -> Sequent:
        lhs = self.formula()
        self.expect("|-")
        rhs = self.formula()
        return Sequent(lhs, rhs)

    def done(self) -> None:
        tok = self.tokens[self.i]
        if tok:
            raise self.error(f"trailing input {tok!r}")


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


_Item = TypeVar("_Item")


def read_signed_file(
    text: str, sig: Signature | None, parse_item: Callable[[str, Signature], _Item]
) -> tuple[Signature, list[_Item]]:
    """A file of one item per line, parsed by parse_item, under an optional
    ``sig:`` header that must come before the first item.

    Blank lines and lines starting with ``#`` are skipped, and each error
    names its line. A given sig that differs from the header is an error;
    with neither, the signature is empty.
    """
    lines = [(n, line.strip()) for n, line in enumerate(text.splitlines(), start=1)]
    lines = [(n, line) for n, line in lines if line and not line.startswith("#")]
    if lines and lines[0][1].startswith("sig:"):
        lineno, line = lines.pop(0)
        try:
            header = parse_signature(line)
        except ParseError as e:
            raise ParseError(f"line {lineno}: {e}") from None
        if sig is not None and sig != header:
            raise ParseError(
                f"the given signature {signature_str(sig)!r} differs from "
                f"the file's header {signature_str(header)!r}"
            )
        sig = header
    for lineno, line in lines:  # first, so that no item's parse error hides a late header
        if line.startswith("sig:"):
            raise ParseError(f"line {lineno}: a sig: header must come before the first item")
    sig = sig or Signature()
    items: list[_Item] = []
    for lineno, line in lines:
        try:
            items.append(parse_item(line, sig))
        except ParseError as e:
            raise ParseError(f"line {lineno}: {e}") from None
    return sig, items


def parse_sequent_file(text: str, sig: Signature | None = None) -> tuple[Signature, list[Sequent]]:
    """A sequent file: one sequent per line, read by read_signed_file."""
    return read_signed_file(text, sig, parse_sequent)


def signature_str(sig: Signature) -> str:
    parts = []
    if sig.constants:
        parts.append("constants " + " ".join(sig.constants))
    if sig.relations:
        parts.append("relations " + " ".join(f"{n}/{a}" for n, a in sig.relations))
    return "sig: " + "; ".join(parts) + ";"
