"""Pairs, Lindenbaum saturation, pair existence, and term-model construction.

Derivability from a left-hand side is answered by `oracle`: T, members of the
left-hand side and conjunctions by the rules of the calculus, and every other
formula by decider.entails, which takes decide's steps for decide's status.
So an oracle answer has no checked certificate behind it; the term model
built from the answers is checked instead, by `truth_lemma_check` and
adequacy. This module never consults the model it is building. The oracle
for one left-hand side is built once (its conjunction and answers) and then
asked about each formula of a closure. Its queries repeat across oracles,
and the answers are kept in one process-wide memo, keyed by the query's
two sides, the signature and the fact cap; the query Sequent is built only
for entails, on a miss. A term model counts its oracle's answers by source
in a plain dict of "rule", "memo" and "model".

The closures the construction saturates over, and the modal and universal
depth measures, are defined here too; `qrc1 closure` prints them.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field
from typing import Callable, Iterable

from . import canonical
from .canonical import fresh_names

# decide and forces are not called here, but perfbench/tracing.py patches
# termmodel.decide and termmodel.forces; the names stay until the tracer is
# retargeted (ROADMAP item 2)
from .decider import decide, entails, ground, names_of  # noqa: F401
from .generate import transitive_closure
from .semantics import Model, WeighedMemo, default_assignment, forces, forces_each  # noqa: F401
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
    TOP,
    Top,
    constants_of,
    free_vars,
    pretty,
    sorted_formulas,
    substitute,
)


class OracleUndecidedError(QRCError):
    """entails left a query undecided, as decide would; the construction
    cannot proceed."""


class PairError(QRCError):
    pass


@dataclass(frozen=True)
class PairPM:
    """A <positive, negative> pair of closed formulas plus a constant snapshot.
    In a term model each world is a saturated pair, and its constants are the
    world's domain."""

    pos: frozenset[Formula]
    neg: frozenset[Formula]
    constants: tuple[str, ...] = ()

    def formulas(self) -> frozenset[Formula]:
        return self.pos | self.neg


def _check_closed(formulas: Iterable[Formula]) -> None:
    for f in formulas:
        if free_vars(f):
            raise PairError(f"pair formulas must be closed; {pretty(f)} is not")


def conjunction(gamma: Iterable[Formula]) -> Formula:
    """Left-associated conjunction in canonical order; T for the empty set."""
    ordered = sorted_formulas(gamma)
    if not ordered:
        return TOP
    out = ordered[0]
    for f in ordered[1:]:
        out = And(out, f)
    return out


# ---------------------------------------------------------------------------
# closures and depth measures


class ClosureError(QRCError):
    pass


def closure(gamma: Iterable[Formula], constants: Iterable[str]) -> frozenset[Formula]:
    """Least set containing gamma, closed under subformulas with universals
    unfolded by every constant in `constants`.

    It is the union of the closures of gamma's members. Each formula's
    closure is kept for the life of the process, as a tuple (a fifth of the
    memory of a frozenset), by node and constants (in order, duplicates
    dropped), as free_vars and constants_of are kept: nodes are hash-consed,
    so a node is its own key. A member already in the union adds nothing,
    since the union of closed sets is closed."""
    cs = tuple(dict.fromkeys(constants))
    out: set[Formula] = set()
    for f in gamma:
        if f not in out:
            out.update(_closure(f, cs))
    return frozenset(out)


@functools.lru_cache(maxsize=None)
def _closure(f: Formula, cs: tuple[str, ...]) -> tuple[Formula, ...]:
    match f:
        case Top():
            return (f,)
        case Pred():
            return (f, TOP)
        case And(l, r):
            parts = (_closure(l, cs), _closure(r, cs))
        case Diamond(b):
            return (f, *_closure(b, cs))
        case Forall(x, b):
            if not cs:
                raise ClosureError(
                    "closure of a universally quantified formula needs at "
                    "least one constant"
                )
            parts = tuple(_closure(substitute(b, x, Const(c)), cs) for c in cs)
        case _:
            raise TypeError(f"not a formula: {f!r}")
    return (f, *dict.fromkeys(itertools.chain.from_iterable(parts)))


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


# (left-hand side, right-hand side, signature, fact cap) -> True, False, or
# None for undecided. entails is a pure function of these, so an answer never
# goes stale. Each answer weighs 1, so the memo is emptied when it would pass
# _MEMO_MAX.
_MEMO = WeighedMemo()
_MEMO_MAX = 100_000


def oracle(
    gamma: Iterable[Formula],
    sig: Signature,
    tally: dict[str, int] | None = None,
) -> Callable[[Formula], bool]:
    """Derivability from the conjunction of gamma, asked one formula at a time.

    The calculus settles three cases without search: T is entailed (TopI), a
    member of gamma is entailed (Id, then AndE out of the conjunction), and
    A & B is entailed exactly when A and B both are (AndI one way, AndE and
    Cut the other). Every other formula is a query, answered from the memo
    or by entails, which gives decide's status. Answers are kept, so a
    conjunction asks about each conjunct once. A conjunction with an
    undecided conjunct and no refuted one is itself a query. `tally` counts
    the answers by source in its keys "rule", "memo" and "model" (entails);
    a Counter will do."""
    gamma = frozenset(gamma)
    lhs = conjunction(gamma)
    tally = {"rule": 0, "memo": 0, "model": 0} if tally is None else tally
    truths = gamma | {TOP}
    answers: dict[Formula, bool | None] = {}

    def ask(f: Formula) -> bool | None:
        key = (lhs, f, sig, canonical.CANONICAL_FACT_CAP)
        a = _MEMO.get(key, _MEMO)  # the memo itself marks a miss
        if a is not _MEMO:
            tally["memo"] += 1
            return a
        tally["model"] += 1
        a = entails(Sequent(lhs, f), sig)
        _MEMO.keep(key, a, 1, _MEMO_MAX)
        return a

    def answer(f: Formula) -> bool | None:
        if f not in answers:
            a = True if f in truths else None
            if a is None and isinstance(f, And):
                left = answer(f.left)
                right = None if left is False else answer(f.right)
                if left is False or right is False:
                    a = False
                elif left and right:
                    a = True
            if a is None:
                a = ask(f)
            else:
                tally["rule"] += 1
            answers[f] = a
        return answers[f]

    def entailed(f: Formula) -> bool:
        a = answer(f)
        if a is None:
            raise OracleUndecidedError(f"oracle undecided on {Sequent(lhs, f)}")
        return a

    return entailed


def is_consistent(p: PairPM, sig: Signature, tally: dict[str, int] | None = None) -> bool:
    entailed = oracle(p.pos, sig, tally)
    return all(not entailed(delta) for delta in sorted_formulas(p.neg))


def lindenbaum(
    p: PairPM,
    phi_set: Iterable[Formula],
    sig: Signature,
    fresh_prefix: str = "n",
    tally: dict[str, int] | None = None,
) -> PairPM:
    """Extend p to a maximal consistent, fully witnessed pair over the closure
    of phi_set under p's constants plus udepth-many witnesses (one when p has
    no constants, so that the domain is never empty). The witnesses are the
    first names fresh_prefix0, fresh_prefix1, ... that are neither p's nor
    sig's constants. A pair whose positive side entails a member of its
    negative side in that closure is inconsistent and raises PairError.

    The modal depth of the positive part is preserved exactly.
    """
    phi_set = list(phi_set)
    _check_closed(phi_set)
    _check_closed(p.formulas())
    constants = tuple(dict.fromkeys(p.constants))
    witnesses = fresh_names(fresh_prefix, {*constants, *sig.constants})
    count = max(set_udepth(phi_set), 0 if constants else 1)
    d_constants = constants + tuple(itertools.islice(witnesses, count))
    pos = set(p.pos)
    neg = set(p.neg)
    entailed = oracle(p.pos, sig, tally)
    for f in sorted_formulas(closure(phi_set, d_constants)):
        if not entailed(f):
            neg.add(f)
        elif f in p.neg:
            raise PairError(f"inconsistent pair: its positive side entails {pretty(f)}")
        else:
            pos.add(f)
    return PairPM(frozenset(pos), frozenset(neg), d_constants)


def pair_existence(
    p: PairPM,
    dphi: Formula,
    sig: Signature,
    fresh_prefix: str = "n",
    tally: dict[str, int] | None = None,
) -> PairPM:
    """Build a successor pair for a positive diamond formula of a saturated
    pair p.

    Seeds <{phi}, {delta, <>delta | <>delta in p-} + {<>phi}> over p's
    constants and saturates. The result q is accessible from p: q has every
    <>delta of p's negative side and its delta on its own negative side, and
    some <>psi of p's positive side (here <>phi) on its negative side. It has
    phi positive, and strictly smaller modal depth on the positive side.
    """
    if not isinstance(dphi, Diamond) or dphi not in p.pos:
        raise PairError(f"{pretty(dphi)} is not a positive diamond formula of the pair")
    seed_neg: set[Formula] = {dphi}
    for f in p.neg:
        if isinstance(f, Diamond):
            seed_neg.add(f)
            seed_neg.add(f.body)
    seed = PairPM(frozenset({dphi.body}), frozenset(seed_neg), p.constants)
    return lindenbaum(seed, sorted_formulas(p.formulas()), sig, fresh_prefix, tally)


# ---------------------------------------------------------------------------
# the model M[p]


@dataclass(frozen=True)
class TermModelResult:
    model: Model
    worlds: tuple[PairPM, ...]  # indexed by model world id; the root is 0
    # the oracle's answers while building, by source: "rule", "memo", "model"
    oracle_answers: dict[str, int] = field(default_factory=dict, compare=False)

    def annotations(self) -> list[dict]:
        return [
            {
                "world": i,
                "positive": [pretty(f) for f in sorted_formulas(w.pos)],
                "negative": [pretty(f) for f in sorted_formulas(w.neg)],
            }
            for i, w in enumerate(self.worlds)
        ]


def _ground_pair(p: PairPM, sig: Signature) -> PairPM:
    """p with each free variable grounded by decider.ground, past every name
    of p and sig, by a constant that joins p's constants; p itself when it
    has no free variable."""
    pos, neg = list(p.pos), list(p.neg)
    if not any(map(free_vars, pos + neg)):
        return p
    used = {*p.constants, *sig.constants}.union(*map(names_of, pos + neg))
    grounded, pairs = ground(pos + neg, used)
    return PairPM(frozenset(grounded[:len(pos)]), frozenset(grounded[len(pos):]),
                  tuple(dict.fromkeys(p.constants + tuple(c for _, c in pairs))))


# the ignored config is passed by perfbench/tracing.py (ROADMAP item 2)
def build_term_model(p: PairPM, sig: Signature, config=None) -> TermModelResult:
    """The completeness construction: the root saturates p (an inconsistent
    p raises PairError), each world gets one child per positive diamond
    formula, breadth first, and the frame is the transitive closure of the
    tree. World i names its witnesses w{i}_c0, w{i}_c1, ..."""
    p = _ground_pair(p, sig)
    formula_constants = set().union(*(constants_of(f) for f in p.formulas()))
    constants = tuple(dict.fromkeys(p.constants + tuple(sorted(formula_constants))))
    phi_set = sorted_formulas(p.formulas())
    tally = {"rule": 0, "memo": 0, "model": 0}
    worlds = [lindenbaum(PairPM(p.pos, p.neg, constants), phi_set, sig, "w0_c", tally)]
    edges: list[tuple[int, int]] = []
    for wi, world in enumerate(worlds):  # worlds grows as the loop runs
        for dphi in sorted_formulas([f for f in world.pos if type(f) is Diamond]):
            edges.append((wi, len(worlds)))
            worlds.append(pair_existence(world, dphi, sig, f"w{len(worlds)}_c", tally))

    model = Model(
        worlds=tuple(range(len(worlds))),
        R=transitive_closure(edges),
        domain={i: frozenset(w.constants) for i, w in enumerate(worlds)},
        constI={i: {c: c for c in w.constants} for i, w in enumerate(worlds)},
        relJ={i: _atoms_of(w) for i, w in enumerate(worlds)},
    )
    return TermModelResult(model, tuple(worlds), tally)


def _atoms_of(p: PairPM) -> dict[str, frozenset[tuple[str, ...]]]:
    out: dict[str, set[tuple[str, ...]]] = {}
    for f in p.pos:
        if isinstance(f, Pred):
            out.setdefault(f.name, set()).add(tuple(t.name for t in f.args))
    return {s: frozenset(ts) for s, ts in out.items()}


# ---------------------------------------------------------------------------
# truth-lemma self-check


@dataclass(frozen=True)
class TruthLemmaReport:
    checked: int
    violations: tuple[tuple[int, str, str], ...]  # (world, formula, direction)

    @property
    def ok(self) -> bool:
        return not self.violations


def truth_lemma_check(result: TermModelResult, p: PairPM, sig: Signature) -> TruthLemmaReport:
    """Forcing at each world must coincide with positive membership for every
    formula in that world's closure: the closure of the grounded input pair
    under the world's constants. Forcing reads only result.model, never the
    pairs, which give membership alone. A world's closure is forced under one
    setup, and the violations are listed by world, then in sort_key's order.
    The closures come from closure, whose memo is kept for the life of the
    process."""
    phi_set = _ground_pair(p, sig).formulas()
    checked = 0
    violations: list[tuple[int, str, str]] = []
    m = result.model
    for i, w in enumerate(result.worlds):
        fs = closure(phi_set, w.constants)
        checked += len(fs)
        wrong = [f for f, forced in zip(fs, forces_each(m, i, default_assignment(m, i), fs))
                 if forced != (f in w.pos)]
        for f in sorted_formulas(wrong):
            violations.append((i, pretty(f), "positive-but-unforced" if f in w.pos else "forced-but-negative"))
    return TruthLemmaReport(checked, tuple(violations))
