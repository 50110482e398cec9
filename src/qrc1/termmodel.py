"""Pairs, Lindenbaum saturation, pair existence, and term-model construction.

Derivability from a left-hand side is answered by `oracle`: T, members of the
left-hand side and conjunctions by the rules of the calculus, and every other
formula by decider.entails, which gives decide's status: whether the
canonical model M_Gamma of the left-hand side forces it, which by
completeness is derivability, or, where the build of M_Gamma stops at a
bound, whether the one-element canonical model refutes it. So an oracle
answer has no checked certificate behind it; the term model built from the
answers is checked instead, by `truth_lemma_check` and adequacy. This module
never consults the model it is building. The oracle for one left-hand side
is built once (its conjunction and answers) and then asked about each formula
of a closure. Its queries repeat across oracles, and the answers are kept in
one process-wide memo.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, Iterable

# decide is not called here, but perfbench/tracing.py patches
# termmodel.decide; the name stays until the tracer is retargeted
from .decider import DeciderConfig, decide, entails, ground  # noqa: F401
from .semantics import Model, default_assignment, forces, transitive_closure
from .syntax import (
    And,
    Diamond,
    Formula,
    Pred,
    QRCError,
    Sequent,
    Signature,
    TOP,
    closure,
    constants_of,
    free_vars,
    fresh_names,
    names_of,
    pretty,
    set_udepth,
    sorted_formulas,
)


class OracleUndecidedError(QRCError):
    """entails left a query undecided (the build of M_Gamma stopped at a
    bound, and M_phi^1 does not refute it); the construction cannot proceed."""


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


# (query sequent, signature, config) -> True, False, or None for undecided.
# entails is a pure function of these, so an answer never goes stale; entries
# past the cap are not kept.
_MEMO: dict[tuple, bool | None] = {}
_MEMO_MAX = 100_000


def oracle(
    gamma: Iterable[Formula],
    sig: Signature,
    config: DeciderConfig | None = None,
    tally: Counter | None = None,
) -> Callable[[Formula], bool]:
    """Derivability from the conjunction of gamma, asked one formula at a time.

    The calculus settles three cases without search: T is entailed (TopI), a
    member of gamma is entailed (Id, then AndE out of the conjunction), and
    A & B is entailed exactly when A and B both are (AndI one way, AndE and
    Cut the other). Every other formula is a query, answered from the memo
    or by entails, which gives decide's status: whether M_Gamma forces it,
    and, where the build of M_Gamma stops, refuted where the one-element
    canonical model refutes it, else undecided. Answers are kept, so a
    conjunction asks about each conjunct once. A conjunction with an
    undecided conjunct and no refuted one is itself a query. `tally` counts
    the answers by source: "rule", "memo" and "model" (entails)."""
    gamma = frozenset(gamma)
    lhs = conjunction(gamma)
    config = config or DeciderConfig()
    tally = Counter() if tally is None else tally
    truths = gamma | {TOP}
    answers: dict[Formula, bool | None] = {}

    def ask(f: Formula) -> bool | None:
        query = Sequent(lhs, f)
        key = (query, sig, config)
        a = _MEMO.get(key, _MEMO)  # the memo itself marks a miss
        if a is not _MEMO:
            tally["memo"] += 1
            return a
        tally["model"] += 1
        a = entails(query, sig, config)
        if len(_MEMO) < _MEMO_MAX:
            _MEMO[key] = a
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


def is_consistent(
    p: PairPM, sig: Signature, config: DeciderConfig | None = None, tally: Counter | None = None
) -> bool:
    entailed = oracle(p.pos, sig, config, tally)
    return all(not entailed(delta) for delta in sorted_formulas(p.neg))


def lindenbaum(
    p: PairPM,
    phi_set: Iterable[Formula],
    sig: Signature,
    fresh_prefix: str = "n",
    config: DeciderConfig | None = None,
    tally: Counter | None = None,
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
    entailed = oracle(p.pos, sig, config, tally)
    for f in sorted_formulas(closure(phi_set, d_constants)):
        if not entailed(f):
            neg.add(f)
        elif f in p.neg:
            raise PairError(f"inconsistent pair: its positive side entails {pretty(f)}")
        else:
            pos.add(f)
    return PairPM(frozenset(pos), frozenset(neg), d_constants)


def hatR(p: PairPM, q: PairPM) -> bool:
    """Syntactic accessibility between pairs."""
    for f in p.neg:
        if isinstance(f, Diamond):
            if f.body not in q.neg or f not in q.neg:
                return False
    return any(isinstance(f, Diamond) and f in q.neg for f in p.pos)


def pair_existence(
    p: PairPM,
    dphi: Formula,
    sig: Signature,
    fresh_prefix: str = "n",
    config: DeciderConfig | None = None,
    tally: Counter | None = None,
) -> PairPM:
    """Build a successor pair for a positive diamond formula of a saturated
    pair p.

    Seeds <{phi}, {delta, <>delta | <>delta in p-} + {<>phi}> over p's
    constants and saturates; the result q satisfies hatR(p, q), has phi
    positive, and strictly smaller modal depth on the positive side.
    """
    if not isinstance(dphi, Diamond) or dphi not in p.pos:
        raise PairError(f"{pretty(dphi)} is not a positive diamond formula of the pair")
    seed_neg: set[Formula] = {dphi}
    for f in p.neg:
        if isinstance(f, Diamond):
            seed_neg.add(f)
            seed_neg.add(f.body)
    seed = PairPM(frozenset({dphi.body}), frozenset(seed_neg), p.constants)
    return lindenbaum(seed, sorted_formulas(p.formulas()), sig, fresh_prefix, config, tally)


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
    of p and sig, by a constant that joins p's constants."""
    pos, neg = list(p.pos), list(p.neg)
    used = {*p.constants, *sig.constants}.union(*map(names_of, pos + neg))
    grounded, pairs = ground(pos + neg, used)
    if not pairs:
        return p
    return PairPM(frozenset(grounded[:len(pos)]), frozenset(grounded[len(pos):]),
                  tuple(dict.fromkeys(p.constants + tuple(c for _, c in pairs))))


def build_term_model(
    p: PairPM, sig: Signature, config: DeciderConfig | None = None
) -> TermModelResult:
    """The completeness construction: the root saturates p (an inconsistent
    p raises PairError), each world gets one child per positive diamond
    formula, breadth first, and the frame is the transitive closure of the
    tree. World i names its witnesses w{i}_c0, w{i}_c1, ..."""
    p = _ground_pair(p, sig)
    formula_constants = set().union(*(constants_of(f) for f in p.formulas()))
    constants = tuple(dict.fromkeys(p.constants + tuple(sorted(formula_constants))))
    phi_set = sorted_formulas(p.formulas())
    tally: Counter = Counter()
    worlds = [lindenbaum(PairPM(p.pos, p.neg, constants), phi_set, sig, "w0_c", config, tally)]
    edges: list[tuple[int, int]] = []
    for wi, world in enumerate(worlds):  # worlds grows as the loop runs
        for dphi in sorted_formulas(world.pos):
            if isinstance(dphi, Diamond):
                edges.append((wi, len(worlds)))
                worlds.append(pair_existence(world, dphi, sig, f"w{len(worlds)}_c", config, tally))

    model = Model(
        worlds=tuple(range(len(worlds))),
        R=transitive_closure(edges),
        domain={i: frozenset(w.constants) for i, w in enumerate(worlds)},
        constI={i: {c: c for c in w.constants} for i, w in enumerate(worlds)},
        relJ={i: _atoms_of(w) for i, w in enumerate(worlds)},
    )
    return TermModelResult(model, tuple(worlds), {k: tally[k] for k in ("rule", "memo", "model")})


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
    formula in that world's closure."""
    phi_set = sorted_formulas(_ground_pair(p, sig).formulas())
    checked = 0
    violations: list[tuple[int, str, str]] = []
    m = result.model
    for i, w in enumerate(result.worlds):
        g = default_assignment(m, i)
        for f in sorted_formulas(closure(phi_set, w.constants)):
            checked += 1
            member = f in w.pos
            forced = forces(m, i, g, f)
            if member != forced:
                violations.append((i, pretty(f), "forced-but-negative" if forced else "positive-but-unforced"))
    return TruthLemmaReport(checked, tuple(violations))
