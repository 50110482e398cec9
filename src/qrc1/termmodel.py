"""Pairs, Lindenbaum saturation, pair existence, and term-model construction.

The derivability oracle throughout is the decider module, which is total on
its own; this module never consults the model it is building.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from . import decider
from .decider import DeciderConfig, DERIVABLE, UNDERIVABLE, decide
from .semantics import Model, default_assignment, forces, transitive_closure
from .syntax import (
    And,
    Const,
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
    fresh_name,
    pretty,
    set_udepth,
    sorted_formulas,
    substitute,
)


class OracleUndecidedError(QRCError):
    """The decider gave up within its budget; the construction cannot proceed."""


class PairError(QRCError):
    pass


@dataclass(frozen=True)
class PairPM:
    """A <positive, negative> pair of closed formulas plus a constant snapshot."""

    pos: frozenset[Formula]
    neg: frozenset[Formula]
    constants: tuple[str, ...] = ()

    def formulas(self) -> frozenset[Formula]:
        return self.pos | self.neg


@dataclass(frozen=True)
class TermWorld:
    pair: PairPM
    domain_constants: tuple[str, ...]


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


def _oracle_sig(sig: Signature, formulas: Iterable[Formula]) -> Signature:
    extra: set[str] = set()
    for f in formulas:
        extra.update(constants_of(f))
    return sig.with_constants(sorted(extra))


def entails(
    gamma: Iterable[Formula],
    f: Formula,
    sig: Signature,
    config: DeciderConfig | None = None,
) -> bool:
    """True iff the conjunction of some finite subset of gamma derives f.

    Monotonicity makes the conjunction of all of gamma sufficient.
    """
    gamma = list(gamma)
    seq = Sequent(conjunction(gamma), f)
    verdict = decide(seq, _oracle_sig(sig, gamma + [f]), config)
    if verdict.status == DERIVABLE:
        return True
    if verdict.status == UNDERIVABLE:
        return False
    raise OracleUndecidedError(f"oracle undecided on {seq}")


def is_consistent(p: PairPM, sig: Signature, config: DeciderConfig | None = None) -> bool:
    return all(not entails(p.pos, delta, sig, config) for delta in sorted_formulas(p.neg))


class FreshConstants:
    """Deterministic source of globally fresh constant names."""

    def __init__(self, used: Iterable[str], prefix: str = "n"):
        self.used = set(used)
        self.prefix = prefix

    def take(self, count: int, prefix: str | None = None) -> list[str]:
        prefix = prefix if prefix is not None else self.prefix
        out: list[str] = []
        for _ in range(count):
            name = fresh_name(prefix, self.used)
            self.used.add(name)
            out.append(name)
        return out


def lindenbaum(
    p: PairPM,
    phi_set: Iterable[Formula],
    constants: Iterable[str],
    sig: Signature,
    fresh: FreshConstants | None = None,
    fresh_prefix: str | None = None,
    config: DeciderConfig | None = None,
) -> tuple[tuple[str, ...], PairPM]:
    """Extend p to a maximal consistent, fully witnessed pair over the closure
    of phi_set under the original constants plus udepth-many fresh witnesses.

    The modal depth of the positive part is preserved exactly.
    """
    phi_set = list(phi_set)
    _check_closed(phi_set)
    _check_closed(p.formulas())
    constants = tuple(dict.fromkeys(constants))
    fresh = fresh or FreshConstants(set(constants) | set(sig.constants))
    witnesses = fresh.take(set_udepth(phi_set), fresh_prefix)
    d_constants = constants + tuple(witnesses)
    cl = sorted_formulas(closure(phi_set, d_constants))
    pos = set(p.pos)
    neg = set(p.neg)
    for f in cl:
        if entails(p.pos, f, sig, config):
            pos.add(f)
        else:
            neg.add(f)
    q = PairPM(frozenset(pos), frozenset(neg), d_constants)
    return d_constants, q


def hatR(p: PairPM, q: PairPM) -> bool:
    """Syntactic accessibility between pairs."""
    for f in p.neg:
        if isinstance(f, Diamond):
            if f.body not in q.neg or f not in q.neg:
                return False
    return any(isinstance(f, Diamond) and f in q.neg for f in p.pos)


def pair_existence(
    world: TermWorld,
    dphi: Formula,
    sig: Signature,
    fresh: FreshConstants | None = None,
    fresh_prefix: str | None = None,
    config: DeciderConfig | None = None,
) -> tuple[tuple[str, ...], TermWorld]:
    """Build a successor pair for a positive diamond formula of an MCW world.

    Seeds <{phi}, {delta, <>delta | <>delta in p-} + {<>phi}> and saturates;
    the result q satisfies hatR(p, q), has phi positive, and strictly smaller
    modal depth on the positive side.
    """
    p = world.pair
    if not isinstance(dphi, Diamond) or dphi not in p.pos:
        raise PairError(f"{pretty(dphi)} is not a positive diamond formula of the pair")
    seed_neg: set[Formula] = {dphi}
    for f in p.neg:
        if isinstance(f, Diamond):
            seed_neg.add(f)
            seed_neg.add(f.body)
    seed = PairPM(frozenset({dphi.body}), frozenset(seed_neg), world.domain_constants)
    phi_set = sorted_formulas(p.formulas())
    e_constants, q = lindenbaum(
        seed, phi_set, world.domain_constants, sig, fresh, fresh_prefix, config
    )
    return e_constants, TermWorld(q, e_constants)


# ---------------------------------------------------------------------------
# the model M[p]


@dataclass(frozen=True)
class TermModelResult:
    model: Model
    worlds: tuple[TermWorld, ...]  # indexed by model world id
    root: int = 0

    def annotations(self) -> list[dict]:
        return [
            {
                "world": i,
                "positive": [pretty(f) for f in sorted_formulas(tw.pair.pos)],
                "negative": [pretty(f) for f in sorted_formulas(tw.pair.neg)],
            }
            for i, tw in enumerate(self.worlds)
        ]


def _ground_pair(p: PairPM, sig: Signature) -> tuple[PairPM, Signature]:
    fv = sorted(set().union(*(free_vars(f) for f in p.formulas())) if p.formulas() else set())
    if not fv:
        return p, _oracle_sig(sig, p.formulas())
    sub_pos, sub_neg = set(p.pos), set(p.neg)
    consts = list(p.constants)
    for x in fv:
        c = Const(f"{decider.GROUND_PREFIX}{x}")
        sub_pos = {substitute(f, x, c) for f in sub_pos}
        sub_neg = {substitute(f, x, c) for f in sub_neg}
        consts.append(c.name)
    q = PairPM(frozenset(sub_pos), frozenset(sub_neg), tuple(dict.fromkeys(consts)))
    return q, _oracle_sig(sig, q.formulas()).with_constants(consts)


def build_term_model(
    p: PairPM, sig: Signature, config: DeciderConfig | None = None
) -> TermModelResult:
    """The completeness construction: root by saturation, one child per
    positive diamond formula per leaf, transitive closure at the end."""
    p, sig = _ground_pair(p, sig)
    if not is_consistent(p, sig, config):
        raise PairError("cannot build a model from an inconsistent pair")
    base_constants = tuple(
        dict.fromkeys(
            list(p.constants)
            + sorted(set().union(*(constants_of(f) for f in p.formulas())) if p.formulas() else set())
        )
    )
    fresh = FreshConstants(set(base_constants) | set(sig.constants))
    phi_set = sorted_formulas(p.formulas())

    d_constants, q = lindenbaum(p, phi_set, base_constants, sig, fresh, "w0_c", config)
    if not d_constants:
        # degenerate pad so the root world has a nonempty domain
        d_constants = tuple(fresh.take(1, "w0_c"))
        q = PairPM(q.pos, q.neg, d_constants)
    worlds: list[TermWorld] = [TermWorld(q, d_constants)]
    edges: list[tuple[int, int]] = []
    frontier = [0]
    while frontier:
        next_frontier: list[int] = []
        for wi in frontier:
            tw = worlds[wi]
            diamonds = [f for f in sorted_formulas(tw.pair.pos) if isinstance(f, Diamond)]
            for dphi in diamonds:
                vi = len(worlds)
                _, child = pair_existence(tw, dphi, sig, fresh, f"w{vi}_c", config)
                worlds.append(child)
                edges.append((wi, vi))
                next_frontier.append(vi)
        frontier = next_frontier

    model = Model(
        worlds=tuple(range(len(worlds))),
        R=transitive_closure(edges),
        domain={i: frozenset(tw.domain_constants) for i, tw in enumerate(worlds)},
        constI={i: {c: c for c in tw.domain_constants} for i, tw in enumerate(worlds)},
        relJ={i: _atoms_of(tw.pair) for i, tw in enumerate(worlds)},
    )
    return TermModelResult(model, tuple(worlds))


def _atoms_of(p: PairPM) -> dict[str, frozenset[tuple[str, ...]]]:
    out: dict[str, set[tuple[str, ...]]] = {}
    for f in p.pos:
        if isinstance(f, Pred):
            args = tuple(t.name for t in f.args if isinstance(t, Const))
            if len(args) == len(f.args):
                out.setdefault(f.name, set()).add(args)
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
    p, _ = _ground_pair(p, sig)
    phi_set = sorted_formulas(p.formulas())
    checked = 0
    violations: list[tuple[int, str, str]] = []
    m = result.model
    for i, tw in enumerate(result.worlds):
        g = default_assignment(m, i)
        for f in sorted_formulas(closure(phi_set, tw.domain_constants)):
            checked += 1
            member = f in tw.pair.pos
            forced = forces(m, i, g, f)
            if member != forced:
                violations.append((i, pretty(f), "forced-but-negative" if forced else "positive-but-unforced"))
    return TruthLemmaReport(checked, tuple(violations))
