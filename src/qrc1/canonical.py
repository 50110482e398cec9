"""The canonical model of a sequent's left-hand side, and the certificate read off it.

A strictly positive formula phi has a least model M_phi, the tree that
unfolds it. Each world w unfolds one formula phi_w, the root phi itself: a
conjunction unfolds both conjuncts, a universal unfolds its instances over
the world's domain, and each distinct diamond <>b gets a child world that
unfolds b. A child's domain is its parent's plus k fresh variables, k the
most universals that the right-hand side psi nests with no diamond between
them; the root's domain holds the constants and at least one fresh
variable. Along the way, every formula f that unfolding makes true at w
keeps the step that unfolded it, and so a derivation of phi_w |- f: a chain
of AndE and ForallL steps.

M_phi forces phi at its root and is adequate, so by soundness it forces psi
when phi |- psi is derivable. Conversely, following the forcing of psi
gives a derivation: AndI for a conjunction, Nec (after TransAx and Cut for a
deeper world) for a diamond, and for a universal A x . b the world's own
fresh variable e, which occurs nowhere in phi_w, generalized by TermInst and
ForallR. A universal forced at w holds of e in particular, and k fresh
variables suffice for the universals nested at one world: a universal under
a diamond is tested at a descendant, which has fresh variables of its own.
So M_phi decides the sequent: `derive` returns the derivation, or
`countermodel` returns M_phi itself as the countermodel.

The same argument lets forcing test a universal at its generic instance
alone: w forces A x . b iff it forces b at e, since the derivation read off
that instance concludes A x . b. Forcing thus costs one test per world and
subformula of psi, not one per instance. Building M_phi does instantiate
each left universal over the whole domain, and so stops once it holds
CANONICAL_FACT_CAP facts. A part of M_phi still serves the YES side: each
of its facts and worlds keeps its derivation, so whatever the part forces
has a derivation read off it.

`model` builds the Model for a tuple of constants, the only part of it that
depends on the signature and the sequent. The decider keeps the one-element
model M_phi^1 between calls, and each Model read off it as an entry of its
own (decider._ONE_ELEMENT); M_phi lives for one call.
"""

from __future__ import annotations

import functools
import itertools
from typing import Container, Iterator, Optional

from .calculus import (
    AND_E_L,
    AND_E_R,
    AND_I,
    CUT,
    FORALL_L,
    FORALL_R,
    ID,
    NEC,
    TERM_INST,
    TOP_I,
    TRANS_AX,
    Derivation,
    Instantiation,
)
from .semantics import Assignment, Countermodel, Model
from .syntax import (
    And,
    Const,
    Diamond,
    Forall,
    Formula,
    Pred,
    Sequent,
    Term,
    TOP,
    Top,
    Var,
    constants_of,
    free_vars,
    substitute,
)

# Past this many facts, summed over all worlds, the canonical model is not
# built further. Every world holds at least its own formula, so this bounds
# the worlds too. On a 2-core x86 VM under CPython 3.11, building to the cap
# the one world of `A x1 . ... A x8 . (R(x1,x2) & ... & R(x7,x8))`, whose
# facts are large formulas, takes 0.2 s and 6 MB; the largest countermodel
# measured below the cap (2,128 worlds, 4,615 facts) decides and validates
# in 0.4 s.
CANONICAL_FACT_CAP = 10_000

# the prefix of the names of M_phi's fresh elements
FRESH_VAR_PREFIX = "v#"


def fresh_names(prefix: str, used: Container[str]) -> Iterator[str]:
    """prefix0, prefix1, ... in order, skipping the names in used. Every name
    the decider and the term model invent comes from here."""
    for k in itertools.count():
        name = f"{prefix}{k}"
        if name not in used:
            yield name


class _TooBig(Exception):
    pass


def _then(d: Derivation, step: Derivation) -> Derivation:
    """phi |- f from d: phi |- g and step: g |- f, with no Cut next to an Id."""
    if d.rule == ID:
        return step
    if step.rule == ID:
        return d
    return Derivation(CUT, Sequent(d.conclusion.lhs, step.conclusion.rhs), (d, step))


def _nec(d: Derivation) -> Derivation:
    """<>phi |- <>f from d: phi |- f."""
    goal = Sequent(Diamond(d.conclusion.lhs), Diamond(d.conclusion.rhs))
    return Derivation(ID, goal) if d.rule == ID else Derivation(NEC, goal, (d,))


class _World:
    __slots__ = ("formula", "parent", "domain", "fresh", "facts", "children", "below")

    def __init__(self, formula: Formula, parent: int | None, domain: tuple[Term, ...], fresh: tuple[Var, ...]):
        self.formula = formula
        self.parent = parent
        self.domain = domain
        self.fresh = fresh  # the world's own fresh variables, the end of its domain
        # each formula unfolding makes true here, with the step that unfolded
        # it: (the formula it came from, AndE-L, AndE-R or ForallL, the
        # ForallL instantiation); None for the world's formula
        self.facts: dict[Formula, Optional[tuple[Formula, str, Optional[Instantiation]]]] = {}
        self.children: list[int] = []
        self.below: list[int] | None = None  # the proper descendants, nearest first


@functools.lru_cache(maxsize=None)
def _layers(f: Formula) -> tuple[int, int]:
    """The universals f nests above its diamonds, and the most universals it
    nests anywhere with no diamond between them."""
    match f:
        case And(l, r):
            (top_l, most_l), (top_r, most_r) = _layers(l), _layers(r)
            return max(top_l, top_r), max(most_l, most_r)
        case Forall(_, b):
            top, most = _layers(b)
            return top + 1, max(top + 1, most)
        case Diamond(b):
            return 0, _layers(b)[1]
    return 0, 0


def _layer_udepth(f: Formula) -> int:
    """The most universals that f nests with no diamond between them. A
    universal of psi is tested at the world where its layer is evaluated, one
    under a diamond at a descendant, so a world needs this many fresh
    elements of its own."""
    return _layers(f)[1]


def _generic(world: _World, b: Formula) -> Var:
    """The instance a universal A x . b is tested and derived at: the world's
    first own fresh variable not free in b. At most k - 1 enclosing universals
    of its layer took one already; those of outer layers took fresh variables
    of an ancestor."""
    return next(e for e in world.fresh if e.name not in free_vars(b))


class CanonicalModel:
    """M_phi for a sequent without free variables, whose fresh elements are
    named v#0, v#1, ... past the names in used, which holds every name of
    the sequent. Building stops once there are CANONICAL_FACT_CAP facts; the
    model is then not complete."""

    def __init__(self, s: Sequent, used: Container[str]):
        k = _layer_udepth(s.rhs)
        self._names = fresh_names(FRESH_VAR_PREFIX, used)
        self._forced: dict[tuple[int, Formula], bool] = {}
        self.worlds: list[_World] = []
        self.elements = 0
        self.facts = 0
        self.complete = False
        constants = tuple(Const(c) for c in sorted(constants_of(s.lhs) | constants_of(s.rhs)))
        try:
            self._add(s.lhs, None, constants, max(k, 1))
            w = 0
            while w < len(self.worlds):  # breadth first: worlds are numbered by depth
                world = self.worlds[w]
                for f in world.facts:
                    if isinstance(f, Diamond):
                        self._add(f.body, w, world.domain, k)
                w += 1
            self.complete = True
        except _TooBig:
            pass

    def _add(self, formula: Formula, parent: int | None, inherited: tuple[Term, ...], k: int) -> None:
        self.elements += (len(inherited) if parent is None else 0) + k
        fresh = tuple(Var(next(self._names)) for _ in range(k))
        world = _World(formula, parent, inherited + fresh, fresh)
        if parent is not None:
            self.worlds[parent].children.append(len(self.worlds))
        self.worlds.append(world)
        self._unfold(world, formula, None)

    def _unfold(self, world: _World, f: Formula, origin: Optional[tuple]) -> None:
        if self.facts == CANONICAL_FACT_CAP:
            raise _TooBig
        self.facts += 1
        world.facts[f] = origin
        match f:
            case And(l, r):
                for part, rule in ((l, AND_E_L), (r, AND_E_R)):
                    if part not in world.facts:
                        self._unfold(world, part, (f, rule, None))
            case Forall(x, b):
                for t in world.domain:
                    inst = substitute(b, x, t)  # t is a constant or a fresh variable, never captured
                    if inst not in world.facts:
                        self._unfold(world, inst, (f, FORALL_L, Instantiation(x, t)))

    def _from_formula(self, world: _World, g: Formula, d: Optional[Derivation] = None) -> Derivation:
        """phi_w |- chi, for a fact g of the world and d: g |- chi (Id by default)."""
        if d is None:
            d = Derivation(ID, Sequent(g, g))
        origin = world.facts[g]
        while origin is not None:
            source, rule, inst = origin
            if rule == FORALL_L:
                d = Derivation(FORALL_L, Sequent(source, d.conclusion.rhs), (d,), inst)
            else:
                d = _then(Derivation(rule, Sequent(source, g)), d)
            g, origin = source, world.facts[source]
        return d

    def _below(self, w: int) -> list[int]:
        world = self.worlds[w]
        if world.below is None:
            below = list(world.children)
            for v in below:  # grows while it is read
                below.extend(self.worlds[v].children)
            world.below = below
        return world.below

    def forces(self, w: int, f: Formula, forced: Optional[dict] = None) -> bool:
        """Whether world w forces the closed formula f (whose terms are the
        constants and fresh variables of w's domain), a universal tested at
        its generic instance. The answers are kept in forced, by default in
        the model itself."""
        if forced is None:
            forced = self._forced
        key = (w, f)
        known = forced.get(key)
        if known is not None:
            return known
        world = self.worlds[w]
        match f:
            case _ if f in world.facts:
                result = True
            case Top():
                result = True
            case Pred():
                result = False
            case And(l, r):
                result = self.forces(w, l, forced) and self.forces(w, r, forced)
            case Diamond(b):
                result = any(self.forces(v, b, forced) for v in self._below(w))
            case Forall(x, b):
                result = self.forces(w, substitute(b, x, _generic(world, b)), forced)
        forced[key] = result
        return result

    def derive(self, w: int, f: Formula) -> Derivation:
        """A derivation of phi_w |- f, for an f that world w forces."""
        world = self.worlds[w]
        goal = Sequent(world.formula, f)
        if f == TOP:  # TopI is one node, wherever T was unfolded
            return Derivation(TOP_I, goal)
        if f in world.facts:
            return self._from_formula(world, f)
        match f:
            case And(l, r):
                return Derivation(AND_I, goal, (self.derive(w, l), self.derive(w, r)))
            case Diamond(b):
                v = next(v for v in self._below(w) if self.forces(v, b))
                return self._reach(w, v, _nec(self.derive(v, b)))
            case Forall(x, b):
                e = _generic(world, b)
                inst = substitute(b, x, e)
                d = self.derive(w, inst)
                if inst != b:
                    d = Derivation(TERM_INST, Sequent(world.formula, b), (d,), Instantiation(e.name, Var(x)))
                return Derivation(FORALL_R, goal, (d,))
        raise ValueError(f"world {w} does not force {f!r}")

    def _reach(self, w: int, v: int, d: Derivation) -> Derivation:
        """phi_w |- chi, for v a proper descendant of w and d: <>phi_v |- chi."""
        while True:
            u = self.worlds[v].parent
            edge = Diamond(self.worlds[v].formula)
            if u == w:
                return self._from_formula(self.worlds[w], edge, d)
            # phi_u |- <>phi_v gives <>phi_u |- <><>phi_v |- <>phi_v
            trans = Derivation(TRANS_AX, Sequent(Diamond(edge), edge))
            d = _then(_nec(self._from_formula(self.worlds[u], edge)), _then(trans, d))
            v = u

    def countermodel(self, model: Model, original: Sequent, ground_pairs: list[tuple[str, str]]) -> Countermodel:
        """M_phi's Model, built by `model`, as a countermodel to the original
        sequent, whose free variables ground_pairs names by constants of the
        grounded one."""
        # the root's domain, where the grounding constants are, takes the first element ids
        root = self.worlds[0].domain
        g = Assignment({x: root.index(Const(c)) for x, c in ground_pairs}, 0)
        return Countermodel(model, 0, g, original)

    def model(self, constants: tuple[str, ...]) -> Model:
        """M_phi as a Model that interprets constants, those that do not occur
        sent to a root element."""
        element: dict[Term, int] = {}
        for world in self.worlds:
            for t in world.domain:
                element.setdefault(t, len(element))
        n = len(self.worlds)
        relJ: list[dict[str, set[tuple[int, ...]]]] = [{} for _ in range(n)]
        for w, world in enumerate(self.worlds):
            for f in world.facts:
                if isinstance(f, Pred):
                    relJ[w].setdefault(f.name, set()).add(tuple(element[t] for t in f.args))
        cmap = {c: element.get(Const(c), 0) for c in constants}
        return Model(
            worlds=tuple(range(n)),
            R=frozenset((w, v) for w in range(n) for v in self._below(w)),
            domain={w: frozenset(element[t] for t in world.domain) for w, world in enumerate(self.worlds)},
            constI={w: cmap for w in range(n)},
            relJ={w: {name: frozenset(ts) for name, ts in relJ[w].items()} for w in range(n) if relJ[w]},
        )
