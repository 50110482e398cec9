"""Derived rules: Lemma-style elaborations into the primitive rules of
qrc1.calculus. Untrusted, as any derivation is: check_derivation checks what
they build.
"""

from __future__ import annotations

from .calculus import CONST_GEN, CUT, FORALL_L, FORALL_R, ID, Derivation, DerivationError, Instantiation
from .syntax import (
    And, Const, Diamond, Forall, Formula, Pred, Sequent, Term, Top, Var, free_vars, pretty, substitute,
)


def _id(f: Formula) -> Derivation:
    return Derivation(ID, Sequent(f, f))


def _forall_l(d: Derivation, x: str, t: Term, quantified: Formula) -> Derivation:
    return Derivation(
        FORALL_L,
        Sequent(Forall(x, quantified), d.conclusion.rhs),
        (d,),
        Instantiation(x, t),
    )


def _forall_r(d: Derivation, x: str) -> Derivation:
    return Derivation(FORALL_R, Sequent(d.conclusion.lhs, Forall(x, d.conclusion.rhs)), (d,))


def _cut(d1: Derivation, d2: Derivation) -> Derivation:
    return Derivation(CUT, Sequent(d1.conclusion.lhs, d2.conclusion.rhs), (d1, d2))


def derived_swap_foralls(f: Formula, x: str, y: str) -> Derivation:
    """A x . A y . f |- A y . A x . f"""
    if x == y:
        return _id(Forall(x, Forall(y, f)))
    d = _forall_l(_id(f), y, Var(y), f)  # A y . f |- f
    d = _forall_l(d, x, Var(x), Forall(y, f))  # A x . A y . f |- f
    d = _forall_r(d, x)  # A x . A y . f |- A x . f
    d = _forall_r(d, y)  # A x . A y . f |- A y . A x . f
    return d


def derived_inst(f: Formula, x: str, t: Term) -> Derivation:
    """A x . f |- f[x/t]  (t free for x in f)"""
    body = substitute(f, x, t)
    return _forall_l(_id(body), x, t, f)


def derived_rename(f: Formula, x: str, y: str) -> Derivation:
    """A x . f |- A y . f[x/y]  (y free for x in f, y not free in f)"""
    if y != x and y in free_vars(f):
        raise DerivationError(f"{y} is free in {pretty(f)}")
    return _forall_r(derived_inst(f, x, Var(y)), y)


def derived_inst_rhs(premise: Derivation, x: str, t: Term) -> Derivation:
    """From phi |- psi conclude phi |- psi[x/t]  (x not free in phi, t free for x in psi)"""
    phi, psi = premise.conclusion.lhs, premise.conclusion.rhs
    if x in free_vars(phi):
        raise DerivationError(f"{x} is free in the left-hand side")
    d1 = _forall_r(premise, x)  # phi |- A x . psi
    d2 = derived_inst(psi, x, t)  # A x . psi |- psi[x/t]
    return _cut(d1, d2)


def derived_gen_rhs(premise: Derivation, x: str, c: str) -> Derivation:
    """From phi |- psi[x/c] conclude phi |- A x . psi  (x not free in phi, c fresh)"""
    phi = premise.conclusion.lhs
    if x in free_vars(phi):
        raise DerivationError(f"{x} is free in the left-hand side")
    # phi[x/c] = phi, so ConstGen turns phi |- psi[x/c] into phi |- psi
    d = Derivation(
        CONST_GEN,
        # recover psi from psi[x/c] by replacing every occurrence of c by x
        Sequent(phi, _term_to_var(premise.conclusion.rhs, Const(c), x)),
        (premise,),
        Instantiation(x, Const(c)),
    )
    return _forall_r(d, x)


def _term_to_var(f: Formula, t: Term, x: str) -> Formula:
    match f:
        case Top():
            return f
        case Pred(name, args):
            return Pred(name, tuple(Var(x) if a == t else a for a in args))
        case And(l, r):
            return And(_term_to_var(l, t, x), _term_to_var(r, t, x))
        case Diamond(b):
            return Diamond(_term_to_var(b, t, x))
        case Forall(z, b):
            if isinstance(t, Var) and t.name == z:
                return f
            return Forall(z, _term_to_var(b, t, x))
    raise TypeError(f"not a formula: {f!r}")
