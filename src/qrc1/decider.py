"""Total decision procedure for sequents, with a verifiable certificate either way."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .calculus import (
    CONST_GEN,
    Derivation,
    Instantiation,
    ProofSearch,
    check_derivation,
    derivation_to_dict,
)
from .semantics import (
    Assignment,
    Countermodel,
    Model,
    RefuteBounds,
    RefuteStats,
    countermodel_to_dict,
    refute,
)
from .syntax import (
    Const,
    Diamond,
    Sequent,
    Signature,
    closure,
    constants_of,
    free_vars,
    mdepth,
    substitute_sequent,
    udepth,
)

GROUND_PREFIX = "@"

# Exhaustive frame enumeration is exponential in the world count, so the
# derived ceilings are clamped to these defaults; explicit max_worlds /
# max_domain settings override the clamp. A search exhausted below the true
# ceiling reports undecided rather than underivable.
PRACTICAL_WORLD_CAP = 4
PRACTICAL_DOMAIN_CAP = 4

SCHEMA_VERSION = 1

DERIVABLE = "derivable"
UNDERIVABLE = "underivable"
UNDECIDED = "undecided"


@dataclass
class Verdict:
    status: str
    derivation: Optional[Derivation] = None
    countermodel: Optional[Countermodel] = None
    stats: dict = field(default_factory=dict)


def verdict_to_dict(v: Verdict, sig: Signature) -> dict:
    doc: dict = {"schema": SCHEMA_VERSION, "status": v.status, "stats": v.stats}
    if v.derivation is not None:
        doc["certificate"] = {"kind": "derivation", "derivation": derivation_to_dict(v.derivation, sig)}
    elif v.countermodel is not None:
        doc["certificate"] = {"kind": "countermodel", "countermodel": countermodel_to_dict(v.countermodel)}
    else:
        doc["certificate"] = None
    return doc


@dataclass(frozen=True)
class DeciderConfig:
    prove_step: int = 3  # proof-node budget added per dovetail round
    prove_cap: int = 42  # give up on the YES side past this many nodes
    max_rounds: Optional[int] = None  # None: run to the derived ceiling
    max_worlds: Optional[int] = None  # overrides the derived world ceiling
    max_domain: Optional[int] = None


_DEFAULT_CONFIG = DeciderConfig()


def ground_free_variables(s: Sequent, sig: Signature) -> tuple[Sequent, Signature, list[tuple[str, str]]]:
    """Replace free variables by fresh constants; returns the grounded sequent,
    the extended signature, and the (variable, constant) pairs in order."""
    fv = sorted(free_vars(s.lhs) | free_vars(s.rhs))
    pairs = [(x, f"{GROUND_PREFIX}{x}") for x in fv]
    grounded = s
    for x, c in pairs:
        grounded = substitute_sequent(grounded, x, Const(c))
    return grounded, sig.with_constants(c for _, c in pairs), pairs


def _count_diamonds(formulas) -> int:
    return sum(1 for f in formulas if isinstance(f, Diamond))


def derived_ceiling(s: Sequent, sig: Signature) -> tuple[int, int]:
    """(max worlds, max domain) sufficient for a term-model-shaped countermodel.

    The tree construction branches once per positive diamond formula per leaf
    and strictly decreases modal depth per step, adding udepth fresh witnesses
    per saturation.
    """
    cs = sorted(constants_of(s.lhs) | constants_of(s.rhs))
    u = max(udepth(s.lhs), udepth(s.rhs))
    m = max(mdepth(s.lhs), mdepth(s.rhs))
    witness_names = [f"n{k}" for k in range(u)]
    cl = closure([s.lhs, s.rhs], cs + witness_names)
    d = _count_diamonds(cl)
    worlds = sum(d**i for i in range(m + 1))
    dom = max(1, len(cs) + (m + 1) * u)
    return worlds, dom


_DECIDE_CACHE: dict[tuple, Verdict] = {}
_DECIDE_CACHE_MAX = 100_000


def clear_cache() -> None:
    _DECIDE_CACHE.clear()


def mdepth_precheck(s: Sequent) -> bool:
    """True when the modal-depth necessary condition already rules out
    derivability (the countermodel is still produced by refute)."""
    return mdepth(s.lhs) < mdepth(s.rhs)


def decide(s: Sequent, sig: Signature, config: DeciderConfig | None = None) -> Verdict:
    """Decide derivability, returning a validated certificate either way."""
    config = config or _DEFAULT_CONFIG
    cache_key = (s, sig.constants, sig.relations, config)
    cached = _DECIDE_CACHE.get(cache_key)
    if cached is not None:
        return cached
    verdict = _decide(s, sig, config)
    if len(_DECIDE_CACHE) < _DECIDE_CACHE_MAX:
        _DECIDE_CACHE[cache_key] = verdict
    return verdict


def _decide(s: Sequent, sig: Signature, config: DeciderConfig) -> Verdict:
    grounded, gsig, ground_pairs = ground_free_variables(s, sig)
    world_ceiling, domain_ceiling = derived_ceiling(grounded, gsig)
    world_ceiling = min(world_ceiling, PRACTICAL_WORLD_CAP)
    domain_ceiling = min(domain_ceiling, PRACTICAL_DOMAIN_CAP)
    if config.max_worlds is not None:
        world_ceiling = config.max_worlds
    if config.max_domain is not None:
        domain_ceiling = config.max_domain

    cs = constants_of(grounded.lhs) | constants_of(grounded.rhs)
    u = max(udepth(grounded.lhs), udepth(grounded.rhs))
    skip_prove = mdepth_precheck(grounded)

    search = ProofSearch(gsig)
    refute_stats = RefuteStats()
    stats: dict = {
        "world_ceiling": world_ceiling,
        "domain_ceiling": domain_ceiling,
        "rounds": 0,
        "precheck_short_circuit": skip_prove,
    }

    max_rounds = config.max_rounds
    if max_rounds is None:
        prove_rounds = (config.prove_cap + config.prove_step - 1) // config.prove_step
        max_rounds = max(world_ceiling, domain_ceiling, prove_rounds)

    def finish(status: str, **certificate) -> Verdict:
        stats["frames_examined"] = refute_stats.frames
        stats["refute_candidates"] = refute_stats.candidates
        stats["refute_truncated"] = refute_stats.truncated
        stats["proof_nodes_expanded"] = search.stats.nodes_expanded
        return Verdict(status, stats=stats, **certificate)

    refute_exhausted_at_ceiling = False
    exhausted = (0, 0)  # the box of frames an earlier round searched in full
    k = 0
    while k < max_rounds:
        k += 1
        stats["rounds"] = k
        if not skip_prove:
            budget = min(config.prove_step * k, config.prove_cap)
            d = search.prove(grounded, budget)
            if d is not None:
                full = _reattach_free_variables(d, s, ground_pairs)
                check_derivation(full, gsig)
                return finish(DERIVABLE, derivation=full)
        if not refute_exhausted_at_ceiling:
            mw = min(k, world_ceiling)
            md = min(domain_ceiling, max(1, len(cs) + k * u))
            cm = refute(grounded, gsig, RefuteBounds(mw, md, exhausted), refute_stats)
            if cm is not None:
                original = _unground_countermodel(cm, s, sig, ground_pairs)
                original.validate()
                return finish(UNDERIVABLE, countermodel=original)
            exhausted = (mw, md)
            if mw == world_ceiling and md == domain_ceiling:
                refute_exhausted_at_ceiling = True
        if skip_prove and refute_exhausted_at_ceiling:
            break  # cannot happen for a correct ceiling; fall through to undecided
        if refute_exhausted_at_ceiling and not skip_prove and config.prove_step * k >= config.prove_cap:
            break
    return finish(UNDECIDED)


def _reattach_free_variables(
    d: Derivation, original: Sequent, ground_pairs: list[tuple[str, str]]
) -> Derivation:
    """Wrap the derivation of the grounded sequent in constant-generalization
    steps so that it concludes the original sequent."""
    seqs = [original]
    for x, c in ground_pairs:
        seqs.append(substitute_sequent(seqs[-1], x, Const(c)))
    for i in range(len(ground_pairs) - 1, -1, -1):
        x, c = ground_pairs[i]
        d = Derivation(CONST_GEN, seqs[i], (d,), Instantiation(x, Const(c)))
    return d


def _unground_countermodel(
    cm: Countermodel, original: Sequent, sig: Signature, ground_pairs: list[tuple[str, str]]
) -> Countermodel:
    """Turn the interpretation of each grounding constant back into an
    assignment value for the corresponding free variable."""
    if not ground_pairs:
        return Countermodel(cm.model, cm.root, cm.assignment, original)
    gmap = dict(cm.assignment.mapping)
    for x, c in ground_pairs:
        gmap[x] = cm.model.const_value(cm.root, c)
    ground_names = {c for _, c in ground_pairs}
    m = cm.model
    model = Model(
        worlds=m.worlds,
        R=m.R,
        domain=m.domain,
        constI={w: {c: d for c, d in m.constI.get(w, {}).items() if c not in ground_names} for w in m.worlds},
        relJ=m.relJ,
    )
    g = Assignment(cm.root, gmap, cm.assignment.default)
    return Countermodel(model, cm.root, g, original)
