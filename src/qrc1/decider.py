"""Total decision procedure for sequents, with a verifiable certificate either way.

decide reads the verdict off the canonical model of the left-hand side
(canonical.py). When that model is too big to build in full and its built
part does not force the right-hand side, it runs the dovetail: proof search
and countermodel search interleaved in growing rounds.
"""

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
    mdepth_precheck,
)
from .canonical import CanonicalModel
from .semantics import (
    Countermodel,
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

# Each dovetail round lets proof search expand PROVE_STEP more nodes, up to
# PROVE_CAP; past the cap the YES side gives up.
PROVE_STEP = 3
PROVE_CAP = 42

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
    max_rounds: Optional[int] = None  # None: run until both searches are exhausted
    max_worlds: Optional[int] = None  # overrides the derived world ceiling
    max_domain: Optional[int] = None


_DEFAULT_CONFIG = DeciderConfig()


def ground_free_variables(s: Sequent, sig: Signature) -> tuple[Sequent, Signature, list[tuple[str, str]]]:
    """Replace free variables by fresh constants for proof search; returns the
    grounded sequent, the extended signature, and the (variable, constant)
    pairs in order. reattach_free_variables turns a derivation of the grounded
    sequent back into one of s."""
    fv = sorted(free_vars(s.lhs) | free_vars(s.rhs))
    pairs = [(x, f"{GROUND_PREFIX}{x}") for x in fv]
    if not pairs:
        return s, sig, pairs
    grounded = s
    for x, c in pairs:
        grounded = substitute_sequent(grounded, x, Const(c))
    return grounded, sig.with_constants(c for _, c in pairs), pairs


def domain_bound(s: Sequent, saturations: int) -> int:
    """Elements a term model of s holds after that many saturations: one per
    constant and free variable, since the term model names a free variable's
    value by a constant, and udepth fresh witnesses per saturation."""
    names = len(constants_of(s.lhs) | constants_of(s.rhs)) + len(free_vars(s.lhs) | free_vars(s.rhs))
    return max(1, names + saturations * max(udepth(s.lhs), udepth(s.rhs)))


def derived_ceiling(s: Sequent, sig: Signature) -> tuple[int, int]:
    """(max worlds, max domain) sufficient for a term-model-shaped countermodel.

    The tree construction branches once per positive diamond formula per leaf
    and strictly decreases modal depth per step. The diamonds are counted on
    the grounded sequent, where a universal is also unfolded by the
    constants that name the free variables' values.
    """
    s, sig, _ = ground_free_variables(s, sig)
    cs = sorted(constants_of(s.lhs) | constants_of(s.rhs))
    u = max(udepth(s.lhs), udepth(s.rhs))
    m = max(mdepth(s.lhs), mdepth(s.rhs))
    witness_names = [f"n{k}" for k in range(u)]
    cl = closure([s.lhs, s.rhs], cs + witness_names)
    d = sum(1 for f in cl if isinstance(f, Diamond))
    worlds = sum(d**i for i in range(m + 1))
    return worlds, domain_bound(s, m + 1)


def refute_ceiling(s: Sequent, sig: Signature, config: DeciderConfig) -> tuple[int, int]:
    """The (worlds, elements) box countermodel search covers at most: the
    derived ceiling clamped to the practical caps, or the config's bounds."""
    worlds, domain = derived_ceiling(s, sig)
    if config.max_worlds is None:
        worlds = min(worlds, PRACTICAL_WORLD_CAP)
    else:
        worlds = config.max_worlds
    if config.max_domain is None:
        domain = min(domain, PRACTICAL_DOMAIN_CAP)
    else:
        domain = config.max_domain
    return worlds, domain


_DECIDE_CACHE: dict[tuple, Verdict] = {}
_DECIDE_CACHE_MAX = 100_000


def clear_cache() -> None:
    _DECIDE_CACHE.clear()


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
    # the canonical model and proof search take free variables as fresh
    # constants, refute as assignment values
    grounded, gsig, ground_pairs = ground_free_variables(s, sig)
    canon = CanonicalModel(grounded, config.max_worlds, config.max_domain)
    stats = _work_stats(s)
    stats["canonical_worlds"] = len(canon.worlds)
    stats["canonical_elements"] = canon.elements
    stats["canonical_facts"] = canon.facts
    # a derivation reads off whatever the part of M_phi built forces
    if canon.worlds and canon.forces(0, grounded.rhs):
        d = reattach_free_variables(canon.derive(0, grounded.rhs), s, ground_pairs)
        check_derivation(d, gsig)
        return _verdict(DERIVABLE, stats, derivation=d)
    if not canon.complete:
        stats["canonical_fallback"] = 1
        return dovetail(s, sig, config, stats)
    cm = canon.countermodel(s, sig, ground_pairs)
    cm.validate()
    return _verdict(UNDERIVABLE, stats, countermodel=cm)


def _work_stats(s: Sequent) -> dict:
    """Every stats key, with no work done yet."""
    return {
        "precheck_short_circuit": mdepth_precheck(s),
        "canonical_worlds": 0,
        "canonical_elements": 0,
        "canonical_facts": 0,
        "canonical_fallback": 0,
        "world_ceiling": 0,
        "domain_ceiling": 0,
        "rounds": 0,
        "frames_examined": 0,
        "refute_candidates": 0,
        "refute_truncated": 0,
        "proof_nodes_expanded": 0,
        "proof_cache_hits": 0,
        "certificate_size": 0,
    }


def _verdict(status: str, stats: dict, **certificate) -> Verdict:
    v = Verdict(status, stats=stats, **certificate)
    if v.derivation is not None:
        stats["certificate_size"] = v.derivation.size()
    elif v.countermodel is not None:
        stats["certificate_size"] = len(v.countermodel.model.worlds)
    return v


def dovetail(s: Sequent, sig: Signature, config: DeciderConfig, stats: dict | None = None) -> Verdict:
    """Interleave proof search and countermodel search in rounds of growing
    budgets and bounds. decide runs it when the canonical model is too big
    and its built part does not force the right-hand side."""
    grounded, gsig, ground_pairs = ground_free_variables(s, sig)
    world_ceiling, domain_ceiling = refute_ceiling(grounded, gsig, config)
    stats = stats if stats is not None else _work_stats(s)
    skip_prove = stats["precheck_short_circuit"]
    search = ProofSearch(gsig)
    refute_stats = RefuteStats()
    stats["world_ceiling"] = world_ceiling
    stats["domain_ceiling"] = domain_ceiling

    max_rounds = config.max_rounds
    if max_rounds is None:
        max_rounds = max(world_ceiling, domain_ceiling, (PROVE_CAP + PROVE_STEP - 1) // PROVE_STEP)

    def finish(status: str, **certificate) -> Verdict:
        stats["frames_examined"] = refute_stats.frames
        stats["refute_candidates"] = refute_stats.candidates
        stats["refute_truncated"] = refute_stats.truncated
        stats["proof_nodes_expanded"] = search.stats.nodes_expanded
        stats["proof_cache_hits"] = search.stats.cache_hits
        return _verdict(status, stats, **certificate)

    refute_done = False  # the whole box up to the ceiling holds no countermodel
    exhausted = (0, 0)  # the box of frames an earlier round searched in full
    for k in range(1, max_rounds + 1):
        stats["rounds"] = k
        prove_done = skip_prove or PROVE_STEP * k >= PROVE_CAP
        if not skip_prove:
            d = search.prove(grounded, min(PROVE_STEP * k, PROVE_CAP))
            if d is not None:
                full = reattach_free_variables(d, s, ground_pairs)
                check_derivation(full, gsig)
                return finish(DERIVABLE, derivation=full)
        if not refute_done:
            mw = min(k, world_ceiling)
            md = min(domain_ceiling, domain_bound(s, k))
            cm = refute(s, sig, RefuteBounds(mw, md, exhausted), refute_stats)
            if cm is not None:
                cm.validate()
                return finish(UNDERIVABLE, countermodel=cm)
            exhausted = (mw, md)
            refute_done = exhausted == (world_ceiling, domain_ceiling)
        if refute_done and prove_done:
            break
    return finish(UNDECIDED)


def reattach_free_variables(
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
