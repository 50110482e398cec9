"""Spans and counters recorded around calls into qrc1, from outside the package.

`installed(tracer)` swaps each traced function for a wrapper under the name
its callers look up (for example `qrc1.decider.refute`, the name `decide`
calls, and `qrc1.termmodel.decide`, the name the term-model oracle calls),
and puts the originals back on exit. Counts come from objects the calls
already expose: the `RefuteStats` argument of `refute` and
`ProofSearch.stats`.

Self time is accumulated while spans close, so it stays exact however many
spans there are; the span log itself is capped at `MAX_SPANS` entries.
"""

from __future__ import annotations

import contextlib
import functools
import json
import time
from collections import Counter, defaultdict

MAX_SPANS = 200_000


class Tracer:
    """Nested spans (id, name, start, end, parent id, op) plus named counters."""

    def __init__(self, clock=time.perf_counter, max_spans: int = MAX_SPANS):
        self.clock = clock
        self.max_spans = max_spans
        self.op = -1  # index of the benchmark op in progress
        self.spans: list[tuple] = []
        self.dropped = 0
        self.calls: Counter = Counter()  # spans closed, per name
        self.self_s: defaultdict = defaultdict(float)
        self.total_s: defaultdict = defaultdict(float)  # span durations, children included
        self.childless: Counter = Counter()  # spans that had no child span
        self.counts: Counter = Counter()
        self.last_children = 0  # child spans of the span closed last
        self._stack: list[list] = []  # open spans: [id, name, start, child_s, children]
        self._open: Counter = Counter()
        self._next_id = 0

    def call(self, name: str, fn, /, *args, **kwargs):
        """fn(*args, **kwargs) inside a span, unless a span of the same name is open."""
        if self._open[name]:
            return fn(*args, **kwargs)
        parent = self._stack[-1] if self._stack else None
        frame = [self._next_id, name, self.clock(), 0.0, 0]
        self._next_id += 1
        self._stack.append(frame)
        self._open[name] += 1
        try:
            return fn(*args, **kwargs)
        finally:
            end = self.clock()
            self._stack.pop()
            self._open[name] -= 1
            span_id, _, start, child_s, children = frame
            duration = end - start
            self.calls[name] += 1
            self.self_s[name] += duration - child_s
            self.total_s[name] += duration
            if not children:
                self.childless[name] += 1
            self.last_children = children
            if parent is not None:
                parent[3] += duration
                parent[4] += 1
            if len(self.spans) < self.max_spans:
                self.spans.append((span_id, name, start, end, parent[0] if parent else None, self.op))
            else:
                self.dropped += 1

    def write_spans(self, path) -> None:
        with open(path, "w") as out:
            out.write(json.dumps({"fields": ["id", "name", "start", "end", "parent", "op"],
                                  "spans": len(self.spans), "dropped": self.dropped}) + "\n")
            for span in self.spans:
                out.write(json.dumps(span) + "\n")

    def layer_metrics(self) -> dict[str, tuple[float, str]]:
        """Per-layer metrics as name -> (value, unit)."""
        calls, c, self_s = self.calls, self.counts, self.self_s

        def ratio(a, b):
            return a / b if b else 0.0

        return {
            "semantics.refute.self_s": (self_s["semantics.refute"], "s"),
            "semantics.refute.calls": (calls["semantics.refute"], "count"),
            "semantics.refute.frames": (c["semantics.refute.frames"], "count"),
            "semantics.refute.candidates": (c["semantics.refute.candidates"], "count"),
            "semantics.refute.found_ratio": (ratio(c["semantics.refute.found"], calls["semantics.refute"]), "ratio"),
            "calculus.prove.self_s": (self_s["calculus.prove"], "s"),
            "calculus.prove.calls": (calls["calculus.prove"], "count"),
            "calculus.prove.nodes": (c["calculus.prove.nodes"], "count"),
            "calculus.prove.nodes_per_proof": (ratio(c["calculus.prove.nodes"], c["calculus.prove.found"]), "count"),
            "calculus.prove.found_ratio": (ratio(c["calculus.prove.found"], calls["calculus.prove"]), "ratio"),
            "decider.decide.self_s": (self_s["decider.decide"], "s"),
            "decider.decide.calls": (calls["decider.decide"], "count"),
            "decider.decide.repeat_share": (ratio(c["decider.decide.repeats"], calls["decider.decide"]), "ratio"),
            "decider.decide.cache_hits": (self.childless["decider.decide"], "count"),
            "decider.rounds": (c["decider.rounds"], "count"),
            "decider.serialize.self_s": (self_s["decider.serialize"], "s"),
            "syntax.parse.self_s": (self_s["syntax.parse"], "s"),
            "calculus.check.self_s": (self_s["calculus.check"], "s"),
            "calculus.check.nodes": (c["calculus.check.nodes"], "count"),
            "semantics.validate.self_s": (self_s["semantics.validate"], "s"),
            "semantics.adequate.self_s": (self_s["semantics.adequate"], "s"),
            "semantics.forces.self_s": (self_s["semantics.forces"], "s"),
            "semantics.forces.calls": (calls["semantics.forces"], "count"),
            "termmodel.build.self_s": (self_s["termmodel.build"], "s"),
            "termmodel.lindenbaum.self_s": (self_s["termmodel.lindenbaum"], "s"),
            "termmodel.oracle_calls": (c["termmodel.oracle_calls"], "count"),
            "termmodel.worlds": (c["termmodel.worlds"], "count"),
            "termmodel.truth_lemma.self_s": (self_s["termmodel.truth_lemma"], "s"),
            "termmodel.truth_lemma.checked": (c["termmodel.truth_lemma.checked"], "count"),
        }


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Trace calls into qrc1, and the benchmark's own certificate round trip
    as the `decider.serialize` span, while the block runs."""
    import qrc1.calculus as calculus
    import qrc1.decider as decider
    import qrc1.semantics as semantics
    import qrc1.syntax as syntax
    import qrc1.termmodel as termmodel
    import workloads

    saved: list[tuple] = []

    def patch(owner, attr, wrapper):
        original = getattr(owner, attr)
        saved.append((owner, attr, original))
        setattr(owner, attr, functools.wraps(original)(wrapper))

    def spanned(name, fn):
        return lambda *args, **kwargs: tracer.call(name, fn, *args, **kwargs)

    try:
        # One span per call, under the name each caller looks up. forces and
        # check_derivation call themselves through the module attribute, so their
        # recursive calls pass through the wrapper but open no span of their own.
        for owner, attr, name in (
            (syntax, "parse_sequent", "syntax.parse"),
            (syntax, "parse_formula", "syntax.parse"),
            (semantics, "forces", "semantics.forces"),
            (termmodel, "forces", "semantics.forces"),
            (semantics, "check_adequate", "semantics.adequate"),
            (semantics.Countermodel, "validate", "semantics.validate"),
            (termmodel, "lindenbaum", "termmodel.lindenbaum"),
        ):
            patch(owner, attr, spanned(name, getattr(owner, attr)))

        patch(workloads, "certificate_roundtrip", spanned("decider.serialize", workloads.certificate_roundtrip))

        seen_decide: set = set()

        def traced_decide(original, oracle: bool):
            def decide(s, sig, config=None):
                key = (s, sig, repr(config or decider.DeciderConfig()))
                if key in seen_decide:
                    tracer.counts["decider.decide.repeats"] += 1
                seen_decide.add(key)
                if oracle:
                    tracer.counts["termmodel.oracle_calls"] += 1
                verdict = tracer.call("decider.decide", original, s, sig, config)
                if tracer.last_children:  # a decide that did work, not a cache hit
                    tracer.counts["decider.rounds"] += verdict.stats.get("rounds", 0)
                return verdict
            return decide

        patch(decider, "decide", traced_decide(decider.decide, oracle=False))
        patch(termmodel, "decide", traced_decide(termmodel.decide, oracle=True))

        original_refute = decider.refute

        def refute(s, sig, bounds, stats=None):
            stats = stats if stats is not None else semantics.RefuteStats()
            frames, candidates = stats.frames, stats.candidates
            cm = tracer.call("semantics.refute", original_refute, s, sig, bounds, stats)
            tracer.counts["semantics.refute.frames"] += stats.frames - frames
            tracer.counts["semantics.refute.candidates"] += stats.candidates - candidates
            tracer.counts["semantics.refute.found"] += cm is not None
            return cm

        patch(decider, "refute", refute)

        original_prove = calculus.ProofSearch.prove

        def prove(self, goal, budget):
            nodes = self.stats.nodes_expanded
            d = tracer.call("calculus.prove", original_prove, self, goal, budget)
            tracer.counts["calculus.prove.nodes"] += self.stats.nodes_expanded - nodes
            tracer.counts["calculus.prove.found"] += d is not None
            return d

        patch(calculus.ProofSearch, "prove", prove)

        def traced_check(original):
            def check_derivation(d, sig):
                tracer.counts["calculus.check.nodes"] += 1
                return tracer.call("calculus.check", original, d, sig)
            return check_derivation

        patch(calculus, "check_derivation", traced_check(calculus.check_derivation))
        patch(decider, "check_derivation", traced_check(decider.check_derivation))

        original_build = termmodel.build_term_model

        def build_term_model(p, sig, config=None):
            result = tracer.call("termmodel.build", original_build, p, sig, config)
            tracer.counts["termmodel.worlds"] += len(result.worlds)
            return result

        patch(termmodel, "build_term_model", build_term_model)

        original_truth = termmodel.truth_lemma_check

        def truth_lemma_check(result, p, sig):
            report = tracer.call("termmodel.truth_lemma", original_truth, result, p, sig)
            tracer.counts["termmodel.truth_lemma.checked"] += report.checked
            return report

        patch(termmodel, "truth_lemma_check", truth_lemma_check)
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
