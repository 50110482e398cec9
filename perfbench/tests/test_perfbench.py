"""Tests of the benchmark's own code. Run from the repository root:

    python -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from qrc1 import calculus, prove, semantics, termmodel  # noqa: E402
from qrc1.generate import DEFAULT_SIG  # noqa: E402
from qrc1.syntax import free_vars, parse_formula, parse_sequent  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def fake_clock(*times):
    it = iter(times)
    return lambda: next(it)


def test_self_time_subtracts_child_spans():
    t = tracing.Tracer(clock=fake_clock(0, 2, 5, 6, 7, 10))

    def outer():
        t.call("inner", lambda: None)
        t.call("inner", lambda: None)

    t.call("outer", outer)
    assert t.self_s["outer"] == 10 - (5 - 2) - (7 - 6)
    assert t.self_s["inner"] == 4
    assert t.calls == {"outer": 1, "inner": 2}
    assert t.childless == {"inner": 2}
    outer_id = next(s[0] for s in t.spans if s[1] == "outer")
    assert [s[4] for s in t.spans if s[1] == "inner"] == [outer_id, outer_id]


def test_span_log_is_capped_but_self_time_is_not():
    t = tracing.Tracer(clock=fake_clock(0, 1, 1, 3), max_spans=1)
    t.call("a", lambda: None)
    t.call("a", lambda: None)
    assert (len(t.spans), t.dropped, t.calls["a"], t.self_s["a"]) == (1, 1, 2, 3)


def test_recursive_forces_and_check_derivation_open_one_span_each():
    sig = DEFAULT_SIG
    m = semantics.Model(worlds=(0, 1), R=frozenset({(0, 1)}), domain={0: frozenset("a"), 1: frozenset("a")},
                        constI={0: {"c0": "a", "c1": "a"}, 1: {"c0": "a", "c1": "a"}},
                        relJ={0: {"S": frozenset({("a",)})}, 1: {}})
    f = parse_formula("<>T & A x . S(x) & S(c0)", sig)
    d = prove(parse_sequent("S(c0) & <>T |- <>T & S(c0)", sig), sig)
    tracer = tracing.Tracer()
    with tracing.installed(tracer):
        assert semantics.forces(m, 0, semantics.default_assignment(m, 0), f)
        calculus.check_derivation(d, sig)
    assert tracer.calls["semantics.forces"] == 1
    assert tracer.calls["calculus.check"] == 1
    assert tracer.counts["calculus.check.nodes"] == d.size() == 3
    assert semantics.forces.__name__ == "forces" and not hasattr(semantics.forces, "__wrapped__")


@pytest.mark.parametrize("n, label, beyond", [
    (8, "max", 0), (19, "max", 0), (20, "p50", 10), (100, "p90", 10), (109, "p90", 10),
    (1000, "p99", 10), (9000, "p99", 90), (10000, "p99.9", 10),
])
def test_tail_is_the_highest_percentile_with_ten_samples_beyond(n, label, beyond):
    value, got_label, got_beyond = run.tail_latency([float(i) for i in range(n, 0, -1)])
    assert (got_label, got_beyond) == (label, beyond)
    assert sum(1 for i in range(1, n + 1) if i > value) == beyond


def test_split_leaves_out_probe_time_and_scales_each_gap_by_its_probes():
    sampler = speed.Sampler(1.0, False)
    ref = speed.REFERENCE_S
    sampler.starts, sampler.ends, sampler.took = [0.0, 10.0, 20.0], [1.0, 11.0, 21.0], [ref, ref, 3 * ref]
    # 5 s of the gap between probes 0 and 1, then 4 s of the gap between
    # probes 1 and 2, which ran at half the reference speed; probe 1 is left out
    seconds, scaled = sampler.split(5.0, 15.0)
    assert seconds == 9.0
    assert scaled == pytest.approx(5.0 + 4.0 / 2)
    assert sampler.split(2.0, 3.0) == (1.0, pytest.approx(1.0))


def test_sampler_probes_during_a_long_op_and_restores_the_alarm_handler():
    before = signal.getsignal(signal.SIGALRM)
    with speed.Sampler(0.05, True) as sampler:
        start = time.perf_counter()
        while time.perf_counter() - start < 0.3:
            pass
        end = time.perf_counter()
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    inside = [p for s, p in zip(sampler.starts, sampler.took) if start < s < end]
    assert len(inside) >= 2
    seconds, _ = sampler.split(start, end)
    assert seconds == pytest.approx(end - start - sum(inside), abs=1e-3)


def test_without_interrupts_the_probe_runs_only_between_ops_once_due():
    before = signal.getsignal(signal.SIGALRM)
    with speed.Sampler(0.05, False) as sampler:
        assert signal.getsignal(signal.SIGALRM) is before
        sampler.between_ops()
        assert len(sampler.starts) == 1
        time.sleep(0.06)
        sampler.between_ops()
        sampler.between_ops()
        assert len(sampler.starts) == 2
    assert len(sampler.took) == 3


def test_wrong_verdicts_and_certificates_count_as_failed_ops(monkeypatch):
    inputs = {"sig": "sig: constants c0 c1; relations S/1 R/2;",
              "items": [["flip", "T |- <>T", "derivable"], ["ok", "<><>T |- <>T", "derivable"]]}
    result = worker.measure("hard-decide", inputs)
    assert result["attempted"] == 2
    assert [f[0] for f in result["failures"]] == ["flip"]
    assert "expected derivable" in result["failures"][0][2]

    other = prove(parse_sequent("T |- T", DEFAULT_SIG), DEFAULT_SIG)
    monkeypatch.setattr(workloads, "certificate_roundtrip", lambda v, sig: (other, sig))
    with pytest.raises(workloads.OpFailed, match="concludes T |- T"):
        workloads.decide_op(DEFAULT_SIG, "<><>T |- <>T", "derivable")


def test_termmodel_pool_keeps_exactly_the_closed_consistent_draws():
    sig = workloads.TERMMODEL_SIG
    draws = workloads.termmodel_draws(60)
    kept = [workloads.pair_texts(d) for d in draws
            if not any(free_vars(f) for f in d[0] | d[1])
            and termmodel.is_consistent(termmodel.PairPM(*d, sig.constants), sig)]
    assert 0 < len(kept) < len(draws)
    assert workloads.termmodel_pool(len(kept)) == kept


def test_hard_decide_runs_every_named_member_that_is_not_excluded():
    passes = run.PASSES["hard-decide"]
    items = workloads.setup_hard_decide(1, SPEC["run_seconds"] / passes)["items"]
    corpus = json.loads((workloads.DATA / "hard_corpus.json").read_text())["members"]
    named = {m["name"] for m in corpus if not m["name"].startswith("draw-") and not m["excluded"]}
    assert named <= {name for name, *_ in items}


def bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_run_prints_every_end_to_end_metric(workload):
    proc = bench("--workload", workload, "--seed", "3", "--seconds", "1", "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == \
        {name: m["unit"] for name, m in result["metrics"].items()}
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_traced_smoke_run_prints_every_per_layer_metric():
    proc = bench("--workload", "random-batch", "--seed", "3", "--seconds", "1", "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    metrics = result["metrics"]
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == \
        {name: m["unit"] for name, m in metrics.items()}
    # one untraced and one traced pass over the same inputs; one decide per op
    assert metrics["decider.decide.calls"]["value"] == result["attempted"] / 2 > 0
    assert metrics["syntax.parse.self_s"]["value"] > 0


def test_fails_without_printing_a_result_when_the_sources_are_missing(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = bench("--workload", "random-batch", "--seed", "1", "--seconds", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
