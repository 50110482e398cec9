import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from qrc1 import cli
from qrc1.calculus import derivation_to_dict
from qrc1.cli import build_parser, main
from qrc1.decider import DERIVABLE, UNDECIDED, UNDERIVABLE, decide
from qrc1.semantics import countermodel_to_dict
from qrc1.syntax import MAX_NESTING, parse_sequent_file, pretty_sequent

SIG_TEXT = "sig: constants c0 c1; relations S/1 R/2;\n"


@pytest.fixture
def sig_file(tmp_path):
    p = tmp_path / "sig.txt"
    p.write_text(SIG_TEXT)
    return str(p)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# decide


def test_decide_inline_underivable(capsys):
    code, out, _ = run(capsys, "decide", "T |- <>T")
    assert code == 0
    assert out.startswith("underivable:")


def test_decide_inline_derivable_with_sig(capsys, sig_file):
    code, out, _ = run(capsys, "decide", "<> A x . S(x) |- A x . <> S(x)", "--sig", sig_file)
    assert code == 0
    assert out.startswith("derivable:")


def test_decide_file_json_lines(capsys, tmp_path, sig_file):
    corpus = tmp_path / "corpus.txt"
    corpus.write_text(SIG_TEXT + "T |- T\nT |- <>T\nA x . S(x) |- S(c0)\n")
    code, out, _ = run(capsys, "decide", str(corpus), "--format", "json-lines")
    assert code == 0
    docs = [json.loads(line) for line in out.splitlines()]
    assert [d["status"] for d in docs] == ["derivable", "underivable", "derivable"]
    assert all(d["certificate"] is not None for d in docs)


def test_decide_undecided_exit_code(capsys, sig_file):
    # the one-element canonical model forces the right-hand side, and the 12
    # nested universals fill CANONICAL_FACT_CAP in the root world of M_phi
    xs = [f"x{i}" for i in range(1, 13)]
    universals = "".join(f"A {x} . " for x in xs)
    chain = " & ".join(f"R({a},{b})" for a, b in zip(xs, xs[1:]))
    code, out, _ = run(capsys, "decide", f"({universals}({chain})) & <><>S(c0) |- <>S(c1)",
                       "--sig", sig_file)
    assert code == 3
    assert out.startswith("undecided:")


@pytest.mark.parametrize("argv", [
    ["decide", "T |- T", "--max-worlds", "1"],
    ["decide", "T |- T", "--max-domain", "1"],
    ["prove", "T |- T", "--max-worlds", "1"],
    ["decide", "T |- T", "--budget", "1"],
    ["prove", "T |- T", "--budget", "1"],
    ["refute", "T |- T", "--max-worlds", "1"],
    ["refute", "T |- T", "--max-domain", "1"],
    ["termmodel", "pair.txt", "--max-worlds", "1"],
    ["termmodel", "pair.txt", "--max-domain", "1"],
])
def test_flags_a_subcommand_does_not_read_are_usage_errors(capsys, argv):
    code, _, err = run(capsys, *argv)
    assert code == 1
    assert f"error: unrecognized arguments: {argv[-2]} 1" in err


def test_decide_jobs_preserve_order(capsys, tmp_path):
    corpus = tmp_path / "corpus.txt"
    corpus.write_text(SIG_TEXT + "T |- T\nT |- <>T\n<><>T |- <>T\n")
    code1, out1, _ = run(capsys, "decide", str(corpus), "--format", "json-lines")
    code2, out2, _ = run(capsys, "decide", str(corpus), "--format", "json-lines", "--jobs", "2")
    assert code1 == code2 == 0
    assert out1 == out2  # byte-identical, order matches input


def test_decide_prints_each_verdict_before_deciding_the_next(monkeypatch, tmp_path):
    corpus = tmp_path / "corpus.txt"
    corpus.write_text(SIG_TEXT + "T |- T\nT |- <>T\n")
    out = io.StringIO()
    printed = []

    def recording_decide(s, sig, config=None):
        printed.append(out.getvalue())
        return decide(s, sig, config)

    monkeypatch.setattr(cli, "decide", recording_decide)
    assert cli.cmd_decide(build_parser().parse_args(["decide", str(corpus)]), out) == 0
    assert printed == ["", "derivable: T |- T\n"]
    assert out.getvalue() == "derivable: T |- T\nunderivable: T |- <>T\n"


# ---------------------------------------------------------------------------
# prove / refute


def test_prove_and_check_derivation_round_trip(capsys, tmp_path, sig_file):
    code, out, _ = run(
        capsys, "prove", "<><>S(c0) |- <>S(c0)", "--sig", sig_file, "--format", "json-lines"
    )
    assert code == 0
    doc_path = tmp_path / "derivation.jsonl"
    doc_path.write_text(out)
    code2, out2, _ = run(capsys, "check-derivation", str(doc_path), "--sig", sig_file)
    assert code2 == 0
    assert "valid derivation" in out2


def test_refute_and_check_model_round_trip(capsys, tmp_path, sig_file):
    code, out, _ = run(capsys, "refute", "T |- <>T", "--sig", sig_file, "--format", "json-lines")
    assert code == 0
    doc_path = tmp_path / "countermodel.jsonl"
    doc_path.write_text(out)
    code2, out2, _ = run(capsys, "check-model", str(doc_path), "--sig", sig_file)
    assert code2 == 0
    assert "valid countermodel" in out2


def test_prove_gives_up_with_exit_3(capsys):
    code, out, _ = run(capsys, "prove", "T |- <>T", "--format", "json-lines")
    assert code == 3
    doc = json.loads(out)
    assert doc["status"] == "no-derivation"
    assert doc["verdict"] == "underivable"


def test_refute_gives_up_with_exit_3(capsys, sig_file):
    code, _, _ = run(capsys, "refute", "<><>S(c0) |- <>S(c0)", "--sig", sig_file)
    assert code == 3


# derivable, underivable, and undecided: the universals' instances fill the
# canonical model's fact cap before it has the two worlds the right side needs
SPLIT_CORPUS = [
    "<><>S(c0) |- <>S(c0)",
    "T |- <>T",
    "(" + " . ".join(f"A x{i}" for i in range(1, 13)) + " . ("
    + " & ".join(f"R(x{i},x{i + 1})" for i in range(1, 12, 2)) + ")) & <>(S(c0) & <>S(c1))"
    " |- <><>S(c1)",
]


def test_prove_and_refute_split_decides_verdicts(capsys, tmp_path):
    corpus = tmp_path / "corpus.txt"
    corpus.write_text(SIG_TEXT + "\n".join(SPLIT_CORPUS) + "\n")
    sig, sequents = parse_sequent_file(corpus.read_text())
    verdicts = [decide(s, sig) for s in sequents]
    assert [v.status for v in verdicts] == [DERIVABLE, UNDERIVABLE, UNDECIDED]
    for command, kind, to_dict in (("prove", "derivation", lambda d: derivation_to_dict(d, sig)),
                                   ("refute", "countermodel", countermodel_to_dict)):
        code, out, _ = run(capsys, command, str(corpus), "--format", "json-lines")
        assert code == 3
        docs = [json.loads(line) for line in out.splitlines()]
        assert len(docs) == len(sequents)
        for s, v, doc in zip(sequents, verdicts, docs):
            cert = getattr(v, kind)
            if cert is None:
                expected = {"status": f"no-{kind}", "verdict": v.status}
            else:
                expected = {"status": v.status, kind: to_dict(cert)}
            assert doc == {"sequent": pretty_sequent(s), **expected}


def test_check_derivation_rejects_tampering(capsys, tmp_path, sig_file):
    code, out, _ = run(
        capsys, "prove", "A x . S(x) |- S(c0)", "--sig", sig_file, "--format", "json-lines"
    )
    doc = json.loads(out)
    doc["derivation"]["conclusion"] = "A x . S(x) |- S(c1)"  # forged conclusion
    doc_path = tmp_path / "bad.jsonl"
    doc_path.write_text(json.dumps(doc) + "\n")
    code2, out2, _ = run(capsys, "check-derivation", str(doc_path), "--sig", sig_file)
    assert code2 == 2
    assert "INVALID" in out2


MALFORMED_DERIVATIONS = [
    ("premises not a list", lambda d: d.update(premises=5)),
    ("premise not an object", lambda d: d.update(premises=[5])),
    ("rule not a string", lambda d: d.update(rule=7)),
    ("conclusion not a string", lambda d: d.update(conclusion=["S(c0)"])),
    ("premise conclusion not a string", lambda d: d["premises"][0].update(conclusion=None)),
    ("instantiation not an object", lambda d: d.update(instantiation="x")),
    ("extra constants not a list", lambda d: d.update(extra_constants=3)),
    ("extra constant names a relation", lambda d: d.update(extra_constants=["S"])),
    ("extra constant repeated", lambda d: d.update(extra_constants=["k", "k"])),
]


@pytest.mark.parametrize("mutate", [m for _, m in MALFORMED_DERIVATIONS],
                         ids=[name for name, _ in MALFORMED_DERIVATIONS])
def test_check_derivation_reports_malformed_documents_invalid(capsys, tmp_path, sig_file, mutate):
    _, out, _ = run(
        capsys, "prove", "A x . S(x) |- S(c0)", "--sig", sig_file, "--format", "json-lines"
    )
    doc = json.loads(out)
    mutate(doc["derivation"])
    doc_path = tmp_path / "bad.jsonl"
    doc_path.write_text(json.dumps(doc) + "\n" + out)  # the valid document after it is still checked
    code, out2, _ = run(capsys, "check-derivation", str(doc_path), "--sig", sig_file)
    assert code == 2
    assert out2.startswith("INVALID derivation")
    assert "valid derivation of A x . S(x) |- S(c0)" in out2


def test_check_derivation_reports_a_non_object_derivation_invalid(capsys, tmp_path, sig_file):
    doc_path = tmp_path / "bad.jsonl"
    doc_path.write_text(json.dumps({"derivation": 5}) + "\n")
    code, out, _ = run(capsys, "check-derivation", str(doc_path), "--sig", sig_file)
    assert code == 2
    assert "INVALID" in out


MALFORMED_COUNTERMODELS = [
    ("assignment not an object", lambda d: d["countermodel"].update(assignment=5)),
    ("edge of one world", lambda d: d["countermodel"]["model"].update(edges=[[0]])),
    ("sequent not a string", lambda d: d["countermodel"].update(sequent=5)),
    ("world id not a scalar", lambda d: d["countermodel"]["model"]["worlds"][0].update(id=[0])),
    ("countermodel not an object", lambda d: d.update(countermodel=5)),
    ("root not a world", lambda d: d["countermodel"].update(root=7)),
    ("assigned value outside the domain", lambda d: d["countermodel"]["assignment"]["map"].update(x=5)),
    ("default outside the domain", lambda d: d["countermodel"]["assignment"].update(default=5)),
]


@pytest.mark.parametrize("mutate", [m for _, m in MALFORMED_COUNTERMODELS],
                         ids=[name for name, _ in MALFORMED_COUNTERMODELS])
def test_check_model_reports_malformed_documents_invalid(capsys, tmp_path, sig_file, mutate):
    _, out, _ = run(capsys, "refute", "T |- <>T", "--sig", sig_file, "--format", "json-lines")
    doc = json.loads(out)
    mutate(doc)
    doc_path = tmp_path / "bad.jsonl"
    doc_path.write_text(json.dumps(doc) + "\n" + out)  # the valid document after it is still checked
    code, out2, _ = run(capsys, "check-model", str(doc_path), "--sig", sig_file)
    assert code == 2
    assert out2.startswith("INVALID countermodel")
    assert "valid countermodel for T |- <>T" in out2


def test_check_model_rejects_an_assignment_outside_the_domain(capsys, tmp_path, sig_file):
    # A x . S(x) |- S(y) is derivable; with y at an element that is no
    # element of the model, S(y) would look false
    forged = {"countermodel": {
        "assignment": {"default": 0, "map": {"y": 5}},
        "model": {"edges": [], "worlds": [
            {"constants": {"c0": 0, "c1": 0}, "domain": [0], "id": 0, "relations": {"S": [[0]]}}]},
        "root": 0,
        "sequent": "A x . S(x) |- S(y)",
    }}
    doc_path = tmp_path / "forged.jsonl"
    doc_path.write_text(json.dumps(forged) + "\n")
    code, out, _ = run(capsys, "check-model", str(doc_path), "--sig", sig_file)
    assert code == 2
    assert "not in the root's domain" in out


@pytest.mark.parametrize("relations, error", [
    ({"Q": [[0]]}, "relation 'Q' at 0 is not in the signature"),
    ({"S": [[0, 0]]}, "a tuple of 'S' at 0 does not have arity 1"),
])
def test_check_model_rejects_relations_outside_the_signature(capsys, tmp_path, sig_file, relations, error):
    # T |- S(c0) is underivable, and S stays empty in either model
    forged = {"countermodel": {
        "assignment": {"default": 0, "map": {}},
        "model": {"edges": [], "worlds": [
            {"constants": {"c0": 0}, "domain": [0], "id": 0, "relations": relations}]},
        "root": 0,
        "sequent": "T |- S(c0)",
    }}
    doc_path = tmp_path / "forged.jsonl"
    doc_path.write_text(json.dumps(forged) + "\n")
    code, out, _ = run(capsys, "check-model", str(doc_path), "--sig", sig_file)
    assert code == 2
    assert out.startswith("INVALID countermodel") and error in out


@pytest.mark.parametrize("command", ["check-derivation", "check-model"])
def test_deeply_nested_json_is_an_input_error(capsys, tmp_path, command):
    doc_path = tmp_path / "deep.jsonl"
    doc_path.write_text("[" * 100_000 + "]" * 100_000 + "\n")
    code, _, err = run(capsys, command, str(doc_path))
    assert code == 1
    assert "nested too deeply" in err


def _nested_derivation(depth: int) -> str:
    """A premise chain of depth nodes, as text: json.dumps would recurse too deep."""
    node = '{"rule": "Nec", "conclusion": "S(c0) |- T", "premises": ['
    return '{"derivation": ' + node * depth + "]}" * depth + "}"


@pytest.mark.parametrize("depth", range(480, 495))
def test_deep_premise_chains_are_invalid_or_input_errors(tmp_path, depth):
    # a fresh interpreter, so that the stack starts where the qrc1 script's
    # does: near 490 nodes the JSON reader itself still accepts the nesting
    doc_path, sig_path = tmp_path / "deep.jsonl", tmp_path / "sig.txt"
    doc_path.write_text(_nested_derivation(depth) + "\n")
    sig_path.write_text("sig: constants c0; relations S/1;\n")
    src = str(Path(cli.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", "import sys; from qrc1.cli import main; sys.exit(main())",
         "check-derivation", str(doc_path), "--sig", str(sig_path)],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src), timeout=60)
    output = (proc.stdout + proc.stderr).splitlines()
    assert proc.returncode in (1, 2) and len(output) == 1, output[-1]
    assert output[0].startswith("INVALID derivation" if proc.returncode == 2 else "error: ")


# prove and refute certify the sequent as given: free variables stay
# variables, and a countermodel assigns them values
FREE_VARIABLE_ROUND_TRIPS = [
    ("A y . R(x,y) |- R(x,x)", "prove", "check-derivation"),
    ("R(x,y) |- R(y,x)", "refute", "check-model"),
    ("S(x) & <>S(y) |- <>S(x)", "refute", "check-model"),
]


@pytest.mark.parametrize("text, search, check", FREE_VARIABLE_ROUND_TRIPS)
def test_certificates_of_free_variable_sequents_check(capsys, tmp_path, sig_file, text, search, check):
    for command in (search, "decide"):
        code, out, _ = run(capsys, command, text, "--sig", sig_file, "--format", "json-lines")
        assert code == 0
        assert json.loads(out)["sequent"] == text
        doc_path = tmp_path / f"{command}.jsonl"
        doc_path.write_text(out)
        code2, out2, _ = run(capsys, check, str(doc_path), "--sig", sig_file)
        assert code2 == 0, out2
        assert text in out2


# The names decide invents, M_phi's fresh v#i and the @x naming a free
# variable x, skip the signature's constants and every name of the sequent,
# so that the certificate parses back under the same signature.
NAME_COLLISIONS = [
    ("sig: constants v#0; relations S/1;", "A x . S(x) |- A y . S(y)", "check-derivation"),
    ("sig: constants @x; relations S/1;", "S(@x) |- S(x)", "check-model"),
    ("sig: relations S/1;", "S(@x) & S(x) |- S(x)", "check-derivation"),
]


@pytest.mark.parametrize("header, text, check", NAME_COLLISIONS,
                         ids=["declared-v#0", "declared-@x", "free-@x"])
def test_invented_names_never_meet_declared_or_occurring_names(capsys, tmp_path, header, text, check):
    sig = tmp_path / "sig.txt"
    sig.write_text(header + "\n")
    code, out, err = run(capsys, "decide", text, "--sig", str(sig), "--format", "json-lines")
    assert code == 0, err
    doc_path = tmp_path / "verdict.jsonl"
    doc_path.write_text(out)
    code, out, _ = run(capsys, check, str(doc_path), "--sig", str(sig))
    assert code == 0, out
    assert text in out


# ---------------------------------------------------------------------------
# termmodel / translate / closure


def test_termmodel_command(capsys, tmp_path):
    pair = tmp_path / "pair.txt"
    pair.write_text("sig: constants c; relations S/1;\npos: <> S(c)\nneg: A x . S(x)\n")
    code, out, _ = run(capsys, "termmodel", str(pair))
    assert code == 0
    assert "truth lemma" in out and "0 violations" in out
    assert "adequate: True" in out
    code, out, _ = run(capsys, "termmodel", str(pair), "--format", "json-lines")
    answers = json.loads(out)["oracle_answers"]
    assert answers.keys() == {"rule", "memo", "model"} and answers["rule"] > 0


@pytest.mark.parametrize("command,body", [
    ("decide", "S(c0) |- <>S(c0)\n"),
    ("termmodel", "pos: <> S(c0)\nneg: A x . S(x)\n"),
], ids=["decide", "termmodel"])
def test_sig_flag_and_file_header_must_agree(capsys, tmp_path, command, body):
    path = tmp_path / "input.txt"
    path.write_text("# a comment\n\nsig: constants c0; relations S/1;\n" + body)
    same = tmp_path / "same.txt"
    same.write_text("sig: constants c0; relations S/1;\n")
    other = tmp_path / "other.txt"
    other.write_text("sig: relations S/1;\n")
    code, with_same, _ = run(capsys, command, str(path), "--sig", str(same))
    assert code == 0
    code, without, _ = run(capsys, command, str(path))
    assert code == 0 and with_same == without
    assert "@c0" not in without  # c0 is the header's constant, not a free variable
    code, out, err = run(capsys, command, str(path), "--sig", str(other))
    assert code == 1 and out == ""
    assert "'sig: relations S/1;'" in err and "'sig: constants c0; relations S/1;'" in err


@pytest.mark.parametrize("command,text,line", [
    ("decide", "S(c0) |- S(c0)\nsig: constants c0; relations S/1;\n", 2),
    ("termmodel", "pos: S(c0)\n# comment\nsig: constants c0; relations S/1;\n", 3),
    ("decide", "sig: constants c0; relations S/1;\nS(c0) |-\n", 2),
    ("termmodel", "sig: constants c0; relations S/1;\n\nbox: S(c0)\n", 3),
], ids=["decide-late-header", "termmodel-late-header", "decide-bad-item", "termmodel-bad-item"])
def test_sequent_and_pair_file_errors_name_their_line(capsys, tmp_path, command, text, line):
    path = tmp_path / "input.txt"
    path.write_text(text)
    code, _, err = run(capsys, command, str(path))
    assert code == 1
    assert err.startswith(f"error: line {line}: ")


@pytest.mark.parametrize("command,text,expected", [
    ("decide", "T |- <>T\n", "underivable: T |- <>T"),
    ("termmodel", "pos: <><>T\n", "truth lemma: 12 formulas checked, 0 violations"),
], ids=["decide", "termmodel"])
def test_files_without_a_signature_read_the_empty_one(capsys, tmp_path, command, text, expected):
    path = tmp_path / "input.txt"
    path.write_text(text)
    code, out, _ = run(capsys, command, str(path))
    assert code == 0
    assert expected in out


@pytest.mark.parametrize("template", [
    "(" * 3000 + "a = u" + ")" * 3000,
    "E v . " * 3000 + "a = u",
    " + ".join(["a"] * 3000) + " = u",
], ids=["parentheses", "binders", "plus-chain"])
def test_templates_past_the_nesting_limit_are_input_errors(capsys, tmp_path, sig_file, template):
    real = tmp_path / "real.txt"
    real.write_text(f"S(a) := {template}\n")
    code, out, err = run(capsys, "translate", "S(c0) |- T", "--sig", sig_file,
                         "--realization", str(real))
    assert code == 1 and out == ""
    assert err == f"error: line 1: template nested more than {MAX_NESTING} levels deep\n"


def test_templates_at_the_nesting_limit_translate(capsys, tmp_path, sig_file):
    real = tmp_path / "real.txt"
    real.write_text("S(a) := " + "(" * (MAX_NESTING - 1) + "a = u" + ")" * (MAX_NESTING - 1) + "\n"
                    + "R(a, b) := " + " + ".join(["a"] * MAX_NESTING) + " <= b\n")
    code, out, _ = run(capsys, "translate", "S(c0) & R(c0, c1) |- T", "--sig", sig_file,
                       "--realization", str(real), "--format", "json-lines")
    assert code == 0
    assert json.loads(out)["statement"].count("y0 + ") == MAX_NESTING - 1


@pytest.mark.parametrize("numeral, code, err", [
    # str.isdigit takes ², so it was a numeral that int refused; it is a name,
    # and a free one
    ("²", 1, "error: line 1: '²' in the template for S is neither a parameter, u, nor bound\n"),
    # past CPython's 4,300-digit limit on converting a string to an int
    ("7" * 5000, 1, "error: line 1: numeral of 5000 digits is too long\n"),
], ids=["superscript-two", "5000-digits"])
def test_hostile_numerals_translate_or_are_input_errors(capsys, tmp_path, sig_file, numeral, code, err):
    real = tmp_path / "real.txt"
    real.write_text(f"S(a) := a = {numeral}\n")
    got_code, _, got_err = run(capsys, "translate", "S(c0) |- T", "--sig", sig_file,
                               "--realization", str(real))
    assert (got_code, got_err) == (code, err)


@pytest.mark.parametrize("name", ["b", "12abc"])
def test_templates_with_free_names_are_input_errors(capsys, tmp_path, sig_file, name):
    real = tmp_path / "real.txt"
    real.write_text(f"S(a) := a = {name}\n")
    code, out, err = run(capsys, "translate", "S(c0) |- T", "--sig", sig_file,
                         "--realization", str(real))
    assert code == 1 and out == ""
    assert err == f"error: line 1: {name!r} in the template for S is neither a parameter, u, nor bound\n"


@pytest.mark.parametrize("head", ["S((a))", "S(a b)"])
def test_templates_with_bad_heads_are_input_errors(capsys, tmp_path, sig_file, head):
    real = tmp_path / "real.txt"
    real.write_text(f"{head} := a = u\n")
    code, out, err = run(capsys, "translate", "S(c0) |- T", "--sig", sig_file,
                         "--realization", str(real))
    assert code == 1 and out == ""
    assert err == f"error: line 1: bad template head {head!r}\n"


def test_translate_golden(capsys):
    code, out, _ = run(capsys, "translate", "<><>T |- <>T")
    assert code == 0
    assert "□_{τ(u) ∨ (u = ⌜Con_{τ(u)}⌝)}θ → □_{" in out


def test_translate_with_realization_file(capsys, tmp_path, sig_file):
    real = tmp_path / "real.txt"
    real.write_text("S(a) := E v . a + v = u\nR(a, b) := a + b <= u\n")
    code, out, _ = run(
        capsys, "translate", "A x . S(x) |- S(c0)", "--sig", sig_file,
        "--realization", str(real),
    )
    assert code == 0
    assert "∃z0" in out and "y0" in out


def test_closure_command(capsys, tmp_path):
    sig = tmp_path / "sig.txt"
    sig.write_text("sig: relations S/1;\n")
    code, out, _ = run(capsys, "closure", "A x . S(x)", "--constants", "c", "--sig", str(sig))
    assert code == 0
    assert "count: 3" in out and "mdepth: 0" in out and "udepth: 1" in out


# ---------------------------------------------------------------------------
# errors


def test_missing_file_is_usage_error(capsys):
    code, _, err = run(capsys, "decide", "nosuchfile.txt")
    assert code == 1
    assert "error" in err


def test_unknown_flag_is_usage_error(capsys):
    code, _, _ = run(capsys, "decide", "T |- T", "--frobnicate")
    assert code == 1


def test_parse_error_is_usage_error(capsys):
    code, _, err = run(capsys, "decide", "T |- ")
    assert code == 1


def test_decide_at_the_nesting_limit(capsys):
    code, out, _ = run(capsys, "decide", "<>" * MAX_NESTING + "T |- T")
    assert code == 0
    assert out.startswith("derivable:")
    code, out, _ = run(capsys, "decide", "T |- " + "<>" * MAX_NESTING + "T")
    assert code == 0
    assert out.startswith("underivable:")


# pretty prints <>(A x . ...) with parentheses the input need not have, so a
# certificate's text is nested deeper than the sequent it concludes
AT_THE_LIMIT = "<>A x . " * (MAX_NESTING // 2)


@pytest.mark.parametrize("text, check", [
    (AT_THE_LIMIT + "S(c0) |- T", "check-derivation"),
    ("T |- " + AT_THE_LIMIT + "S(c0)", "check-model"),
], ids=["derivable", "underivable"])
def test_certificates_at_the_nesting_limit_check(capsys, tmp_path, sig_file, text, check):
    code, out, _ = run(capsys, "decide", text, "--sig", sig_file, "--format", "json-lines")
    assert code == 0
    doc_path = tmp_path / "verdict.jsonl"
    doc_path.write_text(out)
    code2, out2, _ = run(capsys, check, str(doc_path), "--sig", sig_file)
    assert code2 == 0, out2


@pytest.mark.parametrize("depth", [MAX_NESTING + 1, 3000])
def test_decide_past_the_nesting_limit_is_a_usage_error(capsys, depth):
    code, _, err = run(capsys, "decide", "<>" * depth + "T |- T")
    assert code == 1
    assert "nested more than" in err
