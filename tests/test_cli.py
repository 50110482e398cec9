import json

import pytest

from qrc1.cli import main

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


def test_decide_undecided_exit_code(capsys, tmp_path):
    sig = tmp_path / "sig.txt"
    sig.write_text("sig: relations S/1;\n")
    code, out, _ = run(
        capsys, "decide", "A x . <>S(x) |- <>(A x . S(x))",
        "--sig", str(sig), "--budget", "1", "--max-worlds", "1", "--max-domain", "1",
    )
    assert code == 3
    assert out.startswith("undecided:")


def test_decide_jobs_preserve_order(capsys, tmp_path):
    corpus = tmp_path / "corpus.txt"
    corpus.write_text(SIG_TEXT + "T |- T\nT |- <>T\n<><>T |- <>T\n")
    code1, out1, _ = run(capsys, "decide", str(corpus), "--format", "json-lines")
    code2, out2, _ = run(capsys, "decide", str(corpus), "--format", "json-lines", "--jobs", "2")
    assert code1 == code2 == 0
    assert out1 == out2  # byte-identical, order matches input


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
    code, out, _ = run(capsys, "prove", "T |- <>T", "--budget", "5")
    assert code == 3


def test_refute_gives_up_with_exit_3(capsys, sig_file):
    code, _, _ = run(capsys, "refute", "<><>S(c0) |- <>S(c0)", "--sig", sig_file)
    assert code == 3


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
    doc_path.write_text(json.dumps(doc) + "\n")
    code, out2, _ = run(capsys, "check-derivation", str(doc_path), "--sig", sig_file)
    assert code == 2
    assert "INVALID" in out2


def test_check_derivation_reports_a_non_object_derivation_invalid(capsys, tmp_path, sig_file):
    doc_path = tmp_path / "bad.jsonl"
    doc_path.write_text(json.dumps({"derivation": 5}) + "\n")
    code, out, _ = run(capsys, "check-derivation", str(doc_path), "--sig", sig_file)
    assert code == 2
    assert "INVALID" in out


# ---------------------------------------------------------------------------
# termmodel / translate / closure


def test_termmodel_command(capsys, tmp_path):
    pair = tmp_path / "pair.txt"
    pair.write_text("sig: constants c; relations S/1;\npos: <> S(c)\nneg: A x . S(x)\n")
    code, out, _ = run(capsys, "termmodel", str(pair))
    assert code == 0
    assert "truth lemma" in out and "0 violations" in out
    assert "adequate: True" in out


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
