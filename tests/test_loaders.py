"""The certificate loaders and the parser are the base of trust: on any JSON
value or text they return a value or raise a QRCError, never anything else."""

import copy
import json

import pytest
from hypothesis import given, strategies as st

from qrc1 import semantics
from qrc1.calculus import check_derivation, derivation_from_dict, derivation_to_dict
from qrc1.cli import main
from qrc1.decider import decide
from qrc1.generate import DEFAULT_SIG
from qrc1.semantics import ModelError, countermodel_from_dict, countermodel_to_dict, model_from_dict
from qrc1.syntax import QRCError, Signature, parse_sequent, signature_str

SIG = DEFAULT_SIG

# the keys the documents use, so that generated objects reach past the first check
KEYS = ["rule", "conclusion", "premises", "instantiation", "kind", "var", "term",
        "extra_constants", "model", "root", "assignment", "map", "default", "sequent",
        "worlds", "edges", "id", "domain", "constants", "relations"]
JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(max_size=8) | st.sampled_from(["x", "c0", "const", "var", "Id", "T |- T"]),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.sampled_from(KEYS) | st.text(max_size=4), children, max_size=4),
    max_leaves=16,
)

DERIVATION_DOC = derivation_to_dict(decide(parse_sequent("A y . R(x,y) |- R(x,x)", SIG), SIG).derivation, SIG)
COUNTERMODEL_DOC = countermodel_to_dict(decide(parse_sequent("S(x) & <>S(y) |- <>S(x)", SIG), SIG).countermodel)


def _paths(doc, prefix=()):
    yield prefix
    if isinstance(doc, dict):
        items = doc.items()
    elif isinstance(doc, list):
        items = enumerate(doc)
    else:
        return
    for key, value in items:
        yield from _paths(value, prefix + (key,))


MISSING = object()  # as a value for _replaced: the key is deleted


def _replaced(doc, path, value):
    if not path:
        return value
    doc = copy.deepcopy(doc)
    node = doc
    for key in path[:-1]:
        node = node[key]
    if value is MISSING:
        del node[path[-1]]
    else:
        node[path[-1]] = value
    return doc


def _load_and_check_derivation(doc):
    try:
        check_derivation(derivation_from_dict(doc, SIG), SIG)
    except QRCError:
        pass


def _load_and_check_countermodel(doc):
    try:
        countermodel_from_dict(doc, SIG).validate()
    except QRCError:
        pass


def test_the_base_documents_check():
    check_derivation(derivation_from_dict(DERIVATION_DOC, SIG),
                     SIG.with_constants(DERIVATION_DOC["extra_constants"]))
    countermodel_from_dict(COUNTERMODEL_DOC, SIG).validate()


@given(JSON)
def test_loaders_are_total_on_any_json(value):
    _load_and_check_derivation(value)
    _load_and_check_countermodel(value)


@given(st.data())
def test_derivation_loader_is_total_on_a_damaged_document(data):
    path = data.draw(st.sampled_from(list(_paths(DERIVATION_DOC))))
    _load_and_check_derivation(_replaced(DERIVATION_DOC, path, data.draw(JSON)))


@given(st.data())
def test_countermodel_loader_is_total_on_a_damaged_document(data):
    path = data.draw(st.sampled_from(list(_paths(COUNTERMODEL_DOC))))
    _load_and_check_countermodel(_replaced(COUNTERMODEL_DOC, path, data.draw(JSON)))


# One damage per field of COUNTERMODEL_DOC, and a few documents with two
# faults, with the exact ModelError each gives when loaded and validated (None:
# it checks). A tuple or an edge missing a value is one element short.
W0 = ("model", "worlds", 0)
DAMAGES = [
    ("worlds-type", [(("model", "worlds"), {})], "malformed model document: 'worlds' must be a list"),
    ("worlds-true", [(("model", "worlds"), True)], "malformed model document: 'worlds' must be a list"),
    ("worlds-missing", [(("model", "worlds"), MISSING)], "malformed model document: 'worlds' must be a list"),
    ("world-type", [(W0, [])], "malformed model document: a world must be an object"),
    ("id-type", [(W0 + ("id",), [0])], "malformed model document: a world id must be an integer or a string"),
    ("id-true", [(W0 + ("id",), True)], "malformed model document: a world id must be an integer or a string"),
    ("id-missing", [(W0 + ("id",), MISSING)], "malformed model document: a world id must be an integer or a string"),
    ("domain-type", [(W0 + ("domain",), {})], "malformed model document: a domain must be a list"),
    ("domain-true", [(W0 + ("domain", 1), True)], "malformed model document: a domain must hold integers or strings"),
    ("domain-missing", [(W0 + ("domain",), MISSING)], "malformed model document: a domain must be a list"),
    ("constants-type", [(W0 + ("constants",), [])], "malformed model document: 'constants' must be an object"),
    ("constants-true", [(W0 + ("constants", "c0"), True)],
     "malformed model document: a constant's value must be an integer or a string"),
    ("constants-missing", [(W0 + ("constants",), MISSING)], None),
    ("relations-type", [(W0 + ("relations",), [])], "malformed model document: 'relations' must be an object"),
    ("relations-true", [(W0 + ("relations", "S"), True)], "malformed model document: a relation must be a list"),
    ("relations-missing", [(W0 + ("relations",), MISSING)], "countermodel does not force the left-hand side"),
    ("relation-unknown", [(W0 + ("relations", "Q"), [[0]])], "relation 'Q' at 0 is not in the signature"),
    ("tuple-type", [(W0 + ("relations", "S", 0), 0)], "malformed model document: a tuple must be a list"),
    ("tuple-true", [(W0 + ("relations", "S", 0, 0), True)],
     "malformed model document: a tuple must hold integers or strings"),
    ("tuple-missing", [(W0 + ("relations", "S", 0), [])], "a tuple of 'S' at 0 does not have arity 1"),
    ("edges-type", [(("model", "edges"), {})], "malformed model document: 'edges' must be a list"),
    ("edges-true", [(("model", "edges", 0, 1), True)], "malformed model document: an edge must hold integers or strings"),
    ("edges-missing", [(("model", "edges"), MISSING)], "countermodel does not force the left-hand side"),
    ("edge-type", [(("model", "edges", 0), "01")], "malformed model document: an edge must be a list"),
    ("edge-missing", [(("model", "edges", 0), [0])], "malformed model document: an edge must name two worlds"),
    ("root-type", [(("root",), [0])], "malformed model document: 'root' must be an integer or a string"),
    ("root-true", [(("root",), True)], "malformed model document: 'root' must be an integer or a string"),
    ("root-missing", [(("root",), MISSING)], "malformed model document: 'root' must be an integer or a string"),
    ("map-type", [(("assignment", "map"), [])], "malformed model document: the assignment's 'map' must be an object"),
    ("map-true", [(("assignment", "map", "x"), True)],
     "malformed model document: an assigned value must be an integer or a string"),
    ("map-missing", [(("assignment", "map"), MISSING)],
     "malformed model document: the assignment's 'map' must be an object"),
    ("default-type", [(("assignment", "default"), [0])],
     "malformed model document: the assignment's 'default' must be an integer or a string"),
    ("default-true", [(("assignment", "default"), True)],
     "malformed model document: the assignment's 'default' must be an integer or a string"),
    ("default-missing", [(("assignment", "default"), MISSING)],
     "malformed model document: the assignment's 'default' must be an integer or a string"),
    ("model-type", [(("model",), [])], "malformed model document: a model must be an object"),
    ("assignment-type", [(("assignment",), [])], "malformed model document: 'assignment' must be an object"),
    ("sequent-missing", [(("sequent",), MISSING)], "malformed model document: 'sequent' must be a string"),
    # the first fault in the order the loader reads: worlds, edges, the
    # structure, the signature, root, map, default
    ("edges-after-worlds", [(("model", "edges"), {}), (W0 + ("domain",), {})],
     "malformed model document: a domain must be a list"),
    ("structure-before-arity", [(("model", "edges", 0, 1), 5), (W0 + ("relations", "S", 0), [])],
     "edge (0, 5) mentions an unknown world"),
    ("arity-before-root", [(("root",), True), (W0 + ("relations", "S", 0), [])],
     "a tuple of 'S' at 0 does not have arity 1"),
    ("map-before-default", [(("assignment", "default"), MISSING), (("assignment", "map", "y"), True)],
     "malformed model document: an assigned value must be an integer or a string"),
]


@pytest.mark.parametrize("changes, message", [pytest.param(c, m, id=i) for i, c, m in DAMAGES])
def test_each_damage_to_a_countermodel_document_gives_its_message(changes, message):
    doc = COUNTERMODEL_DOC
    for path, value in changes:
        doc = _replaced(doc, path, value)
    if message is None:
        countermodel_from_dict(doc, SIG).validate()
        return
    with pytest.raises(ModelError) as raised:
        countermodel_from_dict(doc, SIG).validate()
    assert str(raised.value) == message


TOKENS = ["<>", "A", "x", "y", ".", "(", ")", "&", "|-", "T", "S", "R", ",", "c0", " ", "@", "#"]


@given(st.text(max_size=40) | st.lists(st.sampled_from(TOKENS), max_size=30).map("".join))
def test_parse_sequent_is_total_on_any_text(text):
    try:
        parse_sequent(text, SIG)
    except QRCError:
        pass


def _one_world_countermodel(element, world):
    return {
        "model": {"edges": [], "worlds": [
            {"id": world, "domain": [element], "constants": {"c0": element, "c1": element},
             "relations": {"S": [[element]]}}]},
        "root": world,
        "assignment": {"map": {"x": element}, "default": element},
        "sequent": "S(c0) |- <>S(c0)",
    }


# JSON's true is no integer, though Python's True is an int equal to 1: with
# true for 1 anywhere, a document that would be a valid countermodel is malformed
BOOLEAN_PLACES = {
    "world id": lambda d: d["model"]["worlds"][0].update(id=True),
    "domain": lambda d: d["model"]["worlds"][0].update(domain=[True]),
    "constant value": lambda d: d["model"]["worlds"][0]["constants"].update(c1=True),
    "relation tuple": lambda d: d["model"]["worlds"][0]["relations"].update(S=[[True]]),
    "root": lambda d: d.update(root=True),
    "assigned value": lambda d: d["assignment"]["map"].update(x=True),
    "assignment default": lambda d: d["assignment"].update(default=True),
}


@pytest.mark.parametrize("place", list(BOOLEAN_PLACES))
def test_a_json_boolean_is_no_integer_in_a_model_document(place):
    doc = _one_world_countermodel(1, 1)
    countermodel_from_dict(doc, SIG).validate()
    BOOLEAN_PLACES[place](doc)
    with pytest.raises(ModelError, match="malformed model document"):
        countermodel_from_dict(doc, SIG)


def test_check_model_refuses_json_booleans(capsys, tmp_path):
    doc = tmp_path / "booleans.jsonl"
    doc.write_text(json.dumps({"countermodel": _one_world_countermodel(True, False)}) + "\n")
    sig = tmp_path / "sig.txt"
    sig.write_text(signature_str(SIG) + "\n")
    assert main(["check-model", str(doc), "--sig", str(sig)]) == 2
    assert capsys.readouterr().out.startswith("INVALID countermodel")


# ---------------------------------------------------------------------------
# the model memo: a loaded model is kept, keyed by its document's content


@pytest.fixture
def memo(monkeypatch):
    """An empty model memo for the test, and a function giving its weight."""
    monkeypatch.setattr(semantics, "_MODELS", semantics.WeighedMemo(semantics._MODELS.bound))
    return lambda: semantics._MODELS.weight


def _weight(model_doc) -> int:
    """Worlds, domain elements, constant entries, relation tuples and edges."""
    worlds = model_doc["worlds"]
    return (len(worlds) + len(model_doc["edges"])
            + sum(len(w["domain"]) + len(w["constants"]) + sum(map(len, w["relations"].values()))
                  for w in worlds))


MODEL_DOC = COUNTERMODEL_DOC["model"]
W1 = ("worlds", 1)
# each a change to one field of MODEL_DOC that gives another model
ONE_FIELD = {
    "world order": [(("worlds",), MODEL_DOC["worlds"][::-1])],
    "edge": [(("edges", 0), [1, 0])],
    "domain element": [(W1 + ("domain",), [0, 1, 2, 3])],
    "constant value": [(W1 + ("constants", "c1"), 1)],
    "relation tuple": [(W1 + ("relations", "S", 0), [2])],
    "empty relation": [(W1 + ("relations", "R"), [])],
}


@pytest.mark.parametrize("field", list(ONE_FIELD))
def test_documents_that_differ_in_one_field_load_as_different_models(memo, monkeypatch, field):
    doc = MODEL_DOC
    for path, value in ONE_FIELD[field]:
        doc = _replaced(doc, path, value)
    kept = model_from_dict(MODEL_DOC)
    loaded = model_from_dict(doc)
    monkeypatch.setattr(semantics, "_MODELS", semantics.WeighedMemo(semantics._MODELS.bound))
    assert loaded == model_from_dict(doc) != kept
    assert model_from_dict(MODEL_DOC) == kept


def test_equal_documents_load_as_one_model(memo):
    kept = model_from_dict(MODEL_DOC)
    assert model_from_dict(copy.deepcopy(MODEL_DOC)) is kept
    assert countermodel_from_dict(copy.deepcopy(COUNTERMODEL_DOC), SIG).model is kept
    assert memo() == _weight(MODEL_DOC) == 15


def test_a_kept_model_gives_each_document_its_own_first_fault(memo):
    # the same relations in another order: the signature check names the first
    # relation each document lists, whichever document was loaded first
    s_first = _replaced(COUNTERMODEL_DOC, W0 + ("relations",), {"S": [[0]], "R": []})
    r_first = _replaced(COUNTERMODEL_DOC, W0 + ("relations",), {"R": [], "S": [[0]]})
    for order in ([s_first, r_first], [r_first, s_first]):
        semantics._MODELS.clear()
        for doc in order + order:
            with pytest.raises(ModelError) as raised:
                countermodel_from_dict(doc, Signature())
            name = "S" if doc is s_first else "R"
            assert str(raised.value) == f"relation {name!r} at 0 is not in the signature"


def test_the_memo_weight_never_passes_its_bound(memo, monkeypatch):
    weight = _weight(MODEL_DOC)
    monkeypatch.setattr(semantics, "_MODELS", semantics.WeighedMemo(2 * weight + 1))
    docs = [_replaced(MODEL_DOC, W1 + ("domain",), list(range(3 + k))) for k in range(6)]
    for k, doc in enumerate(docs):
        m = model_from_dict(doc)
        assert semantics._MODELS[next(reversed(semantics._MODELS))] is m
        assert memo() <= 2 * weight + 1
        assert memo() == sum(map(_weight, docs[k - len(semantics._MODELS) + 1:k + 1]))
    # one model heavier than the bound is checked and not kept
    monkeypatch.setattr(semantics, "_MODELS", semantics.WeighedMemo(weight - 1))
    first = countermodel_from_dict(COUNTERMODEL_DOC, SIG)
    first.validate()
    assert countermodel_from_dict(COUNTERMODEL_DOC, SIG).model is not first.model
    assert (semantics._MODELS, memo()) == ({}, 0)


@pytest.mark.parametrize("path, value, message", [
    (("edges", 0, 1), 5, "edge (0, 5) mentions an unknown world"),
    (W1 + ("domain",), [], "world 1 has an empty domain"),
    (W1 + ("id",), 0, "duplicate world ids"),
])
def test_an_ill_formed_model_is_not_kept(memo, path, value, message):
    doc = _replaced(MODEL_DOC, path, value)
    for _ in range(2):
        with pytest.raises(ModelError) as raised:
            model_from_dict(doc)
        assert str(raised.value) == message
        assert (semantics._MODELS, memo()) == ({}, 0)


@pytest.mark.parametrize("path, value, sig, message", [
    (("root",), 2, SIG, "root 2 is not a world of the model"),
    (("assignment", "map", "x"), 3, SIG, "the assignment's value 3 is not in the root's domain"),
    (("assignment", "default"), 7, SIG, "the assignment's value 7 is not in the root's domain"),
    (("sequent",), "S(x) |- <>S(y)", SIG, "countermodel forces the right-hand side"),
    (("sequent",), "S(y) |- <>S(x)", SIG, "countermodel does not force the left-hand side"),
    (("sequent",), "S(x) |- <>Q(x)", SIG, "undeclared relation 'Q' (at position 10)"),
    ((), None, Signature(relations=(("S", 2),)), "a tuple of 'S' at 0 does not have arity 2"),
    ((), None, Signature(relations=(("R", 2),)), "relation 'S' at 0 is not in the signature"),
])
def test_a_damaged_document_of_a_kept_model_fails_on_its_own(memo, path, value, sig, message):
    kept = countermodel_from_dict(COUNTERMODEL_DOC, SIG)
    kept.validate()
    doc = _replaced(COUNTERMODEL_DOC, path, value) if path else COUNTERMODEL_DOC
    with pytest.raises(QRCError) as raised:
        cm = countermodel_from_dict(doc, sig)
        assert cm.model is kept.model
        cm.validate()
    assert str(raised.value) == message
    countermodel_from_dict(COUNTERMODEL_DOC, SIG).validate()
