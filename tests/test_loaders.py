"""The certificate loaders and the parser are the base of trust: on any JSON
value or text they return a value or raise a QRCError, never anything else."""

import copy
import json

import pytest
from hypothesis import given, strategies as st

from qrc1.calculus import check_derivation, derivation_from_dict, derivation_to_dict
from qrc1.cli import main
from qrc1.decider import decide
from qrc1.generate import DEFAULT_SIG
from qrc1.semantics import ModelError, countermodel_from_dict, countermodel_to_dict
from qrc1.syntax import QRCError, parse_sequent, signature_str

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


def _replaced(doc, path, value):
    if not path:
        return value
    doc = copy.deepcopy(doc)
    node = doc
    for key in path[:-1]:
        node = node[key]
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
