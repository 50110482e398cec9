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
