"""The certificate loaders and the parser are the base of trust: on any JSON
value or text they return a value or raise a QRCError, never anything else."""

import copy

from hypothesis import given, strategies as st

from qrc1.calculus import check_derivation, derivation_from_dict, derivation_to_dict
from qrc1.decider import decide
from qrc1.generate import DEFAULT_SIG
from qrc1.semantics import countermodel_from_dict, countermodel_to_dict
from qrc1.syntax import QRCError, parse_sequent

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
