"""The trusted base, the modules that hold the parser and the two certificate
checkers, imports nothing at module level from the decision procedure, the
term-model construction or the generators, and defines nothing that its
checkers, parsers, loaders and serializers do not use (ROADMAP item 11)."""

import ast
import re
from pathlib import Path

import qrc1

SRC = Path(qrc1.__file__).parent
TRUSTED = ("syntax", "calculus", "semantics")
UNTRUSTED = {"canonical", "decider", "derived", "termmodel", "generate"}


def _qrc1_imports(node: ast.AST, scope: str = "", in_function: bool = False):
    """(scope, in_function, module) for each qrc1 module imported under node,
    where scope names the enclosing classes and functions."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            inner = f"{scope}.{child.name}" if scope else child.name
            function = in_function or not isinstance(child, ast.ClassDef)
            yield from _qrc1_imports(child, inner, function)
        elif isinstance(child, ast.Import):
            for alias in child.names:
                package, _, module = alias.name.partition(".")
                if package == "qrc1" and module:
                    yield scope, in_function, module.split(".")[0]
        elif isinstance(child, ast.ImportFrom):
            path = (child.module or "").split(".")
            if child.level == 0:
                if path[0] != "qrc1":
                    continue
                path = path[1:]
            # `from . import x` and `from qrc1 import x` import the modules x
            for module in [path[0]] if path and path[0] else [alias.name for alias in child.names]:
                yield scope, in_function, module
        else:
            yield from _qrc1_imports(child, scope, in_function)


def test_the_trusted_base_imports_no_decision_procedure_at_module_level():
    module_level, function_level = set(), []
    for name in TRUSTED:
        tree = ast.parse((SRC / f"{name}.py").read_text(encoding="utf-8"))
        for scope, in_function, module in _qrc1_imports(tree):
            if not in_function:
                module_level.add((name, module))
            elif module in UNTRUSTED:
                function_level.append((name, scope, module))
    # the walk sees `from . import syntax` and `from .syntax import ...`
    assert {("calculus", "syntax"), ("semantics", "syntax")} <= module_level
    assert not {module for _, module in module_level} & UNTRUSTED, module_level
    # the one known exception until ProofSearch goes (ROADMAP item 2)
    assert function_level == [("calculus", "ProofSearch.prove", "decider")]


# where the walk starts: the checkers, the parsers, the loaders and the serializers
ROOTS = re.compile(
    r"check_derivation|derivation_(to|from)_dict|parse_\w+|read_signed_file|pretty\w*|signature_str"
    r"|forces|check_adequate|Countermodel|(counter)?model_\w+"
)

# reached by no root, and kept in the trusted base because perfbench, which
# may not change with the code it measures, imports them from there; each goes
# with the benchmark change of ROADMAP item 2
PERFBENCH_PINNED = {
    ("syntax", "sorted_formulas"),  # perfbench/workloads.py imports it (ROADMAP item 2)
    ("syntax", "sort_key"),  # sorted_formulas' key, one walk giving (size, tag) (ROADMAP item 2)
    ("calculus", "ProofSearch"),  # perfbench/tracing.py patches ProofSearch.prove (ROADMAP item 2)
    ("calculus", "SearchStats"),  # ProofSearch.stats, which the tracer reads (ROADMAP item 2)
    ("calculus", "prove"),  # perfbench/tests imports it (ROADMAP item 2)
    ("semantics", "default_assignment"),  # perfbench/tests calls it (ROADMAP item 2)
}


def _trusted_definitions():
    """The module-level statement defining each (module, name) of the trusted
    base, and per module the (module, name) each name in it stands for: its
    own definitions and the names it imports from another trusted module."""
    definitions, scopes = {}, {}
    for module in TRUSTED:
        scope = scopes[module] = {}
        for stmt in ast.parse((SRC / f"{module}.py").read_text(encoding="utf-8")).body:
            if isinstance(stmt, ast.ImportFrom) and stmt.level == 1 and stmt.module in TRUSTED:
                scope.update((a.asname or a.name, (stmt.module, a.name)) for a in stmt.names)
                continue
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                names = [stmt.name]
            elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
                names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
            else:
                continue
            for name in names:
                definitions[module, name] = stmt
                scope[name] = (module, name)
    return definitions, scopes


def test_the_trusted_base_defines_only_what_its_checkers_reach():
    definitions, scopes = _trusted_definitions()
    todo = [key for key in definitions if ROOTS.fullmatch(key[1])]
    assert {("calculus", "check_derivation"), ("semantics", "forces"), ("syntax", "parse_sequent")} <= set(todo)
    reached = set()
    while todo:
        key = todo.pop()
        if key in reached:
            continue
        reached.add(key)
        for node in ast.walk(definitions[key]):
            if isinstance(node, ast.Name):
                target = scopes[key[0]].get(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in TRUSTED:
                target = (node.value.id, node.attr)  # syntax.parse_formula, from `from . import syntax`
            else:
                continue
            if target in definitions:
                todo.append(target)
    assert set(definitions) - reached == PERFBENCH_PINNED
