"""The trusted base, the modules that hold the parser and the two certificate
checkers, imports nothing at module level from the decision procedure, the
term-model construction or the generators (ROADMAP item 11)."""

import ast
from pathlib import Path

import qrc1

SRC = Path(qrc1.__file__).parent
TRUSTED = ("syntax", "calculus", "semantics")
UNTRUSTED = {"canonical", "decider", "termmodel", "generate"}


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
