"""Checks on the package source itself."""

import ast
import os
from collections import Counter

SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src", "nclat")


def _names_used(node):
    """How often each name is read as a bare name or an attribute in node."""
    return Counter(
        n.id if isinstance(n, ast.Name) else n.attr
        for n in ast.walk(node)
        if isinstance(n, (ast.Name, ast.Attribute))
    )


def test_every_definition_has_a_caller_in_the_package():
    # a function or class that nothing in src/ names outside its own body
    # is called by its tests alone, so it belongs in the tests
    trees = []
    for fname in sorted(os.listdir(SRC)):
        if fname.endswith(".py") and fname != "__init__.py":
            with open(os.path.join(SRC, fname), encoding="utf-8") as f:
                trees.append((fname, ast.parse(f.read(), fname)))
    used = sum((_names_used(tree) for _, tree in trees), Counter())
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    uncalled = [
        f"{fname}:{node.lineno} {node.name}"
        for fname, tree in trees
        for node in ast.walk(tree)
        if isinstance(node, defs)
        and not (node.name.startswith("__") and node.name.endswith("__"))
        and used[node.name] == _names_used(node)[node.name]
    ]
    assert uncalled == []
