"""The package defines nothing that only tests or nobody use.

Every function or class in src/rsuq must be referenced inside the package
(as a name, an attribute or an import) or exported through rsuq.__all__;
a helper kept only for a test belongs in that test.
"""

import ast
import pathlib

import rsuq

SRC = pathlib.Path(rsuq.__file__).parent


def _trees():
    return {p.name: ast.parse(p.read_text(encoding="utf-8"), str(p))
            for p in sorted(SRC.glob("*.py"))}


def _references(trees):
    names = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                names.update(alias.name.rsplit(".", 1)[-1] for alias in node.names)
    return names


def test_every_definition_is_used_or_exported():
    trees = _trees()
    used = _references(trees) | set(rsuq.__all__)
    unused = sorted(
        f"{module}:{node.name}"
        for module, tree in trees.items()
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and not (node.name.startswith("__") and node.name.endswith("__"))
        and node.name not in used)
    assert not unused, "defined in src/rsuq but never used or exported: " + ", ".join(unused)


def test_every_export_resolves():
    missing = [name for name in rsuq.__all__ if not hasattr(rsuq, name)]
    assert not missing, missing
    assert len(set(rsuq.__all__)) == len(rsuq.__all__)
