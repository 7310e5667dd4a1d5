"""Every imported name in the package and the tests is used, and every
function and class of the package is referenced."""
from __future__ import annotations

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted(ROOT.glob("src/dimerlab/*.py"))
SOURCES = sorted([*PACKAGE, *ROOT.glob("tests/*.py")])


def unused_imports(tree: ast.Module) -> list:
    """Names bound by an import of ``tree`` that nothing reads.  A name in
    ``__all__`` counts as read, and ``from __future__`` binds none."""
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            used.update(ast.literal_eval(node.value))
    return sorted((line, name) for name, line in imported.items() if name not in used)


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unused_imports(path):
    assert unused_imports(ast.parse(path.read_text(), str(path))) == []


def test_the_scan_sees_an_unused_import():
    tree = ast.parse("from __future__ import annotations\nimport os, sys as system\n"
                     "from a.b import c, d\n__all__ = ['d']\nprint(system)\n")
    assert unused_imports(tree) == [(2, "os"), (3, "c")]


def definitions(tree: ast.Module) -> list:
    """(line, name) of every function and class that ``tree`` defines,
    methods included; dunder methods are exempt."""
    return sorted((node.lineno, node.name) for node in ast.walk(tree)
                  if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                  and not (node.name.startswith("__") and node.name.endswith("__")))


def references(tree: ast.Module) -> set:
    """Every name that ``tree`` reads as a Name, an Attribute or an import
    alias (the last part of a dotted one); a definition is none of these."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name.rpartition(".")[2])
    return names


def test_every_definition_is_referenced():
    # a function or class of the package that nothing in the package, the
    # tests or the benchmark refers to is dead code
    readers = [*SOURCES, *ROOT.glob("perfbench/*.py")]
    used = set().union(*(references(ast.parse(p.read_text(), str(p))) for p in readers))
    dead = [(p.name, line, name) for p in PACKAGE
            for line, name in definitions(ast.parse(p.read_text(), str(p))) if name not in used]
    assert dead == []


def test_the_scan_sees_a_dead_definition():
    tree = ast.parse("from m import imported\nclass K:\n    def __init__(self): pass\n"
                     "    def method(self): pass\n    def dead(self): pass\n"
                     "def called(): pass\ndef unused(): pass\ncalled(); K().method()\n")
    used = references(tree) | references(ast.parse("import pkg.imported_too"))
    assert [name for _, name in definitions(tree) if name not in used] == ["dead", "unused"]
    assert {"imported", "imported_too"} <= used
