"""Source hygiene of the package, read with `ast` alone: no module imports a
name it never uses, and no module-level private name is left that nothing
in `src/` references. Moving code between modules leaves such imports and
helpers behind without any other test noticing."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "sstopo"
MODULES = sorted(PACKAGE.glob("*.py"))


def _tree(path):
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _imported(tree):
    """The names each import statement of the module binds."""
    names = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names += [a.asname or a.name for a in node.names]
    return names


def _used(tree):
    """Every bare name the module reads."""
    return {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}


def _private_definitions(tree):
    """The module-level private names the module defines."""
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names += [t.id for t in targets if isinstance(t, ast.Name)]
    return [n for n in names if n.startswith("_") and not n.startswith("__")]


def _references():
    """Every name read, referred to by attribute or imported anywhere in the
    package."""
    refs = set()
    for path in MODULES:
        tree = _tree(path)
        refs |= _used(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute):
                refs.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                refs |= {a.name for a in node.names}
    return refs


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "__init__.py"],
                         ids=lambda p: p.name)
def test_every_import_is_used(path):
    tree = _tree(path)
    used = _used(tree)
    assert [name for name in _imported(tree) if name not in used] == []


def test_every_private_definition_is_referenced():
    refs = _references()
    unreferenced = [f"{path.name}:{name}" for path in MODULES
                    for name in _private_definitions(_tree(path)) if name not in refs]
    assert unreferenced == []


def test_the_checks_see_a_dead_import_and_a_dead_helper():
    tree = ast.parse("import os\nfrom x import a, b as c\n\ndef _dead():\n    return a\n")
    assert [n for n in _imported(tree) if n not in _used(tree)] == ["os", "c"]
    assert _private_definitions(tree) == ["_dead"]
