"""Every module-level import in the package is used, and every exported
name has a user."""

from __future__ import annotations

import ast
import re
from pathlib import Path

import gradnotch

PACKAGE = Path(gradnotch.__file__).parent
ROOT = Path(__file__).resolve().parents[1]


def _exported(tree: ast.Module) -> list:
    """The names a module lists in __all__."""
    return [elt.value for node in tree.body
            if isinstance(node, ast.Assign)
            and any(isinstance(t, ast.Name) and t.id == "__all__"
                    for t in node.targets)
            for elt in node.value.elts]


def _unused_imports(tree: ast.Module) -> list:
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound[name] = node.lineno
        elif (isinstance(node, ast.ImportFrom)
              and node.module != "__future__"):
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name)}
    # names a module re-exports count as used
    used |= set(_exported(tree))
    return sorted(f"{name} (line {line})" for name, line in bound.items()
                  if name not in used)


def _unreferenced_exports(trees: dict, texts: list) -> list:
    """Names in a module's __all__ that no module of trees references (as
    a name or an attribute; a definition, an import or the __all__ entry
    is not a reference) and that no text of texts mentions as a word."""
    referenced = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
    return sorted(
        f"{module}: {name}" for module, tree in trees.items()
        for name in _exported(tree)
        if name not in referenced
        and not any(re.search(rf"\b{re.escape(name)}\b", text)
                    for text in texts))


def test_guard_flags_an_unused_import():
    tree = ast.parse("import math\nfrom os import path, sep\nprint(sep)\n")
    assert _unused_imports(tree) == ["math (line 1)", "path (line 2)"]


def test_every_module_level_import_is_used():
    modules = sorted(PACKAGE.glob("*.py"))
    assert len(modules) >= 8
    unused = {path.name: _unused_imports(ast.parse(path.read_text()))
              for path in modules}
    assert {name: found for name, found in unused.items() if found} == {}


def test_guard_flags_an_unreferenced_export():
    trees = {
        "a.py": ast.parse("__all__ = ['used', 'documented', 'dead']\n"
                          "def used(): pass\n"
                          "def documented(): pass\n"
                          "def dead(): pass\n"),
        "b.py": ast.parse("from . import a\n"
                          "from .a import dead\n"
                          "a.used()\n"),
    }
    assert _unreferenced_exports(trees, ["call `documented()`; deadline"]) \
        == ["a.py: dead"]


def test_every_exported_name_has_a_user():
    # a user is package code, the README, the benchmark harness or the
    # acceptance gate; a name only other tests use is dead API
    trees = {path.name: ast.parse(path.read_text())
             for path in sorted(PACKAGE.glob("*.py"))}
    texts = [(ROOT / "README.md").read_text(),
             (ROOT / "tests" / "test_acceptance.py").read_text()]
    texts += [path.read_text()
              for path in sorted((ROOT / "perfbench").rglob("*.py"))]
    assert len(trees) >= 8 and len(texts) >= 4
    assert _unreferenced_exports(trees, texts) == []
