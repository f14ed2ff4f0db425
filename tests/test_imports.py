"""Every module-level import in the package is used."""

from __future__ import annotations

import ast
from pathlib import Path

import gradnotch

PACKAGE = Path(gradnotch.__file__).parent


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
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            used |= {elt.value for elt in node.value.elts}
    return sorted(f"{name} (line {line})" for name, line in bound.items()
                  if name not in used)


def test_guard_flags_an_unused_import():
    tree = ast.parse("import math\nfrom os import path, sep\nprint(sep)\n")
    assert _unused_imports(tree) == ["math (line 1)", "path (line 2)"]


def test_every_module_level_import_is_used():
    modules = sorted(PACKAGE.glob("*.py"))
    assert len(modules) >= 8
    unused = {path.name: _unused_imports(ast.parse(path.read_text()))
              for path in modules}
    assert {name: found for name, found in unused.items() if found} == {}
