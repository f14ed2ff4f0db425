"""Every module-level import in the package is used, every exported
name has a user, and every command-line option is read."""

from __future__ import annotations

import argparse
import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import gradnotch
from gradnotch import cli

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


def _loaded_after(module: str, bare: bool = False) -> set:
    """The gradnotch modules a fresh interpreter holds after importing
    module; with bare, under an empty package, so that the package's
    __init__ loads nothing and only module's own imports show."""
    stub = ("import types; pkg = types.ModuleType('gradnotch'); "
            f"pkg.__path__ = [{str(PACKAGE)!r}]; "
            "sys.modules['gradnotch'] = pkg; ") if bare else ""
    code = (f"import sys; {stub}import {module}; "
            "print(*(name for name in sys.modules "
            "if name.split('.')[0] == 'gradnotch'))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True,
                         env={**os.environ, "PYTHONPATH": str(PACKAGE.parent)})
    return set(out.stdout.split())


def test_each_face_condition_route_loads_without_the_other():
    # basis assembles the closed-form face conditions, and fields runs
    # the series pipeline that checks them: neither loads the other, and
    # the package's own names need no pipeline
    basis = _loaded_after("gradnotch.basis", bare=True)
    fields = _loaded_after("gradnotch.fields", bare=True)
    assert "gradnotch.basis" in basis and "gradnotch.fields" not in basis
    assert "gradnotch.fields" in fields and "gradnotch.basis" not in fields
    assert "gradnotch.fields" not in _loaded_after("gradnotch")


def test_fields_imports_no_numpy():
    # the pipeline is series algebra on Python floats
    tree = ast.parse((PACKAGE / "fields.py").read_text())
    imported = {alias.name for node in ast.walk(tree)
                if isinstance(node, ast.Import) for alias in node.names}
    imported |= {node.module for node in ast.walk(tree)
                 if isinstance(node, ast.ImportFrom) and node.module}
    assert imported and not any(name.split(".")[0] == "numpy"
                                for name in imported)


def _reads_of_args(tree: ast.Module, name: str) -> set:
    """Attributes that function `name` of tree reads off `args` (as
    args.<attr> or getattr(args, "<attr>", ...)), with those read by the
    module's functions it passes `args` to."""
    funcs = {node.name: node for node in tree.body
             if isinstance(node, ast.FunctionDef)}
    reads, todo, seen = set(), [name], set()
    while todo:
        fn = todo.pop()
        if fn in seen:
            continue
        seen.add(fn)
        for node in ast.walk(funcs[fn]):
            if (isinstance(node, ast.Attribute)
                    and isinstance(node.value, ast.Name)
                    and node.value.id == "args"):
                reads.add(node.attr)
            elif isinstance(node, ast.Call) and isinstance(node.func,
                                                           ast.Name):
                passes_args = [isinstance(arg, ast.Name) and arg.id == "args"
                               for arg in node.args]
                if node.func.id in funcs and any(passes_args):
                    todo.append(node.func.id)
                elif (node.func.id == "getattr" and passes_args[:1] == [True]
                      and isinstance(node.args[1], ast.Constant)):
                    reads.add(node.args[1].value)
    return reads


def _options(parser: argparse.ArgumentParser) -> dict:
    """{subcommand: (handler name, option dests)} of a parser whose
    subcommands set their handler as the `func` default."""
    sub = next(action for action in parser._actions
               if isinstance(action, argparse._SubParsersAction))
    return {name: (command.get_default("func").__name__,
                   [action.dest for action in command._actions
                    if not isinstance(action, argparse._HelpAction)])
            for name, command in sub.choices.items()}


def test_guard_flags_an_unread_option():
    tree = ast.parse("def helper(args):\n    return args.b\n"
                     "def handler(args):\n"
                     "    return args.a + helper(args) + "
                     "getattr(args, 'c', 0)\n"
                     "def lone(args, other):\n"
                     "    return args.a + helper(other)\n")
    assert _reads_of_args(tree, "handler") == {"a", "b", "c"}
    assert _reads_of_args(tree, "lone") == {"a"}


def test_every_cli_option_is_read():
    # an option no handler reads is accepted and silently ignored
    tree = ast.parse(Path(cli.__file__).read_text())
    options = _options(cli._build_parser())
    assert sorted(options) == ["check", "eig", "equilibrium", "field",
                               "sweep"]
    unread = {name: [dest for dest in dests
                     if dest not in _reads_of_args(tree, handler)]
              for name, (handler, dests) in options.items()}
    assert {name: dests for name, dests in unread.items() if dests} == {}
