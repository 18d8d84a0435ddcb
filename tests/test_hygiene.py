"""Import hygiene of the package sources, checked with `ast` since no
linter is a dependency: no module imports a name it never uses, and
every name in an `__all__` resolves."""

import ast
import importlib
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "voxrestore"
MODULES = sorted(SRC.glob("*.py"))


def _exported(tree: ast.Module) -> list:
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            return list(ast.literal_eval(node.value))
    return []


def _unused_imports(tree: ast.Module) -> list:
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    used.update(_exported(tree))     # a re-export is a use
    return sorted(f"{name} (line {line})" for name, line in imported.items()
                  if name not in used)


def test_sources_are_found():
    assert {"__init__.py", "restore.py", "cli.py"} <= {p.name for p in MODULES}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert _unused_imports(ast.parse(path.read_text(encoding="utf-8"))) == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_all_names_resolve(path):
    names = _exported(ast.parse(path.read_text(encoding="utf-8")))
    module = importlib.import_module(
        "voxrestore" if path.stem == "__init__" else f"voxrestore.{path.stem}")
    assert [n for n in names if not hasattr(module, n)] == []


def test_checks_catch_leftovers():
    tree = ast.parse("import os\nfrom .speaker import embed, mfcc\n"
                     "__all__ = ['embed']\n")
    assert _unused_imports(tree) == ["mfcc (line 2)", "os (line 1)"]
