"""Hygiene of the package sources, checked with `ast` since no linter
is a dependency: no module imports a name it never uses, every name in
an `__all__` resolves, every function reads all its parameters, and the
package stays within its size ceilings."""

import ast
import dataclasses
import importlib
import inspect
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


# parameters kept unread on purpose: (module, function, parameter) -> reason
UNREAD_PARAMETERS = {
    ("evaluate.py", "run_matrix", "jobs"):
        "a no-op the benchmark still passes as jobs=1; ROADMAP item 3 "
        "makes it real or deletes it",
}


def _unread_parameters(tree: ast.Module) -> list:
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.Lambda)):
            continue
        args = node.args
        params = args.posonlyargs + args.args + args.kwonlyargs
        params += [a for a in (args.vararg, args.kwarg) if a is not None]
        body = node.body if isinstance(node.body, list) else [node.body]
        read = {n.id for stmt in body for n in ast.walk(stmt)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        found += [(getattr(node, "name", "<lambda>"), p.arg)
                  for p in params if p.arg not in read]
    return found


# ceilings on the package's size; raising either needs a reason in
# CHANGES.md
MAX_SOURCE_LINES = 2154
MAX_SETTINGS = 18


def _settings_count() -> int:
    """Keyword defaults of the exported functions and of
    `restore.embedding_table`, plus the fields of the two settings
    dataclasses."""
    package = importlib.import_module("voxrestore")
    restore = importlib.import_module("voxrestore.restore")
    functions = [getattr(package, name) for name in package.__all__]
    functions = [f for f in functions
                 if callable(f) and not inspect.isclass(f)]
    defaults = sum(p.default is not inspect.Parameter.empty
                   for f in functions + [restore.embedding_table]
                   for p in inspect.signature(f).parameters.values())
    return defaults + sum(len(dataclasses.fields(cls)) for cls in
                          (package.FrameParams, package.CorpusConfig))


def test_sources_are_found():
    assert {"__init__.py", "restore.py", "cli.py"} <= {p.name for p in MODULES}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert _unused_imports(ast.parse(path.read_text(encoding="utf-8"))) == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_parameter_is_read(path):
    unread = _unread_parameters(ast.parse(path.read_text(encoding="utf-8")))
    assert [(path.name, fn, p) for fn, p in unread
            if (path.name, fn, p) not in UNREAD_PARAMETERS] == []


def test_unread_parameter_allowlist_is_current():
    unread = {(path.name, fn, p) for path in MODULES
              for fn, p in _unread_parameters(
                  ast.parse(path.read_text(encoding="utf-8")))}
    assert set(UNREAD_PARAMETERS) <= unread


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_all_names_resolve(path):
    names = _exported(ast.parse(path.read_text(encoding="utf-8")))
    module = importlib.import_module(
        "voxrestore" if path.stem == "__init__" else f"voxrestore.{path.stem}")
    assert [n for n in names if not hasattr(module, n)] == []


def test_size_stays_under_its_ceilings():
    lines = sum(len(path.read_text(encoding="utf-8").splitlines())
                for path in MODULES)
    assert lines <= MAX_SOURCE_LINES
    assert _settings_count() <= MAX_SETTINGS


def test_checks_catch_leftovers():
    tree = ast.parse("import os\nfrom .speaker import embed, mfcc\n"
                     "__all__ = ['embed']\n")
    assert _unused_imports(tree) == ["mfcc (line 2)", "os (line 1)"]
    tree = ast.parse("def f(a, b, *args, c=1, **kw):\n"
                     "    g = lambda x, y: x\n"
                     "    b = 2\n"
                     "    return a + c + g(1, 0) + len(kw)\n")
    assert _unread_parameters(tree) == [("f", "b"), ("f", "args"),
                                        ("<lambda>", "y")]
