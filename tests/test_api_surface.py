"""Every name a goerw module exports in __all__ exists there and serves the
program: the package's own code reads it outside its definition, or the
benchmark (perfbench/) calls, reads or patches it. A module without
__all__ is held to the same rule for each public top-level def, class or
assignment (imported names are the defining module's). A name only the
tests use is either shipping code's or goes: the rule has no exceptions.

An import a module never reads is there only for the benchmark's tracer,
which wraps names by (owner module, attribute): each such import must be
one the tracer patches, so a leftover import, or one the tracer stopped
patching, is named for deletion."""

import ast
import functools
import importlib.util
import types
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = sorted((ROOT / "src" / "goerw").glob("*.py"))
BENCH = sorted((ROOT / "perfbench").glob("*.py"))

def parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def exported(module: ast.Module) -> list[str]:
    for stmt in module.body:
        if (isinstance(stmt, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in stmt.targets)):
            return [ast.literal_eval(e) for e in stmt.value.elts]
    return []


def defined(module: ast.Module) -> dict[str, ast.stmt]:
    """Top-level name -> the statement that binds it."""
    out = {}
    for stmt in module.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            out[stmt.name] = stmt
        elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
            for t in stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]:
                if isinstance(t, ast.Name):
                    out[t.id] = stmt
        elif isinstance(stmt, (ast.Import, ast.ImportFrom)):
            for a in stmt.names:
                out[a.asname or a.name.split(".")[0]] = stmt
    return out


def reads(module: ast.Module, strings: bool = False) -> list[tuple[ast.stmt, set[str]]]:
    """(top-level statement, the names it reads) of a module: loaded names
    and attributes, an import alias read as the name it imports, and with
    strings every string constant (the benchmark patches by name)."""
    alias = {a.asname: a.name for node in ast.walk(module)
             if isinstance(node, ast.ImportFrom) for a in node.names if a.asname}
    out = []
    for stmt in module.body:
        names = set()
        for node in ast.walk(stmt):
            if isinstance(node, ast.Name):
                names.add(alias.get(node.id, node.id))
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
                names.add(node.value)
        out.append((stmt, names))
    return out


MODULES = {path.stem: parse(path) for path in SRC}
SRC_READS = [r for module in MODULES.values() for r in reads(module)]
BENCH_READS = [r for path in BENCH for r in reads(parse(path), strings=True)]
EXPORTS = [(stem, name) for stem, module in MODULES.items() for name in exported(module)]


def unused(stem: str, name: str) -> bool:
    own = defined(MODULES[stem]).get(name)
    return not any(name in names for stmt, names in SRC_READS + BENCH_READS if stmt is not own)


def test_modules_export_something():
    assert {stem for stem, _ in EXPORTS} == {"environment", "percolation", "tree", "walk"}


@pytest.mark.parametrize("stem,name", EXPORTS, ids=[f"{s}.{n}" for s, n in EXPORTS])
def test_export_exists_and_is_used(stem, name):
    assert name in defined(MODULES[stem]), f"{stem}.__all__ names {name}, which it lacks"
    assert not unused(stem, name), (f"{stem}.{name} is exported, but no code in src/ "
                                    "outside its definition and nothing in perfbench/ uses it")


PUBLIC = [(stem, name) for stem, module in MODULES.items() if not exported(module)
          for name, stmt in defined(module).items()
          if not name.startswith("_") and not isinstance(stmt, (ast.Import, ast.ImportFrom))]


def test_modules_without_all_define_something():
    assert {stem for stem, _ in PUBLIC} == {"analysis", "cli", "errors"}


@pytest.mark.parametrize("stem,name", PUBLIC, ids=[f"{s}.{n}" for s, n in PUBLIC])
def test_public_name_is_used(stem, name):
    assert not unused(stem, name), (f"{stem}.{name} is public, but no code in src/ outside "
                                    "its definition and nothing in perfbench/ uses it")


def unread_imports(module: ast.Module) -> set[str]:
    """The names a module's top-level imports bind that no other statement
    of the module reads (__future__ imports aside)."""
    imports = (ast.Import, ast.ImportFrom)
    bound = {a.asname or a.name.split(".")[0] for stmt in module.body
             if isinstance(stmt, imports) and getattr(stmt, "module", None) != "__future__"
             for a in stmt.names}
    read = {node.id for stmt in module.body if not isinstance(stmt, imports)
            for node in ast.walk(stmt) if isinstance(node, ast.Name)}
    return bound - read


@functools.cache
def patched() -> set[tuple[str, str]]:
    """(goerw module, attribute) of every module-level name the benchmark's
    tracer patches (perfbench/tracer.py replacements)."""
    spec = importlib.util.spec_from_file_location("perfbench_tracer",
                                                  ROOT / "perfbench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return {(owner.__name__.removeprefix("goerw."), attr)
            for owner, attr, _ in tracer.replacements(tracer.Tracer())
            if isinstance(owner, types.ModuleType)}


UNREAD = sorted((stem, name) for stem, module in MODULES.items() if stem != "__init__"
                for name in unread_imports(module))


@pytest.mark.parametrize("stem,name", UNREAD, ids=[f"{s}.{n}" for s, n in UNREAD])
def test_unread_import_is_patched_by_the_tracer(stem, name):
    assert (stem, name) in patched(), (f"{stem} imports {name} but never reads it, and "
                                       "perfbench/tracer.py does not patch it there: delete it")
