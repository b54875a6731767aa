"""Every name a goerw module exports in __all__ exists there and serves the
program: the package's own code reads it outside its definition, or the
benchmark (perfbench/) calls, reads or patches it. A name only the tests
use is either shipping code's or goes; one kept for now is listed in
ALLOWED with the reason, and must still be unused."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = sorted((ROOT / "src" / "goerw").glob("*.py"))
BENCH = sorted((ROOT / "perfbench").glob("*.py"))

ALLOWED = {
    "quasi_independence_statistic": "only the tests run it (criterion 09); ROADMAP items 2 "
                                    "and 5 decide whether it ships or goes",
}


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
    if name not in ALLOWED:
        assert not unused(stem, name), (f"{stem}.{name} is exported, but no code in src/ "
                                        "outside its definition and nothing in perfbench/ uses it")


@pytest.mark.parametrize("name", sorted(ALLOWED))
def test_allowed_names_are_still_unused(name):
    """An allowed name that has found a caller comes off the list."""
    (stem,) = [s for s, n in EXPORTS if n == name]
    assert unused(stem, name)
