"""Every name a module imports is used in it (pyflakes' F401, from ``ast``).

An import that only re-exports a name, or is there for a caller that patches
it, says so with ``# noqa: F401`` on one of its lines. Outside the package's
``__init__.py``, the only such caller is the benchmark's tracer, which must
still patch every one of those names.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
FILES = sorted(p for d in ("src", "tests") for p in (ROOT / d).rglob("*.py"))


def imported_names(tree: ast.Module, lines: list[str]):
    """(line, bound name) of each module-level or nested import without a noqa."""
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if any("noqa: F401" in line for line in lines[node.lineno - 1:node.end_lineno]):
            continue
        for alias in node.names:
            if alias.name != "*":
                yield node.lineno, alias.asname or alias.name.split(".")[0]


def used_names(tree: ast.Module) -> set[str]:
    """Every name the module reads, also inside string annotations and ``__all__``."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used.update(ast.literal_eval(node.value))
        for ann in (getattr(node, "annotation", None), getattr(node, "returns", None)):
            if isinstance(ann, ast.Constant) and isinstance(ann.value, str):
                used |= used_names(ast.parse(ann.value, mode="eval"))
    return used


def unused_imports(source: str) -> list[tuple[int, str]]:
    tree = ast.parse(source)
    used = used_names(tree)
    return [(line, name) for line, name in imported_names(tree, source.splitlines())
            if name not in used]


@pytest.mark.parametrize("path", FILES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unused_imports(path):
    found = unused_imports(path.read_text(encoding="utf-8"))
    assert not found, "\n".join(f"{path.relative_to(ROOT)}:{line}: {name} imported but unused"
                                for line, name in found)


def test_check_finds_and_excuses():
    source = ("from __future__ import annotations\n"
              "import os, json as j\n"
              "from typing import (  # noqa: F401\n    Any,\n)\n"
              "from pathlib import Path, PurePath\n"
              "import xml.dom\n"
              "def f(x: 'PurePath') -> None:\n    return xml, j\n")
    assert unused_imports(source) == [(2, "os"), (6, "Path")]


def excused_imports(tree: ast.Module, lines: list[str]):
    """Bound name of each import that carries a ``# noqa: F401``."""
    for node in ast.walk(tree):
        if (isinstance(node, (ast.Import, ast.ImportFrom))
                and any("noqa: F401" in line for line in lines[node.lineno - 1:node.end_lineno])):
            yield from (alias.asname or alias.name.split(".")[0] for alias in node.names)


def test_tracer_patches_every_excused_import():
    """Each ``# noqa: F401`` import of a package module (``__init__.py``
    aside) is a name that the benchmark's tracer patches in that module."""
    spec = importlib.util.spec_from_file_location("perfbench_tracing",
                                                  ROOT / "perfbench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    excused = []
    for path in sorted((ROOT / "src" / "interaction_eval").glob("*.py")):
        if path.name == "__init__.py":
            continue
        source = path.read_text(encoding="utf-8")
        module = importlib.import_module(f"interaction_eval.{path.stem}")
        excused += [(module, name)
                    for name in excused_imports(ast.parse(source), source.splitlines())]
    assert excused
    tracer = tracing.Tracer()
    tracer.install()
    try:
        unpatched = [f"{module.__name__}.{name}" for module, name in excused
                     if not hasattr(getattr(module, name), "__wrapped__")]
    finally:
        tracer.uninstall()
    assert not unpatched, f"imported only for the tracer, which does not patch: {unpatched}"
