"""Every public name a package module defines is read by the program.

A public module-level name (a ``def``, ``class`` or assignment whose name has
no leading underscore) of ``src/interaction_eval/*.py``, ``__init__.py``
aside, must be read by some statement in ``src/``: a load of the name where
it is defined or imported by a ``from .module import``, an attribute of a
``from . import module`` alias, or an annotation. Imports, ``__init__.py``'s
re-exports among them, are not reads. A function that a ``.command(...)``
decorator registers with the click group counts as read. The names that no
statement reads must be exactly those in ``UNREAD``, each with its reason.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "interaction_eval"

TRACED = "the benchmark's tracer patches it; it goes with ROADMAP items 1 and 12"
UNREAD = {
    "collision.is_collision": TRACED,
    "filtering.classify_pair": TRACED,
    "homotopy.classify_pair_windows": TRACED,
    "rollout.PathRollout": TRACED,
    "rollout.interaction_timeline": ("the benchmark's tracer patches it; the demos, the "
                                     "acceptance checks and the package export read it"),
    "sceneio.save_scene": "a documented entry point: it writes a scene file",
    "types.common_window": ("a documented entry point: one pair's co-observed window; the IHS "
                            "stage takes every pair's from one co_observed call"),
    "types.resample_trajectory": TRACED,
}


def defined_names(tree: ast.Module):
    """Each module-level name a ``def``, ``class`` or assignment binds."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            for target in node.targets if isinstance(node, ast.Assign) else [node.target]:
                yield from (n.id for n in ast.walk(target) if isinstance(n, ast.Name))


def _registered(node: ast.AST) -> bool:
    """Whether a function carries a ``@<group>.command(...)`` decorator."""
    return isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and any(
        isinstance(d, ast.Call) and isinstance(d.func, ast.Attribute) and d.func.attr == "command"
        for d in node.decorator_list)


def read_names(module: str, tree: ast.Module) -> set[tuple[str, str]]:
    """(defining module, name) of each package name that a module reads."""
    bound = {name: (module, name) for name in defined_names(tree)}
    modules = {}  # alias of each module bound by ``from . import``
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            for alias in node.names:
                if node.module is None:
                    modules[alias.asname or alias.name] = alias.name
                else:
                    bound[alias.asname or alias.name] = (node.module, alias.name)
    found = set()

    def visit(root):
        for node in ast.walk(root):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load) and node.id in bound:
                found.add(bound[node.id])
            elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                  and node.value.id in modules):
                found.add((modules[node.value.id], node.attr))
            elif _registered(node):
                found.add((module, node.name))
            for ann in (getattr(node, "annotation", None), getattr(node, "returns", None)):
                if isinstance(ann, ast.Constant) and isinstance(ann.value, str):
                    visit(ast.parse(ann.value, mode="eval"))
    visit(tree)
    return found


def unread_names(sources: dict[str, str]) -> dict[str, None]:
    """``module.name`` of each public name, ``__init__`` aside, that no
    module of ``sources`` (module name: source) reads, in source order."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    read = set().union(*(read_names(module, tree) for module, tree in trees.items()))
    return {f"{module}.{name}": None for module, tree in trees.items() if module != "__init__"
            for name in defined_names(tree)
            if not name.startswith("_") and (module, name) not in read}


def test_unread_public_names_are_listed():
    sources = {p.stem: p.read_text(encoding="utf-8") for p in sorted(PACKAGE.glob("*.py"))}
    assert sorted(unread_names(sources)) == sorted(UNREAD)


def test_check_finds_and_excuses():
    sources = {
        "__init__": "from .a import helper, used\n",
        "a": ("import click\n"
              "LIMIT = 3\n"
              "def helper(): pass\n"
              "def used() -> 'Kind': return LIMIT\n"
              "class Kind: pass\n"
              "def _private(): pass\n"
              "@click.group()\ndef main(): pass\n"
              "@main.command('run')\ndef cmd_run(): pass\n"),
        "b": ("from . import a\n"
              "from .a import used as u\n"
              "def entry(): return u(), a.main\n"),
    }
    assert list(unread_names(sources)) == ["a.helper", "b.entry"]
