"""Layering: *which* executor runs a plan is decided in one place.

The engine enumerates plans and hands them to an executor
(``repro/engine/executors.py``); no other layer may fork on the backend
name. Walked with :mod:`ast`, so a new ``if backend == "sqlite"``
anywhere else in ``src/repro`` fails here, whatever it is spelled like.
Every module's ``__all__`` must also resolve.
"""

from __future__ import annotations

import ast
import importlib
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"

BACKEND_NAMES = {"memory", "sqlite"}

#: executors.py maps the names to classes, config.py validates them,
#: and net/pool.py guards the forked pool (shared-memory snapshots seed
#: the memory executor's cache — nothing a SQLite worker could use).
MAY_COMPARE = {"engine/executors.py", "api/config.py", "net/pool.py"}


def _trees(root: Path):
    for path in sorted(root.rglob("*.py")):
        yield path.relative_to(SRC).as_posix(), ast.parse(path.read_text())


def test_backend_names_are_compared_in_three_modules_only():
    offenders = []
    for name, tree in _trees(SRC):
        if name in MAY_COMPARE:
            continue
        for node in ast.walk(tree):
            if not isinstance(node, ast.Compare):
                continue
            for operand in (node.left, *node.comparators):
                # walk the operand: `x in ("memory", "sqlite")` counts
                if any(
                    isinstance(leaf, ast.Constant)
                    and isinstance(leaf.value, str)
                    and leaf.value in BACKEND_NAMES
                    for leaf in ast.walk(operand)
                ):
                    offenders.append(f"{name}:{node.lineno}")
    assert not offenders, offenders


def test_every_exported_name_resolves():
    """Every module imports and every name in every ``__all__`` exists:
    deleting a module or a function must not leave a dangling export
    in a package no other test imports."""
    dangling = []
    for path in sorted(SRC.rglob("*.py")):
        parts = path.relative_to(SRC.parent).with_suffix("").parts
        if parts[-1] == "__main__":
            continue
        if parts[-1] == "__init__":
            parts = parts[:-1]
        module = importlib.import_module(".".join(parts))
        for name in getattr(module, "__all__", ()):
            if not hasattr(module, name):
                dangling.append(f"{module.__name__}.{name}")
    assert not dangling, dangling


def test_net_never_builds_an_evaluation_cache():
    """The pool re-seeds the memory executor's cache through
    ``seed_cache``; constructing an ``EvaluationCache`` by hand would
    re-state the executor's constructor arguments."""
    offenders = []
    for name, tree in _trees(SRC / "net"):
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and any(
                alias.name == "EvaluationCache" for alias in node.names
            ):
                offenders.append(f"{name}:{node.lineno}")
            if isinstance(node, ast.Attribute) and node.attr == "EvaluationCache":
                offenders.append(f"{name}:{node.lineno}")
    assert not offenders, offenders
