import ast
import importlib
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def test_every_script_entry_point_resolves_to_a_callable():
    scripts = tomllib.loads(PYPROJECT.read_text())["project"].get("scripts", {})
    for name, target in scripts.items():
        module, _, attribute = target.partition(":")
        assert callable(getattr(importlib.import_module(module), attribute)), name


def test_every_library_definition_is_used_somewhere():
    """Each function, class, method and module-level name under src/quanvrob is named outside its definition.

    A module-level name is one that a statement at the top of a module
    assigns.  A use is a name, an attribute or an import in src/, tests/ or
    perfbench/.
    """
    definitions, uses = [], {}
    for path in sorted(path for d in ("src", "tests", "perfbench") for path in (PYPROJECT.parent / d).rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        if "quanvrob" in path.parts:
            for statement in tree.body:
                if isinstance(statement, (ast.Assign, ast.AnnAssign)):
                    targets = statement.targets if isinstance(statement, ast.Assign) else [statement.target]
                    definitions += [
                        (node.id, path, statement.lineno, statement.end_lineno)
                        for target in targets
                        for node in ast.walk(target)
                        if isinstance(node, ast.Name) and not node.id.startswith("__")
                    ]
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if "quanvrob" in path.parts and not node.name.startswith("__"):
                    definitions.append((node.name, path, node.lineno, node.end_lineno))
            elif isinstance(node, ast.Name):
                uses.setdefault(node.id, []).append((path, node.lineno))
            elif isinstance(node, ast.Attribute):
                uses.setdefault(node.attr, []).append((path, node.lineno))
            elif isinstance(node, ast.alias):
                uses.setdefault(node.name.rpartition(".")[2], []).append((path, node.lineno))
    unused = [
        f"{path.name}:{first} {name}"
        for name, path, first, last in definitions
        if not any(p != path or not first <= line <= last for p, line in uses.get(name, ()))
    ]
    assert not unused, unused
