"""Every production definition must have a production caller.

Each module-level function or class under ``src/stepgate``, and each public
non-dunder method, must be named somewhere in ``src/`` or ``perfbench/``
other than at its own definition.  Code that only tests call belongs in the
tests.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "stepgate"

# Definitions kept ahead of their caller; each names the change that gives
# it one.
ALLOWED: set[str] = set()


def _definitions(tree):
    """(name, line) of module-level functions and classes, and of public
    non-dunder methods of module-level classes."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node.lineno
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if (isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                        and not item.name.startswith("_")):
                    yield item.name, item.lineno


def _uses(tree):
    """Every name a module refers to: loads, attributes, imports, and
    identifier-shaped string constants (``monkeypatch.setattr`` targets)."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name.rsplit(".", 1)[-1]
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) \
                and node.value.isidentifier():
            yield node.value


def test_no_production_definition_is_named_only_by_tests():
    trees = {path: ast.parse(path.read_text(), str(path))
             for folder in (ROOT / "src", ROOT / "perfbench")
             for path in sorted(folder.rglob("*.py"))
             if not path.name.startswith("test_")}
    used = {name for tree in trees.values() for name in _uses(tree)}
    orphans = {name: f"{path.relative_to(ROOT)}:{line}"
               for path, tree in trees.items() if PACKAGE in path.parents
               for name, line in _definitions(tree) if name not in used}
    unexpected = sorted(f"{orphans[n]} {n}" for n in set(orphans) - ALLOWED)
    assert not unexpected, \
        "defined in src/ but never named there or in perfbench/: " + ", ".join(unexpected)
    # an entry whose definition gained a caller, or is gone, leaves the list
    assert ALLOWED <= set(orphans)
