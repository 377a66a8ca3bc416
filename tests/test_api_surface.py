"""The package keeps no public code that only its own tests call.

Every public module-level function or class in `src/csmulgen` must be
used somewhere in the package outside its own definition, or by a
demo.  Re-exports in `__init__.py` do not count as uses.
"""

import ast
from pathlib import Path

import csmulgen

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "csmulgen"


def _parse(path):
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _used_names(tree, skip=None):
    """Names read as a Name, an Attribute or an import, leaving out the
    body of the top-level def or class called `skip`."""
    used = set()
    for top in tree.body:
        if isinstance(top, (ast.FunctionDef, ast.ClassDef)) and top.name == skip:
            continue
        for node in ast.walk(top):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                used.update(alias.name for alias in node.names)
    return used


def test_every_public_definition_has_a_caller_outside_the_tests():
    demos = set()
    for path in sorted((ROOT / "demos").glob("*.py")):
        demos |= _used_names(_parse(path))
    trees = {path.name: _parse(path) for path in sorted(PACKAGE.glob("*.py"))
             if path.name != "__init__.py"}
    uncalled = []
    for module, tree in trees.items():
        for node in tree.body:
            if (not isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    or node.name.startswith("_")):
                continue
            used = set(demos)
            for other, other_tree in trees.items():
                used |= _used_names(other_tree, skip=node.name if other == module else None)
            if node.name not in used:
                uncalled.append(f"{module}:{node.name}")
    assert uncalled == []


def test_every_exported_name_resolves():
    missing = [name for name in csmulgen.__all__ if not hasattr(csmulgen, name)]
    assert missing == []
