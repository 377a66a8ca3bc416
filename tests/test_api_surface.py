"""The package keeps no public code that only its own tests call.

Every public module-level function or class in `src/csmulgen` must be
used somewhere in the package outside its own definition, or by a
demo.  Re-exports in `__init__.py` do not count as uses.  Every public
method or property of a class there must likewise be read as an
attribute outside its own body.  Fields of the report and value
classes are not checked: `render_json` reads a metrics report's fields
through `_fields`, not by name.  Every name a module there other
than `__init__.py` imports must be read in that module.
"""

import ast
from pathlib import Path

import pytest

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


def _attributes_read(tree, skip=None):
    """Attribute names loaded anywhere in `tree` outside the node `skip`."""
    read, stack = set(), [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            read.add(node.attr)
        stack.extend(ast.iter_child_nodes(node))
    return read


@pytest.fixture(scope="module")
def trees():
    return {path.name: _parse(path) for path in sorted(PACKAGE.glob("*.py"))
            if path.name != "__init__.py"}


@pytest.fixture(scope="module")
def demo_trees():
    return [_parse(path) for path in sorted((ROOT / "demos").glob("*.py"))]


def test_every_public_definition_has_a_caller_outside_the_tests(trees, demo_trees):
    demos = set()
    for tree in demo_trees:
        demos |= _used_names(tree)
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


def test_every_public_method_is_read_outside_its_own_body(trees, demo_trees):
    demos = set()
    for tree in demo_trees:
        demos |= _attributes_read(tree)
    unread = []
    for module, tree in trees.items():
        for cls in tree.body:
            if not isinstance(cls, ast.ClassDef):
                continue
            for method in cls.body:
                if (not isinstance(method, ast.FunctionDef)
                        or method.name.startswith("_")):
                    continue
                read = set(demos)
                for other_tree in trees.values():
                    read |= _attributes_read(other_tree, skip=method)
                if method.name not in read:
                    unread.append(f"{module}:{cls.name}.{method.name}")
    assert unread == []


def test_every_exported_name_resolves():
    missing = [name for name in csmulgen.__all__ if not hasattr(csmulgen, name)]
    assert missing == []


def test_every_imported_name_is_read_in_its_module(trees):
    unread = []
    for module, tree in trees.items():
        imported = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported.update((a.asname or a.name).partition(".")[0] for a in node.names)
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                imported.update(a.asname or a.name for a in node.names)
        read = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        unread += [f"{module}: {name}" for name in sorted(imported - read)]
    assert unread == []
