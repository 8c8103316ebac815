"""The shipped package holds only what the program runs: every module-level
function and class under src/deepdict is referenced by name somewhere else
in the package, or is a console-script entry point.  Reference forms that
only tests call belong in tests/oracles.py."""

import ast
import collections
import glob
import os
import tomllib

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _used_names(node):
    """How often each name is used under node: as a bare name or as the
    attribute of another object."""
    counts = collections.Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            counts[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            counts[sub.attr] += 1
    return counts


def unreferenced_definitions(package_dir, pyproject):
    """Names of module-level functions and classes under package_dir that
    nothing outside their own definition uses, sorted."""
    trees = {}
    for path in sorted(glob.glob(os.path.join(package_dir, "*.py"))):
        with open(path, encoding="utf-8") as fh:
            trees[path] = ast.parse(fh.read(), path)
    used = collections.Counter()
    for tree in trees.values():
        used += _used_names(tree)
    with open(pyproject, "rb") as fh:
        scripts = tomllib.load(fh)["project"].get("scripts", {})
    used.update(target.rpartition(":")[2] for target in scripts.values())
    unused = []
    for tree in trees.values():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if used[node.name] == _used_names(node)[node.name]:
                    unused.append(node.name)
    return sorted(unused)


def test_every_definition_is_used_by_the_package():
    assert unreferenced_definitions(os.path.join(ROOT, "src", "deepdict"),
                                    os.path.join(ROOT, "pyproject.toml")) == []
