"""The shipped package holds only what the program runs: every module-level
function and class under src/deepdict is referenced by name somewhere else
in the package, or is a console-script entry point.  Reference forms that
only tests call belong in tests/oracles.py.  Every field of a dataclass in
the package is read as an attribute by the package, or by the benchmark
(perfbench/*.py), which uses the package as its API.  Likewise every option
a subcommand declares is read by the command's handler; echoing it into
the output header through vars(args) does not count as reading it."""

import argparse
import ast
import collections
import glob
import os
import tomllib

from deepdict import cli

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


def _parse_all(pattern):
    trees = []
    for path in sorted(glob.glob(pattern)):
        with open(path, encoding="utf-8") as fh:
            trees.append(ast.parse(fh.read(), path))
    return trees


def unreferenced_definitions(package_dir, pyproject):
    """Names of module-level functions and classes under package_dir that
    nothing outside their own definition uses, sorted."""
    trees = _parse_all(os.path.join(package_dir, "*.py"))
    used = collections.Counter()
    for tree in trees:
        used += _used_names(tree)
    with open(pyproject, "rb") as fh:
        scripts = tomllib.load(fh)["project"].get("scripts", {})
    used.update(target.rpartition(":")[2] for target in scripts.values())
    unused = []
    for tree in trees:
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if used[node.name] == _used_names(node)[node.name]:
                    unused.append(node.name)
    return sorted(unused)


def test_every_definition_is_used_by_the_package():
    assert unreferenced_definitions(os.path.join(ROOT, "src", "deepdict"),
                                    os.path.join(ROOT, "pyproject.toml")) == []


def _is_dataclass(node):
    for dec in node.decorator_list:
        target = dec.func if isinstance(dec, ast.Call) else dec
        name = target.id if isinstance(target, ast.Name) else getattr(target, "attr", None)
        if name == "dataclass":
            return True
    return False


def unread_fields(package_dir, reader_patterns):
    """(class, field) pairs of the dataclasses under package_dir whose field
    no code under package_dir or in the files matching reader_patterns
    reads as an attribute, sorted."""
    package = _parse_all(os.path.join(package_dir, "*.py"))
    read = set()
    for tree in package + [t for pattern in reader_patterns for t in _parse_all(pattern)]:
        read.update(node.attr for node in ast.walk(tree)
                    if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load))
    unread = []
    for tree in package:
        for node in tree.body:
            if isinstance(node, ast.ClassDef) and _is_dataclass(node):
                unread += [(node.name, item.target.id) for item in node.body
                           if isinstance(item, ast.AnnAssign)
                           and isinstance(item.target, ast.Name)
                           and item.target.id not in read]
    return sorted(unread)


def test_every_dataclass_field_is_read():
    assert unread_fields(os.path.join(ROOT, "src", "deepdict"),
                         [os.path.join(ROOT, "perfbench", "*.py")]) == []


def _options_read(functions, name, param, seen):
    """The attributes of `param` that function `name` reads, directly or in
    a module-level helper it passes `param` to.  vars(param) reads none:
    the output header only echoes the options."""
    if (name, param) in seen:
        return set()
    seen.add((name, param))
    read = set()
    for node in ast.walk(functions[name]):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id == param):
            read.add(node.attr)
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id in functions):
            continue
        callee = functions[node.func.id]
        passed = list(enumerate(node.args))
        passed += [(kw.arg, kw.value) for kw in node.keywords]
        for where, arg in passed:
            if isinstance(arg, ast.Name) and arg.id == param:
                inner = callee.args.args[where].arg if isinstance(where, int) else where
                read |= _options_read(functions, node.func.id, inner, seen)
    return read


def unread_options(cli_path, parser):
    """(command, option dest) pairs that a subcommand declares and its
    handler cmd_<command> never reads, sorted."""
    with open(cli_path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read(), cli_path)
    functions = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    commands = next(action.choices for action in parser._actions
                    if isinstance(action, argparse._SubParsersAction))
    unread = []
    for command, sub in commands.items():
        handler = functions["cmd_" + command]
        read = _options_read(functions, handler.name, handler.args.args[0].arg, set())
        unread += [(command, action.dest) for action in sub._actions
                   if action.dest not in read | {"help"}]
    return sorted(unread)


def test_every_option_is_read_by_its_command():
    assert unread_options(os.path.join(ROOT, "src", "deepdict", "cli.py"),
                          cli._build_parser()) == []
