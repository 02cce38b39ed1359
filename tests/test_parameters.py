"""No function of the package takes a parameter it never reads.

A fixed function of t is a module-level value, not a factory of a
context it ignores.  A scan of ``src/glaisher/*.py`` fails on any ``def``
whose body never loads one of its parameters; a nested function or
lambda that reads it counts as a read.  Lambdas are out of scope: a
callback may take an argument only because its siblings need it.
"""

from __future__ import annotations

import ast
from pathlib import Path

import glaisher

SOURCES = Path(glaisher.__file__).parent


def _unread_parameters(tree):
    """(line, function, parameter) of each parameter its ``def`` never reads."""
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        args = node.args
        params = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]
        params += [a.arg for a in (args.vararg, args.kwarg) if a is not None]
        read = {
            name.id
            for statement in node.body
            for name in ast.walk(statement)
            if isinstance(name, ast.Name) and isinstance(name.ctx, ast.Load)
        }
        found += [(node.lineno, node.name, p) for p in params if p not in read]
    return found


def test_the_scan_finds_an_unread_parameter():
    tree = ast.parse("def factory(ctx):\n    def raw(t):\n        return t\n    return raw\n")
    assert _unread_parameters(tree) == [(1, "factory", "ctx")]
    tree = ast.parse("def factory(ctx):\n    return lambda t: t * ctx.scale\n")
    assert _unread_parameters(tree) == []


def test_no_function_takes_a_parameter_it_never_reads():
    misses = [
        f"{path.name}:{line} {function}({parameter})"
        for path in sorted(SOURCES.glob("*.py"))
        for line, function, parameter in _unread_parameters(ast.parse(path.read_text()))
    ]
    assert misses == []
