"""No function of the package takes a parameter it never reads, and no
private module-level name is left that nothing reads.

A fixed function of t is a module-level value, not a factory of a
context it ignores.  A scan of ``src/glaisher/*.py`` fails on any ``def``
whose body never loads one of its parameters; a nested function or
lambda that reads it counts as a read.  Lambdas are out of scope: a
callback may take an argument only because its siblings need it.

A second scan fails on any private (``_name``) function, class, constant
or import bound at a module's top level that nothing in the package
reads: not its own module, by name, nor another module, by importing it
or as an attribute.  A coefficient function left behind by the series it
fed is such a name.

A third scan fails on any name a module imports from ``mpmath`` or
``mpmath.libmp`` (or any ``mpmath`` module it imports whole) and never
reads: a libmp call left behind by a loop that moved to integers.
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


def _is_private(name):
    return name.startswith("_") and not name.startswith("__")


def _unread_private_names(sources):
    """(module, line, name) of each private top-level name of ``sources``
    (module name -> source text) that nothing in them reads."""
    trees = {module: ast.parse(text) for module, text in sources.items()}
    loads = {module: set() for module in trees}
    imported, attributes = set(), set()
    for module, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                loads[module].add(node.id)
            elif isinstance(node, ast.Attribute):
                attributes.add(node.attr)
            elif isinstance(node, ast.ImportFrom) and node.level:
                imported.update((node.module, alias.name) for alias in node.names)
    found = []
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                names = [alias.asname or alias.name for alias in node.names]
            else:
                continue
            found += [
                (module, node.lineno, name) for name in names
                if _is_private(name) and name not in loads[module]
                and (module, name) not in imported and name not in attributes
            ]
    return found


def test_the_scan_finds_an_unread_private_name():
    sources = {
        "series": "_COEFF = 1\n_USED = 2\n_SHARED = 3\n_ATTR = 4\nVALUE = _USED\n",
        "user": "from .series import _SHARED\nfrom . import series\n"
                "def f():\n    return _SHARED + series._ATTR\n",
    }
    assert _unread_private_names(sources) == [("series", 1, "_COEFF")]
    sources["user"] = "from .series import _SHARED\n"
    assert _unread_private_names(sources) == [
        ("series", 1, "_COEFF"), ("series", 4, "_ATTR"), ("user", 1, "_SHARED")]


def test_no_private_name_is_left_unread():
    sources = {path.stem: path.read_text() for path in sorted(SOURCES.glob("*.py"))}
    assert _unread_private_names(sources) == []


def _unread_mpmath_imports(text):
    """(line, name) of each name imported from mpmath, or an mpmath module
    imported whole, that the module's source never reads."""
    tree = ast.parse(text)
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "mpmath":
            names = [alias.asname or alias.name for alias in node.names]
        elif isinstance(node, ast.Import):
            names = [alias.asname or alias.name.split(".")[0] for alias in node.names
                     if alias.name.split(".")[0] == "mpmath"]
        else:
            continue
        found += [(node.lineno, name) for name in names if name not in read]
    return found


def test_the_scan_finds_an_unread_mpmath_import():
    text = ("import mpmath\nfrom mpmath import mp, mpf\n"
            "from mpmath.libmp import fzero, mpf_add, round_nearest\n"
            "def f(x):\n    return mpf(mpf_add(x, x, mp.prec, round_nearest))\n")
    assert _unread_mpmath_imports(text) == [(1, "mpmath"), (3, "fzero")]
    assert _unread_mpmath_imports("import mpmath.libmp\nx = mpmath.libmp.fzero\n") == []


def test_no_module_imports_an_mpmath_name_it_never_reads():
    misses = [
        f"{path.name}:{line} {name}"
        for path in sorted(SOURCES.glob("*.py"))
        for line, name in _unread_mpmath_imports(path.read_text())
    ]
    assert misses == []
