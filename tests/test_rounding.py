"""The two rounding helpers against libmp: ``smallt._round`` gives the bits
of ``from_man_exp(man, exp, prec, round_nearest)`` and ``smallt._quotient``
those of ``mpf_div`` on the same operands, on signed, exact, trailing-zero
and random operands from 16 to 2700 bits and on every argument the package
hands them in run_all at 20 to 200 digits (and two routes at 400).  A scan
of the sources keeps the libmp calls they replace off the package's
per-evaluation paths, and mpmath's function wrappers out of the engine
and the kernels."""

from __future__ import annotations

import ast
import random
from pathlib import Path

import pytest
from mpmath.libmp import from_int, from_man_exp, mpf_div, round_nearest

import glaisher.smallt
from glaisher.smallt import _quotient, _round

from conftest import KERNEL_MODULES

PRECS = [16, 17, 53, 100, 233, 400, 700, 1000, 2000, 2700]

SOURCES = Path(glaisher.smallt.__file__).parent


def _reference_round(man, exp, prec):
    return from_man_exp(man, exp, prec, round_nearest)


def _reference_quotient(p, q, exp, prec):
    return mpf_div(from_man_exp(p, exp), from_int(q), prec, round_nearest)


def _mantissas(prec, rng):
    """Signed integers of 0 to 3 prec bits: random, with trailing zeros,
    halfway and one off halfway at prec bits, and all ones."""
    found = [0, 1, -1, 2, 3, -(1 << prec), (1 << prec) - 1, (1 << prec) + 1]
    for bits in (1, prec - 1, prec, prec + 1, prec + 2, 2 * prec, 3 * prec):
        m = rng.getrandbits(bits) | 1 << (bits - 1)
        found += [m, -m, m << 37, -(m << 5)]
    for extra in (1, 2, 9):
        top = rng.getrandbits(prec) | 1 << (prec - 1)
        half = (2 * top + 1) << (extra - 1)     # exactly halfway between two prec-bit values
        found += [half, -half, half + 1, half - 1, ((1 << prec + extra) - 1)]
    return found


@pytest.mark.parametrize("prec", PRECS)
def test_round_takes_the_bits_of_from_man_exp(prec):
    rng = random.Random(prec)
    for man in _mantissas(prec, rng):
        for exp in (0, -prec, 17, -3 * prec - 5):
            assert _round(man, exp, prec) == _reference_round(man, exp, prec), (man, exp)


@pytest.mark.parametrize("prec", PRECS)
def test_quotient_takes_the_bits_of_mpf_div(prec):
    rng = random.Random(-prec)
    divisors = [1, 2, 3, 7, 1 << 40, 3 << 40, 10**20 + 39]
    divisors += [rng.getrandbits(b) | 1 << (b - 1) for b in (prec // 2 + 1, prec, prec + 3, 2 * prec)]
    for p in _mantissas(prec, rng):
        for q in divisors:
            for exp in (0, -prec, 11):
                assert _quotient(p, q, exp, prec) == _reference_quotient(p, q, exp, prec), (p, q, exp)
            # an exact quotient, and one with trailing zeros
            assert _quotient(p * q, q, -3, prec) == _reference_quotient(p * q, q, -3, prec), (p, q)
            assert _quotient(p * q << 9, q << 4, 0, prec) == _reference_quotient(p * q << 9, q << 4, 0, prec)


def test_quotient_ties_go_to_even():
    # 3/2 and 5/2 at one bit are exact ties: both go to 2, the even one.
    assert _quotient(3, 2, 0, 1) == _reference_quotient(3, 2, 0, 1) == from_int(2)
    assert _quotient(5, 2, 0, 1) == _reference_quotient(5, 2, 0, 1) == from_int(2)


def test_quotient_remainder_breaks_a_tie():
    # 2^59 + 1/2 + 1/(2q): the quotient's first 66 bits show an exact tie
    # at 60 bits, and only the remainder's sticky bit rounds it up.
    q = (1 << 200) + 1
    p = ((1 << 60) + 1) * q + 1
    want = from_int((1 << 59) + 1)
    assert _quotient(p, 2 * q, 0, 60) == _reference_quotient(p, 2 * q, 0, 60) == want
    assert _quotient(-p, 2 * q, 0, 60) == _reference_quotient(-p, 2 * q, 0, 60) == from_int(-(1 << 59) - 1)


def test_every_captured_argument(kernel_arguments):
    # every argument the package hands the helpers in run_all at 20, 50,
    # 100 and 200 digits, and in route_pain1 and route_hasse at 400
    rounds, quotients = kernel_arguments.rounds, kernel_arguments.quotients
    assert len(rounds) > 30000 and len(quotients) > 10000
    assert max(prec for *_, prec in rounds) > 1332 > min(prec for *_, prec in rounds)
    assert [c for c in rounds if _round(*c) != _reference_round(*c)] == []
    assert [c for c in quotients if _quotient(*c) != _reference_quotient(*c)] == []


def _calls(tree):
    """(callee name, call node, enclosing function name) of every call."""
    found = []

    def visit(node, function):
        for child in ast.iter_child_nodes(node):
            inner = child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) else function
            if isinstance(child, ast.Call):
                callee = child.func
                if isinstance(callee, ast.Attribute) and isinstance(callee.value, ast.Name):
                    name = f"{callee.value.id}.{callee.attr}"
                else:
                    name = getattr(callee, "id", getattr(callee, "attr", None))
                found.append((name, child, function))
            visit(child, inner)

    visit(tree, None)
    return found


@pytest.mark.parametrize("module", [m.__name__.rsplit(".", 1)[1] for m in KERNEL_MODULES])
def test_hot_modules_round_only_through_the_helpers(module):
    # mpf_div and mpmath.ln take the bit count again on the Python
    # backend, and so does a rounding from_man_exp (one with a precision);
    # an exact from_man_exp stays.  mpf_exp is the exp kernel's tie
    # fallback and special cases, and nothing else: its tables are built
    # from integers.
    tree = ast.parse((SOURCES / f"{module}.py").read_text())
    misses = []
    for name, call, function in _calls(tree):
        line = f"{module}.py:{call.lineno} in {function}: {name}"
        last = str(name).rsplit(".", 1)[-1]
        if last == "mpf_div" or name in ("mpmath.ln", "mp.ln", "ln"):
            misses.append(line)
        elif last == "from_man_exp" and (len(call.args) > 2 or call.keywords):
            misses.append(line)
        elif last == "mpf_exp" and function != "_exp":
            misses.append(line)
    assert misses == []


# mpmath functions that convert their argument and make an mpf on every
# call (log, log10 and asinh through mpmath's libmp-function wrapper) for
# what a double or one libmp call gives; mpmath.nstr in error messages
# and mpmath.bernfrac are not among them.
WRAPPED = {"log", "log10", "asinh", "ldexp"}


@pytest.mark.parametrize("module", ["quadrature", "smallt"])
def test_engine_and_kernels_call_no_mpmath_wrapper(module):
    tree = ast.parse((SOURCES / f"{module}.py").read_text())
    misses = [
        f"{module}.py:{call.lineno} in {function}: {name}"
        for name, call, function in _calls(tree)
        if str(name).rpartition(".")[0] in ("mpmath", "mp") and name.rpartition(".")[2] in WRAPPED
    ]
    misses += [
        f"{module}.py:{node.lineno}: from mpmath import {alias.name}"
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "mpmath"
        for alias in node.names if alias.name in WRAPPED
    ]
    assert misses == []
