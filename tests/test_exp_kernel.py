"""The table-driven exp kernel against mpmath's own ``mpf_exp``: the same
bits on every argument the package hands it, and on random, zero,
sub-ulp and integer arguments from 16 to 2700 bits; and its tables of
log(1 + j 2^-8k) against ``mpf_log``."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath.libmp import from_man_exp, mpf_exp, mpf_log, normalize, round_nearest, to_fixed

import glaisher.quadrature
import glaisher.smallt
from glaisher import make_context, route_kummer, route_pain1, run_all
from glaisher.smallt import _EXP_TABLES, _exp, _log_tables, _stages

PRECS = [53, 100, 233, 400, 600, 700, 1000, 1400, 2000, 2700]


def _reference(x, prec):
    return mpf_exp(x, prec, round_nearest)


def _correctly_rounded(x, prec):
    _, man, exp, _ = mpf_exp(x, prec + 64, round_nearest)
    return from_man_exp(man, exp, prec, round_nearest)


def _random_arguments(prec, rng, count=40):
    """Arguments of every sign and of magnitude 2^-20 to 2^10, full width."""
    found = []
    for _ in range(count):
        man = rng.getrandbits(prec) | 1 << (prec - 1)
        exp = -prec + rng.randint(-20, 10)
        found.append(normalize(rng.randint(0, 1), man, exp, prec, prec, round_nearest))
    return found


def test_every_captured_argument(kernel_arguments, monkeypatch):
    # every (argument, precision) the package hands the kernel in run_all
    # at 20, 50, 100 and 200 digits: the node pairs and the raw forms' E
    captured = kernel_arguments.exps
    assert len(captured) > 9000
    fallbacks = [0]

    def counted(*args):
        fallbacks[0] += 1
        return mpf_exp(*args)

    monkeypatch.setattr(glaisher.smallt, "mpf_exp", counted)
    assert [c for c in captured if _exp(*c) != _reference(*c)] == []
    # ties within 2^-7 ulp, 173 of 9435 arguments, go to mpf_exp; a wider
    # tie window would show here as a higher count
    assert fallbacks[0] <= 173


@pytest.mark.parametrize("prec", PRECS)
def test_random_zero_and_sub_ulp_arguments(prec):
    rng = random.Random(prec)
    tiny = [(0, 1, -prec - k, 1) for k in (1, 2, 14, 15, 40)]
    tiny += [(1, 1, -prec - k, 1) for k in (0, 1, 14, 40)]
    specials = [(0, 0, 0, 0), (0, 0, -123, -2), (0, 0, -456, -2), (1, 0, -456, -2)]
    for x in _random_arguments(prec, rng) + tiny + specials:
        assert _exp(x, prec) == _reference(x, prec), x


@pytest.mark.parametrize("prec", PRECS)
def test_integer_arguments(prec):
    # Above 600 bits mpf_exp raises e to an integer power; there the kernel
    # is held to the correctly rounded value instead.
    reference = _reference if prec <= 600 else _correctly_rounded
    for n in (1, -1, 2, 3, -7, 17, 100, -1000, 12345, -(2**20) - 1):
        x = from_man_exp(n, 0)
        assert _exp(x, prec) == reference(x, prec), n


def test_a_near_tie_takes_the_bits_of_mpf_exp():
    # mpf_exp(x, 53) rounds this x the wrong way; the kernel's guard bits
    # see the tie and give the same bits all the same.
    x = (0, 7109177094901151, -54, 53)
    assert _reference(x, 53) != _correctly_rounded(x, 53)
    assert _exp(x, 53) == _reference(x, 53)


@settings(deadline=None, max_examples=300, derandomize=True)
@given(prec=st.integers(16, 1600), sign=st.integers(0, 1), integer=st.booleans(),
       top=st.integers(-1000, 12), bits=st.integers(1, 1700), data=st.data())
def test_random_mantissa_exponent_and_precision(prec, sign, integer, top, bits, data):
    # |x| in [2^(top-1), 2^top) with a mantissa of up to 1700 bits, or an
    # integer up to 2^12 in magnitude
    if integer:
        man, exp = data.draw(st.integers(1, 2**12)), 0
    else:
        man, exp = data.draw(st.integers(1 << (bits - 1), (1 << bits) - 1)), top - bits
    x = from_man_exp(-man if sign else man, exp)
    # an integer x above 600 bits is held to the correctly rounded value,
    # as in test_integer_arguments
    reference = _correctly_rounded if prec > 600 and x[2] >= 0 else _reference
    assert _exp(x, prec) == reference(x, prec), (x, prec)


@pytest.mark.parametrize("width", [369, 929])
def test_log_tables_within_one_unit(width):
    # the widths run_all builds at 50 and 200 digits
    tables = _log_tables(width, _stages(width))
    assert [len(row) for row in tables] == [257] * _stages(width)
    for k, row in enumerate(tables, 1):
        for j, entry in enumerate(row):
            exact = to_fixed(mpf_log(from_man_exp((1 << 8 * k) + j, -8 * k), width + 40,
                                     round_nearest), width + 32)
            assert abs((entry << 32) - exact) <= 1 << 32, (k, j)


def test_one_table_set_widened_and_shifted_down():
    wide = 2700
    _exp((0, 3, -2, 2), wide)
    width, tables = _EXP_TABLES
    assert width >= wide + 24 and len(tables) == _stages(width)
    # a narrower call reduces on the same set and shifts its rest down to
    # its own width, and keeps the set
    x = _random_arguments(233, random.Random(1), 1)[0]
    assert _exp(x, 233) == _reference(x, 233)
    assert _EXP_TABLES[0] == width and _EXP_TABLES[1] is tables


def _outcome(estimates):
    return [(e.route_id, e.value._mpf_, e.error_estimate._mpf_, e.evaluations)
            for e in estimates]


def test_routes_keep_their_bits_on_mpf_exp(monkeypatch):
    ctx = make_context(100)
    routes = [route_pain1(ctx), route_kummer(ctx)]
    doc = run_all(make_context(50))
    monkeypatch.setattr(glaisher.smallt, "_exp", _reference)
    monkeypatch.setattr(glaisher.quadrature, "_exp", _reference)
    assert _outcome([route_pain1(ctx), route_kummer(ctx)]) == _outcome(routes)
    again = run_all(make_context(50))
    assert _outcome(again.estimates) == _outcome(doc.estimates)
    assert ([(r.identity_id, r.residual._mpf_) for r in again.residuals]
            == [(r.identity_id, r.residual._mpf_) for r in doc.residuals])
