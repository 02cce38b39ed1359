"""The table-driven exp kernel against mpmath's own ``mpf_exp``: the same
bits on every argument the package hands it, and on random, zero,
sub-ulp and integer arguments from 53 to 2700 bits."""

from __future__ import annotations

import random

import pytest
from mpmath.libmp import from_man_exp, mpf_exp, normalize, round_nearest

import glaisher.quadrature
import glaisher.smallt
from glaisher import make_context, route_kummer, route_pain1, run_all
from glaisher.smallt import _EXP_TABLES, _exp

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
    # ties within 2^-7 ulp, about 2% of arguments, go to mpf_exp
    assert fallbacks[0] < 0.03 * len(captured)


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


def test_one_table_set_widened_and_shifted_down():
    wide = 2700
    _exp((0, 3, -2, 2), wide)
    width, tables = _EXP_TABLES
    assert width >= wide + 24
    # a narrower call reads the same set, shifted down, and keeps it
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
