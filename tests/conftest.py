"""Shared fixtures: contexts, once-per-session route results, and the
arguments the package hands its kernels and its stop rule, captured once.

Independent test oracles come from mpmath's own implementations
(loggamma, euler, zeta) -- a separate code path from everything in the
package, so agreement is evidence rather than tautology.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import mpmath
import pytest
from mpmath import mp, mpf

import glaisher.loggamma
import glaisher.quadrature
import glaisher.routes
import glaisher.smallt
from glaisher import (
    ComputeContext,
    make_context,
    route_feaux,
    route_hasse,
    route_kummer,
    route_pain1,
    route_pain2,
    run_all,
)

KERNEL_MODULES = (glaisher.quadrature, glaisher.smallt, glaisher.routes, glaisher.loggamma)


@pytest.fixture(scope="session")
def ctx50():
    return make_context(50)


@pytest.fixture(scope="session")
def ctx20():
    return make_context(20)


@pytest.fixture(scope="session")
def ctx30():
    return make_context(30)


@pytest.fixture(scope="session")
def log_a_oracle():
    # log A = 1/12 - zeta'(-1); used ONLY by tests as an external
    # cross-check, never by the package itself.
    with mp.workdps(80):
        return mpf(1) / 12 - mpmath.zeta(-1, derivative=1)


@pytest.fixture(scope="session")
def routes50(ctx50):
    """The four integral-route estimates at 50 digits, computed once."""
    return {
        "feaux": route_feaux(ctx50),
        "kummer": route_kummer(ctx50),
        "pain1": route_pain1(ctx50),
        "pain2": route_pain2(ctx50),
    }


@pytest.fixture(scope="session")
def consensus50(ctx50):
    from glaisher import consensus_log_a

    return consensus_log_a(ctx50)


@dataclass
class KernelArguments:
    """What the package hands its kernels in one pass: run_all at 20, 50,
    100 and 200 digits, then route_pain1 and route_hasse at 400."""

    exps: list = field(default_factory=list)        # (x, prec) of smallt._exp, run_all only
    rounds: list = field(default_factory=list)      # (man, exp, prec) of smallt._round
    quotients: list = field(default_factory=list)   # (p, q, exp, prec) of smallt._quotient
    stops: list = field(default_factory=list)       # see record_stops


def _recording(kernel, into):
    def recording(*args):
        into.append(args)
        return kernel(*args)

    return recording


def reference_stop(delta1, delta2, tol, prec):
    """The extrapolated-stop rule taken in mpfs, as the level loop took it
    before it went to doubles: D1, D2 and log10 tol by ``mpmath.log10``
    at ``prec`` bits, the same comparisons."""
    with mp.workprec(prec):
        d1 = mpmath.log10(delta1)
        d2 = mpmath.log10(delta2)
        if not (d2 < 0 and d1 / d2 >= 1.5):
            return False
        return max(d1 * d1 / d2, 2 * d1) <= mpmath.log10(tol) - 1


def record_stops(patch, into):
    """Make each extrapolated-stop test of the level loop append (delta1,
    delta2, tol, prec, decision) to ``into``, tol the integral's
    tolerance and prec the working precision."""
    quadrature = glaisher.quadrature
    run_levels, below = quadrature._run_levels, quadrature._extrapolated_below
    tol = None

    def running(f, centre, level_nodes, ctx, cutoff):
        nonlocal tol
        tol = ctx.target_tolerance
        return run_levels(f, centre, level_nodes, ctx, cutoff)

    def deciding(delta1, delta2, log_tol):
        decision = below(delta1, delta2, log_tol)
        into.append((delta1, delta2, tol, mp.prec, decision))
        return decision

    patch.setattr(quadrature, "_run_levels", running)
    patch.setattr(quadrature, "_extrapolated_below", deciding)


@pytest.fixture(scope="session")
def kernel_arguments():
    """Every argument of the exp kernel, the two rounding helpers and the
    stop rule in one pass (:class:`KernelArguments`); the exp kernel's
    are those of the run_all calls."""
    found = KernelArguments()
    exp = glaisher.smallt._exp
    with pytest.MonkeyPatch.context() as patch:
        for module in KERNEL_MODULES:
            for name, into in (("_exp", found.exps), ("_round", found.rounds), ("_quotient", found.quotients)):
                if hasattr(module, name):
                    patch.setattr(module, name, _recording(getattr(module, name), into))
        record_stops(patch, found.stops)
        for digits in (20, 50, 100, 200):
            run_all(make_context(digits))
        for module in KERNEL_MODULES:
            if hasattr(module, "_exp"):
                patch.setattr(module, "_exp", exp)
        ctx = make_context(400)
        route_pain1(ctx)
        route_hasse(ctx)
    return found


@pytest.fixture
def workdps_blocks(monkeypatch):
    """The ``extra`` of each ``ComputeContext.workdps`` block entered, in order."""
    entered = []
    original = ComputeContext.workdps

    def counted(self, extra=0):
        entered.append(extra)
        return original(self, extra)

    monkeypatch.setattr(ComputeContext, "workdps", counted)
    return entered


def rel_diff(a, b, dps=80):
    """Relative difference evaluated at elevated precision."""
    with mp.workdps(dps):
        a = mpf(a)
        b = mpf(b)
        scale = max(abs(a), abs(b), mpf(1) / 10 ** 12)
        return abs(a - b) / scale


def abs_diff(a, b, dps=80):
    with mp.workdps(dps):
        return abs(mpf(a) - mpf(b))
