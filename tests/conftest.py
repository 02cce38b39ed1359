"""Shared fixtures: contexts and once-per-session route results.

Independent test oracles come from mpmath's own implementations
(loggamma, euler, zeta) -- a separate code path from everything in the
package, so agreement is evidence rather than tautology.
"""

from __future__ import annotations

import mpmath
import pytest
from mpmath import mp, mpf

from glaisher import (
    ComputeContext,
    make_context,
    route_feaux,
    route_kummer,
    route_pain1,
    route_pain2,
)


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
