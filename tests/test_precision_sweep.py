"""Every route and identity check across the precisions the CLI is used at.

At 20, 50, 100, 200 and 400 digits, and on each side of the two
precision switches that fall between them (245/246, where
``fourier_default_terms`` leaves 100, and 256/257, where the quadrature
level cap goes from 12 to 13), ``glaisher compute`` (all seven routes and
the four identity checks, as JSON) and ``glaisher verify`` must finish
without a traceback and exit 0, or 1 when a route refuses the precision
by name (hasse at its default N = 80 needs 45 digits).  Each estimate's
true error, against the test-only log A = 1/12 - zeta'(-1), must be
within ten times its error estimate, and each identity residual within
its tolerance (the dt measure control outside its 0.01 floor).  The
Fourier series route, at its default N (100 up to 245 digits, 158 at
400), must also be at full precision: estimate within 10^-(P-10) at
every digit count, 400 included.  Its value is the log A of the identity
residuals, so both commands judge them against an engine-free log A.
The four integral routes' evaluation counts are pinned at 20, 200,
245, 246, 256, 257 and 400 digits, and every extrapolated-stop decision
the two commands' level loops take, with D1, D2 and log10 tol in doubles,
must be the one the same rule takes in mpfs at the working precision.
Neither command may call the Stirling oracle ``loggamma.log_gamma_ref``:
the identity pass takes log Gamma(1+x) from its series alone.
On a 2-vCPU VM (mpmath on its Python backend) the 400-digit case takes
24-36 s, of which ``verify`` is 7-8 s: it integrates no route.
"""

from __future__ import annotations

import mpmath
import pytest
from mpmath import mp, mpf

from glaisher import deserialize_report, loggamma, make_context
from glaisher.cli import EXIT_CONFIG, EXIT_OK, main
from glaisher.routes import IDENTITY_IDS, ROUTE_IDS

from conftest import record_stops, reference_stop

# Evaluations of the four integral routes.  They depend only on where each
# side's scan stops, so a change to the level loop or the nodes must leave
# them as they are (50 and 100 digits are pinned in test_routes).
EVALUATIONS = {
    20: {"pain1": 89, "pain2": 120, "feaux": 163, "kummer": 89},
    200: {"pain1": 6627, "pain2": 4397, "feaux": 6618, "kummer": 6628},
    245: {"pain1": 6825, "pain2": 4511, "feaux": 6818, "kummer": 6826},
    246: {"pain1": 6829, "pain2": 4514, "feaux": 6822, "kummer": 6830},
    256: {"pain1": 6867, "pain2": 4536, "feaux": 6860, "kummer": 6868},
    257: {"pain1": 6871, "pain2": 4538, "feaux": 6864, "kummer": 6872},
    400: {"pain1": 14580, "pain2": 9542, "feaux": 14571, "kummer": 14581},
}


@pytest.mark.slow
@pytest.mark.parametrize("digits", [20, 50, 100, 200, 245, 246, 256, 257, 400])
def test_compute_and_verify_hold_their_contracts(digits, capsys, tmp_path, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the report called log_gamma_ref")

    monkeypatch.setattr(loggamma, "log_gamma_ref", refuse)
    stops = []
    record_stops(monkeypatch, stops)
    report = tmp_path / "report.json"
    code = main(["compute", "--digits", str(digits), "--output", "json", "--out", str(report)])
    assert "Traceback" not in capsys.readouterr().err
    doc = deserialize_report(report.read_bytes(), make_context(digits))

    assert not [f for f in doc.failures if not f.refused], doc.failures
    refused = {f.route_id for f in doc.failures}
    for f in doc.failures:
        assert f.route_id in f.error, f"refusal does not name its route: {f.error}"
    assert code == (EXIT_CONFIG if refused else EXIT_OK)
    assert sorted(refused | {e.route_id for e in doc.estimates}) == sorted(ROUTE_IDS)
    pinned = EVALUATIONS.get(digits, {})
    assert {e.route_id: e.evaluations for e in doc.estimates if e.route_id in pinned} == pinned

    with mp.workdps(digits + 20):
        log_a = mpf(1) / 12 - mpmath.zeta(-1, derivative=1)
        misses = [
            f"{e.route_id}: true error {mpmath.nstr(abs(e.value - log_a), 3)}, "
            f"estimate {mpmath.nstr(e.error_estimate, 3)}"
            for e in doc.estimates
            if not abs(e.value - log_a) <= 10 * e.error_estimate
        ]
    assert not misses, misses
    fourier = next(e for e in doc.estimates if e.route_id == "fourier_series")
    assert fourier.error_estimate <= mpf(10) ** -(digits - 10)

    residuals = {r.identity_id: r for r in doc.residuals}
    assert sorted(residuals) == sorted(IDENTITY_IDS)
    for iid, r in residuals.items():
        if iid == "res2_measure_check":
            assert abs(r.residual) > r.tolerance_used, iid
        else:
            assert abs(r.residual) < r.tolerance_used, iid

    code = main(["verify", "--digits", str(digits)])
    out, err = capsys.readouterr()
    assert "Traceback" not in err
    assert code == EXIT_OK, out
    rows = [line.split() for line in out.splitlines() if "residual =" in line]
    assert [row[-1] for row in rows] == ["ok", "ok", "ok"], out
    assert stops and [s for s in stops if reference_stop(*s[:4]) != s[4]] == []


# Precisions outside the sweep's grid where the extrapolated stop breaks the
# contract on a correct program (ROADMAP item 4).  Each exits 2 today; the
# stop-rule fix turns them green, and the strict marks then fail until removed.
def _stop_rule_break(command, digits, why):
    return pytest.param(command, digits, marks=pytest.mark.xfail(
        strict=True, raises=AssertionError, reason=f"ROADMAP item 4: {why}"))


STOP_RULE_BREAKS = [
    _stop_rule_break("compute", 69, "pain2's stop misses by 28.9 x its estimate: "
                     "|delta| 9.63e-59 against allowances of 6.67e-59 (pain1, kummer) "
                     "and 3.33e-59 (fourier_series)"),
    _stop_rule_break("verify", 108, "log_sin's residual -1.284e-98 against 1e-98"),
    _stop_rule_break("verify", 109, "log_sin's residual -1.284e-98 against 1e-99"),
    _stop_rule_break("verify", 224, "glaisher_half reads 4.706e-214 and gla2 3.137e-214 "
                     "against 1e-214"),
]


@pytest.mark.parametrize("command, digits", STOP_RULE_BREAKS)
def test_command_exits_zero_where_the_stop_rule_breaks(command, digits, capsys):
    code = main([command, "--digits", str(digits)])
    out, err = capsys.readouterr()
    assert "Traceback" not in err
    assert code == EXIT_OK, out
