"""Every route and identity check across the precisions the CLI is used at.

At 20, 50, 100 and 200 digits, ``glaisher compute`` (all seven routes and
the four identity checks, as JSON) and ``glaisher verify`` must finish
without a traceback and exit 0, or 1 when a route refuses the precision
by name (hasse at its default N = 80 needs 45 digits).  Each estimate's
true error, against the test-only log A = 1/12 - zeta'(-1), must be
within ten times its error estimate, and each identity residual within
its tolerance (the dt measure control outside its 0.01 floor).  400
digits is left out to keep the suite's time down: ``compute`` alone
takes about a minute there.
"""

from __future__ import annotations

import mpmath
import pytest
from mpmath import mp, mpf

from glaisher import deserialize_report, make_context
from glaisher.cli import EXIT_CONFIG, EXIT_OK, main
from glaisher.routes import IDENTITY_IDS, ROUTE_IDS


@pytest.mark.slow
@pytest.mark.parametrize("digits", [20, 50, 100, 200])
def test_compute_and_verify_hold_their_contracts(digits, capsys, tmp_path):
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

    with mp.workdps(digits + 20):
        log_a = mpf(1) / 12 - mpmath.zeta(-1, derivative=1)
        misses = [
            f"{e.route_id}: true error {mpmath.nstr(abs(e.value - log_a), 3)}, "
            f"estimate {mpmath.nstr(e.error_estimate, 3)}"
            for e in doc.estimates
            if not abs(e.value - log_a) <= 10 * e.error_estimate
        ]
    assert not misses, misses

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
