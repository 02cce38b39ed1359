"""Tests of the benchmark's correctness gate and count reconciliation.

    python3 -m pytest perfbench/test_gate.py

They run the package at 20-30 digits, so they take a few seconds.
"""

import sys
from pathlib import Path

import pytest
from mpmath import mp, mpf

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import glaisher  # noqa: E402
import glaisher.cli  # noqa: E402

import gate  # noqa: E402
import tracing  # noqa: E402
from workloads import Output, verify_check  # noqa: E402

MODULES = [glaisher, glaisher.cli, glaisher.report, glaisher.routes,
           glaisher.loggamma, glaisher.context, glaisher.quadrature]


@pytest.fixture(scope="module")
def ctx30():
    return glaisher.make_context(30)


@pytest.fixture(scope="module")
def pain1_30(ctx30):
    return glaisher.route_pain1(ctx30)


def moved(estimate, oracle, factor):
    """The estimate pushed ``factor`` x its error estimate farther from truth."""
    with mp.workdps(60):
        direction = 1 if estimate.value >= oracle else -1
        return estimate.value + direction * factor * estimate.error_estimate


def test_honest_estimate_passes(ctx30, pain1_30):
    oracle = gate.log_a_oracle(30)
    assert gate.estimate_problems(
        "pain1", pain1_30.value, pain1_30.error_estimate, oracle, 30,
        target_tolerance=ctx30.target_tolerance) == []


def test_estimate_moved_beyond_ten_estimates_fails(pain1_30):
    oracle = gate.log_a_oracle(30)
    problems = gate.estimate_problems(
        "pain1", moved(pain1_30, oracle, 10.5), pain1_30.error_estimate, oracle, 30)
    assert len(problems) == 1 and "exceeds 10 x estimate" in problems[0]


def test_report_with_moved_estimate_fails(tmp_path):
    path = tmp_path / "report.json"
    code = glaisher.cli.main(["compute", "--digits", "25", "--routes", "pain1,feaux,kummer",
                              "--output", "json", "--out", str(path)])
    ctx = glaisher.make_context(25)
    doc = glaisher.deserialize_report(path.read_bytes(), ctx)
    oracle = gate.log_a_oracle(25)
    routes = ("pain1", "feaux", "kummer")
    assert code == 0
    assert gate.report_problems(doc, oracle, routes, ("glaisher_half",)) == []

    # A value read back from JSON also carries the rounding of its decimal
    # string, so the move clears 10 x estimate plus that rounding.
    e = doc.estimates[0]
    with mp.workdps(60):
        e.value = moved(e, oracle, 11) + 2 * gate.print_rounding(e.value, 25)
    problems = gate.report_problems(doc, oracle, routes, ())
    assert len(problems) == 1 and problems[0].startswith(e.route_id)


def test_cli_exit_two_fails(tmp_path):
    path = tmp_path / "verify.txt"
    honest = glaisher.cli.main(["verify", "--digits", "25", "--out", str(path)])
    assert verify_check(Output(code=honest, text=path.read_text()), None, 25).problems == []

    code = glaisher.cli.main(["verify", "--digits", "25", "--corrupt-constant", "--out", str(path)])
    problems = verify_check(Output(code=code, text=path.read_text()), None, 25).problems
    assert code == 2
    assert "glaisher verify exited with 2" in problems


def test_exit_code_alone_fails():
    problems = verify_check(Output(code=2, text=""), None, 25).problems
    assert problems[0] == "glaisher verify exited with 2"


def test_control_at_or_below_floor_fails():
    assert gate.residual_problems("res2_measure_check", mpf("1.03"), mpf("0.01")) == []
    assert gate.residual_problems("res2_measure_check", mpf("0.01"), mpf("0.01"))
    assert gate.residual_problems("gla2", mpf("1e-30"), mpf("1e-30"))


def traced(fn, bypass=None):
    tracer = tracing.Tracer()
    with tracing.instrument(tracer, MODULES):
        if bypass is not None:
            module, name, original = bypass
            setattr(module, name, original)      # as if the import had moved
        result = fn()
    return result, tracing.SpanIndex(tracer.spans)


def test_reconcile_accepts_matching_counts(ctx30):
    estimate, index = traced(lambda: glaisher.route_pain1(ctx30))
    assert tracing.reconcile(index, {"pain1": estimate.evaluations}) == []
    assert tracing.layer_metrics(index)["quadrature.evals"] == estimate.evaluations


def test_reconcile_fails_when_a_wrapper_sees_no_calls(ctx30):
    bypass = (glaisher.routes, "log_gamma_ref", glaisher.routes.log_gamma_ref)
    estimate, index = traced(lambda: glaisher.route_limit(ctx30, n=8, richardson_order=1),
                             bypass)
    problems = tracing.reconcile(index, {"limit": estimate.evaluations})
    assert problems == [f"limit: traced 0 log_gamma_ref calls, "
                        f"route reports {estimate.evaluations}"]


def test_instrument_restores_every_name(ctx30):
    before = {(m.__name__, k): v for m in MODULES for k, v in vars(m).items()}
    traced(lambda: glaisher.route_hasse(glaisher.make_context(30), 10))
    after = {(m.__name__, k): v for m in MODULES for k, v in vars(m).items()}
    assert after == before
