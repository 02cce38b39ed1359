"""Report assembly, agreement matrix, serialization round-trips."""

from __future__ import annotations

import json
from dataclasses import replace

import mpmath
import pytest
from mpmath import mp, mpf

import glaisher.report
import glaisher.routes
from glaisher import (
    ConfigError,
    RouteFailure,
    convergence_study,
    deserialize_report,
    make_context,
    real_from_decimal,
    run_all,
    serialize,
)
from glaisher.report import CSV_HEADER
from glaisher.routes import IdentityResidual

from conftest import rel_diff


@pytest.fixture(scope="module")
def ctx():
    return make_context(30)


@pytest.fixture(scope="module")
def small_report(ctx):
    return run_all(ctx, ["feaux", "kummer"])


class TestRunAll:
    def test_empty_route_set_is_config_error(self, ctx):
        with pytest.raises(ConfigError):
            run_all(ctx, [])

    def test_unknown_route_is_config_error(self, ctx):
        with pytest.raises(ConfigError, match="nosuch"):
            run_all(ctx, ["feaux", "nosuch"])

    def test_unknown_param_is_config_error(self, ctx, monkeypatch):
        # A misspelt key must not run hasse at its default N = 80 and be
        # echoed into context_info["params"] as if it had been used.
        def no_route(*args, **kwargs):
            raise AssertionError("route run before validation")

        monkeypatch.setattr(glaisher.report, "_route_runner", no_route)
        with pytest.raises(ConfigError, match="'hasse_N'.*hasse_n"):
            run_all(ctx, ["hasse"], {"hasse_N": 60})

    def test_matrix_entry_below_consensus_bound(self, small_report, ctx):
        matrix = small_report.agreement_matrix["matrix"]
        bound = mpf(10) ** (-(ctx.precision_digits - 10))
        assert matrix[0][1] < bound

    def test_matrix_symmetric_with_zero_diagonal(self, small_report):
        matrix = small_report.agreement_matrix["matrix"]
        n = len(matrix)
        for i in range(n):
            assert matrix[i][i] == 0
            for j in range(n):
                assert matrix[i][j] == matrix[j][i]

    def test_requested_routes_partition_into_results_and_failures(self, ctx):
        # hasse at N = 60 needs 39 digits; this 30-digit context cannot run
        # it, and the failure must not take the other routes down
        doc = run_all(ctx, ["feaux", "hasse"], params={"hasse_n": 60})
        succeeded = {e.route_id for e in doc.estimates}
        failed = {f.route_id for f in doc.failures if f.route_id != "identity_checks"}
        assert succeeded == {"feaux"}
        assert failed == {"hasse"}
        assert "insufficient precision" in doc.failures[0].error
        assert doc.failures[0].refused
        back = deserialize_report(serialize(doc, "json"), ctx)
        assert [(f.route_id, f.refused) for f in back.failures] == [("hasse", True)]

    def test_every_requested_route_appears_exactly_once(self, ctx):
        doc = run_all(ctx, ["feaux", "kummer", "limit"], params={"limit_n": 16, "limit_order": 1})
        seen = [e.route_id for e in doc.estimates] + [
            f.route_id for f in doc.failures if f.route_id != "identity_checks"
        ]
        assert sorted(seen) == ["feaux", "kummer", "limit"]

    def test_identity_residuals_present(self, small_report):
        ids = {r.identity_id for r in small_report.residuals}
        assert {"glaisher_half", "gla2", "log_sin", "res2_measure_check"} <= ids

    def test_identity_residuals_are_timed(self, small_report):
        assert all(r.elapsed > 0 for r in small_report.residuals)

    def test_context_info_carries_request(self, small_report):
        assert small_report.context_info["requested_routes"] == ["feaux", "kummer"]
        assert small_report.context_info["precision_digits"] == 30

    def test_deterministic_apart_from_timestamp_and_elapsed(self, ctx):
        a = run_all(ctx, ["feaux", "kummer"])
        b = run_all(ctx, ["feaux", "kummer"])
        for ea, eb in zip(a.estimates, b.estimates):
            assert ea.value._mpf_ == eb.value._mpf_
            assert ea.error_estimate._mpf_ == eb.error_estimate._mpf_
            assert ea.evaluations == eb.evaluations
        for ra, rb in zip(a.residuals, b.residuals):
            assert ra.residual._mpf_ == rb.residual._mpf_


class TestDisagreements:
    def test_dt_control_disagrees_with_every_honest_route(self, ctx):
        doc = run_all(ctx, ["feaux", "kummer", "pain2"], {"res2_measure": "dt"})
        pairs = [("pain2", "kummer"), ("feaux", "kummer")]
        assert [(a, b) for a, b, _, _ in doc.disagreements] == pairs
        back = deserialize_report(serialize(doc, "json"), ctx)
        assert [(a, b) for a, b, _, _ in back.disagreements] == pairs

    def test_agreeing_report_has_none(self, small_report, ctx):
        assert small_report.disagreements == []
        back = deserialize_report(serialize(small_report, "json"), ctx)
        assert back.disagreements == []

    def test_unrequested_feaux_is_not_integrated(self, ctx, monkeypatch):
        # Every identity check, the dt control included, takes the Fourier
        # series' log A, so no route runs unless it is requested.
        calls = []
        integrand = glaisher.routes.RES1_INTEGRAND

        def counting(form):
            def counted(t):
                calls.append(t)
                return form(t)
            return counted

        monkeypatch.setattr(integrand, "eval", counting(integrand.eval))
        monkeypatch.setattr(integrand, "near_zero", counting(integrand.near_zero))
        run_all(ctx, ["kummer"])
        assert calls == []


class TestFailedResiduals:
    def test_verdict_is_inverted_for_the_dt_control(self):
        tol, control = mpf(10) ** -20, mpf("0.01")
        assert IdentityResidual("gla2", -tol / 2, tol).passed
        assert not IdentityResidual("gla2", -2 * tol, tol).passed
        assert IdentityResidual("res2_measure_check", mpf("0.5"), control).passed
        assert not IdentityResidual("res2_measure_check", mpf("0.005"), control).passed

    def test_agreeing_report_has_none(self, small_report, ctx):
        assert small_report.failed_residuals == []
        back = deserialize_report(serialize(small_report, "json"), ctx)
        assert back.failed_residuals == []

    def test_corrupted_coefficient_fails_glaisher_half(self, ctx, monkeypatch):
        def corrupted(ctx, log_a):
            return glaisher.routes.identity_residuals(ctx, log_a, mpf(7) / 25)

        monkeypatch.setattr(glaisher.report, "identity_residuals", corrupted)
        doc = run_all(ctx, ["feaux"])
        assert [r.identity_id for r in doc.failed_residuals] == ["glaisher_half"]
        back = deserialize_report(serialize(doc, "json"), ctx)
        assert [r.identity_id for r in back.failed_residuals] == ["glaisher_half"]


class TestConvergenceStudy:
    def test_single_point_grid(self, ctx):
        records = convergence_study("limit", [16], ctx)
        assert len(records) == 1
        assert records[0].parameter == "n"
        assert records[0].parameter_value == 16

    def test_fourier_raw_deltas_strictly_decrease(self, ctx):
        records = convergence_study(
            "fourier_series", [100, 1000, 10_000], ctx,
            params={"fourier_accelerate": False},
        )
        deltas = [r.abs_delta_vs_consensus for r in records]
        assert deltas[1] < deltas[0]
        assert deltas[2] < deltas[1]

    def test_limit_deltas_decrease(self, ctx):
        records = convergence_study(
            "limit", [16, 32, 64], ctx, params={"limit_order": 0}
        )
        deltas = [r.abs_delta_vs_consensus for r in records]
        assert deltas[1] < deltas[0]
        assert deltas[2] < deltas[1]

    def test_failing_point_is_recorded_not_raised(self, ctx):
        records = convergence_study("hasse", [10, 60], ctx)
        assert records[0].error is None
        assert records[1].error is not None
        assert "insufficient precision" in records[1].error

    def test_bad_grids_rejected(self, ctx):
        with pytest.raises(ConfigError):
            convergence_study("limit", [], ctx)
        with pytest.raises(ConfigError):
            convergence_study("limit", [32, 16], ctx)
        with pytest.raises(ConfigError, match="unknown route"):
            convergence_study("nosuch", [1], ctx)

    def test_unknown_param_fails_first(self, ctx, monkeypatch):
        def no_consensus(*args, **kwargs):
            raise AssertionError("consensus computed before validation")

        monkeypatch.setattr(glaisher.report, "consensus_log_a", no_consensus)
        with pytest.raises(ConfigError, match="'limit_ordr'.*limit_order"):
            convergence_study("limit", [16], ctx, params={"limit_ordr": 0})

    def test_route_without_grid_parameter_fails_first(self, ctx, monkeypatch):
        def no_consensus(*args, **kwargs):
            raise AssertionError("consensus computed before validation")

        monkeypatch.setattr(glaisher.report, "consensus_log_a", no_consensus)
        with pytest.raises(ConfigError, match="pain1"):
            convergence_study("pain1", [1], ctx)


class TestSerialization:
    def test_json_round_trip_preserves_document(self, small_report, ctx):
        raw = serialize(small_report, "json")
        doc = deserialize_report(raw, ctx)
        digits = ctx.precision_digits
        tol = mpf(10) ** (-(digits - 2))
        assert doc.context_info["requested_routes"] == small_report.context_info["requested_routes"]
        assert doc.context_info["params"] == small_report.context_info["params"]
        assert doc.context_info["params"]["fourier_n"] == 100
        assert doc.timestamp == small_report.timestamp
        assert doc.toolkit_version == small_report.toolkit_version
        assert len(doc.estimates) == len(small_report.estimates)
        for a, b in zip(doc.estimates, small_report.estimates):
            assert a.route_id == b.route_id
            assert a.evaluations == b.evaluations
            assert rel_diff(a.value, b.value) < tol
        assert len(doc.residuals) == len(small_report.residuals)
        for a, b in zip(doc.residuals, small_report.residuals):
            assert a.identity_id == b.identity_id
            assert a.elapsed == b.elapsed
        assert doc.agreement_matrix["routes"] == small_report.agreement_matrix["routes"]

    def test_params_echo_the_fourier_n_used(self, monkeypatch):
        # Past 245 digits the default N follows P; the echo is the N the
        # route took, never null, and it survives the round trip.
        def no_identity_pass(*args, **kwargs):
            raise RuntimeError("identity pass not under test")

        monkeypatch.setattr(glaisher.report, "identity_residuals", no_identity_pass)
        ctx = make_context(300)
        doc = run_all(ctx, ["fourier_series"])
        (estimate,) = doc.estimates
        assert doc.context_info["params"]["fourier_n"] == estimate.parameters["n_terms"] == 121
        back = deserialize_report(serialize(doc, "json"), ctx)
        assert back.context_info["params"] == doc.context_info["params"]

    def test_json_numbers_are_decimal_strings(self, small_report):
        payload = json.loads(serialize(small_report, "json"))
        value = payload["estimates"][0]["value"]
        assert isinstance(value, str)
        assert value.startswith("0.2487544770337842")

    def test_control_tolerance_is_the_exact_decimal(self, small_report, ctx):
        def tolerance(raw):
            (control,) = [r for r in json.loads(raw)["residuals"]
                          if r["identity_id"] == "res2_measure_check"]
            return control["tolerance_used"]

        raw = serialize(small_report, "json")
        assert tolerance(raw) == "0.01"
        assert tolerance(serialize(deserialize_report(raw, ctx), "json")) == "0.01"

    def test_json_values_reparse_within_tolerance(self, small_report, ctx):
        payload = json.loads(serialize(small_report, "json"))
        digits = ctx.precision_digits
        for entry, original in zip(payload["estimates"], small_report.estimates):
            back = real_from_decimal(entry["value"], ctx)
            assert rel_diff(back, original.value) < mpf(10) ** (-(digits - 2))

    def test_csv_header_byte_exact(self, small_report):
        raw = serialize(small_report, "csv")
        assert raw.split(b"\n")[0] == b"route,param,value,estimate,abs_delta,error_estimate"
        assert CSV_HEADER == "route,param,value,estimate,abs_delta,error_estimate"

    def test_csv_line_count_matches_records(self, ctx):
        doc = run_all(ctx, ["feaux", "kummer"])
        doc.convergence_records = convergence_study(
            "limit", [16, 32], ctx, params={"limit_order": 0}
        )
        raw = serialize(doc, "csv").decode()
        lines = [line for line in raw.splitlines() if line]
        assert len(lines) == 1 + len(doc.convergence_records)

    def test_json_re_serializes_byte_for_byte(self, ctx, monkeypatch):
        # A refused route, a raising identity pass and an error row: every
        # record type and every optional field the document can carry.
        records = convergence_study("hasse", [10, 60], ctx)

        def raising_control(*args, **kwargs):
            raise ArithmeticError("dt control failed")

        monkeypatch.setattr(glaisher.report, "res2_measure_check", raising_control)
        doc = run_all(ctx, ["feaux", "hasse"], params={"hasse_n": 60})
        doc.convergence_records = records
        assert [(f.route_id, f.refused) for f in doc.failures] == [
            ("hasse", True), ("identity_checks", False)
        ]
        assert [r.error is None for r in records] == [True, False]
        raw = serialize(doc, "json")
        back = deserialize_report(raw, ctx)
        assert serialize(back, "json") == raw
        assert back.exit_code == doc.exit_code == glaisher.report.EXIT_DISAGREE

    def test_absent_field_takes_its_default_or_is_named(self, small_report, ctx):
        records = convergence_study("limit", [16, 32], ctx, params={"limit_order": 0})
        doc = replace(small_report, convergence_records=records)
        payload = json.loads(serialize(doc, "json"))
        for record in payload["convergence_records"]:
            del record["error"]
        back = deserialize_report(json.dumps(payload).encode(), ctx)
        assert [r.error for r in back.convergence_records] == [None, None]
        assert serialize(back, "json") == serialize(doc, "json")
        del payload["convergence_records"][1]["error_estimate"]
        with pytest.raises(ValueError, match="ConvergenceRecord.*'error_estimate'"):
            deserialize_report(json.dumps(payload).encode(), ctx)

    def test_exit_code_reads_failures_and_residuals(self, small_report, ctx):
        report = glaisher.report
        doc = deserialize_report(serialize(small_report, "json"), ctx)
        assert doc.exit_code == report.EXIT_OK
        doc.failures = [RouteFailure("hasse", "insufficient precision for hasse", refused=True)]
        assert doc.exit_code == report.EXIT_CONFIG
        doc.failures.append(RouteFailure("identity_checks", "no consensus"))
        assert doc.exit_code == report.EXIT_DISAGREE
        doc.failures = []
        doc.residuals[0].residual = 2 * doc.residuals[0].tolerance_used
        assert doc.exit_code == report.EXIT_DISAGREE

    def test_unknown_format_rejected(self, small_report):
        with pytest.raises(ConfigError):
            serialize(small_report, "xml")
