"""Report assembly, agreement matrix, serialization round-trips."""

from __future__ import annotations

import json

import mpmath
import pytest
from mpmath import mp, mpf

from glaisher import (
    ConfigError,
    convergence_study,
    deserialize_report,
    make_context,
    real_from_decimal,
    run_all,
    serialize,
)
from glaisher.report import CSV_HEADER

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


class TestSerialization:
    def test_json_round_trip_preserves_document(self, small_report, ctx):
        raw = serialize(small_report, "json")
        doc = deserialize_report(raw, ctx)
        digits = ctx.precision_digits
        tol = mpf(10) ** (-(digits - 2))
        assert doc.context_info["requested_routes"] == small_report.context_info["requested_routes"]
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

    def test_json_numbers_are_decimal_strings(self, small_report):
        payload = json.loads(serialize(small_report, "json"))
        value = payload["estimates"][0]["value"]
        assert isinstance(value, str)
        assert value.startswith("0.2487544770337842")

    def test_json_values_reparse_within_tolerance(self, small_report, ctx):
        payload = json.loads(serialize(small_report, "json"))
        digits = ctx.precision_digits
        for entry, original in zip(payload["estimates"], small_report.estimates):
            back = real_from_decimal(entry["value"], ctx)
            assert rel_diff(back, original.value) < mpf(10) ** (-(digits - 2))

    def test_csv_header_byte_exact(self, small_report):
        raw = serialize(small_report, "csv")
        assert raw.split(b"\n")[0] == b"route,param,value,estimate,abs_delta"
        assert CSV_HEADER == "route,param,value,estimate,abs_delta"

    def test_csv_line_count_matches_records(self, ctx):
        doc = run_all(ctx, ["feaux", "kummer"])
        doc.convergence_records = convergence_study(
            "limit", [16, 32], ctx, params={"limit_order": 0}
        )
        raw = serialize(doc, "csv").decode()
        lines = [line for line in raw.splitlines() if line]
        assert len(lines) == 1 + len(doc.convergence_records)

    def test_unknown_format_rejected(self, small_report):
        with pytest.raises(ConfigError):
            serialize(small_report, "xml")
