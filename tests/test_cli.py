"""CLI contract: exit codes, flags, output formats."""

from __future__ import annotations

import json

import pytest

from glaisher import deserialize_report, make_context
from glaisher.cli import EXIT_CONFIG, EXIT_DISAGREE, EXIT_OK, main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestComputeCommand:
    def test_agreeing_routes_exit_zero(self, capsys):
        code, out, _ = run_cli(
            capsys, "compute", "--digits", "25", "--routes", "feaux,kummer"
        )
        assert code == EXIT_OK
        assert "0.2487544770" in out
        assert "agree pairwise" in out

    def test_unknown_route_exits_one_naming_it(self, capsys):
        code, _, err = run_cli(capsys, "compute", "--routes", "nosuch")
        assert code == EXIT_CONFIG
        assert "nosuch" in err

    def test_dt_measure_control_exits_two(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "compute", "--digits", "25",
            "--routes", "kummer,feaux",
            "--res2-measure", "dt",
        )
        assert code == EXIT_DISAGREE
        assert "DISAGREEMENTS" in out

    def test_refused_route_exits_one_and_keeps_the_other_rows(self, capsys):
        # hasse at its default N = 80 needs 45 digits; at 20 it refuses.
        # A refusal is a configuration problem (exit 1), not a numerical
        # failure, and the six routes that can run still report.
        code, out, _ = run_cli(capsys, "compute", "--digits", "20")
        assert code == EXIT_CONFIG
        estimates = out.split("pairwise |difference| matrix:")[0]
        rows = {line.split()[0]: line for line in estimates.splitlines()[1:]}
        assert "REFUSED: insufficient precision for hasse" in rows["hasse"]
        for rid in ("limit", "pain1", "pain2", "feaux", "kummer", "fourier_series"):
            assert "error est" in rows[rid], rid
        assert "the routes that ran agree pairwise" in out

    def test_refusal_with_a_disagreement_exits_two(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "compute", "--digits", "20",
            "--routes", "feaux,kummer,hasse",
            "--res2-measure", "dt",
        )
        assert code == EXIT_DISAGREE
        assert "REFUSED" in out and "DISAGREEMENTS" in out

    def test_json_output_parses_with_own_parser(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "compute", "--digits", "25", "--routes", "feaux,kummer",
            "--output", "json",
        )
        assert code == EXIT_OK
        ctx = make_context(25)
        doc = deserialize_report(out.encode(), ctx)
        assert [e.route_id for e in doc.estimates] == ["feaux", "kummer"]

    def test_text_truncates_displayed_digits(self, capsys):
        code, out, _ = run_cli(
            capsys, "compute", "--digits", "30", "--routes", "feaux"
        )
        assert code == EXIT_OK
        for line in out.splitlines():
            if line.strip().startswith("feaux"):
                shown = line.split()[1]
                # 30 - 10 displayed digits -> "0." plus 20 significant
                assert len(shown) <= 23

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "report.json"
        code, out, _ = run_cli(
            capsys,
            "compute", "--digits", "25", "--routes", "feaux",
            "--output", "json", "--out", str(target),
        )
        assert code == EXIT_OK
        assert out == ""
        payload = json.loads(target.read_text())
        assert payload["estimates"][0]["route_id"] == "feaux"


class TestVerifyCommand:
    def test_default_verify_exits_zero_with_three_residuals(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--digits", "25")
        assert code == EXIT_OK
        for name in ("glaisher_half", "gla2", "log_sin"):
            assert name in out

    def test_corrupt_constant_exits_two(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--digits", "25", "--corrupt-constant")
        assert code == EXIT_DISAGREE
        assert "EXCEEDS TOLERANCE" in out

    def test_lower_precision_still_passes(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--digits", "20")
        assert code == EXIT_OK

    def test_hundred_digits_passes_every_identity(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--digits", "100")
        assert code == EXIT_OK
        rows = [line.split() for line in out.splitlines() if "residual =" in line]
        assert [row[0] for row in rows] == ["glaisher_half", "gla2", "log_sin"]
        assert all(row[-1] == "ok" for row in rows)


class TestConvergenceCommand:
    def test_three_rows_for_three_grid_points(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "convergence", "--digits", "25",
            "--route", "fourier_series", "--grid", "100,1000,10000",
        )
        assert code == EXIT_OK
        lines = [line for line in out.splitlines() if line]
        assert lines[0] == "route,param,value,estimate,abs_delta"
        assert len(lines) == 4

    def test_limit_grid_deltas_decrease(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "convergence", "--digits", "25",
            "--route", "limit", "--grid", "16,32,64,128",
        )
        assert code == EXIT_OK
        rows = [line.split(",") for line in out.splitlines()[1:] if line]
        deltas = [float(r[4]) for r in rows]
        assert all(b < a for a, b in zip(deltas, deltas[1:]))

    def test_empty_grid_exits_one(self, capsys):
        code, _, err = run_cli(capsys, "convergence", "--route", "limit")
        assert code == EXIT_CONFIG
        assert "grid" in err


class TestFlagSurface:
    def test_help_lists_every_flag(self, capsys):
        with pytest.raises(SystemExit):
            main(["compute", "--help"])
        out = capsys.readouterr().out
        for flag in (
            "--digits", "--routes", "--output", "--out",
            "--limit-n", "--limit-order", "--fourier-n", "--accelerate",
            "--hasse-n", "--res2-measure",
        ):
            assert flag in out

    def test_verify_help_lists_debug_flag(self, capsys):
        with pytest.raises(SystemExit):
            main(["verify", "--help"])
        assert "--corrupt-constant" in capsys.readouterr().out

    def test_convergence_help(self, capsys):
        with pytest.raises(SystemExit):
            main(["convergence", "--help"])
        out = capsys.readouterr().out
        for flag in ("--route", "--grid", "--digits"):
            assert flag in out

    def test_env_digits_override(self, capsys, monkeypatch):
        monkeypatch.setenv("GLAISHER_DIGITS", "22")
        code, out, _ = run_cli(capsys, "compute", "--routes", "feaux")
        assert code == EXIT_OK
        assert "at 22 digits" in out

    def test_explicit_digits_beats_env(self, capsys, monkeypatch):
        monkeypatch.setenv("GLAISHER_DIGITS", "22")
        code, out, _ = run_cli(capsys, "compute", "--digits", "25", "--routes", "feaux")
        assert code == EXIT_OK
        assert "at 25 digits" in out

    def test_digits_below_minimum_is_config_error(self, capsys):
        code, _, err = run_cli(capsys, "compute", "--digits", "10", "--routes", "feaux")
        assert code == EXIT_CONFIG
        assert "precision too low" in err
