"""CLI contract: exit codes, flags, output formats."""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from mpmath import mpf

import glaisher.cli
import glaisher.report
import glaisher.routes
from glaisher import ReportDocument, deserialize_report, make_context, serialize
from glaisher.cli import EXIT_CONFIG, EXIT_DISAGREE, EXIT_OK, main

ROOT = Path(__file__).resolve().parent.parent


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

    def test_repeated_route_exits_one_naming_it(self, capsys, monkeypatch):
        # A repeated id would run the route twice and print duplicate
        # matrix rows; it is refused before any route runs.
        def no_route(*args, **kwargs):
            raise AssertionError("route run before validation")

        monkeypatch.setattr(glaisher.report, "_route_runner", no_route)
        code, out, err = run_cli(
            capsys, "compute", "--routes", "fourier_series,fourier_series,limit"
        )
        assert code == EXIT_CONFIG
        assert "'fourier_series' requested twice" in err
        assert out == ""

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

    @pytest.mark.parametrize("output", ["json", "text"])
    def test_failing_identity_residual_exits_two(self, capsys, monkeypatch, output):
        # The routes agree, but glaisher_half runs with the 7/25 coefficient.
        def corrupted(ctx, log_a):
            return glaisher.routes.identity_residuals(ctx, log_a, mpf(7) / 25)

        monkeypatch.setattr(glaisher.report, "identity_residuals", corrupted)
        code, out, _ = run_cli(
            capsys,
            "compute", "--digits", "25", "--routes", "feaux,kummer",
            "--output", output,
        )
        assert code == EXIT_DISAGREE
        if output == "json":
            doc = deserialize_report(out.encode(), make_context(25))
            assert [r.identity_id for r in doc.failed_residuals] == ["glaisher_half"]
        else:
            assert "agree pairwise" in out
            assert "IDENTITY CHECKS FAILED:\n  glaisher_half: residual = " in out

    @pytest.mark.parametrize("output", ["json", "text"])
    def test_raising_identity_pass_exits_two(self, capsys, monkeypatch, output):
        # A raising dt control fails the identity pass as a whole, which
        # is a numerical failure, not a refusal.
        def raising_control(*args, **kwargs):
            raise ArithmeticError("dt control failed")

        monkeypatch.setattr(glaisher.report, "res2_measure_check", raising_control)
        code, out, _ = run_cli(
            capsys,
            "compute", "--digits", "25", "--routes", "feaux,kummer",
            "--output", output,
        )
        assert code == EXIT_DISAGREE
        if output == "json":
            doc = deserialize_report(out.encode(), make_context(25))
            assert [f.route_id for f in doc.failures] == ["identity_checks"]
            assert doc.exit_code == EXIT_DISAGREE
        else:
            assert "identity_checks  FAILED: dt control failed" in out

    def test_raising_identity_pass_in_verify_exits_two(self, capsys, monkeypatch):
        # verify takes its verdict from the same report: a non-finite
        # integrand in the identity pass is a failure row and exit 2
        monkeypatch.setattr(glaisher.routes, "_log_gamma1p_series", lambda x, ctx: mpf("nan"))
        code, out, err = run_cli(capsys, "verify", "--digits", "25")
        assert code == EXIT_DISAGREE
        lines = out.splitlines()
        assert lines[0].startswith("identity residuals at 25 digits")
        assert lines[1].startswith("  identity_checks  FAILED: integrand ")
        assert "non-finite" in lines[1]
        assert err == ""

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

    @pytest.mark.parametrize(
        "argv",
        [
            ["compute", "--digits", "20", "--routes", "feaux"],
            ["verify", "--digits", "20"],
            ["convergence", "--digits", "20", "--route", "hasse", "--grid", "5"],
        ],
        ids=["compute", "verify", "convergence"],
    )
    def test_unwritable_out_exits_one_naming_the_path(self, capsys, tmp_path, argv):
        target = tmp_path / "missing" / "out.txt"
        code, out, err = run_cli(capsys, *argv, "--out", str(target))
        assert code == EXIT_CONFIG
        assert out == ""
        assert err == f"error: cannot write {target}: No such file or directory\n"

    @pytest.mark.parametrize("command", ["compute", "verify", "convergence"])
    def test_unwritable_out_fails_before_computing(self, capsys, tmp_path, monkeypatch, command):
        def must_not_run(*args, **kwargs):
            raise AssertionError("computed before checking --out")

        for name in ("run_all", "identity_report", "convergence_study"):
            monkeypatch.setattr(glaisher.cli, name, must_not_run)
        target = tmp_path / "missing" / "out.txt"
        code, out, err = run_cli(capsys, command, "--digits", "20", "--out", str(target))
        assert code == EXIT_CONFIG
        assert out == ""
        assert err == f"error: cannot write {target}: No such file or directory\n"

    @pytest.mark.parametrize(
        "argv",
        [
            ["compute", "--digits", "20", "--routes", "feaux"],
            ["verify", "--digits", "20"],
            ["convergence", "--digits", "20", "--route", "hasse", "--grid", "5"],
        ],
        ids=["compute", "verify", "convergence"],
    )
    def test_out_file_holds_the_stdout_bytes(self, capsys, tmp_path, monkeypatch, argv):
        # compute prints timings; one document serves both runs
        documents = {}
        run_all = glaisher.cli.run_all
        monkeypatch.setattr(glaisher.cli, "run_all",
                            lambda *a: documents.setdefault("doc", run_all(*a)))
        code, out, _ = run_cli(capsys, *argv)
        target = tmp_path / "out.txt"
        target.write_text("stale content that must go")
        assert run_cli(capsys, *argv, "--out", str(target)) == (code, "", "")
        assert target.read_bytes() == out.encode()

    def test_checked_out_path_is_not_left_behind_by_a_config_error(self, capsys, tmp_path):
        target = tmp_path / "out.txt"
        code, _, err = run_cli(capsys, "compute", "--routes", "nope", "--out", str(target))
        assert code == EXIT_CONFIG and "unknown route id" in err
        assert not target.exists()


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

    @pytest.mark.parametrize("corrupt", [False, True])
    def test_text_keeps_the_layout_the_benchmark_parses(self, capsys, corrupt):
        # The benchmark's gate reads verify text with these two patterns.
        header = re.compile(r"identity residuals at (\d+) digits \(tolerance (\S+)\):")
        row = re.compile(r"^\s+(\S+)\s+residual =\s+(\S+)\s+(ok|EXCEEDS TOLERANCE)$")
        argv = ["verify", "--digits", "25"] + (["--corrupt-constant"] if corrupt else [])
        code, out, _ = run_cli(capsys, *argv)
        lines = out.splitlines()
        m = header.match(lines[0])
        assert m is not None and m.group(1) == "25" and float(m.group(2)) == 1e-15
        rows = [row.match(line) for line in lines[1:4]]
        assert all(rows), lines[1:4]
        assert [r.group(1) for r in rows] == ["glaisher_half", "gla2", "log_sin"]
        flags = [r.group(3) for r in rows]
        assert flags == (["EXCEEDS TOLERANCE", "ok", "ok"] if corrupt else ["ok"] * 3)
        assert code == (EXIT_DISAGREE if corrupt else EXIT_OK)
        assert len(lines) == (5 if corrupt else 4)

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
        assert lines[0] == "route,param,value,estimate,abs_delta,error_estimate"
        assert len(lines) == 4

    def test_accelerated_fourier_grid_below_the_turn(self, capsys):
        # At N = 1, 2 and 5 the Euler-Maclaurin tail turns far above
        # 10^-P; each row stops there and the command still succeeds.
        code, out, _ = run_cli(
            capsys,
            "convergence", "--route", "fourier_series", "--accelerate", "--grid", "1,2,5",
        )
        assert code == EXIT_OK
        assert len([line for line in out.splitlines() if line]) == 4

    def test_rows_carry_the_error_estimate(self, capsys):
        # Each row's gap to the consensus is within ten times the route's
        # own error estimate, the small-N tail bound included.
        code, out, _ = run_cli(
            capsys,
            "convergence", "--digits", "50",
            "--route", "fourier_series", "--accelerate", "--grid", "1,2,5",
        )
        assert code == EXIT_OK
        header, *rows = [line.split(",") for line in out.splitlines() if line]
        assert header[-1] == "error_estimate"
        assert [row[2] for row in rows] == ["1", "2", "5"]
        for row in rows:
            fields = dict(zip(header, row))
            assert mpf(fields["abs_delta"]) <= 10 * mpf(fields["error_estimate"]), row

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

    def test_output_is_the_report_csv(self, capsys, monkeypatch):
        # hasse at N = 60 needs 39 digits, so the second row is an error row.
        studied = []

        def recording(*args, **kwargs):
            studied.extend(glaisher.report.convergence_study(*args, **kwargs))
            return studied

        monkeypatch.setattr(glaisher.cli, "convergence_study", recording)
        code, out, _ = run_cli(
            capsys, "convergence", "--digits", "25", "--route", "hasse", "--grid", "10,60"
        )
        assert code == EXIT_OK
        assert [r.error is None for r in studied] == [True, False]
        doc = ReportDocument(context_info={"precision_digits": 25}, convergence_records=studied)
        assert out.encode() == serialize(doc, "csv")
        assert out.splitlines()[2] == "hasse,n_terms,60,,,"


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

    @pytest.mark.parametrize(
        "argv",
        [
            ["verify", "--output", "json"],
            ["convergence", "--route", "limit", "--grid", "16", "--output", "json"],
            ["compute", "--output", "csv"],
            ["compute", "--digits", "abc"],
        ],
        ids=["verify-json", "convergence-json", "compute-csv", "digits-abc"],
    )
    def test_usage_error_exits_one(self, capsys, argv):
        # argparse's own exit code, 2, is the disagreement code here.
        code, out, err = run_cli(capsys, *argv)
        assert code == EXIT_CONFIG
        assert out == ""
        assert "error:" in err

    def test_digits_below_minimum_is_config_error(self, capsys):
        code, _, err = run_cli(capsys, "compute", "--digits", "10", "--routes", "feaux")
        assert code == EXIT_CONFIG
        assert "precision too low" in err

    @pytest.mark.parametrize("command", [
        ["compute", "--routes", "feaux"],
        ["verify"],
        ["convergence", "--route", "limit", "--grid", "16"],
    ], ids=["compute", "verify", "convergence"])
    @pytest.mark.parametrize("source", ["flag", "env"])
    def test_digits_above_ceiling_is_config_error(self, capsys, monkeypatch, command, source):
        # 400, the sweep's top case, is the accepted edge.
        if source == "env":
            monkeypatch.setenv("GLAISHER_DIGITS", "401")
            code, out, err = run_cli(capsys, *command)
            name = "GLAISHER_DIGITS"
        else:
            code, out, err = run_cli(capsys, *command[:1], "--digits", "401", *command[1:])
            name = "--digits"
        assert code == EXIT_CONFIG
        assert out == ""
        assert err == (f"error: {name} 401 is above the ceiling of 400 digits: "
                       "the error contract is audited from 20 to 400 digits\n")


class TestProcessExitCodes:
    """The exit codes a shell sees, from ``python -m glaisher.cli``."""

    @pytest.mark.parametrize(
        "argv, code",
        [
            (["compute", "--output", "xml"], EXIT_CONFIG),
            (["--help"], EXIT_OK),
            (["compute", "--digits", "20", "--routes", "feaux,hasse"], EXIT_CONFIG),
            (["compute", "--digits", "25", "--routes", "kummer,feaux",
              "--res2-measure", "dt"], EXIT_DISAGREE),
            (["verify", "--digits", "20", "--out", "missing-dir/out.txt"], EXIT_CONFIG),
        ],
        ids=["usage-error", "help", "hasse-refuses", "dt-control", "unwritable-out"],
    )
    def test_exit_code(self, argv, code):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
        )
        proc = subprocess.run(
            [sys.executable, "-m", "glaisher.cli", *argv], cwd=ROOT, env=env,
            capture_output=True, text=True, timeout=300,
        )
        assert proc.returncode == code, proc.stderr
        assert "Traceback" not in proc.stderr


def test_import_loads_neither_fractions_nor_decimal():
    # fractions (with decimal) costs about 4 ms to import; the exact
    # series coefficients load it on first use, not with the package.
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, glaisher, glaisher.cli; "
         "print(sorted({'fractions', 'decimal'} & set(sys.modules)))"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
