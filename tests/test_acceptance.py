"""Acceptance gate: one test per criterion, one visible PASS/FAIL line each.

Run with plain ``pytest tests/test_acceptance.py`` -- the per-criterion
lines print through capture so they are always visible.

Criterion 7 checks the Hasse series at the accuracy it has.  Its outer
terms decay like 2/(n^2 (log n)^3) (measured n^2 (log n)^3 |term| = 1.97,
1.86, 1.84, 1.82 at n = 10, 100, 200, 1000), so the relative gap is
8.2e-5 at N = 200: four digits arrive first at N = 176, five at N = 849,
and six only at N = 4597.  The criterion asserts four digits by
N <= 200, that cancellation at the precision rule's budget leaves the
promised 20 output digits at N = 200, and that the N = 200 error
estimate is honest (true error <= 10x estimate).
"""

from __future__ import annotations

import time

import mpmath
import pytest
from mpmath import mp, mpf

from glaisher import (
    Integrand,
    error_model_check,
    euler_gamma_ref,
    feaux_log_gamma1p,
    fourier_a_n,
    gla2_residual,
    glaisher_identity_residual,
    hasse_first_n,
    hasse_required_digits,
    kummer_log_gamma,
    log_gamma_ref,
    log_sin_check,
    make_context,
    route_feaux,
    route_fourier_series,
    route_hasse,
    route_kummer,
    route_limit,
    route_pain1,
    route_pain2,
    run_all,
    serialize,
    deserialize_report,
)
from glaisher.cli import EXIT_DISAGREE, EXIT_OK, main
from glaisher.loggamma import DIRICHLET_INTEGRAND
from glaisher.report import CSV_HEADER, convergence_study

from conftest import abs_diff, rel_diff


@pytest.fixture
def announce(capsys):
    def _announce(number: int, ok: bool, detail: str) -> None:
        with capsys.disabled():
            print(f"  {'PASS' if ok else 'FAIL'}  criterion {number:2d}: {detail}")

    return _announce


def digits_of_agreement(a, b):
    d = rel_diff(a, b)
    if d == 0:
        return mpf(200)
    with mp.workdps(30):
        return -mpmath.log10(d)


class TestAcceptance:
    def test_criterion_01_cross_route_consensus(self, ctx50, announce):
        start = time.perf_counter()
        estimates = {
            "feaux": route_feaux(ctx50),
            "kummer": route_kummer(ctx50),
            "pain1": route_pain1(ctx50),
            "pain2": route_pain2(ctx50),
        }
        elapsed = time.perf_counter() - start
        worst = mpf(1000)
        names = list(estimates)
        for i, a in enumerate(names):
            for b in names[i + 1 :]:
                worst = min(worst, digits_of_agreement(estimates[a].value, estimates[b].value))
        ok = worst >= 25 and elapsed < 120
        announce(1, ok, f"integral routes agree to >= {mpmath.nstr(worst, 4)} digits "
                        f"(need 25) in {elapsed:.1f}s (need < 120s)")
        assert worst >= 25
        assert elapsed < 120

    def test_criterion_02_identity_residuals(self, ctx50, consensus50, announce):
        residuals = [
            glaisher_identity_residual(ctx50, log_a=consensus50),
            gla2_residual(ctx50, log_a=consensus50),
            log_sin_check(ctx50),
        ]
        worst = max(abs(r.residual) for r in residuals)
        ok = worst < mpf(10) ** -40
        announce(2, ok, f"gla/gla2/log-sin residuals all below 1e-40 "
                        f"(worst {mpmath.nstr(worst, 3)})")
        assert ok

    def test_criterion_03_res2_measure_resolution(self, ctx50, consensus50, announce, capsys):
        dt_over_t = route_kummer(ctx50, measure="dt_over_t")
        dt = route_kummer(ctx50, measure="dt")
        joins = digits_of_agreement(dt_over_t.value, consensus50)
        deviates = abs_diff(dt.value, consensus50)
        # both runs reproducible through the CLI flag
        code_good = main(["compute", "--digits", "25", "--routes", "kummer,feaux",
                          "--res2-measure", "dt_over_t"])
        code_ctrl = main(["compute", "--digits", "25", "--routes", "kummer,feaux",
                          "--res2-measure", "dt"])
        capsys.readouterr()
        ok = (joins >= 25 and deviates > mpf("1e-2")
              and code_good == EXIT_OK and code_ctrl == EXIT_DISAGREE)
        announce(3, ok, f"dt/t joins consensus ({mpmath.nstr(joins, 4)} digits), dt variant "
                        f"deviates by {mpmath.nstr(deviates, 3)} > 1e-2; CLI flag exits "
                        f"{code_good}/{code_ctrl}")
        assert joins >= 25
        assert deviates > mpf("1e-2")
        assert code_good == EXIT_OK
        assert code_ctrl == EXIT_DISAGREE

    def test_criterion_04_log_gamma_representations(self, ctx50, announce):
        worst = mpf(1000)
        for num, den in ((1, 4), (1, 3), (1, 2)):
            with ctx50.workdps(10):
                x = mpf(num) / den
            oracle = log_gamma_ref(x, ctx50)
            kummer = kummer_log_gamma(x, ctx50).value
            with ctx50.workdps(10):
                feaux = feaux_log_gamma1p(x, ctx50).value - mpmath.log(x)
            for a, b in ((oracle, kummer), (oracle, feaux), (kummer, feaux)):
                worst = min(worst, digits_of_agreement(a, b))
        # reflection and recurrence within 10x combined error estimates
        xq = mpf(1) / 4
        ra = kummer_log_gamma(xq, ctx50)
        rb = kummer_log_gamma(1 - xq, ctx50)
        rup = feaux_log_gamma1p(xq, ctx50)
        with mp.workdps(70):
            reflection_gap = abs(ra.value + rb.value - (mpmath.log(mpmath.pi)
                                                        - mpmath.log(mpmath.sin(mpmath.pi / 4))))
            recurrence_gap = abs((rup.value - ra.value) - mpmath.log(xq))
            reflection_ok = reflection_gap <= 10 * (ra.error_estimate + rb.error_estimate)
            recurrence_ok = recurrence_gap <= 10 * (rup.error_estimate + ra.error_estimate)
        ok = worst >= 30 and reflection_ok and recurrence_ok
        announce(4, ok, f"Feaux/Kummer/Stirling pairwise >= {mpmath.nstr(worst, 4)} digits "
                        f"(need 30); reflection and recurrence within 10x errors")
        assert worst >= 30
        assert reflection_ok
        assert recurrence_ok

    def test_criterion_05_fourier_coefficients(self, ctx50, announce):
        worst_ratio = mpf(0)
        for n in range(1, 6):
            fc = fourier_a_n(n, ctx50)
            gap = abs_diff(fc.integral_value, fc.closed_form_value)
            with mp.workdps(70):
                worst_ratio = max(worst_ratio, gap / fc.quad_error)
        ok = worst_ratio <= 10
        announce(5, ok, f"a_n integral vs closed form within 10x quadrature error for "
                        f"n=1..5 (worst ratio {mpmath.nstr(worst_ratio, 3)})")
        assert ok

    def test_criterion_06_appendix_series(self, ctx50, consensus50, announce):
        accelerated = route_fourier_series(ctx50, n_terms=100, accelerate=True)
        digits = digits_of_agreement(accelerated.value, consensus50)
        raw_errors = []
        scales = []
        for n in (100, 1000, 10_000):
            raw = route_fourier_series(ctx50, n_terms=n, accelerate=False)
            err = abs_diff(raw.value, consensus50)
            raw_errors.append(err)
            with mp.workdps(30):
                scales.append(err * n / mpmath.log(n))
        decreasing = raw_errors[1] < raw_errors[0] and raw_errors[2] < raw_errors[1]
        with mp.workdps(30):
            theta_band = max(scales) / min(scales)
        ok = digits >= 20 and decreasing and theta_band < 2
        announce(6, ok, f"accelerated N=100 matches to {mpmath.nstr(digits, 4)} digits "
                        f"(need 20); raw errors decrease at log(N)/N scale "
                        f"(band ratio {mpmath.nstr(theta_band, 3)})")
        assert digits >= 20
        assert decreasing
        assert theta_band < 2

    def test_criterion_07_hasse_series(self, consensus50, announce):
        # The outer terms decay like 2/(n^2 (log n)^3), so the relative
        # gap after N terms is about 8.2e-5 at N = 200: four digits is
        # what N <= 200 can give (first at N = 176), five need N = 849 and
        # six N = 4597.  Checked here: (a) four digits by N = 200, (b) the
        # cancellation stays inside the precision rule's budget, so the
        # gap is truncation and not rounding, (c) the error estimate is
        # honest at N = 200.
        n_max = 200
        digits = hasse_required_digits(n_max)
        promised = digits - hasse_required_digits(n_max, output_digits=0)
        ctx = make_context(digits)
        first4, best = hasse_first_n(ctx, digits=4, n_max=n_max, consensus=consensus50)
        est = route_hasse(ctx, n_terms=n_max)
        reference = route_hasse(make_context(digits + 40), n_terms=n_max)
        kept = digits_of_agreement(est.value, reference.value)
        true_error = abs_diff(est.value, consensus50)
        with mp.workdps(30):
            ratio = true_error / est.error_estimate
        ok = first4 is not None and kept >= promised and ratio <= 10
        announce(7, ok, f"hasse 4 digits first at N={first4} <= {n_max} (best gap seen "
                        f"{mpmath.nstr(best, 3)}); N={n_max} keeps {mpmath.nstr(kept, 3)} "
                        f"digits at {digits}-digit precision (need {promised}); true error "
                        f"{mpmath.nstr(ratio, 3)}x estimate (need <= 10); 5 digits need "
                        f"N=849, 6 N=4597 by the 2/(n^2 (log n)^3) term law")
        assert first4 is not None, (
            f"no N <= {n_max} brings the Hasse partial sum within 1e-4 of consensus: "
            f"best relative gap {mpmath.nstr(best, 4)}; the 2/(n^2 (log n)^3) term law "
            "gives 8.2e-5 at N=200 (4 digits first at N=176, 5 at N=849, 6 at N=4597)"
        )
        assert kept >= promised, (
            f"N={n_max} at {digits} digits agrees with the {digits + 40}-digit sum to "
            f"only {mpmath.nstr(kept, 4)} digits; the precision rule promises {promised}"
        )
        assert ratio <= 10, (
            f"true error at N={n_max} is {mpmath.nstr(ratio, 4)}x the error estimate"
        )

    def test_criterion_08_defining_limit(self, ctx50, consensus50, announce):
        errors = [
            abs_diff(route_limit(ctx50, n=n, richardson_order=0).value, consensus50)
            for n in (16, 32, 64, 128)
        ]
        monotone = all(b < a for a, b in zip(errors, errors[1:]))
        e0 = abs_diff(route_limit(ctx50, n=64, richardson_order=0).value, consensus50)
        e3 = abs_diff(route_limit(ctx50, n=64, richardson_order=3).value, consensus50)
        ok = monotone and e3 < e0
        announce(8, ok, f"limit error monotone over n=16..128; order 3 at n=64 "
                        f"({mpmath.nstr(e3, 3)}) beats order 0 ({mpmath.nstr(e0, 3)})")
        assert monotone
        assert e3 < e0

    def test_criterion_09_quadrature_honesty(self, ctx50, announce):
        with mp.workdps(70):
            log_sin_exact = -mpmath.log(2) / 2
        corpus = [
            (Integrand(eval=lambda t: mpmath.exp(-t), label="exp_decay"), mpf(1)),
            (DIRICHLET_INTEGRAND, euler_gamma_ref(ctx50)),
            (
                Integrand(eval=lambda x: mpmath.log(mpmath.sin(mpmath.pi * x)), label="log_sin"),
                log_sin_exact,
                (mpf(0), mpf(1) / 2),
            ),
            (
                Integrand(eval=lambda x: 1 / mpmath.sqrt(x), label="inv_sqrt"),
                mpf(2),
                (mpf(0), mpf(1)),
            ),
        ]
        report = error_model_check(corpus, ctx50)
        ok = report.all_ok
        margins = ", ".join(
            f"{e.label}={mpmath.nstr(e.margin, 3)}" for e in report.entries
        )
        announce(9, ok, f"true error <= 10x estimate on the corpus (margins: {margins})")
        assert ok

    def test_criterion_10_serialization(self, ctx50, announce):
        doc = run_all(ctx50, ["feaux", "kummer"])
        doc.convergence_records = convergence_study(
            "limit", [16, 32], ctx50, params={"limit_order": 0}
        )
        raw_json = serialize(doc, "json")
        parsed = deserialize_report(raw_json, ctx50)
        tol = mpf(10) ** (-(ctx50.precision_digits - 2))
        values_ok = all(
            rel_diff(a.value, b.value) < tol
            for a, b in zip(parsed.estimates, doc.estimates)
        ) and all(
            rel_diff(a.residual, b.residual) < max(tol, mpf(10) ** -60)
            or abs_diff(a.residual, b.residual) < mpf(10) ** -60
            for a, b in zip(parsed.residuals, doc.residuals)
        )
        raw_csv = serialize(doc, "csv")
        header_ok = raw_csv.split(b"\n")[0] == CSV_HEADER.encode()
        rows_ok = len([l for l in raw_csv.decode().splitlines() if l]) == 1 + len(
            doc.convergence_records
        )
        ok = values_ok and header_ok and rows_ok
        announce(10, ok, f"JSON round-trip preserves values to P-2 digits; CSV header "
                         f"byte-exact with {len(doc.convergence_records)} records")
        assert values_ok
        assert header_ok
        assert rows_ok

