"""Oracle and the three log Gamma representations, cross-checked."""

from __future__ import annotations

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp, mpf

from glaisher import loggamma, routes
from glaisher import (
    DomainError,
    dirichlet_gamma,
    euler_gamma_ref,
    feaux_log_gamma1p,
    fourier_a_n,
    kummer_fourier_log_gamma,
    kummer_log_gamma,
    log_gamma_ref,
    make_context,
)
from glaisher.quadrature import shared_work
from glaisher.report import EXIT_OK, identity_report, run_all

from conftest import abs_diff, rel_diff


def oracle_error(x, digits):
    """Error of log_gamma_ref(x) at ``digits`` against mpmath.loggamma at
    digits + 30, relative to max(1, |log Gamma(x)|): near the zeros of log
    Gamma at 1 and 2 the shift and the series cancel, so only absolute
    accuracy on the scale of 1 is meaningful there."""
    got = log_gamma_ref(x, make_context(digits))
    with mp.workdps(digits + 30):
        expected = mpmath.loggamma(x)
        return abs(got - expected) / max(mpf(1), abs(expected))


def oracle_arguments(digits):
    """Arguments across every path of the oracle at ``digits``: far below
    the fixed-point unit of the shift product, tiny, fractional, on either
    side of the 10 P / 7 shift target, and far above it.  1/3 and 4/3
    take shifts of lengths n and n - 1, one odd and one even, so the
    paired product meets its middle factor z + n/2 at every precision."""
    target = -(-10 * digits // 7)
    with mp.workdps(digits):
        return [
            mpf("1e-4950"), mpf("3e-20000"), mpf(2) ** -200, mpf("1e-6"),
            mpf(1) / 3, mpf(4) / 3, mpf(1) / 4, mpf(1), mpf(2),
            target + mpf(1) / 3, target - mpf(1) / 3, mpf(4000), mpf(10) ** 40,
        ]


class TestStirlingOracle:
    def test_gamma_of_one_is_zero(self, ctx50):
        assert abs(log_gamma_ref(mpf(1), ctx50)) < mpf(10) ** -45

    def test_gamma_of_half_is_log_sqrt_pi(self, ctx50):
        with mp.workdps(70):
            expected = mpmath.log(mpmath.pi) / 2
        assert abs_diff(log_gamma_ref(mpf(1) / 2, ctx50), expected) < mpf(10) ** -45

    def test_gamma_of_five_is_log_24(self, ctx50):
        with mp.workdps(70):
            expected = mpmath.log(24)
        assert abs_diff(log_gamma_ref(mpf(5), ctx50), expected) < mpf(10) ** -45

    @pytest.mark.parametrize("xs", ["1e-6", "0.1", "0.75", "1.5", "23", "150.25", "4000"])
    def test_against_external_oracle(self, ctx50, xs):
        with mp.workdps(80):
            x = mpf(xs)
            expected = mpmath.loggamma(x)
        got = log_gamma_ref(x, ctx50)
        assert rel_diff(got, expected) < mpf(10) ** -48

    def test_rejects_non_positive(self, ctx50):
        with pytest.raises(DomainError):
            log_gamma_ref(mpf(0), ctx50)
        with pytest.raises(DomainError):
            log_gamma_ref(mpf(-3), ctx50)

    @pytest.mark.parametrize("bad", ["inf", "nan"])
    def test_rejects_non_finite(self, ctx50, bad):
        with pytest.raises(DomainError):
            log_gamma_ref(mpf(bad), ctx50)

    @pytest.mark.parametrize("digits", [50, 100, 200, 400])
    def test_against_external_oracle_beyond_fifty_digits(self, digits):
        for x in oracle_arguments(digits):
            err = oracle_error(x, digits)
            assert err <= mpf(10) ** -(digits + 10), (
                f"x = {mpmath.nstr(x, 6)} at {digits} digits: error {mpmath.nstr(err, 3)}"
            )

    @settings(deadline=None, max_examples=40)
    @given(
        x=st.floats(min_value=0, max_value=8, exclude_min=True),
        digits=st.sampled_from([30, 70, 220]),
    )
    def test_property_against_external_oracle(self, x, digits):
        assert oracle_error(mpf(x), digits) <= mpf(10) ** -(digits + 10)

    def test_cache_is_per_precision(self, monkeypatch):
        # A 400-digit call between two 50-digit calls must neither reuse
        # the 50-digit tables nor change what the 50-digit call returns.
        # Both caches start empty: (log 2pi)/2 and the Stirling series'
        # fixed-point coefficients.
        loggamma._half_log_2pi.cache_clear()
        monkeypatch.setattr(loggamma._STIRLING_SERIES, "_cache", {})
        with mp.workdps(50):
            x = mpf(1) / 3
        first = log_gamma_ref(x, make_context(50))
        assert oracle_error(x, 400) <= mpf(10) ** -410
        assert log_gamma_ref(x, make_context(50))._mpf_ == first._mpf_


def end_series_width(digits):
    """The fixed-point width W = prec + 20 of the end series at ``digits``."""
    with make_context(digits).workdps(15):
        return mp.prec + 20


def identity_log_gamma1p(x, ctx):
    """log Gamma(1+x) as the identity pass takes it, at the engine's P + 20
    digits in a computation of its own."""
    with shared_work(), ctx.workdps(20):
        return routes._log_gamma1p(x, ctx)


class TestEndSeries:
    """log Gamma(1+x) on [0, 1/2] for the identity pass: Taylor series at
    x = 0 and x = 1/2 on a Borwein zeta table, meeting at x = 1/4."""

    @pytest.mark.parametrize("digits", [20, 50, 100, 200, 400])
    def test_zeta_table_against_external_zeta(self, digits):
        width = end_series_width(digits)
        table = loggamma._zeta_fixed(width, width // 2 + 1)
        assert len(table) == width // 2
        with mp.workprec(width + 40):
            for k, z in enumerate(table, 2):
                err = abs(z - mpmath.zeta(k) * 2 ** width)
                assert err <= 1, f"zeta({k}) at {digits} digits: {mpmath.nstr(err, 3)} units"

    @pytest.mark.parametrize("digits", [20, 50, 100, 200, 400])
    def test_both_sides_of_each_switch(self, digits, monkeypatch):
        # The expansions meet at x = 1/4; the points 2^-8 from either end
        # are where the nodes crowd, and the grid i/64 holds 0, 1/4 and 1/2.
        def refuse(*args, **kwargs):
            raise AssertionError("the identity pass called log_gamma_ref")

        monkeypatch.setattr(loggamma, "log_gamma_ref", refuse)
        ctx = make_context(digits)
        with ctx.workdps(20):
            quarter, end, ulp = mpf(1) / 4, mpf(2) ** -8, mpf(2) ** -mp.prec
            points = [quarter - ulp, quarter + ulp, end - ulp, end + ulp,
                      mpf(1) / 2 - end - ulp, mpf(1) / 2 - end + ulp]
            points += [mpf(i) / 64 for i in range(33)]
        with shared_work():
            for x in points:
                got = identity_log_gamma1p(x, ctx)
                with mp.workdps(digits + 40):
                    expected = mpmath.loggamma(1 + x)
                    err = abs(got - expected) / max(mpf(1), abs(expected))
                assert err <= mpf(10) ** -(digits + 10), (
                    f"x = {mpmath.nstr(x, 8)} at {digits} digits: error {mpmath.nstr(err, 3)}"
                )

    @pytest.mark.parametrize("digits", [20, 50, 100, 200, 400])
    def test_term_count_from_the_top_bits(self, digits):
        # m from log2 |z| sums about W/3 terms at |z| = 1/8
        # where the bit length alone asked W/2; the value stays within its
        # rounding and a few units of 2^-W of the W/2-term sum.
        ctx = make_context(digits)
        width = end_series_width(digits)
        with ctx.workdps(15):
            quarter, prec = mpf(1) / 4, mp.prec
            points = [quarter / 2, quarter - mpf(2) ** -prec, 3 * quarter / 2, 2 * quarter]
        with shared_work():
            at_zero, at_half = loggamma._end_coefficients(ctx, width)
            for x in points:
                got = loggamma._log_gamma1p_series(x, ctx)
                z = mpmath.libmp.to_fixed(x._mpf_, width)
                near_zero = z < 1 << (width - 2)
                z -= 0 if near_zero else 1 << (width - 1)
                acc = 0
                for c in (at_zero if near_zero else at_half)[width // 2::-1]:
                    acc = c + (acc * z >> width)
                with mp.workprec(2 * width):
                    full = (x if near_zero else 1) * mpf(acc) / mpf(2) ** width
                    err = abs(got - full)
                    assert err <= abs(got) * mpf(2) ** -prec + 4 * mpf(2) ** -width, (
                        f"x = {mpmath.nstr(x, 8)} at {digits} digits"
                    )

    @pytest.mark.parametrize("digits, exponent", [(20, -200), (400, -2000)])
    def test_relative_accuracy_below_the_working_unit(self, digits, exponent):
        # 1 + x rounds to 1 at the working precision, which once made the
        # value an exact 0; the series keeps x as a factor.
        ctx = make_context(digits)
        x = mpf(2) ** exponent
        got = identity_log_gamma1p(x, ctx)
        with mp.workprec(-exponent + 4 * digits):
            expected = mpmath.loggamma(1 + x)
            assert abs(got - expected) / abs(expected) <= mpf(10) ** -(digits + 5)

    def test_series_enters_no_precision_block(self, workdps_blocks):
        # The series takes its P + 15 digit precision once, as bits, and
        # rounds on libmp: a call changes no precision.
        ctx = make_context(50)
        ctx.constants
        workdps_blocks.clear()
        with shared_work():
            for x in (mpf(1) / 8, mpf(3) / 8):
                loggamma._log_gamma1p_series(x, ctx)
        assert workdps_blocks == []

    def test_identity_pass_calls_no_external_zeta_or_loggamma(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the package called an external oracle")

        monkeypatch.setattr(mpmath, "zeta", refuse)
        monkeypatch.setattr(mpmath, "loggamma", refuse)
        doc = identity_report(make_context(50))
        assert not doc.failures and not doc.failed_residuals
        assert [r.identity_id for r in doc.residuals] == ["glaisher_half", "gla2", "log_sin"]

    @pytest.mark.parametrize(
        "digits", [20, 50, 100, 200, pytest.param(400, marks=pytest.mark.slow)])
    def test_reports_call_no_stirling_oracle(self, digits, monkeypatch):
        # The identity pass takes log Gamma(1+x) from the series alone;
        # routes holds no binding of the oracle that the patch would miss.
        def refuse(*args, **kwargs):
            raise AssertionError("the report called log_gamma_ref")

        assert "log_gamma_ref" not in vars(routes)
        monkeypatch.setattr(loggamma, "log_gamma_ref", refuse)
        ctx = make_context(digits)
        assert identity_report(ctx).exit_code == EXIT_OK
        if digits == 50:
            assert run_all(ctx).exit_code == EXIT_OK


class TestFeauxRepresentation:
    def test_zero_gives_log_gamma_one(self, ctx50):
        assert abs(feaux_log_gamma1p(mpf(0), ctx50).value) < mpf(10) ** -40

    def test_one_gives_log_gamma_two(self, ctx50):
        assert abs(feaux_log_gamma1p(mpf(1), ctx50).value) < mpf(10) ** -40

    def test_half_matches_oracle_within_quadrature_error(self, ctx50):
        result = feaux_log_gamma1p(mpf(1) / 2, ctx50)
        oracle = log_gamma_ref(mpf(3) / 2, ctx50)
        assert abs_diff(result.value, oracle) <= 10 * result.error_estimate

    def test_rejects_below_minus_one(self, ctx50):
        with pytest.raises(DomainError):
            feaux_log_gamma1p(mpf(-2), ctx50)


class TestKummerRepresentation:
    def test_half_is_half_log_pi(self, ctx50):
        with mp.workdps(70):
            expected = mpmath.log(mpmath.pi) / 2
        assert abs_diff(kummer_log_gamma(mpf(1) / 2, ctx50).value, expected) < mpf(10) ** -40

    def test_quarter_matches_oracle_within_quadrature_error(self, ctx50):
        result = kummer_log_gamma(mpf(1) / 4, ctx50)
        oracle = log_gamma_ref(mpf(1) / 4, ctx50)
        assert abs_diff(result.value, oracle) <= 10 * result.error_estimate

    @pytest.mark.parametrize("num,den", [(1, 4), (1, 3)])
    def test_reflection_identity(self, ctx50, num, den):
        # log G(x) + log G(1-x) = log pi - log sin(pi x)
        with ctx50.workdps(10):
            x = mpf(num) / den
            one_minus_x = 1 - x
        ra = kummer_log_gamma(x, ctx50)
        rb = kummer_log_gamma(one_minus_x, ctx50)
        with mp.workdps(70):
            rhs = mpmath.log(mpmath.pi) - mpmath.log(mpmath.sin(mpmath.pi * mpf(num) / den))
            gap = abs(ra.value + rb.value - rhs)
            allowed = 10 * (ra.error_estimate + rb.error_estimate)
        assert gap <= allowed

    @pytest.mark.parametrize("xs", ["0.1", "0.25", "0.4"])
    def test_recurrence_against_feaux(self, ctx50, xs):
        # log Gamma(x+1) - log Gamma(x) = log x
        with ctx50.workdps(10):
            x = mpf(xs)
        r_up = feaux_log_gamma1p(x, ctx50)
        r_down = kummer_log_gamma(x, ctx50)
        with ctx50.workdps(10):
            gap = abs((r_up.value - r_down.value) - mpmath.log(x))
            allowed = 10 * (r_up.error_estimate + r_down.error_estimate)
        assert gap <= allowed

    def test_rejects_outside_unit_interval(self, ctx50):
        for bad in (mpf(0), mpf(1), mpf(2), mpf("-0.5")):
            with pytest.raises(DomainError):
                kummer_log_gamma(bad, ctx50)


class TestRepresentationAgreement:
    @pytest.mark.parametrize("num,den", [(1, 4), (1, 3), (1, 2)])
    def test_three_way_agreement(self, ctx50, num, den):
        with ctx50.workdps(10):
            x = mpf(num) / den
        oracle = log_gamma_ref(x, ctx50)
        rk = kummer_log_gamma(x, ctx50)
        rf = feaux_log_gamma1p(x, ctx50)
        kummer = rk.value
        with ctx50.workdps(10):
            feaux_value = rf.value - mpmath.log(x)
        assert abs_diff(kummer, oracle) <= 10 * rk.error_estimate
        assert abs_diff(feaux_value, oracle) <= 10 * (rf.error_estimate + rk.error_estimate)
        assert abs_diff(feaux_value, kummer) <= 10 * (rf.error_estimate + rk.error_estimate)


class TestFourierSeries:
    def test_half_is_exactly_half_log_pi_for_any_n(self, ctx50):
        with mp.workdps(70):
            expected = mpmath.log(mpmath.pi) / 2
        for n in (1, 7, 100):
            value = kummer_fourier_log_gamma(mpf(1) / 2, n, ctx50)
            assert abs_diff(value, expected) < mpf(10) ** -55

    def test_quarter_at_ten_thousand_terms(self, ctx50):
        value = kummer_fourier_log_gamma(mpf(1) / 4, 10_000, ctx50)
        oracle = log_gamma_ref(mpf(1) / 4, ctx50)
        assert abs_diff(value, oracle) < mpf("1e-3")

    def test_doubling_terms_shrinks_error(self, ctx50):
        oracle = log_gamma_ref(mpf(1) / 4, ctx50)
        err_n = abs_diff(kummer_fourier_log_gamma(mpf(1) / 4, 100, ctx50), oracle)
        err_2n = abs_diff(kummer_fourier_log_gamma(mpf(1) / 4, 200, ctx50), oracle)
        err_4n = abs_diff(kummer_fourier_log_gamma(mpf(1) / 4, 400, ctx50), oracle)
        assert err_2n < err_n
        assert err_4n < err_2n

    def test_partial_sums_converge_to_oracle(self, ctx50):
        # error at N = 10^4 strictly smaller than at N = 10^2
        oracle = log_gamma_ref(mpf(1) / 4, ctx50)
        coarse = abs_diff(kummer_fourier_log_gamma(mpf(1) / 4, 100, ctx50), oracle)
        fine = abs_diff(kummer_fourier_log_gamma(mpf(1) / 4, 10_000, ctx50), oracle)
        assert fine < coarse

    def test_domain_checks(self, ctx50):
        with pytest.raises(DomainError):
            kummer_fourier_log_gamma(mpf(2), 10, ctx50)
        with pytest.raises(DomainError):
            kummer_fourier_log_gamma(mpf(1) / 4, 0, ctx50)


class TestFourierCoefficients:
    def test_closed_form_n1(self, ctx50):
        # a_1 = (gamma + log 2pi) / (2 pi)
        fc = fourier_a_n(1, ctx50)
        with mp.workdps(70):
            expected = (mpmath.euler + mpmath.log(2 * mpmath.pi)) / (2 * mpmath.pi)
        assert rel_diff(fc.closed_form_value, expected) < mpf(10) ** -48

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_integral_matches_closed_form(self, ctx50, n):
        fc = fourier_a_n(n, ctx50)
        assert abs_diff(fc.integral_value, fc.closed_form_value) <= 10 * fc.quad_error

    def test_coefficients_decrease(self, ctx50):
        a1 = fourier_a_n(1, ctx50).closed_form_value
        a2 = fourier_a_n(2, ctx50).closed_form_value
        assert a2 < a1

    def test_rejects_zero(self, ctx50):
        with pytest.raises(DomainError):
            fourier_a_n(0, ctx50)


class TestDirichletGamma:
    def test_agrees_with_reference_at_fifty_digits(self, ctx50):
        value = dirichlet_gamma(ctx50).value
        assert rel_diff(value, euler_gamma_ref(ctx50)) < mpf(10) ** -40

    def test_agrees_with_reference_at_twenty_digits(self, ctx20):
        value = dirichlet_gamma(ctx20).value
        assert rel_diff(value, euler_gamma_ref(ctx20)) < mpf(10) ** -10

    def test_error_estimate_positive(self, ctx50):
        assert dirichlet_gamma(ctx50).error_estimate > 0
