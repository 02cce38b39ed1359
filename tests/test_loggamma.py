"""Oracle and the three log Gamma representations, cross-checked."""

from __future__ import annotations

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp, mpf

from glaisher import loggamma
from glaisher import (
    DomainError,
    dirichlet_gamma,
    euler_gamma_ref,
    feaux_log_gamma1p,
    fourier_a_n,
    kummer_fourier_log_gamma,
    kummer_log_gamma,
    log_barnes_g,
    log_gamma_ref,
    make_context,
)

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
    side of the 10 P / 7 shift target, and far above it."""
    target = -(-10 * digits // 7)
    with mp.workdps(digits):
        return [
            mpf("1e-4950"), mpf("3e-20000"), mpf(2) ** -200, mpf("1e-6"),
            mpf(1) / 3, mpf(1) / 4, mpf(1), mpf(2),
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
        monkeypatch.setattr(loggamma, "_STIRLING", {})
        monkeypatch.setattr(loggamma._STIRLING_SERIES, "_cache", {})
        with mp.workdps(50):
            x = mpf(1) / 3
        first = log_gamma_ref(x, make_context(50))
        assert oracle_error(x, 400) <= mpf(10) ** -410
        assert log_gamma_ref(x, make_context(50))._mpf_ == first._mpf_


class TestFeauxRepresentation:
    def test_zero_gives_log_gamma_one(self, ctx50):
        assert abs(feaux_log_gamma1p(mpf(0), ctx50)) < mpf(10) ** -40

    def test_one_gives_log_gamma_two(self, ctx50):
        assert abs(feaux_log_gamma1p(mpf(1), ctx50)) < mpf(10) ** -40

    def test_half_matches_oracle_within_quadrature_error(self, ctx50):
        value, result = feaux_log_gamma1p(mpf(1) / 2, ctx50, full=True)
        oracle = log_gamma_ref(mpf(3) / 2, ctx50)
        assert abs_diff(value, oracle) <= 10 * result.error_estimate

    def test_rejects_below_minus_one(self, ctx50):
        with pytest.raises(DomainError):
            feaux_log_gamma1p(mpf(-2), ctx50)


class TestKummerRepresentation:
    def test_half_is_half_log_pi(self, ctx50):
        with mp.workdps(70):
            expected = mpmath.log(mpmath.pi) / 2
        assert abs_diff(kummer_log_gamma(mpf(1) / 2, ctx50), expected) < mpf(10) ** -40

    def test_quarter_matches_oracle_within_quadrature_error(self, ctx50):
        value, result = kummer_log_gamma(mpf(1) / 4, ctx50, full=True)
        oracle = log_gamma_ref(mpf(1) / 4, ctx50)
        assert abs_diff(value, oracle) <= 10 * result.error_estimate

    @pytest.mark.parametrize("num,den", [(1, 4), (1, 3)])
    def test_reflection_identity(self, ctx50, num, den):
        # log G(x) + log G(1-x) = log pi - log sin(pi x)
        with ctx50.workdps(10):
            x = mpf(num) / den
            one_minus_x = 1 - x
        a, ra = kummer_log_gamma(x, ctx50, full=True)
        b, rb = kummer_log_gamma(one_minus_x, ctx50, full=True)
        with mp.workdps(70):
            rhs = mpmath.log(mpmath.pi) - mpmath.log(mpmath.sin(mpmath.pi * mpf(num) / den))
            gap = abs(a + b - rhs)
            allowed = 10 * (ra.error_estimate + rb.error_estimate)
        assert gap <= allowed

    @pytest.mark.parametrize("xs", ["0.1", "0.25", "0.4"])
    def test_recurrence_against_feaux(self, ctx50, xs):
        # log Gamma(x+1) - log Gamma(x) = log x
        with ctx50.workdps(10):
            x = mpf(xs)
        up, r_up = feaux_log_gamma1p(x, ctx50, full=True)
        down, r_down = kummer_log_gamma(x, ctx50, full=True)
        with ctx50.workdps(10):
            gap = abs((up - down) - mpmath.log(x))
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
        kummer, rk = kummer_log_gamma(x, ctx50, full=True)
        feaux_shifted, rf = feaux_log_gamma1p(x, ctx50, full=True)
        with ctx50.workdps(10):
            feaux_value = feaux_shifted - mpmath.log(x)
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
        value = dirichlet_gamma(ctx50)
        assert rel_diff(value, euler_gamma_ref(ctx50)) < mpf(10) ** -40

    def test_agrees_with_reference_at_twenty_digits(self, ctx20):
        value = dirichlet_gamma(ctx20)
        assert rel_diff(value, euler_gamma_ref(ctx20)) < mpf(10) ** -10

    def test_error_estimate_positive(self, ctx50):
        _, result = dirichlet_gamma(ctx50, full=True)
        assert result.error_estimate > 0


class TestBarnesG:
    def test_z_one_is_zero(self, ctx50):
        # needs int_0^1 log Gamma = (1/2) log 2pi: quadrature + oracle
        # self-consistency
        assert abs(log_barnes_g(mpf(1), ctx50)) < mpf(10) ** -40

    def test_continuity_at_zero(self, ctx50):
        value = log_barnes_g(mpf("1e-6"), ctx50)
        assert abs(value) < mpf("1e-5")

    def test_half_consistent_with_gla2_identity(self, ctx50, routes50):
        # log A = (2/3) int_0^1/2 log Gamma - (5/36) log 2 - (log pi)/6,
        # with the integral recovered from log G(1+z) at z = 1/2
        z = mpf(1) / 2
        g_half = log_barnes_g(z, ctx50)
        with ctx50.workdps(10):
            lg_half = log_gamma_ref(z, ctx50)
            integral = z * (1 - z) / 2 + z / 2 * ctx50.constants.log_2pi + z * lg_half - g_half
            log_a = (
                mpf(2) / 3 * integral
                - mpf(5) / 36 * ctx50.constants.log2
                - ctx50.constants.log_pi / 6
            )
        assert abs_diff(log_a, routes50["feaux"].value) < mpf(10) ** -38

    def test_domain(self, ctx50):
        with pytest.raises(DomainError):
            log_barnes_g(mpf(0), ctx50)
        with pytest.raises(DomainError):
            log_barnes_g(mpf("1.5"), ctx50)
