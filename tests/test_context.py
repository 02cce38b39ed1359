"""Context, constants, and decimal serialization contracts."""

from __future__ import annotations

import mpmath
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from mpmath import mp, mpf
from mpmath.libmp import from_man_exp

import glaisher.context
from glaisher import (
    DecimalParseError,
    PrecisionError,
    dirichlet_gamma,
    euler_gamma_ref,
    make_context,
    real_from_decimal,
    real_to_decimal,
)

from conftest import abs_diff, rel_diff


class TestMakeContext:
    def test_default_tolerance_rule_50(self):
        ctx = make_context(50)
        assert rel_diff(ctx.target_tolerance, mpf(10) ** -40) < mpf(10) ** -30

    def test_default_tolerance_rule_20(self):
        ctx = make_context(20)
        assert rel_diff(ctx.target_tolerance, mpf(10) ** -10) < mpf(10) ** -15

    def test_rejects_precision_below_twenty(self):
        with pytest.raises(PrecisionError, match="precision too low"):
            make_context(19)

    def test_tolerance_positive_and_above_floor(self):
        for digits in (20, 35, 50, 100):
            ctx = make_context(digits)
            assert ctx.target_tolerance > 0
            assert ctx.target_tolerance >= mpf(10) ** (-digits)


class TestConstants:
    def test_log_2pi_identity_exact(self, ctx50):
        c = ctx50.constants
        # assertable exactly at the cache's own working precision
        with ctx50.workdps(10):
            assert c.log_2pi == c.log2 + c.log_pi

    def test_cache_idempotent(self, ctx50):
        cached = ctx50.constants
        fresh = glaisher.context.compute_constants(ctx50)
        for name in ("pi", "log2", "log_pi", "log_2pi", "euler_gamma"):
            a = getattr(cached, name)
            b = getattr(fresh, name)
            assert abs_diff(a, b) < mpf(10) ** (-(ctx50.precision_digits - 2)) * abs(a)

    def test_cache_is_write_once(self, ctx50):
        assert ctx50.constants is ctx50.constants

    def test_euler_gamma_vs_dirichlet_integral(self, ctx50):
        # the two independent evaluations of Euler's constant must meet
        # within ten times the context target tolerance
        quad_value = dirichlet_gamma(ctx50).value
        assert abs_diff(ctx50.constants.euler_gamma, quad_value) < 10 * ctx50.target_tolerance


class TestEulerGammaRef:
    def test_against_external_oracle(self, ctx50):
        with mp.workdps(70):
            reference = +mpmath.euler
        assert rel_diff(euler_gamma_ref(ctx50), reference) < mpf(10) ** -49

    @pytest.mark.parametrize("digits", [20, 50, 100, 200, 400])
    def test_against_external_oracle_at_every_precision(self, digits):
        # The dropped tail E1(n) < e^-n / n <= 10^-(P+12) / n, n >= 74,
        # is below the rounding at P + 10 digits (measured 5.8e-32
        # relative at 20 digits, 1.0e-411 at 400).
        got = euler_gamma_ref(make_context(digits))
        with mp.workdps(digits + 30):
            assert rel_diff(got, +mpmath.euler) <= mpf(10) ** -(digits + 10)

    def test_precision_monotonicity(self, ctx20, ctx50):
        g20 = euler_gamma_ref(ctx20)
        g50 = euler_gamma_ref(ctx50)
        assert rel_diff(g20, g50) < mpf(10) ** -19

    def test_deterministic_bits(self, ctx30):
        a = euler_gamma_ref(ctx30)
        b = euler_gamma_ref(ctx30)
        assert a._mpf_ == b._mpf_


class TestDecimalRoundTrip:
    @pytest.mark.parametrize(
        "text,num,den",
        [
            ("0.5", 1, 2),
            ("1e-3", 1, 1000),
            ("-2.25e+2", -225, 1),
            ("+.5", 1, 2),
            ("3", 3, 1),
        ],
    )
    def test_parse_known_values(self, ctx50, text, num, den):
        parsed = real_from_decimal(text, ctx50)
        with ctx50.workdps(5):
            expected = mpf(num) / den
            assert abs(parsed - expected) <= abs(expected) * mpf(10) ** -50

    def test_round_trip_relative_error(self, ctx50):
        digits = ctx50.precision_digits
        with ctx50.workdps():
            values = [
                mpmath.sqrt(mpf(2)),
                +mpmath.pi,
                mpf(1) / 3,
                mpf("1e-37") * 7,
                -mpmath.exp(mpf(10)),
            ]
        for v in values:
            s = real_to_decimal(v, digits)
            back = real_from_decimal(s, ctx50)
            assert rel_diff(back, v) < mpf(10) ** (-(digits - 2))

    @settings(deadline=None, max_examples=80)
    @given(
        mantissa=st.integers(min_value=-(2 ** 1400), max_value=2 ** 1400),
        exponent=st.integers(min_value=-3000, max_value=3000),
        digits=st.integers(min_value=5, max_value=400),
    )
    @example(mantissa=0, exponent=0, digits=5)
    def test_round_trip_property(self, mantissa, exponent, digits):
        # Any signed mpf, exact from its mantissa and exponent, printed with
        # ``digits`` significant digits, parses back within 10^-(digits-2)
        # relative; zero comes back as exactly zero.
        x = mp.make_mpf(from_man_exp(mantissa, exponent))
        back = real_from_decimal(real_to_decimal(x, digits), make_context(max(digits, 20)))
        if mantissa == 0:
            assert back == 0
            return
        with mp.workdps(digits + 20):
            assert abs(back - x) <= abs(x) * mpf(10) ** (2 - digits)

    def test_zero_round_trips(self, ctx50):
        assert real_from_decimal(real_to_decimal(mpf(0), 10), ctx50) == 0

    @pytest.mark.parametrize("bad", ["abc", "1.2.3", "", "1e", "--5", "0x10", "1,5"])
    def test_malformed_strings_raise_with_position(self, ctx50, bad):
        with pytest.raises(DecimalParseError) as err:
            real_from_decimal(bad, ctx50)
        assert 0 <= err.value.position <= max(len(bad) - 1, 0)

    def test_exponent_format_accepted(self, ctx50):
        parsed = real_from_decimal("2.5E-7", ctx50)
        with ctx50.workdps(5):
            assert abs(parsed - mpf("2.5e-7")) < mpf(10) ** -55


class TestDeterminism:
    def test_constants_bit_identical_across_equal_contexts(self):
        a = make_context(30).constants
        b = make_context(30).constants
        assert a.pi._mpf_ == b.pi._mpf_
        assert a.euler_gamma._mpf_ == b.euler_gamma._mpf_
        assert a.log_2pi._mpf_ == b.log_2pi._mpf_
