"""The seven routes and the identity residuals."""

from __future__ import annotations

import hashlib
from fractions import Fraction
from itertools import islice
from math import comb, factorial

import mpmath
import pytest
from mpmath import mp, mpf

import glaisher.loggamma
import glaisher.routes
import glaisher.smallt
from glaisher import (
    DomainError,
    PrecisionError,
    consensus_log_a,
    gla2_residual,
    glaisher_identity_residual,
    hasse_first_n,
    hasse_required_digits,
    log_gamma_ref,
    log_sin_check,
    make_context,
    res2_measure_check,
    route_feaux,
    route_fourier_series,
    route_hasse,
    route_kummer,
    route_limit,
    route_pain1,
    route_pain2,
)
from glaisher.quadrature import integrate_finite, integrate_zero_to_inf
from glaisher.routes import (
    PAIN1_INTEGRAND,
    PAIN2_INTEGRAND,
    _hasse_partial_sums,
    _hasse_sum,
    _log_barnes_g,
    fourier_default_terms,
)

from conftest import abs_diff, rel_diff

# route_hasse's value and estimate (mpf tuples, mantissa in hex) at
# (digits, N).  The value is the exact double sum rounded once; the
# estimate, pinned before the integer logs moved to smallt.fixed_logs,
# rounds the last head as it did then.
_HASSE_PINS = {
    (50, 80): (
        (0, 0x1fd4689573d81b46bb66772bf507710f1d8957534b971434d5, -199, 197),
        (0, 0x6053aee61a60954ae931b1f331a58b288e3295d6cb4beb8f673, -216, 203),
    ),
    (262, 800): (
        (0, int("7f5c6478b13168b0ba4b536ea2074771ab5b8bf3fba6e891654d8b3082259a44"
                "60d8a57957c9039088d267cbc2c42d75ad432b254728b09b001ef2f8849d018f"
                "267b94186a93f59e4c5d4e383efb44d01404bd8318f93f65c4ddee2087b6bcd1"
                "cf4d741e23bdf9f79a4625be0856d85020f", 16), -909, 907),
        (0, int("554927d5da98566ec4c33b633a70e88cffb648daa9fe94e8bb162faee385015a"
                "c771f51eb9adbb725485d91d756a34dd8651a25be6b4f3ee59ba970caca1f386"
                "109fbb33b8229ad9a2b529b4bcd95ba0818f0e7bb3289129d278f9767cecda31"
                "0133275bc63a2c079ef174dad97fdd64259", 16), -925, 907),
    ),
}


# (W, sha256 of repr(list of heads)) of the Hasse table rows at
# (digits, N), recorded from the table code before the sums moved to
# integers: the table must give the same integers.
_HASSE_HEAD_DIGESTS = {
    (50, 80): (213, "805ab4f8b933b7c869a7c10a97ae347a0c2f0d690ef93e29bb1bb8c81465ae5e"),
    (262, 800): (917, "ec0210cbd6845d011335d069a7343fa6355a297c6ee5b4ee504b9ffe5cc986c3"),
}


class TestIntegralRoutes:
    def test_pairwise_agreement_at_25_digits(self, routes50):
        names = list(routes50)
        for i, a in enumerate(names):
            for b in names[i + 1 :]:
                d = rel_diff(routes50[a].value, routes50[b].value)
                assert d < mpf(10) ** -25, f"{a} vs {b}: {mpmath.nstr(d, 4)}"

    def test_pairwise_agreement_within_error_estimates(self, routes50):
        names = list(routes50)
        for i, a in enumerate(names):
            for b in names[i + 1 :]:
                gap = abs_diff(routes50[a].value, routes50[b].value)
                with mp.workdps(70):
                    allowed = 10 * (
                        routes50[a].error_estimate + routes50[b].error_estimate
                    )
                assert gap <= allowed

    def test_external_cross_check(self, routes50, log_a_oracle):
        # tests-only oracle: log A = 1/12 - zeta'(-1) via mpmath
        for est in routes50.values():
            assert rel_diff(est.value, log_a_oracle) < mpf(10) ** -39

    def test_estimates_structurally_sound(self, routes50):
        for est in routes50.values():
            assert est.error_estimate >= 0
            assert est.evaluations > 0
            assert mpmath.isfinite(est.value)

    def test_pain1_integral_satisfies_printed_identity(self, ctx50, consensus50):
        result = integrate_zero_to_inf(PAIN1_INTEGRAND, ctx=ctx50)
        with ctx50.workdps(10):
            c = ctx50.constants
            rhs = 3 * consensus50 - c.log2 / 3 - mpf(1) / 8
            assert abs(result.value - rhs) < mpf(10) ** -38

    def test_pain2_integral_satisfies_printed_identity(self, ctx50, consensus50):
        result = integrate_zero_to_inf(PAIN2_INTEGRAND, ctx=ctx50)
        with ctx50.workdps(10):
            c = ctx50.constants
            rhs = 3 * consensus50 - mpf(7) / 12 * c.log2 + c.log_pi / 2 - 1
            assert abs(result.value - rhs) < mpf(10) ** -38

    @pytest.mark.parametrize(
        "route, evaluations",
        [
            pytest.param(route_pain1, 1515, id="route_pain1"),
            pytest.param(route_pain2, 1025, id="route_pain2"),
            pytest.param(route_feaux, 1511, id="route_feaux"),
            pytest.param(route_kummer, 1516, id="route_kummer"),
        ],
    )
    def test_hundred_digits_stop_one_level_early(self, route, evaluations):
        # the extrapolated stop ends at level 8; waiting for
        # |I_L - I_(L-1)| <= tol cost level 9 too (about 3000).  The counts
        # are exact: they depend only on where each side's scan stops, so
        # a change to node generation must leave them as they are.
        assert route(make_context(100)).evaluations == evaluations

    def test_fifty_digit_evaluation_counts(self, routes50):
        counts = {name: r.evaluations for name, r in routes50.items()}
        assert counts == {"pain1": 694, "pain2": 480, "feaux": 690, "kummer": 694}

    def test_identity_integral_counts_at_fifty_digits(self, ctx50, consensus50, monkeypatch):
        import glaisher.routes

        counts = []

        def counting(*args, **kwargs):
            result = integrate_finite(*args, **kwargs)
            counts.append(result.evaluations)
            return result

        monkeypatch.setattr(glaisher.routes, "integrate_finite", counting)
        glaisher_identity_residual(ctx50, consensus50)
        gla2_residual(ctx50, consensus50)
        log_sin_check(ctx50)
        res2_measure_check(ctx50, consensus50)
        assert counts == [152, 165, 147, 133]

    def test_determinism_bit_identical(self, ctx30):
        a = route_feaux(ctx30)
        b = route_feaux(ctx30)
        assert a.value._mpf_ == b.value._mpf_
        assert a.evaluations == b.evaluations


class TestLimitRoute:
    def test_smallest_admissible_input(self, ctx30):
        est = route_limit(ctx30, n=2, richardson_order=0)
        assert mpmath.isfinite(est.value)

    def test_order_zero_within_1e3_of_feaux(self, ctx50, routes50):
        est = route_limit(ctx50, n=64, richardson_order=0)
        assert abs_diff(est.value, routes50["feaux"].value) < mpf("1e-3")

    def test_order_three_beats_order_zero(self, ctx50, routes50):
        reference = routes50["feaux"].value
        e0 = abs_diff(route_limit(ctx50, n=64, richardson_order=0).value, reference)
        e3 = abs_diff(route_limit(ctx50, n=64, richardson_order=3).value, reference)
        assert e3 < e0

    def test_error_decreases_monotonically_in_n(self, ctx50, consensus50):
        errors = [
            abs_diff(route_limit(ctx50, n=n, richardson_order=0).value, consensus50)
            for n in (16, 32, 64, 128)
        ]
        for earlier, later in zip(errors, errors[1:]):
            assert later < earlier

    def test_error_estimate_honest(self, ctx50, consensus50):
        est = route_limit(ctx50, n=64, richardson_order=3)
        true_error = abs_diff(est.value, consensus50)
        with mp.workdps(70):
            assert true_error <= 10 * est.error_estimate

    @pytest.mark.parametrize("digits", [20, 50, 200])
    def test_log_barnes_g_matches_oracle_sum(self, digits):
        # The fixed-point log G(m+1) against the oracle sum it replaced,
        # sum_{k<m} log_gamma_ref(k+1), both at P+10 digits.
        ctx = make_context(digits)
        points = [2, 3, 16, 64, 1024]
        with ctx.workdps(10):
            got = _log_barnes_g(points)
            want, total, k = [], mpf(0), 1
            for m in points:
                while k < m:
                    total += log_gamma_ref(mpf(k + 1), ctx)
                    k += 1
                want.append(total)
        for m, g, w in zip(points, got, want):
            assert rel_diff(g, w, dps=digits + 40) <= mpf(10) ** -(digits + 3), m

    def test_route_calls_no_oracle(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("route_limit called log_gamma_ref")

        expected = route_limit(make_context(30))
        monkeypatch.setattr(glaisher.loggamma, "log_gamma_ref", refuse)
        est = route_limit(make_context(30))
        assert est.evaluations == 0
        assert est.value._mpf_ == expected.value._mpf_

    def test_domain_checks(self, ctx30):
        with pytest.raises(DomainError):
            route_limit(ctx30, n=1)
        with pytest.raises(DomainError):
            route_limit(ctx30, n=4, richardson_order=-1)

    @pytest.mark.parametrize("n, order, entries", [
        (2 ** 50, 3, str(2 ** 54)),
        (4, 60, str(2 ** 63)),
        (4, 15_000, "2\\^15003 or more"),     # too long to print in decimal
    ])
    def test_oversized_log_table_refused(self, ctx30, n, order, entries):
        # The table holds n 2^(order+1) entries, far above the cap.
        with pytest.raises(DomainError, match=f"log table of {entries} entries"):
            route_limit(ctx30, n=n, richardson_order=order)


class TestKummerMeasureControl:
    def test_dt_variant_disagrees_grossly(self, ctx50, consensus50):
        dt = route_kummer(ctx50, measure="dt")
        assert abs_diff(dt.value, consensus50) > mpf("1e-2")

    def test_dt_over_t_variant_joins_consensus(self, routes50, consensus50):
        assert rel_diff(routes50["kummer"].value, consensus50) < mpf(10) ** -25

    def test_residual_check_passes_control(self, ctx50, consensus50):
        control = res2_measure_check(ctx50, log_a=consensus50)
        assert control.identity_id == "res2_measure_check"
        assert control.residual > control.tolerance_used

    @pytest.mark.parametrize("digits", [50, 100])
    def test_control_integrates_at_twenty_digits(self, digits, consensus50, monkeypatch):
        # The verdict needs two digits, so the dt variant runs at the
        # 20-digit floor and its count does not grow with P.
        counts = []

        def counting(*args, **kwargs):
            result = integrate_finite(*args, **kwargs)
            counts.append(result.evaluations)
            return result

        monkeypatch.setattr(glaisher.routes, "integrate_finite", counting)
        res2_measure_check(make_context(digits), consensus50)
        assert counts == [133]

    def test_control_residual_matches_full_precision_gap(self, ctx50, consensus50):
        control = res2_measure_check(ctx50, log_a=consensus50)
        full_gap = abs_diff(route_kummer(ctx50, measure="dt").value, consensus50)
        assert abs_diff(control.residual, full_gap) < mpf("1e-10")

    def test_unknown_measure_rejected(self, ctx30):
        with pytest.raises(ValueError):
            route_kummer(ctx30, measure="nonsense")


class TestFourierSeriesRoute:
    def test_first_term_exact(self, ctx50):
        # N = 1 raw: the n = 0 term is log(1) = 0, so the value is the
        # closed-form prefix alone
        est = route_fourier_series(ctx50, n_terms=1, accelerate=False)
        with ctx50.workdps(10):
            c = ctx50.constants
            expected = c.log2 / 36 + (c.euler_gamma + c.log_2pi) / 12
            assert abs(est.value - expected) < mpf(10) ** -55

    def test_accelerated_n100_hits_twenty_digits(self, ctx50, consensus50):
        est = route_fourier_series(ctx50, n_terms=100, accelerate=True)
        assert rel_diff(est.value, consensus50) < mpf(10) ** -20

    def test_raw_error_bracket_at_1e4(self, ctx50, routes50):
        est = route_fourier_series(ctx50, n_terms=10_000, accelerate=False)
        gap = abs_diff(est.value, routes50["feaux"].value)
        assert mpf("1e-5") < gap < mpf("1e-2")

    def test_raw_error_decreases_with_n(self, ctx50, consensus50):
        gaps = [
            abs_diff(
                route_fourier_series(ctx50, n_terms=n, accelerate=False).value,
                consensus50,
            )
            for n in (100, 1000, 10_000)
        ]
        assert gaps[1] < gaps[0]
        assert gaps[2] < gaps[1]

    def test_error_estimates_honest(self, ctx50, consensus50):
        for accelerate, n in ((True, 100), (False, 1000)):
            est = route_fourier_series(ctx50, n_terms=n, accelerate=accelerate)
            true_error = abs_diff(est.value, consensus50)
            with mp.workdps(70):
                assert true_error <= 10 * est.error_estimate

    def test_domain(self, ctx30):
        with pytest.raises(DomainError):
            route_fourier_series(ctx30, n_terms=0)


def _fourier_true_error(est, digits):
    # tests-only oracle: log A = 1/12 - zeta'(-1)
    with mp.workdps(digits + 20):
        return abs(est.value - (mpf(1) / 12 - mpmath.zeta(-1, derivative=1)))


def _log_over_square_derivatives():
    # (a_m, b_m), m = 0, 1, 2, ..., of d^m/du^m (log u / u^2) =
    # (a_m + b_m log u) / u^(m+2), by the two-term integer recurrence
    a, b, m = 0, 1, 0
    while True:
        yield a, b
        a, b, m = b - (m + 2) * a, -(m + 2) * b, m + 1


class TestEulerMaclaurinTail:
    def test_recurrence_gives_the_odd_derivative_constants(self):
        # f^(m) = 2^m (a_m + b_m log u)/u^(m+2) at m = 1, 3, 5, 7: the
        # constants of the B2..B8 terms derived by hand
        recurrence = list(islice(_log_over_square_derivatives(), 62))
        assert recurrence[1:8:2] == [(1, -2), (26, -24), (1044, -720), (69264, -40320)]
        # the tail's closed form: b_m = (-1)^m (m+1)!, a_m = b_m (1 - H_(m+1)),
        # so S_H's coefficient B_(m+1) (H_(m+1) - 1) is -B_(m+1) a_m / b_m
        for m in range(1, 62, 2):
            b = -factorial(m + 1)
            a = b * (1 - sum(Fraction(1, i) for i in range(1, m + 2)))
            assert recurrence[m] == (a, b), f"m = {m}"
            s_h = Fraction(*glaisher.routes._harmonic_bernoulli(m // 2))
            assert s_h == -Fraction(*glaisher.smallt.bernoulli(m + 1)) * a / b, f"m = {m}"

    @pytest.mark.parametrize("digits", [50, 100])
    @pytest.mark.parametrize("n_terms", [1, 2, 5, 10])
    def test_small_n_stops_at_the_turn_within_its_estimate(self, digits, n_terms):
        # Both Bernoulli series turn long before 10^-P; the estimate is
        # the bound of their first omitted terms.
        est = route_fourier_series(make_context(digits), n_terms=n_terms)
        true_error = _fourier_true_error(est, digits)
        with mp.workdps(digits + 20):
            assert true_error <= 10 * est.error_estimate

    @pytest.mark.parametrize("digits", [50, 100])
    def test_full_precision_at_n100(self, digits):
        est = route_fourier_series(make_context(digits), n_terms=100)
        true_error = _fourier_true_error(est, digits)
        with mp.workdps(digits + 20):
            assert true_error <= 10 * est.error_estimate
            assert est.error_estimate <= mpf(10) ** -(digits - 10)

    @pytest.mark.parametrize("digits, n_terms", [(200, 100), (300, 121), (400, 158)])
    def test_full_precision_at_the_default_n(self, digits, n_terms):
        # N = 100 turns near 2e-274, short of 300 and 400 digits; the
        # default N follows P and keeps the turn below 10^-P
        assert fourier_default_terms(digits) == n_terms
        est = route_fourier_series(make_context(digits))
        assert est.parameters["n_terms"] == est.evaluations == n_terms
        true_error = _fourier_true_error(est, digits)
        with mp.workdps(digits + 20):
            assert est.error_estimate <= mpf(10) ** -(digits - 10)
            assert true_error <= 10 * est.error_estimate

    @pytest.mark.parametrize(
        "n_terms, old_error", [(1, 4.9e-6), (2, 7.0e-9), (5, 3.3e-17), (10, 5.5e-31)])
    def test_small_n_cuts_both_series_at_one_order(self, n_terms, old_error):
        # S_H turns one index before S_B; cut at its count, both series give
        # back the errors of the per-term loop that summed the tail before
        # (old_error, at 50 digits), against the 80-digit default value.
        reference = route_fourier_series(make_context(80)).value
        est = route_fourier_series(make_context(50), n_terms=n_terms)
        with mp.workdps(80):
            true_error = abs(est.value - reference)
            assert true_error <= 2 * old_error
            assert true_error <= 10 * est.error_estimate

    @pytest.mark.parametrize("digits", [20, 50, 100, 200, 400])
    def test_one_order_leaves_the_default_n_value(self, digits, monkeypatch):
        # At the default N S_B stops by itself a few terms before S_H; the
        # terms between move no bit of the value.
        ctx = make_context(digits)
        value = route_fourier_series(ctx).value
        series = glaisher.routes._EM_BERNOULLI
        own = series.to_turn
        monkeypatch.setattr(series, "to_turn", lambda z, n=None: own(z))
        assert route_fourier_series(ctx).value._mpf_ == value._mpf_

    def test_default_n_is_100_up_to_245_digits(self):
        assert {fourier_default_terms(p) for p in range(20, 246)} == {100}
        assert fourier_default_terms(246) == 101

    def test_stops_at_the_turn(self, monkeypatch):
        # N = 10 cannot reach 50 digits: S_B's term bound is least at
        # j = 33, where the error is near 5e-30; the tail stops there and
        # says so, after at most _DIVERGING_RISES more coefficients.
        # Emptied first, the Bernoulli cache asks bernfrac once per B_2k
        # read, and the two tail series read them afresh at this precision.
        glaisher.smallt.bernoulli.cache_clear()
        glaisher.routes._EM_BERNOULLI._cache.clear()
        glaisher.routes._EM_HARMONIC._cache.clear()
        calls = []
        bernfrac = mpmath.bernfrac
        monkeypatch.setattr(mpmath, "bernfrac", lambda n: calls.append(n) or bernfrac(n))
        est = route_fourier_series(make_context(50), n_terms=10)
        assert calls == [2 * k for k in range(1, len(calls) + 1)]
        assert len(calls) <= 33 + glaisher.smallt._DIVERGING_RISES + 1
        true_error = _fourier_true_error(est, 50)
        with mp.workdps(70):
            assert true_error <= 10 * est.error_estimate
            assert mpf(10) ** -40 < est.error_estimate < mpf(10) ** -28

    def test_second_call_reads_the_bernoulli_cache(self, monkeypatch):
        # The first call fills smallt.bernoulli; a second call at the same
        # precision asks bernfrac for nothing and returns the same bits.
        ctx = make_context(100)
        first = route_fourier_series(ctx)
        calls = []
        bernfrac = mpmath.bernfrac
        monkeypatch.setattr(mpmath, "bernfrac", lambda n: calls.append(n) or bernfrac(n))
        second = route_fourier_series(ctx)
        assert calls == []
        assert second.value._mpf_ == first.value._mpf_
        assert second.error_estimate._mpf_ == first.error_estimate._mpf_

class TestHasseRoute:
    def test_n1_value_is_eighth_plus_log2(self, ctx50):
        # outer n = 0 contributes nothing (log 1 = 0), so the N = 1 sum is
        # 1/8 - (1/2) * (-4 log 2)/2 = 1/8 + log 2
        est = route_hasse(ctx50, n_terms=1)
        with ctx50.workdps(10):
            expected = mpf(1) / 8 + ctx50.constants.log2
            assert abs(est.value - expected) < mpf(10) ** -50

    def test_insufficient_precision_rejected(self):
        ctx = make_context(30)
        with pytest.raises(PrecisionError, match="insufficient precision"):
            route_hasse(ctx, n_terms=60)

    def test_precision_rule(self):
        assert hasse_required_digits(60) == 19 + 20
        assert hasse_required_digits(200) == 61 + 20

    def test_n60_agreement_measured(self, log_a_oracle):
        # measured convergence: at N = 60 the partial sum carries ~3.3
        # relative digits (the tail decays only like 2/(N (log N)^3),
        # locally N^{-3/2})
        ctx = make_context(80)
        est = route_hasse(ctx, n_terms=60)
        gap = rel_diff(est.value, log_a_oracle)
        assert mpf("1e-4") < gap < mpf("1e-3")

    def test_error_estimate_honest_vs_consensus(self, consensus50):
        ctx = make_context(81)
        est = route_hasse(ctx, n_terms=200)
        true_error = abs_diff(est.value, consensus50)
        with mp.workdps(70):
            assert true_error <= 10 * est.error_estimate

    def test_first_n_for_four_digits_is_176(self, consensus50):
        # frozen from the measured convergence profile
        ctx = make_context(81)
        first, best = hasse_first_n(ctx, digits=4, n_max=200, consensus=consensus50)
        assert first == 176

    def test_no_n_below_200_reaches_six_digits(self, consensus50):
        ctx = make_context(81)
        first, best = hasse_first_n(ctx, digits=6, n_max=200, consensus=consensus50)
        assert first is None
        assert mpf("5e-5") < best < mpf("2e-4")

    @pytest.mark.parametrize("n_max", [1, 2, 40, 200])
    def test_difference_table_matches_direct_sums(self, n_max):
        # Every outer term head/(n+1) = (1/(n+1)) sum_k (-1)^k C(n,k)
        # (k+1)^2 log(k+1) against the same sum with exact binomials at 40
        # more digits, and every partial sum within (n+1)/2 units of 2^-W
        # of the exact sum of those quotients.
        digits = hasse_required_digits(n_max)
        promised = digits - hasse_required_digits(n_max, output_digits=0)
        ctx = make_context(digits)
        with mp.workdps(digits + 40):
            logs = [mpmath.log(k + 1) for k in range(n_max + 1)]
            direct = [
                mpmath.fsum((-1) ** k * comb(n, k) * (k + 1) ** 2 * logs[k]
                            for k in range(n + 1)) / (n + 1)
                for n in range(n_max + 1)
            ]
        width, sums = _hasse_partial_sums(ctx, n_max)
        exact = Fraction(0)
        seen = 0
        for n, head, total in sums:
            with mp.workdps(digits + 40):
                gap = abs(mpf((head, -width)) / (n + 1) - direct[n])
            assert gap <= mpf(10) ** -promised, f"n={n}: |table - direct| = {mpmath.nstr(gap, 3)}"
            exact += Fraction(head, n + 1)
            assert abs(total - exact) <= Fraction(n + 1, 2), f"n={n}"
            seen += 1
        assert seen == n_max + 1
        assert route_hasse(ctx, n_terms=n_max).evaluations == (n_max + 1) * (n_max + 2) // 2

    @pytest.mark.parametrize("digits, n_max", [
        (hasse_required_digits(n), n) for n in (1, 2, 40, 200)] + [(262, 800)])
    def test_weighted_sum_is_the_table_sum_exactly(self, digits, n_max):
        # The O(N) route sum is the table's sum of head/(n+1) as one
        # exact rational, and its head is the table's last head.
        ctx = make_context(digits)
        width, num, den, head = _hasse_sum(ctx, n_max)
        table_width, sums = _hasse_partial_sums(ctx, n_max)
        exact = Fraction(0)
        for n, table_head, _ in sums:
            exact += Fraction(table_head, n + 1)
        assert width == table_width
        assert Fraction(num, den) == exact
        assert head == table_head

    @pytest.mark.parametrize("digits, n_terms", sorted(_HASSE_PINS))
    def test_route_never_enters_the_table(self, digits, n_terms, monkeypatch):
        def table(*args):
            raise AssertionError("route_hasse entered the difference table")

        monkeypatch.setattr(glaisher.routes, "_hasse_partial_sums", table)
        est = route_hasse(make_context(digits), n_terms)
        assert (est.value._mpf_, est.error_estimate._mpf_) == _HASSE_PINS[digits, n_terms]
        # the double sum's inner-term count, which perfbench reconciles
        assert est.evaluations == (n_terms + 1) * (n_terms + 2) // 2

    @pytest.mark.parametrize("digits, n_max", [(4, -1), (4, 0), (0, 60), (-2, 60)])
    def test_first_n_rejects_bad_arguments(self, ctx50, digits, n_max):
        with pytest.raises(DomainError):
            hasse_first_n(ctx50, digits, n_max, mpf("0.25"))

    def test_first_n_refuses_precision_as_the_route_does(self):
        ctx = make_context(30)
        with pytest.raises(PrecisionError, match="insufficient precision") as scan:
            hasse_first_n(ctx, 4, 60, mpf("0.25"))
        with pytest.raises(PrecisionError) as route:
            route_hasse(ctx, n_terms=60)
        assert str(scan.value) == str(route.value)

    @pytest.mark.parametrize("digits, n_max", sorted(_HASSE_HEAD_DIGESTS))
    def test_heads_pinned(self, digits, n_max):
        width, sums = _hasse_partial_sums(make_context(digits), n_max)
        heads = [head for _, head, _ in sums]
        digest = hashlib.sha256(repr(heads).encode()).hexdigest()
        assert (width, digest) == _HASSE_HEAD_DIGESTS[digits, n_max]

    @pytest.mark.slow
    def test_six_digits_first_at_4597(self, consensus50):
        # The 2/(n^2 (log n)^3) term law puts six relative digits far
        # beyond N = 200; measured: first at N = 4597 (gap 9.9996e-7).
        ctx = make_context(hasse_required_digits(4700))
        first, best = hasse_first_n(ctx, digits=6, n_max=4700, consensus=consensus50)
        assert first == 4597

    @pytest.mark.parametrize("digits, n_terms", sorted(_HASSE_PINS))
    def test_bits_pinned(self, digits, n_terms):
        est = route_hasse(make_context(digits), n_terms)
        assert (est.value._mpf_, est.error_estimate._mpf_) == _HASSE_PINS[digits, n_terms]

    def test_precision_blocks_do_not_grow_with_n(self, workdps_blocks):
        # The outer loop sums integers: no step opens a block of its own,
        # so N = 800 enters as many as N = 80.
        ctx = make_context(262)
        counts = []
        for n_terms in (80, 800):
            workdps_blocks.clear()
            route_hasse(ctx, n_terms)
            counts.append(len(workdps_blocks))
        assert counts[0] == counts[1]

    def test_determinism(self, ctx50):
        a = route_hasse(ctx50, n_terms=40)
        b = route_hasse(ctx50, n_terms=40)
        assert a.value._mpf_ == b.value._mpf_


class TestIdentityResiduals:
    def test_glaisher_half_residual_small(self, ctx50, consensus50):
        res = glaisher_identity_residual(ctx50, log_a=consensus50)
        assert res.identity_id == "glaisher_half"
        assert abs(res.residual) < mpf(10) ** -40

    def test_gla2_residual_small(self, ctx50, consensus50):
        res = gla2_residual(ctx50, log_a=consensus50)
        assert abs(res.residual) < mpf(10) ** -40

    def test_log_sin_residual_small(self, ctx50):
        res = log_sin_check(ctx50)
        assert abs(res.residual) < mpf(10) ** -40

    def test_log_sin_residual_within_tolerance_at_400_digits(self):
        # An extrapolated stop that only just predicted tol missed it here
        # (-1.37e-390 against 1e-390); the one-digit margin mends that.
        res = log_sin_check(make_context(400))
        assert abs(res.residual) <= res.tolerance_used

    def test_log_sin_residual_at_twenty_digits(self, ctx20):
        res = log_sin_check(ctx20)
        assert abs(res.residual) < mpf(10) ** -12

    def test_wrong_coefficient_creates_visible_residual(self, ctx50, consensus50):
        res = glaisher_identity_residual(
            ctx50, log_a=consensus50, log2_coefficient=mpf(7) / 25
        )
        assert abs(res.residual) > mpf("1e-4")

    def test_tolerance_recorded_is_context_target(self, ctx50, consensus50):
        res = glaisher_identity_residual(ctx50, log_a=consensus50)
        assert res.tolerance_used == ctx50.target_tolerance

    def test_residuals_well_below_scaled_tolerance(self, ctx50, consensus50):
        # |r| < 10^-(P-10) at default settings
        bound = mpf(10) ** (-(ctx50.precision_digits - 10))
        for res in (
            glaisher_identity_residual(ctx50, log_a=consensus50),
            gla2_residual(ctx50, log_a=consensus50),
            log_sin_check(ctx50),
        ):
            assert abs(res.residual) < bound


class TestConsensus:
    def test_consensus_between_feaux_and_kummer(self, ctx50, routes50, consensus50):
        assert rel_diff(consensus50, routes50["feaux"].value) < mpf(10) ** -39
        assert rel_diff(consensus50, routes50["kummer"].value) < mpf(10) ** -39

    def test_consensus_without_precomputed_routes(self, ctx30):
        value = consensus_log_a(ctx30)
        assert mpf("0.24") < value < mpf("0.25")


class TestSixRoutePairwiseProperty:
    def test_all_defaults_agree_within_summed_estimates(self, ctx50, routes50):
        # pain1/pain2/feaux/kummer plus the accelerated series and hasse at
        # its default N must agree pairwise within 10x the summed estimates
        family = dict(routes50)
        family["fourier_series"] = route_fourier_series(ctx50, n_terms=100, accelerate=True)
        family["hasse"] = route_hasse(ctx50, n_terms=80)
        names = list(family)
        for i, a in enumerate(names):
            for b in names[i + 1 :]:
                gap = abs_diff(family[a].value, family[b].value)
                with mp.workdps(70):
                    allowed = 10 * (family[a].error_estimate + family[b].error_estimate)
                assert gap <= allowed, f"{a} vs {b}"
