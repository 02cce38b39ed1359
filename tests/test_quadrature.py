"""Quadrature engine: known values, honesty, near-zero consistency."""

from __future__ import annotations

import dataclasses
import tracemalloc

import mpmath
import pytest
from mpmath import mp, mpf

import glaisher.quadrature
from glaisher import (
    Integrand,
    IntegrandEvaluationError,
    NoConvergenceError,
    error_model_check,
    euler_gamma_ref,
    integrate_finite,
    integrate_zero_to_inf,
    make_context,
)
from glaisher.loggamma import (
    DIRICHLET_INTEGRAND,
    feaux_integrand,
    fourier_a_n_integrand,
    kummer_integrand,
)
from glaisher.quadrature import (
    DEFAULT_NEAR_ZERO_THRESHOLD,
    _below,
    _exp_sinh_nodes,
    _extrapolated_below,
    _level_nodes,
    _log10,
    _max_level,
    _scan_cap,
    _tanh_sinh_nodes,
)
from glaisher.routes import (
    PAIN1_INTEGRAND,
    PAIN2_INTEGRAND,
    RES1_INTEGRAND,
    RES2_DT_INTEGRAND,
    RES2_INTEGRAND,
)
from glaisher.smallt import cancellation_guard

from conftest import abs_diff, reference_stop


def exp_decay():
    return Integrand(eval=lambda t: mpmath.exp(-t), label="exp_decay")


def inv_square():
    return Integrand(eval=lambda t: 1 / (1 + t) ** 2, label="inv_square")


def inv_sqrt():
    return Integrand(eval=lambda x: 1 / mpmath.sqrt(x), label="inv_sqrt")


def log_sin_integrand():
    return Integrand(
        eval=lambda x: mpmath.log(mpmath.sin(mpmath.pi * x)), label="log_sin"
    )


class TestKnownIntegrals:
    def test_exp_decay_is_one(self, ctx50):
        r = integrate_zero_to_inf(exp_decay(), ctx=ctx50)
        assert r.converged
        assert abs_diff(r.value, 1) < mpf(10) ** -40

    def test_inverse_square_is_one(self, ctx50):
        r = integrate_zero_to_inf(inv_square(), ctx=ctx50)
        assert r.converged
        assert abs_diff(r.value, 1) < mpf(10) ** -40

    def test_dirichlet_integral_is_euler_gamma(self, ctx50):
        r = integrate_zero_to_inf(DIRICHLET_INTEGRAND, ctx=ctx50)
        assert r.converged
        assert abs_diff(r.value, euler_gamma_ref(ctx50)) < mpf(10) ** -40

    def test_constant_on_unit_interval(self, ctx50):
        f = Integrand(eval=lambda x: mpf(1), label="one")
        r = integrate_finite(f, mpf(0), mpf(1), ctx=ctx50)
        assert r.converged
        assert abs_diff(r.value, 1) < mpf(10) ** -40

    def test_endpoint_singular_inv_sqrt(self, ctx50):
        r = integrate_finite(inv_sqrt(), mpf(0), mpf(1), ctx=ctx50)
        assert r.converged
        assert abs_diff(r.value, 2) < mpf(10) ** -40

    def test_log_sin_half_interval(self, ctx50):
        r = integrate_finite(log_sin_integrand(), mpf(0), mpf(1) / 2, ctx=ctx50)
        with mp.workdps(70):
            exact = -mpmath.log(2) / 2
        assert r.converged
        assert abs_diff(r.value, exact) < mpf(10) ** -40


class TestResultStructure:
    def test_evaluations_positive_and_levels_counted(self, ctx50):
        r = integrate_zero_to_inf(exp_decay(), ctx=ctx50)
        assert r.evaluations >= 1
        assert r.levels_used >= 1
        assert r.error_estimate >= 0

    def test_converged_implies_estimate_below_tolerance(self, ctx50):
        r = integrate_zero_to_inf(exp_decay(), ctx=ctx50)
        assert r.converged
        assert r.error_estimate <= ctx50.target_tolerance

    def test_nan_aborts_with_label_and_abscissa(self, ctx50):
        bad = Integrand(eval=lambda t: mpf("nan"), label="broken")
        with pytest.raises(IntegrandEvaluationError, match="broken"):
            integrate_zero_to_inf(bad, ctx=ctx50)

    @pytest.mark.parametrize("infinity", [mpmath.inf, -mpmath.inf])
    def test_infinity_aborts_with_label_and_abscissa(self, ctx50, infinity):
        bad = Integrand(eval=lambda t: infinity if t > 3 else mpmath.exp(-t), label="blows_up")
        with pytest.raises(IntegrandEvaluationError, match="blows_up") as caught:
            integrate_zero_to_inf(bad, ctx=ctx50)
        assert caught.value.label == "blows_up"
        assert caught.value.abscissa > 3

    def test_term_far_below_the_frame_counts_as_zero(self, ctx20):
        # A value 2^-(10^8) times its weight rounds to 0 on the frame; the
        # loop must find that without building an integer of 10^8 bits
        # (12.5 MB), as a shift-sized rounding bit would.
        tiny = Integrand(eval=lambda t: mpf((1, -10 ** 8)), label="tiny")
        tracemalloc.start()
        try:
            r = integrate_zero_to_inf(tiny, ctx=ctx20)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert r.value == 0 and r.converged
        assert peak < 10 ** 6

    def test_python_int_integrand_integrates_as_its_mpf(self, ctx50):
        as_int = integrate_finite(Integrand(eval=lambda x: 3, label="three"), 0, 1, ctx=ctx50)
        as_mpf = integrate_finite(Integrand(eval=lambda x: mpf(3), label="three"), 0, 1, ctx=ctx50)
        assert as_int.value._mpf_ == as_mpf.value._mpf_
        assert as_int.evaluations == as_mpf.evaluations
        assert as_int.converged and abs_diff(as_int.value, 3) < mpf(10) ** -40

    def test_division_by_zero_at_right_endpoint_aborts_with_label(self, ctx20):
        # b - offset rounds to b once the offset is below half an ulp, so
        # 1/sqrt(1 - x) is evaluated at x = 1; the engine must turn the
        # division by zero into its own error, naming integrand and abscissa.
        f = Integrand(eval=lambda x: 1 / mpmath.sqrt(1 - x), label="right_singular")
        with pytest.raises(IntegrandEvaluationError, match="right_singular") as caught:
            integrate_finite(f, 0, 1, ctx=ctx20)
        assert caught.value.abscissa == 1

    def test_divergent_integral_reports_no_convergence(self, ctx30):
        # 1/(1+t) is not integrable on (0, inf); the scan caps out and the
        # engine must say so rather than return a confident number
        f = Integrand(eval=lambda t: 1 / (1 + t), label="divergent")
        r = integrate_zero_to_inf(f, ctx=ctx30)
        assert not r.converged


def threshold_points(bound):
    """Where an exponent test of t against ``bound`` (an mpf) can slip: the
    bound and one ulp either side, the powers of two around it and 1,
    zero, and negative t, all exact at the working precision."""
    ulp = mpmath.ldexp(1, mpmath.mag(bound) - mp.prec)
    points = [bound, bound + ulp, bound - ulp, mpf(0), -bound, -ulp, mpf(-1)]
    points += [mpmath.ldexp(1, k) for k in range(-12, mpmath.mag(bound) + 3)]
    return points


@pytest.mark.parametrize("digits", [20, 50, 400])
def test_near_zero_switch_is_t_below_two_to_minus_eight(digits):
    f = Integrand(eval=lambda t: "eval", near_zero=lambda t: "near_zero", label="switch")
    with make_context(digits).workdps(20):
        bound = mpf(DEFAULT_NEAR_ZERO_THRESHOLD)
        for t in threshold_points(bound):
            assert f(t) == ("near_zero" if t < bound else "eval"), mpmath.nstr(t, 30)


class TestScanCap:
    """A scan that never stops goes no further than the scan cap plus one
    stride (1 at level 0, 2h = 2^(1-L) at level L >= 1); a cap that
    counted steps of h let levels >= 1 run out to twice the cap."""

    def test_non_decaying_integrand_stops_at_the_cap(self, ctx30):
        abscissae = []

        def one(t):
            abscissae.append(t)
            return mpf(1)

        r = integrate_zero_to_inf(Integrand(eval=one, label="one"), ctx=ctx30)
        assert not r.converged
        with ctx30.workdps(20):
            u_cap = _scan_cap(ctx30)
            u_max = max(mpmath.asinh(mpmath.log(t) / (mpmath.pi / 2)) for t in abscissae)
        assert u_cap < u_max <= u_cap + 1

    @pytest.mark.parametrize("digits", [30, 400])
    def test_every_level_stops_within_one_stride_of_the_cap(self, digits):
        ctx = make_context(digits)
        with ctx.workdps(20):
            u_cap = _scan_cap(ctx)
            for level in range(11):
                h, max_terms, scaled = _level_nodes(None, lambda s, w: s, level, u_cap)
                stride = 1 if level == 0 else 2 * h
                pairs = sum(1 for _ in scaled)
                # a side that hits the cap has taken max_terms + 1 terms
                assert pairs == max_terms + 1
                u_last = h + stride * max_terms
                assert u_cap < u_last + stride and u_last <= u_cap + stride, (
                    f"level {level}: last u = {mpmath.nstr(u_last, 8)}, "
                    f"cap {mpmath.nstr(u_cap, 8)}, stride {mpmath.nstr(stride, 3)}"
                )


class TestErrorModel:
    def corpus(self, ctx):
        with ctx.workdps(20):
            log_sin_exact = -mpmath.log(2) / 2
        return [
            (exp_decay(), mpf(1)),
            (inv_square(), mpf(1)),
            (DIRICHLET_INTEGRAND, euler_gamma_ref(ctx)),
            (log_sin_integrand(), log_sin_exact, (mpf(0), mpf(1) / 2)),
            (inv_sqrt(), mpf(2), (mpf(0), mpf(1))),
        ]

    @pytest.mark.parametrize("digits", [50, 100, 200, pytest.param(400, marks=pytest.mark.slow)])
    def test_true_error_within_ten_times_estimate(self, digits):
        ctx = make_context(digits)
        report = error_model_check(self.corpus(ctx), ctx)
        assert len(report.entries) == 5
        assert report.all_ok
        for entry in report.entries:
            assert entry.margin >= 1

    def test_empty_corpus_gives_empty_report(self, ctx50):
        report = error_model_check([], ctx50)
        assert report.entries == []
        assert report.all_ok

    def test_wrong_exact_value_is_flagged(self, ctx50):
        report = error_model_check([(exp_decay(), mpf("1.001"))], ctx50)
        assert not report.all_ok
        assert len(report.violations) == 1
        assert report.violations[0].label == "exp_decay"


class TestToleranceCheck:
    @pytest.mark.parametrize("tol", [0, -1])
    def test_both_entry_points_reject_a_non_positive_tolerance(self, ctx30, tol):
        # make_context always gives a positive tolerance; a hand-built
        # context need not
        ctx = dataclasses.replace(ctx30, target_tolerance=mpf(tol))
        with pytest.raises(ValueError, match="tolerance must be positive"):
            integrate_zero_to_inf(exp_decay(), ctx=ctx)
        with pytest.raises(ValueError, match="tolerance must be positive"):
            integrate_finite(inv_sqrt(), mpf(0), mpf(1), ctx=ctx)


class TestLinearity:
    def test_linear_combination_matches(self, ctx50):
        f = exp_decay()
        g = inv_square()
        alpha, beta = mpf(2), mpf(-3)
        combined = Integrand(
            eval=lambda t: alpha * f.eval(t) + beta * g.eval(t),
            label="combo",
        )
        rf = integrate_zero_to_inf(f, ctx=ctx50)
        rg = integrate_zero_to_inf(g, ctx=ctx50)
        rc = integrate_zero_to_inf(combined, ctx=ctx50)
        gap = abs_diff(rc.value, alpha * rf.value + beta * rg.value)
        allowed = 10 * (
            rc.error_estimate + abs(alpha) * rf.error_estimate + abs(beta) * rg.error_estimate
        )
        assert gap < allowed


class TestLevelMonotonicity:
    @pytest.mark.parametrize("factory", [exp_decay, inv_square])
    def test_estimate_non_increasing_with_levels(self, factory, monkeypatch):
        # run with a tolerance no level can reach so the level cap is the
        # only stop; deeper levels must never report a larger estimate
        ctx = dataclasses.replace(make_context(30), target_tolerance=mpf(10) ** -200)
        estimates = []
        for max_level in (2, 3, 4, 5):
            monkeypatch.setattr(glaisher.quadrature, "_max_level", lambda digits: max_level)
            r = integrate_zero_to_inf(factory(), ctx=ctx)
            assert r.levels_used == max_level + 1
            estimates.append(r.error_estimate)
        for earlier, later in zip(estimates, estimates[1:]):
            assert later <= earlier


class TestLevelCap:
    def test_unreachable_tolerance_runs_to_the_cap(self, ctx20):
        # 1e-300 at 20 digits: no level gets there, so the real cap stops
        # the loop and the result says it did not converge
        ctx = dataclasses.replace(ctx20, target_tolerance=mpf(10) ** -300)
        r = integrate_zero_to_inf(exp_decay(), ctx=ctx)
        assert r.levels_used == _max_level(20) + 1
        assert not r.converged
        with pytest.raises(NoConvergenceError, match="exp_decay"):
            r.require_converged("exp_decay")

    # levels an exp-sinh integral of e^-t takes to converge, by digits
    E_DECAY_LEVELS = {50: 7, 100: 8, 200: 10, 400: 11, 800: 12, 1200: 13}

    def test_cap_grows_with_precision_and_keeps_two_spare_levels(self):
        assert all(_max_level(digits) >= 12 for digits in range(1, 5000))
        for digits, levels in self.E_DECAY_LEVELS.items():
            # levels 0.._max_level run, so the cap is the last level's index
            assert _max_level(digits) >= levels + 2, digits
        assert [_max_level(d) for d in (50, 100, 200, 256, 257, 512, 1024, 2048)] == [
            12, 12, 12, 12, 13, 13, 14, 15,
        ]


class TestStopRule:
    @pytest.mark.xfail(
        strict=True,
        reason="quadrature._extrapolated_below lets a level loop stop with a true "
        "error far above the tolerance it then reports as the estimate: D1^2/D2 "
        "assumes the digit ratio of the last two levels holds, but it wanders "
        "between about 1.7 and 2.1 (t^3 e^(-2t): 16.9 -> 33.9 -> 58.0 digits); "
        "at 74 digits the estimate is 1e-64 and the true error 9.5e-59",
    )
    def test_extrapolated_stop_keeps_true_error_within_ten_estimates(self):
        ctx = make_context(74)
        cubic = Integrand(eval=lambda t: t ** 3 * mpmath.exp(-2 * t), label="t^3 e^-2t")
        r = integrate_zero_to_inf(cubic, ctx=ctx)
        assert r.converged
        with ctx.workdps(20):
            assert abs(r.value - mpf(3) / 8) <= 10 * r.error_estimate


class TestStopRuleInDoubles:
    """The extrapolated stop takes D1, D2 and log10 tol as doubles, and the
    term cap comes from a double scan cap: both decide exactly as the same
    formulas taken in mpfs at the working precision (``reference_stop``)."""

    def test_every_decision_of_run_all_and_pain1_at_400(self, kernel_arguments):
        stops = kernel_arguments.stops
        assert len(stops) > 120 and sum(s[-1] for s in stops) > 25
        assert max(prec for *_, prec, _ in stops) > 1390      # 400 + 20 digits
        assert [s for s in stops if reference_stop(*s[:4]) != s[4]] == []

    # (delta1, delta2, tol, decision), each delta and tol a decimal string
    # or (man, exp) for man 2^exp
    EDGES = {
        "delta1 zero stops": ("0", "1e-10", "1e-20", True),
        "delta2 zero does not stop": ("1e-30", "0", "1e-20", False),
        "delta2 one does not stop": ("1e-30", "1", "1e-20", False),
        "delta2 above one does not stop": ("1e-30", "3", "1e-20", False),
        "digits grow under 1.5-fold": ("1e-20", "1e-14", "1e-10", False),
        # D1^2/D2 = -31.5: a digit and more below tol 1e-30, not below 1e-31 by one
        "a digit clear stops": ("1e-21", "1e-14", "1e-30", True),
        "inside the margin does not stop": ("1e-21", "1e-14", "1e-31", False),
        "far below 1e-400 stops": ("1e-100000", "1e-40000", "1e-150000", True),
        "far below 1e-400 grows slowly": ("1e-50000", "1e-40000", "1e-10", False),
        "exponents past any double": ((3, -2 ** 41), (5, -2 ** 40), (1, -2 ** 41 + 10), True),
        # D1^2/D2 ~ 4 log10(2) 2^40 + 0.95, log10 tol = that + 0.25
        "past any double, in the margin": ((3, -2 ** 41), (5, -2 ** 40), (1, -2 ** 42 + 4), False),
    }

    @pytest.mark.parametrize("case", list(EDGES))
    def test_edge_rows(self, case):
        *values, decision = self.EDGES[case]
        with mp.workprec(200):
            delta1, delta2, tol = (mpf(x) if isinstance(x, str) else mpmath.ldexp(*x) for x in values)
            assert reference_stop(delta1, delta2, tol, 200) is decision
            assert _extrapolated_below(delta1, delta2, _log10(tol._mpf_)) is decision

    def test_log10_of_zero_and_of_huge_exponents(self):
        assert _log10(mpf(0)._mpf_) == -float("inf")
        assert _log10((0, 1, -2 ** 60, 1)) == pytest.approx(-2 ** 60 * 0.30102999566398120)
        with mp.workprec(3000):
            x = mpf(10) ** -900 / 7
            assert abs(_log10(x._mpf_) - float(mpmath.log10(x))) < 1e-12

    @pytest.mark.parametrize("digits", [20, 50, 100, 200, 245, 246, 256, 257, 400, 800, 1440])
    def test_term_cap_is_that_of_the_mpf_scan_cap(self, digits):
        ctx = make_context(digits)
        u_cap = _scan_cap(ctx)
        with ctx.workdps(20):
            reference = mpmath.asinh((digits + 30) * mpmath.log(10) / (mpmath.pi / 2)) + 3
            assert abs(u_cap - reference) < 1e-14
            for level in range(_max_level(digits) + 1):
                h, max_terms, _ = _level_nodes(None, None, level, u_cap)
                step = 1 if level == 0 else 2
                assert h == 2.0 ** -level
                assert max_terms == int(reference / (step * mpmath.ldexp(1, -level))), level


# The route integrands, which sum a near-zero series below 2^-8, and the
# log Gamma representations, which evaluate their raw form at every t.
SERIES_INTEGRANDS = ["res1", "res2_dt_over_t", "res2_dt", "pain1", "pain2"]
RAW_ONLY_INTEGRANDS = [
    "dirichlet",
    "feaux_quarter",
    "feaux_zero_plus",
    "kummer_quarter",
    "kummer_tenth",
    "a_1",
    "a_3",
]


PARAMETER_FREE = {
    "res1": RES1_INTEGRAND,
    "res2_dt_over_t": RES2_INTEGRAND,
    "res2_dt": RES2_DT_INTEGRAND,
    "pain1": PAIN1_INTEGRAND,
    "pain2": PAIN2_INTEGRAND,
    "dirichlet": DIRICHLET_INTEGRAND,
}


def build_integrand(name, ctx):
    if name in PARAMETER_FREE:
        return PARAMETER_FREE[name]
    if name == "feaux_quarter":
        return feaux_integrand(mpf(1) / 4, ctx)
    if name == "feaux_zero_plus":
        return feaux_integrand(mpf("0.001"), ctx)
    if name == "kummer_quarter":
        return kummer_integrand(mpf(1) / 4, ctx)
    if name == "kummer_tenth":
        return kummer_integrand(mpf(1) / 10, ctx)
    if name == "a_1":
        return fourier_a_n_integrand(1, ctx)
    if name == "a_3":
        return fourier_a_n_integrand(3, ctx)
    raise AssertionError(name)


def literal_form(name, ctx):
    """The bracket of a raw-only integrand as written, with a plain exp, on
    the parameter ``build_integrand`` gives it (made here the same way, at
    the caller's precision)."""
    if name == "dirichlet":
        return lambda t: (1 / (1 + t) - mpmath.exp(-t)) / t
    if name.startswith("a_"):
        with ctx.workdps(10):
            two_n_pi = 2 * int(name[2:]) * ctx.constants.pi
        return lambda t: (two_n_pi / (t * t + two_n_pi ** 2) - mpmath.exp(-t) / two_n_pi) / t
    x = {"feaux_quarter": mpf(1) / 4, "feaux_zero_plus": mpf("0.001"),
         "kummer_quarter": mpf(1) / 4, "kummer_tenth": mpf(1) / 10}[name]
    if name.startswith("feaux"):
        return lambda t: (x * mpmath.exp(-t)
                          + ((1 + t) ** (-x - 1) - 1 / (1 + t)) / mpmath.log(1 + t)) / t
    return lambda t: (mpmath.sinh((mpf(1) / 2 - x) * t) / mpmath.sinh(t / 2)
                      - (1 - 2 * x) * mpmath.exp(-t)) / t


class TestNearZeroConsistency:
    """Mandatory accuracy below the stated threshold.

    A route integrand's series must agree with its raw form to 10^-(P-8)
    absolute-ish on (0, t0]: the check that the hand-derived series
    algebra reproduces the literal formula.  A raw-only integrand's form
    must match the literal expression at far higher precision: the check
    that its guard digits pay for the cancellation there.
    """

    @pytest.mark.parametrize(
        "name, digits",
        [pytest.param(name, 50, id=name) for name in SERIES_INTEGRANDS]
        + [pytest.param(name, 400, id=f"{name}-400") for name in SERIES_INTEGRANDS],
    )
    def test_eval_matches_near_zero_below_threshold(self, name, digits):
        ctx = make_context(digits)
        integrand = build_integrand(name, ctx)
        assert integrand.near_zero is not None
        bound = mpf(10) ** (-(digits - 8))
        with ctx.workdps(20):
            t0 = mpf(DEFAULT_NEAR_ZERO_THRESHOLD)
            for scale in ("0.99", "0.5", "0.1", "1e-3", "1e-6"):
                t = t0 * mpf(scale)
                raw = integrand.eval(t)
                series = integrand.near_zero(t)
                assert abs(raw - series) < bound * max(1, abs(series)), (
                    f"{name} at t={mpmath.nstr(t, 6)}: raw={mpmath.nstr(raw, 25)} "
                    f"series={mpmath.nstr(series, 25)}"
                )

    @pytest.mark.parametrize(
        "name, digits",
        [pytest.param(name, 50, id=name) for name in RAW_ONLY_INTEGRANDS]
        + [pytest.param(name, 400, id=f"{name}-400") for name in RAW_ONLY_INTEGRANDS],
    )
    def test_raw_form_below_threshold(self, name, digits):
        # What the engine evaluates below 2^-8, at its P+20 digits, against
        # the literal expression with three digits per decade of t more
        # than the cancellation costs it, to 10^-(P+10) relative: on the
        # consistency grid and at the smallest abscissa exp-sinh probes.
        ctx = make_context(digits)
        integrand = build_integrand(name, ctx)
        assert integrand.near_zero is None
        literal = literal_form(name, ctx)
        misses = []
        with ctx.workdps(20):
            t0 = mpf(DEFAULT_NEAR_ZERO_THRESHOLD)
            grid = [t0 * mpf(s) for s in ("0.99", "0.5", "0.1", "1e-3", "1e-6")]
            grid.append(mpf(10) ** -(digits + 12))
        for t in grid:
            with ctx.workdps(20):
                got = integrand(t)
            with ctx.workdps(40), mp.extradps(cancellation_guard(t, 3)):
                want = literal(t)
                rel = abs(got - want) / abs(want)
            if rel > mpf(10) ** -(digits + 10):
                misses.append(f"t = {mpmath.nstr(t, 5)}: {mpmath.nstr(rel, 3)}")
        assert not misses, f"{name} at {digits} digits: {misses}"

    def test_res1_series_vs_raw_at_hundred_digits(self):
        # the raw form at t = 1e-6 loses ~18 digits to cancellation; at 100
        # working digits it still has > 40 true digits to compare against
        ctx100 = make_context(100)
        integrand = RES1_INTEGRAND
        with ctx100.workdps():
            t = mpf("1e-6")
            raw = integrand.eval(t)
            series = integrand.near_zero(t)
            assert abs(raw - series) < mpf(10) ** -40 * max(1, abs(series))

    def test_res2_integrand_limit_is_quarter(self, ctx50):
        integrand = RES2_INTEGRAND
        with ctx50.workdps(20):
            value = integrand.near_zero(mpf("1e-8"))
            assert abs(value - mpf(1) / 4) < mpf("1e-7")

    def test_res1_integrand_limit_is_one_48th(self, ctx50):
        integrand = RES1_INTEGRAND
        with ctx50.workdps(20):
            value = integrand.near_zero(mpf("1e-20"))
            assert abs(value - mpf(1) / 48) < mpf("1e-19")

    def test_kummer_integrand_limit_is_one_minus_two_x(self, ctx50):
        x = mpf(1) / 4
        integrand = kummer_integrand(x, ctx50)
        with ctx50.workdps(20):
            value = integrand(mpf("1e-20"))
            assert abs(value - (1 - 2 * x)) < mpf("1e-19")

    def test_pain_integrand_limits(self, ctx50):
        with ctx50.workdps(20):
            p1 = PAIN1_INTEGRAND.near_zero(mpf("1e-20"))
            p2 = PAIN2_INTEGRAND.near_zero(mpf("1e-20"))
            assert abs(p1 - mpf(1) / 12) < mpf("1e-19")
            assert abs(p2 + mpf(1) / 12) < mpf("1e-19")


class TestPairNodes:
    """The stepped pair nodes against the per-abscissa formulas.

    Every pair the levels 0..10 yield is checked against direct formulas
    at P+40 digits, from a fresh exp(u) per abscissa: the scaled
    (pi/2) sinh u and (pi/2) cosh u the stepping produces, out to the
    per-side cap, and, for |u| <= the scan cap (as far as a converging
    scan can reach), both nodes and weights of both transforms:
    t = e^s, t c cosh u (exp-sinh) and the offset 1/(e^{2s} + 1),
    c cosh u / (2 cosh(s)^2) (tanh-sinh on [0, 1]), s = c sinh u,
    c = pi/2.  Drift in the stepped e^{+-kh} grows with the pair index,
    so the far pairs of the deep levels are where it would show.  (Past
    the scan cap only a divergent scan goes, for at most one more stride;
    nodes there are not compared.)
    """

    @pytest.mark.parametrize("digits", [50, 200, pytest.param(400, marks=pytest.mark.slow)])
    def test_stepped_nodes_match_direct_formulas(self, digits):
        ctx = make_context(digits)
        with ctx.workdps(20):
            _, exp_sinh = _exp_sinh_nodes(skip_below=0)
            _, tanh_sinh = _tanh_sinh_nodes(mpf(0), mpf(1))
            u_cap = _scan_cap(ctx)
            stepped = []
            for level in range(11):
                h, _, scaled = _level_nodes(None, lambda s, w: (s, w), level, u_cap)
                step = 1 if level == 0 else 2
                for i, (s, w) in enumerate(scaled):
                    u = (1 + step * i) * h
                    nodes = exp_sinh(s, w) + tanh_sinh(s, w) if u <= u_cap else ()
                    stepped.append((u, (mp.make_mpf(s), mp.make_mpf(w)) + nodes))
        bound = mpf(10) ** -(digits + 15)
        names = ("sinh", "cosh", "t+", "w+", "t-", "w-", "x+", "v+", "x-", "v-")
        misses = []
        node_pairs = 0
        with ctx.workdps(40):
            c = mpmath.pi / 2
            for u, got in stepped:
                e = mpmath.exp(u)
                s = c * (e - 1 / e) / 2
                w = c * (e + 1 / e) / 2
                want = [s, w]
                if len(got) > 2:
                    node_pairs += 1
                    t = mpmath.exp(s)
                    offset = 1 / (t * t + 1)
                    weight = 2 * w / (t + 1 / t) ** 2
                    want += [t, t * w, 1 / t, w / t, 1 - offset, weight, offset, weight]
                for name, g, v in zip(names, got, want):
                    if isinstance(g, tuple):        # an unrounded weight (man, exp)
                        g = mpmath.ldexp(*g)
                    if abs(g - v) > bound * abs(v):
                        misses.append(f"{name} at u = {mpmath.nstr(u, 8)}: relative "
                                      f"error {mpmath.nstr(abs(g / v - 1), 3)}")
        assert node_pairs > 2 ** 10
        assert not misses, (
            f"{len(misses)} values over {len(stepped)} steps ({node_pairs} node pairs) "
            f"off by more than 1e-{digits + 15}; first: {misses[:3]}"
        )


@pytest.mark.parametrize("digits", [20, 400])
def test_weight_skip_test_is_exact(digits):
    # exp-sinh skips a t < 1 weight below cutoff/8, compared unrounded:
    # the same value as the limit with wider mantissas, one unit either
    # side of it, and the powers of two around its leading bit.
    with make_context(digits).workdps(20):
        limit = mpf(10) ** -(digits + 10) / 8
    _, man, exp, bc = limit._mpf_
    cases = [((man << wider) + d, exp - wider) for wider in (0, 1, 7, 2 * bc) for d in (-1, 0, 1)]
    cases += [(1, exp + bc), (1, exp + bc - 1), (3, exp + bc - 2), (1, exp + bc - 2)]
    for m, e in cases:
        assert _below(m, e, limit._mpf_) == (mpmath.ldexp(m, e) < limit), (m, e)


class TestDeterminism:
    def test_repeated_integration_bit_identical(self, ctx30):
        a = integrate_zero_to_inf(exp_decay(), ctx=ctx30)
        b = integrate_zero_to_inf(exp_decay(), ctx=ctx30)
        assert a.value._mpf_ == b.value._mpf_
        assert a.evaluations == b.evaluations
        assert a.levels_used == b.levels_used
