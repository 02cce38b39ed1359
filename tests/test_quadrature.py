"""Quadrature engine: known values, honesty, near-zero consistency."""

from __future__ import annotations

import mpmath
import pytest
from mpmath import mp, mpf

from glaisher import (
    Integrand,
    IntegrandEvaluationError,
    error_model_check,
    euler_gamma_ref,
    integrate_finite,
    integrate_zero_to_inf,
    make_context,
)
from glaisher.loggamma import (
    dirichlet_integrand,
    feaux_integrand,
    fourier_a_n_integrand,
    kummer_integrand,
)
from glaisher.quadrature import (
    DEFAULT_NEAR_ZERO_THRESHOLD,
    _exp_sinh_nodes,
    _level_nodes,
    _scan_cap,
    _tanh_sinh_nodes,
)
from glaisher.routes import (
    pain1_integrand,
    pain2_integrand,
    res1_integrand,
    res2_integrand,
)

from conftest import abs_diff


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
        r = integrate_zero_to_inf(dirichlet_integrand(ctx50), ctx=ctx50)
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
        tol = ctx50.target_tolerance
        r = integrate_zero_to_inf(exp_decay(), tol=tol, ctx=ctx50)
        assert r.converged
        assert r.error_estimate <= tol

    def test_nan_aborts_with_label_and_abscissa(self, ctx50):
        bad = Integrand(eval=lambda t: mpf("nan"), label="broken")
        with pytest.raises(IntegrandEvaluationError, match="broken"):
            integrate_zero_to_inf(bad, ctx=ctx50)

    def test_divergent_integral_reports_no_convergence(self, ctx30):
        # 1/(1+t) is not integrable on (0, inf); the scan caps out and the
        # engine must say so rather than return a confident number
        f = Integrand(eval=lambda t: 1 / (1 + t), label="divergent")
        r = integrate_zero_to_inf(f, ctx=ctx30)
        assert not r.converged


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
                h, max_terms, scaled = _level_nodes(lambda s, w: s, level, u_cap)
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
            (dirichlet_integrand(ctx), euler_gamma_ref(ctx)),
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
    def test_estimate_non_increasing_with_levels(self, factory):
        # run with a tolerance no level can reach so max_level is the only
        # stop; deeper levels must never report a larger estimate
        estimates = []
        for max_level in (2, 3, 4, 5):
            ctx = make_context(30, quad_max_level=max_level)
            tiny = mpf(10) ** -200
            r = integrate_zero_to_inf(factory(), tol=tiny, ctx=ctx)
            assert r.levels_used == max_level + 1
            estimates.append(r.error_estimate)
        for earlier, later in zip(estimates, estimates[1:]):
            assert later <= earlier


PROJECT_INTEGRANDS = [
    "res1",
    "res2_dt_over_t",
    "res2_dt",
    "pain1",
    "pain2",
    "dirichlet",
    "feaux_quarter",
    "feaux_zero_plus",
    "kummer_quarter",
    "kummer_tenth",
    "a_1",
    "a_3",
]


def build_integrand(name, ctx):
    if name == "res1":
        return res1_integrand(ctx)
    if name == "res2_dt_over_t":
        return res2_integrand(ctx, "dt_over_t")
    if name == "res2_dt":
        return res2_integrand(ctx, "dt")
    if name == "pain1":
        return pain1_integrand(ctx)
    if name == "pain2":
        return pain2_integrand(ctx)
    if name == "dirichlet":
        return dirichlet_integrand(ctx)
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


class TestNearZeroConsistency:
    """Mandatory raw-vs-series agreement below the stated threshold.

    This is the check that the hand-derived series algebra reproduces the
    literal formulas: 10^-(P-8) absolute-ish agreement on (0, t0].
    """

    @pytest.mark.parametrize(
        "name, digits",
        [pytest.param(name, 50, id=name) for name in PROJECT_INTEGRANDS]
        + [pytest.param(name, 400, id=f"{name}-400") for name in PROJECT_INTEGRANDS],
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

    def test_res1_series_vs_raw_at_hundred_digits(self):
        # the raw form at t = 1e-6 loses ~18 digits to cancellation; at 100
        # working digits it still has > 40 true digits to compare against
        ctx100 = make_context(100)
        integrand = res1_integrand(ctx100)
        with ctx100.workdps():
            t = mpf("1e-6")
            raw = integrand.eval(t)
            series = integrand.near_zero(t)
            assert abs(raw - series) < mpf(10) ** -40 * max(1, abs(series))

    def test_res2_integrand_limit_is_quarter(self, ctx50):
        integrand = res2_integrand(ctx50, "dt_over_t")
        with ctx50.workdps(20):
            value = integrand.near_zero(mpf("1e-8"))
            assert abs(value - mpf(1) / 4) < mpf("1e-7")

    def test_res1_integrand_limit_is_one_48th(self, ctx50):
        integrand = res1_integrand(ctx50)
        with ctx50.workdps(20):
            value = integrand.near_zero(mpf("1e-20"))
            assert abs(value - mpf(1) / 48) < mpf("1e-19")

    def test_kummer_integrand_limit_is_one_minus_two_x(self, ctx50):
        x = mpf(1) / 4
        integrand = kummer_integrand(x, ctx50)
        with ctx50.workdps(20):
            value = integrand.near_zero(mpf("1e-20"))
            assert abs(value - (1 - 2 * x)) < mpf("1e-19")

    def test_pain_integrand_limits(self, ctx50):
        with ctx50.workdps(20):
            p1 = pain1_integrand(ctx50).near_zero(mpf("1e-20"))
            p2 = pain2_integrand(ctx50).near_zero(mpf("1e-20"))
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

    @pytest.mark.parametrize("digits", [50, 200, 400])
    def test_stepped_nodes_match_direct_formulas(self, digits):
        ctx = make_context(digits)
        with ctx.workdps(20):
            _, exp_sinh = _exp_sinh_nodes(skip_below=0)
            _, tanh_sinh = _tanh_sinh_nodes(mpf(0), mpf(1))
            u_cap = _scan_cap(ctx)
            stepped = []
            for level in range(11):
                h, _, scaled = _level_nodes(lambda s, w: (s, w), level, u_cap)
                step = 1 if level == 0 else 2
                for i, (s, w) in enumerate(scaled):
                    u = (1 + step * i) * h
                    nodes = exp_sinh(s, w) + tanh_sinh(s, w) if u <= u_cap else ()
                    stepped.append((u, (s, w) + nodes))
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
                    if abs(g - v) > bound * abs(v):
                        misses.append(f"{name} at u = {mpmath.nstr(u, 8)}: relative "
                                      f"error {mpmath.nstr(abs(g / v - 1), 3)}")
        assert node_pairs > 2 ** 10
        assert not misses, (
            f"{len(misses)} values over {len(stepped)} steps ({node_pairs} node pairs) "
            f"off by more than 1e-{digits + 15}; first: {misses[:3]}"
        )


class TestDeterminism:
    def test_repeated_integration_bit_identical(self, ctx30):
        a = integrate_zero_to_inf(exp_decay(), ctx=ctx30)
        b = integrate_zero_to_inf(exp_decay(), ctx=ctx30)
        assert a.value._mpf_ == b.value._mpf_
        assert a.evaluations == b.evaluations
        assert a.levels_used == b.levels_used
