"""The small-argument series: the fixed-point kernel against the same sums
in mpf, helpers against their closed forms, and the per-precision
coefficient cache of the shared power-series kernel."""

from __future__ import annotations

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp, mpf

from glaisher import make_context, routes, smallt
from glaisher.loggamma import (
    _STIRLING_SERIES,
    _kummer_numerator_over_t2,
    kummer_integrand,
)
from glaisher.quadrature import DEFAULT_NEAR_ZERO_THRESHOLD
from glaisher.smallt import (
    cancellation_guard,
    expm1_minus_x,
    one_plus_em1z_over_z,
    t_minus_log1p,
)

from test_quadrature import PROJECT_INTEGRANDS, build_integrand

# Kummer's numerator series has c_0 = a = 1/2 - x.
with mp.workdps(100):
    _KUMMER_QUARTER = _kummer_numerator_over_t2(mpf(1) / 2 - mpf(1) / 4)
    _KUMMER_NEAR_HALF = _kummer_numerator_over_t2(mpf(1) / 2 - (mpf(1) / 2 - mpf(2) ** -60))

# Every series the project sums on the kernel, and whether its helper
# passes arguments out to |z| = 1/2 (the log1p and expm1 tails do).
KERNEL_SERIES = {
    "res1_psi": (routes._RES1_PSI, False),
    "res2_bracket": (routes._RES2_BRACKET_OVER_T2, False),
    "pain1_S": (routes._PAIN1_S, False),
    "pain2_numerator": (routes._PAIN2_NUMERATOR_OVER_X3, False),
    "log1p_tail": (smallt._LOG1P_TAIL, True),
    "expm1_tail": (smallt._EXPM1_TAIL, True),
    "kummer_quarter": (_KUMMER_QUARTER, False),
    "kummer_near_half": (_KUMMER_NEAR_HALF, False),
    "stirling": (_STIRLING_SERIES, False),
}


def _mpf_sum(series, z, digits):
    """sum c_k z^k in mpf at ``digits``, c_k from the series' own
    coefficient function at that precision, to 10^-(digits+5) relative."""
    with mp.workdps(digits):
        eps = mpf(10) ** -(digits + 5)
        acc, power, k, small = mpf(0), mpf(1), 0, 0
        while small < 2:
            term = series._coefficient(k) * power
            acc += term
            small = small + 1 if abs(term) <= eps * abs(acc) else 0
            power *= z
            k += 1
        return acc


@pytest.mark.parametrize("name", list(KERNEL_SERIES))
@pytest.mark.parametrize("digits", [30, 70, 220, 420])
def test_kernel_matches_mpf_sum_within_rounding(name, digits):
    # The fixed-point Horner sum at P digits against the same sum in mpf
    # at P+40.  The bound is 1.25 units of 2^-prec relative: correct
    # rounding alone may take one, so the fixed-point part must stay
    # below a quarter (it is a few units of 2^-W, with W = prec + 16 +
    # the c_0 shift).  Measured worst 0.80.  Without the guard bits 33 of
    # the 36 cases exceed the bound (worst 3.8); without the c_0 shift
    # Kummer near x = 1/2 (c_0 = 2^-60) reads ~1e13 at every P; with
    # forward powers in place of Horner the factorially growing Stirling
    # coefficients read 2e8 at 70 digits and 5e141 at 420.
    series, out_to_half = KERNEL_SERIES[name]
    with mp.workdps(digits + 40):
        if name == "stirling":
            zs = [(mpf(7) / (10 * digits)) ** 2]
        else:
            zs = [mpf(2) ** -8, mpf(2) ** -8 / 3]
            zs += [-z for z in zs] if out_to_half else []
            zs += [mpf(1) / 2, -mpf(1) / 2] if out_to_half else []
        zs += [mpf("1e-20"), mpf(2) ** -300]
    misses = []
    for z in zs:
        with mp.workdps(digits):
            z = +z
            got = series(z)
            unit = mpf(2) ** -mp.prec
        want = _mpf_sum(series, z, digits + 40)
        with mp.workdps(digits + 40):
            rel = abs(got - want) / abs(want)
            if rel > 1.25 * unit:
                misses.append(f"z = {mpmath.nstr(z, 5)}: {mpmath.nstr(rel / unit, 3)} units")
    assert not misses, f"{name} at {digits} digits, relative error in units of 2^-prec: {misses}"


CLOSED_FORMS = {
    t_minus_log1p: lambda t: t - mpmath.log1p(t),
    expm1_minus_x: lambda z: mpmath.expm1(z) - z,
    one_plus_em1z_over_z: lambda z: 1 + mpmath.expm1(-z) / z,
}


def assert_matches_closed_form(helper, x, dps):
    """helper(x) at dps digits within 10^-(dps-2) relative of its closed
    form, which is evaluated at three times the digits plus the digits its
    own cancellation costs at x."""
    with mp.workdps(dps):
        value = helper(x)
    cancelled = 2 * int(mpmath.ceil(-mpmath.log10(x)))
    with mp.workdps(3 * dps + cancelled):
        exact = CLOSED_FORMS[helper](mpf(x))
        rel = abs(value - exact) / abs(exact)
        assert rel <= mpf(10) ** (-(dps - 2)), (
            f"{helper.__name__} at x = {mpmath.nstr(x, 6)}, {dps} digits: "
            f"relative error {mpmath.nstr(rel, 3)}"
        )


@pytest.mark.parametrize("helper", list(CLOSED_FORMS), ids=lambda h: h.__name__)
@pytest.mark.parametrize("dps, exponent", [(220, 200), (70, 100)])
def test_helper_relative_accuracy_at_tiny_argument(helper, dps, exponent):
    assert_matches_closed_form(helper, mpf(2) ** -exponent, dps)


@settings(deadline=None, max_examples=60)
@given(
    x=st.floats(min_value=0, max_value=DEFAULT_NEAR_ZERO_THRESHOLD, exclude_min=True),
    dps=st.sampled_from([30, 70, 220]),
    helper=st.sampled_from(list(CLOSED_FORMS)),
)
def test_helper_relative_accuracy_below_threshold(x, dps, helper):
    assert_matches_closed_form(helper, mpf(x), dps)


def test_series_cache_is_per_precision():
    # Each near_zero series first runs at 50 digits, then at 400: a
    # coefficient cache that ignored the precision would hand the 400-digit
    # sum 70-digit coefficients and miss the raw form by ~1e-70.
    low, high = make_context(50), make_context(400)
    bound = mpf(10) ** (-(high.precision_digits - 8))
    for name in PROJECT_INTEGRANDS:
        integrand = build_integrand(name, high)
        with high.workdps(20):
            ts = [mpf(DEFAULT_NEAR_ZERO_THRESHOLD) * mpf(s) for s in ("0.5", "1e-3")]
        with low.workdps(20):
            for t in ts:
                integrand.near_zero(t)
        with high.workdps(20):
            for t in ts:
                raw, series = integrand.eval(t), integrand.near_zero(t)
                assert abs(raw - series) < bound * max(1, abs(series)), (
                    f"{name} at t={mpmath.nstr(t, 6)}: raw={mpmath.nstr(raw, 25)} "
                    f"series={mpmath.nstr(series, 25)}"
                )


def test_kummer_series_vanishes_at_half(ctx50):
    # a = 1/2 - x = 0 makes every coefficient 0; the sum must stop at 0.
    integrand = kummer_integrand(mpf(1) / 2, ctx50)
    with ctx50.workdps(20):
        assert integrand.near_zero(mpf("1e-3")) == 0
        assert integrand.eval(mpf("1e-3")) == 0


def _res1_unguarded(t):
    L = mpmath.log(1 + t)
    bracket = (
        mpmath.exp(-t) / 8
        - 1 / ((1 + t) ** (mpf(3) / 2) * L * L)
        - (L - 2) / (2 * (1 + t) * L * L)
    )
    return bracket / t


def _feaux_unguarded(x):
    def form(t):
        L = mpmath.log(1 + t)
        return (x * mpmath.exp(-t) + ((1 + t) ** (-x - 1) - 1 / (1 + t)) / L) / t
    return form


def _fourier_unguarded(n, ctx):
    with ctx.workdps(10):
        two_n_pi = 2 * n * (+mpmath.pi)
        four_n2_pi2 = two_n_pi ** 2
    return lambda t: (two_n_pi / (t * t + four_n2_pi2) - mpmath.exp(-t) / two_n_pi) / t


# Raw forms that take e^-t through exp_neg_tail: (digits lost per decade,
# the same expression with a plain exp).
def _unguarded_forms(ctx):
    return {
        "pain1": (2, lambda x: (1 - mpmath.exp(-x / 2)) * (x * mpmath.coth(x / 2) - 2) / x ** 3),
        "res1": (3, _res1_unguarded),
        "res2_dt_over_t": (2, lambda t: (mpmath.tanh(t / 4) / t - mpmath.exp(-t) / 4) / t),
        "res2_dt": (2, lambda t: mpmath.tanh(t / 4) / t - mpmath.exp(-t) / 4),
        "dirichlet": (2, lambda t: (1 / (1 + t) - mpmath.exp(-t)) / t),
        "feaux_quarter": (2, _feaux_unguarded(mpf(1) / 4)),
        "a_3": (1, _fourier_unguarded(3, ctx)),
    }


@pytest.mark.parametrize("name", list(_unguarded_forms(make_context(20))))
@pytest.mark.parametrize("digits", [200, 400])
def test_far_tail_exp_guard_is_bit_identical(name, digits):
    # exp_neg_tail returns 0 for t > 2 prec, where prec is the precision
    # the raw form runs at (t >= 1: context + 20 + 10 guard digits).  The
    # guarded form must round to exactly the bits of the plain-exp form
    # on both sides of that edge (pain1's argument is x/2, so its edge
    # sits at x = 4 prec), over a grid of prec/4 steps through both
    # edges, and far out where a plain exp costs milliseconds.  A lower
    # edge (say prec/4) leaves e^-t above an ulp and turns this red.
    ctx = make_context(digits)
    integrand = build_integrand(name, ctx)
    per_decade, unguarded = _unguarded_forms(ctx)[name]
    with ctx.workdps(30):
        prec = mp.prec
    points = [2 * prec - 1, 2 * prec + 1, 4 * prec - 2, 4 * prec + 2, 10 ** 3]
    points += [k * prec // 4 for k in range(1, 21)]
    points = [mpf(p) for p in points] + [mpf(10) ** 230, mpf(10) ** 450]
    for t in points:
        with ctx.workdps(20):
            got = integrand.eval(t)
            with mp.extradps(cancellation_guard(t, per_decade)):
                want = +unguarded(t)
        assert got._mpf_ == want._mpf_, (
            f"{name} at t = {mpmath.nstr(t, 8)} ({digits} digits, edge {2 * prec}): "
            f"guarded {mpmath.nstr(got, 20)} vs plain {mpmath.nstr(want, 20)}"
        )
