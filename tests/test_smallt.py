"""The small-argument series: the fixed-point kernel against the same sums
in mpf and against closed forms, and the per-precision coefficient cache
of the shared power-series kernel."""

from __future__ import annotations

import time
from math import factorial

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp, mpf

from glaisher import loggamma, make_context, routes
from glaisher.loggamma import kummer_integrand
from glaisher.quadrature import DEFAULT_NEAR_ZERO_THRESHOLD
from glaisher.smallt import PowerSeries, _Lazy, bernoulli, cancellation_guard, far, fixed_logs

from test_quadrature import SERIES_INTEGRANDS, build_integrand, threshold_points


def _t_over_sinh_half_coefficient(k):
    # t/sinh(t/2) = sum_k c_k t^2k, from x/sinh x = sum_k (2 - 4^k) B_2k x^2k/(2k)!
    p, q = bernoulli(2 * k)
    return 2 * (2 - 4 ** k) * p, q * factorial(2 * k) * 4 ** k


def _kummer_g_coefficient(k):
    # [t - e^(-t/2) + e^(-3t/2)] / t^2: with j = k + 2, ((-3)^j - (-1)^j) / (2^j j!)
    j = k + 2
    return (-3) ** j - (-1) ** j, 2 ** j * factorial(j)


def _dirichlet_coefficient(k):
    # (1/(1+t) - e^-t)/t^2 = sum_k (-1)^k (1 - 1/(k+2)!) t^k
    return (-1) ** k * (factorial(k + 2) - 1), factorial(k + 2)


# Test-only series, which widen the kernel's contract cases beyond what
# the package sums: coefficients that do not decay (log1p, dirichlet),
# factorial and Bernoulli ones, and, for the two tails, negative z and
# |z| = 1/2, where the term count needs the top bits of z and not its
# bit length alone.
LOG1P_TAIL = PowerSeries(lambda k: ((-1) ** k, k + 2))             # (t - log(1+t))/t^2
EXPM1_TAIL = PowerSeries(lambda k: (1, factorial(k + 2)))          # (expm1(z) - z)/z^2

# Every series the project sums on the kernel, then the test-only ones,
# and whether each is held out to |z| = 1/2.  "res1_psi", "pain1_S" and
# "pain2_numerator" keep their test ids but name each integrand's whole
# near-zero quotient series.
KERNEL_SERIES = {
    "res1_psi": (routes._RES1, False),
    "res2_bracket": (routes._RES2_BRACKET_OVER_T2, False),
    "pain1_S": (routes._PAIN1, False),
    "pain2_numerator": (routes._PAIN2, False),
    "stirling": (loggamma._STIRLING_SERIES, False),
    "log1p_tail": (LOG1P_TAIL, True),
    "expm1_tail": (EXPM1_TAIL, True),
    "kummer_sinh_tail": (PowerSeries(lambda m: (1, factorial(2 * m + 3))), False),
    "kummer_g": (PowerSeries(_kummer_g_coefficient), False),
    "t_over_sinh_half": (PowerSeries(_t_over_sinh_half_coefficient), False),
    "dirichlet": (PowerSeries(_dirichlet_coefficient), False),
}


def _mpf_sum(series, z, digits):
    """sum c_k z^k in mpf at ``digits``, c_k from the series' own
    coefficient pair rounded at that precision, to 10^-(digits+5)
    relative."""
    with mp.workdps(digits):
        eps = mpf(10) ** -(digits + 5)
        acc, power, k, small = mpf(0), mpf(1), 0, 0
        while small < 2:
            p, q = series._coefficient(k)
            term = mpf(p) / q * power
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
    # below a quarter (it is a few units of 2^-W, with W = prec + 16).
    # Measured worst 0.80.  Without the guard bits 33 of 36 cases
    # exceeded the bound (worst 3.8); with forward powers in place of
    # Horner the factorially growing Stirling coefficients read 2e8 at
    # 70 digits and 5e141 at 420.
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


@pytest.mark.parametrize("name", list(KERNEL_SERIES))
@pytest.mark.parametrize("digits", [30, 220])
def test_coefficients_are_exact_pairs_rounded_once(name, digits):
    # The one coefficient contract: c_k is an integer pair (p, q), q > 0,
    # and the kernel keeps the integer nearest to p 2^W / q, W = prec + 16.
    series, _ = KERNEL_SERIES[name]
    with mp.workdps(digits):
        series(mpf(2) ** -300)      # small enough for Stirling's divergent series
        table = series._cache[mp.prec]
        assert table.width == mp.prec + 16
    while len(table.fixed) <= 40:
        table._extend()
    for k in range(41):
        p, q = pair = series._coefficient(k)
        assert (type(p), type(q)) == (int, int) and q > 0, f"c_{k} = {pair!r}"
        assert 2 * abs(table.fixed[k] * q - (p << table.width)) <= q, f"c_{k}"


def log1p_tail_form(t):
    # t - log(1+t), summed on the kernel
    return t * t * LOG1P_TAIL(t)


def expm1_tail_form(z):
    # expm1(z) - z, summed on the kernel
    return z * z * EXPM1_TAIL(z)


CLOSED_FORMS = {
    log1p_tail_form: lambda t: t - mpmath.log1p(t),
    expm1_tail_form: lambda z: mpmath.expm1(z) - z,
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
    for name in SERIES_INTEGRANDS:
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


def test_diverging_series_raises_instead_of_running_on():
    # Stirling's asymptotic series at w = 2^-8: its terms stop shrinking
    # near k = 50, far above the 220-digit stop, which never comes.
    start = time.perf_counter()
    with mp.workdps(220):
        with pytest.raises(ArithmeticError, match="diverges"):
            loggamma._STIRLING_SERIES(mpf(2) ** -8)
    assert time.perf_counter() - start < 1


def test_to_turn_sums_through_the_smallest_term():
    # c_k = 2^(k^2) at z = 2^-10: term k is 2^(k^2 - 10k), least at k = 5
    # (2^-25), one bit below both neighbours, and rising from there on.
    series = PowerSeries(lambda k: (2 ** (k * k), 1))
    z = mpf(2) ** -10
    with mp.workdps(30):
        total, omitted, n = series.to_turn(z)
        assert n == 6
        assert total == sum(mpf(2) ** (k * k - 10 * k) for k in range(6))
        assert mpf(2) ** -24 <= omitted <= mpf(2) ** -22    # term 6, 2^-24
        with pytest.raises(ArithmeticError, match="diverges"):
            series(z)
        # a given count: three terms, and the bound of term 3, 2^-21
        total, omitted, n = series.to_turn(z, 3)
        assert n == 3 and total == sum(mpf(2) ** (k * k - 10 * k) for k in range(3))
        assert mpf(2) ** -21 <= omitted <= mpf(2) ** -19


def test_a_call_builds_no_coefficient_past_its_terms():
    # A call reads only the coefficients its sum needs; to_turn builds one
    # more, for the bound of the first omitted term.
    series = PowerSeries(lambda k: (1, k + 1))          # -log(1 - z)/z
    z = mpf(2) ** -8
    with mp.workdps(30):
        value = series(z)
        table = series._cache[mp.prec]
        (n,) = table.counts.values()
        assert len(table.fixed) == n
        total, omitted, count = series.to_turn(z)
        assert total == value and count == n and len(table.fixed) == n + 1
        bound = mpf(2) ** (table.bits[n] - table.width) * z ** n     # |c_n| < 2^(bits - W)
        assert bound <= omitted <= bound * 1.001


def test_lazy_sequence_computes_each_item_once_on_first_read():
    # A counting source: nothing is computed until read, an item is
    # computed when first read and never again, and every reader (two
    # interleaved iterators, an index) gets the same object.
    made = []

    def source():
        for k in range(5):
            made.append(k)
            yield [k]

    seq = _Lazy(source())
    assert made == []
    first, second = iter(seq), iter(seq)
    a0 = next(first)
    assert made == [0]
    b0, b1 = next(second), next(second)
    a1 = next(first)
    assert made == [0, 1]
    assert a0 is b0 and a1 is b1 and seq[1] is a1
    assert seq[3] == [3] and made == [0, 1, 2, 3]
    assert next(first) is seq[2] and made == [0, 1, 2, 3]
    assert [item[0] for item in seq] == [0, 1, 2, 3, 4]
    assert list(first) == [[3], [4]] and made == [0, 1, 2, 3, 4]
    with pytest.raises(IndexError):
        seq[5]
    assert made == [0, 1, 2, 3, 4]


def test_to_turn_stops_stirling_where_it_turns():
    # The series that raises above, summed to its turn instead: the
    # Stirling tail of log Gamma(16) is then within its first omitted
    # term, near 1e-44, of the true tail.
    with mp.workdps(220):
        total, omitted, _ = loggamma._STIRLING_SERIES.to_turn(mpf(2) ** -8)
        z = mpf(16)
        tail = mpmath.loggamma(z) - (z - 0.5) * mpmath.log(z) + z - mpmath.log(2 * mpmath.pi) / 2
        assert mpf(10) ** -46 < omitted < mpf(10) ** -42
        assert abs(total / z - tail) <= omitted / z


def _prime_factor_count(m: int) -> int:
    count, d = 0, 2
    while m > 1:
        while m % d == 0:
            m //= d
            count += 1
        d += 1
    return count


@pytest.mark.parametrize("digits", [20, 50, 200])
def test_fixed_logs_against_mpmath_log(digits):
    # Entry m is log m rounded once at the working precision per prime
    # factor and truncated to W bits: within 2^-prec log m + Omega(m)
    # units of 2^-W of log m, taken here at W + 30 bits.
    n = 2048
    with mp.workdps(digits):
        prec = mp.prec
        width, logs = fixed_logs(n)
    assert width == prec + 10
    assert len(logs) == n + 1 and logs[0] == logs[1] == 0
    with mp.workprec(width + 30):
        for m in range(2, n + 1):
            exact = mpmath.log(m) * mpf(2) ** width
            bound = exact * mpf(2) ** -prec + _prime_factor_count(m)
            assert abs(logs[m] - exact) <= bound, m


def test_fixed_logs_short_tables():
    with mp.workdps(30):
        assert fixed_logs(0)[1] == [0]
        assert fixed_logs(1)[1] == [0, 0]
        width, logs = fixed_logs(4)
        assert logs[4] == 2 * logs[2] > 0


def test_kummer_integrand_vanishes_at_half(ctx50):
    # a = 1/2 - x = 0 makes p = e^(at) exactly 1 and both bracket terms 0.
    integrand = kummer_integrand(mpf(1) / 2, ctx50)
    with ctx50.workdps(20):
        assert integrand(mpf("1e-3")) == 0


def _res1_unguarded(t):
    u = 1 + t
    L = mpmath.log(u)
    r = mpmath.sqrt(u)
    return (mpmath.exp(-t) / 8 - (2 + (L - 2) * r) / (2 * u * r * L * L)) / t


def _pain1_unguarded(x):
    E = mpmath.exp(-x / 2)
    E2 = E * E
    return (x * (1 + E2) - 2 * (1 - E2)) / (x ** 3 * (1 + E))


def _res2_bracket_unguarded(t):
    q = mpmath.exp(-t / 2)
    return (1 - q) / ((1 + q) * t) - q * q / 4


def _feaux_unguarded(x):
    def form(t):
        L = mpmath.log(1 + t)
        return (x * mpmath.exp(-t) + ((1 + t) ** (-x - 1) - 1 / (1 + t)) / L) / t
    return form


def _fourier_unguarded(n, ctx):
    with ctx.workdps(10):
        two_n_pi = 2 * n * (+mpmath.pi)
        with mp.workprec(2 * mp.prec):
            four_n2_pi2 = two_n_pi ** 2    # exact, as the integrand squares it
    return lambda t: (two_n_pi / (t * t + four_n2_pi2) - mpmath.exp(-t) / two_n_pi) / t


# Raw forms that drop their exponential past smallt.far: (digits lost per
# decade, the same expression with a plain exp).
def _unguarded_forms(ctx):
    return {
        "pain1": (2, _pain1_unguarded),
        "res1": (3, _res1_unguarded),
        "res2_dt_over_t": (2, lambda t: _res2_bracket_unguarded(t) / t),
        "res2_dt": (2, _res2_bracket_unguarded),
        "dirichlet": (2, lambda t: (1 / (1 + t) - mpmath.exp(-t)) / t),
        "feaux_quarter": (2, _feaux_unguarded(mpf(1) / 4)),
        "a_3": (1, _fourier_unguarded(3, ctx)),
    }


# The route forms whose raw form runs in the fixed-point frame up to
# 2 prec and returns its algebraic limit past it.
FRAME_FORMS = ("pain1", "res1", "res2_dt_over_t", "res2_dt")


@pytest.mark.parametrize("digits", [20, 50, 400])
def test_far_is_t_above_twice_the_working_precision(digits):
    # far reads the exponent and mantissa; 2 prec is no power of two, so
    # at the bound the integers must decide.
    with make_context(digits).workdps(20):
        bound = mpf(2 * mp.prec)
        for t in threshold_points(bound):
            assert far(t) == (t > bound), mpmath.nstr(t, 30)


@pytest.mark.parametrize("name", list(_unguarded_forms(make_context(20))))
@pytest.mark.parametrize("digits", [200, 400])
def test_far_tail_exp_guard_is_bit_identical(name, digits):
    # smallt.far drops e^-t for t > 2 prec.  The loggamma forms test it
    # inside their guard, where prec is that of context + 20 + 10 guard
    # digits (t >= 1); the route forms of FRAME_FORMS test it at the
    # engine's context + 20 digits.  Every form rounds once at the
    # engine's precision, so the plain-exp form, computed with the same
    # guard, is rounded there too.  Past the edge, and for the loggamma
    # forms on both sides of it, the form must have exactly those bits:
    # over a grid of prec/4 steps through both edges, and far out where a
    # plain exp costs milliseconds.  A lower edge (say prec/4) leaves e^-t
    # above an ulp and turns this red.  Below the edge the FRAME_FORMS run
    # the fixed-point frame, held to one unit in the last place.
    ctx = make_context(digits)
    integrand = build_integrand(name, ctx)
    per_decade, unguarded = _unguarded_forms(ctx)[name]
    with ctx.workdps(30):
        prec = mp.prec
    with ctx.workdps(20):
        edge = 2 * mp.prec if name in FRAME_FORMS else 2 * prec
    points = [2 * prec - 1, 2 * prec + 1, 4 * prec - 2, 4 * prec + 2, 10 ** 3]
    points += [k * prec // 4 for k in range(1, 21)]
    if name in FRAME_FORMS:
        points += [edge - 1, edge + 1]
    points = [mpf(p) for p in points] + [mpf(10) ** 230, mpf(10) ** 450]
    for t in points:
        with ctx.workdps(20):
            got = integrand.eval(t)
            with mp.extradps(cancellation_guard(t, per_decade)):
                want = +unguarded(t)
            want = +want
            ulp = mpf(2) ** (mpmath.mag(want) - mp.prec)
        if name in FRAME_FORMS and t <= edge:
            assert abs(got - want) <= ulp, (
                f"{name} at t = {mpmath.nstr(t, 8)} ({digits} digits, edge {edge}): "
                f"frame {mpmath.nstr(got, 20)} vs plain {mpmath.nstr(want, 20)}"
            )
            continue
        assert got._mpf_ == want._mpf_, (
            f"{name} at t = {mpmath.nstr(t, 8)} ({digits} digits, edge {edge}): "
            f"guarded {mpmath.nstr(got, 20)} vs plain {mpmath.nstr(want, 20)}"
        )
