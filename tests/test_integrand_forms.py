"""The one-exp fixed-point raw forms and the transcendental-free near-zero
forms of the integral routes' integrands, against the paper's literal
expressions, and the guarded raw forms of the log Gamma representations."""

from __future__ import annotations

from fractions import Fraction
from itertools import islice
from math import comb, factorial

import mpmath
import pytest
from mpmath import mp, mpf

from glaisher import make_context, routes
from glaisher.loggamma import (
    DIRICHLET_INTEGRAND,
    feaux_integrand,
    fourier_a_n_integrand,
    kummer_integrand,
)
from glaisher.quadrature import DEFAULT_NEAR_ZERO_THRESHOLD, shared_work
from glaisher.routes import (
    PAIN1_INTEGRAND,
    PAIN2_INTEGRAND,
    RES1_INTEGRAND,
    RES2_DT_INTEGRAND,
    RES2_INTEGRAND,
)
from glaisher.smallt import cancellation_guard, exp_neg, far


def _pain1_literal(x):
    return (1 - mpmath.exp(-x / 2)) * (x * mpmath.coth(x / 2) - 2) / x ** 3


def _pain2_literal(x):
    return ((8 - 3 * x) * mpmath.exp(x) - 8 * mpmath.exp(x / 2) - x) / (
        4 * x * x * mpmath.exp(x) * (mpmath.exp(x) - 1)
    )


def _res2_bracket_literal(t):
    return mpmath.tanh(t / 4) / t - mpmath.exp(-t) / 4


def _res1_literal(t):
    L = mpmath.log(1 + t)
    return (mpmath.exp(-t) / 8 - (1 + t) ** (-mpf(3) / 2) / L ** 2
            - (L - 2) / (2 * (1 + t) * L ** 2)) / t


# name -> (integrand, the paper's literal expression)
LITERAL_FORMS = {
    "pain1": (PAIN1_INTEGRAND, _pain1_literal),
    "pain2": (PAIN2_INTEGRAND, _pain2_literal),
    "res1": (RES1_INTEGRAND, _res1_literal),
    "res2_dt_over_t": (RES2_INTEGRAND, lambda t: _res2_bracket_literal(t) / t),
    "res2_dt": (RES2_DT_INTEGRAND, _res2_bracket_literal),
}

# t in [2^-8, 10^3]: the raw forms' whole range short of the far tail.
RAW_GRID = ["0.00390625", "0.01", "0.1", "0.5", "1", "2.75", "10", "63.5", "400", "1000"]


def _literal_grid(prec):
    """RAW_GRID from 2^-8 10^-6 (where the consistency tests call the raw
    forms), the far-tail edge 2 prec from both sides, then 10^6 and 10^40."""
    grid = [mpf(2) ** -8 * mpf(10) ** -6, mpf(2) ** -8 * mpf(10) ** -3]
    grid += [mpf(text) for text in RAW_GRID]
    grid += [mpf(2 * prec - 1), mpf(2 * prec + 1), mpf(10) ** 6, mpf(10) ** 40]
    return grid


# A form of the other cancellation guard (2 against 3 digits per decade)
# whose raw form takes E = e^(-t/2) at the same abscissae.
STORED_BY = {"pain1": "pain2", "pain2": "pain1", "res1": "res2_dt_over_t",
             "res2_dt_over_t": "res1", "res2_dt": "pain2"}


@pytest.mark.parametrize("name", list(LITERAL_FORMS))
@pytest.mark.parametrize("digits", [20, 50, 200, pytest.param(400, marks=pytest.mark.slow)])
def test_raw_form_matches_literal_expression(name, digits):
    # The fixed-point raw form at the engine's P+20 digits against the
    # literal expression (coth, tanh, two exps) at P+40, to 10^-(P+10)
    # relative: the guard covers the cancellation down to 2^-8 10^-6, and
    # the far tail's algebraic limit drops nothing above an ulp.  Short of
    # the far tail the form also runs inside one computation after the
    # form of STORED_BY, and so reads the E that form stored (cut to its
    # own frame below t = 1, where the two guards differ): that E must be
    # the one ``exp_neg`` gives whichever form takes it, and the form's
    # bits those it gives alone.
    ctx = make_context(digits)
    integrand, literal = LITERAL_FORMS[name]
    other = LITERAL_FORMS[STORED_BY[name]][0]
    bound = mpf(10) ** (-(digits + 10))
    misses = []
    with ctx.workdps(20):
        grid = _literal_grid(mp.prec)
    for t in grid:
        with ctx.workdps(20):
            got = integrand.eval(t)
            if not far(t):                      # where every raw form takes E
                with shared_work() as table:
                    other.eval(t)
                    stored = table["exp-half", mp.prec, t._mpf_]
                    assert stored == exp_neg(t), mpmath.nstr(t, 8)
                    assert integrand.eval(t)._mpf_ == got._mpf_, mpmath.nstr(t, 8)
        with ctx.workdps(40):
            want = literal(t)
            rel = abs(got - want) / abs(want)
        if rel > bound:
            misses.append(f"t = {mpmath.nstr(t, 8)}: {mpmath.nstr(rel, 3)}")
    assert not misses, f"{name} at {digits} digits: {misses}"


QUOTIENT_SERIES = {
    "pain1": (routes._PAIN1, _pain1_literal),
    "pain2": (routes._PAIN2, _pain2_literal),
    "res1": (routes._RES1, _res1_literal),
}


@pytest.mark.parametrize("name", list(QUOTIENT_SERIES))
def test_quotient_series_matches_taylor_of_closed_form(name):
    # mpmath.taylor differentiates the literal form numerically around the
    # removable singularity at 0 (its k = 0 entry there is not the limit,
    # so c_0 is checked against mpmath.limit).
    series, literal = QUOTIENT_SERIES[name]
    with mp.workdps(50):
        taylor = mpmath.taylor(literal, 0, 29, singular=True)
        taylor[0] = mpmath.limit(literal, 0)
        for k in range(30):
            p, q = series._coefficient(k)
            c = mpf(p) / q
            rel = abs(taylor[k] - c) / abs(c)
            assert rel < mpf(10) ** -30, f"{name} c_{k}: relative gap {mpmath.nstr(rel, 3)}"


def test_res1_numerator_cancels_exactly():
    # A = e^-t t^2 l^2/8 - (1+t)^(-3/2) - (t l - 2)/(2 (1+t)) loses its
    # t^0..t^2 coefficients exactly, and l^2 = (log(1+t)/t)^2 starts
    # 1 - t + 11/12 t^2 - 5/6 t^3, so the series starts at c_0 = 1/48.
    pairs = list(islice(routes._res1_coefficients(), 4))
    assert [a for a, _ in pairs] == [(0, 1), (0, 1), (0, 1), (1, 48)]
    assert [s for _, s in pairs] == [(1, 1), (-1, 1), (11, 12), (-5, 6)]
    assert routes._RES1._coefficient(0) == (1, 48)


def _res1_fraction_coefficients():
    """(a_m, s_m) of ``routes._res1_coefficients`` by the same four
    recurrences in exact rationals."""
    N, M, K, G, H = Fraction(1), Fraction(0), Fraction(0), Fraction(0), Fraction(0)
    m = 0
    while True:
        sign = (-1) ** m
        inverse_sqrt_cubed = Fraction((2 * m + 1) * comb(2 * m, m), 4 ** m)
        yield (G / 8 + sign * ((2 + H) / 2 - inverse_sqrt_cubed),
               sign * 2 * (H + Fraction(1, m + 1)) / (m + 2))
        m += 1
        M, G = (N - M) / m, (2 * K - G) / m
        N = Fraction(-sign, factorial(m)) - N
        K = M - K
        H += Fraction(1, m)


def test_res1_coefficients_match_fraction_recurrences():
    # The integer numerators over m! must give the reduced pairs of the
    # Fraction recurrences, out to k = 200 (a 400-digit sum at z = 2^-8
    # reads about 175 of them).
    want = [(a.as_integer_ratio(), s.as_integer_ratio())
            for a, s in islice(_res1_fraction_coefficients(), 201)]
    assert list(islice(routes._res1_coefficients(), 201)) == want


def _fraction_quotient(numerator, denominator, n):
    """c_0..c_(n-1) of (sum a_k z^k) / (sum b_k z^k) by the Fraction
    convolution c_k = (a_k - sum_{j=1..k} b_j c_(k-j)) / b_0."""
    b, c = [], []
    for k in range(n):
        b.append(Fraction(*denominator(k)))
        tail = sum(b[j] * c[k - j] for j in range(1, k + 1))
        c.append((Fraction(*numerator(k)) - tail) / b[0])
    return c


def _res1_fraction_reference(n):
    pairs = list(islice(_res1_fraction_coefficients(), n + 3))
    return _fraction_quotient(lambda k: pairs[k + 3][0].as_integer_ratio(),
                              lambda k: pairs[k][1].as_integer_ratio(), n)


QUOTIENT_REFERENCES = {
    "pain1": (routes._PAIN1, lambda n: _fraction_quotient(
        routes._pain1_numerator, routes._pain1_denominator, n)),
    "pain2": (routes._PAIN2, lambda n: _fraction_quotient(
        routes._pain2_numerator, routes._pain2_denominator, n)),
    "res1": (routes._RES1, _res1_fraction_reference),
}


@pytest.mark.parametrize("name", list(QUOTIENT_REFERENCES))
def test_quotient_series_pairs_match_fraction_convolution(name):
    # The integer convolution over running common denominators must hand
    # the kernel the same reduced pairs as exact rational arithmetic, out
    # to k = 200 (a 400-digit sum at z = 2^-8 reads about 170 of them).
    series, reference = QUOTIENT_REFERENCES[name]
    want = [c.as_integer_ratio() for c in reference(201)]
    assert [series._coefficient(k) for k in range(201)] == want


TRANSCENDENTALS = ("exp", "expm1", "sinh", "cosh", "tanh", "coth", "log", "ln", "sqrt")


# The integrands with a near-zero form: the route integrands.
NEAR_ZERO_FORMS = {name: integrand for name, (integrand, _) in LITERAL_FORMS.items()}


def test_near_zero_forms_call_no_transcendental(monkeypatch):
    ctx = make_context(60)        # a precision the other tests leave cold

    def forbidden(*args, **kwargs):
        raise AssertionError("near-zero form called an mpmath transcendental")

    for fn in TRANSCENDENTALS:
        monkeypatch.setattr(mpmath, fn, forbidden)
    monkeypatch.setattr(routes, "isqrt", forbidden)
    with ctx.workdps(20):
        ts = [mpf(DEFAULT_NEAR_ZERO_THRESHOLD) * mpf(s) for s in ("0.99", "1e-3")]
        ts.append(mpf(2) ** -200)
        for name, integrand in NEAR_ZERO_FORMS.items():
            for t in ts:
                assert mpmath.isfinite(integrand.near_zero(t)), name


@pytest.mark.parametrize("digits", [50, 400])
def test_integrand_values_carry_the_working_precision(digits):
    # Every form rounds once, to the engine's working precision: a raw
    # form's guard digits must not reach the value the engine multiplies
    # by every weight.  The near-zero forms are asked below the threshold
    # only, where the engine calls them; the log Gamma representations
    # have their raw form alone.
    ctx = make_context(digits)
    forms = dict(NEAR_ZERO_FORMS)
    forms["dirichlet"] = DIRICHLET_INTEGRAND
    forms["feaux(x=1/4)"] = feaux_integrand(mpf(1) / 4, ctx)
    forms["kummer(x=1/4)"] = kummer_integrand(mpf(1) / 4, ctx)
    forms["fourier_a_n(n=3)"] = fourier_a_n_integrand(3, ctx)
    wide = []
    with ctx.workdps(20):
        for t in (mpf(2) ** -9, mpf(1) / 3, mpf(409), mpf(10) ** 40):
            for name, integrand in forms.items():
                paths = {"raw": integrand.eval}
                if integrand.near_zero and t < DEFAULT_NEAR_ZERO_THRESHOLD:
                    paths["near_zero"] = integrand.near_zero
                for path, form in paths.items():
                    bits = form(t)._mpf_[1].bit_length()
                    if bits > mp.prec:
                        wide.append(f"{name} {path} at t = {mpmath.nstr(t, 5)}: {bits} bits")
        prec = mp.prec
    assert not wide, f"working precision {prec} bits: {wide}"


def _count_transcendentals(monkeypatch):
    # The mpmath transcendentals, the integer square root res1's raw form
    # takes in place of mpmath.sqrt, the libmp log it takes in place of
    # mpmath.ln, and the route raw forms' E, which smallt.exp_neg takes on
    # mpmath's libmp (counted as an exp).
    calls = {fn: 0 for fn in TRANSCENDENTALS + ("isqrt", "mpf_log")}

    def counting(fn, original):
        def counted(*args, **kwargs):
            calls[fn] += 1
            return original(*args, **kwargs)
        return counted

    for fn in TRANSCENDENTALS:
        monkeypatch.setattr(mpmath, fn, counting(fn, getattr(mpmath, fn)))
    monkeypatch.setattr(routes, "isqrt", counting("isqrt", routes.isqrt))
    monkeypatch.setattr(routes, "mpf_log", counting("mpf_log", routes.mpf_log))
    monkeypatch.setattr(routes, "exp_neg", counting("exp", routes.exp_neg))
    return calls


@pytest.mark.parametrize("name", [name for name in LITERAL_FORMS if name != "res1"])
def test_raw_forms_take_at_most_one_exp(name, monkeypatch):
    ctx = make_context(50)
    integrand = LITERAL_FORMS[name][0]
    calls = _count_transcendentals(monkeypatch)
    for text in RAW_GRID + ["1e6"]:
        for fn in calls:
            calls[fn] = 0
        with ctx.workdps(20):
            integrand.eval(mpf(text))
        assert calls["exp"] <= 1, f"{name} at t = {text}: {calls}"
        assert sum(calls.values()) == calls["exp"], f"{name} at t = {text}: {calls}"


def test_res1_raw_form_takes_one_log_one_sqrt_and_at_most_one_exp(monkeypatch):
    ctx = make_context(50)
    integrand = RES1_INTEGRAND
    calls = _count_transcendentals(monkeypatch)
    for text in RAW_GRID + ["1e6"]:
        for fn in calls:
            calls[fn] = 0
        with ctx.workdps(20):
            integrand.eval(mpf(text))
        assert calls["mpf_log"] == calls["isqrt"] == 1, f"t = {text}: {calls}"
        assert calls["exp"] <= 1, f"t = {text}: {calls}"
        assert sum(calls.values()) == 2 + calls["exp"], f"t = {text}: {calls}"


@pytest.mark.parametrize("x", ["0.25", "0.75"])
def test_kummer_raw_form_takes_two_exps_and_no_sinh(x, monkeypatch):
    ctx = make_context(50)
    integrand = kummer_integrand(mpf(x), ctx)
    calls = _count_transcendentals(monkeypatch)
    for text in RAW_GRID + ["1e6"]:
        for fn in calls:
            calls[fn] = 0
        with ctx.workdps(20):
            integrand.eval(mpf(text))
        assert calls["exp"] <= 2, f"x = {x} at t = {text}: {calls}"
        assert sum(calls.values()) == calls["exp"], f"x = {x} at t = {text}: {calls}"


@pytest.mark.parametrize("digits", [30, 70, 220])
@pytest.mark.parametrize("sign, bits", [(1, 60), (-1, 90)], ids=["half-2^-60", "half+2^-90"])
def test_kummer_raw_form_near_half(sign, bits, digits):
    # x = 1/2 - a with a = +-2^-bits: both bracket terms are ~2a, and the
    # raw form's guard covers the decades of 1/|a| on top of those of
    # 1/t, so a tiny a costs it no relative accuracy below 2^-8.  Against
    # the literal bracket [sinh(at)/sinh(t/2) - 2a e^-t]/t at 3P + 200
    # digits.
    ctx = make_context(digits)
    with mp.workdps(400):
        a = sign * mpf(2) ** -bits
        integrand = kummer_integrand(mpf(1) / 2 - a, ctx)
    misses = []
    for e in (9, 40, 300):
        with ctx.workdps(20):
            t = mpf(2) ** -e
            got = integrand(t)
        with mp.workdps(3 * digits + 200):
            want = (mpmath.sinh(a * t) / mpmath.sinh(t / 2) - 2 * a * mpmath.exp(-t)) / t
            rel = abs(got - want) / abs(want)
        if rel > mpf(10) ** -(digits + 10):
            misses.append(f"t = 2^-{e}: {mpmath.nstr(rel, 3)}")
    assert not misses, f"{digits} digits: {misses}"


def _old_guard(t, digits_per_decade):
    # The log10 rule the integer bound replaced.
    return 10 + digits_per_decade * int(mpmath.ceil(-mpmath.log10(t)))


def test_cancellation_guard_bounds_the_log10_rule():
    # At least the old 10 + d ceil(-log10 t), at most one decade (d digits)
    # above it, for t in [2^-1000, 1): exact powers of 2, the nearest
    # binary values to powers of 10, and a geometric grid between.
    with mp.workdps(60):
        grid = [mpf(2) ** -k for k in range(1, 1001)]
        grid += [mpf(10) ** -j for j in range(1, 302)]
        grid += [mpf("0.93") ** i for i in range(1, 9550, 7)]
        grid += [1 - mpf(10) ** -50, mpf(2) ** -1000]
        misses = []
        for t in grid:
            assert t < 1
            for d in (1, 2, 3):
                old, new = _old_guard(t, d), cancellation_guard(t, d)
                if not old <= new <= old + d:
                    misses.append(f"t = {mpmath.nstr(t, 8)}, d = {d}: {old} -> {new}")
        assert not misses, misses[:10]
    assert cancellation_guard(mpf(1), 2) == cancellation_guard(mpf(10) ** 6, 3) == 10
