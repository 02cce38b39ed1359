"""Seven independent estimators of log A and the identity residual checks.

A is the Glaisher-Kinkelin constant.  No literature value of log A is ever
used as ground truth: the only oracle is mutual agreement between routes
derived from unrelated representations.  The expected consensus is
log A = 0.2487544770... (documentation only).

Routes
------
limit           log of the defining limit ratio at n, 2n, 4n, ...,
                Richardson-extrapolated.  The raw sequence error is
                empirically c/n^2 (measured c ~ 1/240), so the
                extrapolation assumes an expansion in powers of n^-2.
                log G(n+1) = sum_{k<n} log k! is an exact integer sum
                over the fixed-point log table, so the route shares no
                code with the log Gamma oracle it helps check.
pain1, pain2    the two direct integral identities:
                  int (1-e^{-x/2}) (x coth(x/2) - 2) / x^3 dx
                      = 3 log A - (1/3) log 2 - 1/8
                  int ((8-3x) e^x - 8 e^{x/2} - x) / (4 x^2 e^x (e^x-1)) dx
                      = 3 log A - (7/12) log 2 + (log pi)/2 - 1
feaux           log A = 1/3 + (7/36) log 2 - (log pi)/6 + (2/3) I, where I
                integrates [e^-t/8 - (1+t)^{-3/2}/log^2(1+t)
                - (log(1+t)-2)/(2 (1+t) log^2(1+t))] dt/t.
kummer          log A = (log 2)/36 + (1/3) int [tanh(t/4)/t - e^-t/4] dt/t.
                The source's final display drops the /t measure next to a
                dangling minus sign; re-deriving the inner x-integral
                (int_0^1/2 sinh((1/2-x)t) dx = (cosh(t/2)-1)/t, and
                (cosh(t/2)-1)/sinh(t/2) = tanh(t/4)) confirms dt/t.  The
                dt variant diverges logarithmically; it stays available
                behind ``measure="dt"`` as the numerical negative control
                (evaluated over a fixed truncation so the comparison is a
                concrete, reproducible number).
fourier_series  log A = (log 2)/36 + (gamma + log 2pi)/12
                + (2/(3 pi^2)) sum_{n>=0} log(2n+1)/(2n+1)^2, plus the
                Euler-Maclaurin tail after N terms: two exact Bernoulli
                series summed to the precision or to their turn.  N caps
                the accuracy (about 275 digits at N = 100), so the
                default N is max(100, floor(0.37 P) + 10).
hasse           log A = 1/8 - (1/2) sum_n 1/(n+1)
                sum_k (-1)^k C(n,k) (k+1)^2 log(k+1).  The inner sum is
                (-1)^n Delta^n f(0) for f(k) = (k+1)^2 log(k+1), read off
                a forward-difference table of f kept in exact fixed-point
                integers.  The alternating binomial sums cancel ~ 2^n,
                i.e. 0.302 n decimal digits, and row n of the table adds
                up to 2^n roundings of f in the same way, so the context
                must carry that many digits above the requested output
                accuracy.

The limit, Fourier and Hasse routes take their integer logarithms from
one fixed-point table, :func:`~glaisher.smallt.fixed_logs`, built per call.

Integrand evaluation
--------------------
Each integral route's integrand is a fixed function of t, one
module-level :class:`~glaisher.quadrature.Integrand` built at import:
``PAIN1_INTEGRAND``, ``PAIN2_INTEGRAND``, ``RES1_INTEGRAND`` (feaux),
``RES2_INTEGRAND`` (kummer) and ``RES2_DT_INTEGRAND`` (the dt control).
Each has a raw form, used from t = 2^-8 on, and a near-zero power series
below it.  A raw form runs in fixed point
(:func:`~glaisher.smallt.raw_frame`) on E = e^{-t/2}, one exp per
abscissa in one computation: pain1 uses coth(x/2) = (1+E^2)/(1-E^2);
kummer tanh(t/4) = (1-E)/(1+E) and e^-t = E^2; pain2 e^-x = E^2; feaux
e^-t = E^2, one log and one integer sqrt.
Past t = 2 prec (:func:`~glaisher.smallt.far`) pain1, feaux and kummer
drop their exponential, which moves no bit there.  A near-zero form
calls no transcendental at all: pain1's, pain2's and feaux's are each
one power series whose coefficients are the exact-rational quotient of
two known series (:func:`~glaisher.smallt.quotient_series`); kummer's
is one series.

Identity residuals: the Glaisher half-integral identity, its Gamma(x)
variant, the log-sin integral (the three together from
``identity_residuals``), and the dt-measure control, whose two-digit
verdict runs at 20 digits whatever P is.  The report gives all four one
log A, the Fourier series' at its default N: that route shares no code
with the quadrature engine the identity integrals run on, so a fault
common to the engine cannot cancel out of a residual.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from functools import partial
from itertools import count
from math import ceil, comb, factorial, gcd, inf, isqrt
from operator import sub
from typing import Callable, Literal

import mpmath
from mpmath import mp, mpf
from mpmath.libmp import (from_man_exp, mpf_log, mpf_mul, mpf_sin, mpf_sub, round_nearest,
                          to_fixed)

from .context import (
    MIN_PRECISION_DIGITS,
    ComputeContext,
    ConstantsSet,
    PrecisionError,
    Real,
    make_context,
)
from .loggamma import DomainError, _log_gamma1p_series
from .quadrature import (
    Integrand,
    integrate_finite,
    integrate_zero_to_inf,
    shared,
    shared_work,
)
from .smallt import (
    PowerSeries,
    _Lazy,
    _quotient,
    _round,
    bernoulli,
    exp_neg,
    far,
    fixed_logs,
    fixed_quotient,
    quotient_series,
    raw_frame,
)

ROUTE_IDS = ("limit", "pain1", "pain2", "feaux", "kummer", "fourier_series", "hasse")
IDENTITY_IDS = ("glaisher_half", "gla2", "log_sin", "res2_measure_check")

Res2Measure = Literal["dt_over_t", "dt"]

# Fixed truncation for the (divergent) dt-measure control integral.
DT_CONTROL_UPPER = 100

# Disagreement floor the dt control must exceed, as an exact decimal.
DT_CONTROL_TOLERANCE = "0.01"


class ConsensusError(RuntimeError):
    """The feaux and kummer routes failed to agree; no oracle available."""


@dataclass
class RouteEstimate:
    route_id: str
    value: Real
    error_estimate: Real
    parameters: dict = field(default_factory=dict)
    evaluations: int = 0
    elapsed: float = 0.0
    """Seconds of the call; shared work (nodes, E) is charged to the
    first route that reaches it."""


@dataclass
class IdentityResidual:
    identity_id: str
    residual: Real
    tolerance_used: Real
    elapsed: float = 0.0

    @property
    def passed(self) -> bool:
        """The verdict: |residual| < tolerance.  The dt-measure control is
        inverted; its residual is the dt variant's gap to log A, and it
        passes when that gap exceeds the tolerance."""
        if self.identity_id == "res2_measure_check":
            return self.residual > self.tolerance_used
        return abs(self.residual) < self.tolerance_used


# ---------------------------------------------------------------------------
# Integrands of the four integral routes
# ---------------------------------------------------------------------------

def _res2_coefficient(k: int) -> tuple[int, int]:
    # Coefficient of t^k in [4 tanh(t/4) - t e^-t] / (4 t^2), with j = k + 2:
    # (tau_j - e_j) / 4, where e_j = (-1)^(j-1)/(j-1)! comes from t e^-t and
    # tau_j = 4^(m+1) (4^m - 1) B_2m / ((2m)! 4^j) from 4 tanh(t/4) at odd
    # j = 2m - 1.
    j = k + 2
    p, q = -(-1) ** (j - 1), factorial(j - 1)
    if j % 2:
        m = (j + 1) // 2
        b, d = bernoulli(2 * m)
        d *= factorial(2 * m) * 4 ** j
        p, q = p * d + 4 ** (m + 1) * (4 ** m - 1) * b * q, q * d
    return p, 4 * q


def _pain1_numerator(k: int) -> tuple[int, int]:
    # [x (1 + e^-x) - 2 (1 - e^-x)] / x^3 = sum_k (-1)^k (k+1)/(k+3)! x^k
    return (-1) ** k * (k + 1), factorial(k + 3)


def _pain1_denominator(k: int) -> tuple[int, int]:
    # 1 + e^{-x/2} = 2 - x/2 + x^2/8 - ...
    return (2, 1) if k == 0 else ((-1) ** k, 2 ** k * factorial(k))


def _pain2_numerator(k: int) -> tuple[int, int]:
    # n_j = 8/j! - 3/(j-1)! - 8/(2^j j!) = (2^j (8 - 3j) - 8) / (2^j j!),
    # with j = k + 3: n_1 = n_2 = 0 (and the -x term cancels n_1's 1).
    j = k + 3
    return 2 ** j * (8 - 3 * j) - 8, 2 ** j * factorial(j)


def _pain2_denominator(k: int) -> tuple[int, int]:
    # 4 (e^{2x} - e^x) / x = sum_k 4 (2^(k+1) - 1) / (k+1)! x^k
    return 4 * (2 ** (k + 1) - 1), factorial(k + 1)


def _res1_coefficients():
    """Yield (a_m, s_m), m = 0, 1, ...: the coefficients of t^m in A and in
    l^2 as reduced pairs (p, q), where l = log(1+t)/t and the res1 integrand is
    A / (t^3 l^2),  A = e^-t t^2 l^2 / 8 - (1+t)^(-3/2) - (t l - 2) / (2 (1+t)).

    a_0 = a_1 = a_2 = 0 and a_3 = 1/48.  G = e^-t t^2 l^2 = e^-t L^2, with
    L = log(1+t), comes from four first-order recurrences (no
    convolution): N = e^-t/(1+t) has (1+t) N = e^-t, M = e^-t L has
    M' = N - M, K = M/(1+t), and G' = 2K - G.  The coefficients of
    (1+t)^(-3/2) and (t l - 2) / (2 (1+t)) are (-1)^m (2m+1) C(2m, m) / 4^m
    and (-1)^(m+1) (2 + H_m) / 2, and s_m = (-1)^m 2 H_(m+1) / (m+2), H
    the harmonic numbers.  N, M, K, G and H are integers over m! (a step's
    division by m turns (m-1)! into m!).
    """
    N, M, K, G, H = 1, 0, 0, 0, 0
    m, fact = 0, 1
    while True:
        sign, scale = (-1) ** m, 4 ** m
        a = G * scale + sign * 4 * ((2 * fact + H) * scale
                                    - 2 * fact * (2 * m + 1) * comb(2 * m, m))
        s = sign * 2 * (H * (m + 1) + fact)
        yield _reduced(a, 8 * fact * scale), _reduced(s, fact * (m + 1) * (m + 2))
        m += 1
        fact *= m
        M, G = N - M, 2 * K - G
        N = -sign - m * N
        K = M - m * K
        H = m * H + fact // m


def _reduced(p: int, q: int) -> tuple[int, int]:
    g = gcd(p, q)
    return p // g, q // g


# The near-zero form (A / t^3) / l^2.
_RES1_PAIRS = _Lazy(_res1_coefficients())
_RES1 = quotient_series(lambda k: _RES1_PAIRS[k + 3][0], lambda k: _RES1_PAIRS[k][1])
_RES2_BRACKET_OVER_T2 = PowerSeries(_res2_coefficient)
_PAIN1 = quotient_series(_pain1_numerator, _pain1_denominator)
_PAIN2 = quotient_series(_pain2_numerator, _pain2_denominator)


def _exp_half(t: mpf) -> tuple:
    """``exp_neg(t)``, once per abscissa in one computation."""
    return shared(("exp-half", mp.prec, t._mpf_), exp_neg, t)


def _res1_raw(t: mpf) -> mpf:
    """Feaux-route integrand; three terms of size t^-2 cancelling to O(t).

    The raw form takes one log and one integer sqrt in fixed point, and
    the shared E: with u = 1+t, L = log u, r = sqrt(u) and G = e^-t = E^2
    (0 past 2 prec), it is [G u r L^2 - 4 (2 + (L-2) r)] / (8 u r L^2 t).  Near
    zero the integrand is A / (t^3 l^2) with l = log(1+t)/t, whose numerator's
    coefficients of t^0..t^2 cancel exactly (see ``_res1_coefficients``): one
    power series with exact rational coefficients
    (:func:`~glaisher.smallt.quotient_series`), limit 1/48 at zero,
    radius of convergence 1, and no transcendental.
    Decay at infinity is only 1/(t^2 log t); the exp-sinh transform still
    wins because the transformed tail dies double-exponentially.
    """
    width, T = raw_frame(t, 3)
    two = 2 << width
    U = (1 << width) + T
    L = to_fixed(mpf_log(from_man_exp(U, -width), width, round_nearest), width)
    R = isqrt(U << width)
    G = 0
    if not far(t):
        E = _exp_half(t)
        G = to_fixed(mpf_mul(E, E), width)
    urL2 = (U * R >> width) * (L * L >> width) >> width
    num = (G * urL2 >> width) - ((two + ((L - two) * R >> width)) << 2)
    return fixed_quotient(num, (urL2 * T >> width) << 3)


def _res2_raw(over_t: bool, t: mpf) -> mpf:
    """Kummer-route integrand [tanh(t/4)/t - e^-t/4] / t (or without /t).

    The raw form reads the shared q = e^{-t/2} in fixed point:
    tanh(t/4) = (1-q)/(1+q) and e^-t = q^2, so the bracket is
    [4 (1-q) - q^2 t (1+q)] / (4 t (1+q)), and 1/t past 2 prec.
    Near zero the bracket is t/4 - (25/192) t^2 + ...; the series form is
    [4 tanh(t/4) - t e^-t] / (4 t^2) as one power series in t, whose
    coefficients subtract the Taylor coefficients of 4 tanh(t/4) and
    t e^-t exactly (the O(t) parts are equal), summed on the shared
    :class:`~glaisher.smallt.PowerSeries` kernel.
    """
    if far(t):
        _, man, exp, _ = t._mpf_          # 1/t^2 or 1/t, t = man 2^exp
        return fixed_quotient(1, man * man, -2 * exp) if over_t else fixed_quotient(1, man, -exp)
    width, T = raw_frame(t, 2)
    one = 1 << width
    q = to_fixed(_exp_half(t), width)
    num = ((one - q) << 2) - (((q * q >> width) * T >> width) * (one + q) >> width)
    den = T * (one + q) >> (width - 2)
    return fixed_quotient(num, den * T >> width if over_t else den)


def _res2_dt_series(t: mpf) -> mpf:
    return t * _RES2_BRACKET_OVER_T2(t)


def _pain1_raw(x: mpf) -> mpf:
    """(1 - e^{-x/2}) (x coth(x/2) - 2) / x^3; limit 1/12 at zero.

    The shared E = e^{-x/2} gives coth(x/2) = (1+E^2)/(1-E^2), and the
    factor 1 - E cancels against 1 - E^2 = (1-E)(1+E), so the raw form is
        (x (1+E^2) - 2 (1-E^2)) / (x^3 (1+E))
    in fixed point, and (x - 2)/x^3 past 2 prec.  Near zero the same
    quotient is one power series: the numerator over x^3 is
    sum_k (-1)^k (k+1)/(k+3)! x^k, the denominator 1 + e^{-x/2}, and their
    quotient's coefficients are exact rationals
    (:func:`~glaisher.smallt.quotient_series`); no subtraction survives
    and no transcendental is called.
    """
    if far(x):
        _, man, exp, _ = x._mpf_          # (x - 2)/x^3, x = man 2^exp
        low = min(exp, 0)
        return fixed_quotient((man << exp - low) - (2 << -low), man ** 3, low - 3 * exp)
    width, X = raw_frame(x, 2)
    one = 1 << width
    E = to_fixed(_exp_half(x), width)
    E2 = E * E >> width
    num = (X * (one + E2) >> width) - ((one - E2) << 1)
    return fixed_quotient(num, ((X * X >> width) * X >> width) * (one + E) >> width)


def _pain2_raw(x: mpf) -> mpf:
    """((8-3x) e^x - 8 e^{x/2} - x) / (4 x^2 e^x (e^x - 1)); limit -1/12.

    The raw form reads the shared E = e^{-x/2}: it is e^-x ((8-3x) - 8E -
    xE^2) / (4 x^2 (1-E^2)), the fraction in fixed point and e^-x = E^2
    from E's mantissa, so it is relative-accurate at any x.
    Numerator Taylor coefficients n_k = 8/k! - 3/(k-1)! - 8/(2^k k!)
    (minus 1 at k = 1) vanish identically for k <= 2; the series starts at
    -x^3/3.  The denominator is x^3 times 4 (e^{2x} - e^x)/x =
    sum_k 4 (2^(k+1) - 1)/(k+1)! x^k, so near zero the integrand is the
    quotient of sum_{k>=3} n_k x^(k-3) by that series, one power series
    with exact rational coefficients
    (:func:`~glaisher.smallt.quotient_series`) and no transcendental.
    """
    width, X = raw_frame(x, 3)
    one = 1 << width
    half = _exp_half(x)
    E = to_fixed(half, width)
    E2 = E * E >> width
    num = (8 << width) - 3 * X - 8 * E - (X * E2 >> width)
    den = (X * X >> width) * (one - E2) >> (width - 2)
    _, man, e, _ = half             # e^-x = (man 2^e)^2
    return fixed_quotient(num * man * man, den, 2 * e)


# The four integral routes' integrands, fixed functions of t: each is its
# raw form above and its near-zero series, built once.  res2's two
# measures share one raw body, bound without a Python frame.
RES1_INTEGRAND = Integrand(eval=_res1_raw, near_zero=_RES1, label="res1")
RES2_INTEGRAND = Integrand(eval=partial(_res2_raw, True), near_zero=_RES2_BRACKET_OVER_T2,
                           label="res2[dt/t]")
RES2_DT_INTEGRAND = Integrand(eval=partial(_res2_raw, False), near_zero=_res2_dt_series,
                              label="res2[dt]")
PAIN1_INTEGRAND = Integrand(eval=_pain1_raw, near_zero=_PAIN1, label="pain1")
PAIN2_INTEGRAND = Integrand(eval=_pain2_raw, near_zero=_PAIN2, label="pain2")


# ---------------------------------------------------------------------------
# The seven routes
# ---------------------------------------------------------------------------

def _integral_route(
    ctx: ComputeContext,
    route_id: str,
    integrand: Integrand,
    closed_form: Callable[[Real, Real, ConstantsSet], tuple[Real, Real]],
    *,
    interval: tuple[Real, Real] | None = None,
    label: str | None = None,
    parameters: dict | None = None,
) -> RouteEstimate:
    """Integrate over (0, inf), or over ``interval``, and map the integral
    I and its error to log A and its error by ``closed_form(I, err, c)``,
    evaluated at P+10 digits with the context constants c."""
    start = time.perf_counter()
    if interval is None:
        result = integrate_zero_to_inf(integrand, ctx=ctx)
    else:
        result = integrate_finite(integrand, *interval, ctx=ctx)
    result.require_converged(label or route_id)
    with ctx.workdps(10):
        value, err = closed_form(result.value, result.error_estimate, ctx.constants)
        value, err = +value, +err
    return RouteEstimate(
        route_id=route_id,
        value=value,
        error_estimate=err,
        parameters=parameters or {},
        evaluations=result.evaluations,
        elapsed=time.perf_counter() - start,
    )


def route_feaux(ctx: ComputeContext) -> RouteEstimate:
    """log A from the Feaux-derived integral (first main identity)."""
    return _integral_route(
        ctx, "feaux", RES1_INTEGRAND,
        lambda I, err, c: (mpf(1) / 3 + mpf(7) / 36 * c.log2 - c.log_pi / 6
                           + mpf(2) / 3 * I, mpf(2) / 3 * err),
    )


def _kummer_log_a(I, err, c):
    return c.log2 / 36 + I / 3, err / 3


def route_kummer(ctx: ComputeContext, measure: Res2Measure = "dt_over_t") -> RouteEstimate:
    """log A from the Kummer-derived integral (second main identity).

    ``measure="dt"`` is the deliberate negative control: that variant of
    the integral diverges, so it is evaluated over the fixed truncation
    [0, 100] and must disagree with every honest route by far more than
    the 0.01 control threshold.
    """
    if measure == "dt_over_t":
        return _integral_route(
            ctx, "kummer", RES2_INTEGRAND, _kummer_log_a,
            parameters={"measure": "dt_over_t"},
        )
    if measure == "dt":
        return _integral_route(
            ctx, "kummer", RES2_DT_INTEGRAND, _kummer_log_a,
            interval=(mpf(0), mpf(DT_CONTROL_UPPER)),
            label="kummer[dt control]",
            parameters={"measure": "dt", "truncation": DT_CONTROL_UPPER},
        )
    raise ValueError(f"unknown res2 measure {measure!r}")


def route_pain1(ctx: ComputeContext) -> RouteEstimate:
    """log A from the cotanh integral identity."""
    return _integral_route(
        ctx, "pain1", PAIN1_INTEGRAND,
        lambda I, err, c: ((I + c.log2 / 3 + mpf(1) / 8) / 3, err / 3),
    )


def route_pain2(ctx: ComputeContext) -> RouteEstimate:
    """log A from the exponential-kernel integral identity."""
    return _integral_route(
        ctx, "pain2", PAIN2_INTEGRAND,
        lambda I, err, c: ((I + mpf(7) / 12 * c.log2 - c.log_pi / 2 + 1) / 3, err / 3),
    )


def _limit_sequence_value(n: int, log_fact_sum: Real, ctx: ComputeContext) -> Real:
    # log of the defining ratio at index n; log_fact_sum = log G(n+1).
    # The caller holds P+10 digits.
    c = ctx.constants
    nn = mpf(n)
    return (
        nn / 2 * c.log_2pi
        + (nn * nn / 2 - mpf(1) / 12) * mpmath.log(nn)
        - 3 * nn * nn / 4
        + mpf(1) / 12
        - log_fact_sum
    )


def _log_barnes_g(points: list[int]) -> list[Real]:
    """log G(m+1) = sum_{k<m} log k! for each m of the ascending ``points``.

    Two running integer sums over the fixed-point log table of
    :func:`~glaisher.smallt.fixed_logs`, log k! += log k and then
    log G += log k!, so each value is rounded once, at the working
    precision.
    """
    width, logs = fixed_logs(points[-1] - 1)
    log_fact = log_g = 0
    values = []
    k = 1
    for m in points:
        while k < m:
            log_fact += logs[k]
            log_g += log_fact
            k += 1
        values.append(mpf((log_g, -width)))
    return values


def route_limit(ctx: ComputeContext, n: int = 64, richardson_order: int = 3) -> RouteEstimate:
    """log A from the defining limit, Richardson-extrapolated.

    Evaluates the log-ratio at n, 2n, ..., 2^order n (log space throughout;
    the factorial product log G(m+1) comes from :func:`_log_barnes_g`).
    No oracle is called, so ``evaluations`` (log Gamma oracle calls) is
    0.  One extra point at 2^{order+1} n feeds the error estimate: the
    difference between the order-r extrapolations with and without it.
    """
    if n < 2:
        raise DomainError(f"route_limit requires n >= 2, got {n}")
    if richardson_order < 0:
        raise DomainError(f"richardson_order must be >= 0, got {richardson_order}")
    start = time.perf_counter()
    points = [n * 2 ** i for i in range(richardson_order + 2)]
    with ctx.workdps(10):
        values = [_limit_sequence_value(m, log_g, ctx)
                  for m, log_g in zip(points, _log_barnes_g(points))]

        def richardson(seq):
            # error expansion in n^-2 (measured; see module docstring)
            diag = list(seq)
            for j in range(1, len(seq)):
                factor = mpf(2) ** (2 * j)
                diag = [
                    (factor * diag[i + 1] - diag[i]) / (factor - 1)
                    for i in range(len(diag) - 1)
                ]
            return diag[0]

        extrapolated = richardson(values[: richardson_order + 1])
        shifted = richardson(values[1 : richardson_order + 2])
        # The shifted table tracks the true error closely; double it so the
        # estimate stays conservative rather than coincidental.
        err = 2 * abs(shifted - extrapolated)
        floor = mpf(10) ** (-(ctx.precision_digits + 1)) * max(mpf(1), abs(extrapolated))
        err = +(err + floor)
        value = +extrapolated
    return RouteEstimate(
        route_id="limit",
        value=value,
        error_estimate=err,
        parameters={"n": n, "richardson_order": richardson_order},
        evaluations=0,
        elapsed=time.perf_counter() - start,
    )


def _harmonic_minus_one():
    """Yield H_(2j+2) - 1, j >= 0, as reduced pairs (H_n harmonic)."""
    h, d = 1, 2
    for n in count(3, 2):           # add 1/n + 1/(n+1)
        yield h, d
        h, d = _reduced(h * n * (n + 1) + (2 * n + 1) * d, d * n * (n + 1))


_H_MINUS_ONE = _Lazy(_harmonic_minus_one())


def _harmonic_bernoulli(j: int) -> tuple[int, int]:
    """B_(2j+2) (H_(2j+2) - 1) as an integer pair."""
    p, q = bernoulli(2 * j + 2)
    h, d = _H_MINUS_ONE[j]
    return p * h, q * d


# S_B(w) = sum_j B_(2j+2) w^j and S_H(w) = sum_j B_(2j+2) (H_(2j+2) - 1) w^j.
_EM_BERNOULLI = PowerSeries(lambda j: bernoulli(2 * j + 2))
_EM_HARMONIC = PowerSeries(_harmonic_bernoulli)


def _em_tail(u: int, log_u: mpf) -> tuple[mpf, mpf]:
    """Euler-Maclaurin tail of sum_{n>=N} log(2n+1)/(2n+1)^2, u = 2N+1, and
    the bound of its first omitted terms: (log u + 1)/(2u) + log u/(2u^2)
    - (w/2u) [S_H(w) - log u S_B(w)], w = 4/u^2: S_H summed by ``to_turn``
    and S_B to the same count, one order for both, 3 bits(u) bits short of
    mp.prec, as w/2u <= 2^(4 - 3 bits(u)) scales their error and the
    kernel's guard bits cover the 4."""
    w = mpf(4) / (u * u)
    with mp.workprec(max(mp.prec - 3 * u.bit_length(), 53)):
        s_h, omitted_h, n = _EM_HARMONIC.to_turn(w)
        s_b, omitted_b, _ = _EM_BERNOULLI.to_turn(w, n)
    scale = w / (2 * u)
    tail = (log_u + 1) / (2 * u) + log_u / (2 * u * u) - scale * (s_h - log_u * s_b)
    return tail, scale * (omitted_h + log_u * omitted_b)


def fourier_default_terms(digits: int) -> int:
    """The Fourier route's default N at P digits, max(100, floor(0.37 P) + 10):
    the tail's series turn near 10^-(2.73 N) (2e-275, 8e-333 and 9e-434 at
    N = 100, 121 and 158), about 27 digits below 10^-P at this N."""
    return max(100, 37 * digits // 100 + 10)


def route_fourier_series(
    ctx: ComputeContext, n_terms: int | None = None, accelerate: bool = True
) -> RouteEstimate:
    """log A from the appendix series over odd integers.

    The partial sum over n < N is one W-bit fixed-point integer sum of
    log u // u^2, u = 2n+1, over :func:`~glaisher.smallt.fixed_logs`,
    rounded once.  ``accelerate=False`` returns it raw, estimated by a
    bound on the dropped tail (the raw series converges like log N / N);
    otherwise :func:`_em_tail` is added, estimated by the bound of its
    first omitted terms.  ``n_terms=None`` takes :func:`fourier_default_terms`.
    """
    if n_terms is None:
        n_terms = fourier_default_terms(ctx.precision_digits)
    if n_terms < 1:
        raise DomainError(f"n_terms must be >= 1, got {n_terms}")
    start = time.perf_counter()
    c = ctx.constants
    with ctx.workdps(10):
        width, logs = fixed_logs(2 * n_terms + 1)
        partial = mpf((sum(logs[u] // (u * u) for u in range(1, 2 * n_terms, 2)), -width))
        series_coeff = 2 / (3 * c.pi ** 2)
        u = 2 * n_terms + 1
        log_u = mpf((logs[u], -width))
        if accelerate:
            tail, omitted = _em_tail(u, log_u)
            series_sum = partial + tail
            err = series_coeff * omitted
        else:
            series_sum = partial
            err = series_coeff * ((log_u + 1) / (2 * u) + log_u / (u * u))
        floor = mpf(10) ** (-(ctx.precision_digits + 1))
        value = +(c.log2 / 36 + (c.euler_gamma + c.log_2pi) / 12
                  + series_coeff * series_sum)
        err = +(err + floor)
    return RouteEstimate(
        route_id="fourier_series",
        value=value,
        error_estimate=err,
        parameters={"n_terms": n_terms, "accelerate": accelerate},
        evaluations=n_terms,
        elapsed=time.perf_counter() - start,
    )


def hasse_required_digits(n_terms: int, output_digits: int = 20) -> int:
    """Context digits needed for N Hasse terms: the 2^n binomial growth
    burns ceil(0.302 N) digits of cancellation before any output digit."""
    return ceil(0.302 * n_terms) + output_digits


def _hasse_partial_sums(ctx: ComputeContext, n_max: int):
    """(W, iterator of (n, head, partial sum) for n = 0..n_max): integers
    in units of 2^-W, W = mp.prec + 10 at P+10 digits.

    The inner sum sum_k (-1)^k C(n,k) f(k), f(k) = (k+1)^2 log(k+1), is
    the head (-1)^n Delta^n f(0) of row n of the forward-difference table
    of f.  f(0..n_max) is taken once as W-bit integers, (k+1)^2 times the
    integer-log table of :func:`~glaisher.smallt.fixed_logs`; each row is
    the exact integer differences of the one before, so no binomial and
    no mpf is formed.  Row n still adds up to 2^n of the logs' roundings,
    which is why the 0.302 N digit rule holds.  The partial sum adds each
    outer term head/(n+1) divided to the nearest unit, so it is off by
    at most (n+1)/2 units.  Refuses, before any work, a context that
    cannot absorb the cancellation (the result would be silent garbage).
    """
    needed = hasse_required_digits(n_max)
    if ctx.precision_digits < needed:
        raise PrecisionError(
            f"insufficient precision for hasse with N={n_max}: context has "
            f"{ctx.precision_digits} digits, needs >= {needed} "
            f"(ceil(0.302 N) + 20)"
        )
    with ctx.workdps(10):
        width, logs = fixed_logs(n_max + 1)

    def sums():
        row = [m * m * logs[m] for m in range(1, n_max + 2)]
        total = 0
        for n in range(n_max + 1):
            head = -row[0] if n % 2 else row[0]
            total += (2 * head + n + 1) // (2 * n + 2)
            yield n, head, total
            row = list(map(sub, row[1:], row))

    return width, sums()


def route_hasse(ctx: ComputeContext, n_terms: int = 80) -> RouteEstimate:
    """log A from the alternating binomial double sum.

    Refuses to run when the context precision cannot absorb the
    cancellation (result would be silent garbage).  The value is 1/8
    minus half the last partial sum, rounded once at P+10 digits.  The
    error estimate is the last outer term's share of log A, |term|/2,
    times 2N/3, a factor fitted near N = 200; the term is the last head
    rounded at P+10 digits, then divided by N + 1.  The inner sums tend
    to about 2/(n (log n)^3) and the outer terms to about
    2/(n^2 (log n)^3) (n^{-5/2} is only their local slope near n = 200),
    so the tail beyond N slowly approaches N times the last term
    (measured 0.66 N at N = 200, 0.72 N at N = 1000): true error over
    estimate tends to 1.5, inside the 10x contract.  Four relative digits
    arrive first at N = 176, five at N = 849 and six at N = 4597.
    """
    if n_terms < 1:
        raise DomainError(f"n_terms must be >= 1, got {n_terms}")
    start = time.perf_counter()
    width, sums = _hasse_partial_sums(ctx, n_terms)
    for _, head, total in sums:
        pass
    with ctx.workdps(10):
        prec = mp.prec
        value = mp.make_mpf(_round((1 << width - 2) - total, -width - 1, prec))
        _, man, exp, _ = _round(head, -width, prec)
        last_outer = mp.make_mpf(_quotient(man, n_terms + 1, exp, prec))
        floor = mpf(10) ** (-(ctx.precision_digits + 1))
        err = +(last_outer / 2 * max(1, 2 * n_terms // 3) + floor)
    return RouteEstimate(
        route_id="hasse",
        value=value,
        error_estimate=err,
        parameters={"n_terms": n_terms, "required_digits": hasse_required_digits(n_terms)},
        evaluations=(n_terms + 1) * (n_terms + 2) // 2,   # inner terms, k <= n <= N
        elapsed=time.perf_counter() - start,
    )


def hasse_first_n(
    ctx: ComputeContext,
    digits: int,
    n_max: int,
    consensus: Real,
) -> tuple[int | None, Real]:
    """First N <= n_max whose Hasse partial sum agrees with consensus to
    ``digits`` relative digits, plus the best relative gap seen.

    One incremental pass (the partial sums nest), compared with the
    consensus in integers, so the scan costs the same as a single
    route_hasse run at n_max.  Returns (None, best_gap) when no N
    qualifies: the outer terms decay only like 2/(n^2 (log n)^3), so the
    tail shrinks like 2/(N (log N)^3) (locally N^{-3/2} near N = 200) and
    six digits arrive first at N = 4597.
    """
    width, sums = _hasse_partial_sums(ctx, n_max)
    with ctx.workdps(10):
        # in units of 2^-(W+1), where 1/8 is 2^(W-2)
        reference = to_fixed(mpf(consensus)._mpf_, width + 1)
        scale = abs(reference)
        threshold = -(-scale // 10**digits)     # gap < scale 10^-digits, gap an integer
        best = inf
        for n, _, total in sums:
            gap = abs((1 << width - 2) - total - reference)
            best = min(best, gap)
            if gap < threshold:
                return n, fixed_quotient(best, scale)
        return None, fixed_quotient(best, scale)


# ---------------------------------------------------------------------------
# Consensus and identity residuals
# ---------------------------------------------------------------------------

def consensus_log_a(ctx: ComputeContext) -> Real:
    """log A as feaux and kummer in agreement, the reference of the
    convergence studies (the report's checks use the Fourier series).

    Raises :class:`ConsensusError` when the two disagree beyond
    10^-(P-10); no literature decimal ever substitutes for this check.
    """
    feaux, kummer = route_feaux(ctx), route_kummer(ctx)
    with ctx.workdps(10):
        gap = abs(feaux.value - kummer.value)
        bound = mpf(10) ** (-(ctx.precision_digits - 10))
        if gap > bound:
            raise ConsensusError(
                f"feaux and kummer disagree by {mpmath.nstr(gap, 5)} "
                f"(allowed {mpmath.nstr(bound, 3)})"
            )
        return +((feaux.value + kummer.value) / 2)


@shared_work()
def _identity_integral(
    ctx: ComputeContext,
    identity_id: str,
    label: str,
    f: Callable[[Real], Real],
    residual: Callable[[Real, ConstantsSet], Real],
) -> IdentityResidual:
    """Integrate ``f`` over [0, 1/2] and map the integral I to the identity's
    residual by ``residual(I, c)``, evaluated at P+10 digits with the
    context constants c; the tolerance is the context's target.  It holds
    a table of shared work, so an identity checked alone builds the zeta
    table of the log Gamma series (:func:`_log_gamma1p`) once, not per node."""
    start = time.perf_counter()
    result = integrate_finite(Integrand(eval=f, label=label), mpf(0), mpf(1) / 2, ctx=ctx)
    result.require_converged(identity_id)
    with ctx.workdps(10):
        value = +residual(result.value, ctx.constants)
    return IdentityResidual(
        identity_id=identity_id,
        residual=value,
        tolerance_used=ctx.target_tolerance,
        elapsed=time.perf_counter() - start,
    )


def _log_gamma1p(x: Real, ctx: ComputeContext) -> Real:
    """log Gamma(1+x), once per abscissa in one computation: glaisher_half
    and gla2 integrate it on the same nodes.  It is a Taylor series in
    zeta(k) at 0 or at 1/2, whichever is nearer (:func:`_log_gamma1p_series`)."""
    return shared(("log-gamma1p", mp.prec, x._mpf_), _log_gamma1p_series, x, ctx)


def glaisher_identity_residual(
    ctx: ComputeContext,
    log_a: Real,
    log2_coefficient: Real | None = None,
) -> IdentityResidual:
    """Residual of int_0^1/2 log Gamma(x+1) dx
    = -1/2 - (7/24) log 2 + (log pi)/4 + (3/2) log A.

    ``log2_coefficient`` overrides the exact 7/24 for negative-control
    tests (a wrong coefficient must create a visible residual).
    """

    def residual(I, c):
        coeff = mpf(7) / 24 if log2_coefficient is None else mpf(log2_coefficient)
        return I - (-mpf(1) / 2 - coeff * c.log2 + c.log_pi / 4 + mpf(3) / 2 * log_a)

    return _identity_integral(
        ctx, "glaisher_half", "int_log_gamma1p_half",
        lambda x: _log_gamma1p(x, ctx), residual,
    )


def gla2_residual(ctx: ComputeContext, log_a: Real) -> IdentityResidual:
    """Residual of log A = (2/3) int_0^1/2 log Gamma(x) dx
    - (5/36) log 2 - (log pi)/6 against ``log_a`` (the report passes the
    Fourier series' value at its default N).

    The integrand is log Gamma(x) = log Gamma(1+x) - log x, so inside one
    computation it takes glaisher_half's log Gamma(1+x) values and adds
    one log.
    What the check still tests is its own: the quadrature of a
    log-singular integrand at x = 0 (glaisher_half's is smooth there) and
    the paper's constants 2/3, 5/36 and 1/6 of the Gamma(x) form.
    """

    def log_gamma(x):
        prec = mp.prec
        log_x = mpf_log(x._mpf_, prec, round_nearest)
        return mp.make_mpf(mpf_sub(_log_gamma1p(x, ctx)._mpf_, log_x, prec, round_nearest))

    return _identity_integral(
        ctx, "gla2", "int_log_gamma_half", log_gamma,
        lambda I, c: mpf(2) / 3 * I - mpf(5) / 36 * c.log2 - c.log_pi / 6 - log_a,
    )


def log_sin_check(ctx: ComputeContext) -> IdentityResidual:
    """Residual of int_0^1/2 log sin(pi x) dx = -(log 2)/2."""
    pi = ctx.constants.pi._mpf_

    def log_sin(x):
        prec = mp.prec
        return mp.make_mpf(mpf_log(mpf_sin(mpf_mul(pi, x._mpf_, prec, round_nearest),
                                           prec, round_nearest), prec, round_nearest))

    return _identity_integral(
        ctx, "log_sin", "log_sin", log_sin,
        lambda I, c: I + c.log2 / 2,
    )


@shared_work()
def identity_residuals(
    ctx: ComputeContext, log_a: Real, log2_coefficient: Real | None = None
) -> list[IdentityResidual]:
    """The three paper identities, glaisher_half, gla2 and log_sin, with
    ``log_a`` as the best log A.  The report passes the Fourier series'
    value at its default N (:func:`fourier_default_terms`): full precision
    at every P, and no code shared with the quadrature engine these
    integrals run on.

    ``log2_coefficient`` goes to :func:`glaisher_identity_residual` (the
    verify negative control).  The dt-measure control,
    :func:`res2_measure_check`, is not among them: only ``run_all`` runs
    it.  The call holds one table of shared work (:func:`shared_work`): the
    three integrals share the nodes of [0, 1/2], and gla2 reuses
    glaisher_half's log Gamma(1+x) values.
    """
    return [
        glaisher_identity_residual(ctx, log_a=log_a, log2_coefficient=log2_coefficient),
        gla2_residual(ctx, log_a=log_a),
        log_sin_check(ctx),
    ]


def res2_measure_check(ctx: ComputeContext, log_a: Real) -> IdentityResidual:
    """Negative control for the dt-vs-dt/t measure question.

    The residual is the gap between the dt-variant value (over the fixed
    control truncation) and ``log_a``, the report's Fourier value; the
    control PASSES when the gap exceeds the 0.01 tolerance, showing that
    the dt reading of the identity is wrong.

    The verdict needs two digits, not P: the dt variant is integrated in
    a context of its own at the package's floor of
    ``MIN_PRECISION_DIGITS`` (20) digits, whatever P is: the quadrature
    promises 1e-10 there and the value meets the full-precision variant's
    to about 1e-17, against a gap of about 1.033.  The gap is formed, and
    the tolerance 1/100 rounded, at P+10 digits.  The full-precision dt
    variant is ``route_kummer(ctx, measure="dt")``.
    """
    start = time.perf_counter()
    dt_route = route_kummer(make_context(MIN_PRECISION_DIGITS), measure="dt")
    with ctx.workdps(10):
        residual = +abs(dt_route.value - log_a)
        tolerance = mpf(DT_CONTROL_TOLERANCE)
    return IdentityResidual(
        identity_id="res2_measure_check",
        residual=residual,
        tolerance_used=tolerance,
        elapsed=time.perf_counter() - start,
    )
