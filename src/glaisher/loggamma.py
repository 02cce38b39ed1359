"""Reference log Gamma plus three integral/series representations of it.

The oracle ``log_gamma_ref`` is a Stirling asymptotic series after an
upward recurrence shift; it is the yardstick every quadrature-based
representation is tested against (the integrals under test must not be
their own oracle).  A call takes two logs whatever the shift length n:
log(z + n) for the series and one log of z prod_{0<j<n} (z + j).  The
product runs in Python integers in fixed point, two factors at a time,
(z + j)(z + n - j) = z(z + n) + j(n - j), so it takes about n/2
multiplies.  The Stirling tail is a power series in 1/z^2 summed on the
fixed-point Horner kernel of :mod:`glaisher.smallt`, which keeps its
coefficients as integers per working precision; (log 2pi)/2 is a
``functools.cache`` function of the working precision, as
:func:`~glaisher.smallt.bernoulli` is of n.

The identity pass integrates log Gamma(1+x) over [0, 1/2] by its Taylor
series, :func:`_log_gamma1p_series`: x times a series in zeta(k) x^(k-1)
for x < 1/4, and one in zeta(k, 3/2) y^k, y = x - 1/2, from 1/4 on,
with zeta(k, 3/2) = (2^k - 1) zeta(k) - 2^k.  The zeta(k) come from
Borwein's algorithm on integers (:func:`_zeta_fixed`), a table built
once per computation; the 2^k that the Hurwitz relation multiplies its
error by is paid for by |y|^k <= 4^-k.

The representations:

* Feaux:   log Gamma(x+1) = int_0^inf [x e^-t
               + ((1+t)^{-x-1} - (1+t)^{-1}) / log(1+t)] dt/t
* Kummer:  log Gamma(x)   = (log pi)/2 - (1/2) log sin(pi x)
               + (1/2) int_0^inf [sinh((1/2-x)t)/sinh(t/2)
                                  - (1-2x) e^-t] dt/t,  0 < x < 1
* Fourier: log Gamma(x)   = (log pi)/2 - (1/2) log sin(pi x)
               + 2 sum_{n>=1} a_n sin(2 pi n x),
  with a_n = (gamma + log(2 pi) + log n) / (2 n pi), equal to the integral
  int_0^inf [2 n pi/(t^2 + 4 n^2 pi^2) - e^-t/(2 n pi)] dt/t.

Each improper integrand cancels near t = 0.  It has one form, the raw
one, at every t: it computes with guard digits scaled to the
cancellation (:func:`~glaisher.smallt.cancellation_guard`) and rounds
once, on return, so it keeps the working precision down to the smallest
t the exp-sinh map probes.  No near-zero series: these are cross-checks
that no workload integrates, and a series would only be a second, faster
path.  Past :func:`~glaisher.smallt.far` the Feaux, a_n and Dirichlet
forms drop e^-t.  Kummer's raw form reads sinh(t/2) and e^-t off one
q = e^(-t/2).

Each integral representation returns its ``QuadratureResult``, with the
represented quantity's value and estimate (Kummer's: half the integral's).

Also here: the Dirichlet integral for Euler's constant, the quadrature
cross-check of the context's reference gamma.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cache
from math import log2

import mpmath
from mpmath import mp, mpf
from mpmath.libmp import dps_to_prec, mpf_log, mpf_mul, mpf_pi, mpf_shift, round_nearest, to_fixed

from .context import ComputeContext, Real
from .quadrature import Integrand, QuadratureResult, integrate_zero_to_inf, shared
from .smallt import PowerSeries, _horner, _round, bernoulli, cancellation_guard, far


class DomainError(ValueError):
    """Argument outside the domain a representation is valid on."""


# ---------------------------------------------------------------------------
# Stirling oracle
# ---------------------------------------------------------------------------

@cache
def _half_log_2pi(prec: int) -> mpf:
    """(log 2pi)/2 at ``prec`` bits, the bits of ``mpmath.log(2 * mpmath.pi) / 2``."""
    log_2pi = mpf_log(mpf_shift(mpf_pi(prec, round_nearest), 1), prec, round_nearest)
    return mp.make_mpf(mpf_shift(log_2pi, -1))


def _stirling_coefficient(k: int) -> tuple[int, int]:
    # B_(2k+2) / ((2k+2) (2k+1)): the coefficient of w^k in
    # sum_{m>=1} B_2m / (2m (2m-1) z^(2m-1)) = (1/z) sum_k c_k w^k, w = 1/z^2.
    p, q = bernoulli(2 * k + 2)
    return p, q * (2 * k + 2) * (2 * k + 1)


_STIRLING_SERIES = PowerSeries(_stirling_coefficient)


def log_gamma_ref(x: Real, ctx: ComputeContext) -> Real:
    """log Gamma(x) for finite x > 0 via Stirling's series with recurrence shift.

    The argument is shifted upward by n steps to z + n >= 10 P / 7 (P =
    context digits).  The shift log(z P), P = prod_{j=1}^{n-1} (z + j),
    takes one log: P is accumulated in pairs, (z + j)(z + n - j) =
    w + j(n - j) with w = z(z + n), times z + n/2 once when n is even,
    each factor W-bit fixed point (W = prec + 20), the product W + 2 bits
    times a binary exponent; each of the n/2 cuts truncates by under
    2^-(W+1) relative, under 2^-(prec+11) in all for n < 2^11.  z P is
    formed in floating point, so an argument far below the fixed-point
    unit keeps its full relative accuracy.
    The Stirling tail is (1/z) sum_k c_k w^k with w = 1/z^2, summed on
    the fixed-point Horner kernel of :mod:`glaisher.smallt`; at the
    shift target it takes 29/44/75/138 terms at 50/100/200/400 digits.
    """
    if not (x > 0 and mpmath.isfinite(x)):
        raise DomainError(
            f"log_gamma_ref requires finite x > 0, got {mpmath.nstr(mpf(x), 8)}"
        )
    digits = ctx.precision_digits
    with mp.workdps(digits + 15):
        z = mpf(x)
        z_min = mpf(10) * digits / 7
        shift = 0
        if z < z_min:
            n = int(mpmath.ceil(z_min - z))
            width = mp.prec + 20
            one = 1 << width
            z_fixed = to_fixed(z._mpf_, width)
            # prod_{0<j<n} (z+j) = product 2^exponent in pairs
            # (z+j)(z+n-j) = w + j(n-j), w = z(z+n), and z + n/2 if n is even.
            w = z_fixed * (z_fixed + n * one) >> width
            product = one if n % 2 else z_fixed + n // 2 * one
            exponent = -width
            for j in range(1, (n + 1) // 2):
                product *= w + j * (n - j) * one
                drop = product.bit_length() - width - 2
                product >>= drop
                exponent += drop - width
            shift = mpmath.log(z * mpf((product, exponent)))
            z += n
        inv_z = 1 / z
        tail = inv_z * _STIRLING_SERIES(inv_z * inv_z)
        return +((z - mpf(1) / 2) * mpmath.log(z) - z + _half_log_2pi(mp.prec) + tail - shift)


# ---------------------------------------------------------------------------
# log Gamma(1+x) on [0, 1/2]: Taylor series in zeta(k)
# ---------------------------------------------------------------------------

def _zeta_fixed(width: int, count: int) -> list[int]:
    """[zeta(2), ..., zeta(count)] as ``width``-bit fixed-point integers,
    by Borwein's algorithm on integers.

    eta(s) = sum_{k<n} (-1)^k e_k / (k+1)^s, e_k = (d_n - d_k) / d_n,
    is off by under 3 (3 + sqrt 8)^-n <= 2^-(width+8); zeta(s) =
    eta(s) 2^(s-1) / (2^(s-1) - 1).  Each e_k is taken once to V =
    width + g bits and each term is the previous s's divided by k + 1;
    floor(floor(a)/j) = floor(a/j), so every term is its exact value
    floored, the sum is off by under n units of 2^-V and zeta(s) by
    under 2n + 1 < 2^(g-2): with the final rounding, under one unit of
    2^-width.
    """
    n = -(-(width + 8) * 100 // 254) + 2
    guard = (4 * n).bit_length() + 2
    v = width + guard
    d = [1]
    step = 1
    for i in range(1, n + 1):
        step = step * 4 * (n + i - 1) * (n - i + 1) // (2 * i * (2 * i - 1))
        d.append(d[-1] + step)
    dn = d[n]
    js = range(1, n + 1)
    terms = [((dn - dk) << v) // dn // j for dk, j in zip(d, js)]
    zetas = []
    for s in range(2, count + 1):
        terms = [t // j for t, j in zip(terms, js)]
        while not terms[-1]:
            terms.pop()
        eta = sum(terms[::2]) - sum(terms[1::2])
        z = (eta << (s - 1)) // ((1 << (s - 1)) - 1)
        zetas.append((z + (1 << (guard - 1))) >> guard)
    return zetas


def _end_coefficients(ctx: ComputeContext, width: int) -> tuple[list[int], list[int]]:
    """The ``width``-bit Taylor coefficients a_j of log Gamma(1+x) / x at
    x = 0 and b_j of log Gamma(3/2+y) at y = 0, j <= width // 2, from one
    zeta table."""
    consts = ctx.constants
    gamma, log2, log_pi = (to_fixed(c._mpf_, width)
                           for c in (consts.euler_gamma, consts.log2, consts.log_pi))
    zeta = _zeta_fixed(width, width // 2 + 1)
    one = 1 << width
    # a_0 = -gamma, a_j = (-1)^(j+1) zeta(j+1) / (j+1)
    at_zero = [-gamma] + [(-1) ** k * zk // k for k, zk in enumerate(zeta, 2)]
    # b_0 = (log pi)/2 - log 2, b_1 = psi(3/2) = 2 - gamma - 2 log 2,
    # b_j = (-1)^j zeta(j, 3/2) / j, zeta(j, 3/2) = (2^j - 1) zeta(j) - 2^j
    at_half = [(log_pi >> 1) - log2, 2 * one - gamma - 2 * log2] + [
        (-1) ** k * (((1 << k) - 1) * zk - (one << k)) // k
        for k, zk in enumerate(zeta[:-1], 2)
    ]
    return at_zero, at_half


def _log_gamma1p_series(x: mpf, ctx: ComputeContext) -> Real:
    """log Gamma(1+x) for 0 <= x <= 1/2 by its Taylor series at 0 when
    x < 1/4, and at 1/2 (y = x - 1/2, |y| <= 1/4) otherwise.

        log Gamma(1+x)   = x (-gamma + sum_{k>=2} (-1)^k zeta(k) x^(k-1) / k)
        log Gamma(3/2+y) = (log pi)/2 - log 2 + (2 - gamma - 2 log 2) y
                           + sum_{k>=2} (-1)^k zeta(k, 3/2) y^k / k

    The sum runs by Horner's rule in W-bit fixed point, W = prec + 20 at
    P + 15 digits, over the j <= W / m terms that a |z| <= 2^-m (m >= 2,
    from log2 of the fixed-point z) needs: W/3 at |z| = 1/8, W/2 only at
    1/4.  It rounds once to P + 15 digits; near 0 the rounding is of x
    times the sum, so the value keeps its relative precision at any x,
    however small.  The zeta table
    (:func:`_zeta_fixed`) is off by under a unit of 2^-W.  zeta(k, 3/2)
    is about (2/3)^k, a difference of terms near 2^k, so its coefficient
    is off by up to 2^k units; |y|^k <= 4^-k leaves 2^-k units per term.
    All told the sum is off by a few units of 2^-W; gamma, log 2 and
    log pi, the context's constants at P + 10 digits, dominate the error.
    """
    prec = dps_to_prec(ctx.precision_digits + 15)
    width = prec + 20
    at_zero, at_half = shared(("log-gamma1p-ends", width), _end_coefficients, ctx, width)
    z = to_fixed(x._mpf_, width)
    near_zero = z < 1 << (width - 2)
    if not near_zero:
        z -= 1 << (width - 1)
    # |z| <= 2^-m with m >= 2; the terms past j = W / m are below 2^-W.
    m = max(2, width - log2(abs(z) + 1))
    acc = _horner(at_zero if near_zero else at_half, int(width / m) + 1, z, width)
    if near_zero:
        sign, man, exp, _ = x._mpf_     # x acc, exact, rounded once
        return mp.make_mpf(_round(-man * acc if sign else man * acc, exp - width, prec))
    return mp.make_mpf(_round(acc, -width, prec))


# ---------------------------------------------------------------------------
# Feaux representation of log Gamma(x+1)
# ---------------------------------------------------------------------------

def feaux_integrand(x: Real, ctx: ComputeContext) -> Integrand:
    """Integrand of the Feaux formula at parameter x.

    The bracket's terms approach x and -x at t = 0, and the difference of
    powers in the second cancels too, so the form loses two decades per
    decade of t below 1, which its guard digits pay for.
    Note the log(1+t) denominator (the literature form with a bare 1+t is
    a known typo).
    """
    with ctx.workdps(20):
        x = mpf(x)

    def raw(t):
        with mp.extradps(cancellation_guard(t, 2)):
            L = mpmath.log(1 + t)
            e = 0 if far(t) else mpmath.exp(-t)
            value = (x * e + ((1 + t) ** (-x - 1) - 1 / (1 + t)) / L) / t
        return +value

    return Integrand(eval=raw, label=f"feaux(x={mpmath.nstr(x, 8)})")


def feaux_log_gamma1p(x: Real, ctx: ComputeContext) -> QuadratureResult:
    """log Gamma(x+1) by the Feaux integral; exercised on 0 <= x <= 1/2."""
    if not x > -1:
        raise DomainError(f"feaux_log_gamma1p requires x > -1, got {mpmath.nstr(mpf(x), 8)}")
    return integrate_zero_to_inf(feaux_integrand(x, ctx), ctx=ctx).require_converged("feaux")


# ---------------------------------------------------------------------------
# Kummer representation of log Gamma(x), 0 < x < 1
# ---------------------------------------------------------------------------

def kummer_integrand(x: Real, ctx: ComputeContext) -> Integrand:
    """Integrand of the Kummer formula at parameter x.

    Both bracket terms approach 1-2x at t = 0.  Near x = 1/2 both are
    about 2a, a = 1/2 - x, and sinh(at) = (p - 1/p)/2 loses the decades of
    1/|a| on top of those of 1/t; the guard digits pay for both, so the
    form keeps full relative precision at any a, and at x = 1/2 it is an
    exact 0.
    """
    with ctx.workdps(20):
        x = mpf(x)
        a = +(mpf(1) / 2 - x)

    # The decades of 1/|a| that p - 1/p below loses on top of those of 1/t.
    a_guard = cancellation_guard(abs(a), 1) - 10 if a else 0

    def raw(t):
        # 1 - 2x is written as 2a, the one stored parameter; recomputing
        # it would introduce a rounding that 1/t amplifies near the
        # origin.  With q = e^(-t/2)
        # and p = e^(at), sinh(t/2) = (1 - q^2)/(2q), sinh(at) = (p - 1/p)/2
        # and e^-t = q^2: two exps in all.  In the far tail the sinh ratio
        # is the whole value, so neither exp may be cut to 0 there.  The
        # ratio loses a decade per decade of t below 1, and the bracket
        # one more.
        with mp.extradps(cancellation_guard(t, 2) + a_guard):
            q = mpmath.exp(-t / 2)
            p = mpmath.exp(a * t)
            q2 = q * q
            value = (q * (p - 1 / p) / (1 - q2) - 2 * a * q2) / t
        return +value

    return Integrand(eval=raw, label=f"kummer(x={mpmath.nstr(x, 8)})")


def kummer_log_gamma(x: Real, ctx: ComputeContext) -> QuadratureResult:
    """log Gamma(x) by the Kummer integral, valid for 0 < x < 1, with
    half the integral's error estimate."""
    with ctx.workdps(10):
        x = mpf(x)     # cast at working precision; ambient would round it
    if not (0 < x < 1):
        raise DomainError(f"kummer_log_gamma requires 0 < x < 1, got {mpmath.nstr(x, 8)}")
    result = integrate_zero_to_inf(kummer_integrand(x, ctx), ctx=ctx)
    result.require_converged("kummer")
    consts = ctx.constants
    with ctx.workdps(10):
        value = consts.log_pi / 2 - mpmath.log(mpmath.sin(consts.pi * x)) / 2 + result.value / 2
        return replace(result, value=+value, error_estimate=result.error_estimate / 2)


# ---------------------------------------------------------------------------
# Fourier-series representation and its coefficients
# ---------------------------------------------------------------------------

@dataclass
class FourierCoefficient:
    """a_n evaluated both ways; the pair must agree within quadrature error."""

    n: int
    integral_value: Real
    closed_form_value: Real
    quad_error: Real


def fourier_a_n_integrand(n: int, ctx: ComputeContext) -> Integrand:
    """Integrand of the a_n integral form.

    The two bracket terms both approach 1/(2 n pi) at t = 0, so the form
    loses a decade per decade of t below 1, which its guard digits pay for.
    """
    with ctx.workdps(10):
        two_n_pi = 2 * n * ctx.constants.pi
    # Squared exactly: a rounded square leaves the bracket off by its
    # rounding, which 1/t lifts to the whole value at t ~ 10^-(P+10).
    four_n2_pi2 = mp.make_mpf(mpf_mul(two_n_pi._mpf_, two_n_pi._mpf_))

    def raw(t):
        with mp.extradps(cancellation_guard(t, 1)):
            e = 0 if far(t) else mpmath.exp(-t)
            value = (two_n_pi / (t * t + four_n2_pi2) - e / two_n_pi) / t
        return +value

    return Integrand(eval=raw, label=f"fourier_a_n(n={n})")


def fourier_a_n(n: int, ctx: ComputeContext) -> FourierCoefficient:
    """Fourier sine coefficient a_n: quadrature and closed form together."""
    if n < 1:
        raise DomainError(f"fourier_a_n requires n >= 1, got {n}")
    result = integrate_zero_to_inf(fourier_a_n_integrand(n, ctx), ctx=ctx)
    result.require_converged(f"fourier_a_n(n={n})")
    consts = ctx.constants
    with ctx.workdps(10):
        closed = (consts.euler_gamma + consts.log_2pi + mpmath.log(n)) / (2 * n * consts.pi)
        closed = +closed
    return FourierCoefficient(
        n=n,
        integral_value=result.value,
        closed_form_value=closed,
        quad_error=result.error_estimate,
    )


def kummer_fourier_log_gamma(x: Real, n_terms: int, ctx: ComputeContext) -> Real:
    """Partial Fourier sum for log Gamma(x) with closed-form coefficients.

    Converges like log(N)/N (the coefficients decay only as log n / n), so
    this is the slow member of the representation family; it exists to
    validate the expansion, not to compute with.
    """
    with ctx.workdps(10):
        x = mpf(x)
    if not (0 < x < 1):
        raise DomainError(f"kummer_fourier_log_gamma requires 0 < x < 1, got {mpmath.nstr(x, 8)}")
    if n_terms < 1:
        raise DomainError(f"n_terms must be >= 1, got {n_terms}")
    consts = ctx.constants
    with ctx.workdps(10):
        gamma_plus_log2pi = consts.euler_gamma + consts.log_2pi
        two_pi_x = 2 * consts.pi * x
        acc = mpf(0)
        for n in range(1, n_terms + 1):
            a_n = (gamma_plus_log2pi + mpmath.log(n)) / (2 * n * consts.pi)
            acc += a_n * mpmath.sin(n * two_pi_x)
        value = consts.log_pi / 2 - mpmath.log(mpmath.sin(consts.pi * x)) / 2 + 2 * acc
        return +value


# ---------------------------------------------------------------------------
# Dirichlet integral for Euler's constant
# ---------------------------------------------------------------------------

def _dirichlet_raw(t: mpf) -> mpf:
    """(1/(1+t) - e^-t)/t, with the guard digits of its cancellation."""
    with mp.extradps(cancellation_guard(t, 2)):
        value = (1 / (1 + t) - (0 if far(t) else mpmath.exp(-t))) / t
    return +value


DIRICHLET_INTEGRAND = Integrand(eval=_dirichlet_raw, label="dirichlet_gamma")


def dirichlet_gamma(ctx: ComputeContext) -> QuadratureResult:
    """Euler's constant by the Dirichlet integral (cross-checks the reference)."""
    return integrate_zero_to_inf(DIRICHLET_INTEGRAND, ctx=ctx).require_converged(
        "dirichlet_gamma"
    )
