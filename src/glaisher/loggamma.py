"""Reference log Gamma plus three integral/series representations of it.

The oracle ``log_gamma_ref`` is a Stirling asymptotic series after an
upward recurrence shift; it is the yardstick every quadrature-based
representation is tested against (the integrals under test must not be
their own oracle).  The shift costs two logs whatever its length: log z
and the log of the running product of z + j, kept in Python integers in
fixed point.  The Stirling tail is a power series in 1/z^2 summed on the
fixed-point Horner kernel of :mod:`glaisher.smallt`, which keeps its
coefficients as integers per working precision; (log 2pi)/2 is cached
per working precision too.

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

Each improper integrand cancels near t = 0 (both bracket terms approach
the same constant), so each carries a ``near_zero`` series built on the
:mod:`glaisher.smallt` power-series kernel; the raw form compensates with
extra digits scaled to the observed cancellation, which keeps the
mandatory raw-vs-series consistency check meaningful.

Also here: the Dirichlet integral for Euler's constant (the quadrature
cross-check of the context's reference gamma) and the Barnes-G identity
log G(1+z) = z(1-z)/2 + (z/2) log 2pi + z log Gamma(z) - int_0^z log Gamma.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import factorial

import mpmath
from mpmath import mp, mpf
from mpmath.libmp import to_fixed

from .context import ComputeContext, Real
from .quadrature import (
    Integrand,
    QuadratureResult,
    integrate_finite,
    integrate_zero_to_inf,
)
from .smallt import (
    PowerSeries,
    cancellation_guard,
    exp_neg_tail,
    expm1_minus_x,
    one_plus_em1z_over_z,
    t_minus_log1p,
)


class DomainError(ValueError):
    """Argument outside the domain a representation is valid on."""


# ---------------------------------------------------------------------------
# Stirling oracle
# ---------------------------------------------------------------------------

# (log 2pi)/2 per working precision (mp.prec).
_STIRLING: dict[int, mpf] = {}


def _stirling_coefficient(k: int) -> mpf:
    # B_(2k+2) / ((2k+2) (2k+1)): the coefficient of w^k in
    # sum_{m>=1} B_2m / (2m (2m-1) z^(2m-1)) = (1/z) sum_k c_k w^k, w = 1/z^2.
    p, q = mpmath.bernfrac(2 * k + 2)
    return mpf(p) / (q * (2 * k + 2) * (2 * k + 1))


_STIRLING_SERIES = PowerSeries(_stirling_coefficient)


def log_gamma_ref(x: Real, ctx: ComputeContext) -> Real:
    """log Gamma(x) for finite x > 0 via Stirling's series with recurrence shift.

    The argument is shifted upward by n steps to z + n >= 10 P / 7 (P =
    context digits).  The shift log z + log prod_{j=1}^{n-1} (z + j)
    takes two logs: the product is accumulated in Python integers in
    (prec + 20)-bit fixed point, and log z is kept apart so an argument
    far below the fixed-point unit keeps its full relative accuracy.
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
            factor = to_fixed(z._mpf_, width)
            product = one
            for _ in range(n - 1):
                factor += one
                product = product * factor >> width
            shift = mpmath.log(z) + mpmath.log(mpf((product, -width)))
            z += n
        half_log_2pi = _STIRLING.get(mp.prec)
        if half_log_2pi is None:
            half_log_2pi = _STIRLING[mp.prec] = mpmath.log(2 * mpmath.pi) / 2
        inv_z = 1 / z
        tail = inv_z * _STIRLING_SERIES(inv_z * inv_z)
        return +((z - mpf(1) / 2) * mpmath.log(z) - z + half_log_2pi + tail - shift)


# ---------------------------------------------------------------------------
# Feaux representation of log Gamma(x+1)
# ---------------------------------------------------------------------------

def feaux_integrand(x: Real, ctx: ComputeContext) -> Integrand:
    """Integrand of the Feaux formula at parameter x.

    Near-zero form: the bracket equals x e^{-L} [expm1(L-t) + (1 + expm1(-xL)/L)]
    with L = log(1+t); both pieces are O(t^2) and O(t) series with no
    subtractive cancellation.  Note the log(1+t) denominator (the
    literature form with a bare 1+t is a known typo).
    """
    with ctx.workdps(20):
        x = mpf(x)

    def raw(t):
        with mp.extradps(cancellation_guard(t, 2)):
            L = mpmath.log(1 + t)
            bracket = x * exp_neg_tail(t) + ((1 + t) ** (-x - 1) - 1 / (1 + t)) / L
            return +(bracket / t)

    def series(t):
        lmt = t_minus_log1p(t)          # t - log(1+t) = O(t^2)
        L = t - lmt
        inner = mpmath.expm1(-lmt) + one_plus_em1z_over_z(x * L)
        return x * mpmath.exp(-L) * inner / t

    return Integrand(
        eval=raw,
        near_zero=series,
        label=f"feaux(x={mpmath.nstr(x, 8)})",
    )


def feaux_log_gamma1p(
    x: Real, ctx: ComputeContext, full: bool = False
) -> Real | tuple[Real, QuadratureResult]:
    """log Gamma(x+1) by the Feaux integral; exercised on 0 <= x <= 1/2."""
    if not x > -1:
        raise DomainError(f"feaux_log_gamma1p requires x > -1, got {mpmath.nstr(mpf(x), 8)}")
    result = integrate_zero_to_inf(feaux_integrand(x, ctx), ctx=ctx)
    result.require_converged("feaux")
    return (result.value, result) if full else result.value


# ---------------------------------------------------------------------------
# Kummer representation of log Gamma(x), 0 < x < 1
# ---------------------------------------------------------------------------

def _kummer_numerator_over_t2(a: mpf) -> PowerSeries:
    """N(t)/t^2 = sum_k c_k t^k for N(t) = sinh(at) - 2a e^-t sinh(t/2)."""

    def coefficient(k):
        # c_j = s_j - a ((-1/2)^j - (-3/2)^j)/j! with j = k + 2: s_j = a^j/j!
        # (odd j only) from sinh(at), the rest from 2a e^-t sinh(t/2) =
        # a (e^(-t/2) - e^(-3t/2)); the j = 1 terms cancel exactly.
        j = k + 2
        s_j = a ** j if j % 2 else 0
        return (s_j - a * ((-1) ** j - (-3) ** j) / 2 ** j) / factorial(j)

    return PowerSeries(coefficient)


def kummer_integrand(x: Real, ctx: ComputeContext) -> Integrand:
    """Integrand of the Kummer formula at parameter x.

    Both bracket terms approach 1-2x at t = 0.  The near-zero form expands
    N(t) = sinh(at) - 2a e^-t sinh(t/2) (a = 1/2 - x) as one power series
    sum_{j>=2} c_j t^j whose O(t) coefficients cancel exactly, then divides
    by t sinh(t/2).  The coefficients depend on a, so each call builds its
    own :class:`~glaisher.smallt.PowerSeries`; at x = 1/2 they all vanish
    and the series is an exact 0.  Near x = 1/2 its leading coefficient,
    c_2 = a, is small; the kernel's c_0 shift keeps it at full relative
    precision.
    """
    with ctx.workdps(20):
        x = mpf(x)
        a = +(mpf(1) / 2 - x)

    def raw(t):
        # 1 - 2x is written as 2a so both evaluation paths share the one
        # stored parameter; recomputing it would introduce a rounding
        # mismatch that 1/t amplifies near the origin.
        with mp.extradps(cancellation_guard(t, 1)):
            bracket = mpmath.sinh(a * t) / mpmath.sinh(t / 2) - 2 * a * mpmath.exp(-t)
            return +(bracket / t)

    numerator_over_t2 = _kummer_numerator_over_t2(a)

    def series(t):
        return t * numerator_over_t2(t) / mpmath.sinh(t / 2)

    return Integrand(
        eval=raw,
        near_zero=series,
        label=f"kummer(x={mpmath.nstr(x, 8)})",
    )


def kummer_log_gamma(
    x: Real, ctx: ComputeContext, full: bool = False
) -> Real | tuple[Real, QuadratureResult]:
    """log Gamma(x) by the Kummer integral, valid for 0 < x < 1."""
    with ctx.workdps(10):
        x = mpf(x)     # cast at working precision; ambient would round it
    if not (0 < x < 1):
        raise DomainError(f"kummer_log_gamma requires 0 < x < 1, got {mpmath.nstr(x, 8)}")
    result = integrate_zero_to_inf(kummer_integrand(x, ctx), ctx=ctx)
    result.require_converged("kummer")
    consts = ctx.constants
    with ctx.workdps(10):
        value = consts.log_pi / 2 - mpmath.log(mpmath.sin(consts.pi * x)) / 2 + result.value / 2
        value = +value
    return (value, result) if full else value


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

    Near zero the two bracket terms both approach 1/(2 n pi); the rewrite
    -t/(2 n pi (t^2 + 4 n^2 pi^2)) - expm1(-t)/(2 n pi t) subtracts them
    analytically.  (That split itself cancels for large t, so it is used
    only below the threshold.)
    """
    with ctx.workdps(10):
        two_n_pi = 2 * n * (+mpmath.pi)
        four_n2_pi2 = two_n_pi ** 2

    def raw(t):
        with mp.extradps(cancellation_guard(t, 1)):
            bracket = two_n_pi / (t * t + four_n2_pi2) - exp_neg_tail(t) / two_n_pi
            return +(bracket / t)

    def series(t):
        return -t / (two_n_pi * (t * t + four_n2_pi2)) - mpmath.expm1(-t) / (two_n_pi * t)

    return Integrand(
        eval=raw,
        near_zero=series,
        label=f"fourier_a_n(n={n})",
    )


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

def dirichlet_integrand(ctx: ComputeContext) -> Integrand:
    """(1/(1+t) - e^-t)/t, rewritten near zero as e^-t (expm1(t) - t)/(t(1+t))."""

    def raw(t):
        with mp.extradps(cancellation_guard(t, 2)):
            return +((1 / (1 + t) - exp_neg_tail(t)) / t)

    def series(t):
        return mpmath.exp(-t) * expm1_minus_x(t) / (t * (1 + t))

    return Integrand(
        eval=raw,
        near_zero=series,
        label="dirichlet_gamma",
    )


def dirichlet_gamma(
    ctx: ComputeContext, full: bool = False
) -> Real | tuple[Real, QuadratureResult]:
    """Euler's constant by the Dirichlet integral (cross-checks the reference)."""
    result = integrate_zero_to_inf(dirichlet_integrand(ctx), ctx=ctx)
    result.require_converged("dirichlet_gamma")
    return (result.value, result) if full else result.value


# ---------------------------------------------------------------------------
# Barnes G
# ---------------------------------------------------------------------------

def log_barnes_g(
    z: Real, ctx: ComputeContext, full: bool = False
) -> Real | tuple[Real, QuadratureResult]:
    """log G(1+z) for 0 < z <= 1 via the Alexejewsky identity.

    The integral of log Gamma over [0, z] runs on the Stirling oracle (one
    trusted code path); the integrable log singularity at 0 is the
    tanh-sinh transform's job.
    """
    with ctx.workdps(10):
        z = mpf(z)
    if not (0 < z <= 1):
        raise DomainError(f"log_barnes_g requires 0 < z <= 1, got {mpmath.nstr(z, 8)}")
    integrand = Integrand(
        eval=lambda x: log_gamma_ref(x, ctx),
        label=f"int_log_gamma(z={mpmath.nstr(z, 8)})",
    )
    result = integrate_finite(integrand, mpf(0), z, ctx=ctx)
    result.require_converged("log_barnes_g")
    consts = ctx.constants
    with ctx.workdps(10):
        value = (
            z * (1 - z) / 2
            + z / 2 * consts.log_2pi
            + z * log_gamma_ref(z, ctx)
            - result.value
        )
        value = +value
    return (value, result) if full else value
