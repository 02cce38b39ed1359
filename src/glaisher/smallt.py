"""Small-argument series for the cancellation-prone integrands.

Every improper integrand in this project is a difference of terms that
agree to several orders at t = 0; evaluated literally they lose
O(log10(1/t)) digits per cancelled order.  The route and log-Gamma modules
rebuild each integrand near zero from power series whose coefficients
already hold the cancelled differences, so the subtraction is done
exactly in the coefficients instead of in floating point.

All of those series run on one kernel, :class:`PowerSeries`.  It takes a
coefficient function k -> c_k, caches the c_k per working precision
(``mp.prec``) and sums sum_{k>=0} c_k z^k forward, stopping after two
consecutive terms at or below 10^-(dps+5) times the running sum.  The
stop is relative, so a tiny result keeps its full working precision; two
terms rather than one guard against a single term that happens to be
small.  The series here converge for |z| <= 0.5, which covers every
near-zero threshold used in the project (2^-8) with a large margin.

The far tail has the opposite trouble.  The exp-sinh map also probes
t up to 10^(P+12) and beyond, where several raw forms subtract e^-t from
an algebraic term of size 1/t to 1/t^2.  There e^-t is far below half an
ulp of that term, yet mpmath spends milliseconds on it (an integer power
once t > 2^prec).  :func:`exp_neg_tail` returns an exact 0 instead, in
the range where the sum rounds to the same bits either way.
"""

from __future__ import annotations

from math import factorial
from typing import Callable

import mpmath
from mpmath import mp, mpf

# mpf values are exact, so these serve every working precision.
_ZERO = mpf(0)
_ONE = mpf(1)


class PowerSeries:
    """sum_{k>=0} c_k z^k, with ``coefficient(k)`` giving c_k.

    ``coefficient`` is called at the working precision, at most once per
    k and precision; its results are kept for later calls.
    """

    def __init__(self, coefficient: Callable[[int], mpf]):
        self._coefficient = coefficient
        self._cache: dict[int, tuple[mpf, list[mpf]]] = {}

    def __call__(self, z: mpf) -> mpf:
        entry = self._cache.get(mp.prec)
        if entry is None:
            entry = self._cache[mp.prec] = (mpf(10) ** (-(mp.dps + 5)), [])
        eps, coefficients = entry
        acc = _ZERO
        power = _ONE
        last_small = False
        k = 0
        while True:
            if k == len(coefficients):
                coefficients.append(self._coefficient(k))
            term = coefficients[k] * power
            acc += term
            small = abs(term) <= eps * abs(acc)
            if small and last_small:
                return acc
            last_small = small
            power *= z
            k += 1


def cancellation_guard(t, digits_per_decade: int) -> int:
    """Extra decimal digits a raw integrand form needs at abscissa t.

    ``digits_per_decade`` is how many digits per decade of smallness the
    form loses (the order gap between its raw terms and their cancelled
    sum); the constant 10 covers the O(1) bookkeeping losses.
    """
    if t >= 1:
        return 10
    return 10 + digits_per_decade * int(mpmath.ceil(-mpmath.log10(t)))


def exp_neg_tail(t: mpf) -> mpf:
    """e^-t, or exact 0 once t > 2 mp.prec.

    Only for a caller that adds the result (times a factor it shares
    with the other term) to a term of magnitude >~ 1/t^2 at the current
    working precision; the project's callers (the raw forms of pain1,
    res1, res2, the Feaux bracket, Dirichlet and Fourier a_n) add it to
    terms of size 1/t to 1/t^2.  Then the 0 is exact after rounding: for
    t > 2 prec, e^-t < 2^(-2.88 prec), so t^2 e^-t < 2^(-prec-2) for
    every prec >= 10.  e^-t is under a quarter ulp of any term >= 1/t^2,
    with most of 0.88 prec more bits to spare for a smaller constant
    factor, and adding it leaves that term's bits as they are.  The
    exponentially small values of other integrands (pain2's e^x,
    Kummer's sinh ratio) are the whole value there and must not pass
    through this helper.
    """
    if t > 2 * mp.prec:
        return _ZERO
    return mpmath.exp(-t)


# (t - log(1+t)) / t^2 = sum_k (-1)^k t^k / (k+2)
_LOG1P_TAIL = PowerSeries(lambda k: mpf((-1) ** k) / (k + 2))

# (expm1(z) - z) / z^2 = sum_k z^k / (k+2)!
_EXPM1_TAIL = PowerSeries(lambda k: mpf(1) / factorial(k + 2))


def t_minus_log1p(t: mpf) -> mpf:
    """t - log(1+t) = sum_{k>=2} (-1)^k t^k / k, exact to working precision.

    Forming log(1+t) directly costs absolute accuracy ~10^-dps from the
    rounding of 1+t, which is fatal when the result ~ t^2/2 is itself tiny.
    """
    if abs(t) > 0.5:
        return t - mpmath.log(1 + t)
    return t * t * _LOG1P_TAIL(t)


def expm1_minus_x(z: mpf) -> mpf:
    """expm1(z) - z = sum_{k>=2} z^k / k!  (no cancellation for small z)."""
    if abs(z) > 0.5:
        return mpmath.expm1(z) - z
    return z * z * _EXPM1_TAIL(z)


def one_plus_em1z_over_z(z: mpf) -> mpf:
    """1 + expm1(-z)/z = expm1_minus_x(-z)/z = sum_{j>=1} (-1)^{j+1} z^j / (j+1)!.

    Appears in the Feaux integrand where expm1(-x L)/L cancels against the
    x e^{-t} term; value z/2 - z^2/6 + ... near zero.
    """
    if abs(z) > 0.5:
        return 1 + mpmath.expm1(-z) / z
    return z * _EXPM1_TAIL(-z)
