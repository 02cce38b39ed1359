"""Small-argument series for the cancellation-prone integrands.

Every improper integrand in this project is a difference of terms that
agree to several orders at t = 0; evaluated literally they lose
O(log10(1/t)) digits per cancelled order.  The route and log-Gamma modules
rebuild each integrand near zero from power series whose coefficients
already hold the cancelled differences, so the subtraction is done
exactly in the coefficients instead of in floating point.

All of those series run on one kernel, :class:`PowerSeries`.  It takes a
coefficient function k -> c_k and sums sum_{k>=0} c_k z^k in fixed point:
per working precision (``mp.prec``) it keeps each c_k once as a W-bit
integer, takes z once as a W-bit integer, and sums by Horner's rule,
acc = c_k + (acc z >> W), from the last term down; only the final sum is
rounded to an mpf.  A term costs one integer multiply and one shift
instead of a few pure-Python mpf operations.

The W budget.  W = prec + 16 + max(0, -mag(c_0)) bits.  Each Horner step
truncates by under one unit of 2^-W and each stored c_k is off by under
one unit; the later steps multiply those errors by |z| <= 1/2, so the sum
is off by a few units of 2^-W in all.  The 16 guard bits put that below
a thousandth of an ulp of a result of the size of c_0, and the c_0 shift
keeps a small leading coefficient (Kummer's c_0 = 1/2 - x near x = 1/2)
at the same relative accuracy as one of size 1.  Horner and not forward
powers: a forward sum truncates z^k before multiplying it by c_k, so the
error of a term grows with |c_k|, and the Stirling coefficients grow
factorially (summed forward, the Stirling tail was off by 2e8 units of
2^-prec at 70 digits and 5e141 at 420); Horner multiplies the running
sum by z, never a rounded power by c_k.

The number of terms comes from integer bit lengths: term k is below
2^(bits(c_k) + k log2 |z|) in units of 2^-W, where the bit length and
the top 8 bits of the fixed-point z bound log2 |z| from above.  The sum
keeps terms up to and including the second of two consecutive terms at
or below 10^-(dps+5) times |c_0| (times 1 if c_0 = 0), so a tiny result
keeps its full working precision; two terms rather than one guard
against a single coefficient that happens to be small.  The count is
kept per (bit length, top 8 bits) of z.  The series here converge for
|z| <= 0.5, which covers every near-zero threshold used in the project
(2^-8) with a large margin; a series whose coefficients all vanish
(Kummer's at x = 1/2) sums to an exact 0.

The far tail has the opposite trouble.  The exp-sinh map also probes
t up to 10^(P+12) and beyond, where several raw forms subtract e^-t from
an algebraic term of size 1/t to 1/t^2.  There e^-t is far below half an
ulp of that term, yet mpmath spends milliseconds on it (an integer power
once t > 2^prec).  :func:`exp_neg_tail` returns an exact 0 instead, in
the range where the sum rounds to the same bits either way.
"""

from __future__ import annotations

from math import ceil, factorial, log2
from typing import Callable

import mpmath
from mpmath import mp, mpf
from mpmath.libmp import to_fixed

# An mpf 0 is exact, so it serves every working precision.
_ZERO = mpf(0)


# Guard bits of the fixed-point sum beyond the working precision.
_GUARD_BITS = 16


class PowerSeries:
    """sum_{k>=0} c_k z^k, with ``coefficient(k)`` giving c_k.

    The sum is taken in W-bit fixed point by Horner's rule and rounded
    once (see the module docstring for W and the stop).  ``coefficient``
    is called at W bits, at most once per k and working precision (c_0
    once more at the working precision, to size W); its results are kept
    as W-bit integers for later calls.  ``z`` is an mpf.
    """

    def __init__(self, coefficient: Callable[[int], mpf]):
        self._coefficient = coefficient
        self._cache: dict[int, _FixedCoefficients] = {}

    def __call__(self, z: mpf) -> mpf:
        table = self._cache.get(mp.prec)
        if table is None:
            table = self._cache[mp.prec] = _FixedCoefficients(self._coefficient)
        width = table.width
        z_fixed = to_fixed(z._mpf_, width)
        n = table.terms(abs(z_fixed) + 1)
        acc = 0
        for c in table.fixed[n - 1::-1]:
            acc = c + (acc * z_fixed >> width)
        return mpf((acc, -width))


class _FixedCoefficients:
    """The W-bit integers c_k of one series at one working precision, their
    bit lengths, and the term count per magnitude of z."""

    __slots__ = ("coefficient", "width", "fixed", "bits", "limit", "counts")

    def __init__(self, coefficient: Callable[[int], mpf]):
        self.coefficient = coefficient
        c0 = coefficient(0)
        self.width = mp.prec + _GUARD_BITS + (max(0, -mpmath.mag(c0)) if c0 else 0)
        self.fixed: list[int] = []
        self.bits: list[int] = []
        self.counts: dict[tuple[int, int], int] = {}
        self._extend()
        # A term is small once its bound is at or below 10^-(dps+5) of
        # |c_0| >= 2^(bits(c_0) - 1), or of 1 = 2^W when c_0 = 0.
        scale = self.bits[0] - 1 if self.fixed[0] else self.width
        self.limit = scale - ceil((mp.dps + 5) * log2(10))

    def _extend(self) -> None:
        with mp.workprec(self.width):
            c = to_fixed(mpf(self.coefficient(len(self.fixed)))._mpf_, self.width)
        self.fixed.append(c)
        self.bits.append(abs(c).bit_length())

    def terms(self, z_bound: int) -> int:
        """How many terms a z with |z| 2^W <= ``z_bound`` needs.

        The count is kept per bit length and top 8 bits of ``z_bound``,
        which bound log2 |z| from above to within 0.012.
        """
        bits = z_bound.bit_length()
        top = z_bound >> (bits - 8) if bits > 8 else z_bound << (8 - bits)
        key = (bits, top)
        n = self.counts.get(key)
        if n is None:
            log2_z = log2(top + 1) + bits - 8 - self.width
            k = small = 0
            while small < 2:
                if k == len(self.fixed):
                    self._extend()
                if self.fixed[k] == 0 or self.bits[k] + k * log2_z <= self.limit:
                    small += 1
                else:
                    small = 0
                k += 1
            n = self.counts[key] = k
        return n


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
