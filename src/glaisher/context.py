"""Precision management, shared exact constants, and decimal serialization.

Everything downstream (quadrature, log-Gamma representations, the seven
routes) computes with mpmath arbitrary-precision reals bound to a
``ComputeContext``.  The context owns the working precision in decimal
digits, the target tolerance used by the quadrature engine, and a
write-once cache of the constants that appear in the closed-form parts of
the route identities (pi, log 2, log pi, log 2pi, Euler's gamma).

The reference value of Euler's constant is computed independently of the
Dirichlet-integral route (which lives in :mod:`glaisher.loggamma`), so the
two can cross-check each other.  The algorithm here is the classical
alternating exponential-integral series

    gamma = sum_{k>=1} (-1)^{k+1} n^k / (k * k!)  -  log n  -  E1(n),

with n chosen so that the neglected tail E1(n) < e^{-n}/n is below the
target accuracy.  The partial sums grow to ~ e^n before they cancel back,
so the sum runs in W-bit fixed-point Python integers, W = prec +
2 bitlen(n) + 10 (prec that of the returned value), with the term
T_k = n^k/k! stepped as T <- T n // k and log n taken at W bits.  The
integer part holds the large partial sums exactly, so they cost no guard
digits; each step truncates under one unit of 2^-W, and an error in T_j
reaches the sum only through the alternating rest of the series from j
on, which is no larger than about T_j, so every step adds about one unit
(a few times e n steps in all, which 2 bitlen(n) bits cover).
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field

import mpmath
from mpmath import mp, mpf
from mpmath.libmp import to_fixed

# Arbitrary-precision real number.  mpf values are immutable and carry
# their own mantissa; the context precision governs every operation.
Real = mpmath.mpf

MIN_PRECISION_DIGITS = 20

# Accepted decimal syntax: optional sign, digits with optional fractional
# part (or a bare fractional part), optional e/E exponent.  No locale
# separators.
_DECIMAL_RE = re.compile(r"^[+-]?(\d+(\.\d*)?|\.\d+)([eE][+-]?\d+)?$")
# The prefixes of a decimal (strings more characters could still make
# valid); matched from the start of a string, it ends where no decimal
# could go on.
_DECIMAL_PREFIX_RE = re.compile(r"[+-]?\d*(\.\d*)?([eE][+-]?\d*)?")


class PrecisionError(ValueError):
    """Requested precision is too low for the cancellation-heavy integrands."""


class DomainError(ValueError):
    """Argument outside the domain a representation is valid on."""


class DecimalParseError(ValueError):
    """Malformed decimal string; carries the offending character position."""

    def __init__(self, text: str, position: int):
        self.text = text
        self.position = position
        super().__init__(
            f"invalid decimal literal {text!r} at position {position}"
        )


@dataclass(frozen=True)
class ConstantsSet:
    """Exact constants shared by the route identities, at full precision."""

    pi: Real
    log2: Real
    log_pi: Real
    log_2pi: Real
    euler_gamma: Real


@dataclass
class ComputeContext:
    """Working precision plus cached constants for one computation run.

    The context is immutable after construction except for the constants
    cache, which is write-once: concurrent first accesses may race to
    compute but install equal values (all constant computations are
    deterministic at fixed precision).
    """

    precision_digits: int
    target_tolerance: Real
    _constants: ConstantsSet | None = field(default=None, repr=False)

    @property
    def constants(self) -> ConstantsSet:
        if self._constants is None:
            self._constants = compute_constants(self)
        return self._constants

    def workdps(self, extra: int = 0):
        """Context manager running mpmath at ``precision_digits + extra``."""
        return mp.workdps(self.precision_digits + extra)


def make_context(precision_digits: int = 50) -> ComputeContext:
    """Build a context; constants stay unevaluated until first access.

    The default target tolerance is 10^-(P-10): ten guard digits between
    the working precision and what the quadrature engine promises.
    """
    if precision_digits < MIN_PRECISION_DIGITS:
        raise PrecisionError(
            f"precision too low: {precision_digits} digits requested, "
            f"minimum is {MIN_PRECISION_DIGITS}"
        )
    with mp.workdps(precision_digits + 5):
        tol = mpf(10) ** (-(precision_digits - 10))
    return ComputeContext(precision_digits=precision_digits, target_tolerance=tol)


def compute_constants(ctx: ComputeContext) -> ConstantsSet:
    """Evaluate the constant set at the context precision (plus guard).

    Always a fresh evaluation; ``ComputeContext.constants`` caches the
    first one.
    """
    with ctx.workdps(10):
        pi = +mpmath.pi
        log2 = mpmath.log(mpf(2))
        log_pi = mpmath.log(pi)
        return ConstantsSet(
            pi=pi,
            log2=log2,
            log_pi=log_pi,
            log_2pi=log2 + log_pi,
            euler_gamma=euler_gamma_ref(ctx),
        )


def euler_gamma_ref(ctx: ComputeContext) -> Real:
    """Euler's constant via the alternating exponential-integral series.

    Independent of the Dirichlet integral evaluated by
    :func:`glaisher.loggamma.dirichlet_gamma`, which serves as the
    cross-check.  Deterministic: same context precision, same bits.
    """
    digits = ctx.precision_digits
    # e^-n / n below 10^-(digits+12) bounds the dropped tail.
    n = math.ceil((digits + 12) * math.log(10))
    with ctx.workdps(10):
        width = mp.prec + 2 * n.bit_length() + 10
        with mp.workprec(width):
            log_n = to_fixed(mpmath.log(n)._mpf_, width)
        term = n << width    # n^k / k! at k = 1, in units of 2^-width
        acc = term
        k = 1
        while term:
            k += 1
            term = term * n // k
            acc += term // k if k % 2 else -(term // k)
        return mpf((acc - log_n, -width))


def real_to_decimal(x: Real, digits: int) -> str:
    """Render ``x`` as a plain decimal string with ``digits`` significant digits.

    ``x`` is rendered as it is, with no mpf() cast: a cast at the ambient
    precision would round it to the ambient digit count first.
    """
    if digits < 1:
        raise ValueError(f"digits must be positive, got {digits}")
    return mpmath.nstr(x, digits)


def real_from_decimal(s: str, ctx: ComputeContext) -> Real:
    """Parse a signed decimal literal at the context precision.

    Raises :class:`DecimalParseError` with the position of the first
    offending character when the string is malformed.
    """
    if not isinstance(s, str):
        raise DecimalParseError(str(s), 0)
    text = s.strip()
    if not _DECIMAL_RE.match(text):
        raise DecimalParseError(text, _first_bad_position(text))
    with ctx.workdps(5):
        return mpf(text)


def _first_bad_position(text: str) -> int:
    """Index of the first character past the longest prefix more characters
    could still make valid, or of the last character if that prefix is all
    of ``text``."""
    return min(_DECIMAL_PREFIX_RE.match(text).end(), max(len(text) - 1, 0))
