"""Double-exponential quadrature with honest, testable error estimates.

Two transforms cover every integral in the project:

* ``integrate_zero_to_inf`` -- exp-sinh, t = exp((pi/2) sinh u), for the
  improper integrands of the route identities.  The same map handles both
  exponentially decaying integrands and the algebraic/log tails (the
  Feaux-route integrand decays only like 1/(t^2 log t)); the transformed
  summand dies double-exponentially in u either way.
* ``integrate_finite`` -- tanh-sinh on [a, b], robust to integrable
  endpoint singularities (log Gamma at 0, x^{-1/2}, log sin(pi x)).

Both run the trapezoid rule with level doubling (h = 2^-level), reusing
all previous evaluations; a level's new contribution comes from the odd
multiples of the new step.  Convergence is declared when successive levels
differ by less than the requested tolerance, or one level earlier, when
the Borwein-Bailey-Girgensohn extrapolation of the last two differences
(D1^2/D2 in log10 terms) puts the current level a digit below it while the
digits still grow at least 1.5-fold per level.  The reported error
estimate is the last inter-level difference plus the
(double-exponentially small) truncation bound of the two scan tails,
floored at one digit above the working precision so it can never
understate round-off; after an extrapolated stop it is the tolerance the
stop certifies.

Abscissae near a finite endpoint are computed as offsets from that
endpoint, 1 - tanh(s) = 2/(e^{2s} + 1), never by subtraction; otherwise
endpoint-singular integrands would see catastrophically rounded inputs.

Integrands declare an optional ``near_zero`` evaluation (an analytic
small-t series) for t below ``DEFAULT_NEAR_ZERO_THRESHOLD``; the engine
switches to it automatically.  That is essential here: the exp-sinh map probes abscissae
down to t ~ 10^-(P+12), where the raw forms of the route integrands lose
hundreds of digits to cancellation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import mpmath
from mpmath import mp, mpf

from .context import ComputeContext, Real

DEFAULT_NEAR_ZERO_THRESHOLD = 2.0 ** -8


class QuadratureError(RuntimeError):
    """Quadrature failed in a way the caller cannot ignore."""


class IntegrandEvaluationError(QuadratureError):
    """Integrand returned NaN or an infinity; aborts the whole integral."""

    def __init__(self, label: str, abscissa: Real):
        self.label = label
        self.abscissa = abscissa
        super().__init__(
            f"integrand {label!r} returned a non-finite value at t = "
            f"{mpmath.nstr(abscissa, 12)}"
        )


class NoConvergenceError(QuadratureError):
    """Raised by callers that treat a non-converged result as fatal."""

    def __init__(self, label: str, result: "QuadratureResult"):
        self.label = label
        self.result = result
        super().__init__(
            f"quadrature for {label!r} did not converge within "
            f"{result.levels_used} levels (last delta "
            f"{mpmath.nstr(result.error_estimate, 5)})"
        )


@dataclass
class Integrand:
    """One integrand plus the metadata the engine needs to treat it honestly.

    ``eval`` is the literal form; ``near_zero``, when provided, is an
    analytically rewritten evaluation valid for t below
    ``DEFAULT_NEAR_ZERO_THRESHOLD``, used by the engine in place of ``eval``
    there.  The two must agree to 10^-(P-8) on (0, threshold]; tests
    enforce that for every project integrand (it is the check that the
    series algebra matches the formula).
    """

    eval: Callable[[Real], Real]
    label: str
    near_zero: Callable[[Real], Real] | None = None

    def __call__(self, t: Real) -> Real:
        if self.near_zero is not None and t < DEFAULT_NEAR_ZERO_THRESHOLD:
            return self.near_zero(t)
        return self.eval(t)


@dataclass
class QuadratureResult:
    value: Real
    error_estimate: Real
    evaluations: int
    levels_used: int
    converged: bool

    def require_converged(self, label: str) -> "QuadratureResult":
        if not self.converged:
            raise NoConvergenceError(label, self)
        return self


@dataclass
class ErrorModelEntry:
    label: str
    value: Real
    exact: Real
    true_error: Real
    error_estimate: Real
    margin: Real          # 10 * estimate / true_error; >= 1 means honest
    ok: bool


@dataclass
class ErrorModelReport:
    entries: list[ErrorModelEntry] = field(default_factory=list)

    @property
    def all_ok(self) -> bool:
        return all(e.ok for e in self.entries)

    @property
    def violations(self) -> list[ErrorModelEntry]:
        return [e for e in self.entries if not e.ok]


def _sum_side(g, h, direction, start, step, cutoff, max_terms):
    """Trapezoid terms g(k h) for k = start, start+step, ... in one direction.

    Stops after two consecutive terms below ``cutoff`` (double-exponential
    decay makes a single dip unlikely, two is belt and braces).  Returns
    (sum, evaluations, hit_cap).  Hitting the cap means the transformed
    summand is not dying off, i.e. the integral diverges or decays too
    slowly for the transform; the caller reports it as non-convergence.
    """
    acc = mpf(0)
    small = 0
    evals = 0
    k = start
    while True:
        term = g(direction * k * h)
        evals += 1
        acc += term
        if abs(term) < cutoff:
            small += 1
            if small >= 2:
                return acc, evals, False
        else:
            small = 0
        k += step
        if evals > max_terms:
            return acc, evals, True


def _run_levels(g, tol, ctx, cutoff):
    """Shared level-doubling loop over a transformed summand g(u).

    Each level halves h and adds the odd multiples of the new step, so no
    abscissa is ever evaluated twice.  Summation order is fixed (centre,
    then ascending positive, then ascending negative abscissae), which
    keeps repeated runs bit-identical.
    """
    # Where the scan can possibly need to reach: |u| such that the
    # double-exponential factor alone is below the cutoff, plus margin.
    u_cap = mpmath.asinh((ctx.precision_digits + 30) * mpmath.log(10) / (mpmath.pi / 2)) + 3
    evaluations = 0

    def side_cap(h):
        return int(u_cap / h) + 16

    # Level 0: full sum at h = 1.
    h = mpf(1)
    center = g(mpf(0))
    evaluations += 1
    pos, ev_p, cap_p = _sum_side(g, h, +1, 1, 1, cutoff, side_cap(h))
    neg, ev_n, cap_n = _sum_side(g, h, -1, 1, 1, cutoff, side_cap(h))
    evaluations += ev_p + ev_n
    total = center + pos + neg           # sum of g at integer multiples of h
    value = h * total
    levels = 1
    delta = abs(value)
    if cap_p or cap_n:
        return value, delta, evaluations, levels, False

    log_tol = mpmath.log10(tol)
    value_prev = None
    for level in range(1, ctx.quad_max_level + 1):
        h = h / 2
        pos, ev_p, cap_p = _sum_side(g, h, +1, 1, 2, cutoff, side_cap(h))
        neg, ev_n, cap_n = _sum_side(g, h, -1, 1, 2, cutoff, side_cap(h))
        evaluations += ev_p + ev_n
        total = total + pos + neg
        value_prev2, value_prev = value_prev, value
        value = h * total
        levels = level + 1
        delta = abs(value - value_prev)
        if cap_p or cap_n:
            return value, delta, evaluations, levels, False
        if delta <= tol:
            return value, delta, evaluations, levels, True
        if value_prev2 is not None and _extrapolated_below(
            delta, abs(value - value_prev2), log_tol
        ):
            return value, delta, evaluations, levels, True
    return value, delta, evaluations, levels, False


def _extrapolated_below(delta1, delta2, log_tol):
    """Whether the current level's error is predicted to be within tol.

    With D1 = log10|I_L - I_{L-1}| and D2 = log10|I_L - I_{L-2}|, the
    digits of a double-exponential rule roughly double per level, so the
    error of I_L is about 10^(D1^2/D2) (Borwein-Bailey-Girgensohn; Bailey,
    Jeyabalan & Li 2005), bounded below by 10^(2 D1).  The prediction is
    trusted only while the digits still grow fast (D1/D2 >= 1.5): once
    round-off or a faulty integrand stalls the sequence, D1^2/D2 can fall
    below tol although the value is stuck far short of it.  The
    prediction must clear tol by one digit: it is an estimate, not a
    bound (log_sin at 400 digits predicted 10^-390.7 and landed at
    1.4e-390 against tol 1e-390).
    """
    d1 = mpmath.log10(delta1)
    d2 = mpmath.log10(delta2)
    if not (d2 < 0 and d1 / d2 >= 1.5):
        return False
    return max(d1 * d1 / d2, 2 * d1) <= log_tol - 1


def _finish(ctx, value, delta, evaluations, levels, converged, cutoff, tol):
    # Tail truncation of the scans: each side stopped once terms fell
    # below ``cutoff``; the remainder dies double-exponentially, so a few
    # multiples of the cutoff bound it.  The floor keeps the estimate from
    # ever understating plain round-off at the working precision.
    floor = mpf(10) ** (-(ctx.precision_digits + 1)) * max(mpf(1), abs(value))
    estimate = delta + 8 * cutoff + floor
    if converged and estimate > tol:
        # Two ways to get here.  After a plain stop (delta <= tol) only the
        # padding can push the sum over, and it sits ten digits below tol.
        # After an extrapolated stop delta is the error of the previous
        # level, not of this one; the stop certifies tol, so tol is what is
        # reported -- never the extrapolated figure, which can understate
        # the true error.
        estimate = +tol
    return QuadratureResult(
        value=value,
        error_estimate=estimate,
        evaluations=evaluations,
        levels_used=levels,
        converged=converged,
    )


def integrate_zero_to_inf(
    f: Integrand,
    tol: Real | None = None,
    ctx: ComputeContext | None = None,
) -> QuadratureResult:
    """Integrate f over (0, inf) with the exp-sinh transform."""
    if ctx is None:
        raise ValueError("a ComputeContext is required")
    if tol is None:
        tol = ctx.target_tolerance
    if not tol > 0:
        raise ValueError("tolerance must be positive")

    with ctx.workdps(20):
        cutoff = mpf(10) ** (-(ctx.precision_digits + 10))
        c = +mpmath.pi / 2

        def g(u):
            t = mpmath.exp(c * mpmath.sinh(u))
            weight = t * c * mpmath.cosh(u)
            if t < 1 and weight < cutoff / 8:
                # Safe short-circuit on the t -> 0 side only: every project
                # integrand has a finite limit there (spec invariant), so
                # the vanishing weight alone kills the term.
                return mpf(0)
            v = f(t)
            if mpmath.isnan(v) or mpmath.isinf(v):
                raise IntegrandEvaluationError(f.label, t)
            return v * weight

        value, delta, evaluations, levels, converged = _run_levels(g, tol, ctx, cutoff)
        return _finish(ctx, value, delta, evaluations, levels, converged, cutoff, tol)


def integrate_finite(
    f: Integrand,
    a: Real,
    b: Real,
    tol: Real | None = None,
    ctx: ComputeContext | None = None,
) -> QuadratureResult:
    """Integrate f over [a, b] with the tanh-sinh transform.

    Integrable endpoint singularities are fine; the integrand is never
    evaluated at the endpoints themselves, and abscissae are carried as
    exact offsets from the nearer endpoint.
    """
    if ctx is None:
        raise ValueError("a ComputeContext is required")
    if tol is None:
        tol = ctx.target_tolerance
    if not a < b:
        raise ValueError(f"need a < b, got a={a}, b={b}")

    with ctx.workdps(20):
        cutoff = mpf(10) ** (-(ctx.precision_digits + 10))
        c = +mpmath.pi / 2
        a = mpf(a)
        b = mpf(b)
        half = (b - a) / 2
        mid = (a + b) / 2

        def g(u):
            s = c * mpmath.sinh(u)
            # 1 - tanh|s| = 2 / (e^{2|s|} + 1), computed without subtraction.
            offset = 2 * half / (mpmath.exp(2 * abs(s)) + 1)
            x = mid if s == 0 else (b - offset if s > 0 else a + offset)
            # No weight short-circuit here: endpoint-singular integrands
            # (x^-1/2, log sin) can outgrow a tiny weight by many orders.
            weight = half * c * mpmath.cosh(u) / mpmath.cosh(s) ** 2
            v = f(x)
            if mpmath.isnan(v) or mpmath.isinf(v):
                raise IntegrandEvaluationError(f.label, x)
            return v * weight

        value, delta, evaluations, levels, converged = _run_levels(g, tol, ctx, cutoff)
        return _finish(ctx, value, delta, evaluations, levels, converged, cutoff, tol)


def error_model_check(
    known: list[tuple],
    ctx: ComputeContext,
) -> ErrorModelReport:
    """Run the engine on integrals with known values; audit the estimates.

    ``known`` holds (integrand, exact_value) pairs for integrals over
    (0, inf), or (integrand, exact_value, (a, b)) triples for finite
    ranges.  For each, the true error must not exceed ten times the
    reported estimate; violations are flagged, never silently passed.
    """
    report = ErrorModelReport()
    for item in known:
        if len(item) == 2:
            integrand, exact = item
            result = integrate_zero_to_inf(integrand, ctx=ctx)
        else:
            integrand, exact, (a, b) = item
            result = integrate_finite(integrand, a, b, ctx=ctx)
        with ctx.workdps(10):
            true_error = abs(result.value - mpf(exact))
            allowed = 10 * result.error_estimate
            margin = allowed / true_error if true_error > 0 else mpmath.inf
            report.entries.append(
                ErrorModelEntry(
                    label=integrand.label,
                    value=result.value,
                    exact=exact,
                    true_error=true_error,
                    error_estimate=result.error_estimate,
                    margin=margin,
                    ok=bool(true_error <= allowed),
                )
            )
    return report
