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

Nodes come in +-u pairs, one exp per pair.  A level walks u = k h once,
stepping (pi/4) e^{kh} and (pi/4) e^{-kh} by one fixed-point
multiplication each, so (pi/2) sinh u and (pi/2) cosh u cost no
transcendental call (mpmath's ``TanhSinh.calc_nodes`` does the same).
With s = (pi/2) sinh u, exp-sinh takes t(u) = e^s and t(-u) = 1/t(u),
and its two weights share (pi/2) cosh u; tanh-sinh takes E = e^{2s}, and
the endpoint offset and the weight are the same for +u and -u.  Both
sides advance in one loop, but each keeps its own sum, stop and cap, so
the summation order and every evaluation count are those of a
per-abscissa scan.  The stepping error budget: for a level of at most
n steps the fixed point carries W = prec + bit_length(n) + 4 bits, so
the drift stays below an eighth of an ulp of the working precision, and
the stepped sinh and cosh are as accurate as direct calls (tests hold
every node through level 10 to 10^-(P+15) of the per-abscissa
formulas).  Only the current pair is alive; no node list
is built.  Nodes are not cached between integrals either: a cache would
outlive one computation in a long-lived process (the benchmark's closed
loop reuses one context), so what it saves would be measured warm and
the cost of a first call would go unseen.

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
from itertools import starmap
from typing import Callable

import mpmath
from mpmath import mp, mpf
from mpmath.libmp import to_fixed

from .context import ComputeContext, Real

DEFAULT_NEAR_ZERO_THRESHOLD = 2.0 ** -8

_ZERO = mpf(0)


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


def _scaled_sinh_cosh(h, step, count):
    """Yield ((pi/2) sinh u, (pi/2) cosh u) for u = h, h + step h, ...

    ``count`` values in all.  (pi/4) e^u and (pi/4) e^-u are carried as
    W-bit fixed-point integers and stepped by one multiplication each with
    e^{+-step h}, so a scan calls no transcendental function to place its
    abscissae; their difference and sum are the two scaled values.  Each
    step adds at most about two units of 2^-W to either factor, relative
    to cosh u, so after ``count`` steps the drift is below
    2 count 2^-W cosh u.  With W = prec + bit_length(count) + 4 that is
    below an eighth of an ulp of the working precision, relative to
    sinh u as well (near u = 0, sinh u ~ u >= h and count >= 1/h): the
    stepped values are as accurate as direct sinh and cosh calls.
    """
    width = mp.prec + count.bit_length() + 4
    with mp.workprec(width + 10):
        quarter_pi = to_fixed(mpmath.pi._mpf_, width - 2)
        up = to_fixed(mpmath.exp(h)._mpf_, width)
        down = to_fixed(mpmath.exp(-h)._mpf_, width)
        step_up = to_fixed(mpmath.exp(step * h)._mpf_, width)
        step_down = to_fixed(mpmath.exp(-step * h)._mpf_, width)
    a = quarter_pi * up >> width          # (pi/4) e^u
    b = quarter_pi * down >> width        # (pi/4) e^-u
    for _ in range(count):
        yield mpf((a - b, -width)), mpf((a + b, -width))
        a = a * step_up >> width
        b = b * step_down >> width


class _Side:
    """Running sum of one side (u > 0 or u < 0) of one level's scan.

    The side stops after two consecutive terms below ``cutoff``
    (double-exponential decay makes a single dip unlikely, two is belt
    and braces), or after more than ``max_terms`` terms.  Hitting that
    cap means the transformed summand is not dying off, i.e. the
    integral diverges or decays too slowly for the transform; the caller
    reports it as non-convergence.
    """

    __slots__ = ("total", "evaluations", "small", "live", "hit_cap", "cutoff", "max_terms")

    def __init__(self, cutoff, max_terms):
        self.total = _ZERO
        self.evaluations = 0
        self.small = 0
        self.live = True
        self.hit_cap = False
        self.cutoff = cutoff
        self.max_terms = max_terms

    def add(self, term):
        self.total += term
        self.evaluations += 1
        if abs(term) < self.cutoff:
            self.small += 1
            if self.small >= 2:
                self.live = False
                return
        else:
            self.small = 0
        if self.evaluations > self.max_terms:
            self.live = False
            self.hit_cap = True


def _level_nodes(pair, level, u_cap):
    """Node pairs of one level, lazily, and the per-side term cap.

    Level 0 takes u = 1, 2, 3, ... at h = 1; level L >= 1 takes the odd
    multiples of h = 2^-L, the abscissae the levels before it lack, so
    its stride is 2h.  ``pair`` maps ((pi/2) sinh u, (pi/2) cosh u) to
    the nodes and weights at +u and -u, (x+, w+, x-, w-), with one exp.
    One pair is alive at a time; no node list is kept.  The cap counts
    strides, so a side that hits it (after ``max_terms`` + 1 terms) has
    gone no further than u_cap plus one stride.
    """
    h = mpmath.ldexp(1, -level)
    step = 1 if level == 0 else 2
    max_terms = int(u_cap / (step * h))
    scaled = _scaled_sinh_cosh(h, step, max_terms + 1)
    return h, max_terms, starmap(pair, scaled)


def _scan_cap(ctx):
    """|u| such that the double-exponential factor alone is below the
    cutoff, plus margin: where a scan can possibly need to reach."""
    return mpmath.asinh((ctx.precision_digits + 30) * mpmath.log(10) / (mpmath.pi / 2)) + 3


def _run_levels(f, centre, pair, tol, ctx, cutoff):
    """Shared level-doubling loop over the nodes of one transform.

    ``centre`` is the node and weight at u = 0; ``pair`` gives the nodes
    and weights at +-u (see :func:`_level_nodes`).  Each level halves h
    and adds the odd multiples of the new step, so no abscissa is ever
    evaluated twice.  Both sides of a level advance in one loop, one
    pair at a time, but each keeps its own sum, stop and cap.  The
    summation order is fixed (centre, then ascending positive, then
    ascending negative abscissae), which keeps repeated runs
    bit-identical.  A node of zero weight contributes 0 without an
    evaluation of f (it still counts as one).
    """

    def term(x, weight):
        if not weight:
            return _ZERO
        v = f(x)
        if mpmath.isnan(v) or mpmath.isinf(v):
            raise IntegrandEvaluationError(f.label, x)
        return v * weight

    u_cap = _scan_cap(ctx)
    log_tol = mpmath.log10(tol)
    total = term(*centre)       # weighted f at every multiple of h so far
    evaluations = 1
    value = value_prev = None
    for level in range(ctx.quad_max_level + 1):
        h, max_terms, nodes = _level_nodes(pair, level, u_cap)
        pos = _Side(cutoff, max_terms)
        neg = _Side(cutoff, max_terms)
        for x_pos, w_pos, x_neg, w_neg in nodes:
            if pos.live:
                pos.add(term(x_pos, w_pos))
            if neg.live:
                neg.add(term(x_neg, w_neg))
            if not (pos.live or neg.live):
                break
        evaluations += pos.evaluations + neg.evaluations
        total = total + pos.total + neg.total
        value_prev2, value_prev = value_prev, value
        value = h * total
        levels = level + 1
        delta = abs(value - value_prev) if level else abs(value)
        if pos.hit_cap or neg.hit_cap:
            return value, delta, evaluations, levels, False
        if level >= 1 and delta <= tol:
            return value, delta, evaluations, levels, True
        if level >= 2 and _extrapolated_below(delta, abs(value - value_prev2), log_tol):
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


def _exp_sinh_nodes(skip_below):
    """Centre and ``pair`` function of the exp-sinh map t = e^{(pi/2) sinh u}.

    With s = (pi/2) sinh u and w = (pi/2) cosh u, one exp gives both
    nodes, t(u) = e^s and t(-u) = 1/t(u), and both weights t c cosh u =
    t w.  A weight on the t < 1 side below ``skip_below`` is returned as
    0, so the integrand is not evaluated there.
    """

    def pair(s, w):
        t = mpmath.exp(s)
        t_neg = 1 / t
        w_neg = t_neg * w
        if w_neg < skip_below:
            w_neg = _ZERO
        return t, t * w, t_neg, w_neg

    return (mpf(1), mpmath.pi / 2), pair


def _tanh_sinh_nodes(a, b):
    """Centre and ``pair`` function of the tanh-sinh map on [a, b].

    x(+-u) = mid +- half tanh s with s = (pi/2) sinh u.  With E = e^{2s}
    (the pair's one exp), the offset from the nearer endpoint,
    half (1 - tanh s) = 2 half / (E + 1), is formed without subtraction,
    and the weight half c cosh u / cosh(s)^2 = half w 4E / (E + 1)^2
    (w = (pi/2) cosh u) is the same on both sides.  There is no weight
    short-circuit: endpoint-singular integrands (x^-1/2, log sin) can
    outgrow a tiny weight by many orders.
    """
    half = (b - a) / 2
    mid = (a + b) / 2

    def pair(s, w):
        big = mpmath.exp(2 * s)
        offset = 2 * half / (big + 1)
        weight = 4 * half * w * big / (big + 1) ** 2
        return b - offset, weight, a + offset, weight

    return (mid, half * (mpmath.pi / 2)), pair


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
        # Safe short-circuit on the t -> 0 side only: every project
        # integrand has a finite limit there (spec invariant), so the
        # vanishing weight alone kills the term.
        centre, pair = _exp_sinh_nodes(skip_below=cutoff / 8)
        value, delta, evaluations, levels, converged = _run_levels(
            f, centre, pair, tol, ctx, cutoff
        )
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
        centre, pair = _tanh_sinh_nodes(mpf(a), mpf(b))
        value, delta, evaluations, levels, converged = _run_levels(
            f, centre, pair, tol, ctx, cutoff
        )
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
