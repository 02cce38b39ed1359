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
differ by less than the context's target tolerance, or one level earlier, when
the Borwein-Bailey-Girgensohn extrapolation of the last two differences
(D1^2/D2 in log10 terms) puts the current level a digit below it while the
digits still grow at least 1.5-fold per level.  D1, D2 and log10 tol are
doubles read off each mpf's mantissa and exponent, and the scan cap
(how far in u a side may go) is a double too: the rule is a prediction
with a one-digit margin, so a log good to 10^-13 decides as one good to
P digits, and the term cap is the floor of the cap times a power of two,
exact in a double and the same integer as from the cap in mpfs (see
:func:`_extrapolated_below` and :func:`_scan_cap`).  The reported error
estimate is the last inter-level difference plus the
(double-exponentially small) truncation bound of the two scan tails,
floored at one digit above the working precision so it can never
understate round-off; after an extrapolated stop it is the tolerance the
stop certifies.

The context is the only source of the engine's limits: the tolerance is
``ctx.target_tolerance`` and the level cap is a function of
``ctx.precision_digits`` alone, max(12, bit_length(P - 1) + 4), i.e. 12
up to 256 digits, then 13 / 14 / 15 up to 512 / 1024 / 2048 digits.
Levels grow like log2 P: an exp-sinh integral of e^-t needs
7 / 8 / 10 / 11 / 12 / 13 levels at 50 / 100 / 200 / 400 / 800 / 1200
digits, and the cap stays two levels above that.  An integral that
reaches the cap is reported as not converged.

Nodes come in +-u pairs, one exp per pair, by :func:`~glaisher.smallt._exp`
(``mpf_exp``'s bits in 1/2.9 of its time at 200 digits).  A level walks
u = k h once, stepping (pi/4) e^{kh} and (pi/4) e^{-kh} by one
fixed-point multiplication each, so (pi/2) sinh u and (pi/2) cosh u cost
no transcendental call (mpmath's ``TanhSinh.calc_nodes`` does the same).
With s = (pi/2) sinh u, exp-sinh takes t(u) = e^s and t(-u) = 1/t(u),
and its two weights share (pi/2) cosh u; tanh-sinh takes E = e^{2s}, and
the endpoint offset and the weight are the same for +u and -u; weights
are handed over unrounded, as (man, exp).  Both sides advance in one
loop, but each keeps its own sum, stop and cap, so every evaluation
count is that of a per-abscissa scan.  The stepping error budget: for a
level of at most n steps the fixed point carries W = prec +
bit_length(n) + 4 bits, so the drift stays below an eighth of an ulp of
the working precision, and the stepped sinh and cosh are as accurate
as direct calls (tests hold every node through level 10 to 10^-(P+15)
of the per-abscissa formulas).

The level loop sums in integers, on one absolute frame of F = prec + 16
bits.  A term f(x) w is the product of the two mantissas shifted once to
units of 2^-F and rounded half up, the scan cutoff 10^-(P+10) is tested
on the same frame, and only a level's value is rounded to an mpf.  N
terms are off by under N 2^-(F+1): below 2^-(prec+2) for N < 2^15, ten
digits under the cutoff.  The sum is exact, so its order does not matter.

Work is shared within one computation and never beyond it.  Inside a
``shared_work()`` block (``report.run_all`` and
``routes.identity_residuals`` hold one per call) every value several
integrals compute alike is read through :func:`shared`, computed on the
table's first miss: a level's node pairs per transform and its
(pi/2) sinh u, (pi/2) cosh u stream, read by both transforms (each a
:class:`~glaisher.smallt._Lazy`); the raw forms' E = e^(-t/2) and
log Gamma(1+x) per abscissa; the zeta table of that series.  So every
value, estimate and count is bit-identical to an integral run alone;
``run_all`` at 50 digits makes 548 node exps, against 1893 with a scan
per integral, and 362 E exps, against 1139.  The block drops the table
on exit.  Outside any block nothing is kept and an integral streams its
nodes: a table that outlived one computation would hide the cost of the
first call in a long-lived process, and one private to a single integral
would hold all its nodes for no reuse (6.6 MB at 200 digits).

Offsets from a finite endpoint are computed as 1 - tanh(s) =
2/(e^{2s} + 1), never by subtraction; otherwise endpoint-singular
integrands would see catastrophically rounded inputs.  The integrand
still sees only the abscissa, endpoint plus or minus offset at working
precision, which rounds to the endpoint itself once the offset is below
half an ulp of it (at b, and at a unless a = 0; see
:func:`integrate_finite`).

Integrands may declare a ``near_zero`` evaluation (an analytic small-t
series) for t below ``DEFAULT_NEAR_ZERO_THRESHOLD``; the engine switches
to it automatically.  The exp-sinh map probes abscissae down to
t ~ 10^-(P+12), where a cancelling raw form loses hundreds of digits;
its guard digits pay for them, so the series is not needed for accuracy.
It is a fast path, kept only where a workload spends time below the
threshold: the route integrands have one, the log Gamma representations
do not.
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, field
from itertools import starmap
from math import asinh, inf, log, log10, pi
from typing import Callable, Hashable

import mpmath
from mpmath import mp, mpf
from mpmath.libmp import fone, mpf_add, mpf_neg, mpf_pi, mpf_shift, mpf_sub, round_nearest, to_fixed

from .context import ComputeContext, Real
from .smallt import _exp, _Lazy, _quotient, _round

_NEAR_ZERO_LOG2 = -8
DEFAULT_NEAR_ZERO_THRESHOLD = 2.0 ** _NEAR_ZERO_LOG2

_FRAME_GUARD = 16       # bits of the level loop's frame beyond mp.prec

_LOG10_2 = log10(2)


class QuadratureError(RuntimeError):
    """Quadrature failed in a way the caller cannot ignore."""


class IntegrandEvaluationError(QuadratureError):
    """Integrand returned NaN or an infinity, or divided by zero (as one
    singular at a finite endpoint can, see :func:`integrate_finite`);
    aborts the whole integral."""

    def __init__(self, label: str, abscissa: Real):
        self.label = label
        self.abscissa = abscissa
        super().__init__(
            f"integrand {label!r} returned a non-finite value or divided by "
            f"zero at t = {mpmath.nstr(abscissa, 12)}"
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
    enforce that for every integrand that has one (it is the check that
    the series algebra matches the formula).
    """

    eval: Callable[[Real], Real]
    label: str
    near_zero: Callable[[Real], Real] | None = None

    def __call__(self, t: Real) -> Real:
        # t < 2^-8 read off 2^(exp + bc - 1) <= t = man 2^exp < 2^(exp + bc):
        # negative, zero and -inf are below it, +inf and NaN are not.
        if self.near_zero is not None:
            sign, man, exp, bc = t._mpf_
            if sign or (exp + bc <= _NEAR_ZERO_LOG2 if man else not exp):
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


def _scaled_sinh_cosh(level, step, count):
    """Yield ((pi/2) sinh u, (pi/2) cosh u) for u = h, h + step h, ...,
    h = 2^-level, as raw mpfs at the working precision.

    ``count`` pairs in all.  (pi/4) e^u and (pi/4) e^-u are carried as
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
    quarter_pi = to_fixed(mpf_pi(width + 10, round_nearest), width - 2)
    stride = step.bit_length() - 1 - level      # step h = 2^stride, step 1 or 2
    up, down, step_up, step_down = (to_fixed(_exp((sign, 1, exp, 1), width + 10), width)
                                    for sign, exp in ((0, -level), (1, -level), (0, stride), (1, stride)))
    a = quarter_pi * up >> width          # (pi/4) e^u
    b = quarter_pi * down >> width        # (pi/4) e^-u
    prec = mp.prec
    for _ in range(count):
        yield _round(a - b, -width, prec), _round(a + b, -width, prec)
        a = a * step_up >> width
        b = b * step_down >> width


class _Side:
    """Running sum of one side (u > 0 or u < 0) of one level's scan, in
    integers on the level loop's frame.

    The side stops after two consecutive terms below ``cutoff``
    (double-exponential decay makes a single dip unlikely, two is belt
    and braces), or after more than ``max_terms`` terms.  Hitting that
    cap means the transformed summand is not dying off, i.e. the
    integral diverges or decays too slowly for the transform; the caller
    reports it as non-convergence.
    """

    __slots__ = ("total", "evaluations", "small", "live", "hit_cap", "cutoff", "max_terms")

    def __init__(self, cutoff, max_terms):
        self.total = 0
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


_SHARED: ContextVar[dict | None] = ContextVar("glaisher_shared_work", default=None)


@contextmanager
def shared_work():
    """The table of work shared by the integrals of one computation,
    which :func:`shared` reads and fills.

    The outermost block makes the table and drops it on exit, restoring
    what was there before, also when the block raises; a nested block
    yields the same table.  Outside any block :func:`shared` computes
    and keeps nothing.  As a decorator, ``@shared_work()`` holds a table
    for each whole call.
    """
    table = _SHARED.get()
    if table is not None:
        yield table
        return
    table = {}
    token = _SHARED.set(table)
    try:
        yield table
    finally:
        _SHARED.reset(token)


def shared(key: Hashable, compute: Callable, *args):
    """``compute(*args)``, once per ``key`` in a :func:`shared_work`
    block (stored on the first miss unless ``compute`` raises), on every
    call outside one.  Keys are (family name, ``mp.prec`` or a table's
    width, argument), the argument a level or a raw ``_mpf_``, which
    hashes as a tuple and not through ``mpf.__hash__``."""
    table = _SHARED.get()
    if table is None:
        return compute(*args)
    try:
        return table[key]
    except KeyError:
        pass
    value = table[key] = compute(*args)
    return value


def _level_nodes(transform, pair, level, u_cap):
    """Node pairs of one level, lazily, and the per-side term cap.

    Level 0 takes u = 1, 2, 3, ... at h = 1; level L >= 1 takes the odd
    multiples of h = 2^-L, the abscissae the levels before it lack, so
    its stride is 2h.  ``pair`` maps ((pi/2) sinh u, (pi/2) cosh u) to
    the nodes and weights at +u and -u, (x+, w+, x-, w-), with one exp.
    The cap counts strides, so a side that hits it (after ``max_terms``
    + 1 terms) has gone no further than u_cap plus one stride.

    Outside a :func:`shared_work` block the pairs stream past and none
    is kept; inside one the scaled (sinh, cosh) stream of the level and
    the node pairs of ``transform`` (the map's name and interval) are
    :func:`shared`, each a :class:`~glaisher.smallt._Lazy`.
    """
    h = 2.0 ** -level
    step = 1 if level == 0 else 2
    max_terms = int(u_cap / (step * h))         # floor(u_cap 2^level / step), exactly
    scaled = _scaled_sinh_cosh(level, step, max_terms + 1)     # runs only when read
    if _SHARED.get() is None:
        return h, max_terms, starmap(pair, scaled)
    name, *interval = transform
    prec = mp.prec
    scaled = shared(("sinh-cosh", prec, level), _Lazy, scaled)
    return h, max_terms, shared((name, prec, level, *interval), _Lazy, starmap(pair, scaled))


def _scan_cap(ctx):
    """|u| such that the double-exponential factor alone is below the
    cutoff, plus margin: where a scan can possibly need to reach.

    A double.  The cap only bounds the scans; what it decides is each
    level's term cap floor(u_cap 2^L / step), and scaling a double by a
    power of two is exact, so that floor is exact for the double.  For
    every P from 20 to 1440 and every level up to ``_max_level(P)`` it is
    also the floor of the cap taken in mpfs at the working precision
    (tests hold it at the sweep's precisions and at 800 and 1440
    digits), so every scan and count is unchanged."""
    return asinh((ctx.precision_digits + 30) * log(10) / (pi / 2)) + 3


def _max_level(precision_digits):
    """The deepest level a scan may reach: 12 up to 256 digits, then one
    more per doubling of P, two above what e^-t needs (module docstring)."""
    return max(12, (precision_digits - 1).bit_length() + 4)


def _run_levels(f, centre, level_nodes, ctx, cutoff):
    """Shared level-doubling loop over the nodes of one transform.

    ``centre`` is the node and weight at u = 0; ``level_nodes(level,
    u_cap)`` gives a level's step, term cap and node pairs (see
    :func:`_level_nodes`).  Each level halves h
    and adds the odd multiples of the new step, so no abscissa is ever
    evaluated twice.  Both sides of a level advance in one loop, one
    pair at a time, but each keeps its own sum, stop and cap.  A node of
    zero weight contributes 0 without an evaluation of f (it still counts
    as one).

    Each term is an integer on the frame of the module docstring (0 if
    under half a unit; NaN and infinities abort), and |term| is compared
    with ``cutoff`` there exactly.
    """
    frame = mp.prec + _FRAME_GUARD

    def term(x, weight):
        w_man, w_exp = weight
        if not w_man:
            return 0
        try:
            v = f(x)
        except ZeroDivisionError:
            raise IntegrandEvaluationError(f.label, x) from None
        try:
            sign, man, exp, _ = v._mpf_
        except AttributeError:              # a Python int or float
            sign, man, exp, _ = mpf(v)._mpf_
        if not man:
            if exp:                         # NaN or an infinity
                raise IntegrandEvaluationError(f.label, x)
            return 0
        shift = exp + w_exp + frame
        if shift >= 0:
            n = man * w_man << shift
        else:       # past the product's bit length the shift gives 0 at once
            n = ((man * w_man >> (-1 - shift)) + 1) >> 1
        return -n if sign else n

    tol = ctx.target_tolerance
    u_cap = _scan_cap(ctx)
    log_tol = _log10(mpf(tol)._mpf_)
    small = -to_fixed(mpf_neg(cutoff._mpf_), frame)    # ceil(cutoff 2^F)
    total = term(*centre)       # weighted f at every multiple of h so far
    evaluations = 1
    value = value_prev = None
    for level in range(_max_level(ctx.precision_digits) + 1):
        _, max_terms, nodes = level_nodes(level, u_cap)
        pos = _Side(small, max_terms)
        neg = _Side(small, max_terms)
        for x_pos, w_pos, x_neg, w_neg in nodes:
            if pos.live:
                pos.add(term(x_pos, w_pos))
            if neg.live:
                neg.add(term(x_neg, w_neg))
            if not (pos.live or neg.live):
                break
        evaluations += pos.evaluations + neg.evaluations
        total += pos.total + neg.total
        value_prev2, value_prev = value_prev, value
        value = mpf((total, -frame - level))        # h = 2^-level
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

    D1, D2 and log10 tol are doubles read off the mpfs' mantissas and
    exponents (:func:`_log10`), within about 10^-13 of the exact logs at
    1000 digits.  That is enough: the rule is a prediction with a
    one-digit margin, not a bound, and no decision in ``run_all`` from 20
    to 400 digits comes within 10^-4 digits of a threshold (tests hold
    every one to the rule taken in mpfs at the working precision).  A
    zero delta1 has D1 = -inf and stops; a zero delta2 (D1/D2 = 0) does
    not.
    """
    d1 = _log10(delta1._mpf_)
    d2 = _log10(delta2._mpf_)
    if not (d2 < 0 and d1 / d2 >= 1.5):
        return False
    return max(d1 * d1 / d2, 2 * d1) <= log_tol - 1


def _log10(x):
    """log10 of a raw mpf x >= 0 as a double, log10(man) + exp log10(2),
    -inf for 0: finite for any exponent, where the value as a double
    would underflow."""
    _, man, exp, _ = x
    return log10(man) + exp * _LOG10_2 if man else -inf


def _integrate(f, ctx, transform, nodes):
    """The body of both entry points: check the context's tolerance, run
    the level loop on ``nodes(cutoff)`` (centre and ``pair``) at 20 guard
    digits, with the node pairs of ``transform`` (its name and interval)
    shared in the computation in progress, if any (:func:`_level_nodes`),
    and state the estimate."""
    tol = ctx.target_tolerance
    if not tol > 0:
        raise ValueError("tolerance must be positive")

    with ctx.workdps(20):
        cutoff = mpf(10) ** (-(ctx.precision_digits + 10))
        centre, pair = nodes(cutoff)
        value, delta, evaluations, levels, converged = _run_levels(
            f, centre,
            lambda level, u_cap: _level_nodes(transform, pair, level, u_cap),
            ctx, cutoff,
        )
        # Tail truncation of the scans: each side stopped once terms fell
        # below ``cutoff``; the remainder dies double-exponentially, so a
        # few multiples of the cutoff bound it.  The floor keeps the
        # estimate from ever understating plain round-off at the working
        # precision.
        floor = mpf(10) ** (-(ctx.precision_digits + 1)) * max(mpf(1), abs(value))
        estimate = delta + 8 * cutoff + floor
        if converged and estimate > tol:
            # Two ways to get here.  After a plain stop (delta <= tol) only
            # the padding can push the sum over, and it sits ten digits
            # below tol.  After an extrapolated stop delta is the error of
            # the previous level, not of this one; the stop certifies tol,
            # so tol is what is reported -- never the extrapolated figure.
            estimate = +tol
        return QuadratureResult(
            value=value,
            error_estimate=estimate,
            evaluations=evaluations,
            levels_used=levels,
            converged=converged,
        )


def _below(man, exp, limit):
    """man 2^exp < ``limit`` (a raw mpf), exactly, for man, limit > 0."""
    _, limit_man, limit_exp, limit_bc = limit
    top = man.bit_length() + exp - limit_bc - limit_exp
    if top:
        return top < 0
    shift = exp - limit_exp
    return man << shift < limit_man if shift >= 0 else man < limit_man << -shift


def _exp_sinh_nodes(skip_below):
    """Centre and ``pair`` function of the exp-sinh map t = e^{(pi/2) sinh u}.

    With s = (pi/2) sinh u and w = (pi/2) cosh u, one exp gives both
    nodes, t(u) = e^s and t(-u) = 1/t(u), and both weights t c cosh u =
    t w, each handed over unrounded as (man, exp).  A weight on the t < 1
    side below ``skip_below`` (tested exactly) is returned as (0, 0), so
    the integrand is not evaluated there.
    """
    skip = mpf(skip_below)._mpf_
    prec = mp.prec

    def pair(s, w):
        t = _exp(s, prec)
        _, man, exp, _ = t
        t_neg = _quotient(1, man, -exp, prec)
        _, w_man, w_exp, _ = w
        _, neg_man, neg_exp, _ = t_neg
        w_neg = (neg_man * w_man, neg_exp + w_exp)
        if skip[1] and _below(*w_neg, skip):
            w_neg = (0, 0)
        return mp.make_mpf(t), (man * w_man, exp + w_exp), mp.make_mpf(t_neg), w_neg

    return (mpf(1), (mpmath.pi / 2)._mpf_[1:3]), pair


def _tanh_sinh_nodes(a, b):
    """Centre and ``pair`` function of the tanh-sinh map on [a, b].

    x(+-u) = mid +- half tanh s with s = (pi/2) sinh u.  With E = e^{2s}
    (the pair's one exp), the offset from the nearer endpoint,
    half (1 - tanh s) = 2 half / (E + 1), is formed without subtraction,
    and the weight half c cosh u / cosh(s)^2 = half w 4E / (E + 1)^2
    (w = (pi/2) cosh u), the same on both sides, is the offset times
    2 w E / (E + 1), handed over unrounded as (man, exp).  There is no
    weight short-circuit: endpoint-singular integrands (x^-1/2, log sin)
    can outgrow a tiny weight by many orders.
    """
    half = (b - a) / 2
    mid = (a + b) / 2
    _, length, length_exp, _ = (2 * half)._mpf_     # b - a > 0
    a, b = a._mpf_, b._mpf_
    prec = mp.prec

    def pair(s, w):
        big = _exp(mpf_shift(s, 1), prec)
        _, d_man, d_exp, _ = mpf_add(big, fone, prec, round_nearest)
        offset = _quotient(length, d_man, length_exp - d_exp, prec)
        _, o_man, o_exp, _ = offset
        _, w_man, w_exp, _ = w
        _, b_man, b_exp, _ = big
        _, q_man, q_exp, _ = _quotient(b_man, d_man, b_exp - d_exp, prec)
        weight = (o_man * w_man * q_man, o_exp + w_exp + q_exp + 1)
        return (mp.make_mpf(mpf_sub(b, offset, prec, round_nearest)), weight,
                mp.make_mpf(mpf_add(a, offset, prec, round_nearest)), weight)

    return (mid, (half * (mpmath.pi / 2))._mpf_[1:3]), pair


def integrate_zero_to_inf(f: Integrand, ctx: ComputeContext) -> QuadratureResult:
    """Integrate f over (0, inf) with the exp-sinh transform.  Every project
    integrand has a finite limit at t = 0, so a vanishing weight on that
    side alone kills the term, and it is not evaluated."""
    return _integrate(f, ctx, ("exp-sinh",), lambda cutoff: _exp_sinh_nodes(skip_below=cutoff / 8))


def integrate_finite(f: Integrand, a: Real, b: Real, ctx: ComputeContext) -> QuadratureResult:
    """Integrate f over [a, b] with the tanh-sinh transform.

    Integrable endpoint singularities are fine at a = 0: the offsets from
    the nearer endpoint are formed without subtraction, and a + offset is
    then the offset itself.  Every other abscissa is a + offset or
    b - offset rounded at the working precision, which is the endpoint
    itself once the offset falls below half an ulp of it; so an integrand
    singular at b (or at a nonzero a) may be evaluated there, and a
    division by zero raises :class:`IntegrandEvaluationError`.  For
    1/sqrt(1 - x) on [0, 1] that happens at 20 digits.
    """
    if not a < b:
        raise ValueError(f"need a < b, got a={a}, b={b}")
    return _integrate(f, ctx, ("tanh-sinh", a, b), lambda cutoff: _tanh_sinh_nodes(mpf(a), mpf(b)))


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
