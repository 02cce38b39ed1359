"""The kernels shared by the cancellation-prone integrands.

Every improper integrand in this project is a difference of terms that
agree to several orders at t = 0; evaluated literally they lose
O(log10(1/t)) digits per cancelled order.  Each raw form pays for them
with the guard digits of :func:`cancellation_guard`.  The route module
also rebuilds each of its integrands near zero from a power series whose
coefficients already hold the cancelled differences, so the subtraction
is done exactly in the coefficients instead of in floating point: a
faster path where the workloads spend their time.  Each series lives
with the integrand that sums it; this module holds what they share.

Those series and the Stirling tail run on one kernel,
:class:`PowerSeries`.  It takes a coefficient function k -> c_k, exact
as an integer pair (p, q), q > 0, and sums sum_{k>=0} c_k z^k in fixed
point: per working precision (``mp.prec``) it keeps each c_k once as
the W-bit integer nearest to p 2^W / q, takes z once as a W-bit
integer, and sums by Horner's rule, acc = c_k + (acc z >> W), from the
last term down (:func:`_horner`, which the log Gamma Taylor series calls
too); only the final sum is rounded to an mpf.  A term costs one
integer multiply and one shift instead of a few pure-Python mpf
operations.  A near-zero form that is a quotient of
two known series (pain1's, pain2's, res1's) becomes one series by
:func:`quotient_series`.  Sequences grown term by term (such c_k, node
streams) are :class:`_Lazy`.

The W budget.  W = prec + 16 bits.  Each Horner step truncates by under
one unit of 2^-W and each stored c_k is off by at most half a unit; the
later steps multiply those errors by |z| <= 1/2, so the sum is off by a
few units of 2^-W in all, under a hundredth of 2^-prec relative to any
c_0 down to 1/48 (res1's, the smallest here).  Horner and not forward
powers: a forward sum truncates z^k before multiplying it by c_k, so the
error of a term grows with |c_k|, and the Stirling coefficients grow
factorially (summed forward, the Stirling tail was off by 2e8 units of
2^-prec at 70 digits and 5e141 at 420); Horner multiplies the running
sum by z, never a rounded power by c_k.

The number of terms comes from integer bit lengths: term k is below
2^(bits(c_k) + k log2 |z|) in units of 2^-W, log2 |z| bounded from above
by the bit length and top 8 bits of the fixed-point z, per which the
count is kept.  The sum keeps terms through the second of two
consecutive terms at or below 10^-(dps+5) times |c_0| (times 1 if
c_0 = 0), so a tiny result keeps its full working precision; two, lest
one coefficient happen to be small.  The series here converge for
|z| <= 0.5, far beyond every near-zero threshold used (2^-8).  A sum
that never meets the stop (an asymptotic series such as Stirling's, at
too large a z) has turned once its term bound has risen over 8
consecutive nonzero coefficients: a call raises ArithmeticError there,
and :meth:`PowerSeries.to_turn` sums through the smallest term.

The route integrands' raw forms run in the fixed-point frame of
:func:`raw_frame` and round once in :func:`fixed_quotient`, which divides
by :func:`_quotient`, the package's one rounding division; the log Gamma
representations' raw forms compute with the extra digits of
:func:`cancellation_guard` and round once, on return.  Hot loops, here
and in the routes and the engine, call libmp at an explicit precision
with ``round_nearest``, mpmath's own rounding, so they keep its bits
without an mpf wrapper or a precision block per term.  Each rounding of
an integer mantissa goes through :func:`_round`, and each division
through :func:`_quotient`, which repeats ``mpf_div``'s steps: both hand
libmp's ``normalize`` the exact ``int.bit_length()``, which
``from_man_exp`` and ``mpf_div`` would count again on mpmath's Python
backend by a bisect over powers of two and a ``math.log``.

The far tail has the opposite trouble.  The exp-sinh map also probes
t up to 10^(P+12) and beyond, where several raw forms subtract e^-t from
an algebraic term of size 1/t to 1/t^2.  There e^-t is far below half an
ulp of that term, yet mpmath spends milliseconds on it (an integer power
once t > 2^prec).  Past t = 2 prec, :func:`far`, every raw form whose
exponential is only a correction drops it, in the range where the value
rounds to the same bits either way.

One exp kernel, :func:`_exp`, takes the node pairs and the raw forms' E
with the bits of ``mpf_exp(x, prec, round_nearest)``.  It reduces
x = n ln 2 + y, then K stages (4 below wp = prec + 24 = 400 bits, 5
below 640, 7 above) each subtract from y the largest L_k[j] =
log(1 + j 2^-8k) not above it (j by bisect for k = 1, then y's next 8
bits or one more) and multiply an exact integer p by 2^8k + j; e^r for
the rest, r < 2^-8K, is a Taylor sum, and e^y = e^r p 2^-4K(K+1) one
short product.  It rounds once, to nearest, off by under a hundred units
of 2^-wp.  ``mpf_exp`` keeps 14 guard bits and is off by up to about a
hundred units of 2^-(prec+14) (66 measured), so the two round alike but
within 2^-7 ulp of a tie, where (2% of arguments) ``mpf_exp`` decides;
an integer x above 600 bits, where ``mpf_exp`` takes a power of e, is
rounded correctly instead.  It takes 1/1.4, 1/1.9 and 1/2.9 of
``mpf_exp``'s time at 50, 100 and 200 digits.  The tables are integer
constants of a width: one set per process, at 9/8 of the widest wp asked
(1028 entries at 50 digits; 1799, 0.28 MB, at 200).

Sums of integer logarithms -- the Hasse double sum, weighted by exact
integers in the route and as a forward-difference table in its scan,
the limit route's log G(n+1) and the Fourier partial sum -- read one
table, :func:`fixed_logs`: log 0..log N as W-bit
fixed-point integers, W = mp.prec + 10.  Only a prime takes a
logarithm, libmp's ``mpf_log(from_int(p), mp.prec, round_nearest)``
(the bits of ``mpmath.log(p)`` without its wrapper) taken to W bits; a
composite m is the exact integer sum of the entries of its least prime
factor p and of m/p, from a least-factor sieve.  So every entry is within
2^-prec log m + Omega(m) 2^-W of log m, Omega(m) its prime factors
counted with multiplicity, and a sum over the table is exact integer
arithmetic rounded once.  The table is built per call and kept by
nobody, and one of more than ``LOG_TABLE_CAP`` (2^20) entries is refused
before any is built: the largest any default or documented grid asks
runs to log 20001 (the Fourier route at N = 10000).

What lives as long as the process is a constant of a precision or of
nothing: each ``PowerSeries._cache`` (coefficients and term ``counts``
per working precision), the exp tables ``_EXP_TABLES``,
:func:`bernoulli`, and the module-level :class:`_Lazy` sequences (such
as ``routes._RES1_PAIRS``).  Only ``counts`` hits just across
computations: one computation's near-zero abscissae almost never repeat
a key (863 of 864 miss in ``run_all`` at 50 digits), the next one's at
the same precision all do (4573 per pain1 + kummer at 200 digits), and
a process that computes many times reads those hits.  Work shared within
one computation alone goes through ``quadrature.shared``.
"""

from __future__ import annotations

from bisect import bisect_right
from functools import cache
from itertools import count
from math import ceil, gcd, inf, isqrt, lcm, log2
from operator import mul
from typing import Callable

import mpmath
from mpmath import mp, mpf
from mpmath.libmp import from_int, ln2_fixed, mpf_exp, mpf_log, normalize, round_nearest, to_fixed

from .context import DomainError

# Guard bits of the fixed-point sum beyond the working precision.
_GUARD_BITS = 16

# Consecutive rises of the term bound, over nonzero coefficients, that
# mark a series as diverging at the z summed.
_DIVERGING_RISES = 8


class PowerSeries:
    """sum_{k>=0} c_k z^k, with ``coefficient(k)`` giving c_k as an exact
    integer pair (p, q), q > 0.

    The sum is taken in W-bit fixed point by Horner's rule and rounded
    once (see the module docstring for W and the stop).  ``coefficient``
    is called at most once per k and working precision, and c_k kept as
    the W-bit integer nearest to p 2^W / q.  ``z`` is an mpf.
    """

    def __init__(self, coefficient: Callable[[int], tuple[int, int]]):
        self._coefficient = coefficient
        self._cache: dict[int, _FixedCoefficients] = {}

    def __call__(self, z: mpf) -> mpf:
        table, z_fixed = self._frame(z)
        n = table.terms(abs(z_fixed) + 1)
        if n < 0:
            raise ArithmeticError(f"power series diverges at z = {mpmath.nstr(z, 5)}")
        return mp.make_mpf(_round(_horner(table.fixed, n, z_fixed, table.width), -table.width, mp.prec))

    def to_turn(self, z: mpf, n: int | None = None) -> tuple[mpf, mpf, int]:
        """(sum, bound of the first omitted term, n), the sum of the first
        n terms: as many as a call sums or, on a series that turns at z,
        through its smallest term, unless ``n`` is given."""
        table, z_fixed = self._frame(z)
        if n is None:
            n = abs(table.terms(abs(z_fixed) + 1))
        while n >= len(table.fixed):
            table._extend()
        width = table.width
        log2_z = log2(abs(z_fixed) + 1) - width       # term n < |c_n| |z|^n
        value = _round(_horner(table.fixed, n, z_fixed, width), -width, mp.prec)
        return mp.make_mpf(value), mpf(2) ** (table.bits[n] - width + n * log2_z), n

    def _frame(self, z: mpf) -> tuple[_FixedCoefficients, int]:
        """This precision's coefficient table, and z on its frame."""
        table = self._cache.get(mp.prec)
        if table is None:
            table = self._cache[mp.prec] = _FixedCoefficients(self._coefficient)
        return table, to_fixed(z._mpf_, table.width)


def _horner(fixed: list[int], n: int, z: int, width: int) -> int:
    """sum_{k<n} fixed[k] z^k in ``width``-bit fixed point, by Horner's
    rule from the last term down, each step truncated."""
    acc = 0
    for c in fixed[n - 1::-1]:
        acc = c + (acc * z >> width)
    return acc


def quotient_series(
    numerator: Callable[[int], tuple[int, int]],
    denominator: Callable[[int], tuple[int, int]],
) -> PowerSeries:
    """The power series of (sum a_k z^k) / (sum b_k z^k), b_0 != 0.

    ``numerator(k)`` and ``denominator(k)`` give a_k and b_k exactly, as
    integer pairs; c_k = (a_k - sum_{j=1..k} b_j c_(k-j)) / b_0 is exact,
    given to the kernel as its reduced pair, and built only as far as a
    sum first asks, so nothing is computed at import.  The b_j and the
    c_j are kept as integer numerators over one running common
    denominator each, so the convolution is plain integer products and
    each new c_k costs one gcd.
    """
    def pairs():
        b: list[int] = []           # b_j = b[j] / b_den
        c: list[int] = []           # c_j = c[j] / c_den
        b_den = c_den = 1
        for n in count():
            b_den, b = _common(b, b_den, *denominator(n))
            # c_n = (a_n - S / (b_den c_den)) b_den / b[0], S = sum b_j c_(n-j)
            tail = sum(map(mul, b[1:], reversed(c)))
            p, q = numerator(n)
            num = p * b_den * c_den - q * tail
            den = q * c_den * b[0]
            g = gcd(num, den) * (-1 if den < 0 else 1)
            pair = num // g, den // g
            c_den, c = _common(c, c_den, *pair)
            yield pair

    return PowerSeries(_Lazy(pairs()).__getitem__)


def _common(nums: list[int], den: int, p: int, q: int) -> tuple[int, list[int]]:
    """(D, numerators) of the values nums[j] / den and p / q (q != 0) over
    their least common denominator D = lcm(den, |q|)."""
    new = lcm(den, q)
    scale = new // den
    if scale != 1:
        nums = [x * scale for x in nums]
    return new, nums + [p * (new // q)]


class _Lazy:
    """A sequence computed lazily and once, shared by all its readers.

    ``seq[k]`` steps ``source`` (an iterator) past the last item computed
    as far as item k, so every reader sees the same objects in the same
    order.  Past the end of a finite source it raises IndexError, which
    ends a ``for`` loop over it.
    """

    def __init__(self, source):
        self._items = []
        self._source = source

    def __getitem__(self, k: int):
        items = self._items
        if k >= len(items):
            for item in self._source:
                items.append(item)
                if len(items) > k:
                    break
        return items[k]


class _FixedCoefficients:
    """The W-bit integers c_k of one series at one working precision, their
    bit lengths, and the term count per magnitude of z."""

    __slots__ = ("coefficient", "width", "fixed", "bits", "limit", "counts")

    def __init__(self, coefficient: Callable[[int], tuple[int, int]]):
        self.coefficient = coefficient
        self.width = mp.prec + _GUARD_BITS
        self.fixed: list[int] = []
        self.bits: list[int] = []
        self.counts: dict[tuple[int, int], int] = {}
        self._extend()
        # A term is small once its bound is at or below 10^-(dps+5) of
        # |c_0| >= 2^(bits(c_0) - 1), or of 1 = 2^W when c_0 = 0.
        scale = self.bits[0] - 1 if self.fixed[0] else self.width
        self.limit = scale - ceil((mp.dps + 5) * log2(10))

    def _extend(self) -> None:
        p, q = self.coefficient(len(self.fixed))
        c = ((p << (self.width + 1)) // q + 1) >> 1     # nearest to p 2^W / q
        self.fixed.append(c)
        self.bits.append(abs(c).bit_length())

    def terms(self, z_bound: int) -> int:
        """How many terms a z with |z| 2^W <= ``z_bound`` needs, kept per bit
        length and top 8 bits of ``z_bound`` (they bound log2 |z| from above
        to within 0.012); -n where the term bound has risen over
        ``_DIVERGING_RISES`` consecutive nonzero coefficients, the series
        turned and n counting the terms through its least bound."""
        bits = z_bound.bit_length()
        top = z_bound >> (bits - 8) if bits > 8 else z_bound << (8 - bits)
        key = (bits, top)
        n = self.counts.get(key)
        if n is None:
            log2_z = log2(top + 1) + bits - 8 - self.width
            k = small = rises = least = 0
            last = smallest = inf
            while small < 2:
                if k == len(self.fixed):
                    self._extend()
                if self.fixed[k] == 0:
                    small += 1
                else:
                    bound = self.bits[k] + k * log2_z
                    small = small + 1 if bound <= self.limit else 0
                    rises = rises + 1 if bound > last else 0
                    if bound < smallest:
                        smallest, least = bound, k
                    if rises == _DIVERGING_RISES:
                        k = -least - 1
                        break
                    last = bound
                k += 1
            n = self.counts[key] = k
        return n


def cancellation_guard(t, digits_per_decade: int) -> int:
    """Extra decimal digits a raw integrand form needs at abscissa t.

    ``digits_per_decade`` is how many digits per decade of smallness the
    form loses (the order gap between its raw terms and their cancelled
    sum); the constant 10 covers the O(1) bookkeeping losses.

    The decade count is ceil(-log10 t) bounded from above in integers:
    with m = mag(t), read off the mpf t > 0 as its exponent plus bit
    count, t >= 2^(m-1), so -log10 t <= (1 - m) log10 2 < (1 - m) 0.30103.
    It is never below the exact count and at most one decade above it,
    and it costs no logarithm; t >= 1 exactly when m >= 1, so it costs
    no mpf comparison either.
    """
    _, _, exp, bc = t._mpf_
    bits = 1 - exp - bc
    if bits <= 0:
        return 10
    return 10 + digits_per_decade * -(-bits * 30103 // 100000)


def raw_frame(t: mpf, digits_per_decade: int) -> tuple[int, int]:
    """(W, t 2^W), W = mp.prec plus the bits of ``cancellation_guard(t,
    digits_per_decade)``: the fixed-point frame of a raw integrand form.

    A form that loses d digits per decade of t below 1 keeps the margin
    it had as extra digits: t 2^W is exact (the guard's bits exceed
    -log2 t), and each transcendental or product cut to the frame is off
    by under 2^-W, which the cancellation magnifies as it did a rounding
    at W bits.
    """
    width = mp.prec - (-cancellation_guard(t, digits_per_decade) * 3322 // 1000)
    return width, to_fixed(t._mpf_, width)


def exp_neg(t: mpf) -> tuple:
    """E = e^(-t/2), t > 0, by the exp kernel, as an ``_mpf_`` of W + 4
    bits, W that of ``raw_frame(t, 3)``, the widest route frame: cut to
    W' <= W bits E is off by under 2^-W' (1 + 2^-4), and E^2 by about
    2^-(W+3) relative."""
    _, man, exp, bc = t._mpf_
    return _exp((1, man, exp - 1, bc), raw_frame(t, 3)[0] + 4)


_EXP_TABLES: list = [0, []]     # [width, [L_1, ..., L_K]]: one set per process


def _exp(x: tuple, prec: int) -> tuple:
    """``mpf_exp(x, prec, round_nearest)`` of a raw mpf x, the same bits
    by table-driven reduction (see the module docstring)."""
    _, man, exp, bc = x
    if not man or prec < 48:        # 0, inf, nan; or too narrow for four stages
        return mpf_exp(x, prec, round_nearest)
    wp = prec + 24
    stages = _stages(wp)
    if _EXP_TABLES[0] < wp:
        width = wp + (wp >> 3)
        _EXP_TABLES[:] = width, _log_tables(width, _stages(width))
    width, tables = _EXP_TABLES
    extra = max(exp + bc, 0)                # x = n ln 2 + y, 0 <= y < ln 2
    n, y = divmod(to_fixed(x, width + extra), ln2_fixed(width + extra))
    y >>= extra
    # y = sum_k L_k[j_k] + r, so e^y = e^r prod_k (2^8k + j_k) / 2^8k
    first = tables[0]
    j = bisect_right(first, y) - 1
    y -= first[j]
    p, at = 256 + j, width - 8
    for table in tables[1:stages]:
        at -= 8
        j = y >> at
        if table[j + 1] <= y:
            j += 1
        y -= table[j]
        p *= (1 << width - at) + j
    r = y >> width - wp                     # e^r by Taylor, r < 2^-8K
    even = odd = 1 << wp
    a = r2 = r * r >> wp
    k = 2
    while a:
        a //= k
        even += a
        a //= k + 1
        odd += a
        k += 2
        a = a * r2 >> wp
    f = (even + (odd * r >> wp)) * p >> 4 * stages * (stages + 1)
    # one rounding; within 2^-7 ulp of a tie mpf_exp's own error may
    # round the other way, so it decides
    half = 1 << (f.bit_length() - prec - 1)
    if abs((f & (2 * half - 1)) - half) < half >> 6:
        return mpf_exp(x, prec, round_nearest)
    return _round(f, n - wp, prec)


def _stages(wp: int) -> int:
    """Table stages at wp bits: each takes 8 bits off the Taylor argument."""
    return 4 if wp < 400 else 5 if wp < 640 else 7


def _log_tables(width: int, stages: int) -> list[list[int]]:
    """[L_1, ..., L_stages], L_k[j] = log(1 + j 2^-8k), j = 0..256, in
    ``width``-bit fixed point, within one unit: running sums of
    log((2^8k + j) / (2^8k + j - 1)) = 2 atanh(1/m), m = 2^(8k+1) + 2j - 1,
    each series summed exactly over d m^top by Horner's rule in m^2 and
    floored at width + 24 bits, each sum rounded once."""
    bits = width + 24
    tables = []
    for k in range(1, stages + 1):
        top = bits // (16 * k + 2) * 2 + 1      # terms 1/(n m^n), odd n <= top
        d = lcm(*range(1, top + 1, 2))
        numerators = [d // n for n in range(1, top + 1, 2)]
        row, total = [0], 0
        for m in range((2 << 8 * k) + 1, (2 << 8 * k) + 512, 2):
            m2, p = m * m, 0
            for c in numerators:
                p = p * m2 + c
            total += (p << bits + 1) // (d * m**top)
            row.append(total + (1 << 23) >> 24)
        tables.append(row)
    return tables


def fixed_quotient(num: int, den: int, exponent: int = 0) -> mpf:
    """(num / den) 2^exponent, den > 0, as an mpf rounded once at the
    working precision by :func:`_quotient`."""
    return mp.make_mpf(_quotient(num, den, exponent, mp.prec))


def _round(man: int, exp: int, prec: int) -> tuple:
    """``from_man_exp(man, exp, prec, round_nearest)`` of a signed integer
    mantissa: libmp's ``normalize``, handed the exact bit length."""
    if man < 0:
        man = -man
        return normalize(1, man, exp, man.bit_length(), prec, round_nearest)
    return normalize(0, man, exp, man.bit_length(), prec, round_nearest)


def _quotient(p: int, q: int, exp: int, prec: int) -> tuple:
    """(p / q) 2^exp, q > 0, rounded to nearest at ``prec`` bits by
    ``mpf_div``'s own steps: a quotient of prec + 5 or more bits, a sticky
    bit for a remainder, and ``normalize`` on the exact bit length."""
    sign = 0
    if p < 0:
        sign, p = 1, -p
    extra = prec - p.bit_length() + q.bit_length() + 5
    if extra < 5:
        extra = 5
    quot, rem = divmod(p << extra, q)
    if rem:
        quot = quot << 1 | 1
        extra += 1
    return normalize(sign, quot, exp - extra, quot.bit_length(), prec, round_nearest)


def far(t: mpf) -> bool:
    """t > 2 mp.prec, where a raw form drops its exponential.

    Past it e^(-t/2) < 2^(-1.44 prec) and e^-t < 2^(-2.88 prec).  pain1's
    and res2's fractions move by O(e^(-t/2)) relative; res1, the Feaux
    bracket, Dirichlet and Fourier a_n add e^-t (times a shared factor)
    to terms of size 1/t to 1/t^2, and t^2 e^-t < 2^(-prec-2) for every
    prec >= 10.  Either way the dropped part is under a quarter ulp, so
    the exact 0 moves no bit after rounding.  pain2's e^-x and Kummer's
    sinh ratio are the whole value there and never take this cut.

    The bit lengths of t's mantissa and of 2 prec decide, or, when equal
    after the exponent, the integers; t <= 0 or not finite compares mpfs.
    """
    sign, man, exp, bc = t._mpf_
    limit = 2 * mp.prec
    if sign or not man:
        return t > limit
    top = exp + bc - limit.bit_length()
    if top:
        return top > 0
    return man << exp > limit if exp >= 0 else man > limit << -exp


@cache
def bernoulli(n: int) -> tuple[int, int]:
    """B_n as the reduced pair (p, q) of ``mpmath.bernfrac``, kept for the process."""
    return mpmath.bernfrac(n)


LOG_TABLE_CAP = 2 ** 20


def fixed_logs(n: int) -> tuple[int, list[int]]:
    """(W, [log 0, log 1, ..., log n]) with each log m as the W-bit
    fixed-point integer of log m, W = mp.prec + 10; log 0 stands as 0.

    A prime takes ``mpf_log`` at ``mp.prec`` with ``round_nearest`` (the
    bits of ``mpmath.log``); a composite adds the entries of its least
    prime factor and of the cofactor (see the module docstring for the
    error).  More than ``LOG_TABLE_CAP`` entries is a DomainError.
    """
    if n + 1 > LOG_TABLE_CAP:
        # Past 2^64 the count as a power of two: a decimal string of over
        # 4300 digits raises ValueError.
        entries = n + 1 if n < 2 ** 64 else f"2^{(n + 1).bit_length() - 1} or more"
        raise DomainError(
            f"a log table of {entries} entries is above the cap of {LOG_TABLE_CAP} entries"
        )
    prec = mp.prec
    width = prec + 10
    # least[m] ends as the least prime factor of m: each d overwrites its
    # multiples from d^2 on, and the smaller d come last.
    least = list(range(n + 1))
    for d in range(isqrt(n), 1, -1):
        least[d * d::d] = [d] * len(range(d * d, n + 1, d))
    logs = [0] * (n + 1)
    for m in range(2, n + 1):
        p = least[m]
        logs[m] = (to_fixed(mpf_log(from_int(m), prec, round_nearest), width) if p == m
                   else logs[p] + logs[m // p])
    return width, logs
