"""Euler-Maclaurin rescue of the appendix series.

The series log A = (log 2)/36 + (gamma + log 2pi)/12
+ (2/(3 pi^2)) sum log(2n+1)/(2n+1)^2 converges like log(N)/N: a hundred
thousand raw terms buy five digits.  The Euler-Maclaurin tail correction
(the integral plus two power series in 4/(2N+1)^2 with exact Bernoulli
coefficients, summed on the shared kernel to the precision or to their
turn) makes one hundred terms full working precision, up to about 275
digits; the route's default N, max(100, floor(0.37 P) + 10), follows the
precision past that.

    python demos/05_series_acceleration.py
"""

import mpmath

from glaisher import consensus_log_a, make_context, route_fourier_series

ctx = make_context(50)
consensus = consensus_log_a(ctx)

print("raw partial sums (log N / N tail):")
for n in (100, 1000, 10000):
    est = route_fourier_series(ctx, n_terms=n, accelerate=False)
    with ctx.workdps(10):
        err = abs(est.value - consensus)
        scale = err * n / mpmath.log(n)
    print(f"  N = {n:6d}: error {mpmath.nstr(err, 3)}   error*N/log(N) = {mpmath.nstr(scale, 3)}")

print("\naccelerated (Euler-Maclaurin tail, Bernoulli series summed to the precision or the turn):")
estimates = {}
for n in (10, 30, 100):
    est = estimates[n] = route_fourier_series(ctx, n_terms=n, accelerate=True)
    with ctx.workdps(10):
        err = abs(est.value - consensus)
    print(f"  N = {n:6d}: error {mpmath.nstr(err, 3)}   (estimate {mpmath.nstr(est.error_estimate, 3)})")

print("\nthe near-constant error*N/log(N) column is the measured Theta(log N / N) scale;")
print(f"at N = 100 the tail reaches the 50-digit working precision (estimate "
      f"{mpmath.nstr(estimates[100].error_estimate, 2)}, the route's floor);")
print(f"at N = 10 the asymptotic series turn near {mpmath.nstr(estimates[10].error_estimate, 2)}, "
      f"and the estimate says so.")
