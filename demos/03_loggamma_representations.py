"""Four ways to compute log Gamma, cross-checked.

The Stirling oracle (series + recurrence shift) is the yardstick; the
Feaux and Kummer integrals hit it to 58 and 47 digits at 50-digit working
precision, while the Fourier sine series crawls at log(N)/N and exists to
validate the expansion, not to compute with.  Each integral returns its
quadrature result, so the error estimate comes with the value.

    python demos/03_loggamma_representations.py
"""

import mpmath
from mpmath import mpf

from glaisher import (
    feaux_log_gamma1p,
    fourier_a_n,
    kummer_fourier_log_gamma,
    kummer_log_gamma,
    log_gamma_ref,
    make_context,
)

ctx = make_context(50)

print("log Gamma(x) four ways, x = 1/4:\n")
with ctx.workdps(10):
    x = mpf(1) / 4
    oracle = log_gamma_ref(x, ctx)
    kummer = kummer_log_gamma(x, ctx)
    feaux = feaux_log_gamma1p(x, ctx)
    feaux_shifted = feaux.value - mpmath.log(x)   # shift down by log x
    print(f"  Stirling oracle : {mpmath.nstr(oracle, 40)}")
    print(f"  Kummer integral : {mpmath.nstr(kummer.value, 40)}")
    print(f"  Feaux integral  : {mpmath.nstr(feaux_shifted, 40)}")
    print(f"  |Kummer-oracle| = {mpmath.nstr(abs(kummer.value - oracle), 3)}"
          f"   (estimate {mpmath.nstr(kummer.error_estimate, 3)})")
    print(f"  |Feaux -oracle| = {mpmath.nstr(abs(feaux_shifted - oracle), 3)}"
          f"   (estimate {mpmath.nstr(feaux.error_estimate, 3)})")

print("\nFourier sine series partial sums at x = 1/4 (slow by design):")
for n in (10, 100, 1000, 10000):
    value = kummer_fourier_log_gamma(mpf(1) / 4, n, ctx)
    with ctx.workdps(10):
        err = abs(value - oracle)
    print(f"  N = {n:6d}: error {mpmath.nstr(err, 3)}")

print("\nFourier coefficients a_n, integral form vs closed form:")
for n in range(1, 6):
    fc = fourier_a_n(n, ctx)
    with ctx.workdps(10):
        gap = abs(fc.integral_value - fc.closed_form_value)
    print(f"  a_{n} = {mpmath.nstr(fc.closed_form_value, 25)}   |integral - closed| = {mpmath.nstr(gap, 3)}")
