"""The double-exponential engine against integrals with known values.

Every value the toolkit reports comes with an error estimate; this demo
audits those estimates on a corpus where the truth is known exactly.  A
margin of m means the allowed band (ten times the estimate) exceeds the
actual error by a factor of m -- anything >= 1 is honest.

    python demos/02_quadrature_honesty.py
"""

import mpmath
from mpmath import mpf

from glaisher import Integrand, error_model_check, euler_gamma_ref, make_context
from glaisher.loggamma import DIRICHLET_INTEGRAND

ctx = make_context(50)

with mpmath.mp.workdps(70):
    log_sin_exact = -mpmath.log(2) / 2

corpus = [
    # exponential decay, the tame reference case
    (Integrand(eval=lambda t: mpmath.exp(-t), label="exp(-t)"), mpf(1)),
    # algebraic decay
    (Integrand(eval=lambda t: 1 / (1 + t) ** 2, label="1/(1+t)^2"), mpf(1)),
    # cancellation near zero, handled by its series form
    (DIRICHLET_INTEGRAND, euler_gamma_ref(ctx)),
    # integrable log singularity at the left endpoint
    (Integrand(eval=lambda x: mpmath.log(mpmath.sin(mpmath.pi * x)), label="log sin(pi x)"),
     log_sin_exact, (mpf(0), mpf(1) / 2)),
    # algebraic endpoint singularity
    (Integrand(eval=lambda x: 1 / mpmath.sqrt(x), label="x^(-1/2)"),
     mpf(2), (mpf(0), mpf(1))),
]

report = error_model_check(corpus, ctx)
print(f"error-model audit at {ctx.precision_digits} digits\n")
print(f"{'integrand':16s} {'true error':>12s} {'estimate':>12s} {'margin':>10s}")
for e in report.entries:
    print(f"{e.label:16s} {mpmath.nstr(e.true_error, 3):>12s} "
          f"{mpmath.nstr(e.error_estimate, 3):>12s} {mpmath.nstr(e.margin, 3):>10s}")
print(f"\nall honest: {report.all_ok}")

# negative control: a wrong "exact" value must be flagged
bad = error_model_check([(corpus[0][0], mpf("1.001"))], ctx)
print(f"negative control (exact=1.001 for exp(-t)) flagged: {not bad.all_ok}")
