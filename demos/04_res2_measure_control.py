"""Settling the dt vs dt/t measure question numerically.

The source's final display of the second integral identity drops the /t
from the measure next to a dangling minus sign.  Re-deriving the inner
x-integral gives tanh(t/4)/t with measure dt/t, and the numbers agree:
the dt/t variant meets log A from the Fourier series (a route that shares
no code with the quadrature engine) to the working precision, while the
dt variant diverges logarithmically -- any truncation of it lands far
from every honest route.

    python demos/04_res2_measure_control.py
"""

import mpmath

from glaisher import make_context, route_fourier_series, route_kummer
from glaisher.quadrature import integrate_finite
from glaisher.routes import RES2_DT_INTEGRAND
from mpmath import mpf

ctx = make_context(50)
log_a = route_fourier_series(ctx).value
print(f"Fourier log A         : {mpmath.nstr(log_a, 40)}\n")

good = route_kummer(ctx, measure="dt_over_t")
with ctx.workdps(10):
    gap = abs(good.value - log_a)
print(f"dt/t variant          : {mpmath.nstr(good.value, 40)}")
print(f"  gap vs Fourier      : {mpmath.nstr(gap, 3)}\n")

ctrl = route_kummer(ctx, measure="dt")
with ctx.workdps(10):
    gap = abs(ctrl.value - log_a)
print(f"dt variant (T = {ctrl.parameters['truncation']})   : {mpmath.nstr(ctrl.value, 20)}")
print(f"  gap vs Fourier      : {mpmath.nstr(gap, 3)}  (> 0.01 control threshold)\n")

# the dt integral has no limit at all: its value grows with the truncation
print("dt variant grows with the truncation horizon (divergence in action):")
for upper in (25, 50, 100, 200):
    r = integrate_finite(RES2_DT_INTEGRAND, mpf(0), mpf(upper), ctx=ctx)
    with ctx.workdps(10):
        log_a = ctx.constants.log2 / 36 + r.value / 3
    print(f"  T = {upper:4d}: {mpmath.nstr(log_a, 12)}")
