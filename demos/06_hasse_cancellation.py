"""The Hasse-type double sum: catastrophic cancellation made visible.

The inner alternating binomial sums reach ~2^n before collapsing to
contributions of about 2/(n (log n)^3), so ~0.302 n decimal digits
vanish into cancellation.  The route sums over k first, weighting each
fixed-point f(k) = (k+1)^2 log(k+1) by an exact integer; the weights
reach ~2^N and multiply the roundings of f in the same way, so it
refuses precision budgets that cannot absorb that.  The scan for the
first N with enough digits reads every partial sum off a forward-
difference table of f instead.
Convergence is honest but slow: the outer terms decay like
2/(n^2 (log n)^3), so the measured profile reaches 4 relative digits
first at N = 176, 5 at N = 849, and 6 only at N = 4597.

    python demos/06_hasse_cancellation.py
"""

import mpmath


from glaisher import (
    PrecisionError,
    consensus_log_a,
    hasse_first_n,
    hasse_required_digits,
    make_context,
    route_hasse,
)

print("precision rule: context digits >= ceil(0.302 N) + 20")
for n in (40, 80, 200):
    print(f"  N = {n:4d} needs >= {hasse_required_digits(n)} digits")

print("\nrefusal in action: N = 60 at 30 digits")
try:
    route_hasse(make_context(30), n_terms=60)
except PrecisionError as exc:
    print(f"  PrecisionError: {exc}")

ctx = make_context(hasse_required_digits(200))
consensus = consensus_log_a(ctx)

print(f"\nconvergence vs consensus at {ctx.precision_digits} digits:")
for n in (10, 40, 80, 160, 200):
    est = route_hasse(ctx, n_terms=n)
    with ctx.workdps(10):
        err = abs(est.value - consensus) / consensus
        rel_estimate = est.error_estimate / consensus
    print(f"  N = {n:4d}: relative gap {mpmath.nstr(err, 3)}  "
          f"(relative estimate {mpmath.nstr(rel_estimate, 3)})")

first4, _ = hasse_first_n(ctx, digits=4, n_max=200, consensus=consensus)
first6, best = hasse_first_n(ctx, digits=6, n_max=200, consensus=consensus)
print(f"\nfirst N with 4 relative digits: {first4}")
print(f"first N with 6 relative digits below 200: {first6} "
      f"(best gap {mpmath.nstr(best, 3)}; the 2/(n^2 (log n)^3) term law puts "
      f"6 digits first at N = 4597)")
