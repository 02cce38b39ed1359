"""Command-line interface: compute / verify / convergence.

Exit codes follow the verification-tool contract:

* 0 -- success (compute: all requested routes agree pairwise within ten
  times the sum of their error estimates; verify: all identity residuals
  below tolerance).
* 1 -- configuration error (unknown route, empty grid, bad digits), or
  a route that refused the requested precision or parameters while every
  route that ran agreed.
* 2 -- numerical disagreement (a route pair out of tolerance, a residual
  above tolerance) or a route that failed numerically.

Values in text mode are truncated to (digits - 10) displayed digits so
the output never implies precision the error estimates do not back.
"""

from __future__ import annotations

import argparse
import os
import sys

import mpmath
from mpmath import mpf

from . import __version__
from .context import PrecisionError, make_context, real_to_decimal
from .report import (
    CSV_HEADER,
    ConfigError,
    convergence_study,
    run_all,
    serialize,
)
from .routes import (
    ROUTE_IDS,
    gla2_residual,
    glaisher_identity_residual,
    log_sin_check,
    route_feaux,
)

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_DISAGREE = 2


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="glaisher",
        description=(
            "Compute log A (A = Glaisher-Kinkelin constant) by independent "
            "routes and cross-validate them. Expected consensus is "
            "log A = 0.2487544770... (documentation only, never an oracle)."
        ),
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument(
            "--digits",
            type=int,
            default=None,
            help="working precision in decimal digits (default 50; the "
            "GLAISHER_DIGITS environment variable overrides the default)",
        )
        p.add_argument(
            "--output",
            choices=("text", "json", "csv"),
            default="text",
            help="output format (default text)",
        )
        p.add_argument("--out", default=None, help="write output to this file instead of stdout")

    compute = sub.add_parser("compute", help="run routes and print the agreement matrix")
    add_common(compute)
    compute.add_argument(
        "--routes",
        default=",".join(ROUTE_IDS),
        help=f"comma-separated route ids (default: all of {','.join(ROUTE_IDS)})",
    )
    compute.add_argument("--limit-n", type=int, default=64, help="base index n for the limit route")
    compute.add_argument(
        "--limit-order", type=int, default=3, help="Richardson order for the limit route"
    )
    compute.add_argument(
        "--fourier-n", type=int, default=100, help="partial-sum length for the series route"
    )
    compute.add_argument(
        "--accelerate",
        action=argparse.BooleanOptionalAction,
        default=True,
        help="apply the Euler-Maclaurin tail correction to the series route",
    )
    compute.add_argument(
        "--hasse-n", type=int, default=80, help="outer-sum length for the hasse route"
    )
    compute.add_argument(
        "--res2-measure",
        choices=("dt_over_t", "dt"),
        default="dt_over_t",
        help="measure of the kummer-route integral; 'dt' is the deliberate "
        "negative control demonstrating that reading of the identity is a "
        "typo (it must disagree with every other route)",
    )

    verify = sub.add_parser("verify", help="check the identity residuals")
    add_common(verify)
    verify.add_argument(
        "--corrupt-constant",
        action="store_true",
        help="debug negative control: perturb the 7/24 coefficient of the "
        "half-integral identity (the run must then fail with exit 2)",
    )

    conv = sub.add_parser("convergence", help="measure route error against consensus over a grid")
    add_common(conv)
    conv.add_argument(
        "--route",
        default="fourier_series",
        help="route to study: limit, fourier_series, or hasse",
    )
    conv.add_argument(
        "--grid",
        default="",
        help="comma-separated ascending parameter values, e.g. 100,1000,10000",
    )
    conv.add_argument(
        "--accelerate",
        action=argparse.BooleanOptionalAction,
        default=False,
        help="study the accelerated series instead of raw partial sums",
    )
    return parser


def _resolve_digits(args) -> int:
    if args.digits is not None:
        return args.digits
    env = os.environ.get("GLAISHER_DIGITS")
    if env is not None:
        try:
            return int(env)
        except ValueError as exc:
            raise ConfigError(f"GLAISHER_DIGITS is not an integer: {env!r}") from exc
    return 50


def _emit(args, text: str) -> None:
    if args.out:
        with open(args.out, "w") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _fmt(value, shown) -> str:
    return real_to_decimal(value, max(shown, 5))


def cmd_compute(args) -> int:
    digits = _resolve_digits(args)
    ctx = make_context(digits)
    route_set = [r.strip() for r in args.routes.split(",") if r.strip()]
    params = {
        "limit_n": args.limit_n,
        "limit_order": args.limit_order,
        "fourier_n": args.fourier_n,
        "fourier_accelerate": args.accelerate,
        "hasse_n": args.hasse_n,
        "res2_measure": args.res2_measure,
    }
    doc = run_all(ctx, route_set, params)

    # Pairwise agreement: each |difference| must stay below ten times the
    # summed error estimates of the pair.
    disagreements = []
    with ctx.workdps(10):
        ests = doc.estimates
        for i in range(len(ests)):
            for j in range(i + 1, len(ests)):
                gap = abs(ests[i].value - ests[j].value)
                allowed = 10 * (ests[i].error_estimate + ests[j].error_estimate)
                if gap > allowed:
                    disagreements.append((ests[i].route_id, ests[j].route_id, gap, allowed))
    failures = [f for f in doc.failures if f.route_id != "identity_checks"]

    if args.output == "json":
        _emit(args, serialize(doc, "json").decode() + "\n")
    elif args.output == "csv":
        _emit(args, serialize(doc, "csv").decode())
    else:
        shown = max(digits - 10, 5)
        lines = [f"log A estimates at {digits} digits (showing {shown}):"]
        for e in doc.estimates:
            lines.append(
                f"  {e.route_id:16s} {_fmt(e.value, shown)}"
                f"   (error est {mpmath.nstr(e.error_estimate, 3)}, "
                f"{e.evaluations} evaluations, {e.elapsed:.2f}s)"
            )
        for f in doc.failures:
            lines.append(f"  {f.route_id:16s} {'REFUSED' if f.refused else 'FAILED'}: {f.error}")
        lines.append("pairwise |difference| matrix:")
        ids = doc.agreement_matrix["routes"]
        for rid, row in zip(ids, doc.agreement_matrix["matrix"]):
            cells = " ".join(f"{mpmath.nstr(v, 3):>10s}" for v in row)
            lines.append(f"  {rid:16s} {cells}")
        if disagreements:
            lines.append("DISAGREEMENTS:")
            for a, b, gap, allowed in disagreements:
                lines.append(
                    f"  {a} vs {b}: |delta| = {mpmath.nstr(gap, 4)} "
                    f"> allowed {mpmath.nstr(allowed, 4)}"
                )
        else:
            which = "the routes that ran" if failures else "all requested routes"
            lines.append(f"{which} agree pairwise within tolerance")
        _emit(args, "\n".join(lines) + "\n")

    if disagreements or not all(f.refused for f in failures):
        return EXIT_DISAGREE
    return EXIT_CONFIG if failures else EXIT_OK


def cmd_verify(args) -> int:
    digits = _resolve_digits(args)
    ctx = make_context(digits)
    log_a = route_feaux(ctx).value
    corruption = mpf(7) / 25 if args.corrupt_constant else None
    residuals = [
        glaisher_identity_residual(ctx, log_a=log_a, log2_coefficient=corruption),
        gla2_residual(ctx, log_a=log_a),
        log_sin_check(ctx),
    ]
    lines = [f"identity residuals at {digits} digits (tolerance {mpmath.nstr(ctx.target_tolerance, 3)}):"]
    failed = False
    for r in residuals:
        ok = abs(r.residual) < r.tolerance_used
        failed = failed or not ok
        lines.append(
            f"  {r.identity_id:16s} residual = {mpmath.nstr(r.residual, 4):>12s}  "
            f"{'ok' if ok else 'EXCEEDS TOLERANCE'}"
        )
    if args.corrupt_constant:
        lines.append("  (ran with the deliberately corrupted 7/25 coefficient)")
    _emit(args, "\n".join(lines) + "\n")
    return EXIT_DISAGREE if failed else EXIT_OK


def cmd_convergence(args) -> int:
    digits = _resolve_digits(args)
    ctx = make_context(digits)
    if not args.grid.strip():
        raise ConfigError("convergence requires a non-empty --grid")
    try:
        grid = [int(g) for g in args.grid.split(",") if g.strip()]
    except ValueError as exc:
        raise ConfigError(f"grid values must be integers: {args.grid!r}") from exc
    if not grid:
        raise ConfigError("convergence requires a non-empty --grid")
    records = convergence_study(
        args.route, grid, ctx, params={"fourier_accelerate": args.accelerate}
    )
    lines = [CSV_HEADER]
    for c in records:
        if c.error:
            lines.append(f"{c.route_id},{c.parameter},{c.parameter_value},,")
        else:
            lines.append(
                f"{c.route_id},{c.parameter},{c.parameter_value},"
                f"{real_to_decimal(c.estimate, digits)},"
                f"{real_to_decimal(c.abs_delta_vs_consensus, digits)}"
            )
    _emit(args, "\n".join(lines) + "\n")
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "compute":
            return cmd_compute(args)
        if args.command == "verify":
            return cmd_verify(args)
        if args.command == "convergence":
            return cmd_convergence(args)
        raise ConfigError(f"unknown command {args.command!r}")
    except (ConfigError, PrecisionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
