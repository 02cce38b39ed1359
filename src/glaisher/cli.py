"""Command-line interface: compute / verify / convergence.

Exit codes follow the verification-tool contract:

* 0 -- success (compute: all requested routes agree pairwise within ten
  times the sum of their error estimates and every identity check
  passes; verify: all identity residuals below tolerance).
* 1 -- configuration error: a usage error (an unknown flag or a bad flag
  value), an unknown route, an empty grid, too few digits or more than
  the audited ceiling of ``MAX_AUDITED_DIGITS`` (400), an ``--out``
  path that cannot be written (checked before any computation), or a
  route that refused the requested precision or parameters (such as a
  log table above ``smallt.LOG_TABLE_CAP`` entries or an unknown kummer
  measure) while every route that ran agreed.
* 2 -- numerical disagreement (a route pair out of tolerance, a residual
  above tolerance) or a failure that is not a refusal, of a route or of
  the identity pass.

The CLI holds no verdict and no document layout of its own: each command
parses its arguments, makes one call and prints.  ``compute`` prints
``run_all``'s report as text or JSON (``--output``) and exits with
``ReportDocument.exit_code``; its parameter defaults are the route
functions' own, which ``report.DEFAULT_PARAMS`` reads from their
signatures.  ``verify`` prints ``report.identity_report``,
the same identity pass ``run_all`` makes, on the same default-N Fourier
log A, without the routes or the dt control, each residual with its
``IdentityResidual.passed`` verdict, and exits with the same
``ReportDocument.exit_code``, so a raising pass exits 2 as in
``compute``.  ``convergence`` always writes the report's CSV table of its
``convergence_study`` records.

Values in text mode are rounded to (digits - 10) significant digits so
the output never implies precision the error estimates do not back.
"""

from __future__ import annotations

import argparse
import os
import sys

import mpmath
from mpmath import mpf

from . import __version__
from .context import MIN_PRECISION_DIGITS, PrecisionError, make_context, real_to_decimal
from .report import (
    DEFAULT_PARAMS,
    EXIT_CONFIG,
    EXIT_DISAGREE,
    EXIT_OK,
    ConfigError,
    ReportDocument,
    convergence_study,
    identity_report,
    run_all,
    serialize,
)
from .routes import ROUTE_IDS

# The highest precision the tier-1 sweep audits; the CLI refuses more.
MAX_AUDITED_DIGITS = 400


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

    def add_common(p, run):
        p.set_defaults(run=run)
        p.add_argument(
            "--digits",
            type=int,
            default=None,
            help="working precision in decimal digits (default 50; the "
            "GLAISHER_DIGITS environment variable overrides the default)",
        )
        p.add_argument("--out", default=None, help="write output to this file instead of stdout")

    compute = sub.add_parser("compute", help="run routes and print the agreement matrix")
    # Before the arguments, so that each action (and its help) gets its default.
    compute.set_defaults(**DEFAULT_PARAMS)
    add_common(compute, cmd_compute)
    compute.add_argument(
        "--output",
        choices=("text", "json"),
        default="text",
        help="output format (default text)",
    )
    compute.add_argument(
        "--routes",
        default=",".join(ROUTE_IDS),
        help=f"comma-separated route ids (default: all of {','.join(ROUTE_IDS)})",
    )
    compute.add_argument("--limit-n", type=int, help="base index n for the limit route")
    compute.add_argument("--limit-order", type=int, help="Richardson order for the limit route")
    compute.add_argument(
        "--fourier-n",
        type=int,
        help="partial-sum length for the series route (default max(100, "
        "floor(0.37 P) + 10) at P digits, which keeps it at full precision; "
        "the identity residuals always take that default)",
    )
    compute.add_argument(
        "--accelerate",
        dest="fourier_accelerate",
        action=argparse.BooleanOptionalAction,
        help="add the Euler-Maclaurin tail to the series route, with as many "
        "Bernoulli terms as the precision needs (default on)",
    )
    compute.add_argument("--hasse-n", type=int, help="outer-sum length for the hasse route")
    compute.add_argument(
        "--res2-measure",
        choices=("dt_over_t", "dt"),
        help="measure of the kummer-route integral; 'dt' is the deliberate "
        "negative control demonstrating that reading of the identity is a "
        "typo (it must disagree with every other route)",
    )

    verify = sub.add_parser("verify", help="check the identity residuals")
    add_common(verify, cmd_verify)
    verify.add_argument(
        "--corrupt-constant",
        action="store_true",
        help="debug negative control: perturb the 7/24 coefficient of the "
        "half-integral identity (the run must then fail with exit 2)",
    )

    conv = sub.add_parser("convergence", help="CSV of route error against consensus over a grid")
    add_common(conv, cmd_convergence)
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
    """--digits, else GLAISHER_DIGITS, else 50; refused above ``MAX_AUDITED_DIGITS``."""
    source, digits = "--digits", args.digits
    if digits is None:
        source, env = "GLAISHER_DIGITS", os.environ.get("GLAISHER_DIGITS", "50")
        try:
            digits = int(env)
        except ValueError as exc:
            raise ConfigError(f"GLAISHER_DIGITS is not an integer: {env!r}") from exc
    if digits > MAX_AUDITED_DIGITS:
        raise ConfigError(
            f"{source} {digits} is above the ceiling of {MAX_AUDITED_DIGITS} digits: the "
            f"error contract is audited from {MIN_PRECISION_DIGITS} to {MAX_AUDITED_DIGITS} digits"
        )
    return digits


def _write(path: str, text: str, mode: str = "w") -> None:
    try:
        with open(path, mode) as handle:
            handle.write(text)
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc.strerror or exc}") from exc


def _check_out(path: str) -> None:
    """Fail on an ``--out`` path that cannot be written before any
    computation.  Appending nothing changes no file; one that did not
    exist is removed again."""
    existed = os.path.lexists(path)
    _write(path, "", "a")
    if not existed:
        os.remove(path)


def _emit(args, text: str) -> None:
    if args.out:
        _write(args.out, text)
    else:
        sys.stdout.write(text)


def cmd_compute(args, ctx) -> int:
    route_set = [r.strip() for r in args.routes.split(",") if r.strip()]
    doc = run_all(ctx, route_set, {k: getattr(args, k) for k in DEFAULT_PARAMS})
    if args.output == "json":
        _emit(args, serialize(doc, "json").decode() + "\n")
        return doc.exit_code

    digits = ctx.precision_digits
    shown = max(digits - 10, 5)
    lines = [f"log A estimates at {digits} digits (showing {shown}):"]
    for e in doc.estimates:
        lines.append(
            f"  {e.route_id:16s} {real_to_decimal(e.value, shown)}"
            f"   (error est {mpmath.nstr(e.error_estimate, 3)}, "
            f"{e.evaluations} evaluations, {e.elapsed:.2f}s)"
        )
    lines += _failure_lines(doc)
    lines.append("pairwise |difference| matrix:")
    ids = doc.agreement_matrix["routes"]
    for rid, row in zip(ids, doc.agreement_matrix["matrix"]):
        cells = " ".join(f"{mpmath.nstr(v, 3):>10s}" for v in row)
        lines.append(f"  {rid:16s} {cells}")
    if doc.disagreements:
        lines.append("DISAGREEMENTS:")
        for a, b, gap, allowed in doc.disagreements:
            lines.append(
                f"  {a} vs {b}: |delta| = {mpmath.nstr(gap, 4)} "
                f"> allowed {mpmath.nstr(allowed, 4)}"
            )
    else:
        which = "the routes that ran" if doc.failures else "all requested routes"
        lines.append(f"{which} agree pairwise within tolerance")
    if doc.failed_residuals:
        lines.append("IDENTITY CHECKS FAILED:")
        for r in doc.failed_residuals:
            lines.append(
                f"  {r.identity_id}: residual = {mpmath.nstr(r.residual, 4)}, "
                f"tolerance {mpmath.nstr(r.tolerance_used, 3)}"
            )
    _emit(args, "\n".join(lines) + "\n")
    return doc.exit_code


def _failure_lines(doc: ReportDocument) -> list[str]:
    return [
        f"  {f.route_id:16s} {'REFUSED' if f.refused else 'FAILED'}: {f.error}"
        for f in doc.failures
    ]


def cmd_verify(args, ctx) -> int:
    corruption = mpf(7) / 25 if args.corrupt_constant else None
    doc = identity_report(ctx, corruption)
    lines = [
        f"identity residuals at {ctx.precision_digits} digits "
        f"(tolerance {mpmath.nstr(ctx.target_tolerance, 3)}):"
    ]
    for r in doc.residuals:
        lines.append(
            f"  {r.identity_id:16s} residual = {mpmath.nstr(r.residual, 4):>12s}  "
            f"{'ok' if r.passed else 'EXCEEDS TOLERANCE'}"
        )
    lines += _failure_lines(doc)
    if args.corrupt_constant:
        lines.append("  (ran with the deliberately corrupted 7/25 coefficient)")
    _emit(args, "\n".join(lines) + "\n")
    return doc.exit_code


def cmd_convergence(args, ctx) -> int:
    try:
        grid = [int(g) for g in args.grid.split(",") if g.strip()]
    except ValueError as exc:
        raise ConfigError(f"grid values must be integers: {args.grid!r}") from exc
    records = convergence_study(
        args.route, grid, ctx, params={"fourier_accelerate": args.accelerate}
    )
    doc = ReportDocument(
        context_info={"precision_digits": ctx.precision_digits}, convergence_records=records
    )
    _emit(args, serialize(doc, "csv").decode())
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse has printed the usage error and exits 2, which is the
        # disagreement code here; --help and --version exit 0.
        if exc.code:
            return EXIT_CONFIG
        raise
    try:
        ctx = make_context(_resolve_digits(args))
        if args.out:
            _check_out(args.out)
        return args.run(args, ctx)
    except (ConfigError, PrecisionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
