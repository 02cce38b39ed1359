"""The four benchmark workloads.

Each workload has a set-up (what ``setup_s`` times), an operation run back
to back in one closed loop (one client, one process, one thread), and a
check that turns the operation's output into gate problems plus the
deterministic counts the output shows.

Operations look package functions up as module attributes at call time,
so the traced run sees them through its wrappers.  Numeric inputs are
fixed: cost and counts depend on them, and the counts are recorded
exactly.  The seed permutes the parts of an operation that are
independent of each other (route order), which must not change any value
or count.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Callable

import gate

ALL_ROUTES = ("limit", "pain1", "pain2", "feaux", "kummer", "fourier_series", "hasse")
REPORT_IDENTITIES = ("glaisher_half", "gla2", "log_sin", "res2_measure_check")
VERIFY_IDENTITIES = ("glaisher_half", "gla2", "log_sin")
HASSE_TERMS = 800


@dataclass
class Output:
    """What one operation produced, before it is checked."""

    code: int = 0
    estimates: list = field(default_factory=list)
    doc: object = None
    text: str = ""
    json_bytes: int = 0
    tolerance: object = None     # the context's target_tolerance


@dataclass
class Checked:
    problems: list[str]
    counts: dict[str, int]
    shown: dict[str, int]        # route/identity id -> evaluations the output shows


@dataclass
class Workload:
    name: str
    digits: int
    library: bool                # set-up includes make_context + constants
    setup: Callable              # (glaisher) -> state
    op: Callable                 # (glaisher, state, rng, out_dir) -> Output
    check: Callable              # (Output, oracle, digits) -> Checked


def _no_state(g):
    return None


def _library_context(digits):
    def setup(g):
        ctx = g.make_context(digits)
        ctx.constants
        return ctx
    return setup


def _route_counts(estimates) -> dict[str, int]:
    return {f"routes.{e.route_id}_evals": e.evaluations for e in estimates}


def _out_path(out_dir, stem):
    return out_dir / f"{stem}-{os.getpid()}.out"


# --- report_50 -------------------------------------------------------------

def report_op(g, state, rng, out_dir):
    routes = list(ALL_ROUTES)
    rng.shuffle(routes)
    path = _out_path(out_dir, "report")
    code = g.cli.main(["compute", "--digits", "50", "--routes", ",".join(routes),
                       "--output", "json", "--out", str(path)])
    out = Output(code=code)
    if path.exists():
        raw = path.read_bytes()
        path.unlink()
        out.json_bytes = len(raw)
        out.doc = g.deserialize_report(raw, g.make_context(50))
    return out


def report_check(out, oracle, digits):
    problems = gate.exit_code_problems("compute", out.code)
    if out.doc is None:
        return Checked(problems + ["no report written"], {}, {})
    problems += gate.report_problems(out.doc, oracle, ALL_ROUTES, REPORT_IDENTITIES)
    shown = {e.route_id: e.evaluations for e in out.doc.estimates}
    shown.update({r.identity_id: 0 for r in out.doc.residuals})
    return Checked(problems, _route_counts(out.doc.estimates), shown)


# --- integrals_200 ---------------------------------------------------------

def integrals_op(g, ctx, rng, out_dir):
    names = ["route_pain1", "route_kummer"]
    rng.shuffle(names)
    return Output(estimates=[getattr(g, name)(ctx) for name in names],
                  tolerance=ctx.target_tolerance)


def library_check(out, oracle, digits):
    problems = []
    for e in out.estimates:
        problems += gate.estimate_problems(
            e.route_id, e.value, e.error_estimate, oracle, digits,
            target_tolerance=out.tolerance,
        )
    shown = {e.route_id: e.evaluations for e in out.estimates}
    return Checked(problems, _route_counts(out.estimates), shown)


# --- verify_100 ------------------------------------------------------------

def verify_op(g, state, rng, out_dir):
    path = _out_path(out_dir, "verify")
    code = g.cli.main(["verify", "--digits", "100", "--out", str(path)])
    out = Output(code=code)
    if path.exists():
        out.text = path.read_text()
        path.unlink()
    return out


def verify_check(out, oracle, digits):
    problems = gate.exit_code_problems("verify", out.code)
    problems += gate.verify_problems(out.text, VERIFY_IDENTITIES)
    return Checked(problems, {}, {iid: 0 for iid in VERIFY_IDENTITIES})


# --- hasse_800 -------------------------------------------------------------

def hasse_op(g, ctx, rng, out_dir):
    return Output(estimates=[g.route_hasse(ctx, HASSE_TERMS)],
                  tolerance=ctx.target_tolerance)


# ceil(0.302 * 800) + 20, i.e. hasse_required_digits(800); fixed here so the
# workload's precision cannot drift with the package's precision rule.
HASSE_DIGITS = 262

WORKLOADS = {
    w.name: w
    for w in (
        Workload("report_50", 50, False, _no_state, report_op, report_check),
        Workload("integrals_200", 200, True, _library_context(200),
                 integrals_op, library_check),
        Workload("verify_100", 100, False, _no_state, verify_op, verify_check),
        Workload("hasse_800", HASSE_DIGITS, True, _library_context(HASSE_DIGITS),
                 hasse_op, library_check),
    )
}
