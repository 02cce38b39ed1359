"""Per-operation correctness gate of the benchmark.

Every check returns a list of problem strings; an operation fails when
any check reports one.  The checks, as the benchmark applies them:

* a CLI exit code other than 0;
* a log A estimate whose true error exceeds 10 x its ``error_estimate``;
* an integral-route estimate farther than ``target_tolerance`` from truth;
* an identity residual at or above its tolerance;
* the ``res2_measure_check`` control at or below its 0.01 floor.

"True error" is measured against log A = 1/12 - zeta'(-1), computed with
mpmath at P + 20 digits exactly as ``tests/conftest.py`` does.  The oracle
stays in the benchmark and is never passed into the package.
"""

from __future__ import annotations

import re

import mpmath
from mpmath import mp, mpf

CONTRACT_FACTOR = 10
INTEGRAL_ROUTES = ("pain1", "pain2", "feaux", "kummer")
CONTROL_ID = "res2_measure_check"
ORACLE_GUARD_DIGITS = 20

_VERIFY_HEADER = re.compile(r"identity residuals at (\d+) digits \(tolerance (\S+)\):")
_VERIFY_LINE = re.compile(r"^\s+(\S+)\s+residual =\s+(\S+)\s+(ok|EXCEEDS TOLERANCE)$")


def log_a_oracle(digits: int) -> mpf:
    """log A = 1/12 - zeta'(-1) at ``digits + 20`` digits."""
    with mp.workdps(digits + ORACLE_GUARD_DIGITS):
        return mpf(1) / 12 - mpmath.zeta(-1, derivative=1)


def print_rounding(value, printed_digits: int) -> mpf:
    """Half a unit in the last place of ``value`` printed to that many
    significant digits: the error a decimal string adds on its own."""
    with mp.workdps(printed_digits + ORACLE_GUARD_DIGITS):
        value = mpf(value)
        if value == 0:
            return mpf(0)
        exponent = int(mpmath.floor(mpmath.log10(abs(value))))
        return mpf(10) ** (exponent - printed_digits + 1) / 2


def estimate_problems(
    route_id: str,
    value,
    error_estimate,
    oracle,
    digits: int,
    target_tolerance=None,
    printed_digits: int | None = None,
) -> list[str]:
    """The 10 x estimate contract, plus the tolerance for integral routes.

    ``printed_digits`` is set when ``value`` was read back from a decimal
    string of that many significant digits (the JSON report); the string's
    own rounding is then allowed for on top of 10 x the estimate.
    """
    problems = []
    with mp.workdps(digits + ORACLE_GUARD_DIGITS):
        true_error = abs(mpf(value) - oracle)
        allowed = CONTRACT_FACTOR * mpf(error_estimate)
        if printed_digits is not None:
            allowed += print_rounding(value, printed_digits)
        if not true_error <= allowed:
            problems.append(
                f"{route_id}: true error {mpmath.nstr(true_error, 4)} exceeds "
                f"10 x estimate {mpmath.nstr(allowed, 4)}"
            )
        if (
            target_tolerance is not None
            and route_id in INTEGRAL_ROUTES
            and not true_error <= target_tolerance
        ):
            problems.append(
                f"{route_id}: true error {mpmath.nstr(true_error, 4)} outside "
                f"target tolerance {mpmath.nstr(target_tolerance, 3)}"
            )
    return problems


def residual_problems(identity_id: str, residual, tolerance) -> list[str]:
    """Identity residuals must stay below tolerance; the dt control above it."""
    residual = abs(mpf(residual))
    tolerance = mpf(tolerance)
    if identity_id == CONTROL_ID:
        if not residual > tolerance:
            return [f"{identity_id}: control gap {mpmath.nstr(residual, 4)} "
                    f"at or below {mpmath.nstr(tolerance, 3)}"]
    elif not residual < tolerance:
        return [f"{identity_id}: residual {mpmath.nstr(residual, 4)} "
                f"at or above tolerance {mpmath.nstr(tolerance, 3)}"]
    return []


def exit_code_problems(command: str, code: int) -> list[str]:
    return [] if code == 0 else [f"glaisher {command} exited with {code}"]


def report_problems(doc, oracle, route_ids, identity_ids) -> list[str]:
    """Check a deserialized ``glaisher compute`` report in full."""
    digits = doc.context_info["precision_digits"]
    tolerance = doc.context_info["target_tolerance"]
    problems = [f"route failure {f.route_id}: {f.error}" for f in doc.failures]
    by_route = {e.route_id: e for e in doc.estimates}
    for rid in route_ids:
        if rid not in by_route:
            problems.append(f"{rid}: missing from the report")
            continue
        e = by_route[rid]
        problems += estimate_problems(
            rid, e.value, e.error_estimate, oracle, digits,
            target_tolerance=tolerance, printed_digits=digits,
        )
    by_identity = {r.identity_id: r for r in doc.residuals}
    for iid in identity_ids:
        if iid not in by_identity:
            problems.append(f"{iid}: missing from the report")
            continue
        r = by_identity[iid]
        problems += residual_problems(iid, r.residual, r.tolerance_used)
    return problems


def parse_verify_text(text: str) -> tuple[mpf, dict[str, tuple[mpf, bool]]]:
    """(tolerance, {identity_id: (residual, printed ok flag)}) from
    ``glaisher verify`` text output; raises ValueError when malformed."""
    lines = text.splitlines()
    header = _VERIFY_HEADER.match(lines[0]) if lines else None
    if header is None:
        raise ValueError(f"unrecognised verify header: {lines[:1]!r}")
    with mp.workdps(int(header.group(1))):
        tolerance = mpf(header.group(2))
        rows = {}
        for line in lines[1:]:
            m = _VERIFY_LINE.match(line)
            if m:
                rows[m.group(1)] = (mpf(m.group(2)), m.group(3) == "ok")
    return tolerance, rows


def verify_problems(text: str, identity_ids) -> list[str]:
    try:
        tolerance, rows = parse_verify_text(text)
    except ValueError as exc:
        return [str(exc)]
    problems = []
    for iid in identity_ids:
        if iid not in rows:
            problems.append(f"{iid}: missing from verify output")
            continue
        residual, flagged_ok = rows[iid]
        problems += residual_problems(iid, residual, tolerance)
        if not flagged_ok:
            problems.append(f"{iid}: verify flagged the residual")
    return problems
