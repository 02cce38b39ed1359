"""Orchestration: run routes, assemble the cross-validation report, serialize.

The report document carries every route estimate, the identity residuals,
a symmetric pairwise |difference| matrix, and any convergence-study
records.  All numbers serialize as decimal strings at the full context
precision -- binary floats cannot carry 50 digits, and the JSON must be
diff-able and re-parseable without loss.

The dataclasses here and in :mod:`glaisher.routes` are the one declaration
of the document.  ``serialize`` walks their fields in declaration order,
so a JSON key is a field name, and ``deserialize_report`` rebuilds each
record from its own fields, parsing those annotated ``Real``; a new field
needs no edit to either.  The CSV view is the flat convergence-record
table, and ``glaisher convergence`` writes it through the same writer.

The report owns the cross-validation verdict: ``ReportDocument.disagreements``
lists the route pairs whose gap exceeds ten times the sum of their error
estimates, ``ReportDocument.failed_residuals`` the identity residuals
that fail their own verdict, and ``ReportDocument.exit_code`` folds both
and the failures into the exit code of ``glaisher compute`` and
``glaisher verify``.  They read
only what the JSON already holds (the matrix, the estimates, the
residuals and their tolerances, the failures), so it carries no extra key
for them and a deserialized report gives the same answer.

Route failures never abort a run: a verification tool that dies on the
first bad route hides every other result.  Failures land in a ``failures``
list with their message, and the matrix simply omits the failed route.
A route that declines to run at this precision or on these parameters
(``PrecisionError``, ``DomainError``) is marked ``refused``; that is a
configuration problem, not a numerical failure.  Any other failure,
including one of the identity pass (``identity_checks``), is numerical.
"""

from __future__ import annotations

import datetime
import inspect
import json
from dataclasses import MISSING, dataclass, field, fields, is_dataclass

from mpmath import mp, mpf

from . import __version__
from .context import (
    ComputeContext,
    DomainError,
    PrecisionError,
    Real,
    real_from_decimal,
    real_to_decimal,
)
from .quadrature import shared_work
from .routes import (
    ROUTE_IDS,
    IdentityResidual,
    RouteEstimate,
    consensus_log_a,
    fourier_default_terms,
    identity_residuals,
    res2_measure_check,
    route_feaux,
    route_fourier_series,
    route_hasse,
    route_kummer,
    route_limit,
    route_pain1,
    route_pain2,
)

CSV_HEADER = "route,param,value,estimate,abs_delta,error_estimate"

# The exit codes of the command-line contract.
EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_DISAGREE = 2


class ConfigError(ValueError):
    """Bad requested configuration (unknown route, empty grid, ...)."""


@dataclass
class ConvergenceRecord:
    """One grid point: ``estimate`` is the route's value, ``error_estimate``
    its bound (both 0 on an ``error`` row)."""

    route_id: str
    parameter: str
    parameter_value: int
    estimate: Real
    abs_delta_vs_consensus: Real
    error_estimate: Real
    error: str | None = None


@dataclass
class RouteFailure:
    route_id: str
    error: str
    refused: bool = False


@dataclass
class ReportDocument:
    context_info: dict
    estimates: list[RouteEstimate] = field(default_factory=list)
    failures: list[RouteFailure] = field(default_factory=list)
    residuals: list[IdentityResidual] = field(default_factory=list)
    agreement_matrix: dict = field(default_factory=lambda: {"routes": [], "matrix": []})
    convergence_records: list[ConvergenceRecord] = field(default_factory=list)
    timestamp: str = ""
    toolkit_version: str = __version__

    @property
    def disagreements(self) -> list[tuple[str, str, Real, Real]]:
        """Route pairs (a, b, gap, allowed) in matrix order whose gap exceeds
        ``allowed``, ten times the sum of the pair's error estimates.

        Read from the agreement matrix and the estimates alone and compared
        at P+10 digits, so a deserialized report gives the same verdict.
        """
        ids = self.agreement_matrix.get("routes", [])
        matrix = self.agreement_matrix.get("matrix", [])
        errors = {e.route_id: e.error_estimate for e in self.estimates}
        found = []
        with mp.workdps(self.context_info["precision_digits"] + 10):
            for i, a in enumerate(ids):
                for j in range(i + 1, len(ids)):
                    allowed = 10 * (errors[a] + errors[ids[j]])
                    if matrix[i][j] > allowed:
                        found.append((a, ids[j], matrix[i][j], allowed))
        return found

    @property
    def failed_residuals(self) -> list[IdentityResidual]:
        """The identity residuals whose verdict (``IdentityResidual.passed``)
        fails; read from the residuals alone, like ``disagreements``."""
        return [r for r in self.residuals if not r.passed]

    @property
    def exit_code(self) -> int:
        """The verdict as a ``glaisher compute`` or ``verify`` exit code.

        ``EXIT_DISAGREE`` (2) for a disagreeing pair, a failed residual or
        a failure that is not a refusal (a raising identity pass included);
        else ``EXIT_CONFIG`` (1) if a route refused; else ``EXIT_OK`` (0).
        """
        if self.disagreements or self.failed_residuals or not all(
            f.refused for f in self.failures
        ):
            return EXIT_DISAGREE
        return EXIT_CONFIG if self.failures else EXIT_OK


# Route id -> ({params key: keyword of route_<id>}, the params key a
# convergence grid sweeps, or None), in ROUTE_IDS order.
_ROUTE_PARAMS = {
    "limit": ({"limit_n": "n", "limit_order": "richardson_order"}, "limit_n"),
    "pain1": ({}, None),
    "pain2": ({}, None),
    "feaux": ({}, None),
    "kummer": ({"res2_measure": "measure"}, None),
    "fourier_series": ({"fourier_n": "n_terms", "fourier_accelerate": "accelerate"}, "fourier_n"),
    "hasse": ({"hasse_n": "n_terms"}, "hasse_n"),
}

# Each key's default is its keyword's default in the route's signature
# (a fourier_n of None is routes.fourier_default_terms at the precision).
DEFAULT_PARAMS = {
    key: inspect.signature(globals()[f"route_{rid}"]).parameters[keyword].default
    for rid, (keywords, _) in _ROUTE_PARAMS.items()
    for key, keyword in keywords.items()
}


def _merged_params(params: dict | None, ctx: ComputeContext) -> dict:
    """DEFAULT_PARAMS updated by ``params``, with a ``fourier_n`` of None
    resolved to the N the route takes at this precision; an unknown key is
    a ConfigError."""
    unknown = sorted(set(params or ()) - DEFAULT_PARAMS.keys())
    if unknown:
        raise ConfigError(f"unknown params {unknown}; known: {', '.join(DEFAULT_PARAMS)}")
    merged = {**DEFAULT_PARAMS, **(params or {})}
    if merged["fourier_n"] is None:
        merged["fourier_n"] = fourier_default_terms(ctx.precision_digits)
    return merged


def _route_runner(route_id: str, ctx: ComputeContext, params: dict):
    # route_<id> is looked up by name at each call, never stored, so a
    # replaced module attribute (a tracer's wrapper, a test's stub) runs.
    keywords, _ = _ROUTE_PARAMS[route_id]
    route = globals()[f"route_{route_id}"]
    return route(ctx, **{keyword: params[key] for key, keyword in keywords.items()})


def _agreement_matrix(estimates: list[RouteEstimate], ctx: ComputeContext) -> dict:
    order = sorted(estimates, key=lambda e: ROUTE_IDS.index(e.route_id))
    ids = [e.route_id for e in order]
    with ctx.workdps(10):
        matrix = [
            [abs(a.value - b.value) if a is not b else mpf(0) for b in order]
            for a in order
        ]
    return {"routes": ids, "matrix": matrix}


@shared_work()
def run_all(
    ctx: ComputeContext,
    route_set: list[str] | tuple[str, ...] | None = None,
    params: dict | None = None,
) -> ReportDocument:
    """Run only the requested routes, then every identity check; never abort.

    Unknown or repeated route ids and unknown ``params`` keys are a
    configuration error (checked first); runtime failures of individual
    routes are recorded in the failures list and the rest of the report
    is still produced.  The whole call holds one table of shared work
    (quadrature nodes, oracle values;
    :func:`~glaisher.quadrature.shared_work`), dropped on return or raise.
    """
    route_set = list(ROUTE_IDS) if route_set is None else list(route_set)
    if not route_set:
        raise ConfigError("route_set must not be empty")
    for i, rid in enumerate(route_set):
        if rid not in ROUTE_IDS:
            raise ConfigError(
                f"unknown route id {rid!r}; known routes: {', '.join(ROUTE_IDS)}"
            )
        if rid in route_set[:i]:
            raise ConfigError(f"route id {rid!r} requested twice")
    merged = _merged_params(params, ctx)

    doc = ReportDocument(
        context_info={
            "precision_digits": ctx.precision_digits,
            "target_tolerance": ctx.target_tolerance,
            "requested_routes": list(route_set),
            "params": {k: merged[k] for k in sorted(merged)},
        },
        timestamp=datetime.datetime.now(datetime.timezone.utc).isoformat(),
    )

    by_id: dict[str, RouteEstimate] = {}
    for rid in route_set:
        try:
            estimate = _route_runner(rid, ctx, merged)
            doc.estimates.append(estimate)
            by_id[rid] = estimate
        except (PrecisionError, DomainError) as exc:
            doc.failures.append(RouteFailure(route_id=rid, error=str(exc), refused=True))
        except Exception as exc:          # failure isolation per route
            doc.failures.append(RouteFailure(route_id=rid, error=str(exc)))

    doc.agreement_matrix = _agreement_matrix(doc.estimates, ctx)

    # Identity checks: the three paper identities plus the measure control,
    # all on one log A, the default-N Fourier series, as ``verify`` uses.
    try:
        log_a = _identity_log_a(ctx, by_id.get("fourier_series"))
        doc.residuals.extend(identity_residuals(ctx, log_a))
        doc.residuals.append(res2_measure_check(ctx, log_a=log_a))
    except Exception as exc:
        doc.failures.append(RouteFailure(route_id="identity_checks", error=str(exc)))

    return doc


def _identity_log_a(ctx: ComputeContext, fourier: RouteEstimate | None = None) -> Real:
    """log A for the identity residuals: the Fourier series at its default
    N, which shares no code with the quadrature engine the identity
    integrals run on.  A requested ``fourier`` estimate made at those
    defaults is reused; any other is not, so the residuals never depend
    on the requested routes or params."""
    defaults = {"n_terms": fourier_default_terms(ctx.precision_digits), "accelerate": True}
    if fourier is None or fourier.parameters != defaults:
        fourier = route_fourier_series(ctx)
    return fourier.value


def identity_report(ctx: ComputeContext, log2_coefficient: Real | None = None) -> ReportDocument:
    """The identity residuals alone, as a report, with log A from the
    default-N Fourier series as in :func:`run_all`.

    ``glaisher verify`` runs this pass without the routes or the dt
    control, so it integrates no route at all: the
    three identity integrals are its only quadrature.  A raising Fourier
    route or identity pass lands in ``failures`` as ``identity_checks``,
    as in :func:`run_all`, so ``ReportDocument.exit_code`` gives the
    verdict.  :func:`~glaisher.routes.identity_residuals` holds the one
    table of shared work the three integrals read.
    """
    doc = ReportDocument(
        context_info={
            "precision_digits": ctx.precision_digits,
            "target_tolerance": ctx.target_tolerance,
        }
    )
    try:
        doc.residuals.extend(identity_residuals(ctx, _identity_log_a(ctx), log2_coefficient))
    except Exception as exc:
        doc.failures.append(RouteFailure(route_id="identity_checks", error=str(exc)))
    return doc


def convergence_study(
    route_id: str,
    grid: list[int],
    ctx: ComputeContext,
    params: dict | None = None,
) -> list[ConvergenceRecord]:
    """One record per grid point: route value and error estimate vs the
    feaux/kummer consensus.

    The grid must be non-empty and ascending.  Per-point failures are
    recorded in the record's ``error`` field, not raised: a convergence
    study is a measurement, and a point that cannot run (e.g. hasse beyond
    the precision rule) is itself a datum.
    """
    if route_id not in _ROUTE_PARAMS:
        raise ConfigError(f"unknown route id {route_id!r}")
    keywords, key = _ROUTE_PARAMS[route_id]
    if key is None:
        gridded = [rid for rid, (_, grid_key) in _ROUTE_PARAMS.items() if grid_key]
        raise ConfigError(
            f"route {route_id!r} has no convergence parameter; "
            f"use one of: {', '.join(gridded)}"
        )
    if not grid:
        raise ConfigError("grid must not be empty")
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise ConfigError(f"grid must be strictly ascending, got {grid}")

    merged = _merged_params(params, ctx)
    consensus = consensus_log_a(ctx)

    records = []
    for value in grid:
        record = ConvergenceRecord(route_id, keywords[key], value, mpf(0), mpf(0), mpf(0))
        try:
            estimate = _route_runner(route_id, ctx, {**merged, key: value})
            with ctx.workdps(10):
                record.abs_delta_vs_consensus = +abs(estimate.value - consensus)
            record.estimate = estimate.value
            record.error_estimate = estimate.error_estimate
        except Exception as exc:
            record.error = str(exc)
        records.append(record)
    return records


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

def serialize(doc: ReportDocument, format: str = "json") -> bytes:
    """Serialize a report; JSON carries the whole document, CSV the flat
    convergence-record table (header :data:`CSV_HEADER`)."""
    digits = doc.context_info["precision_digits"]
    if format == "json":
        return json.dumps(_encode(doc, digits), indent=2).encode()
    if format == "csv":
        rows = [CSV_HEADER]
        for c in doc.convergence_records:
            numbers = [c.estimate, c.abs_delta_vs_consensus, c.error_estimate]
            cells = ["" if c.error else real_to_decimal(v, digits) for v in numbers]
            rows.append(",".join([c.route_id, c.parameter, str(c.parameter_value), *cells]))
        return ("\n".join(rows) + "\n").encode()
    raise ConfigError(f"unknown serialization format {format!r}")


def _encode(value, digits: int):
    """The JSON form of a document or any part of it: a dataclass becomes an
    object of its fields in declaration order, and every mpf a decimal
    string of ``digits`` significant digits."""
    if isinstance(value, mpf):
        return real_to_decimal(value, digits)
    if is_dataclass(value):
        value = {f.name: getattr(value, f.name) for f in fields(value)}
    if isinstance(value, dict):
        return {k: _encode(v, digits) for k, v in value.items()}
    if isinstance(value, list):
        return [_encode(v, digits) for v in value]
    return value


def _decode(record_type, entry: dict, ctx: ComputeContext):
    """One record from its JSON object: the fields annotated ``Real`` are
    parsed at the context precision, the others taken as they are, and an
    absent field takes its default; one without a default is a ValueError.
    The record modules postpone annotations, so ``Field.type`` is the text."""
    values = {}
    for f in fields(record_type):
        if f.name in entry:
            v = entry[f.name]
            values[f.name] = real_from_decimal(v, ctx) if f.type == "Real" else v
        elif f.default is MISSING and f.default_factory is MISSING:
            raise ValueError(f"{record_type.__name__} record without its {f.name!r} field")
    return record_type(**values)


def deserialize_report(raw: bytes, ctx: ComputeContext) -> ReportDocument:
    """Parse serialized JSON back into a document (round-trip contract).

    Each list field of :class:`ReportDocument` is rebuilt as the record
    type its annotation names; the other numbers are the target tolerance
    and the matrix cells.
    """
    from typing import get_args, get_type_hints

    payload = json.loads(raw.decode())
    info, matrix = payload["context_info"], payload["agreement_matrix"]
    info["target_tolerance"] = real_from_decimal(info["target_tolerance"], ctx)
    matrix["matrix"] = [[real_from_decimal(v, ctx) for v in row] for row in matrix["matrix"]]
    for name, hint in get_type_hints(ReportDocument).items():
        if get_args(hint):                      # list[<record type>]
            (record_type,) = get_args(hint)
            payload[name] = [_decode(record_type, e, ctx) for e in payload[name]]
    return ReportDocument(**payload)
