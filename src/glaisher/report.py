"""Orchestration: run routes, assemble the cross-validation report, serialize.

The report document carries every route estimate, the identity residuals,
a symmetric pairwise |difference| matrix, and any convergence-study
records.  All numbers serialize as decimal strings at the full context
precision -- binary floats cannot carry 50 digits, and the JSON must be
diff-able and re-parseable without loss.

Route failures never abort a run: a verification tool that dies on the
first bad route hides every other result.  Failures land in a ``failures``
list with their message, and the matrix simply omits the failed route.
"""

from __future__ import annotations

import datetime
import io
import json
from dataclasses import dataclass, field

import mpmath
from mpmath import mpf

from . import __version__
from .context import ComputeContext, Real, real_from_decimal, real_to_decimal
from .routes import (
    ROUTE_IDS,
    IdentityResidual,
    RouteEstimate,
    consensus_log_a,
    gla2_residual,
    glaisher_identity_residual,
    log_sin_check,
    res2_measure_check,
    route_feaux,
    route_fourier_series,
    route_hasse,
    route_kummer,
    route_limit,
    route_pain1,
    route_pain2,
)

CSV_HEADER = "route,param,value,estimate,abs_delta"


class ConfigError(ValueError):
    """Bad requested configuration (unknown route, empty grid, ...)."""


@dataclass
class ConvergenceRecord:
    route_id: str
    parameter: str
    parameter_value: int
    estimate: Real
    abs_delta_vs_consensus: Real
    error: str | None = None


@dataclass
class RouteFailure:
    route_id: str
    error: str


@dataclass
class ReportDocument:
    context_info: dict
    estimates: list[RouteEstimate] = field(default_factory=list)
    failures: list[RouteFailure] = field(default_factory=list)
    residuals: list[IdentityResidual] = field(default_factory=list)
    agreement_matrix: dict = field(default_factory=dict)
    convergence_records: list[ConvergenceRecord] = field(default_factory=list)
    timestamp: str = ""
    toolkit_version: str = __version__


DEFAULT_PARAMS = {
    "limit_n": 64,
    "limit_order": 3,
    "fourier_n": 100,
    "fourier_accelerate": True,
    "hasse_n": 80,
    "res2_measure": "dt_over_t",
}


def _route_runner(route_id: str, ctx: ComputeContext, params: dict):
    if route_id == "limit":
        return route_limit(ctx, n=params["limit_n"], richardson_order=params["limit_order"])
    if route_id == "pain1":
        return route_pain1(ctx)
    if route_id == "pain2":
        return route_pain2(ctx)
    if route_id == "feaux":
        return route_feaux(ctx)
    if route_id == "kummer":
        return route_kummer(ctx, measure=params["res2_measure"])
    if route_id == "fourier_series":
        return route_fourier_series(
            ctx, n_terms=params["fourier_n"], accelerate=params["fourier_accelerate"]
        )
    if route_id == "hasse":
        return route_hasse(ctx, n_terms=params["hasse_n"])
    raise ConfigError(f"unknown route id {route_id!r}")


def _agreement_matrix(estimates: list[RouteEstimate], ctx: ComputeContext) -> dict:
    order = sorted(estimates, key=lambda e: ROUTE_IDS.index(e.route_id))
    ids = [e.route_id for e in order]
    with ctx.workdps(10):
        matrix = [
            [abs(a.value - b.value) if a is not b else mpf(0) for b in order]
            for a in order
        ]
    return {"routes": ids, "matrix": matrix}


def run_all(
    ctx: ComputeContext,
    route_set: list[str] | tuple[str, ...] | None = None,
    params: dict | None = None,
) -> ReportDocument:
    """Run the requested routes and every identity check; never abort.

    Unknown route ids are a configuration error (checked before any
    computation); runtime failures of individual routes are recorded in
    the failures list and the rest of the report is still produced.
    """
    route_set = list(ROUTE_IDS) if route_set is None else list(route_set)
    if not route_set:
        raise ConfigError("route_set must not be empty")
    for rid in route_set:
        if rid not in ROUTE_IDS:
            raise ConfigError(
                f"unknown route id {rid!r}; known routes: {', '.join(ROUTE_IDS)}"
            )
    merged = dict(DEFAULT_PARAMS)
    merged.update(params or {})

    doc = ReportDocument(
        context_info={
            "precision_digits": ctx.precision_digits,
            "target_tolerance": ctx.target_tolerance,
            "quad_max_level": ctx.quad_max_level,
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
        except Exception as exc:          # failure isolation per route
            doc.failures.append(RouteFailure(route_id=rid, error=str(exc)))

    doc.agreement_matrix = _agreement_matrix(doc.estimates, ctx)

    # Identity checks: the three paper identities plus the measure control.
    # Reuse route results where possible; the residuals need a best log A,
    # which is the feaux value by contract.
    try:
        feaux = by_id.get("feaux")
        log_a = feaux.value if feaux is not None else route_feaux(ctx).value
        doc.residuals.append(glaisher_identity_residual(ctx, log_a=log_a))
        doc.residuals.append(gla2_residual(ctx, log_a=log_a))
        doc.residuals.append(log_sin_check(ctx))
        kummer = by_id.get("kummer")
        if kummer is not None and kummer.parameters.get("measure") == "dt":
            # The requested run IS the control variant; compare it against
            # an honest consensus computed on the side.
            consensus = consensus_log_a(ctx)
        else:
            consensus = consensus_log_a(
                ctx,
                feaux=feaux,
                kummer=kummer,
            )
        doc.residuals.append(res2_measure_check(ctx, consensus=consensus))
    except Exception as exc:
        doc.failures.append(RouteFailure(route_id="identity_checks", error=str(exc)))

    return doc


def convergence_study(
    route_id: str,
    grid: list[int],
    ctx: ComputeContext,
    params: dict | None = None,
) -> list[ConvergenceRecord]:
    """One record per grid point: route estimate vs the feaux/kummer consensus.

    The grid must be non-empty and ascending.  Per-point failures are
    recorded in the record's ``error`` field, not raised: a convergence
    study is a measurement, and a point that cannot run (e.g. hasse beyond
    the precision rule) is itself a datum.
    """
    if route_id not in ROUTE_IDS:
        raise ConfigError(f"unknown route id {route_id!r}")
    if not grid:
        raise ConfigError("grid must not be empty")
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise ConfigError(f"grid must be strictly ascending, got {grid}")

    merged = dict(DEFAULT_PARAMS)
    merged.update(params or {})
    consensus = consensus_log_a(ctx)

    param_name = {
        "limit": "n",
        "fourier_series": "n_terms",
        "hasse": "n_terms",
    }.get(route_id)
    if param_name is None:
        raise ConfigError(
            f"route {route_id!r} has no convergence parameter; "
            "use one of: limit, fourier_series, hasse"
        )

    records = []
    for value in grid:
        point = dict(merged)
        if route_id == "limit":
            point["limit_n"] = value
        elif route_id == "fourier_series":
            point["fourier_n"] = value
            point["fourier_accelerate"] = merged.get("fourier_accelerate", False)
        else:
            point["hasse_n"] = value
        try:
            estimate = _route_runner(route_id, ctx, point)
            with ctx.workdps(10):
                delta = +abs(estimate.value - consensus)
            records.append(
                ConvergenceRecord(
                    route_id=route_id,
                    parameter=param_name,
                    parameter_value=value,
                    estimate=estimate.value,
                    abs_delta_vs_consensus=delta,
                )
            )
        except Exception as exc:
            records.append(
                ConvergenceRecord(
                    route_id=route_id,
                    parameter=param_name,
                    parameter_value=value,
                    estimate=mpf(0),
                    abs_delta_vs_consensus=mpf(0),
                    error=str(exc),
                )
            )
    return records


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

def _dec(x: Real, digits: int) -> str:
    # no mpf() cast here: casting at ambient precision would round the
    # value to the ambient digit count before rendering
    return real_to_decimal(x, digits)


def serialize(doc: ReportDocument, format: str = "json") -> bytes:
    """Serialize a report; JSON carries the whole document, CSV the flat
    convergence-record table (header ``route,param,value,estimate,abs_delta``)."""
    if format == "json":
        return _serialize_json(doc)
    if format == "csv":
        return _serialize_csv(doc)
    raise ConfigError(f"unknown serialization format {format!r}")


def _serialize_json(doc: ReportDocument) -> bytes:
    digits = doc.context_info["precision_digits"]
    payload = {
        "context_info": {
            "precision_digits": digits,
            "target_tolerance": _dec(doc.context_info["target_tolerance"], digits),
            "quad_max_level": doc.context_info["quad_max_level"],
            "requested_routes": doc.context_info["requested_routes"],
            "params": doc.context_info["params"],
        },
        "estimates": [
            {
                "route_id": e.route_id,
                "value": _dec(e.value, digits),
                "error_estimate": _dec(e.error_estimate, digits),
                "parameters": e.parameters,
                "evaluations": e.evaluations,
                "elapsed": e.elapsed,
            }
            for e in doc.estimates
        ],
        "failures": [{"route_id": f.route_id, "error": f.error} for f in doc.failures],
        "residuals": [
            {
                "identity_id": r.identity_id,
                "residual": _dec(r.residual, digits),
                "tolerance_used": _dec(r.tolerance_used, digits),
                "elapsed": r.elapsed,
            }
            for r in doc.residuals
        ],
        "agreement_matrix": {
            "routes": doc.agreement_matrix.get("routes", []),
            "matrix": [
                [_dec(v, digits) for v in row]
                for row in doc.agreement_matrix.get("matrix", [])
            ],
        },
        "convergence_records": [
            {
                "route_id": c.route_id,
                "parameter": c.parameter,
                "parameter_value": c.parameter_value,
                "estimate": _dec(c.estimate, digits),
                "abs_delta_vs_consensus": _dec(c.abs_delta_vs_consensus, digits),
                "error": c.error,
            }
            for c in doc.convergence_records
        ],
        "timestamp": doc.timestamp,
        "toolkit_version": doc.toolkit_version,
    }
    return json.dumps(payload, indent=2).encode()


def _serialize_csv(doc: ReportDocument) -> bytes:
    digits = doc.context_info["precision_digits"]
    out = io.StringIO()
    out.write(CSV_HEADER + "\n")
    for c in doc.convergence_records:
        estimate = "" if c.error else _dec(c.estimate, digits)
        delta = "" if c.error else _dec(c.abs_delta_vs_consensus, digits)
        out.write(
            f"{c.route_id},{c.parameter},{c.parameter_value},{estimate},{delta}\n"
        )
    return out.getvalue().encode()


def deserialize_report(raw: bytes, ctx: ComputeContext) -> ReportDocument:
    """Parse serialized JSON back into a document (round-trip contract)."""
    payload = json.loads(raw.decode())
    info = payload["context_info"]
    doc = ReportDocument(
        context_info={
            "precision_digits": info["precision_digits"],
            "target_tolerance": real_from_decimal(info["target_tolerance"], ctx),
            "quad_max_level": info["quad_max_level"],
            "requested_routes": list(info["requested_routes"]),
            "params": dict(info["params"]),
        },
        timestamp=payload["timestamp"],
        toolkit_version=payload["toolkit_version"],
    )
    for e in payload["estimates"]:
        doc.estimates.append(
            RouteEstimate(
                route_id=e["route_id"],
                value=real_from_decimal(e["value"], ctx),
                error_estimate=real_from_decimal(e["error_estimate"], ctx),
                parameters=dict(e["parameters"]),
                evaluations=e["evaluations"],
                elapsed=e["elapsed"],
            )
        )
    for f in payload["failures"]:
        doc.failures.append(RouteFailure(route_id=f["route_id"], error=f["error"]))
    for r in payload["residuals"]:
        doc.residuals.append(
            IdentityResidual(
                identity_id=r["identity_id"],
                residual=real_from_decimal(r["residual"], ctx),
                tolerance_used=real_from_decimal(r["tolerance_used"], ctx),
                elapsed=r["elapsed"],
            )
        )
    doc.agreement_matrix = {
        "routes": list(payload["agreement_matrix"]["routes"]),
        "matrix": [
            [real_from_decimal(v, ctx) for v in row]
            for row in payload["agreement_matrix"]["matrix"]
        ],
    }
    for c in payload["convergence_records"]:
        doc.convergence_records.append(
            ConvergenceRecord(
                route_id=c["route_id"],
                parameter=c["parameter"],
                parameter_value=c["parameter_value"],
                estimate=real_from_decimal(c["estimate"], ctx),
                abs_delta_vs_consensus=real_from_decimal(
                    c["abs_delta_vs_consensus"], ctx
                ),
                error=c["error"],
            )
        )
    return doc
