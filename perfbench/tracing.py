"""Outside-in tracing for the benchmark's traced run.

The package is not edited: the traced run replaces the module-level names
that package modules call each other through with wrappers that record a
span, then puts the originals back.  Spans live in memory as
``[id, parent, name, start, end, info]`` and are written out at the end.
A span's self time is its duration minus the time its child spans cover.

Layers, named after modules:

* ``context``    -- ``compute_constants``;
* ``quadrature`` -- ``integrate_zero_to_inf`` / ``integrate_finite``, with
  the per-side evaluation counts of the level loop when the engine exposes
  its ``_sum_side`` helper (used for the final-level share only);
* ``routes``     -- each route and identity check, and each integrand's
  ``eval`` (raw) and ``near_zero`` (series) callables;
* ``loggamma``   -- the ``log_gamma_ref`` Stirling oracle;
* ``report`` / ``cli`` -- ``run_all``, ``serialize``, ``deserialize_report``
  and ``main``.

Counts are reconciled against the package's own outputs, so a wrapper that
stops seeing calls (say, after an import moves) fails the run instead of
reading as a layer that became free.
"""

from __future__ import annotations

import dataclasses
import inspect
import json
import statistics
import time
from contextlib import contextmanager

import mpmath
from mpmath import mp, mpf

import gate

INTEGRAL_ROUTES = ("pain1", "pain2", "feaux", "kummer")
ROUTE_IDS = ("limit", "pain1", "pain2", "feaux", "kummer", "fourier_series", "hasse")
IDENTITY_IDS = ("glaisher_half", "gla2", "log_sin", "res2_measure_check")
QUADRATURE_NAMES = ("integrate_zero_to_inf", "integrate_finite")

# Integrand label -> metric suffix.  Calls of other labels count in the
# totals only.  Identity-check integrands have no near_zero series.
LABEL_KEYS = {
    "pain1": "pain1",
    "pain2": "pain2",
    "res1": "res1",
    "res2[dt/t]": "res2",
    "res2[dt]": "res2_dt",
    "int_log_gamma1p_half": "log_gamma1p_half",
    "int_log_gamma_half": "log_gamma_half",
    "log_sin": "log_sin",
}
SUFFIXES = {
    "raw": tuple(LABEL_KEYS.values()),
    "series": ("pain1", "pain2", "res1", "res2", "res2_dt"),
}

SMALLT_KERNELS = ("t_minus_log1p", "expm1_minus_x", "one_plus_em1z_over_z")
SMALLT_EXPONENTS = (9, 20, 60)
LOGGAMMA_ARGS = ("0.125", "0.3", "0.5", "0.77", "2", "7", "33", "100")

ID, PARENT, NAME, START, END, INFO = range(6)


class Tracer:
    """In-memory span recorder for one thread."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[list] = []

    def open(self, name: str, info=None) -> list:
        parent = self._stack[-1][ID] if self._stack else -1
        span = [len(self.spans), parent, name, time.perf_counter(), 0.0, info]
        self.spans.append(span)
        self._stack.append(span)
        return span

    def close(self, span: list) -> None:
        span[END] = time.perf_counter()
        self._stack.pop()

    def call(self, name: str, fn, *args, **kwargs):
        span = self.open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.close(span)

    def top(self):
        return self._stack[-1] if self._stack else None

    def write(self, path) -> None:
        with open(path, "w") as handle:
            for s in self.spans:
                handle.write(json.dumps(
                    {"id": s[ID], "parent": s[PARENT], "name": s[NAME],
                     "start": s[START], "end": s[END], "info": s[INFO]}) + "\n")


# ---------------------------------------------------------------------------
# Wrappers
# ---------------------------------------------------------------------------

def _wrap_integrand(tracer, f):
    suffix = LABEL_KEYS.get(f.label, "other")
    raw, series = f.eval, f.near_zero
    raw_name, series_name = f"integrand.raw.{suffix}", f"integrand.series.{suffix}"

    def traced_raw(t):
        return tracer.call(raw_name, raw, t)

    def traced_series(t):
        return tracer.call(series_name, series, t)

    return dataclasses.replace(
        f, eval=traced_raw, near_zero=traced_series if series is not None else None
    )


def _quadrature_wrapper(tracer, original):
    def traced(f, *args, **kwargs):
        span = tracer.open("quadrature", {"sides": []})
        try:
            result = original(_wrap_integrand(tracer, f), *args, **kwargs)
        finally:
            tracer.close(span)
        span[INFO]["evals"] = result.evaluations
        span[INFO]["levels"] = result.levels_used
        return result
    return traced


def _side_hook(tracer, original):
    # Level-loop helper: returns (sum, evaluations, hit_cap) for one side of
    # one level.  Counted into the enclosing quadrature span, not timed.
    def hooked(*args, **kwargs):
        result = original(*args, **kwargs)
        span = tracer.top()
        if span is not None and span[NAME] == "quadrature":
            span[INFO]["sides"].append(result[1])
        return result
    return hooked


def _route_wrapper(tracer, original, route_id):
    signature = inspect.signature(original)

    def traced(*args, **kwargs):
        info = {}
        if route_id == "hasse":
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            n = bound.arguments["n_terms"]
            info["terms"] = (n + 1) * (n + 2) // 2    # sum_{n'<=n} (n'+1) inner terms
        span = tracer.open(f"route.{route_id}", info)
        try:
            estimate = original(*args, **kwargs)
        finally:
            tracer.close(span)
        info["evals"] = estimate.evaluations
        return estimate
    return traced


def _span_wrapper(tracer, original, name):
    def traced(*args, **kwargs):
        return tracer.call(name, original, *args, **kwargs)
    return traced


def _wrappers(tracer):
    """Name -> factory(original) for every name the traced run replaces."""
    table = {name: lambda o: _quadrature_wrapper(tracer, o) for name in QUADRATURE_NAMES}
    table["_sum_side"] = lambda o: _side_hook(tracer, o)
    table["log_gamma_ref"] = lambda o: _span_wrapper(tracer, o, "loggamma.ref")
    table["compute_constants"] = lambda o: _span_wrapper(tracer, o, "context.constants")
    for rid in ROUTE_IDS:
        table[f"route_{rid}"] = lambda o, rid=rid: _route_wrapper(tracer, o, rid)
    identity_functions = {
        "glaisher_identity_residual": "glaisher_half",
        "gla2_residual": "gla2",
        "log_sin_check": "log_sin",
        "res2_measure_check": "res2_measure_check",
    }
    for fn, iid in identity_functions.items():
        table[fn] = lambda o, iid=iid: _span_wrapper(tracer, o, f"identity.{iid}")
    table["run_all"] = lambda o: _span_wrapper(tracer, o, "report.run_all")
    table["serialize"] = lambda o: _span_wrapper(tracer, o, "report.serialize")
    table["deserialize_report"] = lambda o: _span_wrapper(tracer, o, "report.deserialize")
    table["main"] = lambda o: _span_wrapper(tracer, o, "cli.main")
    return table


@contextmanager
def instrument(tracer, modules):
    """Replace, in each module, every name in the wrapper table it holds;
    restore the originals on exit.  ``main`` is wrapped in ``glaisher.cli``
    only (it is the CLI entry point, not a package-wide name)."""
    saved = []
    try:
        for module in modules:
            for name, factory in _wrappers(tracer).items():
                if name == "main" and module.__name__ != "glaisher.cli":
                    continue
                if name in vars(module):
                    original = getattr(module, name)
                    saved.append((module, name, original))
                    setattr(module, name, factory(original))
        yield
    finally:
        for module, name, original in reversed(saved):
            setattr(module, name, original)


# ---------------------------------------------------------------------------
# Aggregation and reconciliation
# ---------------------------------------------------------------------------

class SpanIndex:
    def __init__(self, spans):
        self.spans = spans
        self.child_time = [0.0] * len(spans)
        self.children = [[] for _ in spans]
        self.by_name: dict[str, list] = {}
        for s in spans:
            self.by_name.setdefault(s[NAME], []).append(s)
            if s[PARENT] >= 0:
                self.child_time[s[PARENT]] += s[END] - s[START]
                self.children[s[PARENT]].append(s[ID])

    def duration(self, s):
        return s[END] - s[START]

    def self_time(self, s):
        return s[END] - s[START] - self.child_time[s[ID]]

    def ancestors(self, s):
        parent = s[PARENT]
        while parent >= 0:
            yield self.spans[parent]
            parent = self.spans[parent][PARENT]

    def nearest(self, s, prefix):
        return next((a for a in self.ancestors(s) if a[NAME].startswith(prefix)), None)

    def named(self, name):
        return self.by_name.get(name, [])


def _is_routes_layer(name):
    return name.startswith("route.") or name.startswith("identity.")


def layer_metrics(index: SpanIndex) -> dict[str, float]:
    spans = index.spans
    m: dict[str, float] = {}

    m["context.constants_s"] = sum(index.duration(s) for s in index.named("context.constants"))

    quad = index.named("quadrature")
    evals = sum(s[INFO]["evals"] for s in quad)
    observed = [s for s in quad if s[INFO]["sides"]]
    final_level = sum(sum(s[INFO]["sides"][-2:]) for s in observed)
    observed_evals = sum(s[INFO]["evals"] for s in observed)
    m["quadrature.calls"] = len(quad)
    m["quadrature.evals"] = evals
    m["quadrature.levels_max"] = max((s[INFO]["levels"] for s in quad), default=0)
    m["quadrature.confirm_share"] = final_level / observed_evals if observed_evals else 0.0
    m["quadrature.self_s"] = sum(index.self_time(s) for s in quad)

    for kind, suffixes in SUFFIXES.items():
        prefix = f"integrand.{kind}."
        for suffix in suffixes:
            named = index.named(prefix + suffix)
            m[f"routes.integrand_{kind}_calls.{suffix}"] = len(named)
            m[f"routes.integrand_{kind}_s.{suffix}"] = sum(index.duration(s) for s in named)
        every = [s for name, spans in index.by_name.items() if name.startswith(prefix)
                 for s in spans]
        m[f"routes.integrand_{kind}_calls"] = len(every)
        m[f"routes.integrand_{kind}_s"] = sum(index.duration(s) for s in every)

    top_level = [s for s in spans if _is_routes_layer(s[NAME])
                 and not any(_is_routes_layer(a[NAME]) for a in index.ancestors(s))]
    for rid in ROUTE_IDS:
        mine = [s for s in top_level if s[NAME] == f"route.{rid}"]
        m[f"routes.{rid}_s"] = sum(index.duration(s) for s in mine)
        m[f"routes.{rid}_evals"] = sum(s[INFO]["evals"] for s in mine)
    for iid in IDENTITY_IDS:
        m[f"routes.{iid}_s"] = sum(index.duration(s) for s in top_level
                                   if s[NAME] == f"identity.{iid}")
    m["routes.hasse_terms"] = sum(s[INFO]["terms"] for s in index.named("route.hasse"))

    refs = index.named("loggamma.ref")
    m["loggamma.ref_calls"] = len(refs)
    m["loggamma.ref_s"] = sum(index.duration(s) for s in refs)

    for name in ("run_all", "serialize", "deserialize"):
        m[f"report.{name}_s"] = sum(index.duration(s) for s in index.named(f"report.{name}"))
    m["cli.self_s"] = sum(index.self_time(s) for s in index.named("cli.main"))
    return m


def reconcile(index: SpanIndex, shown: dict[str, int]) -> list[str]:
    """Problems where the trace's counts disagree with the package's outputs.

    ``shown`` maps each route/identity id the operation's output reports to
    the evaluations it reports (0 for identities).
    """
    problems = []
    below = {}                       # route span id -> work counted beneath it
    for s in index.spans:
        if s[NAME] == "quadrature":
            route = index.nearest(s, "route.")
            if route is not None:
                below[route[ID]] = below.get(route[ID], 0) + s[INFO]["evals"]
            sides = s[INFO]["sides"]
            if s[INFO]["evals"] > 0 and not any(
                    index.spans[c][NAME].startswith("integrand.") for c in index.children[s[ID]]):
                problems.append("quadrature span with evaluations but no integrand calls traced")
            if sides and 1 + sum(sides) != s[INFO]["evals"]:
                problems.append(f"level loop counted {1 + sum(sides)} evaluations, "
                                f"result reports {s[INFO]['evals']}")
        elif s[NAME] == "loggamma.ref":
            route = index.nearest(s, "route.")
            if route is not None and route[NAME] == "route.limit":
                below[route[ID]] = below.get(route[ID], 0) + 1

    for s in index.spans:
        if not s[NAME].startswith("route."):
            continue
        rid = s[NAME][len("route."):]
        evals = s[INFO]["evals"]
        if rid in INTEGRAL_ROUTES or rid == "limit":
            traced = below.get(s[ID], 0)
            what = "quadrature evaluations" if rid != "limit" else "log_gamma_ref calls"
        elif rid == "hasse":
            traced, what = s[INFO]["terms"], "Hasse terms"
        else:
            continue
        if traced != evals:
            problems.append(f"{rid}: traced {traced} {what}, route reports {evals}")

    for key, evals in shown.items():
        kind = "route" if key in ROUTE_IDS else "identity"
        spans = index.named(f"{kind}.{key}")
        if not spans:
            problems.append(f"output shows {key} but no {kind} span was traced")
        elif kind == "route" and evals not in [s[INFO]["evals"] for s in spans]:
            problems.append(f"{key}: output shows {evals} evaluations, "
                            f"traced spans report {[s[INFO]['evals'] for s in spans]}")
    return problems


# ---------------------------------------------------------------------------
# Probes (traced run only; cheap fixed inputs at the workload precision)
# ---------------------------------------------------------------------------

def per_call_seconds(fn, budget_s=0.2, batches=5):
    """Median over batches of the mean per-call time of ``fn()``."""
    start = time.perf_counter()
    fn()
    first = time.perf_counter() - start
    reps = max(1, int(budget_s / batches / max(first, 1e-7)))
    samples = []
    for _ in range(batches):
        start = time.perf_counter()
        for _ in range(reps):
            fn()
        samples.append((time.perf_counter() - start) / reps)
    return statistics.median(samples)


def probe_metrics(g, digits: int) -> tuple[dict[str, float], list[str]]:
    """Quadrature on cheap known integrands, the smallt kernels and the log
    Gamma oracle against ``mpmath.loggamma``, all at ``digits``.  A kernel
    missing from ``glaisher.smallt`` reads 0."""
    m: dict[str, float] = {}
    problems: list[str] = []
    ctx = g.make_context(digits)
    with mp.workdps(digits + gate.ORACLE_GUARD_DIGITS):
        exact = {"inf": mpf(1), "finite": mpmath.pi / 4}
    integrands = {
        "inf": g.Integrand(eval=lambda t: 1 / (1 + t) ** 2, label="probe_inf"),
        "finite": g.Integrand(eval=lambda x: 1 / (1 + x * x), label="probe_finite"),
    }
    for name, f in integrands.items():
        start = time.perf_counter()
        if name == "inf":
            result = g.integrate_zero_to_inf(f, ctx=ctx)
        else:
            result = g.integrate_finite(f, mpf(0), mpf(1), ctx=ctx)
        m[f"quadrature.probe_{name}_s"] = time.perf_counter() - start
        m[f"quadrature.probe_{name}_evals"] = result.evaluations
        problems += gate.estimate_problems(f"probe_{name}", result.value,
                                           result.error_estimate, exact[name], digits)

    with mp.workdps(digits):
        for kernel in SMALLT_KERNELS:
            fn = getattr(g.smallt, kernel, None)
            for e in SMALLT_EXPONENTS:
                t = mpf(2) ** -e
                key = f"smallt.kernel_us.{kernel}.t2_{e}"
                m[key] = 1e6 * per_call_seconds(lambda: fn(t)) if fn else 0.0

        args = [mpf(a) for a in LOGGAMMA_ARGS]
        ref = per_call_seconds(lambda: [g.log_gamma_ref(x, ctx) for x in args]) / len(args)
        base = per_call_seconds(lambda: [mpmath.loggamma(x) for x in args]) / len(args)
    m["loggamma.ref_us"] = 1e6 * ref
    m["loggamma.mpmath_us"] = 1e6 * base
    m["loggamma.ref_vs_mpmath"] = ref / base
    return m, problems
