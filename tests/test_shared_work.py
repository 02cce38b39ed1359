"""Work shared within one computation, and never beyond it.

``run_all`` and ``routes.identity_residuals`` hold one table
(``quadrature.shared_work``) for their whole body: the integrals share
quadrature nodes, and gla2 reuses glaisher_half's log Gamma(1+x) values.
Each route still makes its own engine call on its own integrand, so the
counts the benchmark's traced run reconciles still hold, and every value
is the one the route gives alone.  ``run_all`` and ``identity_report``
take the identity residuals' log A from one default-N Fourier estimate,
so ``verify`` integrates no route at all.
"""

from __future__ import annotations

import collections
import dataclasses
import json

import mpmath
import pytest

import glaisher.cli
import glaisher.loggamma
import glaisher.quadrature
import glaisher.report
import glaisher.routes
import glaisher.smallt
from glaisher import make_context, run_all
from glaisher.cli import EXIT_OK, main
from glaisher.context import real_to_decimal
from glaisher.report import identity_report
from glaisher.routes import (
    IDENTITY_IDS,
    ROUTE_IDS,
    gla2_residual,
    glaisher_identity_residual,
    log_sin_check,
    route_fourier_series,
    route_pain1,
)

INTEGRAL_ROUTES = ("pain1", "pain2", "feaux", "kummer")


def _bits(x):
    return x._mpf_


@pytest.fixture
def engine_exp_calls(monkeypatch):
    """Count the engine's exps: the kernel's, one per node pair, and
    mpmath.exp's, four per fresh level stream."""
    calls = [0]

    class Counting:
        def __getattr__(self, name):
            return getattr(mpmath, name)

        def exp(self, *args):
            calls[0] += 1
            return mpmath.exp(*args)

    kernel = glaisher.quadrature._exp

    def counted(*args):
        calls[0] += 1
        return kernel(*args)

    monkeypatch.setattr(glaisher.quadrature, "mpmath", Counting())
    monkeypatch.setattr(glaisher.quadrature, "_exp", counted)
    return calls


@pytest.fixture
def raw_exp_calls(monkeypatch):
    """The (precision, abscissa) of each E = e^(-t/2) the route raw forms
    take (``smallt.exp_neg``, their only exp)."""
    calls = []
    original = glaisher.routes.exp_neg

    def counted(t):
        calls.append((mpmath.mp.prec, t._mpf_))
        return original(t)

    monkeypatch.setattr(glaisher.routes, "exp_neg", counted)
    return calls


@pytest.fixture
def oracle_calls(monkeypatch):
    calls = [0]
    original = glaisher.loggamma.log_gamma_ref

    def counted(*args, **kwargs):
        calls[0] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(glaisher.loggamma, "log_gamma_ref", counted)
    return calls


class TestReconcileInvariant:
    """What the traced benchmark run reconciles, checked by module-attribute
    replacement as its tracer does: an integral route's evaluations are the
    engine evaluations made inside its own call, every engine call
    evaluates its integrand, and route_limit's evaluations are its oracle
    calls (none: it sums the integer-log table)."""

    def test_route_counts_match_the_work_beneath_them(self, monkeypatch):
        open_routes = []        # [engine evaluations, oracle calls] per open route call
        finished = []           # (estimate, [engine evaluations, oracle calls])
        integrand_calls = []    # (evaluations, integrand calls) per engine call

        def engine(original):
            def counted(f, *args, **kwargs):
                calls = [0]

                def tally(form):
                    def call(t):
                        calls[0] += 1
                        return form(t)
                    return call

                f = dataclasses.replace(
                    f, eval=tally(f.eval),
                    near_zero=f.near_zero and tally(f.near_zero),
                )
                result = original(f, *args, **kwargs)
                integrand_calls.append((result.evaluations, calls[0]))
                if open_routes:
                    open_routes[-1][0] += result.evaluations
                return result
            return counted

        def oracle(original):
            def counted(*args, **kwargs):
                if open_routes:
                    open_routes[-1][1] += 1
                return original(*args, **kwargs)
            return counted

        def route(original):
            def counted(*args, **kwargs):
                open_routes.append([0, 0])
                try:
                    estimate = original(*args, **kwargs)
                finally:
                    work = open_routes.pop()
                finished.append((estimate, work))
                return estimate
            return counted

        for name in ("integrate_zero_to_inf", "integrate_finite"):
            monkeypatch.setattr(glaisher.routes, name, engine(getattr(glaisher.routes, name)))
        monkeypatch.setattr(glaisher.loggamma, "log_gamma_ref",
                            oracle(glaisher.loggamma.log_gamma_ref))
        for module in (glaisher.report, glaisher.routes):
            for rid in ROUTE_IDS:
                name = f"route_{rid}"
                monkeypatch.setattr(module, name, route(getattr(module, name)))

        doc = run_all(make_context(30))
        assert not [f for f in doc.failures if not f.refused]

        seen = []
        for estimate, (evaluations, oracle_count) in finished:
            seen.append(estimate.route_id)
            if estimate.route_id in INTEGRAL_ROUTES:
                assert estimate.evaluations == evaluations, estimate.route_id
            if estimate.route_id == "limit":
                assert estimate.evaluations == oracle_count == 0
        # the four routes, the limit and the dt control's kummer call
        assert sorted(set(seen) & {*INTEGRAL_ROUTES, "limit"}) == sorted(
            {*INTEGRAL_ROUTES, "limit"})
        assert seen.count("kummer") == 2
        assert len(integrand_calls) == 8
        assert all(calls > 0 for evaluations, calls in integrand_calls if evaluations)


class TestBitIdentity:
    """Inside run_all every route and residual is the one computed alone."""

    def test_run_all_matches_each_route_alone(self):
        doc = run_all(make_context(50))
        assert not doc.failures
        for shared in doc.estimates:
            alone = getattr(glaisher.routes, f"route_{shared.route_id}")(make_context(50))
            assert _bits(shared.value) == _bits(alone.value), shared.route_id
            assert _bits(shared.error_estimate) == _bits(alone.error_estimate), shared.route_id
            assert shared.evaluations == alone.evaluations, shared.route_id

        ctx = make_context(50)
        log_a = route_fourier_series(ctx).value
        alone = {
            "glaisher_half": glaisher_identity_residual(ctx, log_a),
            "gla2": gla2_residual(ctx, log_a),
            "log_sin": log_sin_check(ctx),
        }
        residuals = {r.identity_id: r for r in doc.residuals}
        for iid, r in alone.items():
            assert _bits(residuals[iid].residual) == _bits(r.residual), iid


class TestIdentityLogA:
    """The identity pass takes log A from the default-N Fourier series,
    which shares no code with the quadrature engine."""

    def test_verify_integrates_no_route(self, monkeypatch, capsys):
        half_line_calls = [0]
        original = glaisher.routes.integrate_zero_to_inf

        def counted(*args, **kwargs):
            half_line_calls[0] += 1
            return original(*args, **kwargs)

        def refuse(*args, **kwargs):
            raise AssertionError("an integral route ran for the identity pass")

        monkeypatch.setattr(glaisher.routes, "integrate_zero_to_inf", counted)
        for module in (glaisher.report, glaisher.routes):
            for name in ("route_feaux", "route_kummer"):
                monkeypatch.setattr(module, name, refuse)
        assert main(["verify", "--digits", "25"]) == EXIT_OK
        out = capsys.readouterr().out
        assert [line.split()[-1] for line in out.splitlines() if "residual =" in line] == [
            "ok", "ok", "ok"], out
        assert half_line_calls[0] == 0

    def test_compute_and_verify_give_bit_identical_residuals(self, monkeypatch, tmp_path):
        docs = {}

        def keep(name):
            original = getattr(glaisher.cli, name)

            def call(*args, **kwargs):
                docs[name] = original(*args, **kwargs)
                return docs[name]
            return call

        for name in ("run_all", "identity_report"):
            monkeypatch.setattr(glaisher.cli, name, keep(name))
        out = tmp_path / "report.json"
        assert main(["compute", "--digits", "50", "--output", "json", "--out", str(out)]) == EXIT_OK
        assert main(["verify", "--digits", "50", "--out", str(tmp_path / "verify.txt")]) == EXIT_OK

        verified = {r.identity_id: r.residual for r in docs["identity_report"].residuals}
        computed = {r.identity_id: r.residual for r in docs["run_all"].residuals}
        written = {r["identity_id"]: r["residual"] for r in json.loads(out.read_bytes())["residuals"]}
        assert sorted(verified) == ["gla2", "glaisher_half", "log_sin"]
        for iid, residual in verified.items():
            assert _bits(computed[iid]) == _bits(residual), iid
            assert written[iid] == real_to_decimal(residual, 50), iid

    def test_run_all_reuses_a_default_fourier_estimate(self, monkeypatch):
        # one Fourier estimate serves the route row and the identity pass
        # when it ran at the defaults; otherwise the pass runs its own
        calls = [0]
        original = glaisher.report.route_fourier_series

        def counted(*args, **kwargs):
            calls[0] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(glaisher.report, "route_fourier_series", counted)
        ctx = make_context(30)
        residuals = []
        for params, runs in (({}, 1), ({"fourier_n": 100}, 1), ({"fourier_n": 60}, 2),
                             ({"fourier_accelerate": False}, 2)):
            calls[0] = 0
            doc = run_all(ctx, ["fourier_series"], params)
            assert not doc.failures, params
            assert calls[0] == runs, params
            residuals.append([_bits(r.residual) for r in doc.residuals])
        assert all(r == residuals[0] for r in residuals)


    def test_run_all_integrates_only_the_requested_routes(self, monkeypatch):
        # The dt control reads the same Fourier log A as the identity pass,
        # so a report with no integral route makes no exp-sinh integral.
        def refuse(*args, **kwargs):
            raise AssertionError("an exp-sinh integral ran")

        monkeypatch.setattr(glaisher.routes, "integrate_zero_to_inf", refuse)
        doc = run_all(make_context(50), ["limit", "fourier_series", "hasse"])
        assert not doc.failures
        assert [r.identity_id for r in doc.residuals] == list(IDENTITY_IDS)
        assert doc.exit_code == EXIT_OK

class TestSharingIsScoped:
    """The sharing is real within one computation and ends with it."""

    def test_run_all_engine_exp_calls(self, engine_exp_calls):
        run_all(make_context(50))
        first = engine_exp_calls[0]
        # 1893 with a node scan per integral
        assert first == 548
        run_all(make_context(50))
        assert engine_exp_calls[0] == 2 * first

    def test_run_all_raw_form_exp_calls(self, raw_exp_calls):
        run_all(make_context(50))
        first = len(raw_exp_calls)
        # one E per abscissa; 1139 with an exp per raw-form evaluation
        assert first == len(set(raw_exp_calls)) == 362
        run_all(make_context(50))
        assert len(raw_exp_calls) == 2 * first
        assert raw_exp_calls[first:] == raw_exp_calls[:first]

    def test_identity_report_oracle_calls(self, oracle_calls, monkeypatch):
        series_calls = [0]
        original = glaisher.routes._log_gamma1p_series

        def counted(*args):
            series_calls[0] += 1
            return original(*args)

        monkeypatch.setattr(glaisher.routes, "_log_gamma1p_series", counted)
        doc = identity_report(make_context(100))
        assert not doc.failures and not doc.failed_residuals
        # 342 distinct nodes of the 678 of glaisher_half and gla2, each a
        # Taylor series in zeta(k); none calls the Stirling oracle.
        assert (oracle_calls[0], series_calls[0]) == (0, 342)

    def test_standalone_route_shares_nothing(self, engine_exp_calls):
        ctx = make_context(30)
        route_pain1(ctx)
        first = engine_exp_calls[0]
        route_pain1(ctx)
        assert engine_exp_calls[0] == 2 * first

    def test_nodes_stream_outside_a_block(self):
        # Outside a computation a level's nodes pass once and none is
        # kept (at 200 digits a kept level would hold megabytes); inside
        # one, every integral reads the same compute-once sequence.
        def level(transform):
            return glaisher.quadrature._level_nodes(transform, lambda s, w: s, 3, 4.0)[2]

        with mpmath.workdps(50):
            nodes = level(("exp-sinh",))
            assert iter(nodes) is nodes
            with glaisher.quadrature.shared_work():
                nodes = level(("exp-sinh",))
                assert isinstance(nodes, glaisher.smallt._Lazy)
                assert level(("exp-sinh",)) is nodes
                assert level(("tanh-sinh", 0, 1)) is not nodes

    def test_table_is_dropped_when_the_computation_raises(self, monkeypatch):
        def broken(*args):
            assert glaisher.quadrature._SHARED.get() is not None
            raise RuntimeError("matrix failed")

        monkeypatch.setattr(glaisher.report, "_agreement_matrix", broken)
        with pytest.raises(RuntimeError, match="matrix failed"):
            run_all(make_context(20), ["feaux"])
        assert glaisher.quadrature._SHARED.get() is None

    def test_nested_blocks_share_one_table(self):
        with glaisher.quadrature.shared_work() as outer:
            with glaisher.quadrature.shared_work() as inner:
                assert inner is outer
            assert glaisher.quadrature._SHARED.get() is outer
        assert glaisher.quadrature._SHARED.get() is None


class TestSharedHelper:
    """``quadrature.shared(key, compute, *args)``: one value per key in a
    computation, nothing kept outside one."""

    @staticmethod
    def counting():
        calls = []

        def compute(*args):
            calls.append(args)
            return len(calls)

        return calls, compute

    def test_outside_a_block_computes_every_call(self):
        calls, compute = self.counting()
        assert glaisher.quadrature.shared("k", compute, 1) == 1
        assert glaisher.quadrature.shared("k", compute, 1) == 2
        assert calls == [(1,), (1,)]
        assert glaisher.quadrature._SHARED.get() is None

    def test_inside_a_block_computes_once_per_key(self):
        calls, compute = self.counting()
        shared = glaisher.quadrature.shared
        with glaisher.quadrature.shared_work() as table:
            assert [shared("a", compute, 1), shared("b", compute, 2), shared("a", compute, 3)] == [1, 2, 1]
        assert calls == [(1,), (2,)]
        assert table == {"a": 1, "b": 2}

    def test_a_nested_block_reads_the_same_table(self):
        calls, compute = self.counting()
        shared = glaisher.quadrature.shared
        with glaisher.quadrature.shared_work():
            shared("a", compute)
            with glaisher.quadrature.shared_work():
                assert shared("a", compute) == 1
                shared("b", compute)
            assert shared("b", compute) == 2
        assert len(calls) == 2

    def test_a_compute_that_raises_stores_nothing(self):
        def broken():
            raise ArithmeticError("no value")

        calls, compute = self.counting()
        shared = glaisher.quadrature.shared
        with glaisher.quadrature.shared_work() as table:
            with pytest.raises(ArithmeticError):
                shared("a", broken)
            assert table == {}
            assert shared("a", compute) == 1

    def test_the_table_is_dropped_when_the_block_raises(self):
        calls, compute = self.counting()
        shared = glaisher.quadrature.shared
        with pytest.raises(RuntimeError):
            with glaisher.quadrature.shared_work():
                shared("a", compute)
                raise RuntimeError("computation failed")
        assert glaisher.quadrature._SHARED.get() is None
        with glaisher.quadrature.shared_work():
            assert shared("a", compute) == 2


class TestNothingSharedIsComputedTwice:
    """Each shared value -- E = e^(-t/2), log Gamma(1+x), the zeta table
    and the (sinh, cosh) stream of a level -- is computed once per key in
    a computation, counted at the functions that compute it."""

    @pytest.fixture
    def computed(self, monkeypatch):
        counts = collections.Counter()

        def counted(module, name, key):
            original = getattr(module, name)

            def call(*args):
                counts[name, key(*args)] += 1
                return original(*args)

            monkeypatch.setattr(module, name, call)

        counted(glaisher.routes, "exp_neg", lambda t: (mpmath.mp.prec, t._mpf_))
        counted(glaisher.routes, "_log_gamma1p_series", lambda x, ctx: (mpmath.mp.prec, x._mpf_))
        counted(glaisher.loggamma, "_zeta_fixed", lambda width, count: (width, count))
        original = glaisher.quadrature._scaled_sinh_cosh

        def stream(level, step, count):
            pairs = original(level, step, count)
            first = next(pairs, None)       # runs only when the level loop reads it
            counts["_scaled_sinh_cosh", (mpmath.mp.prec, level)] += 1
            if first is not None:
                yield first
                yield from pairs

        monkeypatch.setattr(glaisher.quadrature, "_scaled_sinh_cosh", stream)
        return counts

    @staticmethod
    def families(counts):
        assert set(counts.values()) == {1}, [key for key, n in counts.items() if n > 1]
        return collections.Counter(name for name, _ in counts)

    def test_run_all(self, computed):
        run_all(make_context(50))
        assert self.families(computed) == {
            "exp_neg": 362, "_log_gamma1p_series": 158, "_zeta_fixed": 1, "_scaled_sinh_cosh": 12}

    def test_identity_report(self, computed):
        identity_report(make_context(100))
        assert self.families(computed) == {
            "_log_gamma1p_series": 342, "_zeta_fixed": 1, "_scaled_sinh_cosh": 6}
