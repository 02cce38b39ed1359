"""Benchmark of the glaisher package: seconds per verified result.

Run from the repository root:

    python3 perfbench/run.py --workload report_50 --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all          # the four workloads in turn
    python3 -m pytest perfbench/test_gate.py         # tests of the gate itself

Each run measures one workload (see ``workloads.py``) in a closed loop: one
client, one process, one thread, operations back to back, at least
``MIN_OPS`` of them and more while the next one is expected to finish
within ``--seconds``.  Every operation's output goes through the
correctness gate (``gate.py``); a failed check counts the operation as
failed.  The last line of standard output is one JSON object.

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``.  The
two times are in reference-speed seconds (wall seconds divided by the
machine's speed factor, see ``speed.py``), so that the machine's own speed
changes do not read as changes of the package:

* ``setup_s``     -- median of ``SETUP_SAMPLES`` set-ups, each in a fresh
  interpreter (``setup_probe.py``), after one discarded warm-up;
* ``op_s_p50``    -- median time of one operation;
* ``peak_rss_mb`` -- peak resident memory of this process.

The raw wall-clock medians and the speed factor are per-layer metrics
(``bench.*``).  The failure ratio is the JSON's ``failed`` / ``attempted``
and is printed as ``fail_ratio`` in the summary line.

``--trace 1`` runs the same untraced loop, then one operation under the
tracer (``tracing.py``) and fixed probes, and reports the per-layer metrics.
Its counts are reconciled against the package's own outputs and compared
with the exact values in ``expected_counts.json``; a count that moved is
printed as a count change and counted in ``bench.count_changes``.

Timing noise comes from the machine, not the scheduler: six back-to-back
``route_kummer`` calls at 100 digits took 0.64-0.79 s while CPU time
tracked wall time within 2%.  Hence speed-corrected times, medians, and
bounds that rest on them.
"""

from __future__ import annotations

import argparse
import json
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import gate
import speed
import tracing
from workloads import WORKLOADS, Checked

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = HERE / "out"
MIN_OPS = 2
SETUP_SAMPLES = 15


def measure_setup(workload) -> tuple[float, float]:
    """Median over the set-ups of (wall seconds, reference-speed seconds)."""
    digits = str(workload.digits if workload.library else 0)
    command = [sys.executable, str(HERE / "setup_probe.py"), str(SRC), digits]
    walls, factors = [], []
    for _ in range(SETUP_SAMPLES + 1):
        done = subprocess.run(command, capture_output=True, text=True, timeout=120, check=True)
        wall, factor = map(float, done.stdout.split())
        walls.append(wall)
        factors.append(factor)
    walls, factors = walls[1:], factors[1:]
    scaled = [w / f for w, f in zip(walls, factors)]
    return statistics.median(walls), statistics.median(scaled)


def checked_op(g, workload, state, rng, oracle):
    """(wall seconds, output, Checked) of one operation; exceptions are failures."""
    start = time.perf_counter()
    try:
        out = workload.op(g, state, rng, OUT_DIR)
    except Exception:
        return time.perf_counter() - start, None, Checked([traceback.format_exc()], {}, {})
    seconds = time.perf_counter() - start
    return seconds, out, workload.check(out, oracle, workload.digits)


def log_problems(label, problems):
    for p in problems:
        print(f"[{label}] {p}", file=sys.stderr)


def count_changes(expected: dict, measured: dict[str, set]) -> int:
    """Number of counts that differ from the recorded exact values."""
    changes = 0
    for key, values in sorted(measured.items()):
        if key in expected and values != {expected[key]}:
            changes += 1
            print(f"count change: {key} expected {expected[key]}, measured {sorted(values)}",
                  file=sys.stderr)
    return changes


def traced_run(g, workload, rng, oracle, op_wall_s_p50, expected, seed):
    tracer = tracing.Tracer()
    modules = [g, g.cli, g.report, g.routes, g.loggamma, g.context, g.quadrature]
    with tracing.instrument(tracer, modules):
        try:
            state = tracer.call("bench.setup", workload.setup, g)
        except Exception:
            state = None
            log_problems("traced set-up", [traceback.format_exc()])
        seconds, out, checked = checked_op(g, workload, state, rng, oracle)
    tracer.write(OUT_DIR / f"trace-{workload.name}-{seed}.jsonl")

    index = tracing.SpanIndex(tracer.spans)
    problems = checked.problems + tracing.reconcile(index, checked.shown)
    metrics = tracing.layer_metrics(index)
    probes, probe_problems = tracing.probe_metrics(g, workload.digits)
    metrics.update(probes)
    problems += probe_problems

    doc = out.doc if out is not None else None
    metrics["report.json_bytes"] = out.json_bytes if out is not None else 0
    metrics["report.estimates_finer_than_json"] = 0 if doc is None else sum(
        1 for e in doc.estimates
        if 10 * e.error_estimate < gate.print_rounding(e.value, doc.context_info["precision_digits"])
    )
    metrics["bench.traced_op_s"] = seconds
    metrics["bench.trace_overhead"] = seconds / op_wall_s_p50 - 1
    measured = {k: {v} for k, v in metrics.items() if k in expected}
    metrics["bench.count_changes"] = count_changes(expected, measured)
    return metrics, problems


def run_workload(name: str, seed: int, seconds: float, traced: bool) -> int:
    if not (SRC / "glaisher" / "__init__.py").is_file():
        print(f"error: package source not found under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = json.loads((HERE / "expected_counts.json").read_text())[name]
    workload = WORKLOADS[name]

    setup_wall_s, setup_s = measure_setup(workload)
    sys.path.insert(0, str(SRC))
    import glaisher
    import glaisher.cli

    if SRC.resolve() not in Path(glaisher.__file__).resolve().parents:
        print(f"error: glaisher imported from {glaisher.__file__}, not {SRC}", file=sys.stderr)
        return 2
    OUT_DIR.mkdir(exist_ok=True)
    rng = random.Random(seed)
    oracle = gate.log_a_oracle(workload.digits)
    state = workload.setup(glaisher)

    walls, scaled, factors, failed, counts = [], [], [], 0, {}
    loop_start = time.perf_counter()
    while True:
        with speed.SpeedMonitor() as monitor:
            op_seconds, _, checked = checked_op(glaisher, workload, state, rng, oracle)
        factor = monitor.factor()
        walls.append(op_seconds)
        scaled.append(op_seconds / factor)
        factors.append(factor)
        print(f"op {len(walls)}: {op_seconds:.4f} s wall, speed factor {factor:.3f}",
              file=sys.stderr)
        if checked.problems:
            failed += 1
            log_problems(f"op {len(walls)}", checked.problems)
        for key, value in checked.counts.items():
            counts.setdefault(key, set()).add(value)
        elapsed = time.perf_counter() - loop_start
        if len(walls) >= MIN_OPS and elapsed + statistics.median(walls) > seconds:
            break
    op_s_p50 = statistics.median(scaled)
    op_wall_s_p50 = statistics.median(walls)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    attempted = len(walls)
    visible_changes = count_changes(expected, counts)

    print(f"{name}: setup_s {setup_s:.4f} s (wall {setup_wall_s:.4f} s, median of "
          f"{SETUP_SAMPLES}) | op_s_p50 {op_s_p50:.4f} s (wall {op_wall_s_p50:.4f} s, "
          f"n={attempted}) | fail_ratio {failed / attempted:g} ratio ({failed}/{attempted}) | "
          f"peak_rss_mb {peak_rss_mb:.1f} MB | count changes {visible_changes}")

    if traced:
        metrics, problems = traced_run(glaisher, workload, rng, oracle, op_wall_s_p50,
                                       expected, seed)
        metrics["bench.op_wall_s_p50"] = op_wall_s_p50
        metrics["bench.setup_wall_s"] = setup_wall_s
        metrics["bench.speed_factor"] = statistics.median(factors)
        attempted += 1
        if problems:
            failed += 1
            log_problems("traced op", problems)
        wanted = spec["per_layer"]
    else:
        metrics = {
            "setup_s": setup_s,
            "op_s_p50": op_s_p50,
            "peak_rss_mb": peak_rss_mb,
        }
        wanted = spec["end_to_end"]

    units = {m["name"]: m["unit"] for m in wanted}
    if set(metrics) != set(units):
        print(f"error: metrics {sorted(set(metrics) ^ set(units))} differ from BENCHMARK.json",
              file=sys.stderr)
        return 2
    if traced:
        for key in sorted(metrics):
            print(f"  {key} {metrics[key]:.6g} {units[key]}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in sorted(metrics)},
    }))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload != "all":
        return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    codes = [
        subprocess.run([sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                        "--seconds", str(args.seconds), "--trace", str(args.trace)]).returncode
        for name in WORKLOADS
    ]
    return max(codes)


if __name__ == "__main__":
    sys.exit(main())
