"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload fleet-rf --seed 1 --seconds 20 --trace 0

The first run in a checkout trains the Random Forest into the
benchmark's own cache (``perfbench/prepare.py``), which takes a few
minutes; no timed run ever trains.

A run sets up, then repeats whole rounds of the workload until
``--seconds`` of round time have passed, checking every round's output
with ``perfbench/checks.py`` outside the timed window.  The last line of
standard output is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones; with
``--trace 1`` rounds alternate between untraced and traced (see
``perfbench/tracing.py``) and the metrics are the per-layer ones, per
traced round, plus the tracing overhead and coverage.  The line before
it records the host and the per-round timings.
"""

from __future__ import annotations

import os
import sys

#: Fixed for every run: hash seed, and one thread per numerical library.
RUN_ENV = {
    "PYTHONHASHSEED": "0",
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}

if __name__ == "__main__" and any(
    os.environ.get(key) != value for key, value in RUN_ENV.items()
):
    # The hash seed is read at interpreter start, so re-execute in place.
    os.execve(
        sys.executable,
        [sys.executable, os.path.abspath(__file__)] + sys.argv[1:],
        {**os.environ, **RUN_ENV},
    )

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
from typing import Any, Dict, List, Optional, Tuple  # noqa: E402

import prepare  # noqa: E402
import workloads  # noqa: E402

#: What a workload run imports before its first launch.
IMPORTS = (
    "import repro.engine, repro.experiments.runner, repro.fleet, "
    "repro.ml.predictors, repro.workloads.traces"
)

#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 5

END_TO_END_UNITS = {
    "setup_s": "s",
    "decisions_per_s": "launches/s",
    "peak_rss_mb": "MB",
    "sim_energy_j": "J",
    "sim_perf_gips": "Ginstr/s",
}


#: Spans whose total (inclusive) time per round is reported as ``<span>_s``.
TIMED_SPANS = (
    "runtime.process", "runtime.step_batch", "core.decide",
    "core.optimize_kernel", "core.sweep_many", "core.horizon", "ml.estimate",
    "ml.estimate_matrix", "ml.estimate_matrix_many", "ml.forest_predict",
    "ml.forest_load", "hardware.execute", "hardware.execute_matrix",
    "hardware.throttle", "workloads.counters", "sim.run", "sim.turbo_decide",
    "engine.compute", "engine.store", "experiments.tables", "fleet.post",
    "fleet.collect_wait", "fleet.apportion", "fleet.node_step", "obs.merge",
    "obs.drain",
)

#: ``(metric, span)``: metrics that count a span's calls per round.
CALL_COUNTS = (
    ("runtime.process_calls", "runtime.process"),
    ("runtime.step_batch_calls", "runtime.step_batch"),
    ("core.decide_calls", "core.decide"),
    ("core.optimize_kernel_calls", "core.optimize_kernel"),
    ("ml.estimate_calls", "ml.estimate"),
    ("ml.forest_predict_calls", "ml.forest_predict"),
    ("ml.forest_loads", "ml.forest_load"),
    ("hardware.execute_calls", "hardware.execute"),
    ("workloads.counters_calls", "workloads.counters"),
    ("sim.runs", "sim.run"),
    ("engine.requests", "engine.prefetch"),
    ("fleet.posts", "fleet.post"),
    ("obs.merges", "obs.merge"),
)


#: Counts taken at wrapper boundaries: ``(metric, unit)``.
COUNT_METRICS = (
    ("core.sweep_many_rows", "rows"),
    ("ml.estimate_matrix_rows", "rows"),
    ("ml.estimate_matrix_many_rows", "rows"),
    ("hardware.execute_matrix_rows", "rows"),
    ("engine.store_bytes", "bytes"),
    ("fleet.post_bytes", "bytes"),
    ("fleet.migrations", "count"),
    ("obs.spans", "count"),
)


def per_layer_units() -> Dict[str, str]:
    """Every per-layer metric the traced run reports, with its unit."""
    from tracing import LAYERS

    units = {f"{span}_s": "s" for span in TIMED_SPANS}
    units.update({metric: "count" for metric, _ in CALL_COUNTS})
    units.update(COUNT_METRICS)
    units.update({
        "runtime.batch_launches_mean": "launches",
        "workloads.trace_build_s": "s",
        "fleet.collects_per_epoch": "count",
        "fleet.epochs": "count",
    })
    units.update({f"{layer}.self_s": "s" for layer in LAYERS})
    units.update({
        "trace.overhead_pct": "%",
        "trace.coverage_pct": "%",
        "trace.spans": "count",
    })
    return units


def layer_metrics(summary: Dict[str, Any], round_s: float,
                  epochs: int) -> Dict[str, float]:
    """One traced round's per-layer metrics from its span summary."""
    from tracing import LAYERS

    empty = {"calls": 0, "total_s": 0.0, "self_s": 0.0}
    counts = summary["counts"]
    out: Dict[str, float] = {}
    for span in TIMED_SPANS:
        out[f"{span}_s"] = summary.get(span, empty)["total_s"]
    for metric, span in CALL_COUNTS:
        out[metric] = summary.get(span, empty)["calls"]
    for metric, _ in COUNT_METRICS:
        out[metric] = counts.get(metric, 0.0)
    batches = out["runtime.step_batch_calls"]
    out["runtime.batch_launches_mean"] = (
        counts.get("runtime.batch_launches", 0.0) / batches if batches else 0.0
    )
    out["fleet.epochs"] = epochs
    collects = summary.get("fleet.collect_wait", empty)["calls"]
    out["fleet.collects_per_epoch"] = collects / epochs if epochs else 0.0
    self_total = 0.0
    for layer in LAYERS:
        own = sum(
            stats["self_s"] for name, stats in summary.items()
            if name.startswith(layer + ".")
        )
        out[f"{layer}.self_s"] = own
        self_total += own
    out["trace.coverage_pct"] = 100.0 * self_total / round_s
    out["trace.spans"] = summary["spans"]
    return out


def import_seconds() -> float:
    """Import time of the workload modules in a fresh interpreter."""
    snippet = (
        "import time; start = time.perf_counter(); "
        f"{IMPORTS}; print(time.perf_counter() - start)"
    )
    env = {**os.environ, "PYTHONPATH": prepare.SRC}
    done = subprocess.run(
        [sys.executable, "-c", snippet], env=env, cwd=prepare.ROOT,
        capture_output=True, text=True, timeout=120, check=True,
    )
    return float(done.stdout.strip().splitlines()[-1])


def peak_rss_mb() -> float:
    """High-water RSS of this process plus its largest reaped child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0


def run(workload: str, seed: int, seconds: float, trace: bool) -> Dict[str, Any]:
    start = time.perf_counter()
    exec(IMPORTS, {})
    first_import_s = time.perf_counter() - start

    forest_dir = prepare.prepare()
    work_dir = os.path.join(prepare.BUILD_DIR, f"work-{os.getpid()}")
    os.makedirs(work_dir, exist_ok=True)

    tracing_state: Optional[Any] = None
    span = lambda _name: contextlib.nullcontext()  # noqa: E731
    if trace:
        import tracing

        tracing_state = tracing.Tracing()
        span = tracing_state.rec.span
    try:
        wl = workloads.WORKLOADS[workload](seed, forest_dir, work_dir, span)
        setup_samples = []
        trace_build = []
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            wl.setup()
            setup_samples.append(time.perf_counter() - t0)
            trace_build.append(wl.trace_build_s)

        rounds: List[Tuple[bool, float, Any, Optional[Dict[str, float]]]] = []
        measured = 0.0
        # A traced run alternates untraced and traced rounds in pairs,
        # swapping which goes first from one pair to the next.
        step = 2 if trace else 1
        while not rounds or len(rounds) % step or measured < seconds:
            i = len(rounds)
            traced = trace and (i % 2 == 1) != ((i // 2) % 2 == 1)
            gc.collect()
            mark = None
            if traced:
                tracing_state.install()
                mark = tracing_state.rec.mark()
            t0 = time.perf_counter()
            output = wl.run_round()
            dt = time.perf_counter() - t0
            summary = None
            if traced:
                tracing_state.uninstall()
                summary = tracing_state.rec.summary(mark)
            result = wl.check(output)
            del output
            wl.cleanup()
            layers = (
                layer_metrics(summary, dt, result.epochs)
                if summary is not None else None
            )
            rounds.append((traced, dt, result, layers))
            measured += dt
        rss_mb = peak_rss_mb()
        import_samples = [first_import_s] + [
            import_seconds() for _ in range(SETUP_REPEATS - 1)
        ]
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    results = [r[2] for r in rounds]
    problems = [p for r in results for p in r.problems]
    if any(r.sim_key() != results[0].sim_key() for r in results):
        problems.append("rounds of one run disagree on simulated results")
    first = results[0]
    metrics: Dict[str, Dict[str, Any]] = {}
    rates = {
        flag: [r[2].launches / r[1] for r in rounds if r[0] == flag]
        for flag in (False, True)
    }
    if trace:
        traced_layers = [r[3] for r in rounds if r[0]]
        units = per_layer_units()
        for name, unit in units.items():
            if name in traced_layers[0]:
                value = statistics.fmean(t[name] for t in traced_layers)
                metrics[name] = {"value": value, "unit": unit}
        metrics["workloads.trace_build_s"] = {
            "value": statistics.median(trace_build), "unit": "s",
        }
        metrics["trace.overhead_pct"] = {
            "value": 100.0 * (1.0 - statistics.median(rates[True])
                              / statistics.median(rates[False])),
            "unit": "%",
        }
        tracing_state.rec.save(
            os.path.join(prepare.BUILD_DIR, "spans",
                         f"{workload}-seed{seed}.npz"),
            {"workload": workload, "seed": seed},
        )
    else:
        values = {
            "setup_s": statistics.median(
                i + s for i, s in zip(import_samples, setup_samples)
            ),
            "decisions_per_s": statistics.median(rates[False]),
            "peak_rss_mb": rss_mb,
            "sim_energy_j": first.energy_j,
            "sim_perf_gips": first.instructions / first.kernel_time_s / 1e9,
        }
        metrics = {
            name: {"value": values[name], "unit": unit}
            for name, unit in END_TO_END_UNITS.items()
        }

    import numpy

    host = {
        "workload": workload,
        "seed": seed,
        "cpu_count": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "rounds": len(rounds),
        "round_s": [round(r[1], 4) for r in rounds],
        "traced": [r[0] for r in rounds],
        "setup_s": [round(s, 4) for s in setup_samples],
        "import_s": [round(s, 4) for s in import_samples],
        "problems": problems[:20],
    }
    print(json.dumps(host))
    for problem in problems[:20]:
        print(f"check failed: {problem}", file=sys.stderr)
    return {
        "correct": not problems,
        "attempted": sum(r.attempted for r in results),
        "failed": sum(r.failed for r in results),
        "metrics": metrics,
    }


def stop_helper_processes() -> None:
    """Stop and reap every process the run started, helpers included.

    Fleet worker processes are joined by the fleet itself, but the
    shared-memory feature block starts ``multiprocessing``'s resource
    tracker, which otherwise outlives this process by a few
    milliseconds; a forkserver would linger the same way.
    """
    import multiprocessing
    from multiprocessing import forkserver, resource_tracker

    for child in multiprocessing.active_children():
        child.join(timeout=10.0)
        if child.is_alive():
            child.kill()
            child.join()
    forkserver._forkserver._stop()
    resource_tracker._resource_tracker._stop()


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    prepare.require_source()
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    finally:
        stop_helper_processes()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
