"""The benchmark's checks pass on real output and reject corrupted output.

Run from the root of a checkout::

    python3 -m pytest perfbench/tests -q

Sizes are small: a 4-session fleet, a two-process fleet of 6 sessions,
and the paper's MPC and Turbo Core runs on two benchmarks with the
oracle predictor.  The forest-backed fleet runs only when the forest
has been prepared (``python3 perfbench/prepare.py``).
"""

import contextlib
import dataclasses
import os
import subprocess
import sys

import pytest

import checks
import prepare
import workloads
from repro.experiments.common import ExperimentContext
from repro.experiments.headline import headline_numbers
from repro.fleet import FleetSimulator
from repro.hardware.apu import APUModel
from repro.ml.predictors import OraclePredictor

PAPER_BENCHMARKS = ("NBody", "XSBench")


def _small(cls, **sizes):
    return type(f"Small{cls.__name__}", (cls,), sizes)


def _round(cls, tmp_path, forest_dir=""):
    wl = cls(0, forest_dir, str(tmp_path), lambda _name: contextlib.nullcontext())
    wl.setup()
    return wl, wl.run_round()


@pytest.fixture(scope="module")
def fleet():
    """A 4-session inline fleet run under the tight cap."""
    trace = workloads.serverless_trace(
        0, sessions=4, invocations=2, predictor="oracle", name="small"
    )
    apu = APUModel()
    cap_w = workloads.CAP_FRACTION * apu.tdp_w
    report = FleetSimulator(
        trace, nodes=1, cap_w=cap_w, epoch_launches=8, transport="inline"
    ).run()
    return trace, report, cap_w, apu


@pytest.fixture(scope="module")
def paper():
    """MPC steady state and Turbo Core on two benchmarks, oracle-predicted."""
    apu = APUModel()
    ctx = ExperimentContext(benchmark_names=PAPER_BENCHMARKS, cache_dir=None)
    kernels = [k for name in PAPER_BENCHMARKS for k in ctx.app(name).unique_kernels]
    ctx.predictor = OraclePredictor(apu, kernels)
    mpc = {name: ctx.mpc(name) for name in PAPER_BENCHMARKS}
    turbo = {name: ctx.turbo(name) for name in PAPER_BENCHMARKS}
    return ctx, mpc, turbo, headline_numbers(ctx)


def _replace_decision(report, sid, position, **changes):
    """A copy of ``report`` with one decision of ``sid`` changed."""
    decisions = dict(report.decisions)
    seq = list(decisions[sid])
    seq[position] = dataclasses.replace(seq[position], **changes)
    decisions[sid] = seq
    return dataclasses.replace(report, decisions=decisions)


def _scaled(run, factor):
    """A copy of a run whose every energy is scaled by ``factor``."""
    launches = [
        dataclasses.replace(
            r,
            gpu_energy_j=r.gpu_energy_j * factor,
            cpu_energy_j=r.cpu_energy_j * factor,
            overhead_gpu_energy_j=r.overhead_gpu_energy_j * factor,
            overhead_cpu_energy_j=r.overhead_cpu_energy_j * factor,
        )
        for r in run.launches
    ]
    return dataclasses.replace(run, launches=launches)


# ----- fleet ----------------------------------------------------------------------


def test_fleet_output_passes(fleet):
    assert checks.check_fleet(*fleet) == []


def test_dropped_launch_is_rejected(fleet):
    trace, report, cap_w, apu = fleet
    sid = trace.session_ids()[0]
    decisions = dict(report.decisions)
    decisions[sid] = decisions[sid][:-1]
    spans = [
        s for s in report.spans
        if not (s["name"] == "launch" and s["attributes"]["session"] == sid
                and s["attributes"]["index"] == trace.events_for(sid)[-1].index)
    ]
    dropped = dataclasses.replace(report, decisions=decisions, spans=spans)
    problems = checks.check_fleet(trace, dropped, cap_w, apu)
    assert any("decisions for" in p for p in problems)
    assert any("launch spans" in p for p in problems)


def test_reordered_launches_are_rejected(fleet):
    trace, report, _, _ = fleet
    sid = trace.session_ids()[0]
    indices = checks.launch_spans(report.spans)[sid]
    expected = [e.index for e in trace.events_for(sid)]
    swapped = [indices[1], indices[0]] + indices[2:]
    assert checks.check_order("s", expected, indices) == []
    assert checks.check_order("s", expected, swapped) != []
    assert checks.check_order("s", expected, indices + indices[-1:]) != []


def test_perturbed_energy_is_rejected(fleet):
    trace, report, cap_w, apu = fleet
    sid = trace.session_ids()[0]
    energy = report.decisions[sid][2].gpu_energy_j
    bad = _replace_decision(report, sid, 2, gpu_energy_j=energy * (1 + 1e-12))
    problems = checks.check_fleet(trace, bad, cap_w, apu)
    assert any("APUModel.execute" in p for p in problems)


def test_total_energy_mismatch_is_rejected(fleet):
    trace, report, _, _ = fleet
    records = [d for seq in report.decisions.values() for d in seq]
    total = report.aggregate_stats()
    reported = {
        "energy_j": total.energy_j * (1 + 1e-8),
        "kernel_time_s": total.kernel_time_s,
        "instructions": total.instructions,
    }
    instructions = [e.spec.instructions for e in trace.events]
    assert checks.check_totals("fleet", records, instructions, reported)


def test_budgets_over_cap_are_rejected(fleet):
    _, report, cap_w, _ = fleet
    assert checks.check_budgets(report.epochs, cap_w) == []
    epoch = report.epochs[0]
    node = next(iter(epoch.budgets))
    budgets = dict(epoch.budgets)
    budgets[node] = cap_w + 1e-9
    over = [dataclasses.replace(epoch, budgets=budgets)] + report.epochs[1:]
    assert checks.check_budgets(over, cap_w) != []


def test_two_process_fleet_round_passes(tmp_path):
    cls = _small(workloads.FleetOracle2Proc, sessions=6, invocations=2)
    wl, report = _round(cls, tmp_path)
    result = wl.check(report)
    assert result.problems == []
    assert result.failed == 0 and result.launches == len(wl.trace.events)


def test_forest_fleet_round_passes(tmp_path):
    forest_dir = prepare.forest_dir()
    if not prepare.forest_ready(forest_dir):
        pytest.skip("forest not prepared (python3 perfbench/prepare.py)")
    cls = _small(workloads.FleetRF, sessions=3, invocations=2)
    wl, report = _round(cls, tmp_path, forest_dir)
    result = wl.check(report)
    assert result.problems == []
    assert result.failed == 0


def _broken_decide(self, index):
    raise RuntimeError("broken policy")


def test_isolated_fleet_faults_are_counted(tmp_path, monkeypatch):
    """The runtime hides a raising policy behind a fail-safe launch."""
    from repro.core.manager import MPCPowerManager

    monkeypatch.setattr(MPCPowerManager, "decide", _broken_decide)
    cls = _small(workloads.FleetWorkload, name="small", sessions=6,
                 invocations=2, predictor="oracle")
    wl, report = _round(cls, tmp_path)
    result = wl.check(report)
    mpc_sessions = [
        s.session_id for s in wl.trace.header.sessions
        if s.policy.kind == "mpc"
    ]
    assert mpc_sessions
    assert result.problems == []
    assert result.failed == sum(
        len(wl.trace.events_for(sid)) for sid in mpc_sessions
    )


def test_isolated_runtime_faults_are_logged(monkeypatch):
    from repro.core.manager import MPCPowerManager
    from repro.sim.simulator import Simulator

    ctx = ExperimentContext(benchmark_names=("NBody",), cache_dir=None)
    app = ctx.app("NBody")
    policy = MPCPowerManager(
        ctx.target_throughput("NBody"),
        OraclePredictor(ctx.apu, app.unique_kernels),
    )
    monkeypatch.setattr(MPCPowerManager, "decide", _broken_decide)
    session = Simulator(apu=ctx.apu).session(policy, isolate_faults=True)
    with workloads.isolated_faults_log() as faults:
        run = session.run(app)
    assert len(faults) == len(run.launches) > 0


def test_paper_round_counts_raising_requests(tmp_path, monkeypatch):
    """The offline harness fails fast; a raising request is a failure."""
    from repro.core.manager import MPCPowerManager
    from repro.engine import ExperimentEngine

    def attempt(cache_dir):
        ctx = ExperimentContext(
            benchmark_names=PAPER_BENCHMARKS, cache_dir=None,
            engine=ExperimentEngine(jobs=1, cache_dir=str(cache_dir)),
        )
        kernels = [k for name in PAPER_BENCHMARKS for k in ctx.app(name).unique_kernels]
        ctx.predictor = OraclePredictor(ctx.apu, kernels)
        wl = workloads.PaperRepro(
            0, "", str(tmp_path), lambda _name: contextlib.nullcontext()
        )
        wl.experiments = {"fig8": lambda c: None}
        return wl._run_contexts([(ctx, ["fig8"])])

    attempted, failed = attempt(tmp_path / "good")
    assert attempted > 1 and failed == 0
    monkeypatch.setattr(MPCPowerManager, "decide", _broken_decide)
    attempted, failed = attempt(tmp_path / "broken")
    assert 0 < failed < attempted


def test_seed_changes_arrivals_not_work():
    a = workloads.serverless_trace(1, sessions=6, invocations=2,
                                   predictor="oracle", name="t")
    b = workloads.serverless_trace(2, sessions=6, invocations=2,
                                   predictor="oracle", name="t")
    again = workloads.serverless_trace(1, sessions=6, invocations=2,
                                       predictor="oracle", name="t")
    assert a.events == again.events
    assert a.events != b.events
    assert sorted(e.spec.key for e in a.events) == sorted(
        e.spec.key for e in b.events
    )


# ----- paper reproduction ---------------------------------------------------------


def test_paper_runs_pass(paper):
    ctx, mpc, turbo, reported = paper
    for name in PAPER_BENCHMARKS:
        for run in (mpc[name], turbo[name]):
            assert checks.check_run(name, run, ctx.app(name), ctx.apu) == []
    assert checks.check_headline(mpc, turbo, reported) == []


def test_paper_dropped_launch_is_rejected(paper):
    ctx, mpc, _, _ = paper
    name = PAPER_BENCHMARKS[0]
    run = mpc[name]
    dropped = dataclasses.replace(
        run, launches=run.launches[:3] + run.launches[4:]
    )
    assert checks.check_run(name, dropped, ctx.app(name), ctx.apu) != []


def test_paper_perturbed_energy_is_rejected(paper):
    ctx, mpc, _, _ = paper
    name = PAPER_BENCHMARKS[0]
    run = mpc[name]
    launches = list(run.launches)
    launches[1] = dataclasses.replace(
        launches[1], cpu_energy_j=launches[1].cpu_energy_j * (1 + 1e-12)
    )
    bad = dataclasses.replace(run, launches=launches)
    problems = checks.check_run(name, bad, ctx.app(name), ctx.apu)
    assert any("APUModel.execute" in p for p in problems)


def test_mpc_energy_above_turbo_is_rejected(paper):
    _, mpc, turbo, reported = paper
    worse = {name: _scaled(turbo[name], 1.01) for name in mpc}
    problems = checks.check_headline(worse, turbo, reported)
    assert any("band" in p for p in problems)


def test_headline_mismatch_is_rejected(paper):
    _, mpc, turbo, reported = paper
    wrong = dict(reported)
    wrong["mpc_vs_turbo_energy_savings_pct"] += 0.5
    assert checks.check_headline(mpc, turbo, wrong) != []


# ----- the command ----------------------------------------------------------------


def test_two_process_round_leaves_no_helper_running(tmp_path):
    """The process transport starts a resource tracker the run must stop."""
    import multiprocessing
    from multiprocessing import resource_tracker

    import run

    cls = _small(workloads.FleetOracle2Proc, sessions=6, invocations=2)
    wl, _ = _round(cls, tmp_path)
    run.stop_helper_processes()
    assert multiprocessing.active_children() == []
    assert resource_tracker._resource_tracker._pid is None


def test_run_fails_without_the_program(tmp_path):
    """In a directory holding only the benchmark, a run exits non-zero."""
    import shutil

    shutil.copytree(
        os.path.join(prepare.ROOT, "perfbench"),
        tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"),
    )
    shutil.copy(os.path.join(prepare.ROOT, "BENCHMARK.json"), tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fleet-rf",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
