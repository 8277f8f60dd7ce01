"""The three benchmark workloads: inputs, set-up, one round, checks.

A run of a workload sets up, then repeats whole *rounds* of the same
operations until the measured time is used up.  Every round of a run
does identical work and must produce identical simulated results.

* ``paper-repro`` — the paper reproduction from an empty result cache:
  every table and figure of ``repro.experiments.runner`` on all 15
  benchmarks (``jobs=1``), except that Figure 13's synthetic-error sweep
  covers the three benchmarks of ``FIG13_BENCHMARKS``.  The full sweep
  costs about 70 s, too long to repeat in a run.
* ``fleet-rf`` — a serverless arrival trace on one inline fleet node,
  forest predictor, under the ``tight`` global cap.
* ``fleet-oracle-2proc`` — a larger serverless trace, oracle predictor,
  two worker-process nodes, tight cap, rebalancing on.

The fleet traces keep one fixed kernel pair and session roster, drawn
by ``build_serverless`` from a fixed stream; ``--seed`` draws the
arrival schedule and the launch bursts.  So seeds change how sessions
interleave (and with it which budgets and throttles apply), not how
much work a launch is.
"""

from __future__ import annotations

import contextlib
import dataclasses
import random
import shutil
import tempfile
import time
from typing import Any, Callable, Dict, Iterator, List, Tuple

#: Global cap as a fraction of the fleet's aggregate TDP (``repro bench
#: fleet``'s ``tight`` cap), and the budget epoch length.
CAP_FRACTION = 0.6
EPOCH_LAUNCHES = 32

#: Fixed stream for the fleet traces' kernel pair and Turbo target.
KERNEL_STREAM = "perfbench:kernels"

#: Benchmarks whose Figure 13 sweep is part of each paper-repro round.
FIG13_BENCHMARKS = ("NBody", "XSBench", "EigenValue")


def isolated_faults(stats: Any) -> int:
    """Launches whose policy raised and the runtime carried on anyway."""
    return stats.fail_safe_fallbacks + stats.observe_failures


@contextlib.contextmanager
def isolated_faults_log() -> Iterator[List[BaseException]]:
    """Collect every policy fault ``SessionRuntime`` isolates in the block.

    Each isolated fault passes through ``SessionStats.record_error``.
    The runtimes of a ``Simulator`` run are gone once it returns, so the
    faults are logged as they happen; the launch path is left alone.
    """
    from repro.runtime.session import SessionStats

    record_error = SessionStats.record_error
    faults: List[BaseException] = []

    def logging_record_error(stats: Any, exc: BaseException) -> None:
        faults.append(exc)
        record_error(stats, exc)

    SessionStats.record_error = logging_record_error  # type: ignore[method-assign]
    try:
        yield faults
    finally:
        SessionStats.record_error = record_error  # type: ignore[method-assign]


@dataclasses.dataclass
class Round:
    """What one round did, and what the checks found."""

    launches: int
    attempted: int
    failed: int
    energy_j: float
    instructions: float
    kernel_time_s: float
    problems: List[str]
    epochs: int = 0

    def sim_key(self) -> Tuple[int, float, float, float]:
        """The simulated results every round must repeat exactly."""
        return (self.launches, self.energy_j, self.instructions,
                self.kernel_time_s)


class Workload:
    """One named workload.

    ``setup()`` builds the inputs and what a round needs, and records
    how long building the inputs took in ``trace_build_s``;
    ``run_round`` is the timed operation; ``check`` runs the independent
    checks on what the round produced, outside the timed window.
    """

    name = ""

    def __init__(self, seed: int, forest_dir: str, work_dir: str,
                 span: Callable[[str], Any]) -> None:
        self.seed = seed
        self.forest_dir = forest_dir
        self.work_dir = work_dir
        self.span = span

    def setup(self) -> None:
        raise NotImplementedError

    def run_round(self) -> Any:
        raise NotImplementedError

    def check(self, output: Any) -> Round:
        raise NotImplementedError

    def cleanup(self) -> None:
        """Remove what a round left on disk (outside the timed window)."""


# ----- fleets ----------------------------------------------------------------------


def serverless_trace(seed: int, *, sessions: int, invocations: int,
                     predictor: str, name: str) -> Any:
    """A seeded serverless arrival trace over a fixed session roster.

    Arrivals are staggered by 1-8 launches and launches come in bursts
    of 1-4 from an arrived session, as in ``build_serverless``.
    """
    from repro.workloads.traces import Trace, build_serverless

    roster = build_serverless(
        random.Random(KERNEL_STREAM), seed=seed, sessions=sessions,
        invocations=invocations, predictor=predictor, variety=False,
        name=name, with_assertions=False,
    )
    rng = random.Random(f"{seed}:{name}:arrivals")
    pending = {sid: roster.events_for(sid) for sid in roster.session_ids()}
    arrivals: Dict[str, int] = {}
    position = 0
    for sid in roster.session_ids():
        arrivals[sid] = position
        position += rng.randint(1, 8)
    events: List[Any] = []
    while any(pending.values()):
        eligible = sorted(
            sid for sid, queue in pending.items()
            if queue and arrivals[sid] <= len(events)
        ) or [min(
            (sid for sid, queue in pending.items() if queue),
            key=lambda sid: (arrivals[sid], sid),
        )]
        queue = pending[rng.choice(eligible)]
        for _ in range(rng.randint(1, 4)):
            if queue:
                events.append(queue.pop(0))
    header = dataclasses.replace(
        roster.header, seed=seed, source=f"perfbench:{name} seed={seed}"
    )
    return Trace(header=header, events=tuple(events)).ensure_valid()


class FleetWorkload(Workload):
    """A serverless trace driven through ``FleetSimulator``."""

    sessions = 0
    invocations = 0
    predictor = ""
    nodes = 1
    transport = "inline"
    rebalance = False

    def setup(self) -> None:
        from repro.hardware.apu import APUModel

        start = time.perf_counter()
        self.trace = serverless_trace(
            self.seed, sessions=self.sessions,
            invocations=self.invocations, predictor=self.predictor,
            name=self.name,
        )
        self.trace_build_s = time.perf_counter() - start
        self.apu = APUModel()
        self.cap_w = CAP_FRACTION * self.apu.tdp_w * self.nodes
        if self.predictor == "forest":
            from repro.ml.predictors import train_predictor

            train_predictor(apu=self.apu, cache_dir=self.forest_dir)
        # Built once here so that set-up time covers fleet construction;
        # each round builds a fresh one, so no state carries over.
        self.build()

    def build(self) -> Any:
        from repro.fleet import FleetSimulator

        return FleetSimulator(
            self.trace, nodes=self.nodes, cap_w=self.cap_w,
            epoch_launches=EPOCH_LAUNCHES, transport=self.transport,
            rebalance=self.rebalance, cache_dir=self.forest_dir,
        )

    def run_round(self) -> Any:
        return self.build().run()

    def check(self, report: Any) -> Round:
        from checks import check_fleet

        total = report.aggregate_stats()
        decided = report.launches()
        sessions = len(self.trace.session_ids())
        events = len(self.trace.events)
        return Round(
            launches=decided,
            attempted=events + sessions,
            failed=isolated_faults(total) + (events - decided) + report.shed,
            energy_j=total.energy_j,
            instructions=total.instructions,
            kernel_time_s=total.kernel_time_s,
            problems=check_fleet(self.trace, report, self.cap_w, self.apu),
            epochs=len(report.epochs),
        )


class FleetRF(FleetWorkload):
    name = "fleet-rf"
    sessions = 16
    invocations = 10
    predictor = "forest"


class FleetOracle2Proc(FleetWorkload):
    name = "fleet-oracle-2proc"
    sessions = 48
    invocations = 10
    predictor = "oracle"
    nodes = 2
    transport = "process"
    rebalance = True


# ----- paper reproduction ----------------------------------------------------------


class PaperRepro(Workload):
    """Every table and figure, from an empty result cache."""

    name = "paper-repro"

    def setup(self) -> None:
        from repro.experiments.runner import ALL_EXPERIMENTS
        from repro.workloads.suites import BENCHMARK_NAMES, benchmark

        start = time.perf_counter()
        self.apps = {name: benchmark(name) for name in BENCHMARK_NAMES}
        self.trace_build_s = time.perf_counter() - start
        self.keys = [key for key in ALL_EXPERIMENTS if key != "fig13"]
        self.experiments = ALL_EXPERIMENTS
        contexts = self.build()
        contexts[0][0].predictor  # the forest load
        self.cleanup()

    def build(self) -> List[Tuple[Any, List[str]]]:
        """Fresh contexts, each with its own empty engine cache."""
        from repro.engine import ExperimentEngine
        from repro.experiments.common import ExperimentContext

        self.cache_dirs = [
            tempfile.mkdtemp(prefix="engine-", dir=self.work_dir)
            for _ in range(2)
        ]
        main = ExperimentContext(
            cache_dir=self.forest_dir,
            engine=ExperimentEngine(jobs=1, cache_dir=self.cache_dirs[0]),
        )
        fig13 = ExperimentContext(
            benchmark_names=FIG13_BENCHMARKS,
            cache_dir=self.forest_dir,
            engine=ExperimentEngine(jobs=1, cache_dir=self.cache_dirs[1]),
        )
        return [(main, self.keys), (fig13, ["fig13"])]

    def run_round(self) -> Any:
        contexts = self.build()
        with isolated_faults_log() as faults:
            attempted, failed = self._run_contexts(contexts)
        return contexts, attempted, failed, len(faults)

    def _run_contexts(self, contexts: List[Tuple[Any, List[str]]]) -> Tuple[int, int]:
        """Every engine request, then every table; counts what raised."""
        from repro.engine.matrix import requests_for

        attempted = failed = 0
        for ctx, keys in contexts:
            for request in requests_for(keys, ctx):
                attempted += 1
                try:
                    ctx.engine.prefetch(ctx, [request])
                except Exception:
                    failed += 1
            for key in keys:
                attempted += 1
                try:
                    with self.span("experiments.tables"):
                        self.experiments[key](ctx)
                except Exception:
                    failed += 1
        return attempted, failed

    def check(self, output: Any) -> Round:
        from checks import check_headline, check_run
        from repro.experiments.headline import headline_numbers
        from repro.workloads.suites import BENCHMARK_NAMES

        contexts, attempted, failed, faults = output
        main = contexts[0][0]
        problems: List[str] = []
        launches = 0
        for ctx, _ in contexts:
            # The contexts' run stores hold every run the round computed.
            for key, run in sorted(ctx._runs.items(), key=lambda kv: repr(kv[0])):
                launches += len(run)
                problems += check_run(
                    "/".join(map(str, key)), run, self.apps[key[0]], ctx.apu
                )
        mpc = {name: main.mpc(name) for name in BENCHMARK_NAMES}
        turbo = {name: main.turbo(name) for name in BENCHMARK_NAMES}
        problems += check_headline(mpc, turbo, headline_numbers(main))
        return Round(
            launches=launches,
            attempted=attempted + launches,
            failed=failed + faults,
            energy_j=sum(run.energy_j for run in mpc.values()),
            instructions=sum(run.instructions for run in mpc.values()),
            kernel_time_s=sum(run.kernel_time_s for run in mpc.values()),
            problems=problems,
        )

    def cleanup(self) -> None:
        for path in self.cache_dirs:
            shutil.rmtree(path, ignore_errors=True)


WORKLOADS: Dict[str, type] = {
    cls.name: cls for cls in (PaperRepro, FleetRF, FleetOracle2Proc)
}

