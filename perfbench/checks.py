"""Output checks made apart from the program.

Each check takes what a workload produced and returns a list of
problems (empty when the output is correct).  They test properties the
method must have, never a stored copy of an earlier output:

* ``check_order`` — every launch is decided exactly once, in the
  session's index order;
* ``check_execute`` — each recorded launch's time and GPU/CPU energy
  equal ``APUModel.execute(spec, config)`` re-evaluated here for the
  recorded configuration;
* ``check_totals`` — ``math.fsum`` of the per-launch figures matches the
  totals the program reports, to a relative 1e-9;
* ``check_budgets`` — in every fleet epoch ``fsum(budgets) <= cap``;
* ``check_headline`` — MPC saves energy against Turbo Core on the
  paper's benchmarks within the bands that
  ``benchmarks/test_headline_numbers.py`` uses, computed here from the
  run records and compared with the program's own headline numbers.
"""

from __future__ import annotations

import math
from typing import Any, Dict, List, Mapping, Sequence, Tuple

#: Relative tolerance between an fsum here and a total the program reports.
REL_TOL = 1e-9

#: MPC vs Turbo Core bands of ``benchmarks/test_headline_numbers.py``.
MIN_MPC_SAVINGS_PCT = 15.0
MAX_MPC_PERF_LOSS_PCT = 7.0


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=REL_TOL, abs_tol=0.0)


# ----- generic launch checks ------------------------------------------------------


def check_order(label: str, expected: Sequence[Any],
                decided: Sequence[Any]) -> List[str]:
    """``decided`` must list each ``expected`` launch once, in order."""
    decided, expected = list(decided), list(expected)
    if decided == expected:
        return []
    first = next(
        (i for i, (a, b) in enumerate(zip(decided, expected)) if a != b),
        min(len(decided), len(expected)),
    )
    return [
        f"{label}: decided {len(decided)} launches, expected "
        f"{len(expected)}; first difference at position {first}"
    ]


def check_execute(label: str, apu: Any,
                  launches: Sequence[Tuple[Any, Any]]) -> List[str]:
    """Each ``(spec, record)`` must match ``apu.execute`` exactly."""
    problems: List[str] = []
    for i, (spec, record) in enumerate(launches):
        measured = apu.execute(spec, record.config)
        if (
            measured.time_s != record.time_s
            or measured.gpu_energy_j != record.gpu_energy_j
            or measured.cpu_energy_j != record.cpu_energy_j
        ):
            problems.append(
                f"{label}: launch {i} ({spec.key} at {record.config}) "
                f"recorded time/energy differ from APUModel.execute"
            )
    return problems


def launch_energy(record: Any) -> float:
    """A launch's chip energy, decision overhead included."""
    return math.fsum((
        record.gpu_energy_j, record.cpu_energy_j,
        record.overhead_gpu_energy_j, record.overhead_cpu_energy_j,
    ))


def check_totals(label: str, records: Sequence[Any],
                 instructions: Sequence[float],
                 reported: Mapping[str, float]) -> List[str]:
    """fsum of per-launch energy, time and instructions vs ``reported``."""
    mine = {
        "energy_j": math.fsum(launch_energy(r) for r in records),
        "kernel_time_s": math.fsum(r.time_s for r in records),
        "instructions": math.fsum(instructions),
    }
    return [
        f"{label}: {key} reported {reported[key]!r}, launches sum to {value!r}"
        for key, value in mine.items()
        if not _close(value, reported[key])
    ]


# ----- fleet ------------------------------------------------------------------------


def launch_spans(spans: Sequence[Mapping[str, Any]]) -> Dict[str, List[int]]:
    """Per-session launch indices, in the order the runtime emitted them."""
    out: Dict[str, List[int]] = {}
    for span in spans:
        if span["name"] == "launch":
            attributes = span["attributes"]
            out.setdefault(attributes["session"], []).append(attributes["index"])
    return out


def check_budgets(epochs: Sequence[Any], cap_w: float) -> List[str]:
    """Every epoch's budgets must fit the global cap (fsum, no slack)."""
    problems: List[str] = []
    for record in epochs:
        if record.cap_w != cap_w:
            problems.append(f"epoch {record.epoch}: cap {record.cap_w} != {cap_w}")
        total = math.fsum(record.budgets.values())
        if not record.budgets or total > cap_w:
            problems.append(
                f"epoch {record.epoch}: budgets sum to {total!r} W "
                f"against a {cap_w!r} W cap"
            )
    return problems


def check_fleet(trace: Any, report: Any, cap_w: float, apu: Any) -> List[str]:
    """Every independent check of one fleet run."""
    problems: List[str] = []
    indices = launch_spans(report.spans)
    records: List[Any] = []
    instructions: List[float] = []
    for sid in trace.session_ids():
        events = trace.events_for(sid)
        decisions = report.decisions.get(sid, [])
        if len(decisions) != len(events):
            problems.append(
                f"session {sid}: {len(decisions)} decisions for "
                f"{len(events)} launches"
            )
        problems += check_order(
            f"session {sid} launch spans", [e.index for e in events],
            indices.get(sid, []),
        )
        pairs = list(zip((e.spec for e in events), decisions))
        problems += check_execute(f"session {sid}", apu, pairs)
        records += decisions
        instructions += [spec.instructions for spec, _ in pairs]
    total = report.aggregate_stats()
    problems += check_totals(
        "fleet", records, instructions,
        {
            "energy_j": total.energy_j,
            "kernel_time_s": total.kernel_time_s,
            "instructions": total.instructions,
        },
    )
    problems += check_budgets(report.epochs, cap_w)
    return problems


# ----- paper reproduction ---------------------------------------------------------


def check_run(label: str, run: Any, app: Any, apu: Any) -> List[str]:
    """One policy run over one invocation of its benchmark."""
    specs = list(app.kernels)[run.base_index:]
    problems = check_order(
        f"{label} launches",
        [(run.base_index + i, s.key) for i, s in enumerate(specs)],
        [(r.index, r.kernel_key) for r in run.launches],
    )
    if problems:
        return problems
    problems += check_execute(label, apu, list(zip(specs, run.launches)))
    problems += check_totals(
        label, run.launches, [s.instructions for s in specs],
        {
            "energy_j": run.energy_j,
            "kernel_time_s": run.kernel_time_s,
            "instructions": run.instructions,
        },
    )
    return problems


def savings_vs_turbo(mpc: Mapping[str, Any],
                     turbo: Mapping[str, Any]) -> Tuple[float, float]:
    """Mean energy savings (%) and geomean performance loss (%) of MPC.

    Energy includes the decision overhead; performance is kernel time
    plus overhead time, as in the paper.  Computed from launch records.
    """
    savings: List[float] = []
    log_speedups: List[float] = []
    for name, run in mpc.items():
        base = turbo[name]
        energy = math.fsum(launch_energy(r) for r in run.launches)
        base_energy = math.fsum(launch_energy(r) for r in base.launches)
        savings.append(100.0 * (1.0 - energy / base_energy))
        time_s = math.fsum(r.time_s + r.overhead_time_s for r in run.launches)
        base_time = math.fsum(
            r.time_s + r.overhead_time_s for r in base.launches
        )
        log_speedups.append(math.log(base_time / time_s))
    mean_savings = math.fsum(savings) / len(savings)
    perf_loss = 100.0 * (1.0 - math.exp(math.fsum(log_speedups) / len(log_speedups)))
    return mean_savings, perf_loss


def check_headline(mpc: Mapping[str, Any], turbo: Mapping[str, Any],
                   reported: Mapping[str, float]) -> List[str]:
    """MPC vs Turbo Core within the paper's bands, and as reported."""
    savings, loss = savings_vs_turbo(mpc, turbo)
    problems: List[str] = []
    if not savings > MIN_MPC_SAVINGS_PCT:
        problems.append(
            f"MPC saves {savings:.2f}% energy vs Turbo Core "
            f"(band: > {MIN_MPC_SAVINGS_PCT}%)"
        )
    if not loss < MAX_MPC_PERF_LOSS_PCT:
        problems.append(
            f"MPC loses {loss:.2f}% performance vs Turbo Core "
            f"(band: < {MAX_MPC_PERF_LOSS_PCT}%)"
        )
    for key, mine in (
        ("mpc_vs_turbo_energy_savings_pct", savings),
        ("mpc_vs_turbo_perf_loss_pct", loss),
    ):
        if not math.isclose(mine, reported[key], rel_tol=1e-6, abs_tol=1e-9):
            problems.append(
                f"headline {key} reported {reported[key]!r}, records give {mine!r}"
            )
    return problems
