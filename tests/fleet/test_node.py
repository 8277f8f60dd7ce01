"""FleetNode: demand windows, budget application, slim-step protocol,
and the one shared forest per node."""

import copy
import dataclasses

import pytest

from repro.core.optimizer import GreedyHillClimbOptimizer
from repro.fleet.node import FleetNode
from repro.hardware.apu import APUModel
from repro.ml import predictors

from tests.fleet.conftest import build_schedule_trace
from tests.traces.conftest import COMPUTE, MEMORY

pytestmark = pytest.mark.fleet


@pytest.fixture()
def hosted():
    trace = build_schedule_trace(["s"] * 8, name="node-mini")
    node = FleetNode("n")
    node.add_session(trace.session("s"), trace.unique_kernels("s"))
    return node, [(e.index, e.session, e.spec.key) for e in trace.events]


def test_demand_is_epoch_windowed(hosted):
    node, events = hosted
    node.step(events[:4])
    first = node.demand()
    assert first["node_id"] == "n"
    assert first["launches"] == 4
    assert first["power_w"] > 0
    assert first["sessions"] == 1
    node.step(events[4:])
    second = node.demand()
    assert second["launches"] == 4
    # Nothing processed since: the window must read zero, not repeat.
    assert node.demand()["launches"] == 0
    assert node.demand()["power_w"] == 0.0


def free_running_power():
    """Average power of the unbudgeted run (computed once per test)."""
    trace = build_schedule_trace(["s"] * 8, name="node-free")
    node = FleetNode("n")
    node.add_session(trace.session("s"), trace.unique_kernels("s"))
    node.step([(e.index, e.session, e.spec.key) for e in trace.events])
    return node.demand()["power_w"]


def test_budget_reaches_the_throttle_path(hosted):
    node, events = hosted
    node.set_budget(5.0)  # below the floor config: every launch throttles
    node.step(events)
    throttled = node.demand()
    # 5 W is infeasible — the throttle bottoms out at the lowest
    # config, so power lands at the hardware floor, not the budget.
    assert throttled["power_w"] < free_running_power()
    throttles = node.obs.registry.counter(
        "repro_runtime_tdp_throttles_total"
    ).total()
    assert throttles == len(events)


def test_budget_applies_to_later_arrivals():
    trace = build_schedule_trace(["s"] * 8, name="node-late")
    node = FleetNode("n")
    node.set_budget(5.0)
    node.add_session(trace.session("s"), trace.unique_kernels("s"))
    node.step([(e.index, e.session, e.spec.key) for e in trace.events])
    assert node.demand()["power_w"] < free_running_power()


def test_step_rejects_unknown_kernel_keys(hosted):
    node, _ = hosted
    with pytest.raises(KeyError):
        node.step([(0, "s", "no-such-kernel")])


def test_step_rejects_unknown_sessions(hosted):
    node, events = hosted
    index, _, key = events[0]
    with pytest.raises(KeyError):
        node.step([(index, "ghost", key)])


def test_drain_obs_resets_between_epochs(hosted):
    node, events = hosted
    node.step(events[:4])
    snapshot, spans = node.drain_obs()
    assert snapshot["metrics"]
    assert spans
    # Draining again without work ships nothing twice.
    snapshot2, spans2 = node.drain_obs()
    assert spans2 == []
    totals = {
        m["name"]: sum(s["value"] for s in m.get("series", []))
        for m in snapshot2["metrics"]
        if m["kind"] == "counter"
    }
    assert all(v == 0 for v in totals.values())


# ----- one forest per node ---------------------------------------------------


@pytest.fixture(scope="module")
def small_forest():
    return predictors.train_predictor(
        apu=APUModel(), kernels=[COMPUTE, MEMORY], n_estimators=3, max_depth=5
    )


@pytest.fixture()
def forest_loads(monkeypatch, small_forest):
    """Every ``train_predictor`` call; each returns a new predictor
    object over one small forest, as unpickling the cache file does."""
    calls = []

    def load(**kwargs):
        calls.append(kwargs)
        return copy.copy(small_forest)

    monkeypatch.setattr(predictors, "train_predictor", load)
    return calls


def forest_node(kinds):
    """A node hosting one session per policy kind, ``s0``, ``s1``, ..."""
    schedule = [f"s{i}" for i in range(len(kinds))] * 4
    trace = build_schedule_trace(schedule, name="node-forest")
    node = FleetNode("n")
    for i, kind in enumerate(kinds):
        spec = trace.session(f"s{i}")
        policy = dataclasses.replace(
            spec.policy, kind=kind,
            predictor="forest" if kind in ("mpc", "ppk") else "oracle",
        )
        node.add_session(
            dataclasses.replace(spec, policy=policy),
            trace.unique_kernels(spec.session_id),
        )
    return node, [(e.index, e.session, e.spec.key) for e in trace.events]


def test_forest_sessions_share_one_predictor(forest_loads):
    node, _ = forest_node(["mpc", "ppk", "mpc", "turbo"])
    shared = {
        id(node.manager.session(sid).policy.optimizer.predictor)
        for sid in ("s0", "s1", "s2")
    }
    assert shared == {id(node.forest)}
    assert len(forest_loads) == 1


def test_oracle_only_node_never_loads_the_forest(forest_loads):
    trace = build_schedule_trace(["a", "b", "a", "b"], name="node-oracle")
    node = FleetNode("n")
    for sid in trace.session_ids():
        node.add_session(trace.session(sid), trace.unique_kernels(sid))
    node.step([(e.index, e.session, e.spec.key) for e in trace.events])
    assert forest_loads == []


def test_forest_sessions_share_one_sweep_per_wave(forest_loads, monkeypatch):
    node, events = forest_node(["ppk", "ppk"])
    sweeps = []
    sweep_many = GreedyHillClimbOptimizer.sweep_many

    def counting_sweep_many(self, counters):
        sweeps.append(len(counters))
        return sweep_many(self, counters)

    monkeypatch.setattr(GreedyHillClimbOptimizer, "sweep_many",
                        counting_sweep_many)
    # Launch 0 decides fail-safe (no history, nothing to prefetch);
    # launch 1 of both sessions forms one wave and one shared sweep.
    node.step(events[:2])
    assert sweeps == []
    node.step(events[2:4])
    assert len(sweeps) == 1
