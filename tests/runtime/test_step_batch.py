"""Tests for SessionManager.step_batch: batching edge cases.

The float-for-float equivalence of batched vs. streaming decisions is
asserted per adversarial family in
``tests/differential/test_step_batch.py``; here the batching machinery
itself is exercised — input validation, fault isolation of the
advisory prefetch, preload cleanup, and the batching telemetry.
"""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.policies import PPKPolicy
from repro.ml.predictors import OraclePredictor
from repro.obs import make_instrumentation
from repro.runtime.events import KernelLaunch, launch_events
from repro.runtime.manager import SessionManager, wavefronts

from .conftest import APP, turbo_target

pytestmark = pytest.mark.runtime


def _manager(sim, obs=None):
    return SessionManager(
        apu=sim.apu, counters=sim.counters, overhead=sim.overhead, obs=obs
    )


def _ppk(sim):
    return PPKPolicy(
        turbo_target(sim), OraclePredictor(sim.apu, APP.unique_kernels)
    )


def _sessions(manager, sim, ids):
    for session_id in ids:
        manager.add_session(session_id, _ppk(sim))
    return {
        session_id: list(launch_events(APP, session_id=session_id))
        for session_id in ids
    }


def test_outcomes_in_input_order_and_equal_to_streaming(sim):
    batched = _manager(sim)
    events = _sessions(batched, sim, ["a", "b", "c"])
    streaming = _manager(sim)
    _sessions(streaming, sim, ["a", "b", "c"])

    for step in range(len(APP.kernels)):
        batch = [events[sid][step] for sid in ("c", "a", "b")]
        outcomes = batched.step_batch(batch)
        assert [o.session_id for o in outcomes] == ["c", "a", "b"]
        for event, outcome in zip(batch, outcomes):
            assert outcome.record == streaming.dispatch(event).record


def test_empty_batch_is_a_noop(sim):
    assert _manager(sim).step_batch([]) == []


def test_duplicate_session_rejected_by_name(sim):
    manager = _manager(sim)
    events = _sessions(manager, sim, ["a"])
    with pytest.raises(ValueError, match="'a' appears more than once"):
        manager.step_batch([events["a"][0], events["a"][1]])


def test_unknown_session_rejected(sim):
    manager = _manager(sim)
    events = _sessions(manager, sim, ["a"])
    ghost = [e for e in launch_events(APP, session_id="ghost")]
    with pytest.raises(KeyError, match="ghost"):
        manager.step_batch([events["a"][0], ghost[0]])


def test_failing_prefetch_falls_back_to_lazy_sweep(sim):
    class ExplosivePrefetch(PPKPolicy):
        def prefetch_counters(self, index):
            raise RuntimeError("prefetch boom")

    batched = _manager(sim)
    batched.add_session(
        "a",
        ExplosivePrefetch(
            turbo_target(sim), OraclePredictor(sim.apu, APP.unique_kernels)
        ),
    )
    streaming = _manager(sim)
    _sessions(streaming, sim, ["a"])
    for event in launch_events(APP, session_id="a"):
        [outcome] = batched.step_batch([event])
        assert outcome.record == streaming.dispatch(event).record


def test_preloads_cleared_after_batch(sim):
    manager = _manager(sim)
    events = _sessions(manager, sim, ["a", "b"])
    for step in range(3):
        manager.step_batch([events["a"][step], events["b"][step]])
        for session_id in ("a", "b"):
            optimizer = manager.session(session_id).policy.optimizer
            assert optimizer._preloaded == {}


def test_batching_telemetry_counts_sweeps_and_dedup(sim):
    obs = make_instrumentation()
    manager = _manager(sim, obs=obs)
    # Sessions group only when they share a predictor *instance* (and
    # lattice), so sharing one oracle is what enables dedup here.
    predictor = OraclePredictor(sim.apu, APP.unique_kernels)
    target = turbo_target(sim)
    for session_id in ("a", "b"):
        manager.add_session(session_id, PPKPolicy(target, predictor))
    events = {
        session_id: list(launch_events(APP, session_id=session_id))
        for session_id in ("a", "b")
    }
    # Step 0 decides fail-safe (no history: nothing to prefetch); step 1
    # has both sessions sweeping the same kernel's counters -> one
    # shared sweep, one dedup hit.
    manager.step_batch([events["a"][0], events["b"][0]])
    manager.step_batch([events["a"][1], events["b"][1]])
    registry = obs.registry
    assert registry.counter("repro_runtime_batched_steps_total").value() == 2
    assert registry.counter("repro_runtime_batched_launches_total").value() == 4
    assert registry.counter("repro_runtime_batched_sweeps_total").value() == 1
    assert registry.counter("repro_runtime_batched_dedup_hits_total").value() == 1


def test_batch_size_histogram_recorded_only_when_instrumented(sim):
    obs = make_instrumentation()
    manager = _manager(sim, obs=obs)
    events = _sessions(manager, sim, ["a", "b", "c"])
    manager.step_batch([events["a"][0], events["b"][0], events["c"][0]])
    manager.step_batch([events["a"][1]])
    [metric] = [
        m for m in obs.registry.snapshot()["metrics"]
        if m["name"] == "repro_runtime_batch_size"
    ]
    [(_, series)] = metric["series"]
    assert series["count"] == 2
    assert series["sum"] == 4.0

    noop = _manager(sim)
    events = _sessions(noop, sim, ["a"])
    noop.step_batch([events["a"][0]])
    assert noop.obs.registry.metrics() == []


# ----- wavefronts -------------------------------------------------------------


@given(st.lists(st.sampled_from("abcde"), max_size=40))
def test_wavefronts_keep_session_order_and_every_position(sessions):
    kernel = APP.kernels[0]
    events = [
        KernelLaunch(index=i, spec=kernel, session_id=sid)
        for i, sid in enumerate(sessions)
    ]
    waves = wavefronts(events)
    positions = [position for wave in waves for position, _ in wave]
    assert sorted(positions) == list(range(len(events)))
    for wave in waves:
        assert wave
        assert len({event.session_id for _, event in wave}) == len(wave)
        assert [position for position, _ in wave] == sorted(
            position for position, _ in wave
        )
        assert all(events[position] is event for position, event in wave)
    for sid in set(sessions):
        in_waves = [p for wave in waves for p, e in wave if e.session_id == sid]
        assert in_waves == [i for i, s in enumerate(sessions) if s == sid]


def test_step_wavefronts_matches_streaming_in_input_order(sim):
    waved = _manager(sim)
    events = _sessions(waved, sim, ["a", "b"])
    streaming = _manager(sim)
    _sessions(streaming, sim, ["a", "b"])
    stream = events["a"][:3] + events["b"][:2] + events["a"][3:5]
    outcomes = waved.step_wavefronts(stream)
    assert [o.session_id for o in outcomes] == [e.session_id for e in stream]
    for event, outcome in zip(stream, outcomes):
        assert outcome.record == streaming.dispatch(event).record
