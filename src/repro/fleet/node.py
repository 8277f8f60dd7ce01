"""One simulated fleet node: a SessionManager slice of the population.

A :class:`FleetNode` owns its own ground-truth hardware models (one
APU per node, as in a real fleet) and a
:class:`~repro.runtime.manager.SessionManager` hosting the sessions
placed on it.  Because counter synthesis is a pure function of
``(seed, kernel, sequence)`` and a policy only ever sees its own
session's launches, a session's decisions are *placement-invariant*:
they are float-for-float the same on any node of any fleet — the
foundation of the fleet-of-one differential contract
(``tests/fleet/test_differential.py``).

The node's epoch interface is deliberately narrow and picklable
(events in, decisions out), so the same object serves both the
in-process transport and the engine worker-process shard protocol in
:mod:`repro.fleet.shard`.
"""

from __future__ import annotations

from functools import cached_property
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.hardware.apu import APUModel
from repro.ml.predictors import PerfPowerPredictor
from repro.obs import Instrumentation, make_instrumentation
from repro.runtime.events import KernelLaunch
from repro.runtime.manager import SessionManager
from repro.runtime.session import SessionStats
from repro.sim.simulator import OverheadModel
from repro.workloads.counters import CounterSynthesizer
from repro.workloads.kernel import KernelSpec
from repro.workloads.traces.format import RecordedDecision, SessionSpec
from repro.workloads.traces.replay import build_policy, outcome_decision

__all__ = ["FleetNode"]


class FleetNode:
    """Hosts one node's worth of sessions behind the epoch protocol.

    Args:
        node_id: The node's id within the fleet (e.g. ``node-0``).
        enforce_tdp: Whether hosted sessions throttle into the TDP
            (taken from the trace header by the simulator).
        use_matrix: Decision-core path for MPC/PPK sessions.
        batched: Feed each epoch's events through
            ``SessionManager.step_batch`` in per-session wavefronts
            (the default); ``False`` dispatches one at a time.
            Decisions are identical either way (the step-batch
            differential contract).
        cache_dir: Random Forest cache directory; the node loads one
            forest from it, on its first ``forest`` predictor session.
        obs: Node-local instrumentation.  Defaults to a live private
            registry/tracer pair whose contents ship to the parent at
            each epoch via :meth:`drain_obs` (the engine-worker merge
            idiom).
    """

    def __init__(
        self,
        node_id: str,
        *,
        enforce_tdp: bool = False,
        use_matrix: bool = True,
        batched: bool = True,
        cache_dir: str = ".cache",
        obs: Optional[Instrumentation] = None,
    ) -> None:
        self.node_id = node_id
        self.use_matrix = use_matrix
        self.batched = batched
        self.cache_dir = cache_dir
        self.obs = obs if obs is not None else make_instrumentation()
        self.apu = APUModel()
        self.counters = CounterSynthesizer()
        self.overhead = OverheadModel()
        self.manager = SessionManager(
            apu=self.apu,
            counters=self.counters,
            overhead=self.overhead,
            enforce_tdp=enforce_tdp,
            isolate_faults=True,
            obs=self.obs,
        )
        # Spec + kernels per hosted session, kept so a migrated-in
        # snapshot can rebuild an identically-constructed policy.
        self._specs: Dict[str, Tuple[SessionSpec, List[KernelSpec]]] = {}
        # Kernel specs by key per session: lets the step protocol ship
        # slim (index, session, kernel_key) launches instead of full
        # specs on every event (the specs crossed once at add_session).
        self._kernels: Dict[str, Dict[str, KernelSpec]] = {}
        # Demand deltas are epoch-windowed: remember the totals at the
        # end of the previous epoch.
        self._last = {"energy_j": 0.0, "busy_s": 0.0, "instructions": 0.0,
                      "kernel_s": 0.0, "launches": 0.0}

    # ----- session lifecycle ----------------------------------------------------

    @cached_property
    def forest(self) -> PerfPowerPredictor:
        """The node's Random Forest predictor, loaded on first use."""
        from repro.ml.predictors import train_predictor

        return train_predictor(apu=self.apu, cache_dir=self.cache_dir)

    def add_session(self, spec: SessionSpec,
                    kernels: Sequence[KernelSpec]) -> None:
        """Place a session on this node, building its policy."""
        kernels = list(kernels)
        policy = build_policy(
            spec.policy,
            kernels,
            apu=self.apu,
            overhead=self.overhead,
            obs=self.obs,
            use_matrix=self.use_matrix,
            forest=lambda: self.forest,
        )
        self.manager.add_session(
            spec.session_id,
            policy,
            app_name=spec.app_name,
            charge_overhead=spec.charge_overhead,
        )
        self._specs[spec.session_id] = (spec, kernels)
        self._kernels[spec.session_id] = {k.key: k for k in kernels}

    def remove_session(self, session_id: str) -> None:
        """Drop a session (after departure or migration out)."""
        self.manager.remove_session(session_id)
        del self._specs[session_id]
        del self._kernels[session_id]

    def session_ids(self) -> List[str]:
        """Hosted session ids, sorted."""
        return self.manager.session_ids()

    # ----- the epoch protocol ---------------------------------------------------

    def step(
        self, events: Sequence[Tuple[int, str, str]]
    ) -> List[Tuple[str, int, RecordedDecision]]:
        """Process one epoch's slice of the event stream, in order.

        Events arrive slim — ``(index, session_id, kernel_key)`` — and
        resolve against the specs registered at :meth:`add_session`, so
        the shard pipe never re-ships a ``KernelSpec`` per launch.

        Returns ``(session_id, index, decision)`` per event, in input
        order (spans follow the wavefronts) — the picklable form the
        parent folds into the fleet report and the differential tests
        compare float-for-float.
        """
        launches = [
            KernelLaunch(
                index=index,
                spec=self._kernels[session_id][kernel_key],
                session_id=session_id,
            )
            for index, session_id, kernel_key in events
        ]
        if self.batched:
            outcomes = self.manager.step_wavefronts(launches)
        else:
            outcomes = [self.manager.dispatch(launch) for launch in launches]
        return [
            (o.session_id, o.record.index, outcome_decision(o))
            for o in outcomes
        ]

    def set_budget(self, watts: Optional[float]) -> None:
        """Apply this epoch's apportioned budget to every session.

        The fleet simulator publishes the budget gauge parent-side
        (after the epoch's registry merge), so the node itself only
        updates the throttle cap.
        """
        self.manager.set_power_budget(watts)

    def demand(self) -> Dict[str, Any]:
        """Epoch-windowed demand signal (deltas since the last call).

        Returns the :class:`~repro.fleet.budget.NodeDemand` fields as a
        plain dict (picklable across the shard boundary).
        """
        total = self.manager.aggregate_stats()
        busy_s = total.kernel_time_s + total.overhead_time_s
        d_energy = total.energy_j - self._last["energy_j"]
        d_busy = busy_s - self._last["busy_s"]
        d_instructions = total.instructions - self._last["instructions"]
        d_kernel = total.kernel_time_s - self._last["kernel_s"]
        d_launches = total.launches - self._last["launches"]
        self._last = {
            "energy_j": total.energy_j,
            "busy_s": busy_s,
            "instructions": total.instructions,
            "kernel_s": total.kernel_time_s,
            "launches": total.launches,
        }
        return {
            "node_id": self.node_id,
            "power_w": d_energy / d_busy if d_busy > 0 else 0.0,
            "throughput_ips": d_instructions / d_kernel if d_kernel > 0 else 0.0,
            "sessions": len(self.manager),
            "launches": int(d_launches),
        }

    def stats(self) -> Dict[str, SessionStats]:
        """Per-session statistics of every hosted session."""
        return self.manager.stats()

    def drain_obs(self) -> Tuple[Dict[str, Any], List[Dict[str, Any]]]:
        """This epoch's registry snapshot and finished spans.

        The registry is snapshot-and-reset so parent-side merges never
        double-count across epochs; spans drain in emission order.
        """
        snapshot = self.obs.registry.snapshot_and_reset()
        spans = self.obs.tracer.drain()
        return snapshot, spans

    # ----- migration ------------------------------------------------------------

    def snapshot_session(self, session_id: str) -> Dict[str, Any]:
        """A session's migratable state, plus what rebuilds its policy."""
        spec, kernels = self._specs[session_id]
        return {
            "spec": spec.as_dict(),
            "kernels": [k for k in kernels],
            "session": self.manager.session(session_id).snapshot(),
        }

    def restore_session(self, payload: Dict[str, Any]) -> None:
        """Rebuild a migrated-in session from :meth:`snapshot_session`."""
        spec = SessionSpec.from_dict(payload["spec"])
        self.add_session(spec, payload["kernels"])
        try:
            self.manager.session(spec.session_id).restore(payload["session"])
        except Exception:
            self.remove_session(spec.session_id)
            raise
