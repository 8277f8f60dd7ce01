"""The session manager: many concurrent sessions behind one event stream.

The ROADMAP north star is a service consuming kernel-launch events from
many concurrent applications.  :class:`SessionManager` is that hosting
layer: it keys :class:`~repro.runtime.session.SessionRuntime` instances
by session id, routes an interleaved :class:`KernelLaunch` stream to
the right session, and aggregates per-session statistics.  Because each
session's policy only ever sees its own launches, interleaving is
transparent: a session's trace is identical whether it ran alone or
multiplexed with others (asserted by the runtime test suite).

With a :class:`~repro.engine.sessions.SessionStore` attached, sessions
can be persisted into the experiment engine's content-addressed cache
and resumed by a different worker (``persist`` / ``resume``).
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.hardware.apu import APUModel
from repro.hardware.config import FAILSAFE_CONFIG, HardwareConfig
from repro.obs import Instrumentation, or_noop, publish_session_stats
from repro.runtime.events import KernelLaunch, LaunchOutcome
from repro.runtime.session import (
    RECENT_ERRORS_LIMIT,
    SessionRuntime,
    SessionStats,
)
from repro.sim.policy import PowerPolicy
from repro.sim.simulator import MANAGER_CONFIG, OverheadModel
from repro.workloads.counters import CounterSynthesizer

__all__ = ["SessionManager", "wavefronts"]


def wavefronts(events: Sequence[KernelLaunch]
               ) -> List[List[Tuple[int, KernelLaunch]]]:
    """Split an interleaved event stream into per-session wavefronts.

    Wave ``k`` holds the ``k``-th event of every session that has one,
    as ``(input position, event)`` pairs in input order.  Each wave is a
    legal :meth:`SessionManager.step_batch` input, and stepping the
    waves in order keeps every session's own event order; only the
    interleaving across sessions moves (see
    :meth:`SessionManager.step_wavefronts`).
    """
    waves: List[List[Tuple[int, KernelLaunch]]] = []
    depth: Dict[str, int] = {}
    for position, event in enumerate(events):
        k = depth.get(event.session_id, 0)
        depth[event.session_id] = k + 1
        if k == len(waves):
            waves.append([])
        waves[k].append((position, event))
    return waves


class SessionManager:
    """Hosts concurrent policy sessions over one shared hardware model.

    All sessions execute on the same APU/counter/overhead models (the
    machine being managed); each session hosts its own policy and keeps
    its own trace and statistics.

    Args:
        apu: Shared ground-truth hardware model.
        counters: Shared counter synthesizer.
        overhead: Shared decision-overhead model.
        manager_config: Configuration the optimizer runs at.
        cpu_phase_s: Per-launch CPU phase that hides optimizer time.
        enforce_tdp: Throttle over-TDP configurations before executing.
        power_budget_w: Optional node power budget (watts) applied to
            every hosted session — launches are throttled under
            ``min(budget, TDP if enforce_tdp)``.  Updated live via
            :meth:`set_power_budget` (the fleet allocator's entry
            point, re-negotiated each epoch).
        isolate_faults: Fault-isolate hosted policies (the default for
            long-lived streaming service use).
        fail_safe: Fallback configuration for degraded decisions.
        store: Optional :class:`~repro.engine.sessions.SessionStore`
            for :meth:`persist` / :meth:`resume`.
        obs: Optional instrumentation shared by every hosted session
            (defaults to the no-op instrumentation).
    """

    def __init__(
        self,
        apu: Optional[APUModel] = None,
        counters: Optional[CounterSynthesizer] = None,
        overhead: Optional[OverheadModel] = None,
        manager_config: HardwareConfig = MANAGER_CONFIG,
        cpu_phase_s: float = 0.0,
        enforce_tdp: bool = False,
        isolate_faults: bool = True,
        fail_safe: HardwareConfig = FAILSAFE_CONFIG,
        store: Optional[Any] = None,
        obs: Optional[Instrumentation] = None,
        power_budget_w: Optional[float] = None,
    ) -> None:
        if power_budget_w is not None and power_budget_w <= 0:
            raise ValueError("power_budget_w must be positive")
        self.apu = apu if apu is not None else APUModel()
        self.counters = counters if counters is not None else CounterSynthesizer()
        self.overhead = overhead if overhead is not None else OverheadModel()
        self.manager_config = manager_config
        self.cpu_phase_s = cpu_phase_s
        self.enforce_tdp = enforce_tdp
        self.power_budget_w = power_budget_w
        self.isolate_faults = isolate_faults
        self.fail_safe = fail_safe
        self.store = store
        self.obs = or_noop(obs)
        self._sessions: Dict[str, SessionRuntime] = {}

    # ----- session registry ------------------------------------------------------

    def add_session(self, session_id: str, policy: PowerPolicy, *,
                    app_name: str = "",
                    charge_overhead: bool = True,
                    recent_errors_limit: int = RECENT_ERRORS_LIMIT,
                    ) -> SessionRuntime:
        """Register a new session hosting ``policy``.

        Raises:
            ValueError: If the id is empty or already registered.
        """
        if not session_id:
            raise ValueError("session_id must be non-empty")
        if session_id in self._sessions:
            raise ValueError(f"session {session_id!r} already registered")
        session = SessionRuntime(
            policy=policy,
            apu=self.apu,
            counters=self.counters,
            overhead=self.overhead,
            manager_config=self.manager_config,
            cpu_phase_s=self.cpu_phase_s,
            enforce_tdp=self.enforce_tdp,
            isolate_faults=self.isolate_faults,
            fail_safe=self.fail_safe,
            session_id=session_id,
            app_name=app_name,
            charge_overhead=charge_overhead,
            obs=self.obs,
            recent_errors_limit=recent_errors_limit,
            power_budget_w=self.power_budget_w,
        )
        self._sessions[session_id] = session
        return session

    def session(self, session_id: str) -> SessionRuntime:
        """The registered session, or a clear error naming known ids."""
        try:
            return self._sessions[session_id]
        except KeyError:
            known = ", ".join(sorted(self._sessions)) or "<none>"
            raise KeyError(
                f"unknown session {session_id!r}; registered: {known}"
            ) from None

    def remove_session(self, session_id: str) -> SessionRuntime:
        """Deregister and return a session (its state stays usable)."""
        session = self.session(session_id)
        del self._sessions[session_id]
        return session

    def session_ids(self) -> List[str]:
        """Registered session ids, sorted."""
        return sorted(self._sessions)

    def __contains__(self, session_id: str) -> bool:
        return session_id in self._sessions

    def __len__(self) -> int:
        return len(self._sessions)

    # ----- event routing ---------------------------------------------------------

    def dispatch(self, event: KernelLaunch) -> LaunchOutcome:
        """Route one event to its session and process it."""
        return self.session(event.session_id).process(event)

    def run_stream(self, events: Iterable[KernelLaunch]) -> Iterator[LaunchOutcome]:
        """Consume an interleaved multi-session event stream."""
        for event in events:
            yield self.dispatch(event)

    def step_batch(self, events: Sequence[KernelLaunch]) -> List[LaunchOutcome]:
        """Process one launch per session with their sweeps stacked.

        Each ready session's policy is asked (side-effect free) which
        counter vectors its upcoming decision will sweep; sessions whose
        optimizers share a predictor and search lattice are grouped, the
        deduplicated counters of each group go to the predictor as one
        stacked ``estimate_matrix_many`` call, and the shared
        whole-lattice estimates are preloaded into every member
        optimizer before the events are dispatched normally, in order.

        Decisions, per-session statistics, evaluation charges, and
        per-decision telemetry are identical to dispatching the events
        one at a time — preloaded rows are float-for-float what each
        session's own sweep would have produced, and fault isolation is
        unchanged (a failing prefetch just drops that session back to
        its lazy path).

        Args:
            events: At most one launch per session; sessions are
                independent, so within-batch order is irrelevant to the
                results but preserved in the returned outcomes.

        Returns:
            One :class:`LaunchOutcome` per event, in input order.

        Raises:
            ValueError: If two events target the same session (their
                relative order would matter — stream those instead).
            KeyError: If an event names an unregistered session.
        """
        events = list(events)
        seen: set = set()
        for event in events:
            if event.session_id in seen:
                raise ValueError(
                    "step_batch events must target distinct sessions; "
                    f"{event.session_id!r} appears more than once"
                )
            seen.add(event.session_id)
        sessions = [self.session(event.session_id) for event in events]

        # Group prefetch requests by (predictor, lattice): one stacked
        # sweep per group serves every member session.
        groups: Dict[Any, List[Any]] = {}
        requests: Dict[Any, List[Any]] = {}
        for event, session in zip(events, sessions):
            optimizer = getattr(session.policy, "optimizer", None)
            if optimizer is None or not getattr(optimizer, "matrix_enabled", False):
                continue
            try:
                wanted = tuple(session.prefetch_counters(event))
            except Exception:
                # Fault isolation: a failing prefetch must not take the
                # batch down — the session decides on its lazy path and
                # any real fault surfaces through process() as usual.
                continue
            if not wanted:
                continue
            key = (id(optimizer.predictor), optimizer.lattice_key)
            groups.setdefault(key, []).append(optimizer)
            requests.setdefault(key, []).append(wanted)

        preloaded: List[Any] = []
        swept = 0
        requested = 0
        # Every preload must be cleared even when a later group's sweep
        # or the obs counters raise (RL010), so the whole span from the
        # first preload_lattice to dispatch sits under one finally.
        try:
            for key, members in groups.items():
                unique: Dict[Any, None] = {}
                for wanted in requests[key]:
                    requested += len(wanted)
                    for counters in wanted:
                        unique.setdefault(counters)
                try:
                    batches = members[0].sweep_many(list(unique))
                except Exception:
                    continue  # every member falls back to its lazy sweep
                swept += len(unique)
                mapping = dict(zip(unique, batches))
                for optimizer in members:
                    optimizer.preload_lattice(mapping)
                    preloaded.append(optimizer)

            if self.obs.enabled:
                registry = self.obs.registry
                registry.counter(
                    "repro_runtime_batched_steps_total",
                    "step_batch calls processed",
                ).inc()
                registry.counter(
                    "repro_runtime_batched_launches_total",
                    "Launches processed through step_batch",
                ).inc(len(events))
                registry.counter(
                    "repro_runtime_batched_sweeps_total",
                    "Distinct whole-lattice sweeps computed for batches",
                ).inc(swept)
                registry.counter(
                    "repro_runtime_batched_dedup_hits_total",
                    "Prefetched sweep requests served by another "
                    "session's sweep",
                ).inc(requested - swept)
                registry.histogram(
                    "repro_runtime_batch_size",
                    "Launches per step_batch call",
                    buckets=(1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0),
                ).observe(len(events))

            return [self.dispatch(event) for event in events]
        finally:
            for optimizer in preloaded:
                optimizer.clear_preload()

    def step_wavefronts(self, events: Sequence[KernelLaunch]
                        ) -> List[LaunchOutcome]:
        """Process an interleaved event stream as ``step_batch`` waves.

        Each of the stream's :func:`wavefronts` is one batch.  Sessions
        share no mutable state, so the outcomes — returned in input
        order — are what :meth:`dispatch` would produce event by event;
        only the order in which launches execute (and emit their spans)
        moves across sessions.
        """
        outcomes: List[Any] = [None] * len(events)
        for wave in wavefronts(events):
            stepped = self.step_batch([event for _, event in wave])
            for (position, _), outcome in zip(wave, stepped):
                outcomes[position] = outcome
        return outcomes

    # ----- power budget ----------------------------------------------------------

    def set_power_budget(self, watts: Optional[float]) -> None:
        """Update the node power budget live (fleet epoch entry point).

        Applies to every hosted session *and* to sessions added later;
        ``None`` removes the budget constraint.  Takes effect at each
        session's next launch — in-flight launches are not revisited,
        matching how a real power controller applies a new cap at the
        next scheduling quantum.
        """
        if watts is not None and watts <= 0:
            raise ValueError("power_budget_w must be positive")
        self.power_budget_w = watts
        for session in self._sessions.values():
            session.power_budget_w = watts

    def utilization(self) -> Dict[str, float]:
        """Aggregate power/throughput demand signal for the allocator.

        Average power is total energy over total busy time (kernel +
        overhead); throughput is instructions over kernel time.  Both
        are 0.0 before any launch has been processed.
        """
        total = self.aggregate_stats()
        busy_s = total.kernel_time_s + total.overhead_time_s
        return {
            "power_w": total.energy_j / busy_s if busy_s > 0 else 0.0,
            "throughput_ips": (
                total.instructions / total.kernel_time_s
                if total.kernel_time_s > 0
                else 0.0
            ),
            "energy_j": total.energy_j,
            "busy_time_s": busy_s,
            "sessions": float(len(self._sessions)),
            "launches": float(total.launches),
        }

    def stats(self) -> Dict[str, SessionStats]:
        """Per-session statistics keyed by session id."""
        return {sid: s.stats for sid, s in sorted(self._sessions.items())}

    def aggregate_stats(self) -> SessionStats:
        """All sessions' statistics merged into one, with provenance.

        The merged object's ``sources`` counts the sessions folded in,
        so fleet-level reports can state how many sessions they cover.
        """
        total = SessionStats(sources=0)
        for _, session in sorted(self._sessions.items()):
            total.merge(session.stats)
        return total

    def publish_stats(self) -> None:
        """Publish per-session and aggregate stats to the registry."""
        registry = self.obs.registry
        for sid, session in sorted(self._sessions.items()):
            publish_session_stats(registry, session.stats, session=sid)
        if self._sessions:
            publish_session_stats(
                registry, self.aggregate_stats(), session="_aggregate"
            )

    # ----- persistence -----------------------------------------------------------

    def _require_store(self) -> Any:
        if self.store is None:
            raise RuntimeError("no SessionStore attached to this manager")
        return self.store

    def persist(self, session_id: str) -> str:
        """Snapshot one session into the attached store.

        Returns:
            The store key the snapshot was written under.
        """
        return self._require_store().save(
            session_id, self.session(session_id).snapshot()
        )

    def persist_all(self) -> Dict[str, str]:
        """Snapshot every registered session; returns id -> store key."""
        return {sid: self.persist(sid) for sid in self.session_ids()}

    def resume(self, session_id: str, policy: PowerPolicy, *,
               app_name: str = "") -> SessionRuntime:
        """Rebuild a persisted session from the attached store.

        ``policy`` must be constructed with the same arguments as the
        persisted one; its mutable state is restored from the snapshot.

        Raises:
            KeyError: If the store has no snapshot for the id.
        """
        payload = self._require_store().load(session_id)
        if payload is None:
            raise KeyError(f"no persisted snapshot for session {session_id!r}")
        session = self.add_session(session_id, policy, app_name=app_name)
        try:
            session.restore(payload)
        except Exception:
            del self._sessions[session_id]
            raise
        return session
