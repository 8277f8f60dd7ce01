"""Layer spans recorded from outside the program.

The traced run wraps public functions of each ``repro`` module with a
recorder that keeps one span per call in memory: its name, start, end
and the span it was called from.  Nothing inside ``src/`` changes.
Extra counts (rows swept, bytes posted, spans drained) are taken at the
same boundaries, from the call's arguments or result.

A layer's self time is the duration of its spans minus the time their
child spans cover.  Every time is ``time.perf_counter`` host time.

Worker processes of the process fleet transport are forked from the
traced process; the wrappers are removed in the child right after the
fork, so worker compute is timed only from the parent's side of the
pipe (``fleet.collect_wait``).
"""

from __future__ import annotations

import functools
import os
import pickle
import time
from array import array
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

#: The layers, in report order.  A span name is ``<layer>.<function>``.
LAYERS = (
    "runtime", "core", "ml", "hardware", "workloads", "sim", "engine",
    "experiments", "fleet", "obs",
)

Extra = Callable[["Recorder", tuple, dict, Any], None]


class Recorder:
    """Span storage in flat arrays, plus named counts."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.name_of = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counts: Dict[str, float] = {}
        self._stack: List[int] = [-1]
        self.active = False

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def count(self, name: str, value: float) -> None:
        self.counts[name] = self.counts.get(name, 0.0) + value

    def open(self, nid: int) -> int:
        sid = len(self.start)
        self.name_of.append(nid)
        self.parent.append(self._stack[-1])
        self.end.append(0.0)
        self._stack.append(sid)
        self.start.append(time.perf_counter())
        return sid

    def close(self, sid: int) -> None:
        self.end[sid] = time.perf_counter()
        self._stack.pop()

    def span(self, name: str) -> "_SpanContext":
        """A context manager recording one span from benchmark code."""
        return _SpanContext(self, self.name_id(name))

    def mark(self) -> Tuple[int, Dict[str, float]]:
        """The current position, to summarise what follows it."""
        return len(self.start), dict(self.counts)

    def summary(self, mark: Tuple[int, Dict[str, float]]) -> Dict[str, Any]:
        """Per-name totals of the spans recorded since ``mark``.

        Returns ``{"calls", "total_s", "self_s"}`` keyed by span name,
        plus the counts taken since the mark under ``"counts"``.
        """
        first, counts_before = mark
        name_of = np.frombuffer(self.name_of, dtype=np.int32)[first:]
        parent = np.frombuffer(self.parent, dtype=np.int32)[first:] - first
        duration = (
            np.frombuffer(self.end, dtype=np.float64)[first:]
            - np.frombuffer(self.start, dtype=np.float64)[first:]
        )
        inner = parent >= 0
        covered = np.bincount(
            parent[inner], weights=duration[inner], minlength=len(duration)
        )
        own = duration - covered
        n = len(self.names)
        calls = np.bincount(name_of, minlength=n)
        total = np.bincount(name_of, weights=duration, minlength=n)
        self_s = np.bincount(name_of, weights=own, minlength=n)
        out: Dict[str, Any] = {
            name: {
                "calls": int(calls[i]),
                "total_s": float(total[i]),
                "self_s": float(self_s[i]),
            }
            for i, name in enumerate(self.names)
        }
        out["counts"] = {
            key: value - counts_before.get(key, 0.0)
            for key, value in self.counts.items()
        }
        out["spans"] = int(len(duration))
        return out

    def save(self, path: str, metadata: Dict[str, Any]) -> None:
        """Write every span, as flat arrays, with the run's metadata."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        np.savez(
            path,
            names=np.asarray(self.names),
            name_of=np.frombuffer(self.name_of, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            metadata=np.asarray(repr(metadata)),
        )


class _SpanContext:
    __slots__ = ("_rec", "_nid", "_sid")

    def __init__(self, rec: Recorder, nid: int) -> None:
        self._rec = rec
        self._nid = nid
        self._sid = -1

    def __enter__(self) -> None:
        if self._rec.active:
            self._sid = self._rec.open(self._nid)

    def __exit__(self, *exc: Any) -> None:
        if self._sid >= 0:
            self._rec.close(self._sid)


def _wrap(fn: Callable, rec: Recorder, name: str,
          extra: Optional[Extra]) -> Callable:
    nid = rec.name_id(name)

    @functools.wraps(fn)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        sid = rec.open(nid)
        try:
            result = fn(*args, **kwargs)
        finally:
            rec.close(sid)
        if extra is not None:
            extra(rec, args, kwargs, result)
        return result

    return wrapper


# ----- counts taken at the boundaries --------------------------------------------


def _lattice_rows(table: Any, indices: Any) -> int:
    return len(table) if indices is None else len(indices)


def _count_batch(rec: Recorder, args: tuple, kwargs: dict, result: Any) -> None:
    rec.count("runtime.batch_launches", len(args[1]))


def _count_sweep(rec: Recorder, args: tuple, kwargs: dict, result: Any) -> None:
    rec.count("core.sweep_many_rows", len(args[1]) * len(args[0].table))


def _count_matrix(rec: Recorder, args: tuple, kwargs: dict, result: Any) -> None:
    indices = args[3] if len(args) > 3 else kwargs.get("indices")
    rec.count("ml.estimate_matrix_rows", _lattice_rows(args[2], indices))


def _count_matrix_many(rec: Recorder, args: tuple, kwargs: dict,
                       result: Any) -> None:
    indices = args[3] if len(args) > 3 else kwargs.get("indices")
    rec.count(
        "ml.estimate_matrix_many_rows",
        len(args[1]) * _lattice_rows(args[2], indices),
    )


def _count_execute_matrix(rec: Recorder, args: tuple, kwargs: dict,
                          result: Any) -> None:
    indices = args[3] if len(args) > 3 else kwargs.get("indices")
    rec.count("hardware.execute_matrix_rows", _lattice_rows(args[2], indices))


def _count_store(rec: Recorder, args: tuple, kwargs: dict, result: Any) -> None:
    cache, key = args[0], args[1]
    if cache.enabled:
        rec.count("engine.store_bytes", os.path.getsize(cache.path_for(key)))


def _count_drain(rec: Recorder, args: tuple, kwargs: dict, result: Any) -> None:
    rec.count("obs.spans", len(result))


def _count_post(rec: Recorder, args: tuple, kwargs: dict, result: Any) -> None:
    if args[1] == "restore_session":
        rec.count("fleet.migrations", 1)


def _count_post_bytes(rec: Recorder, args: tuple, kwargs: dict,
                      result: Any) -> None:
    _count_post(rec, args, kwargs, result)
    payload = pickle.dumps((args[1], args[2:]), pickle.HIGHEST_PROTOCOL)
    rec.count("fleet.post_bytes", len(payload))


def targets() -> List[Tuple[str, Any, str, Optional[Extra]]]:
    """``(span name, owner, attribute, extra count)`` for every wrapper.

    Owners are classes or modules; a method is wrapped on each class
    that defines it, so a subclass override is timed too.
    """
    from repro.core.horizon import AdaptiveHorizonGenerator
    from repro.core.manager import MPCPowerManager
    from repro.core.optimizer import GreedyHillClimbOptimizer
    from repro.core.policies import FixedConfigPolicy, PlannedPolicy, PPKPolicy
    from repro.engine.cache import ResultCache
    from repro.engine.core import ExperimentEngine
    from repro.experiments import common
    from repro.fleet.budget import BudgetAllocator
    from repro.fleet.node import FleetNode
    from repro.fleet.shard import InlineShard, ProcessShard
    from repro.hardware.apu import APUModel
    from repro.ml import errors, predictors
    from repro.ml.forest import RandomForestRegressor
    from repro.obs.metrics import MetricsRegistry
    from repro.obs.tracing import Tracer
    from repro.runtime import session
    from repro.runtime.manager import SessionManager
    from repro.sim.simulator import Simulator
    from repro.sim.turbocore import TurboCorePolicy
    from repro.workloads.counters import CounterSynthesizer

    predictor_classes = (
        predictors.PerfPowerPredictor,
        predictors.RandomForestPredictor,
        predictors.OraclePredictor,
        errors.SyntheticErrorPredictor,
    )
    out: List[Tuple[str, Any, str, Optional[Extra]]] = [
        ("runtime.process", session.SessionRuntime, "process", None),
        ("runtime.step_batch", SessionManager, "step_batch", _count_batch),
        ("core.optimize_kernel", GreedyHillClimbOptimizer, "optimize_kernel",
         None),
        ("core.sweep_many", GreedyHillClimbOptimizer, "sweep_many",
         _count_sweep),
        ("core.horizon", AdaptiveHorizonGenerator, "horizon", None),
        ("ml.forest_predict", RandomForestRegressor, "predict", None),
        ("ml.forest_load", predictors, "train_predictor", None),
        ("ml.forest_load", common, "train_predictor", None),
        ("hardware.execute", APUModel, "execute", None),
        ("hardware.execute_matrix", APUModel, "execute_matrix",
         _count_execute_matrix),
        ("hardware.throttle", session, "throttle_to_cap", None),
        ("workloads.counters", CounterSynthesizer, "observe", None),
        ("sim.run", Simulator, "run", None),
        ("sim.turbo_decide", TurboCorePolicy, "decide", None),
        ("engine.prefetch", ExperimentEngine, "prefetch", None),
        ("engine.store", ResultCache, "store", _count_store),
        ("fleet.post", InlineShard, "post", _count_post),
        ("fleet.post", ProcessShard, "post", _count_post_bytes),
        ("fleet.collect_wait", InlineShard, "collect", None),
        ("fleet.collect_wait", ProcessShard, "collect", None),
        ("fleet.apportion", BudgetAllocator, "apportion", None),
        ("fleet.node_step", FleetNode, "step", None),
        ("obs.merge", MetricsRegistry, "merge", None),
        ("obs.drain", Tracer, "drain", _count_drain),
    ]
    for cls in (MPCPowerManager, PPKPolicy, FixedConfigPolicy, PlannedPolicy):
        out.append(("core.decide", cls, "decide", None))
    for cls in predictor_classes:
        for attr, name, extra in (
            ("estimate", "ml.estimate", None),
            ("estimate_batch", "ml.estimate", None),
            ("estimate_matrix", "ml.estimate_matrix", _count_matrix),
            ("estimate_matrix_many", "ml.estimate_matrix_many",
             _count_matrix_many),
        ):
            if attr in vars(cls):
                out.append((name, cls, attr, extra))
    return out


class Tracing:
    """Installs and removes the wrappers; owns the recorder."""

    def __init__(self) -> None:
        self.rec = Recorder()
        self._originals: List[Tuple[Any, str, Any]] = []
        self._wrappers: List[Tuple[Any, str, Any]] = []
        for name, owner, attr, extra in targets():
            original = vars(owner)[attr]
            self._originals.append((owner, attr, original))
            self._wrappers.append(
                (owner, attr, _wrap(original, self.rec, name, extra))
            )
        self._engine_compute = self._wrap_variants()
        os.register_at_fork(after_in_child=self.uninstall)

    def _wrap_variants(self) -> Dict[str, Tuple[Any, Any]]:
        """Variant compute bodies are kept in a registry, not a class."""
        import dataclasses

        from repro.engine.variants import VARIANTS

        return {
            key: (spec, dataclasses.replace(
                spec, compute=_wrap(spec.compute, self.rec, "engine.compute",
                                    None)))
            for key, spec in VARIANTS.items()
        }

    def install(self) -> None:
        from repro.engine.variants import VARIANTS

        for owner, attr, wrapper in self._wrappers:
            setattr(owner, attr, wrapper)
        for key, (_, wrapped) in self._engine_compute.items():
            VARIANTS[key] = wrapped
        self.rec.active = True

    def uninstall(self) -> None:
        from repro.engine.variants import VARIANTS

        self.rec.active = False
        for owner, attr, original in self._originals:
            setattr(owner, attr, original)
        for key, (original, _) in self._engine_compute.items():
            VARIANTS[key] = original
