"""Span self times and the install/uninstall of wrappers."""

import time

import tracing
from repro.hardware.apu import APUModel
from repro.hardware.config import ConfigSpace
from repro.workloads.suites import benchmark


def test_self_time_subtracts_child_spans():
    rec = tracing.Recorder()
    rec.active = True

    def inner():
        time.sleep(0.02)

    outer = tracing._wrap(lambda: (inner_w(), time.sleep(0.01)), rec, "a.outer", None)
    inner_w = tracing._wrap(inner, rec, "b.inner", None)
    mark = rec.mark()
    outer()
    summary = rec.summary(mark)
    assert summary["a.outer"]["calls"] == 1 and summary["b.inner"]["calls"] == 1
    assert summary["a.outer"]["total_s"] >= 0.03
    assert abs(summary["a.outer"]["self_s"] - 0.01) < 0.008
    assert summary["b.inner"]["self_s"] == summary["b.inner"]["total_s"]
    assert summary["spans"] == 2


def test_wrappers_record_only_while_installed():
    state = tracing.Tracing()
    apu = APUModel()
    spec = benchmark("NBody").kernels[0]
    config = ConfigSpace().all_configs()[0]
    original = APUModel.execute
    state.install()
    try:
        mark = state.rec.mark()
        traced = apu.execute(spec, config)
        summary = state.rec.summary(mark)
    finally:
        state.uninstall()
    assert APUModel.execute is original
    assert summary["hardware.execute"]["calls"] == 1
    assert apu.execute(spec, config) == traced
    assert state.rec.summary(state.rec.mark())["spans"] == 0
