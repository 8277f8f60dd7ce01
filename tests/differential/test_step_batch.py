"""Batched stepping vs. streaming dispatch, differentially, per family.

``SessionManager.step_batch`` stacks the lattice sweeps of many
sessions' pending decisions into shared ``estimate_matrix_many`` calls,
then dispatches normally from the preloaded estimates.  Its contract is
*exact* transparency: decisions, per-session statistics, evaluation
charges, and per-decision telemetry must be float-for-float what
one-at-a-time streaming produces — the preloaded rows are the same
floats each session's own lazy sweep would have computed.

Checked here on every adversarial scenario family and on the stamped
golden traces (which replay through the batched driver against their
recorded decision sequences).
"""

import os

import pytest

from repro.workloads.traces import FAMILIES, Trace, TraceReplayer, outcome_decision

from .golden.generate import GOLDEN_DIR, GOLDEN_FAMILIES

pytestmark = pytest.mark.traces


def _metric_lines(registry):
    """Registry snapshot rows, minus step_batch's own bookkeeping.

    The four ``repro_runtime_batched_*`` counters and the
    ``repro_runtime_batch_size`` histogram exist only on the batched
    driver by design; everything else must match streaming.
    """
    return sorted(
        (
            metric
            for metric in registry.snapshot()["metrics"]
            if not metric["name"].startswith("repro_runtime_batch")
        ),
        key=lambda metric: str(metric["name"]),
    )


@pytest.mark.parametrize("family", FAMILIES)
def test_batched_replay_matches_streaming(corpus, family):
    trace = corpus[family]
    streaming = TraceReplayer(trace, check=False).replay()
    batched = TraceReplayer(trace, check=False, batched=True).replay()

    assert len(batched.outcomes) == len(streaming.outcomes)
    for ours, theirs in zip(batched.outcomes, streaming.outcomes):
        assert ours.session_id == theirs.session_id
        assert ours.record == theirs.record
        assert outcome_decision(ours) == outcome_decision(theirs)

    assert batched.stats.keys() == streaming.stats.keys()
    for session_id in streaming.stats:
        assert (
            batched.stats[session_id].as_dict()
            == streaming.stats[session_id].as_dict()
        ), session_id


@pytest.mark.parametrize("family", FAMILIES)
def test_batched_replay_telemetry_matches_streaming(corpus, family):
    # Eval charging parity: sweeps served from a preload must charge
    # batches/rows — and every other counter — exactly as the lazy path.
    trace = corpus[family]
    streaming = TraceReplayer(trace, check=False).replay()
    batched = TraceReplayer(trace, check=False, batched=True).replay()
    assert _metric_lines(batched.registry) == _metric_lines(streaming.registry)


@pytest.mark.parametrize("family", GOLDEN_FAMILIES)
def test_golden_traces_replay_batched_float_exactly(family):
    trace = Trace.load(os.path.join(GOLDEN_DIR, f"{family}.jsonl"))
    report = TraceReplayer(trace, batched=True).replay()
    assert report.checked == len(trace.events)
    assert report.mismatches == []
    assert report.passed
