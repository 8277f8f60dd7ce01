"""The fleet-of-one differential contract.

A fleet of one node is, by construction, the streaming runtime: one
``SessionManager`` stepping ``step_batch`` wavefronts.  These tests pin
that equivalence float-for-float on every adversarial scenario family
— decisions *and* per-session statistics — and against the checked-in
stamped golden traces, so any divergence between the fleet path and
the streaming path shows up as a failing float, not a drifting trend.
"""

import os

import pytest

from repro.fleet import FleetSimulator
from repro.workloads.traces import FAMILIES, Trace, TraceReplayer
from repro.workloads.traces.replay import outcome_decision

pytestmark = pytest.mark.fleet

GOLDEN_DIR = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "differential",
    "golden",
)


def streaming_decisions(trace):
    """Per-session decision sequences of the streaming replayer."""
    report = TraceReplayer(trace).replay()
    decisions = {}
    for outcome in report.outcomes:
        decisions.setdefault(outcome.session_id, []).append(
            outcome_decision(outcome)
        )
    return decisions, report


@pytest.mark.parametrize("family", FAMILIES)
def test_fleet_of_one_reproduces_streaming_decisions(corpus, family):
    trace = corpus[family]
    expected, replay_report = streaming_decisions(trace)
    report = FleetSimulator(trace, nodes=1).run()
    assert report.decisions == expected
    assert report.launches() == len(trace.events)
    # step_batch statistics carry over field-for-field too.
    assert report.stats == replay_report.stats


@pytest.mark.parametrize("family", FAMILIES)
def test_fleet_of_one_unbatched_matches_batched(corpus, family):
    """Dispatch-one-at-a-time nodes decide identically to step_batch."""
    trace = corpus[family]
    batched = FleetSimulator(trace, nodes=1).run()
    unbatched = FleetSimulator(trace, nodes=1, batched=False).run()
    assert unbatched.decisions == batched.decisions
    assert unbatched.stats == batched.stats


@pytest.mark.parametrize(
    "family",
    [f for f in FAMILIES if os.path.exists(os.path.join(GOLDEN_DIR, f"{f}.jsonl"))],
)
def test_fleet_of_one_matches_stamped_golden_decisions(family):
    """The golden traces' recorded decisions are the fleet's decisions."""
    trace = Trace.load(os.path.join(GOLDEN_DIR, f"{family}.jsonl"))
    report = FleetSimulator(trace, nodes=1).run()
    for sid in trace.session_ids():
        recorded = [e.decision for e in trace.events_for(sid)]
        assert (
            report.decisions[sid] == recorded
        ), f"{family}: session {sid} diverged from its stamped decisions"


@pytest.mark.parametrize("epoch_launches", [1, 7, 32, 10_000])
def test_epoch_length_never_changes_decisions(corpus, epoch_launches):
    """Epoch boundaries are observability structure, not semantics."""
    trace = corpus["serverless"]
    baseline = FleetSimulator(trace, nodes=1).run()
    report = FleetSimulator(
        trace, nodes=1, epoch_launches=epoch_launches
    ).run()
    assert report.decisions == baseline.decisions
    assert report.stats == baseline.stats


def test_sharding_never_changes_decisions(corpus):
    """Placement invariance: N-node uncapped == 1-node == streaming."""
    trace = corpus["serverless"]
    expected, _ = streaming_decisions(trace)
    for nodes in (2, 3, 5):
        report = FleetSimulator(trace, nodes=nodes).run()
        assert report.decisions == expected, f"{nodes}-node fleet diverged"
        assert report.stats == FleetSimulator(trace, nodes=1).run().stats
