"""Shard transports: the post/collect protocol and worker failures."""

import os
import signal

import pytest

from repro.fleet import InlineShard, ProcessShard, ShardError

from tests.fleet.conftest import build_schedule_trace

pytestmark = pytest.mark.fleet


@pytest.fixture()
def mini():
    trace = build_schedule_trace(["s"] * 4, name="shard-mini")
    return (
        trace.session("s"),
        trace.unique_kernels("s"),
        [(e.index, e.session, e.spec.key) for e in trace.events],
    )


def drive(shard, spec, kernels, events):
    shard.post("add_session", spec, kernels)
    shard.post("step", events)
    shard.post("demand")
    results = shard.collect()
    return results[1], results[2]


def test_process_shard_matches_inline(mini):
    spec, kernels, events = mini
    inline = InlineShard("n")
    process = ProcessShard("n")
    try:
        inline_out = drive(inline, spec, kernels, events)
        process_out = drive(process, spec, kernels, events)
        assert process_out == inline_out
    finally:
        process.close()
        inline.close()


def test_worker_failure_raises_shard_error_with_remote_traceback(mini):
    spec, kernels, events = mini
    shard = ProcessShard("n")
    try:
        shard.post("remove_session", "never-added")
        with pytest.raises(ShardError) as excinfo:
            shard.collect()
        assert excinfo.value.node_id == "n"
        assert excinfo.value.command == "remove_session"
        assert "KeyError" in excinfo.value.remote_traceback
        # One bad command does not wedge the worker: it keeps serving.
        shard.post("add_session", spec, kernels)
        shard.post("step", events)
        _, decisions = shard.collect()
        assert len(decisions) == len(events)
    finally:
        shard.close()


def test_shard_error_is_attributed_to_the_right_command(mini):
    spec, kernels, events = mini
    shard = ProcessShard("n")
    try:
        shard.post("add_session", spec, kernels)
        shard.post("remove_session", "never-added")  # fails
        shard.post("demand")
        with pytest.raises(ShardError) as excinfo:
            shard.collect()
        assert excinfo.value.command == "remove_session"
    finally:
        shard.close()


def test_dead_worker_raises_shard_error_with_exit_code(mini):
    spec, kernels, _ = mini
    shard = ProcessShard("n")
    try:
        # Stop the worker so the posted command is surely unanswered,
        # then kill it: collect must see the closed pipe.
        os.kill(shard._process.pid, signal.SIGSTOP)
        shard.post("add_session", spec, kernels)
        shard._process.kill()
        shard._process.join(timeout=10.0)
        assert not shard._process.is_alive()
        with pytest.raises(ShardError) as excinfo:
            shard.collect()
        assert excinfo.value.node_id == "n"
        assert excinfo.value.command == "add_session"
        assert "exit code -9" in str(excinfo.value)
        assert excinfo.value.__cause__ is None
        assert excinfo.value.__suppress_context__
        # Posting to the dead worker fails the same way.
        with pytest.raises(ShardError) as excinfo:
            shard.post("demand")
        assert excinfo.value.command == "demand"
        assert "exit code -9" in str(excinfo.value)
        assert shard.collect() == []
    finally:
        shard.close()


def test_process_shard_rejects_obs_kwarg():
    with pytest.raises(ValueError, match="drain_obs"):
        ProcessShard("n", obs=object())


def test_close_is_safe_to_repeat(mini):
    shard = ProcessShard("n")
    shard.close()
    shard.close()
