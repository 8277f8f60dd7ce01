"""Shard transports: how the fleet reaches its nodes.

Two interchangeable transports drive :class:`~repro.fleet.node.FleetNode`
behind one post/collect protocol:

* :class:`InlineShard` executes node methods in-process — the
  reference semantics, and what the determinism tests compare the
  process transport against;
* :class:`ProcessShard` runs the node on a long-lived worker process
  (one per node, as the engine lane runs request workers), speaking a
  ``(command, args)`` / ``("ok" | "err", payload)`` pipe protocol.
  Worker failures re-raise parent-side as :class:`ShardError` with the
  original remote traceback, mirroring ``EngineWorkerError``; a dead
  worker raises it too, naming the worker's exit code.

The protocol is split into :meth:`post` and :meth:`collect` so the
parent can post one epoch's work to *every* node before collecting any
result — the fan-out that buys wall-clock parallelism without threads
(and therefore without new lock discipline for RL009/RL012 to check).

Workers adopt the parent's exported shared-memory hardware feature
block best-effort at startup (the PR 7 idiom), so N nodes do not build
N copies of the config-lattice features.
"""

from __future__ import annotations

import multiprocessing
import pickle
from typing import Any, List, Optional, Tuple

from repro.fleet.node import FleetNode

__all__ = ["InlineShard", "ProcessShard", "ShardError"]


class ShardError(RuntimeError):
    """A shard worker failed; carries the original remote traceback."""

    def __init__(self, node_id: str, command: str, remote_traceback: str) -> None:
        self.node_id = node_id
        self.command = command
        self.remote_traceback = remote_traceback
        super().__init__(
            f"shard {node_id!r} failed executing {command!r}\n"
            f"--- original worker traceback ---\n{remote_traceback}"
        )


class InlineShard:
    """The in-process transport: a FleetNode called directly.

    Results are computed eagerly at :meth:`post` time (the parent *is*
    the node), buffered, and handed back by :meth:`collect` in post
    order — the same observable protocol as :class:`ProcessShard`.
    """

    def __init__(self, node_id: str, **node_kwargs: Any) -> None:
        self.node_id = node_id
        node_kwargs.pop("shared_table", None)  # in-process: nothing to attach
        self.node = FleetNode(node_id, **node_kwargs)
        self._results: List[Any] = []

    def post(self, command: str, *args: Any) -> None:
        """Queue one node-method call."""
        self._results.append(getattr(self.node, command)(*args))

    def collect(self) -> List[Any]:
        """Results of every posted call since the last collect, in order."""
        results, self._results = self._results, []
        return results

    def close(self) -> None:
        """Release the shard (no-op in-process)."""


# repro-lint: shm-attach
def _shard_worker(conn: Any, config_bytes: bytes) -> None:
    """Long-lived worker loop: build the node, serve commands until EOF.

    Never raises across the process boundary: failures travel back as
    ``("err", traceback_text)`` and the loop keeps serving, so one bad
    command cannot wedge the epoch protocol.
    """
    config = pickle.loads(config_bytes)
    shared_table = config.pop("shared_table", None)
    if shared_table is not None:
        # Best-effort zero-copy adoption of the parent's exported
        # feature block; any failure just builds locally.
        try:
            from repro.engine.shm import attach_block
            from repro.hardware.table import register_shared_feature_block

            register_shared_feature_block(
                shared_table["key"], attach_block(shared_table["handle"])
            )
        except Exception:
            pass
    node_id = config.pop("node_id")
    node = FleetNode(node_id, **config)
    while True:
        try:
            message = conn.recv()
        except EOFError:
            break
        if message is None:
            break
        command, args = message
        try:
            conn.send(("ok", getattr(node, command)(*args)))
        except BaseException:
            import traceback

            conn.send(("err", traceback.format_exc()))
    conn.close()


class ProcessShard:
    """The worker-process transport: one long-lived process per node.

    Args:
        node_id: The node's fleet id.
        shared_table: Optional ``{"key", "handle"}`` spec of the
            parent's exported shared-memory feature block.
        **node_kwargs: Forwarded to the worker-side ``FleetNode``
            (``obs`` is not forwardable — the worker always builds its
            own live instrumentation and ships it back via
            ``drain_obs``).
    """

    def __init__(self, node_id: str,
                 shared_table: Optional[dict] = None,
                 **node_kwargs: Any) -> None:
        if "obs" in node_kwargs:
            raise ValueError(
                "ProcessShard workers own their instrumentation; "
                "merge via drain_obs instead of passing obs"
            )
        self.node_id = node_id
        config = dict(node_kwargs)
        config["node_id"] = node_id
        config["shared_table"] = shared_table
        parent_conn, child_conn = multiprocessing.Pipe()
        self._conn = parent_conn
        self._pending: List[str] = []
        self._process = multiprocessing.Process(
            target=_shard_worker,
            args=(child_conn, pickle.dumps(config, pickle.HIGHEST_PROTOCOL)),
            daemon=True,
        )
        self._process.start()
        child_conn.close()

    def post(self, command: str, *args: Any) -> None:
        """Send one command; the worker executes commands in order."""
        dead = False
        try:
            self._conn.send((command, args))
        except OSError:
            # Raise outside the handler: the failed send's frames hold an
            # exported pickle buffer that a chained error would keep alive.
            dead = True
        if dead:
            raise self._worker_died(command) from None
        self._pending.append(command)

    def collect(self) -> List[Any]:
        """Block for every posted command's result, in post order."""
        results = []
        while self._pending:
            command = self._pending.pop(0)
            try:
                status, payload = self._conn.recv()
            except (EOFError, OSError):
                raise self._worker_died(command) from None
            if status != "ok":
                raise ShardError(self.node_id, command, payload)
            results.append(payload)
        return results

    def _worker_died(self, command: str) -> ShardError:
        """The error for a worker whose pipe closed under ``command``."""
        self._pending.clear()
        self._process.join(timeout=1.0)
        return ShardError(
            self.node_id, command,
            f"worker process died (exit code {self._process.exitcode}); "
            "no remote traceback",
        )

    def close(self) -> None:
        """Shut the worker down and reap it."""
        try:
            self._conn.send(None)
        except (BrokenPipeError, OSError):
            pass
        self._conn.close()
        self._process.join(timeout=10.0)
        if self._process.is_alive():
            self._process.terminate()
            self._process.join(timeout=5.0)
