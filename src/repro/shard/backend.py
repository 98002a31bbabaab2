"""Execution backends for shard monitors.

Two interchangeable backends run a :class:`ShardMonitor`:

* :class:`InProcessBackend` keeps every monitor in the coordinator's
  process — zero IPC, ideal for tests and for hosts where the python
  interpreter is the bottleneck anyway (:class:`InProcessHandle` wraps
  any worker with ``run_rounds`` / ``adopt``, which is how the fleet
  plane's controllers run under the same driver); and
* :class:`MultiprocessingBackend` forks one worker process per shard
  and speaks a tiny command protocol over a pipe, isolating each
  shard's replica (a crash or kill of one worker never takes down the
  plane — the coordinator sees the dead pipe and fails the shard over).

Every worker starts from the same world, the spec's warm replica
(:func:`~repro.shard.spec.build_warm_replica`).  The coordinator hands
its reference replica — that world, built and not yet stepped — to
``spawn``.  A forked worker takes it over as its own copy; an
in-process worker, which would share it with the coordinator and with
its siblings, and a ``spawn``-ed one, which would get it pickled, build
the world themselves.

Both expose the same two-phase chunk API (``begin_chunk`` dispatches,
``finish_chunk`` collects) so the coordinator can overlap all shards'
rounds before collecting any result.  Death is signalled exclusively
by :class:`ShardDeadError` — there are no wall-clock timeouts anywhere
(the plane must stay deterministic), so a worker death is either a
real crash or a scripted :meth:`kill` from a chaos test.
"""

from __future__ import annotations

import gc
import multiprocessing as mp
import traceback
from typing import Optional, Sequence, Tuple

from repro.core.pinglist import ProbePair
from repro.shard.monitor import ChunkResult, ShardMonitor
from repro.shard.spec import ShardScenarioSpec
from repro.workloads.scenarios import MonitoredScenario

__all__ = [
    "InProcessBackend",
    "MultiprocessingBackend",
    "ShardDeadError",
    "ShardHandle",
]


class ShardDeadError(RuntimeError):
    """The shard can no longer execute rounds (crashed or killed)."""


class ShardHandle:
    """One shard as the coordinator sees it (backend-agnostic)."""

    def __init__(self, shard_id: int) -> None:
        self.shard_id = shard_id
        self.alive = True

    def begin_chunk(self, start_round: int, end_round: int) -> None:
        raise NotImplementedError

    def finish_chunk(self) -> ChunkResult:
        raise NotImplementedError

    def rebuild(
        self, pairs: Sequence[ProbePair], upto_round: int
    ) -> Optional[ChunkResult]:
        raise NotImplementedError

    def kill(self) -> None:
        """Simulate a shard crash (chaos/failover testing)."""
        raise NotImplementedError

    def stop(self) -> None:
        """Orderly shutdown."""
        raise NotImplementedError


# ----------------------------------------------------------------------
# In-process backend
# ----------------------------------------------------------------------


class InProcessHandle(ShardHandle):
    """A worker living in the coordinator's process: a
    :class:`ShardMonitor`, or anything else with ``run_rounds`` and
    ``adopt``."""

    def __init__(self, shard_id: int, worker) -> None:
        super().__init__(shard_id)
        self._worker = worker
        self._pending: Optional[Tuple[int, int]] = None

    def begin_chunk(self, start_round: int, end_round: int) -> None:
        if not self.alive:
            raise ShardDeadError(f"shard {self.shard_id} is dead")
        self._pending = (start_round, end_round)

    def finish_chunk(self) -> ChunkResult:
        if not self.alive:
            raise ShardDeadError(f"shard {self.shard_id} is dead")
        if self._pending is None:
            raise RuntimeError("finish_chunk without begin_chunk")
        start_round, end_round = self._pending
        self._pending = None
        return self._worker.run_rounds(start_round, end_round)

    def rebuild(
        self, pairs: Sequence[ProbePair], upto_round: int
    ) -> Optional[ChunkResult]:
        if not self.alive:
            raise ShardDeadError(f"shard {self.shard_id} is dead")
        return self._worker.adopt(pairs, upto_round)

    def kill(self) -> None:
        self.alive = False

    def stop(self) -> None:
        self.alive = False


class InProcessBackend:
    """Runs every shard inside the coordinator's process."""

    name = "inproc"

    def spawn(
        self,
        shard_id: int,
        spec: ShardScenarioSpec,
        pairs: Sequence[ProbePair],
        reference: MonitoredScenario,
    ) -> ShardHandle:
        """A worker on a warm replica of its own: ``reference`` is the
        coordinator's, which it keeps stepping."""
        return InProcessHandle(
            shard_id, ShardMonitor(shard_id, spec, pairs)
        )


# ----------------------------------------------------------------------
# Multiprocessing backend
# ----------------------------------------------------------------------


def _shard_worker_main(conn, shard_id, spec, pairs, replica) -> None:
    """Worker entry point: serve chunk/rebuild commands over the pipe.

    Runs in a forked child (``replica`` is the coordinator's warm
    reference, inherited) or a spawned one (``replica`` is ``None``
    and the monitor builds it).  Must stay deterministic — no wall
    clocks, no process ids, no unseeded RNG (enforced by the
    determinism lint's ``worker-determinism`` rule).  Any exception is
    shipped back as an ``("err", traceback)`` reply and ends the
    worker; the coordinator treats it like a death and fails the shard
    over.
    """
    # What the fork inherited is the replica this worker runs on and
    # lives as long as the worker, or the coordinator's state, which it
    # never drops: neither is garbage the cycle collector could free.
    # Keep the collector off it, or every full collection walks (and,
    # writing its marks, copies page by page) the whole inherited heap.
    gc.freeze()
    monitor = ShardMonitor(shard_id, spec, pairs, replica)
    while True:
        try:
            message = conn.recv()
        except EOFError:
            break
        command = message[0]
        if command == "stop":
            conn.send(("ok", None))
            break
        try:
            if command == "chunk":
                result = monitor.run_rounds(message[1], message[2])
            elif command == "rebuild":
                result = monitor.adopt(message[1], message[2])
            else:
                raise ValueError(f"unknown command {command!r}")
        except Exception:  # noqa: BLE001 - ship the crash, then die
            conn.send(("err", traceback.format_exc()))
            break
        conn.send(("ok", result))
    conn.close()


class MultiprocessingHandle(ShardHandle):
    """A shard monitor in a worker process.  ``replica`` is what the
    worker starts from: the inherited warm reference under ``fork``,
    ``None`` (build it) under ``spawn``, which pickles its arguments."""

    def __init__(
        self,
        shard_id: int,
        spec: ShardScenarioSpec,
        pairs: Sequence[ProbePair],
        context,
        replica: Optional[MonitoredScenario],
    ) -> None:
        super().__init__(shard_id)
        self._parent_conn, child_conn = context.Pipe()
        self._process = context.Process(
            target=_shard_worker_main,
            args=(child_conn, shard_id, spec, tuple(pairs), replica),
            daemon=True,
        )
        self._process.start()
        child_conn.close()

    def _send(self, message) -> None:
        if not self.alive:
            raise ShardDeadError(f"shard {self.shard_id} is dead")
        try:
            self._parent_conn.send(message)
        except (BrokenPipeError, OSError) as error:
            self.alive = False
            raise ShardDeadError(
                f"shard {self.shard_id} worker is gone"
            ) from error

    def _recv(self):
        if not self.alive:
            raise ShardDeadError(f"shard {self.shard_id} is dead")
        try:
            kind, payload = self._parent_conn.recv()
        except (EOFError, OSError) as error:
            self.alive = False
            raise ShardDeadError(
                f"shard {self.shard_id} worker died"
            ) from error
        if kind == "err":
            self.alive = False
            raise ShardDeadError(
                f"shard {self.shard_id} worker crashed:\n{payload}"
            )
        return payload

    def begin_chunk(self, start_round: int, end_round: int) -> None:
        self._send(("chunk", start_round, end_round))

    def finish_chunk(self) -> ChunkResult:
        return self._recv()

    def rebuild(
        self, pairs: Sequence[ProbePair], upto_round: int
    ) -> Optional[ChunkResult]:
        self._send(("rebuild", tuple(pairs), upto_round))
        return self._recv()

    def kill(self) -> None:
        if self._process.is_alive():
            self._process.terminate()
            self._process.join()
        self.alive = False

    def stop(self) -> None:
        if self.alive and self._process.is_alive():
            try:
                self._parent_conn.send(("stop",))
                self._parent_conn.recv()
            except (BrokenPipeError, EOFError, OSError):
                pass
        if self._process.is_alive():
            self._process.terminate()
        self._process.join()
        self.alive = False


class MultiprocessingBackend:
    """Runs each shard in its own worker process.

    Workers default to ``fork`` where the platform offers it (cheapest:
    a worker inherits the coordinator's warm reference replica instead
    of building and warming its own) and fall back to ``spawn``
    elsewhere — ``fork`` does not exist on Windows and is fragile with
    threads on macOS.  Both methods are correct and start a worker from
    the same world; the protocol ships the spec and pairs explicitly
    either way, and never a replica.
    """

    name = "mp"

    def __init__(self) -> None:
        self._context = mp.get_context(
            "fork" if "fork" in mp.get_all_start_methods() else "spawn"
        )

    def spawn(
        self,
        shard_id: int,
        spec: ShardScenarioSpec,
        pairs: Sequence[ProbePair],
        reference: MonitoredScenario,
    ) -> ShardHandle:
        """A worker process starting from ``reference``, the
        coordinator's warm replica, not stepped yet: inherited under
        ``fork``, rebuilt in the child under ``spawn``."""
        inherited = self._context.get_start_method() == "fork"
        return MultiprocessingHandle(
            shard_id, spec, pairs, self._context,
            reference if inherited else None,
        )


def backend_named(name: str):
    """The backend registered under ``name`` ("inproc" or "mp")."""
    if name == "inproc":
        return InProcessBackend()
    if name == "mp":
        return MultiprocessingBackend()
    raise ValueError(f"unknown shard backend {name!r}")
