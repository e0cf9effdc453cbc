"""Simulated processors as generator-driven tasks.

A :class:`ProcTask` wraps an application generator.  Each value the
generator yields is an *operation* (see :mod:`repro.apps.ops`).  The
task hands the operation to an :class:`OpHandler` (the machine model),
which later calls :meth:`ProcTask.resume` with the completion time and
the operation's result value.  The result is sent back into the
generator, so applications can react to simulated outcomes (e.g. the
currently-visible TSP bound).
"""

from __future__ import annotations

from typing import Any, Generator, Optional

from repro.errors import SimulationError
from repro.sim.engine import Engine


class OpHandler:
    """Interface machine models implement to service yielded operations.

    ``handle`` must arrange — immediately or via engine events — for
    ``task.resume(at, value)`` to be called exactly once.
    """

    def handle(self, task: "ProcTask", op: Any) -> None:
        raise NotImplementedError


class ProcTask:
    """One simulated processor executing a generator program."""

    def __init__(self, engine: Engine, proc_id: int,
                 gen: Generator[Any, Any, Any], handler: OpHandler) -> None:
        self.engine = engine
        self.proc_id = proc_id
        self.gen = gen
        self.handler = handler
        self.finished = False
        #: True when a crash-stop failure halted this processor; the
        #: task counts as finished (so the engine's drain check does
        #: not call it blocked) but its generator never ran to
        #: completion and produced no result.
        self.killed = False
        self.finish_time: Optional[int] = None
        self.start_time: Optional[int] = None
        self.ops_issued = 0
        self.busy_cycles = 0
        self.current_op: Any = None
        self._last_resume = 0
        self._waiting = False
        engine.register_task(self)

    def __repr__(self) -> str:
        state = "finished" if self.finished else (
            "blocked" if self._waiting else "ready")
        if self._waiting and self.current_op is not None:
            state += f" on {self.current_op!r}"
        return f"<ProcTask p{self.proc_id} {state}>"

    # ------------------------------------------------------------------
    def start(self, at: int = 0) -> None:
        """Schedule the first step of the task at cycle ``at``."""
        if self.start_time is not None:
            raise SimulationError(f"task p{self.proc_id} already started")
        self.start_time = at
        self._last_resume = at
        self.engine.schedule_at(at, self._step, None)

    def resume(self, at: int, value: Any = None) -> None:
        """Called by the handler when the pending operation completes."""
        if self.killed:
            # A completion can race the crash (the handler scheduled it
            # before the node died); the processor is gone, so the
            # result evaporates silently.
            return
        if self.finished:
            raise SimulationError(f"resume on finished task p{self.proc_id}")
        if not self._waiting:
            raise SimulationError(
                f"resume on task p{self.proc_id} with no pending op")
        self._waiting = False
        self.engine.schedule_at(at, self._step, value)

    def kill(self, at: int) -> None:
        """Crash-stop this processor at cycle ``at``.

        The generator is abandoned where it stands (not closed — a
        crashed process runs no cleanup), any pending operation's
        completion is dropped, and the task reports finished so the
        engine's deadlock accounting excludes it.  Idempotent.
        """
        if self.finished:
            return
        self.killed = True
        self.finished = True
        self.finish_time = at
        self.current_op = None
        self._waiting = False

    # ------------------------------------------------------------------
    def _step(self, value: Any) -> None:
        if self.killed:
            return
        self._last_resume = self.engine.now
        tracer = self.engine.tracer
        if tracer.enabled:
            # The operation the processor was blocked on ends now; its
            # whole window is attributed to that operation's category.
            tracer.end_op(self.proc_id, self.engine.now)
        try:
            op = self.gen.send(value)
        except StopIteration:
            self.finished = True
            self.finish_time = self.engine.now
            self.current_op = None
            return
        self.ops_issued += 1
        self.current_op = op
        self._waiting = True
        self.handler.handle(self, op)
