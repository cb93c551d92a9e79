"""Deterministic async runtime on top of the discrete-event simulator.

The ingress plane is written as coroutines (mailbox consumers, a solve
executor), but wall-clock ``asyncio`` cannot give the repo's core
guarantee — *same seed, byte-identical run* — because its ready-queue
interleaving depends on host timing.  This module is the replacement: a
minimal awaitable vocabulary (:class:`SimFuture`, :class:`SimTask`,
:meth:`SimRuntime.sleep`) whose **every wakeup is routed through**
:meth:`repro.net.simulator.Simulator.schedule`.  The simulator's heap
orders callbacks by ``(time, insertion_seq)``, so coroutine interleaving
is a pure function of the event timeline — two runs of the same seeded
stream step their tasks in exactly the same order.

This is the same design trade ``asyncio``'s own test loops make
(virtual time, deterministic ready queue), specialized to the repo's
existing simulator so ingress, chaos and net code share one clock.
"""

from __future__ import annotations

from collections import deque
from typing import (
    Any,
    Callable,
    Coroutine,
    Deque,
    Generator,
    List,
    Optional,
)

from ..net.simulator import Simulator


class SimFuture:
    """A single-assignment result cell, awaitable from a :class:`SimTask`.

    The first ``set_result``/``set_exception`` wins; later calls are
    ignored (this is what makes racing a timer against a mailbox put
    safe — the loser's callback becomes a no-op).
    """

    __slots__ = ("_runtime", "_done", "_result", "_exc", "_callbacks")

    def __init__(self, runtime: "SimRuntime") -> None:
        self._runtime = runtime
        self._done = False
        self._result: Any = None
        self._exc: Optional[BaseException] = None
        self._callbacks: List[Callable[["SimFuture"], None]] = []

    @property
    def done(self) -> bool:
        """Whether a result or exception has been set."""
        return self._done

    def result(self) -> Any:
        """The resolved value (raises the stored exception, if any)."""
        if not self._done:
            raise RuntimeError("future is not done")
        if self._exc is not None:
            raise self._exc
        return self._result

    def set_result(self, value: Any = None) -> bool:
        """Resolve the future; returns False if it was already done."""
        if self._done:
            return False
        self._done = True
        self._result = value
        self._fire()
        return True

    def set_exception(self, exc: BaseException) -> bool:
        """Fail the future; returns False if it was already done."""
        if self._done:
            return False
        self._done = True
        self._exc = exc
        self._fire()
        return True

    def add_done_callback(
        self, callback: Callable[["SimFuture"], None]
    ) -> None:
        """Run ``callback(self)`` once resolved (immediately if done)."""
        if self._done:
            callback(self)
        else:
            self._callbacks.append(callback)

    def _fire(self) -> None:
        callbacks, self._callbacks = self._callbacks, []
        for callback in callbacks:
            callback(self)

    def __await__(self) -> Generator["SimFuture", None, Any]:
        if not self._done:
            yield self
        if self._exc is not None:
            raise self._exc
        return self._result


class SimTask(SimFuture):
    """A coroutine driven to completion by the simulator.

    Each step runs the coroutine until it awaits a pending
    :class:`SimFuture` (or finishes).  Wakeups never run inline: the
    awaited future's resolution schedules the next step through
    ``sim.schedule(0, ...)``, so sibling wakeups at one instant execute
    in deterministic insertion order.
    """

    __slots__ = ("_coro", "_name")

    def __init__(
        self,
        runtime: "SimRuntime",
        coro: Coroutine[Any, Any, Any],
        name: str = "",
    ) -> None:
        super().__init__(runtime)
        self._coro = coro
        self._name = name or getattr(coro, "__name__", "task")

    @property
    def name(self) -> str:
        """Diagnostic label of the task."""
        return self._name

    def _step(self) -> None:
        if self._done:
            self._coro.close()
            return
        try:
            awaited = self._coro.send(None)
        except StopIteration as stop:
            self.set_result(stop.value)
            return
        except BaseException as exc:  # noqa: BLE001 — stored, not hidden
            self.set_exception(exc)
            return
        if not isinstance(awaited, SimFuture):
            self.set_exception(
                TypeError(
                    f"task {self._name!r} awaited {type(awaited).__name__}; "
                    "only SimFuture/SimTask are awaitable on this runtime"
                )
            )
            return
        awaited.add_done_callback(self._wake)

    def _wake(self, _fut: SimFuture) -> None:
        self._runtime.sim.schedule(0.0, self._step)

    def cancel(self) -> bool:
        """Resolve the task without running it further."""
        return self.set_result(None)


class SimRuntime:
    """The task spawner/clock facade over one :class:`Simulator`."""

    def __init__(self, sim: Optional[Simulator] = None) -> None:
        self.sim = sim or Simulator()
        self.tasks: List[SimTask] = []

    @property
    def now(self) -> float:
        """Current virtual time in seconds."""
        return self.sim.now

    def future(self) -> SimFuture:
        """A fresh unresolved future bound to this runtime."""
        return SimFuture(self)

    def spawn(
        self, coro: Coroutine[Any, Any, Any], name: str = ""
    ) -> SimTask:
        """Schedule a coroutine; its first step runs at the current time."""
        task = SimTask(self, coro, name=name)
        self.tasks.append(task)
        self.sim.schedule(0.0, task._step)
        return task

    def sleep(self, delay_s: float) -> SimFuture:
        """An awaitable that resolves ``delay_s`` virtual seconds later."""
        fut = self.future()
        self.sim.schedule(max(0.0, delay_s), fut.set_result)
        return fut

    def call_at(self, at_s: float, callback: Callable[[], None]):
        """Schedule a plain callback at an absolute virtual time."""
        return self.sim.schedule_at(at_s, callback)

    def run_until(self, t_end_s: float) -> None:
        """Drive the simulator (and with it every task) to ``t_end_s``."""
        self.sim.run_until(t_end_s)

    def raise_task_errors(self) -> None:
        """Re-raise the first stored task exception, if any finished badly."""
        for task in self.tasks:
            if task.done and task._exc is not None:
                raise task._exc


class VirtualSemaphore:
    """A FIFO counting semaphore over :class:`SimFuture` waiters.

    Models the solve executor's bounded concurrency in virtual time: at most
    ``slots`` holders at once, waiters resumed strictly in arrival order
    (deterministic, unlike a wall-clock semaphore).
    """

    def __init__(self, runtime: SimRuntime, slots: int) -> None:
        if slots < 1:
            raise ValueError("slots must be >= 1")
        self._runtime = runtime
        self.slots = slots
        self._in_use = 0
        self._waiters: Deque[SimFuture] = deque()

    @property
    def in_use(self) -> int:
        """Slots currently held."""
        return self._in_use

    @property
    def waiting(self) -> int:
        """Acquirers currently queued."""
        return len(self._waiters)

    async def acquire(self) -> None:
        if self._in_use < self.slots:
            self._in_use += 1
            return
        fut = self._runtime.future()
        self._waiters.append(fut)
        await fut
        # the releaser transferred its slot to us; _in_use already counts it

    def release(self) -> None:
        if self._waiters:
            # hand the slot to the oldest waiter without decrementing
            self._waiters.popleft().set_result(None)
            return
        if self._in_use <= 0:
            raise RuntimeError("release() without a held slot")
        self._in_use -= 1
