"""Deterministic fault injection for the annotation daemon.

Operational failures — an annotator that raises on one request, a batcher
thread that dies, a reload that cannot read its model directory, a worker
process that dies, a response frame torn mid-write — are rare in tests and
constant in production.  The :class:`FaultInjector` turns each of them into
a *named failure point* the server consults at the exact moment the real
failure would occur, so the chaos suite (``tests/test_serve_faults.py``)
can prove every degradation path without sleeps, monkeypatching or real
crashes:

* ``arm(point, error=...)`` makes the next ``fire(point)`` raise
  :class:`InjectedFault` there — the server's own recovery code (poison
  bisection, the batcher restart guard, the reload failure path) then runs
  exactly as it would for an organic exception;
* ``arm(point, gate=threading.Event())`` makes ``fire(point)`` *block*
  until the test sets the gate — the deterministic replacement for "a slow
  batch": the batcher is pinned at a known point while the test fills the
  admission queue, then released;
* ``match=`` restricts a fault to requests it should poison (e.g. only
  batches containing ``poison.py``), which is how the bisection tests make
  one request fail while its neighbors succeed;
* ``wait_for(point)`` lets a test synchronise on the server actually
  reaching the failure point instead of sleeping and hoping.

An un-armed injector is free: ``fire`` returns after one attribute read, so
every server carries one unconditionally.
"""

from __future__ import annotations

import threading
from typing import Callable, Optional

#: The failure points the server consults, in the order a request meets them.
#:
#: ``batcher``     — top of the batcher loop, with a request in hand (the
#:                   thread-death scenario the restart guard recovers from).
#: ``slow_batch``  — start of a micro-batch on its dispatcher thread, before
#:                   any engine work (arm with a ``gate`` to hold a worker
#:                   busy; with every worker busy, the batcher waits too).
#: ``annotator``   — immediately before each ``annotate_sources`` engine
#:                   call, including the bisected halves of a failing batch.
#: ``reload``      — on the batcher, with every worker slot held, before the
#:                   reload is broadcast to the workers.
#: ``worker``      — on a fleet pool's own injector, immediately before a
#:                   merged micro-batch is sent to an annotation worker
#:                   process; an error arm is treated as a worker crash (the
#:                   pool kills and restarts the worker, the batch fails fast
#:                   with ``error_kind="crashed"`` instead of being bisected).
#:                   Worker processes only: no one arms the in-process pool's.
#: ``torn_frame``  — before a response frame is written; the server then
#:                   emulates a torn write (partial header + dropped
#:                   connection) instead of raising.
FAULT_POINTS = ("batcher", "slow_batch", "annotator", "reload", "worker", "torn_frame")

#: How long a gated fire waits for its gate before giving up; a bound so a
#: buggy test cannot wedge the daemon forever.
GATE_TIMEOUT_SECONDS = 60.0


class InjectedFault(RuntimeError):
    """Raised at an armed failure point (never by an un-armed injector)."""


class _Arm:
    __slots__ = ("times", "error", "gate", "match")

    def __init__(
        self,
        times: Optional[int],
        error: str,
        gate: Optional[threading.Event],
        match: Optional[Callable[[dict], bool]],
    ) -> None:
        self.times = times
        self.error = error
        self.gate = gate
        self.match = match


class FaultInjector:
    """Named, armable failure points consulted by :class:`AnnotationServer`."""

    def __init__(self) -> None:
        self._cond = threading.Condition()
        self._arms: dict[str, _Arm] = {}
        self._fired: dict[str, int] = {}

    @staticmethod
    def _check_point(point: str) -> None:
        if point not in FAULT_POINTS:
            raise ValueError(f"unknown fault point {point!r}: valid points are {', '.join(FAULT_POINTS)}")

    def arm(
        self,
        point: str,
        *,
        times: Optional[int] = 1,
        error: str = "injected fault",
        gate: Optional[threading.Event] = None,
        match: Optional[Callable[[dict], bool]] = None,
    ) -> "FaultInjector":
        """Arm a failure point for the next ``times`` matching fires.

        ``times=None`` keeps the point armed until :meth:`disarm`.  With a
        ``gate`` the fire *blocks* until the event is set (a deterministic
        slow path); without one it raises :class:`InjectedFault(error)`.
        ``match`` receives the fire's context dict and can veto the fault
        for non-matching requests (a veto does not consume ``times``).
        """
        self._check_point(point)
        if times is not None and times < 1:
            raise ValueError("times must be a positive count or None for unlimited")
        with self._cond:
            self._arms[point] = _Arm(times, error, gate, match)
        return self

    def disarm(self, point: str) -> None:
        self._check_point(point)
        with self._cond:
            self._arms.pop(point, None)

    def reset(self) -> None:
        """Disarm every point and forget fire counts."""
        with self._cond:
            self._arms.clear()
            self._fired.clear()

    def fired(self, point: str) -> int:
        """How many times an armed ``point`` actually fired."""
        self._check_point(point)
        with self._cond:
            return self._fired.get(point, 0)

    def wait_for(self, point: str, count: int = 1, timeout: float = 10.0) -> bool:
        """Block until ``point`` has fired ``count`` times (test synchronisation)."""
        self._check_point(point)
        with self._cond:
            return self._cond.wait_for(lambda: self._fired.get(point, 0) >= count, timeout=timeout)

    def fire(self, point: str, context: Optional[dict] = None) -> bool:
        """Consult a failure point; a no-op unless the point is armed.

        Raises :class:`InjectedFault` for error arms.  For gate arms, blocks
        until the gate is set and returns ``True`` (callers that need
        non-raise semantics, e.g. ``torn_frame``, use the return value).
        Returns ``False`` when nothing was armed or the match vetoed.
        """
        if not self._arms:  # fast path: an idle injector costs one dict check
            return False
        with self._cond:
            arm = self._arms.get(point)
            if arm is None:
                return False
            if arm.match is not None and not arm.match(context or {}):
                return False
            if arm.times is not None:
                arm.times -= 1
                if arm.times <= 0:
                    del self._arms[point]
            self._fired[point] = self._fired.get(point, 0) + 1
            self._cond.notify_all()
            gate, error = arm.gate, arm.error
        if gate is not None:
            gate.wait(timeout=GATE_TIMEOUT_SECONDS)
            return True
        raise InjectedFault(f"{point}: {error}")
