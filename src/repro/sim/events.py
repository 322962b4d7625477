"""A discrete-event engine: a priority queue of timestamped callbacks.

This is the classic event-list simulation loop: :meth:`SimEngine.at`
schedules ``fn(*args)`` at a virtual time, :meth:`SimEngine.run` pops
events in time order (FIFO within equal timestamps) and advances the
shared :class:`~repro.sim.SimClock` to each event's timestamp before
firing it.  Callbacks may schedule further events, which is how pipelined
transfers chain: a chunk-arrival event at a relay node schedules that
relay's onward sends.

:class:`EventQueue` is a binary heap of ``(time, seq, fn, args)``
entries; the global sequence number breaks equal-time ties FIFO.  (A
queue bucketed by timestamp wins only on pure same-time floods; on the
benchmark's workloads it was slower and larger — ``docs/PERFORMANCE.md``.)

Determinism: no wall clock, no randomness — identical schedules replay
identically, which the golden-transcript discipline of this repo depends
on.  Non-finite timestamps are rejected outright: a NaN compares false
against everything, so it would silently corrupt heap order instead of
failing loudly.
"""

from __future__ import annotations

import heapq
import itertools
import math
from typing import Any, Callable, Optional

from ..errors import ReproError
from .clock import SimClock
from .profile import EngineProfile

__all__ = ["EventQueue", "SimEngine", "SimError"]


class SimError(ReproError):
    """Misuse of the simulation engine."""


def _check_time(time: float) -> float:
    time = float(time)
    if not math.isfinite(time):
        raise SimError(f"cannot schedule an event at a non-finite "
                       f"time: {time}")
    if time < 0:
        raise SimError(f"cannot schedule an event before t=0: {time}")
    return time


class EventQueue:
    """A time-ordered queue of ``(time, fn, args)`` entries, FIFO within
    equal timestamps."""

    def __init__(self):
        self._heap: list[tuple[float, int, Callable, tuple]] = []
        self._seq = itertools.count(1)
        self.scheduled = 0

    def push(self, time: float, fn: Callable, *args: Any) -> None:
        time = _check_time(time)
        heapq.heappush(self._heap, (time, next(self._seq), fn, args))
        self.scheduled += 1

    def pop(self) -> tuple[float, Callable, tuple]:
        if not self._heap:
            raise SimError("pop from an empty event queue")
        time, _, fn, args = heapq.heappop(self._heap)
        return time, fn, args

    def peek_time(self) -> Optional[float]:
        return self._heap[0][0] if self._heap else None

    def __len__(self) -> int:
        return len(self._heap)

    def __bool__(self) -> bool:
        return bool(self._heap)


class SimEngine:
    """One simulation run: a clock plus its event queue.

    Pass an :class:`~repro.sim.EngineProfile` as *profile* to count
    events and attribute virtual time by callback category while the
    engine runs (deterministic — it reads no wall clock).
    """

    def __init__(self, clock: Optional[SimClock] = None, *,
                 profile: Optional[EngineProfile] = None):
        self.clock = clock if clock is not None else SimClock()
        self.queue = EventQueue()
        self.events_processed = 0
        self.profile = profile

    @property
    def now(self) -> float:
        return self.clock.now

    def at(self, time: float, fn: Callable, *args: Any) -> None:
        """Schedule ``fn(*args)`` at virtual time *time*."""
        self.queue.push(time, fn, *args)

    def after(self, delay: float, fn: Callable, *args: Any) -> None:
        """Schedule ``fn(*args)`` *delay* seconds from now."""
        if delay < 0:
            raise SimError(f"cannot schedule {delay}s in the past")
        self.queue.push(self.clock.now + delay, fn, *args)

    def run(self, until: Optional[float] = None) -> float:
        """Drain the queue in time order (optionally stopping once the
        next event lies beyond *until*); returns the clock reading."""
        queue = self.queue
        clock = self.clock
        profile = self.profile
        processed = 0
        try:
            while queue:
                next_time = queue.peek_time()
                if until is not None and next_time is not None \
                        and next_time > until:
                    break
                time, fn, args = queue.pop()
                if profile is not None:
                    profile.record(fn, time - clock.now)
                clock.advance_to(time)
                processed += 1
                fn(*args)
        finally:
            self.events_processed += processed
        if until is not None:
            clock.advance_to(until)
        return clock.now
