"""Discrete-event scheduling core.

A single Scheduler instance drives a whole simulation run.  Events are
callbacks tagged with an absolute firing time; ties are broken by the order
in which events were scheduled, so runs are bit-for-bit reproducible.
"""

from __future__ import annotations

import heapq
import itertools
import random
from typing import Callable, Optional


class SchedulerMisuseError(RuntimeError):
    """Raised when the scheduler API is used inconsistently.

    The main offender is scheduling an event in the past, which would
    silently corrupt causality if allowed through.
    """


class EventHandle:
    """Token returned by Scheduler.schedule, usable to cancel the event."""

    __slots__ = ("fire_at", "seq", "kind", "target", "fn", "cancelled", "fired")

    def __init__(self, fire_at: float, seq: int, kind: str, target: object,
                 fn: Callable[[], None]):
        self.fire_at = fire_at
        self.seq = seq
        self.kind = kind
        self.target = target
        self.fn = fn
        self.cancelled = False
        self.fired = False

    def __repr__(self):
        state = "cancelled" if self.cancelled else ("fired" if self.fired else "pending")
        return f"<EventHandle {self.kind}@{self.fire_at:.7f} #{self.seq} {state}>"


class Scheduler:
    """Priority-queue event loop keyed on (time, insertion order).

    Two events scheduled for the same instant dispatch in the order they
    were registered, never by callback identity or hash order.  Cancelled
    events stay in the heap but are skipped when popped (lazy deletion).
    """

    def __init__(self, event_log: Optional[list[str]] = None):
        # current simulation time in seconds; only run_until moves it
        self.now = 0.0
        self._heap: list[tuple[float, int, EventHandle]] = []
        self._seq = itertools.count()
        self.event_log = event_log

    def schedule(self, fire_at: float, kind: str, target: object,
                 fn: Callable[[], None]) -> EventHandle:
        """Register fn to run at absolute time fire_at.

        kind and target are free-form labels used only for the optional
        event log, which prints them with str(), and for debugging. A
        fire time before now, or NaN, is refused.
        """
        if not fire_at >= self.now:
            raise SchedulerMisuseError(
                f"cannot schedule {kind!r} at {fire_at} before now={self.now}")
        handle = EventHandle(fire_at, next(self._seq), kind, target, fn)
        heapq.heappush(self._heap, (handle.fire_at, handle.seq, handle))
        return handle

    def schedule_in(self, delay: float, kind: str, target: object,
                    fn: Callable[[], None]) -> EventHandle:
        """Register fn to run delay seconds from now."""
        return self.schedule(self.now + delay, kind, target, fn)

    def cancel(self, handle: EventHandle) -> bool:
        """Cancel a pending event.  Returns False if it already ran."""
        if handle.fired or handle.cancelled:
            return False
        handle.cancelled = True
        return True

    def pending_count(self) -> int:
        """Number of events still waiting to fire (excludes cancelled)."""
        return sum(1 for _, _, h in self._heap if not h.cancelled and not h.fired)

    def run_until(self, t_end: float) -> int:
        """Dispatch every event with fire_at <= t_end, in order.

        Afterwards the clock reads exactly t_end even if the last event
        fired earlier.  Returns the number of callbacks dispatched.
        """
        dispatched = 0
        heap = self._heap
        try:
            while heap and heap[0][0] <= t_end:
                fire_at, seq, handle = heapq.heappop(heap)
                if handle.cancelled:
                    continue
                self.now = fire_at
                handle.fired = True
                if self.event_log is not None:
                    self.event_log.append(
                        f"{fire_at:.7f} {seq} {handle.kind} {handle.target}")
                handle.fn()
                dispatched += 1
        finally:
            self.now = t_end
        return dispatched


def seeded_rng(seed: int) -> random.Random:
    """Return an independent Mersenne Twister stream for the given seed.

    Every stochastic choice in a run must come from one of these streams so
    that identical seeds reproduce identical runs.
    """
    return random.Random(seed)
