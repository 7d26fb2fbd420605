"""Discrete-event scheduling core.

A single Scheduler instance drives a whole simulation run.  Events are
callbacks tagged with an absolute firing time; ties are broken by the order
in which events were scheduled, so runs are bit-for-bit reproducible.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Callable


class SchedulerMisuseError(RuntimeError):
    """Raised when the scheduler API is used inconsistently.

    The main offender is scheduling an event in the past, which would
    silently corrupt causality if allowed through.
    """


class Scheduler:
    """Priority-queue event loop keyed on (time, insertion order).

    Two events scheduled for the same instant dispatch in the order they
    were registered, never by callback identity or hash order.  An event
    is its heap entry, the list ``[fire_at, seq, fn, kind, target]``, and
    that entry is the handle schedule returns.  Dispatch and cancel both
    clear ``fn``; an entry popped with ``fn`` cleared is skipped (lazy
    deletion).
    """

    def __init__(self):
        # current simulation time in seconds; only run_until moves it
        self.now = 0.0
        self._heap: list[list] = []
        self._seq = itertools.count()

    def schedule(self, fire_at: float, kind: str, target: object,
                 fn: Callable[[], None]) -> list:
        """Register fn to run at absolute time fire_at; returns its entry.

        kind and target are free-form labels kept on the entry for
        debugging and for tools that tag callbacks by kind. A fire time
        before now, or NaN, is refused.
        """
        if not fire_at >= self.now:
            raise SchedulerMisuseError(
                f"cannot schedule {kind!r} at {fire_at} before now={self.now}")
        entry = [fire_at, next(self._seq), fn, kind, target]
        heapq.heappush(self._heap, entry)
        return entry

    def schedule_in(self, delay: float, kind: str, target: object,
                    fn: Callable[[], None]) -> list:
        """Register fn to run delay seconds from now."""
        return self.schedule(self.now + delay, kind, target, fn)

    def cancel(self, entry: list) -> bool:
        """Cancel a pending event.  Returns False if it already ran."""
        pending = entry[2] is not None
        entry[2] = None
        return pending

    def pending_count(self) -> int:
        """Number of events still waiting to fire (excludes cancelled)."""
        return sum(1 for entry in self._heap if entry[2] is not None)

    def run_until(self, t_end: float) -> int:
        """Dispatch every event with fire_at <= t_end, in order.

        Afterwards the clock reads exactly t_end even if the last event
        fired earlier.  Returns the number of callbacks dispatched.  A
        t_end before now, or NaN, is refused: the clock never runs back.
        """
        if not t_end >= self.now:
            raise SchedulerMisuseError(
                f"cannot run until {t_end} before now={self.now}")
        dispatched = 0
        heap = self._heap
        pop = heapq.heappop
        try:
            while heap and heap[0][0] <= t_end:
                entry = pop(heap)
                fn = entry[2]
                if fn is None:
                    continue
                entry[2] = None
                self.now = entry[0]
                fn()
                dispatched += 1
        finally:
            self.now = t_end
        return dispatched
