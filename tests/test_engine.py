import bisect
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vanetsim.engine import Scheduler, SchedulerMisuseError


def test_events_fire_in_time_order():
    sched = Scheduler()
    order = []
    sched.schedule(3.0, "c", "x", lambda: order.append("c"))
    sched.schedule(1.0, "a", "x", lambda: order.append("a"))
    sched.schedule(2.0, "b", "x", lambda: order.append("b"))
    n = sched.run_until(10.0)
    assert n == 3
    assert order == ["a", "b", "c"]


def test_simultaneous_events_fire_in_insertion_order():
    sched = Scheduler()
    order = []
    for tag in ("first", "second", "third", "fourth"):
        sched.schedule(5.0, tag, "x", lambda t=tag: order.append(t))
    sched.run_until(5.0)
    assert order == ["first", "second", "third", "fourth"]


def test_now_tracks_firing_time_then_settles_at_end():
    sched = Scheduler()
    seen = []
    sched.schedule(2.5, "probe", "x", lambda: seen.append(sched.now))
    sched.run_until(9.0)
    assert seen == [2.5]
    assert sched.now == 9.0


def test_run_until_is_inclusive_of_boundary():
    sched = Scheduler()
    hits = []
    sched.schedule(4.0, "edge", "x", lambda: hits.append(1))
    assert sched.run_until(4.0) == 1
    assert hits == [1]


def test_events_after_horizon_stay_pending():
    sched = Scheduler()
    hits = []
    sched.schedule(4.0, "later", "x", lambda: hits.append(1))
    assert sched.run_until(3.999) == 0
    assert hits == []
    assert sched.pending_count() == 1
    assert sched.run_until(4.0) == 1


def test_schedule_in_uses_current_time():
    sched = Scheduler()
    times = []

    def first():
        sched.schedule_in(2.0, "second", "x", lambda: times.append(sched.now))

    sched.schedule(3.0, "first", "x", first)
    sched.run_until(10.0)
    assert times == [5.0]


def test_scheduling_in_the_past_raises():
    sched = Scheduler()
    sched.schedule(1.0, "tick", "x", lambda: None)
    sched.run_until(5.0)
    with pytest.raises(SchedulerMisuseError):
        sched.schedule(4.9, "late", "x", lambda: None)


@pytest.mark.parametrize("fire_at", [math.nan, -math.inf])
def test_scheduling_at_nan_or_minus_infinity_raises(fire_at):
    # a NaN fire time would sit at the top of the heap and stall the run
    sched = Scheduler()
    with pytest.raises(SchedulerMisuseError):
        sched.schedule(fire_at, "stuck", "x", lambda: None)
    with pytest.raises(SchedulerMisuseError):
        sched.schedule_in(fire_at, "stuck", "x", lambda: None)
    sched.schedule(1.0, "tick", "x", lambda: None)
    assert sched.run_until(2.0) == 1


def test_event_labels_are_kept_as_given_on_the_entry():
    sched = Scheduler()
    entry = sched.schedule(0.5, "rx", 7, lambda: None)
    assert entry[0] == 0.5
    assert entry[3:] == ["rx", 7]
    sched.run_until(1.0)
    assert entry[3:] == ["rx", 7]


def test_scheduling_at_now_is_allowed():
    sched = Scheduler()
    hits = []

    def at_two():
        sched.schedule(2.0, "same-instant", "x", lambda: hits.append("nested"))

    sched.schedule(2.0, "outer", "x", at_two)
    sched.run_until(2.0)
    assert hits == ["nested"]


def test_cancel_prevents_dispatch_and_reports_status():
    sched = Scheduler()
    hits = []
    h = sched.schedule(1.0, "doomed", "x", lambda: hits.append(1))
    assert sched.cancel(h) is True
    assert sched.cancel(h) is False
    sched.run_until(2.0)
    assert hits == []


def test_cancel_after_fire_returns_false():
    sched = Scheduler()
    h = sched.schedule(1.0, "tick", "x", lambda: None)
    sched.run_until(2.0)
    assert sched.cancel(h) is False


def test_events_scheduled_during_run_are_honoured():
    sched = Scheduler()
    order = []

    def chain(n):
        order.append(n)
        if n < 5:
            sched.schedule_in(1.0, "chain", "x", lambda: chain(n + 1))

    sched.schedule(0.0, "chain", "x", lambda: chain(1))
    count = sched.run_until(100.0)
    assert order == [1, 2, 3, 4, 5]
    assert count == 5


def test_interleaved_run_until_calls_resume_cleanly():
    sched = Scheduler()
    order = []
    for t in (1.0, 2.0, 3.0, 4.0):
        sched.schedule(t, "tick", "x", lambda t=t: order.append(t))
    assert sched.run_until(2.0) == 2
    assert sched.now == 2.0
    assert sched.run_until(10.0) == 2
    assert order == [1.0, 2.0, 3.0, 4.0]


@pytest.mark.parametrize("t_end", [3.0, math.nan])
def test_run_until_refuses_to_run_the_clock_back(t_end):
    # run back to 3.0, an event due at 3.5 would dispatch after one that
    # fired at 4.0; a NaN clock would refuse every later schedule
    sched = Scheduler()
    order = []
    sched.schedule(4.0, "a", "x", lambda: order.append(4.0))
    sched.run_until(5.0)
    with pytest.raises(SchedulerMisuseError):
        sched.run_until(t_end)
    assert sched.now == 5.0
    sched.schedule(5.5, "b", "x", lambda: order.append(5.5))
    sched.run_until(6.0)
    assert order == [4.0, 5.5]


def test_dispatch_order_is_reproducible_under_load():
    def trial():
        rng = random.Random(42)
        sched = Scheduler()
        order = []
        for i in range(500):
            t = rng.uniform(0, 50)
            sched.schedule(t, "evt", str(i), lambda i=i: order.append(i))
        sched.run_until(60.0)
        return order

    assert trial() == trial()


class ListScheduler:
    """Reference scheduler: pending events in one list sorted by (time, seq).

    Cancelling removes the event from the list, so nothing is skipped
    lazily; the heap scheduler must behave the same from outside.
    """

    def __init__(self):
        self.now = 0.0
        self.pending = []  # [fire_at, seq, fn], ascending
        self.seq = 0

    def schedule(self, fire_at, kind, target, fn):
        event = [fire_at, self.seq, fn]
        self.seq += 1
        bisect.insort(self.pending, event, key=lambda e: e[:2])
        return event

    def cancel(self, event):
        for i, pending in enumerate(self.pending):
            if pending is event:
                del self.pending[i]
                return True
        return False

    def pending_count(self):
        return len(self.pending)

    def run_until(self, t_end):
        dispatched = 0
        while self.pending and self.pending[0][0] <= t_end:
            fire_at, _seq, fn = self.pending.pop(0)
            self.now = fire_at
            fn()
            dispatched += 1
        self.now = t_end
        return dispatched


# delays are exact binary fractions, so equal fire times really are equal
_delays = st.sampled_from([0.0, 0.25, 0.5, 1.0, 2.0])
_cancel = st.tuples(st.just("cancel"), st.integers(0, 40))
# what a callback does when it fires: schedule more events, cancel some
_in_callback = st.lists(st.one_of(
    st.tuples(st.just("schedule"), _delays, st.lists(_cancel, max_size=2)),
    _cancel), max_size=3)
_program = st.lists(st.one_of(
    st.tuples(st.just("schedule"), _delays, _in_callback),
    _cancel,
    st.tuples(st.just("run"), _delays)), max_size=40)


def _execute(sched, program):
    """Run program on sched; returns everything visible from outside."""
    seen = []
    handles = []

    def do(action):
        if action[0] == "schedule":
            _, delay, script = action
            label = len(handles)

            def fire():
                seen.append(("fire", label, sched.now))
                for inner in script:
                    do(inner)

            handles.append(sched.schedule(sched.now + delay, "evt", label, fire))
        elif action[0] == "cancel":
            if handles:
                i = action[1] % len(handles)
                seen.append(("cancel", i, sched.cancel(handles[i])))
        else:
            t_end = sched.now + action[1]
            seen.append(("run", sched.run_until(t_end), sched.now))
        seen.append(("pending", sched.pending_count()))

    for action in program:
        do(action)
    return seen


@settings(max_examples=300, deadline=None)
@given(_program)
def test_scheduler_matches_sorted_list_reference(program):
    assert _execute(Scheduler(), program) == _execute(ListScheduler(), program)

