"""Radio medium tests: timing, FIFO, range checks, link-break solver."""

import bisect
import math

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from vanetsim.engine import Scheduler
from vanetsim.mobility import MobilityModel
from vanetsim.radio import BROADCAST, Frame, RadioConfig, RadioMedium


class TapRecorder:
    def __init__(self):
        self.sends = []
        self.deliveries = []
        self.losses = []

    def on_send(self, frame, t):
        self.sends.append((frame, t))

    def on_delivery(self, frame, node, t):
        self.deliveries.append((frame, node, t))

    def on_loss(self, frame, reason, t):
        self.losses.append((frame, reason, t))


def build(positions, config=None):
    sched = Scheduler()
    mob = MobilityModel()
    tap = TapRecorder()
    radio = RadioMedium(sched, mob, tap, config)
    inbox = {}
    for node_id, (x, y) in positions.items():
        mob.add_node(node_id, x, y)
        inbox[node_id] = []
        radio.register(node_id, lambda f, n=node_id: inbox[n].append((sched.now, f)))
    return sched, mob, radio, inbox, tap


def test_unicast_delivery_timing():
    sched, mob, radio, inbox, tap = build({0: (0, 0), 1: (100, 0)})
    radio.transmit(Frame("DATA", 0, 1, 512))
    sched.run_until(1.0)
    assert len(inbox[1]) == 1
    t, frame = inbox[1][0]
    assert tap.sends == [(frame, 0.0)]
    # 512 bytes at 10 Mbit/s is 409.6 us on the air, plus 50 us overhead
    assert t == pytest.approx(409.6e-6 + 50e-6, rel=1e-12)
    assert tap.deliveries[0][1] == 1


def test_sender_fifo_serializes_back_to_back_frames():
    sched, mob, radio, inbox, tap = build({0: (0, 0), 1: (100, 0)})
    for _ in range(3):
        radio.transmit(Frame("DATA", 0, 1, 512))
    sched.run_until(1.0)
    airtime = 512 * 8 / 10_000_000
    sent = [t for _, t in tap.sends]
    assert sent == pytest.approx([0.0, airtime, 2 * airtime])
    arrived = [t for t, _ in inbox[1]]
    assert arrived == pytest.approx([airtime + 50e-6, 2 * airtime + 50e-6, 3 * airtime + 50e-6])


def test_grid_neighbor_distance_inside_disk():
    sched, mob, radio, inbox, tap = build({2: (550, 290), 3: (755, 360)})
    d = math.dist((550, 290), (755, 360))
    assert d == pytest.approx(216.6218, abs=1e-3)
    radio.transmit(Frame("DATA", 2, 3, 512))
    sched.run_until(1.0)
    assert len(inbox[3]) == 1


def test_range_is_a_closed_disk():
    sched, mob, radio, inbox, tap = build({0: (0, 0), 1: (250, 0), 2: (250.001, 1500)})
    radio.transmit(Frame("DATA", 0, 1, 512))
    sched.run_until(1.0)
    assert len(inbox[1]) == 1
    sched2, mob2, radio2, inbox2, tap2 = build({0: (0, 0), 1: (250.001, 0)})
    radio2.transmit(Frame("DATA", 0, 1, 512))
    sched2.run_until(1.0)
    assert inbox2[1] == []
    assert tap2.losses[0][1] == "out-of-range"


def test_unicast_failure_callback_is_synchronous_when_idle():
    sched, mob, radio, inbox, tap = build({0: (0, 0), 1: (1000, 0)})
    failed = []
    radio.transmit(Frame("DATA", 0, 1, 512), on_fail=lambda f: failed.append(sched.now))
    assert failed == [0.0]
    assert tap.losses[0][1] == "out-of-range"
    assert tap.losses[0][2] == 0.0


def test_queued_frame_checks_range_at_its_own_airtime_start():
    sched, mob, radio, inbox, tap = build({0: (0, 0), 1: (240, 0)})
    mob.set_motion(1, (2999, 0), 101.0, 0.0)
    # 125 kB occupies the sender for exactly 0.1 s; by then node 1 sits
    # at x = 250.1, just outside the disk.
    failed = []
    radio.transmit(Frame("DATA", 0, 1, 125_000))
    radio.transmit(Frame("DATA", 0, 1, 512), on_fail=lambda f: failed.append(sched.now))
    sched.run_until(1.0)
    assert len(inbox[1]) == 1
    assert inbox[1][0][1].size == 125_000
    assert failed == pytest.approx([0.1])


def test_broadcast_reaches_every_neighbor_but_not_sender():
    sched, mob, radio, inbox, tap = build(
        {0: (0, 0), 1: (100, 0), 2: (0, 200), 3: (800, 800)}
    )
    radio.transmit(Frame("RREQ", 0, BROADCAST, 64))
    sched.run_until(1.0)
    assert len(inbox[1]) == 1 and len(inbox[2]) == 1
    assert inbox[0] == [] and inbox[3] == []
    assert [n for _, n, _ in tap.deliveries] == [1, 2]


def test_broadcast_with_no_neighbors_records_one_loss():
    sched, mob, radio, inbox, tap = build({0: (0, 0), 1: (2000, 0)})
    radio.transmit(Frame("RREQ", 0, BROADCAST, 64))
    sched.run_until(1.0)
    assert inbox[1] == []
    assert len(tap.losses) == 1
    assert tap.losses[0][1] == "no-neighbors"


def test_neighbors_sorted_and_symmetric():
    sched, mob, radio, inbox, tap = build(
        {5: (0, 0), 3: (100, 0), 9: (200, 0), 7: (600, 0)}
    )
    assert radio.neighbors(5, 0.0) == [3, 9]
    assert radio.neighbors(3, 0.0) == [5, 9]
    for a in (3, 5, 7, 9):
        for b in (3, 5, 7, 9):
            if a != b:
                assert (b in radio.neighbors(a, 0.0)) == (a in radio.neighbors(b, 0.0))


def test_broadcast_receptions_are_one_event_in_receiver_order():
    sched, mob, radio, inbox, tap = build(
        {0: (0, 0), 1: (100, 0), 2: (0, 100), 3: (100, 100)}
    )
    order = []
    kinds = []  # kind of each dispatched event, in dispatch order
    schedule = sched.schedule

    def recording(fire_at, kind, target, fn):
        def dispatch():
            kinds.append(kind)
            fn()
        return schedule(fire_at, kind, target, dispatch)

    sched.schedule = recording

    class OrderTap:
        def on_send(self, frame, t):
            order.append(("send", frame.src, frame.kind))

        def on_delivery(self, frame, node, t):
            order.append(("deliver", node, frame.kind))

        def on_loss(self, frame, reason, t):
            order.append(("loss", frame.src, reason))

    radio.tap = OrderTap()

    def first_receiver(frame):
        if frame.kind == "RREQ":
            radio.transmit(Frame("RREP", 1, 0, 64))
            sched.schedule(sched.now, "probe", "1",
                           lambda: order.append(("same-time event",)))

    radio.register(1, first_receiver)
    radio.transmit(Frame("RREQ", 0, BROADCAST, 64))
    sched.run_until(1.0)
    assert order[:6] == [
        ("send", 0, "RREQ"),
        ("deliver", 1, "RREQ"),
        ("send", 1, "RREP"),
        ("deliver", 2, "RREQ"),
        ("deliver", 3, "RREQ"),
        ("same-time event",),
    ]
    assert order[6:] == [("deliver", 0, "RREP")]
    assert kinds == ["rx", "probe", "rx"]


def test_late_registration_joins_neighbour_lists():
    sched, mob, radio, inbox, tap = build({0: (0, 0), 1: (100, 0)})
    assert radio.neighbors(0, 0.0) == [1]
    mob.add_node(2, 0, 100)
    radio.register(2, lambda f: None)
    assert radio.neighbors(0, 0.0) == [1, 2]
    assert radio.neighbors(2, 0.0) == [0, 1]


# multiples of 50 m put many pairs exactly 250 m apart, on an axis or as
# a 150-200-250 triangle, so the closed-disk boundary is hit exactly
GRID_POINT = st.builds(lambda i, j: (50.0 * i, 50.0 * j),
                       st.integers(0, 16), st.integers(0, 10))


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_neighbors_match_brute_force_range_checks(data):
    positions = data.draw(st.dictionaries(
        st.integers(0, 11), GRID_POINT, min_size=2, max_size=8))
    sched, mob, radio, inbox, tap = build(positions)
    ids = sorted(positions)
    times = [0.0]

    def check(t):
        for n in ids:
            expected = [o for o in ids if o != n and radio.in_range(n, o, t)]
            assert radio.neighbors(n, t) == expected, (n, t)

    for _ in range(data.draw(st.integers(1, 6))):
        if data.draw(st.booleans()):
            node = data.draw(st.sampled_from(ids))
            legs = mob.legs(node)
            start = (legs[-1].arrival_t if legs else 0.0) + data.draw(
                st.sampled_from([0.0, 0.5, 2.0]))
            speed = data.draw(st.sampled_from([25.0, 50.0, 125.0]))
            times += [start, mob.set_motion(node, data.draw(GRID_POINT), speed, start)]
        # the newest times first, then back towards zero
        for t in sorted(set(times), reverse=True):
            check(t)
        check(data.draw(st.floats(0.0, max(times) + 5.0)))


def test_link_break_never_for_stationary_pair_in_range():
    sched, mob, radio, inbox, tap = build({0: (0, 0), 1: (100, 0)})
    assert radio.link_break_time(0, 1, 0.0) == math.inf


def test_link_break_exactly_on_boundary_is_still_in_range():
    sched, mob, radio, inbox, tap = build({0: (0, 0), 1: (250, 0)})
    assert radio.link_break_time(0, 1, 0.0) == math.inf


def test_link_break_returns_from_t_when_already_out():
    sched, mob, radio, inbox, tap = build({0: (0, 0), 1: (500, 0)})
    assert radio.link_break_time(0, 1, 3.5) == 3.5


def test_link_break_single_leg_crossing():
    sched, mob, radio, inbox, tap = build({0: (0, 0), 1: (0, 0)})
    mob.set_motion(1, (600, 0), 100.0, 0.0)
    # distance 100*t crosses 250 at t = 2.5
    assert radio.link_break_time(0, 1, 0.0) == pytest.approx(2.5, abs=1e-12)
    assert radio.link_break_time(0, 1, 3.0) == 3.0


def test_link_break_never_for_a_moving_pair_under_a_huge_range():
    # the range squared overflows a float; the link must never break
    sched, mob, radio, inbox, tap = build({0: (0, 0), 1: (100, 0)},
                                          RadioConfig(radio_range=1e200))
    mob.set_motion(1, (600, 0), 50.0, 0.0)
    assert radio.link_break_time(0, 1, 0.0) == math.inf


def test_link_break_approaching_node_never_breaks():
    sched, mob, radio, inbox, tap = build({0: (0, 0), 1: (200, 0)})
    mob.set_motion(1, (10, 0), 50.0, 0.0)
    assert radio.link_break_time(0, 1, 0.0) == math.inf


def test_link_break_two_departing_vehicles_closed_form():
    # One node hops 150 m north in two seconds and parks; the other
    # drives east at 12.97 m/s from the parking spot. They sit 25.94 m
    # apart when the first parks, then separate at 12.97 m/s.
    sched, mob, radio, inbox, tap = build({0: (140, 300), 15: (140, 450)})
    mob.set_motion(0, (140, 450), 75.0, 10.0)
    mob.set_motion(15, (2788, 450), 12.97, 10.0)
    expected = 12.0 + (250.0 - 25.94) / 12.97
    got = radio.link_break_time(0, 15, 0.0)
    assert got == pytest.approx(expected, rel=1e-9)
    assert abs(got - 29.73) < 3.0
    assert radio.link_break_time(0, 15, 12.0) == pytest.approx(expected, rel=1e-9)
    # after the break the pair never reconnects
    assert radio.link_break_time(0, 15, got + 0.001) == got + 0.001


def test_link_break_found_in_later_leg():
    sched, mob, radio, inbox, tap = build({0: (0, 0), 1: (100, 0)})
    # wanders within range first, then leaves
    t1 = mob.set_motion(1, (200, 0), 100.0, 0.0)
    t2 = mob.set_motion(1, (200, 100), 100.0, t1)
    mob.set_motion(1, (1000, 100), 100.0, t2)
    got = radio.link_break_time(0, 1, 0.0)
    # leg 3 starts at (200, 100), distance sqrt(200^2 + 100^2) = 223.6
    # moving east at 100 m/s: (x)^2 + 100^2 = 250^2 at x = 229.13
    expected = t2 + (math.sqrt(250.0**2 - 100.0**2) - 200.0) / 100.0
    assert got == pytest.approx(expected, rel=1e-9)


def test_link_break_on_boundary_moving_tangentially_is_immediate():
    # exactly at range with zero radial speed, the distance only grows
    sched, mob, radio, inbox, tap = build({0: (0, 0), 1: (250, 0)})
    mob.set_motion(1, (250, 200), 10.0, 0.0)
    assert radio.link_break_time(0, 1, 0.0) == 0.0
    assert not radio.in_range(0, 1, 0.001)


# legs that park exactly 250 m from node 0; on the second the float root
# of the crossing falls just short of the arrival
@pytest.mark.parametrize("start", [(0, 200), (0, 100)])
def test_link_break_never_for_leg_that_parks_on_the_boundary(start):
    sched, mob, radio, inbox, tap = build({0: (0, 0), 1: start})
    mob.set_motion(1, (150, 200), 10.0, 0.0)
    assert radio.link_break_time(0, 1, 0.0) == math.inf


# pairs within one rounding step of the edge, where the squared distance
# and math.dist disagree; link_break_time must side with in_range
EDGE_IN = ((867.9155032407795, 1538.3647823201336),
           (625.4692513363111, 1477.3744967209082))
EDGE_OUT = ((76.51935478523075, 464.9637286152734),
            (275.157948742037, 313.16547766730275))


@pytest.mark.parametrize("pair, in_range", [(EDGE_IN, True), (EDGE_OUT, False)],
                         ids=["in-by-a-rounding-step", "out-by-a-rounding-step"])
def test_link_break_sides_with_in_range_for_parked_edge_pair(pair, in_range):
    sched, mob, radio, inbox, tap = build(dict(enumerate(pair)))
    assert radio.in_range(0, 1, 0.0) is in_range
    assert radio.link_break_time(0, 1, 2.0) == (math.inf if in_range else 2.0)


# node 1 of EDGE_IN drives 100 m at 1 m/s: away from node 0 (along) or
# turned left of that (left). Moving apart, the exit root rounds to just
# below 0; tangentially, the discriminant does. Either way it leaves now.
@pytest.mark.parametrize("along, left, leaves", [
    (1.0, 0.0, True), (0.0, 1.0, True), (-1.0, 0.0, False),
], ids=["apart", "tangential", "closer"])
def test_link_break_for_edge_pair_when_one_node_drives_off(along, left, leaves):
    (ax, ay), (bx, by) = EDGE_IN
    d = math.dist(*EDGE_IN)
    ux, uy = (bx - ax) / d, (by - ay) / d
    sched, mob, radio, inbox, tap = build(dict(enumerate(EDGE_IN)))
    mob.set_motion(1, (bx + 100 * (along * ux - left * uy),
                       by + 100 * (along * uy + left * ux)), 1.0, 0.0)
    t_break = radio.link_break_time(0, 1, 0.0)
    if leaves:
        assert t_break < 1e-9 and not radio.in_range(0, 1, 1e-6)
    else:
        assert t_break == math.inf


# two nodes drive to (600, 0) at 10 m/s from 250 m apart; their legs
# differ in length, so their positions round apart between leg ends
def test_pair_driving_together_on_the_edge_stays_in_range():
    sched, mob, radio, inbox, tap = build({0: (0.0, 0.0), 1: (250.0, 0.0)})
    for node in (0, 1):
        mob.set_motion(node, (600.0, 0.0), 10.0, 3.0)
    samples = [3.0 + i * 0.034 for i in range(1100)]
    assert any(math.dist(mob.position_at(0, t), mob.position_at(1, t)) > 250.0
               for t in samples)
    assert all(radio.in_range(0, 1, t) for t in samples)
    assert all(radio.neighbors(0, t) == [1] for t in samples)
    assert radio.link_break_time(0, 1, 34.0) == math.inf


def check_break_against_sampling(spots, plans, from_share):
    """link_break_time agrees with in_range sampled densely over the plans."""
    sched, mob, radio, inbox, tap = build(dict(enumerate(spots)))
    for node, plan in enumerate(plans):
        t = 0.0
        for pause, x, y, speed in plan:
            t = mob.set_motion(node, (x, y), speed, t + pause)
    # past the last arrival both nodes are parked, so nothing changes
    end = max([leg.arrival_t for n in (0, 1) for leg in mob.legs(n)],
              default=0.0) + 5.0
    from_t = from_share * end
    t_break = radio.link_break_time(0, 1, from_t)
    assert t_break >= from_t
    # in range at every sample before the break, on a grid over the whole
    # span and just before the break, and apart a moment after it
    span = end - from_t
    samples = ([from_t + span * i / 1000 for i in range(1000)]
               + [t_break - span * 1e-6 * i for i in range(1, 11)])
    # the spans of constant velocities link_break_time solves one by one
    starts = sorted({from_t, *mob.motion_breakpoints(0, from_t, math.inf),
                     *mob.motion_breakpoints(1, from_t, math.inf)})

    def distance(t):
        return math.dist(mob.position_at(0, t), mob.position_at(1, t))

    def in_range_as_solved(t):
        """in_range at t, except that a sample with no relative motion is
        judged at its span's start, which link_break_time reads: between
        leg ends, interpolated positions may round the distance a step
        off it, as for a pair driving in parallel on the edge."""
        if radio.in_range(0, 1, t):
            return True
        start = starts[bisect.bisect_right(starts, t) - 1]
        if mob.velocity_at(0, start) != mob.velocity_at(1, start):
            return False
        assert abs(distance(t) - distance(start)) <= 4 * math.ulp(distance(start))
        return radio.in_range(0, 1, start)

    assert all(in_range_as_solved(t) for t in samples if from_t <= t < t_break)
    if t_break != math.inf:
        assert not radio.in_range(0, 1, t_break + 1e-3)


# a random leg: the pause before it, its destination and its speed
LEG = st.tuples(st.sampled_from([0.0, 0.5, 3.0]), st.floats(0.0, 600.0),
                st.floats(0.0, 400.0), st.floats(1.0, 40.0))
SPOT = st.tuples(st.floats(0.0, 600.0), st.floats(0.0, 400.0))


@settings(max_examples=150, deadline=None)
@given(spots=st.tuples(SPOT, SPOT),
       plans=st.tuples(st.lists(LEG, max_size=3), st.lists(LEG, max_size=3)),
       from_share=st.floats(0.0, 1.0))
def test_link_break_time_agrees_with_dense_sampling(spots, plans, from_share):
    check_break_against_sampling(spots, plans, from_share)


# the same draw on a 50 m lattice, where legs start, end and pass exactly
# 250 m apart, so pairs sit on the range boundary
LATTICE_X = st.integers(0, 12).map(lambda i: 50.0 * i)
LATTICE_Y = st.integers(0, 8).map(lambda i: 50.0 * i)
LATTICE_LEG = st.tuples(st.sampled_from([0.0, 0.5, 3.0]), LATTICE_X,
                        LATTICE_Y, st.sampled_from([5.0, 10.0, 20.0]))
LATTICE_SPOT = st.tuples(LATTICE_X, LATTICE_Y)


@settings(max_examples=300, deadline=None)
@given(spots=st.tuples(LATTICE_SPOT, LATTICE_SPOT),
       plans=st.tuples(st.lists(LATTICE_LEG, max_size=3),
                       st.lists(LATTICE_LEG, max_size=3)),
       from_share=st.sampled_from([0.0, 0.25, 0.5]))
# pairs moving in parallel exactly 250 m apart, whose sampled distance
# rounds to 250.00000000000003 m between leg ends
@example(spots=((0.0, 0.0), (250.0, 0.0)),
         plans=([(0.0, 50.0, 0.0, 5.0)], [(0.0, 300.0, 0.0, 5.0)]),
         from_share=0.0)
@example(spots=((50.0, 0.0), (300.0, 0.0)),
         plans=([(0.0, 0.0, 0.0, 10.0)], [(0.0, 0.0, 0.0, 10.0)]),
         from_share=0.0)
@example(spots=((0.0, 0.0), (250.0, 0.0)),
         plans=([(3.0, 600.0, 0.0, 10.0)], [(3.0, 600.0, 0.0, 10.0)]),
         from_share=0.5)
def test_link_break_time_agrees_with_dense_sampling_on_a_lattice(
        spots, plans, from_share):
    check_break_against_sampling(spots, plans, from_share)


# two nodes exactly 250 m apart that drive the same way at one speed,
# on legs of different lengths; the sampled distance rounds either side
# of 250 m, and parallel legs of different lengths may get velocities a
# rounding step apart
EDGE_OFFSETS = [(250, 0), (0, 250), (150, 200), (200, 150), (-150, 200),
                (-200, 150), (-250, 0), (0, -250), (150, -200), (-200, -150)]


@st.composite
def pairs_driving_together(draw):
    ox, oy = draw(st.sampled_from(EDGE_OFFSETS))
    dx, dy = draw(st.integers(-4, 4)), draw(st.integers(-3, 3))
    assume((dx, dy) != (0, 0))
    k0, k1 = draw(st.integers(1, 2)), draw(st.integers(1, 2))
    # the four points relative to node 0's spot, placed to fit the field
    rel = [(0, 0), (ox, oy), (50 * dx * k0, 50 * dy * k0),
           (ox + 50 * dx * k1, oy + 50 * dy * k1)]
    xs, ys = [x for x, _ in rel], [y for _, y in rel]
    assume(max(xs) - min(xs) <= 600 and max(ys) - min(ys) <= 400)
    x0 = 50.0 * draw(st.integers(-min(xs) // 50, (600 - max(xs)) // 50))
    y0 = 50.0 * draw(st.integers(-min(ys) // 50, (400 - max(ys)) // 50))
    spots = ((x0, y0), (x0 + ox, y0 + oy))
    pause = draw(st.sampled_from([0.0, 0.5, 3.0]))
    speed = draw(st.sampled_from([5.0, 10.0, 20.0]))
    plans = ([(pause, x0 + rel[2][0], y0 + rel[2][1], speed)],
             [(pause, x0 + rel[3][0], y0 + rel[3][1], speed)])
    return spots, plans


@settings(max_examples=150, deadline=None)
@given(pair=pairs_driving_together(), from_share=st.sampled_from([0.0, 0.25, 0.5]))
@example(pair=(((100.0, 100.0), (250.0, 300.0)),
               ([(0.0, 550.0, 400.0, 5.0)], [(0.0, 400.0, 400.0, 5.0)])),
         from_share=0.0)
@example(pair=(((250.0, 250.0), (0.0, 250.0)),
               ([(3.0, 550.0, 400.0, 5.0)], [(3.0, 100.0, 300.0, 5.0)])),
         from_share=0.25)
def test_link_break_time_agrees_with_dense_sampling_for_pairs_driving_together(
        pair, from_share):
    check_break_against_sampling(*pair, from_share)
