"""Motion plan math: positions, arrivals, validation, waypoint draws."""

import math
import random

import pytest

from vanetsim.mobility import FieldConfig, MobilityError, MobilityModel


def make_model(**kwargs):
    m = MobilityModel(FieldConfig(**kwargs)) if kwargs else MobilityModel()
    return m


def test_stationary_node_position_is_constant():
    m = make_model()
    m.add_node(7, 550.0, 290.0)
    for t in (0.0, 1.5, 600.0):
        assert m.position_at(7, t) == (550.0, 290.0)


def test_leg_arrival_time_is_distance_over_speed():
    m = make_model()
    m.add_node(0, 140.0, 300.0)
    arrival = m.set_motion(0, (140.0, 450.0), 75.0, 10.0)
    assert abs(arrival - 12.0) < 1e-12


def test_position_interpolates_linearly_along_leg():
    m = make_model()
    m.add_node(0, 140.0, 300.0)
    m.set_motion(0, (140.0, 450.0), 75.0, 10.0)
    assert m.position_at(0, 9.0) == (140.0, 300.0)
    assert m.position_at(0, 11.0) == (140.0, 375.0)
    assert m.position_at(0, 12.0) == (140.0, 450.0)
    assert m.position_at(0, 500.0) == (140.0, 450.0)


def test_constant_speed_displacement_example():
    m = make_model()
    m.add_node(15, 140.0, 450.0)
    m.set_motion(15, (2788.0, 450.0), 12.97, 10.0)
    x, y = m.position_at(15, 12.0)
    assert abs(x - 140.0 - 25.94) < 1e-9
    assert y == 450.0


def test_past_and_future_queries_are_both_answerable():
    m = make_model()
    m.add_node(1, 345.0, 270.0)
    arrival = m.set_motion(1, (345.0, 900.0), 10.0, 5.0)
    m.set_motion(1, (345.0, 270.0), 10.0, arrival + 2.0)
    assert m.position_at(1, 0.0) == (345.0, 270.0)
    assert m.position_at(1, arrival + 1.0) == (345.0, 900.0)
    late = m.position_at(1, arrival + 2.0 + 63.0)
    assert late == (345.0, 270.0)


def test_node_settles_at_its_last_destination():
    m = make_model()
    m.add_node(0, 0.0, 0.0)
    m.add_node(1, 10.0, 10.0)
    assert m.moving_at(0.0) == ()
    arrival = m.set_motion(0, (100.0, 0.0), 10.0, 5.0)
    # a planned leg counts as moving from before it starts until arrival
    assert m.moving_at(0.0) == (0,)
    assert m.moving_at(arrival) == (0,)
    assert m.moving_at(arrival + 1e-9) == ()
    assert m.position_at(0, 5.0) == (0.0, 0.0)
    assert m.position_at(0, arrival + 1e-9) == (100.0, 0.0)
    assert m.position_at(0, 1e9) == (100.0, 0.0)
    assert m.position_at(1, 1e9) == (10.0, 10.0)


def test_legs_must_not_overlap():
    m = make_model()
    m.add_node(1, 100.0, 100.0)
    m.set_motion(1, (200.0, 100.0), 10.0, 0.0)
    with pytest.raises(MobilityError):
        m.set_motion(1, (300.0, 100.0), 10.0, 5.0)


def test_zero_length_leg_arrives_at_start():
    m = make_model()
    m.add_node(1, 100.0, 100.0)
    arrival = m.set_motion(1, (100.0, 100.0), 5.0, 3.0)
    assert arrival == 3.0


def test_speed_and_field_validation():
    m = make_model()
    m.add_node(1, 100.0, 100.0)
    with pytest.raises(MobilityError):
        m.set_motion(1, (200.0, 100.0), 0.0, 0.0)
    with pytest.raises(MobilityError):
        m.set_motion(1, (200.0, 100.0), -3.0, 0.0)
    with pytest.raises(MobilityError):
        m.set_motion(1, (5000.0, 100.0), 10.0, 0.0)
    with pytest.raises(MobilityError):
        m.add_node(2, -1.0, 0.0)
    with pytest.raises(MobilityError):
        m.position_at(99, 0.0)


def test_velocity_reports_leg_direction_and_zero_when_parked():
    m = make_model()
    m.add_node(1, 0.0, 0.0)
    m.set_motion(1, (300.0, 400.0), 10.0, 0.0)
    vx, vy = m.velocity_at(1, 10.0)
    assert abs(vx - 6.0) < 1e-12
    assert abs(vy - 8.0) < 1e-12
    assert m.velocity_at(1, 100.0) == (0.0, 0.0)


def test_velocity_since_is_the_last_leg_edge():
    m = make_model()
    m.add_node(1, 0.0, 0.0)
    a1 = m.set_motion(1, (100.0, 0.0), 10.0, 2.0)
    m.set_motion(1, (0.0, 0.0), 10.0, a1 + 1.0)
    got = [m.velocity_since(1, t) for t in (0.0, 2.0, 5.0, 12.0, 12.5, 13.0, 20.0, 99.0)]
    assert got == [-math.inf, 2.0, 2.0, 12.0, 12.0, 13.0, 13.0, 23.0]


def test_motion_breakpoints_lists_leg_edges_within_range():
    m = make_model()
    m.add_node(1, 0.0, 0.0)
    a1 = m.set_motion(1, (100.0, 0.0), 10.0, 2.0)
    m.set_motion(1, (0.0, 0.0), 10.0, a1 + 1.0)
    pts = m.motion_breakpoints(1, 0.0, 1000.0)
    assert pts == [2.0, 12.0, 13.0, 23.0]
    assert m.motion_breakpoints(1, 12.0, 13.0) == []


def test_random_waypoint_draw_order_and_determinism():
    m = make_model()
    m.add_node(1, 0.0, 0.0)
    a = random.Random(42)
    b = random.Random(42)
    seq_a = [m.random_waypoint_next(a, 1.0, 5.0) for _ in range(20)]
    seq_b = [m.random_waypoint_next(b, 1.0, 5.0) for _ in range(20)]
    assert seq_a == seq_b
    # draw order is x, y, speed: reproduce by hand
    c = random.Random(42)
    x = c.uniform(0.0, m.field.width)
    y = c.uniform(0.0, m.field.height)
    s = c.uniform(1.0, 5.0)
    assert seq_a[0] == ((x, y), s)


def test_random_waypoint_degenerate_speed_range():
    m = make_model()
    rng = random.Random(7)
    for _ in range(10):
        (_, _), speed = m.random_waypoint_next(rng, 5.0, 5.0)
        assert speed == 5.0


def test_random_waypoint_destinations_cover_the_field():
    m = make_model(width=1000.0, height=400.0)
    rng = random.Random(3)
    xs = []
    ys = []
    for _ in range(10000):
        (x, y), speed = m.random_waypoint_next(rng, 0.5, 2.0)
        assert 0.0 <= x <= 1000.0 and 0.0 <= y <= 400.0
        assert 0.5 <= speed <= 2.0
        xs.append(x)
        ys.append(y)
    assert abs(sum(xs) / len(xs) - 500.0) < 10.0
    assert abs(sum(ys) / len(ys) - 200.0) < 4.0
