"""Scenario configs: builtins, the document format, runs, and comparison."""

import csv
import dataclasses
import json
import math
import os
import re
from importlib import resources
from pathlib import Path

import pytest

from vanetsim import metrics, scenario, tracewriter
from vanetsim.aodv import AodvAgent, AodvConfig
from vanetsim.dsdv import DsdvConfig
from vanetsim.metrics import (TRACE_BLOCK_LINES, FlowStats, KeptTrace,
                              MetricsLedger)
from vanetsim.mobility import FieldConfig
from vanetsim.radio import RadioConfig
from vanetsim.rules import Config, FieldError, check_file_name, check_string
from vanetsim.scenario import (
    BUILTIN_SCENARIOS,
    ConfigError,
    RandomWaypoint,
    ScenarioConfig,
    build_simulation,
    builtin_scenario,
    compare,
    format_comparison,
    format_report,
    load_config,
    random_waypoint_document,
    run,
    serialize_config,
)
from vanetsim.simulation import Motion, Simulation
from vanetsim.tracewriter import (TraceFile, TraceWriter, format_block,
                                  parse_trace, write_series)
from vanetsim.transport import FlowConfig

MINI_DOC = {
    "name": "mini",
    "protocol": "AODV",
    "duration": 6,
    "seed": 7,
    "field": [1000, 600],
    "placements": [[0, [100, 300]], [1, [300, 300]], [2, [500, 300]]],
    "flows": [{"flow": "f0", "src": 0, "sink": 2, "start_t": 0.5,
               "send_interval": 0.2, "max_packets": 5}],
}


def mini_config(**overrides):
    doc = dict(MINI_DOC)
    doc.update(overrides)
    return load_config(json.dumps(doc))


# -- builtin scenarios -----------------------------------------------------

def test_grid_has_hundred_nodes_on_known_columns():
    nodes = builtin_scenario("long-distance", "AODV").placements
    assert set(nodes) == set(range(100))
    assert nodes[0] == (140.0, 300.0)
    assert nodes[1] == (345.0, 270.0)
    assert nodes[2] == (550.0, 290.0)
    assert nodes[15] == (140.0, 450.0)
    assert nodes[92] == (550.0, 1130.0)
    assert nodes[94] == (960.0, 1340.0)
    # columns 0-9 carry seven rows, columns 10-14 six
    assert 14 + 15 * 6 not in nodes
    assert 9 + 15 * 6 in nodes


def test_builtins_are_their_packaged_documents():
    """A builtin is its shipped document, loaded like any other, with the
    protocol replaced; the two differ only in their motions, primary flow
    and DSDV update interval."""
    package = resources.files("vanetsim")
    loaded = {}
    for name in BUILTIN_SCENARIOS:
        loaded[name] = load_config(package.joinpath(f"{name}.json").read_text())
        assert loaded[name].name == name
        for protocol in ("AODV", "DSDV"):
            assert builtin_scenario(name, protocol) == dataclasses.replace(
                loaded[name], protocol=protocol)
    long_haul, short = loaded["long-distance"], loaded["short-distance"]
    assert dataclasses.replace(
        short, name=long_haul.name, motions=long_haul.motions,
        primary_flow=long_haul.primary_flow,
        protocol_params=long_haul.protocol_params) == long_haul
    assert [c.protocol_params["dsdv"].update_interval
            for c in (long_haul, short)] == [40.0, 15.0]


def test_builtin_pair_differs_only_in_protocol():
    for name in BUILTIN_SCENARIOS:
        aodv = builtin_scenario(name, "AODV")
        dsdv = builtin_scenario(name, "DSDV")
        assert dataclasses.replace(aodv, protocol="DSDV") == dsdv


def test_builtin_motion_scripts():
    long_haul = builtin_scenario("long-distance", "AODV")
    assert Motion(0, 10.0, (140.0, 450.0), 75.0) in long_haul.motions
    assert Motion(15, 10.0, (2788.0, 450.0), 12.97) in long_haul.motions

    short = builtin_scenario("short-distance", "DSDV")
    legs = short.motions
    assert [m.node for m in legs] == [1, 1, 1, 1]
    assert legs[0] == Motion(1, 10.0, (418.73, 5.0), 12.66)
    # each leg starts exactly when the previous one arrives
    origin = (345.0, 270.0)
    for prev, nxt in zip(legs, legs[1:]):
        assert nxt.start_t == prev.start_t + math.dist(origin, prev.dest) / prev.speed
        origin = prev.dest


def test_builtin_flows_and_primary():
    for name in BUILTIN_SCENARIOS:
        config = builtin_scenario(name, "AODV")
        assert [f.flow for f in config.flows] == ["f0", "f1", "f2", "f3", "f4"]
        assert all(f.data_packet_size == 512 for f in config.flows)
    assert builtin_scenario("long-distance", "AODV").primary_flow == "f0"
    assert builtin_scenario("short-distance", "AODV").primary_flow == "f1"


def test_primary_flow_is_a_builtin_name_only_if_the_config_has_that_flow():
    """A document's name chooses nothing: one named like a builtin, without
    a primary_flow key, takes its first flow."""
    custom = mini_config(name="long-distance",
                         flows=[dict(MINI_DOC["flows"][0], flow="x")])
    assert custom.primary_flow == "x"
    aodv = run(custom)
    dsdv = run(dataclasses.replace(custom, protocol="DSDV"))
    assert aodv.config.primary_flow == "x"
    assert compare(aodv, dsdv)["primary_flow"] == "x"


def test_primary_flow_names_a_flow_of_the_document():
    flows = MINI_DOC["flows"] + [{"flow": "f1", "src": 2, "sink": 0,
                                  "max_packets": 5}]
    assert mini_config(flows=flows).primary_flow == "f0"
    config = mini_config(flows=flows, primary_flow="f1")
    assert config.primary_flow == "f1"
    assert json.loads(serialize_config(config))["primary_flow"] == "f1"
    assert run(config).config is config
    for bad in ("x", 1, None, ["f1"]):
        with pytest.raises(ConfigError) as e:
            mini_config(flows=flows, primary_flow=bad)
        assert str(e.value) == f"primary_flow: unknown flow {bad!r}"
    with pytest.raises(ConfigError, match="primary_flow: unknown flow 'f1'"):
        dataclasses.replace(config, flows=config.flows[:1])


def test_builtin_rejects_unknown_names():
    with pytest.raises(ConfigError):
        builtin_scenario("medium-distance", "AODV")
    with pytest.raises(ConfigError):
        builtin_scenario("long-distance", "OLSR")


# -- scenario documents ----------------------------------------------------

def test_minimal_document_fills_defaults():
    config = mini_config()
    assert config.protocol == "AODV"
    assert config.duration == 6.0
    assert config.radio.radio_range == 250.0
    assert config.background_mobility is None
    assert config.protocol_params == {"aodv": AodvConfig(), "dsdv": DsdvConfig()}
    assert config.flows[0].max_packets == 5
    assert config.flows[0].ack_size == 210


def test_round_trip_preserves_config():
    for name in BUILTIN_SCENARIOS:
        config = builtin_scenario(name, "DSDV")
        assert load_config(serialize_config(config)) == config
    custom = mini_config(
        motions=[[1, 2.0, [400, 300], 5.0]],
        background_mobility={"kind": "random-waypoint",
                             "v_min": 1.0, "v_max": 3.0, "pause": 2.0},
    )
    assert load_config(serialize_config(custom)) == custom


def test_build_simulation_hands_over_the_configs_own_objects():
    """Nothing is rebuilt between the document and the run: the simulation
    holds the config itself, and every agent the config's protocol config."""
    doc = random_waypoint_document(5, 6, 2, 20.0, pause=2.0)
    for protocol in ("AODV", "DSDV"):
        config = dataclasses.replace(load_config(doc), protocol=protocol)
        sim = build_simulation(config)
        assert sim.config is config
        params = config.protocol_params[protocol.lower()]
        assert all(agent.config is params for agent in sim.agents.values())


def test_build_simulation_runs_on_the_configs_own_field():
    builtin, loaded = builtin_scenario("long-distance", "AODV"), mini_config()
    assert (builtin.field, loaded.field) == (FieldConfig(3000.0, 1600.0),
                                             FieldConfig(1000.0, 600.0))
    for config in (builtin, loaded):
        assert build_simulation(config).mobility.field is config.field


def test_out_of_field_errors_print_the_field_as_width_and_height():
    with pytest.raises(ConfigError) as placed:
        mini_config(placements=[[0, [100, 300]], [1, [1000, 700]]])
    assert str(placed.value) == ("placements[1]: position (1000.0, 700.0) "
                                 "outside field (1000.0, 600.0)")
    with pytest.raises(ConfigError) as moved:
        mini_config(motions=[[1, 2.0, [1001, 300], 5.0]])
    assert str(moved.value) == ("motions[0][2]: destination (1001.0, 300.0) "
                                "outside field (1000.0, 600.0)")


# rows of DOCUMENT_ERRORS whose rule spans config fields
CROSS_FIELD_ERRORS = []


def cross_field(overrides, needle):
    CROSS_FIELD_ERRORS.append((overrides, needle))
    return overrides, needle


DOCUMENT_ERRORS = [
    cross_field({"protocol": "OSPF"}, "protocol"),
    ({"seed": "one"}, "seed"),
    ({"field": [100]}, "field"),
    ({"placements": []}, "placements"),
    ({"placements": [[0, [100, 300]], [0, [101, 300]],
                     [2, [500, 300]]]}, "placements[1]"),
    cross_field({"placements": [[0, [100, 300]], [1, [2000, 300]],
                                [2, [500, 300]]]}, "placements[1]"),
    ({"nodes": 4}, "nodes"),
    cross_field({"motions": [[9, 1.0, [100, 100], 2.0]]}, "motions[0]"),
    ({"flows": []}, "flows"),
    ({"flows": [{"flow": "f0", "src": 0}]}, "sink"),
    cross_field({"flows": [{"flow": "f0", "src": 0, "sink": 9}]}, "f0"),
    ({"flows": [{"flow": "f0", "src": 0, "sink": 2,
                 "send_interval": 0}]}, "flows[0]"),
    ({"background_mobility": {"kind": "brownian"}}, "kind"),
    ({"protocol": 5}, "protocol"),
    ({"protocol_params": {"aodv": {"bogus": 1}}},
     "protocol_params.aodv.bogus: unknown parameter"),
    ({"protocol_params": {"aodv": [1, 2]}}, "protocol_params.aodv:"),
    ({"protocol_params": {"dsdv": {"update_interval": "x"}}},
     "protocol_params.dsdv.update_interval:"),
    ({"protocol_params": {"dsdv": {"update_interval": 0}}},
     "protocol_params.dsdv.update_interval: expected a positive number, got 0"),
    ({"protocol_params": {"aodv": {"ttl": 2.5}}}, "protocol_params.aodv.ttl:"),
    ({"protocol_params": {"olsr": {}}}, "protocol_params.olsr:"),
    ({"duration": -5}, "duration: expected a positive number"),
    ({"duration": 0}, "duration:"),
    ({"duration": "long"}, "duration: expected a number"),
    ({"field": ["x", 5]}, "field[0]: expected a number, got 'x'"),
    ({"placements": [[0, [100, 300]], [1, ["a", 300]],
                     [2, [500, 300]]]}, "placements[1][1][0]:"),
    ({"placements": [[0, [100, 300]], [1, [300, None]],
                     [2, [500, 300]]]}, "placements[1][1][1]:"),
    ({"motions": [[1, "soon", [400, 300], 5.0]]}, "motions[0][1]:"),
    ({"motions": [[1, -1.0, [400, 300], 5.0]]}, "motions[0][1]:"),
    ({"motions": [[1, 2.0, [400, "y"], 5.0]]}, "motions[0][2][1]:"),
    ({"motions": [[1, 2.0, [400, 300], 0]]},
     "motions[0][3]: expected a positive number, got 0"),
    ({"motions": [[1, 2.0, [400, 300], "fast"]]}, "motions[0][3]:"),
    cross_field({"motions": [[1, 2.0, [400, 300], 5.0], [2, 1.0, [5000, 300], 5.0]]},
                "motions[1][2]: destination"),
    ({"motions": [[[1], 2.0, [400, 300], 5.0]]},
     "motions[0][0]: expected a non-negative int, got [1]"),
    ({"flows": [{"flow": "f0", "src": [0], "sink": 2}]}, "flows[0].src:"),
    ({"flows": [{"flow": "f0", "src": 0, "sink": 2.0}]}, "flows[0].sink:"),
    ({"flows": [{"flow": "f0", "src": 0, "sink": True}]}, "flows[0].sink:"),
    ({"flows": [{"flow": ["f0"], "src": 0, "sink": 2}]},
     "flows[0].flow: expected a string"),
    ({"flows": [{"flow": 3, "src": 0, "sink": 2}]}, "flows[0].flow:"),
    ({"radio": {"bandwidth": 0}}, "radio.bandwidth: expected a positive"),
    ({"radio": {"bandwidth": float("inf")}}, "radio.bandwidth:"),
    ({"radio": {"bandwidth": "fast"}}, "radio.bandwidth: expected a number"),
    ({"radio": {"range": -5}}, "radio.range: expected a non-negative"),
    ({"radio": {"range": float("nan")}}, "radio.range:"),
    ({"radio": {"per_hop_overhead": -1e-6}}, "radio.per_hop_overhead:"),
    ({"background_mobility": {"kind": "random-waypoint", "v_min": 0,
                              "v_max": 0}},
     "background_mobility.v_min: expected a positive"),
    ({"background_mobility": {"kind": "random-waypoint", "v_min": 1,
                              "v_max": float("inf")}},
     "background_mobility.v_max:"),
    cross_field({"background_mobility": {"kind": "random-waypoint", "v_min": 3,
                                         "v_max": 2}},
                "background_mobility.v_max: expected at least v_min"),
    ({"background_mobility": {"kind": "random-waypoint", "v_min": 1,
                              "v_max": 2, "pause": -1}},
     "background_mobility.pause:"),
    # node 1 reaches (900, 300) at 61 s, so a leg at 2 s overlaps it; the
    # legs are replayed by start time, whatever their document order
    cross_field({"motions": [[1, 1.0, [900, 300], 10.0], [1, 2.0, [300, 300], 10.0]]},
                "motions[1]: node 1: leg at 2.0 overlaps"),
    cross_field({"motions": [[1, 2.0, [300, 300], 10.0], [1, 1.0, [900, 300], 10.0]]},
                "motions[0]: node 1: leg at 2.0 overlaps"),
    cross_field({"motions": [[1, 1.0, [900, 300], 10.0], [2, 1.0, [900, 500], 10.0],
                             [2, 5.0, [100, 100], 10.0]]}, "motions[2]: node 2"),
    # a bool passes isinstance(int), and -1 is the broadcast address
    ({"placements": [[0, [100, 300]], [True, [300, 300]],
                     [2, [500, 300]]]},
     "placements[1][0]: expected a non-negative int, got True"),
    ({"placements": [[0, [100, 300]], [-1, [300, 300]],
                     [2, [500, 300]]]}, "placements[1][0]:"),
    ({"motions": [[True, 1.0, [400, 300], 5.0]]}, "motions[0][0]:"),
    ({"motions": [[-1, 1.0, [400, 300], 5.0]]}, "motions[0][0]:"),
    # a NaN start time or interval used to stall the flow, or every flow
    ({"flows": [{"flow": "f0", "src": 0, "sink": 2, "start_t": math.nan}]},
     "flows[0].start_t: expected a non-negative number"),
    ({"flows": [{"flow": "f0", "src": 0, "sink": 2, "start_t": -1}]},
     "flows[0].start_t:"),
    ({"flows": [{"flow": "f0", "src": 0, "sink": 2, "start_t": math.inf}]},
     "flows[0].start_t:"),
    ({"flows": [{"flow": "f0", "src": 0, "sink": 2,
                 "send_interval": math.nan}]},
     "flows[0].send_interval: expected a positive number"),
    ({"flows": [{"flow": "f0", "src": 0, "sink": 2,
                 "send_interval": math.inf}]}, "flows[0].send_interval:"),
    ({"flows": [{"flow": "f0", "src": 0, "sink": 2,
                 "send_interval": "often"}]}, "flows[0].send_interval:"),
    # sizes and counts are ints, never truncated floats
    ({"flows": [{"flow": "f0", "src": 0, "sink": 2,
                 "data_packet_size": math.inf}]},
     "flows[0].data_packet_size: expected a positive int"),
    ({"flows": [{"flow": "f0", "src": 0, "sink": 2, "max_packets": 1.5}]},
     "flows[0].max_packets: expected a positive int, got 1.5"),
    ({"flows": [{"flow": "f0", "src": 0, "sink": 2, "ack_size": 2.5}]},
     "flows[0].ack_size:"),
    ({"flows": [{"flow": "f0", "src": 0, "sink": 2, "ack_size": True}]},
     "flows[0].ack_size:"),
    ({"flows": [{"flow": "f0", "src": 0, "sink": 2, "max_packets": 0}]},
     "flows[0].max_packets:"),
    ({"flows": [{"flow": "f0", "src": 0, "sink": 2,
                 "data_packet_size": 10**400}]},
     "flows[0].data_packet_size: expected a positive int up to"),
    ({"flows": [{"flow": "f0", "src": 0, "sink": 2, "ack_size": 600}]},
     "flows[0]: flow f0: need data size > ack size"),
    ({"name": ["x"]}, "name: expected a string, got ['x']"),
    ({"name": 5}, "name:"),
    # an int past float range used to end in an OverflowError
    ({"duration": 10**400}, "duration: expected a number, got an int too"),
    ({"radio": {"range": -(10**400)}}, "radio.range: expected a number"),
    # 1.0 + k * 1e-20 stays 1.0, so the ticks never advanced the clock
    cross_field({"flows": [{"flow": "f0", "src": 0, "sink": 2, "start_t": 1.0,
                            "send_interval": 1e-20}]},
                "flows[0].send_interval: 1e-20 would tick more than"),
    # a motions value that is not a list ended in a TypeError
    ({"motions": math.nan}, "motions: expected a list"),
    # a zero-area field made random waypoints re-fire at one instant
    ({"field": [0, 0]}, "field[0]: expected a positive number, got 0"),
    ({"field": [1000, math.inf]}, "field[1]:"),
    # legs shorter than the clock's resolution re-fired at one instant
    cross_field({"background_mobility": {"kind": "random-waypoint", "v_min": 1e300,
                                         "v_max": 1e300}},
                "background_mobility.v_max: 1e+300 with pause 0.0 would start more "
                "than 1000000 legs"),
    # a misspelled key used to be ignored, so the run took the default
    ({"flows": [{"flow": "f0", "src": 0, "sink": 2, "send_intervall": 5.0,
                 "max_packet": 3}]},
     "flows[0].send_intervall: unknown parameter"),
    ({"radio": {"rang": 10}}, "radio.rang: unknown parameter"),
    ({"background_mobility": {"kind": "random-waypoint", "v_min": 1,
                              "v_max": 2, "speed": 3}},
     "background_mobility.speed: unknown parameter"),
    ({"background_mobility": {"kind": "stationary", "speed": 3}},
     "background_mobility.speed: unknown parameter"),
    ({"durration": 5}, "durration: unknown parameter"),
    # updates shorter than the clock's resolution re-fired at one instant
    cross_field({"protocol_params": {"dsdv": {"update_interval": 1e-300}}},
                "protocol_params.dsdv.update_interval: 1e-300 would update more than "
                "1000000 times before duration 6.0"),
    # a protocol parameter whose reply wait is 0 re-flooded at one instant
    ({"protocol_params": {"aodv": {"ttl": 0}}},
     "protocol_params.aodv.ttl: expected a positive int, got 0"),
    ({"protocol_params": {"aodv": {"node_traversal": 0}}},
     "protocol_params.aodv.node_traversal: expected a positive number, got 0"),
    cross_field({"flows": [MINI_DOC["flows"][0], MINI_DOC["flows"][0]]},
                           "flows[1]: duplicate flow name 'f0'"),
    cross_field({"primary_flow": "x"}, "primary_flow: unknown flow 'x'"),
    # a smaller field, or a longer run, breaks a rule of other fields
    cross_field({"field": [400, 600]},
                           "placements[2]: position (500.0, 300.0) outside field"),
    cross_field({"duration": 10**6},
                           "flows[0].send_interval: 0.2 would tick more than 1000000 "
                           "times before duration 1000000.0"),
    # nodes is an int like every other count, not a string, bool or float
    ({"nodes": "3"}, "nodes: expected a non-negative int, got '3'"),
    ({"nodes": True}, "nodes: expected a non-negative int, got True"),
    ({"nodes": 3.0}, "nodes: expected a non-negative int, got 3.0"),
]


@pytest.mark.parametrize("overrides, needle", DOCUMENT_ERRORS)
def test_document_errors_name_the_field(overrides, needle):
    with pytest.raises(ConfigError) as err:
        mini_config(**overrides)
    assert needle in str(err.value)


def config_fields(overrides):
    """Document overrides as the ScenarioConfig field values they load to."""
    fields = dict(overrides)
    for key, value in overrides.items():
        if key == "field":
            fields[key] = FieldConfig(*map(float, value))
        elif key == "placements":
            fields[key] = {node: tuple(map(float, pos)) for node, pos in value}
        elif key == "motions":
            fields[key] = [Motion(node, float(t), tuple(map(float, dest)),
                                  float(speed)) for node, t, dest, speed in value]
        elif key == "flows":
            fields[key] = [FlowConfig(**flow) for flow in value]
        elif key == "background_mobility":
            fields[key] = RandomWaypoint(**{k: float(v) for k, v in value.items()
                                            if k != "kind"})
        elif key == "protocol_params":
            fields[key] = {"aodv": AodvConfig(),
                           "dsdv": DsdvConfig(**value["dsdv"])}
        elif key == "duration":
            fields[key] = float(value)
    return fields


@pytest.mark.parametrize("overrides, needle", CROSS_FIELD_ERRORS)
def test_replace_that_breaks_a_rule_raises_the_document_error(overrides, needle):
    with pytest.raises(ConfigError) as loaded:
        mini_config(**overrides)
    with pytest.raises(ConfigError) as replaced:
        dataclasses.replace(mini_config(), **config_fields(overrides))
    assert needle in str(loaded.value)
    assert str(replaced.value) == str(loaded.value)


def _replace_aodv(config, **changes):
    aodv = dataclasses.replace(config.protocol_params["aodv"], **changes)
    return dataclasses.replace(
        config, protocol_params=dict(config.protocol_params, aodv=aodv))


# configs built by dataclasses.replace that used to run unchecked, fail
# partway, deliver nothing or stall; a seed sweep replaces seed and duration
REPLACE_PROBES = [
    ("seed=-3", lambda c: dataclasses.replace(c, seed=-3), "seed"),
    ("seed=1.5", lambda c: dataclasses.replace(c, seed=1.5), "seed"),
    ("duration=nan", lambda c: dataclasses.replace(c, duration=math.nan), "duration"),
    ("duration=-5", lambda c: dataclasses.replace(c, duration=-5.0), "duration"),
    ("duration=0", lambda c: dataclasses.replace(c, duration=0.0), "duration"),
    ("start_t=-1", lambda c: dataclasses.replace(
        c, flows=[dataclasses.replace(c.flows[0], start_t=-1.0)]), "start_t"),
    ("bandwidth=0", lambda c: dataclasses.replace(
        c, radio=dataclasses.replace(c.radio, bandwidth=0.0)), "bandwidth"),
    ("radio_range=-5", lambda c: dataclasses.replace(
        c, radio=dataclasses.replace(c.radio, radio_range=-5.0)), "radio_range"),
    ("ttl=0", lambda c: _replace_aodv(c, ttl=0, max_retries=10**8), "ttl"),
    # -1 is the broadcast address
    ("placement id", lambda c: dataclasses.replace(
        c, placements={**c.placements, -1: (700.0, 300.0)}), r"placements\[3\]\[0\]"),
    ("placement x", lambda c: dataclasses.replace(
        c, placements={**c.placements, 2: (math.nan, 300.0)}),
     r"placements\[2\]\[1\]\[0\]"),
    ("motion", lambda c: dataclasses.replace(
        c, motions=[Motion(1, -1.0, (400.0, 300.0), 5.0)]), r"motions\[0\]\[1\]"),
]


@pytest.mark.parametrize("make, field", [row[1:] for row in REPLACE_PROBES],
                         ids=[row[0] for row in REPLACE_PROBES])
def test_replace_probes_raise_at_the_replace(make, field):
    """Each probe is rejected when its config is made, naming the field,
    so none of them reaches a run."""
    with pytest.raises(ConfigError, match=rf"^{field}: expected a "):
        make(mini_config())


NESTED_PROBES = [
    ("radio=None", lambda c: {"radio": None}, "radio"),
    ("no dsdv params", lambda c: {"protocol_params": {
        "aodv": c.protocol_params["aodv"]}}, "protocol_params.dsdv"),
    ("DsdvConfig under aodv", lambda c: {"protocol_params": {
        **c.protocol_params, "aodv": DsdvConfig()}}, "protocol_params.aodv"),
    ("3-d placement", lambda c: {"placements": {
        **c.placements, 0: (500.0, 300.0, 7.0)}}, "placements[0][1]"),
    ("field=None", lambda c: {"field": None}, "field"),
    ("flows=None", lambda c: {"flows": None}, "flows"),
    ("flow as a dict", lambda c: {"flows": [
        dataclasses.asdict(c.flows[0])]}, "flows[0]"),
    ("motion as a list", lambda c: {"motions": [
        [1, 1.0, [400.0, 300.0], 5.0]]}, "motions[0]"),
    ("background as a dict", lambda c: {"background_mobility": {
        "v_min": 1.0, "v_max": 2.0}}, "background_mobility"),
]


@pytest.mark.parametrize("changes, path", [row[1:] for row in NESTED_PROBES],
                         ids=[row[0] for row in NESTED_PROBES])
def test_nested_field_of_the_wrong_shape_raises_at_the_replace(changes, path):
    """A nested field built in code is checked for its type and shape when
    the config is made, naming its path, instead of failing in the run."""
    config = builtin_scenario("long-distance", "AODV")
    with pytest.raises(FieldError) as raised:
        dataclasses.replace(config, **changes(config), duration=5.0)
    assert raised.value.path == path


CONFIG_CLASSES = (RadioConfig, AodvConfig, DsdvConfig, FlowConfig, FieldConfig,
                  RandomWaypoint, ScenarioConfig)
# held by ScenarioConfig's rule spanning fields: a flow's name
SPANNING_RULES = {(ScenarioConfig, "primary_flow")}


def test_every_config_field_declares_its_rule():
    """A new int, float or str field of any config cannot skip a rule, and
    the rule agrees with the field's type."""
    assert set(Config.__subclasses__()) == set(CONFIG_CLASSES)
    for cls in CONFIG_CLASSES:
        for f in dataclasses.fields(cls):
            if f.type not in (int, float, str) or (cls, f.name) in SPANNING_RULES:
                continue
            rule = f.metadata["rule"]
            if f.type is str:
                # a file name is a string with a stricter rule
                assert rule.func in (check_string, check_file_name), (cls, f.name)
            else:
                assert rule.keywords.get("integer", False) == (f.type is int), \
                    (cls, f.name)


def test_a_config_built_in_code_meets_its_documents_rule():
    """Direct construction gives the document's text without its path, and
    stores an int given to a number field as the document's float."""
    for build, overrides, path in (
            (lambda: RadioConfig(bandwidth=0), {"radio": {"bandwidth": 0}}, "radio."),
            (lambda: DsdvConfig(update_interval=0),
             {"protocol_params": {"dsdv": {"update_interval": 0}}},
             "protocol_params.dsdv."),
            (lambda: FlowConfig("f0", 0, 2, send_interval=-1),
             {"flows": [{"flow": "f0", "src": 0, "sink": 2, "send_interval": -1}]},
             "flows[0]."),
            (lambda: FlowConfig(3, 0, 2), {"flows": [{"flow": 3, "src": 0, "sink": 2}]},
             "flows[0]."),
            (lambda: RandomWaypoint(0, 1),
             {"background_mobility": {"kind": "random-waypoint", "v_min": 0,
                                      "v_max": 1}}, "background_mobility.")):
        with pytest.raises(ConfigError) as built:
            build()
        with pytest.raises(ConfigError) as loaded:
            mini_config(**overrides)
        assert str(loaded.value) == path + str(built.value)
    with pytest.raises(ConfigError) as err:
        RadioConfig(bandwidth=0)
    assert str(err.value) == "bandwidth: expected a positive number, got 0"
    bandwidth = RadioConfig(bandwidth=10).bandwidth
    assert bandwidth == 10.0 and type(bandwidth) is float
    coded = dataclasses.replace(
        mini_config(), duration=6, radio=RadioConfig(radio_range=100),
        placements={0: (100, 300), 1: (300, 300), 2: (500, 300)})
    assert [type(v) for v in (coded.duration, coded.radio.radio_range,
                              *coded.placements[0])] == [float] * 4
    assert load_config(serialize_config(coded)) == coded
    assert serialize_config(load_config(serialize_config(coded))) == \
        serialize_config(coded)


def test_configs_are_frozen():
    config = mini_config()
    with pytest.raises(dataclasses.FrozenInstanceError):
        config.seed = 8


def test_readme_example_document_loads_and_round_trips():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("## Scenario documents", 1)[1]
    config = load_config(section.split("```json\n", 1)[1].split("```", 1)[0])
    assert config.name == "my-scenario"
    assert load_config(serialize_config(config)) == config


def test_back_to_back_legs_are_accepted():
    # the second leg starts exactly when the first arrives (1 s + 60 s)
    config = mini_config(motions=[[1, 61.0, [300, 300], 10.0],
                                  [1, 1.0, [900, 300], 10.0]])
    assert [m.start_t for m in config.motions] == [61.0, 1.0]


def test_document_must_be_json_object():
    with pytest.raises(ConfigError):
        load_config("not json {")
    with pytest.raises(ConfigError):
        load_config("[1, 2]")


@pytest.mark.parametrize("text", [
    "[" * 200_000,
    '{"a":' * 2_000,
    '{"seed": 1' + "0" * 5_000 + "}",  # past int's 4,300-digit limit
], ids=["deep-array", "deep-object", "long-integer"])
def test_undecodable_document_is_a_config_error(text):
    with pytest.raises(ConfigError, match="^scenario document is not valid JSON: "):
        load_config(text)


# -- running and artifacts -------------------------------------------------

def test_run_writes_complete_artifact_set(tmp_path):
    # f1's sink stands out of everyone's range, so f1 delivers nothing
    config = mini_config(
        placements=MINI_DOC["placements"] + [[3, [900, 300]]],
        flows=MINI_DOC["flows"] + [{"flow": "f1", "src": 0, "sink": 3,
                                    "start_t": 0.5, "max_packets": 2}])
    out = tmp_path / "out"
    report = run(config, out_dir=str(out))

    for rel in report.manifest:
        assert (out / rel).is_file(), rel
    per_flow = {"metrics/f0/throughput.dat", "metrics/f0/jitter.dat",
                "metrics/f0/delay.dat", "metrics/f0/cwnd.dat",
                "metrics/f0/destination_bandwidth.dat"}
    assert per_flow <= {rel.replace("\\", "/") for rel in report.manifest}

    stats = report.flows[0]
    assert stats.delivered == 5
    assert stats.lost == 0
    assert report.flows[1].first_delivery is None
    assert report.paths["f0"][0][1] == (0, 1, 2)

    records = parse_trace((out / "trace.txt").read_text())
    assert {record[2] for record in records if record[0] == "M"} == {0, 1, 2, 3}

    with open(out / "summary.csv", newline="") as fh:
        header, *cells = csv.reader(fh)
    assert header == [f.name for f in dataclasses.fields(FlowStats)][:8]
    assert len(cells) == 2
    for stats, row in zip(report.flows, cells):
        assert len(row) == len(header)
        for name, cell in zip(header, row):
            value = getattr(stats, name)
            if value is None:
                assert cell == "", name
            elif isinstance(value, float):
                assert cell == repr(value), name
            else:
                assert cell == str(value), name
    rows = [dict(zip(header, row)) for row in cells]
    assert rows[0]["flow"] == "f0"
    assert int(rows[0]["delivered"]) == 5
    assert float(rows[0]["sink_bandwidth_bits"]) > 0
    assert rows[1]["first_delivery"] == ""

    text = format_report(report)
    assert "scenario: mini" in text
    assert "flow f0:" in text
    assert (out / "report.txt").read_text() == text

    paths_log = (out / "paths.log").read_text()
    assert "f0 0 1 2" in paths_log


@pytest.mark.parametrize("name, protocol", [("long-distance", "AODV"),
                                            ("short-distance", "DSDV")])
def test_untraced_run_reports_what_a_traced_run_does(tmp_path, name, protocol):
    """run() without an output directory builds no trace, yet returns the
    flows and paths of a run that writes its files, and a simulation
    given no trace sink still counts the sinks' bandwidth."""
    config = dataclasses.replace(builtin_scenario(name, protocol),
                                 duration=60.0)
    untraced = run(config)
    traced = run(config, out_dir=str(tmp_path))
    assert untraced.flows == traced.flows
    assert untraced.paths == traced.paths
    ledger = Simulation(config).run(60.0).ledger
    assert len(ledger.trace_lines) == 0
    for fc, stats in zip(config.flows, untraced.flows):
        assert stats.sink_bandwidth_bits > 0
        assert ledger.cumulative_bandwidth_bits(fc.sink, 60.0) == \
            stats.sink_bandwidth_bits


def test_run_summary_rows_equal_flow_summary():
    """run() builds each flow's series once; its rows match flow_summary."""
    config = dataclasses.replace(
        builtin_scenario("long-distance", "AODV"), duration=40.0)
    window = 2.0
    report = run(config, window=window)
    # same scenario and seed, so a second simulation holds the same ledger
    ledger = build_simulation(config).run(config.duration).ledger
    assert any(stats.max_jitter > 0 for stats in report.flows)
    duration = config.duration
    for fc, stats in zip(config.flows, report.flows):
        expected = ledger.flow_summary(
            fc.flow, fc.sink, duration,
            ledger.throughput_series(fc.flow, duration, window),
            ledger.jitter_series(fc.flow, duration, window),
            ledger.bandwidth_series(fc.sink, duration, window))
        assert stats == expected


def test_run_rejects_a_window_with_too_many_bins_before_simulating(tmp_path):
    config = mini_config(duration=12)
    scenario.check_window(1.0, config.duration)
    out = tmp_path / "out"
    with pytest.raises(ConfigError, match=r"^window: "):
        run(config, out_dir=str(out),
            window=config.duration / (scenario.MAX_FLOW_TICKS + 1))
    assert not out.exists()


def test_run_is_reproducible_byte_for_byte(tmp_path):
    config = mini_config(protocol="DSDV",
                         protocol_params={"dsdv": {"update_interval": 1.0}},
                         duration=12)
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    report_a = run(config, out_dir=str(out_a))
    report_b = run(config, out_dir=str(out_b))
    assert report_a.manifest == report_b.manifest
    for rel in report_a.manifest:
        assert (out_a / rel).read_bytes() == (out_b / rel).read_bytes(), rel


def record_writers(monkeypatch) -> list:
    """Every TraceWriter that run() starts from now on, in order; run()
    starts one whatever the host's CPU count."""
    writers = []

    class RecordedWriter(TraceWriter):
        def __init__(self, path):
            super().__init__(path)
            writers.append(self)

    monkeypatch.setattr(tracewriter, "TraceWriter", RecordedWriter)
    monkeypatch.setattr(tracewriter, "_usable_cpus", lambda: 2)
    return writers


def assert_reaped(writers):
    """Each writer process was waited for, so none is left running."""
    assert writers
    for writer in writers:
        assert writer.process.returncode is not None
        with pytest.raises(ProcessLookupError):
            os.kill(writer.process.pid, 0)


def use_sink(monkeypatch, sink) -> list:
    """Make run() write through sink, "writer" (a TraceWriter) or "file"
    (a TraceFile, as on one CPU); the TraceWriters it starts, in order."""
    if sink == "writer":
        return record_writers(monkeypatch)
    monkeypatch.setattr(tracewriter, "_usable_cpus", lambda: 1)

    def no_process(*args, **kwargs):
        raise AssertionError("a process was started")

    monkeypatch.setattr(tracewriter.subprocess, "Popen", no_process)
    return []


def test_streamed_trace_equals_in_memory_trace(tmp_path, monkeypatch):
    """trace.txt, formatted by the writer process during the run, is the
    in-memory trace_text(), for both builtins."""
    # blocks small enough that short-distance's 60 s cross several
    block = TRACE_BLOCK_LINES // 4
    monkeypatch.setattr(metrics, "TRACE_BLOCK_LINES", block)
    writers = record_writers(monkeypatch)
    for name, protocol in (("long-distance", "AODV"), ("short-distance", "DSDV")):
        config = dataclasses.replace(builtin_scenario(name, protocol),
                                     duration=60.0)
        expected = build_simulation(config, trace=KeptTrace()).run(
            60.0).ledger.trace_text()
        assert expected.count("\n") > 6 * block
        out = tmp_path / name
        run(config, out_dir=str(out))
        assert (out / "trace.txt").read_text() == expected, name
        assert_reaped(writers)


@pytest.mark.parametrize("protocol", ["AODV", "DSDV"])
@pytest.mark.parametrize("source", ["long-distance", "short-distance", 3, 7])
def test_every_trace_line_reads_back(source, protocol):
    """parse_trace reads every line of a run's trace, so that format_block
    of its records is the trace: both builtins at 60 s, and two
    random-waypoint documents (seeds 3 and 7), under both protocols."""
    if isinstance(source, str):
        config = builtin_scenario(source, protocol)
    else:
        config = dataclasses.replace(load_config(random_waypoint_document(
            source, 50, 10, 60.0)), protocol=protocol)
    config = dataclasses.replace(config, duration=60.0)
    trace = build_simulation(config, trace=KeptTrace()).run(
        60.0).ledger.trace_text()
    records = parse_trace(trace)
    assert {"M", "s", "r"} <= {record[0] for record in records}
    assert format_block(records) == trace


def _agent_raising_after(monkeypatch, t, error):
    on_frame = AodvAgent.on_frame

    def failing_on_frame(agent, frame):
        if agent.sched.now > t:
            raise error
        on_frame(agent, frame)

    monkeypatch.setattr(AodvAgent, "on_frame", failing_on_frame)


def test_run_that_raises_leaves_no_trace(tmp_path, monkeypatch):
    """A simulation that raises mid-run kills and reaps the writer and
    deletes its partial trace.txt."""
    config = dataclasses.replace(
        builtin_scenario("long-distance", "AODV"), duration=60.0)
    _agent_raising_after(monkeypatch, 30.0, RuntimeError("agent fault"))
    writers = record_writers(monkeypatch)
    with pytest.raises(RuntimeError, match="agent fault"):
        run(config, out_dir=str(tmp_path))
    assert not (tmp_path / "trace.txt").exists()
    assert_reaped(writers)


def test_interrupted_run_reaps_the_writer(tmp_path, monkeypatch):
    """KeyboardInterrupt from inside the simulation propagates; the writer
    is killed and reaped and no trace.txt is left."""
    config = dataclasses.replace(
        builtin_scenario("long-distance", "AODV"), duration=60.0)
    _agent_raising_after(monkeypatch, 30.0, KeyboardInterrupt)
    writers = record_writers(monkeypatch)
    with pytest.raises(KeyboardInterrupt):
        run(config, out_dir=str(tmp_path))
    assert not (tmp_path / "trace.txt").exists()
    assert_reaped(writers)


@pytest.mark.parametrize("target", ["directory", "full device"])
def test_unwritable_trace_raises_os_error_naming_it(tmp_path, monkeypatch,
                                                   target):
    """A trace.txt that cannot be opened fails run() before the simulation,
    and one the writer fails to write raises OSError naming it; no trace
    file and no process remain."""
    trace = tmp_path / "trace.txt"
    if target == "directory":
        trace.mkdir()
    elif os.path.exists("/dev/full"):  # every write there fails with ENOSPC
        trace.symlink_to("/dev/full")
    else:
        pytest.skip("no /dev/full")
    config = dataclasses.replace(
        builtin_scenario("long-distance", "AODV"), duration=60.0)
    writers = record_writers(monkeypatch)
    with pytest.raises(OSError, match="trace.txt"):
        run(config, out_dir=str(tmp_path))
    if target == "directory":
        assert writers == []
        assert os.listdir(tmp_path) == ["trace.txt"]  # nothing else written
        assert trace.is_dir()
    else:
        assert not os.path.lexists(trace)
        assert_reaped(writers)


def test_one_cpu_run_formats_its_trace_in_process(tmp_path, monkeypatch):
    """With one CPU to run on, run() starts no writer process: it formats
    trace.txt itself, to the same bytes, and a run that raises or cannot
    open trace.txt leaves no trace file."""
    use_sink(monkeypatch, "file")
    config = dataclasses.replace(
        builtin_scenario("long-distance", "AODV"), duration=60.0)
    expected = build_simulation(config, trace=KeptTrace()).run(
        60.0).ledger.trace_text()
    run(config, out_dir=str(tmp_path / "ok"))
    assert (tmp_path / "ok" / "trace.txt").read_text() == expected

    (tmp_path / "dir" / "trace.txt").mkdir(parents=True)
    with pytest.raises(OSError, match="trace.txt"):
        run(config, out_dir=str(tmp_path / "dir"))

    _agent_raising_after(monkeypatch, 30.0, RuntimeError("agent fault"))
    with pytest.raises(RuntimeError, match="agent fault"):
        run(config, out_dir=str(tmp_path / "raise"))
    assert not (tmp_path / "raise" / "trace.txt").exists()


@pytest.mark.parametrize("sink", ["writer", "file"])
def test_series_files_equal_the_in_memory_series(tmp_path, monkeypatch, sink):
    """Whichever sink writes them, the metrics/*.dat of both builtins hold
    the bytes write_series writes for the in-memory ledger's series, the
    delay and cwnd series streamed in many chunks during the run; a flow
    that delivers nothing gets empty delay and jitter files."""
    monkeypatch.setattr(metrics, "TRACE_BLOCK_LINES", 64)
    writers = use_sink(monkeypatch, sink)
    chunks = []  # (flow, start) of each delay chunk streamed with points
    delay_series = MetricsLedger.delay_series

    def noted(ledger, flow, start=0):
        series = delay_series(ledger, flow, start)
        if series.points:
            chunks.append((flow, start))
        return series

    monkeypatch.setattr(MetricsLedger, "delay_series", noted)
    expected = tmp_path / "expected.dat"
    for name, protocol in (("long-distance", "AODV"), ("short-distance", "DSDV")):
        config = dataclasses.replace(builtin_scenario(name, protocol),
                                     duration=60.0)
        out = tmp_path / name
        chunks.clear()
        run(config, out_dir=str(out))
        assert len(chunks) > 20, name
        ledger = build_simulation(config).run(60.0).ledger
        for fc in config.flows:
            for metric, series in (
                    ("throughput", ledger.throughput_series(fc.flow, 60.0)),
                    ("jitter", ledger.jitter_series(fc.flow, 60.0)),
                    ("delay", ledger.delay_series(fc.flow)),
                    ("cwnd", ledger.cwnd_series(fc.flow)),
                    ("destination_bandwidth",
                     ledger.bandwidth_series(fc.sink, 60.0))):
                write_series(expected, series.unit, series.points)
                written = out / "metrics" / fc.flow / f"{metric}.dat"
                assert written.read_bytes() == expected.read_bytes(), (
                    name, fc.flow, metric)
    # short-distance f1's first delivery is at about 157 s
    for metric in ("delay", "jitter"):
        assert (tmp_path / "short-distance" / "metrics" / "f1"
                / f"{metric}.dat").read_bytes() == b""
    if sink == "writer":
        assert len(writers) == 2
        assert_reaped(writers)


@pytest.mark.parametrize("sink_class", [TraceWriter, TraceFile])
def test_sinks_nudge_a_tied_series_as_the_ledger_does(tmp_path, sink_class):
    """The ledger's series, tied times and all, sent to a sink is written
    as write_series writes it, its ties nudged."""
    ledger = MetricsLedger()
    for t, value in [(0.0, 1), (0.5, 2), (0.5, 1), (0.5, 3), (1.0, 2)]:
        ledger.on_cwnd("f0", t, value)
    raw = ledger.cwnd_series("f0")
    assert [t for t, _v in raw.points].count(0.5) == 3
    with sink_class(str(tmp_path / "trace.txt")) as sink:
        sink.send((str(tmp_path / "cwnd.dat"), raw.unit, raw.points))
    write_series(tmp_path / "expected.dat", raw.unit, raw.points)
    text = (tmp_path / "cwnd.dat").read_text()
    assert text == (tmp_path / "expected.dat").read_text()
    assert "\n0.500000001 1\n" in text


@pytest.mark.parametrize("sink_class", [TraceWriter, TraceFile])
@pytest.mark.parametrize("chunks", [
    [[(0.0, 1), (0.5, 2), (0.5, 1)], [(0.5, 3), (1.0, 2)]],  # a straddling tie
    [[], [(0.0, 1), (0.5, 2), (0.5, 3)]],  # an empty first message
    [[(0.5, 1)], [], [(0.5, 2)], [(0.25, 3)]],  # a tie across an empty one
    [[], []],  # no point at all: an empty file
])
def test_series_sent_in_chunks_is_the_single_write_file(tmp_path, sink_class,
                                                        chunks):
    """A series sent to a sink as several messages is the file
    write_series writes of all their points: the first message makes it,
    ``# unit`` comes before its first point, and ties are nudged across
    messages."""
    with sink_class(str(tmp_path / "trace.txt")) as sink:
        for points in chunks:
            sink.send((str(tmp_path / "cwnd.dat"), "packets", points))
    write_series(tmp_path / "expected.dat", "packets",
                 [point for points in chunks for point in points])
    assert ((tmp_path / "cwnd.dat").read_bytes()
            == (tmp_path / "expected.dat").read_bytes())


@pytest.mark.parametrize("sink_class", [TraceWriter, TraceFile])
def test_series_paths_hold_no_descriptor(tmp_path, sink_class):
    """A sink keeps no series file open between messages: under a limit of
    a few more descriptors than are open, it writes 500 series twice each,
    and the descriptors open in this process do not grow with them."""
    resource = pytest.importorskip("resource")
    if not os.path.isdir("/proc/self/fd"):
        pytest.skip("no /proc/self/fd")

    def open_fds():
        return len(os.listdir("/proc/self/fd"))

    paths = [str(tmp_path / f"s{i}.dat") for i in range(500)]
    soft, hard = resource.getrlimit(resource.RLIMIT_NOFILE)
    # a writer process inherits the limit
    resource.setrlimit(resource.RLIMIT_NOFILE, (open_fds() + 16, hard))
    try:
        with sink_class(str(tmp_path / "trace.txt")) as sink:
            sink.send((paths[0], "packets", [(0.0, 1)]))
            after_one = open_fds()
            for t in (0.0, 1.0):
                for path in paths:
                    sink.send((path, "packets", [(t, 2)]))
            assert open_fds() == after_one
    finally:
        resource.setrlimit(resource.RLIMIT_NOFILE, (soft, hard))
    assert (Path(paths[0]).read_text()
            == "# packets\n0.0 1\n1e-09 2\n1.0 2\n")
    assert Path(paths[-1]).read_text() == "# packets\n0.0 2\n1.0 2\n"


def test_writer_names_the_trace_for_an_error_that_is_no_os_error(tmp_path):
    """A message the writer process cannot handle, here a series tuple of
    the wrong length, fails the join with an OSError naming the trace, the
    error's type and its text."""
    trace = str(tmp_path / "trace.txt")
    writer = TraceWriter(trace)
    with pytest.raises(OSError, match=f"^cannot write {re.escape(trace)}: "
                                      "TypeError: .+"):
        with writer:
            writer.send((str(tmp_path / "cwnd.dat"), "packets", [], "extra"))
    assert_reaped([writer])


@pytest.mark.parametrize("sink", ["writer", "file"])
@pytest.mark.parametrize("target", ["trace.txt", "metrics/f0/cwnd.dat",
                                    "metrics/f0/delay.dat", "summary.csv",
                                    "paths.log", "report.txt"])
def test_unwritable_file_leaves_no_manifest_file(tmp_path, monkeypatch, sink,
                                                 target):
    """A two-node run whose trace fits in one pipe write fails only when
    its file is flushed, at the join when a writer process writes it. run
    raises OSError naming the file and leaves none of its manifest files,
    not even the series the writer had written, and none of the
    directories it made."""
    if not os.path.exists("/dev/full"):  # every write there fails: ENOSPC
        pytest.skip("no /dev/full")
    writers = use_sink(monkeypatch, sink)
    config = mini_config(placements=MINI_DOC["placements"][:2],
                         flows=[dict(MINI_DOC["flows"][0], sink=1)])
    out = tmp_path / "out"
    (out / target).parent.mkdir(parents=True)
    made_here = sorted(out.rglob("*"))  # the target's directories, if any
    (out / target).symlink_to("/dev/full")
    with pytest.raises(OSError, match=f"^cannot write {re.escape(str(out / target))}: "):
        run(config, out_dir=str(out))
    assert sorted(out.rglob("*")) == made_here
    if sink == "writer":
        assert_reaped(writers)


@pytest.mark.parametrize("sink", ["writer", "file"])
def test_unwritable_series_fails_during_the_run(tmp_path, monkeypatch, sink):
    """A delay.dat that cannot be written fails the run while it simulates:
    its points are sent with the trace blocks, so the one-CPU sink raises
    from inside Simulation.run, and a writer process fails then too (at
    the next send or, at the latest, at the join). Either way run raises
    OSError naming the file and leaves none of its files."""
    if not os.path.exists("/dev/full"):
        pytest.skip("no /dev/full")
    writers = use_sink(monkeypatch, sink)
    raised = []
    sim_run = Simulation.run

    def noted_run(sim, until):
        try:
            return sim_run(sim, until)
        except OSError as e:
            raised.append(e)
            raise

    monkeypatch.setattr(Simulation, "run", noted_run)
    config = dataclasses.replace(
        builtin_scenario("long-distance", "AODV"), duration=60.0)
    target = tmp_path / "metrics" / "f0" / "delay.dat"
    target.parent.mkdir(parents=True)
    target.symlink_to("/dev/full")
    with pytest.raises(OSError, match=f"^cannot write {re.escape(str(target))}: "):
        run(config, out_dir=str(tmp_path))
    if sink == "file":
        assert raised
    else:
        assert_reaped(writers)
    assert sorted(p.relative_to(tmp_path) for p in tmp_path.rglob("*")) == [
        Path("metrics"), Path("metrics/f0")]


@pytest.mark.parametrize("sink", ["writer", "file"])
def test_failed_run_into_a_missing_path_leaves_no_parent(tmp_path, monkeypatch,
                                                         sink):
    """A run into a/b/c, a missing, that fails after making its
    directories leaves none of them, parents included."""
    writers = use_sink(monkeypatch, sink)

    def failing(flow_stats):
        raise OSError("disk full")

    monkeypatch.setattr(scenario, "_summary_csv", failing)
    with pytest.raises(OSError, match="disk full"):
        run(mini_config(), out_dir=str(tmp_path / "a" / "b" / "c"))
    assert os.listdir(tmp_path) == []
    if sink == "writer":
        assert_reaped(writers)


def test_run_without_out_dir_returns_stats_only():
    report = run(mini_config())
    assert report.manifest == []
    assert report.flows[0].delivered == 5


# -- comparison ------------------------------------------------------------

def two_protocol_reports():
    base = mini_config(duration=12,
                       protocol_params={"dsdv": {"update_interval": 1.0}})
    aodv = run(base)
    dsdv = run(dataclasses.replace(base, protocol="DSDV"))
    return aodv, dsdv


def test_compare_needs_one_reactive_and_one_proactive_run():
    aodv, dsdv = two_protocol_reports()
    for report in (aodv, dsdv):
        with pytest.raises(ValueError, match="one reactive and one proactive"):
            compare(report, report)


def test_compare_orients_by_protocol_nature():
    aodv, dsdv = two_protocol_reports()
    for pair in ((aodv, dsdv), (dsdv, aodv)):
        result = compare(*pair)
        assert result["reactive_protocol"] == "AODV"
        assert result["proactive_protocol"] == "DSDV"
        assert result["primary_flow"] == "f0"
        assert {row["metric"] for row in result["table"]} == {
            "delivered", "lost", "max_delay", "max_jitter", "mean_throughput"}
    text = format_comparison(compare(aodv, dsdv))
    assert "verdicts:" in text
    assert "reactive_max_delay_exceeds_proactive" in text


def test_compare_rejects_different_scenarios():
    aodv, _ = two_protocol_reports()
    other = run(mini_config(name="other"))
    with pytest.raises(ValueError):
        compare(aodv, other)


def test_compare_rejects_unnamed_documents_that_differ():
    """Two documents without a name are both "custom"; their configs, not
    their names, decide whether they are one scenario."""
    def unnamed(sink_x, protocol):
        return run(load_config(json.dumps({
            "protocol": protocol, "duration": 20,
            "placements": [[0, [100, 300]], [1, [100 + sink_x, 300]]],
            "flows": [{"flow": "f0", "src": 0, "sink": 1,
                       "max_packets": 50}]})))
    near, far = unnamed(300, "AODV"), unnamed(900, "DSDV")
    assert near.config.name == far.config.name == "custom"
    with pytest.raises(ValueError, match=r"differ in placements\)"):
        compare(near, far)


def test_compare_rejects_reports_whose_flows_differ():
    one_flow = run(mini_config())
    two_flows = run(mini_config(
        protocol="DSDV",
        flows=MINI_DOC["flows"] + [{"flow": "f1", "src": 2, "sink": 0,
                                    "start_t": 0.5, "max_packets": 5}]))
    for pair in ((one_flow, two_flows), (two_flows, one_flow)):
        with pytest.raises(ValueError, match=r"differ in flows\)"):
            compare(*pair)
