"""Full-stack assembly: flows over routed chains, motion lines, determinism."""

import dataclasses
import json

import pytest

from vanetsim.metrics import KeptTrace
from vanetsim.scenario import (BUILTIN_SCENARIOS, ConfigError, build_simulation,
                               builtin_scenario, load_config, run)
from vanetsim.simulation import PROTOCOLS, Simulation
from vanetsim.tracewriter import parse_trace

CHAIN = [[0, [100.0, 400.0]], [1, [300.0, 400.0]], [2, [500.0, 400.0]]]


def chain_config(protocol="AODV", *, flow, motions=(), seed=1):
    """The three-node chain as a scenario document: one flow 0 -> 2."""
    return load_config(json.dumps({
        "protocol": protocol, "seed": seed, "placements": CHAIN,
        "motions": list(motions),
        "flows": [{"flow": "f0", "src": 0, "sink": 2, **flow}]}))


def chain_sim(protocol, *, flow_start, seed=7, auditing=False):
    flow = {"start_t": flow_start, "send_interval": 0.2, "max_packets": 5}
    return Simulation(chain_config(protocol, flow=flow, seed=seed),
                      auditing=auditing, trace=KeptTrace())


def test_rejects_unknown_protocol():
    # the config refuses it, so no Simulation is ever given one
    config = chain_config(flow={})
    with pytest.raises(ConfigError, match="^protocol: unknown protocol 'OLSR'$"):
        dataclasses.replace(config, protocol="OLSR")


def test_aodv_flow_completes_over_discovered_route():
    sim = chain_sim("AODV", flow_start=0.1).run(15.0)
    src = sim.sources["f0"]
    assert src.complete
    assert sim.sinks["f0"].received.floor == 5
    assert sim.sinks["f0"].received.others == set()
    assert len(sim.ledger.deliveries("f0")) == 5
    assert sim.ledger._paths["f0"][0][1] == (0, 1, 2)


def test_dsdv_flow_completes_over_converged_table():
    sim = chain_sim("DSDV", flow_start=36.0).run(60.0)
    assert sim.sources["f0"].complete
    assert sim.sinks["f0"].received.floor == 5
    assert sim.sinks["f0"].received.others == set()
    assert sim.agents[0].table[2].metric == 2
    assert sim.ledger._paths["f0"][-1][1] == (0, 1, 2)


def test_motion_emits_state_lines():
    # the flow starts after the run ends, so no frame is sent
    sim = Simulation(chain_config(
        flow={"start_t": 10.0}, motions=[[1, 2.0, [300.0, 900.0], 10.0]],
    ), trace=KeptTrace()).run(5.0)
    records = parse_trace(sim.ledger.trace_text())
    assert {record[0] for record in records} == {"M"}
    assert [r[1:3] for r in records] == [
        (0.0, 0), (0.0, 1), (0.0, 2), (2.0, 1)]
    # parked nodes report their own position as the destination
    assert records[0][6:8] == (100.0, 400.0)
    _, t, node, x, y, z, dest_x, dest_y, speed = records[3]
    assert (x, y, z) == (300.0, 400.0, 0.0)
    assert (dest_x, dest_y) == (300.0, 900.0)
    assert speed == 10.0


def test_same_seed_reproduces_trace_different_seed_does_not():
    runs = [
        chain_sim("DSDV", flow_start=36.0, seed=5).run(60.0).ledger.trace_text()
        for _ in range(2)
    ]
    assert runs[0] == runs[1]
    other = chain_sim("DSDV", flow_start=36.0, seed=6).run(60.0).ledger.trace_text()
    assert other != runs[0]


def test_auditors_observe_clean_run():
    sim = chain_sim("DSDV", flow_start=36.0, auditing=True).run(60.0)
    assert sim.route_auditor.mutations > 0
    assert sim.route_auditor.loop_violations == []
    assert sim.route_auditor.parity_violations == []
    assert sim.transport_auditor.checks > 0
    assert sim.transport_auditor.violations == []


def test_auditors_stay_clean_through_link_break():
    # the relay drives away mid-flow, the source must rediscover via nobody
    sim = Simulation(chain_config(
        flow={"start_t": 0.1, "send_interval": 0.2, "max_packets": 40},
        motions=[[1, 3.0, [300.0, 1400.0], 100.0]],
    ), auditing=True).run(30.0)
    assert sim.route_auditor.loop_violations == []
    assert sim.transport_auditor.violations == []
    assert not sim.sources["f0"].complete

RADIO_LOSSES = {"no-neighbors", "out-of-range"}
ROUTING_DROPS = {"no-route", "discovery-exhausted", "no-route-after-reply"}


@pytest.mark.parametrize("protocol", PROTOCOLS)
@pytest.mark.parametrize("name", BUILTIN_SCENARIOS)
def test_drops_by_reason_add_up_to_lost(name, protocol):
    config = dataclasses.replace(builtin_scenario(name, protocol),
                                 duration=60.0)
    # the lost counts scenario.run reports, against a second simulation's
    # ledger
    lost = {stats.flow: stats.lost for stats in run(config).flows}
    ledger = build_simulation(config, trace=KeptTrace()).run(60.0).ledger
    radio_losses = 0
    for flow in config.flows:
        reasons = ledger.drops_by_reason(flow.flow)
        assert set(reasons) <= RADIO_LOSSES | ROUTING_DROPS
        assert sum(reasons.values()) == lost[flow.flow]
        radio_losses += sum(n for r, n in reasons.items() if r in RADIO_LOSSES)
    # the radio's share is every DATA loss record in the trace
    records = [line.split() for line in ledger.trace_text().splitlines()]
    assert radio_losses == sum(1 for r in records
                               if r[0] == "l" and r[2] == "DATA")
