"""The invariant auditors, each shown a hand-built bad state.

Every check gets a state that breaks it and nothing else, so each test
asserts exactly one violation.
"""

import math

import pytest

from vanetsim.aodv import AodvAgent, RouteEntry
from vanetsim.dsdv import DsdvAgent, DsdvEntry
from vanetsim.engine import Scheduler
from vanetsim.metrics import MetricsLedger
from vanetsim.mobility import MobilityModel
from vanetsim.radio import RadioMedium
from vanetsim.transport import FlowConfig, TcpSource
from vanetsim.validation import RouteAuditor, TransportAuditor

DEST = 9


def route_entry(agent_class, next_hop):
    """A usable route to DEST through next_hop, in the agent's own table type."""
    if agent_class is AodvAgent:
        return RouteEntry(DEST, next_hop, 1, 2, math.inf, True, 0.0)
    return DsdvEntry(DEST, next_hop, 1, 2)


def agents_routing(agent_class, next_hops):
    """Agents whose routes to DEST follow next_hops (node -> next hop)."""
    sched = Scheduler()
    mobility = MobilityModel()
    radio = RadioMedium(sched, mobility, MetricsLedger())
    agents = {}
    for node, hop in next_hops.items():
        mobility.add_node(node, 100.0 * (node + 1), 100.0)
        agents[node] = agent_class(sched, radio, node,
                                   deliver_up=lambda packet, now: None)
        agents[node].table[DEST] = route_entry(agent_class, hop)
    return agents


@pytest.mark.parametrize("agent_class", [AodvAgent, DsdvAgent])
def test_route_auditor_reports_a_forwarding_loop(agent_class):
    auditor = RouteAuditor(agents_routing(agent_class, {0: 1, 1: 2, 2: 0}))
    auditor.on_route_mutation(0, DEST)
    assert auditor.loop_violations == [(0, DEST, 0)]
    assert auditor.parity_violations == []
    # a chain that reaches the destination is no loop
    auditor = RouteAuditor(agents_routing(agent_class, {0: 1, 1: 2, 2: DEST}))
    auditor.on_route_mutation(0, DEST)
    assert auditor.loop_violations == []


def test_route_auditor_reports_broken_sequence_parity():
    agents = agents_routing(DsdvAgent, {0: 1, 1: DEST})
    agents[0].table[DEST].seq = 3  # odd, yet the metric stays finite
    auditor = RouteAuditor(agents, check_parity=True)
    auditor.on_route_mutation(0, DEST)
    assert auditor.parity_violations == [(0, DEST, 3, 1)]
    assert auditor.loop_violations == []


def source(cwnd, in_flight, pending, highest_acked, next_seq):
    """A flow of ten packets with its window state set by hand."""
    src = TcpSource(Scheduler(), FlowConfig("f0", 0, 1, max_packets=10),
                    route_send=lambda packet: None, ledger=MetricsLedger())
    src.cwnd = cwnd
    src.in_flight = set(in_flight)
    src.pending = list(pending)
    src.highest_acked = highest_acked
    src.next_seq = next_seq
    return src


def audit(src):
    auditor = TransportAuditor()
    auditor.check_source(src)
    return auditor.violations


def test_transport_auditor_accepts_a_consistent_source():
    # 0 acked, 1-2 in flight, 3 awaiting retransmission, 4-9 unsent
    assert audit(source(2.0, [1, 2], [3], 0, 4)) == []


def test_transport_auditor_reports_a_window_overrun():
    assert audit(source(1.0, [0, 1], [], -1, 2)) == [
        ("f0", "window overrun", 2, 1.0)]


def test_transport_auditor_reports_a_seq_in_two_states():
    # 1 is both in flight and pending while 2 is in neither, so the
    # counts still add up
    assert audit(source(2.0, [1], [1], 0, 3)) == [
        ("f0", "seq in two states", [1])]


def test_transport_auditor_reports_a_seq_outside_the_sent_range():
    # 5 was never sent; it stands in for the missing 1
    assert audit(source(2.0, [2, 5], [], 0, 3)) == [
        ("f0", "seq outside sent range", 5)]


def test_transport_auditor_reports_a_count_leak():
    # 1 and 2 were sent and are neither acked, in flight nor pending
    assert audit(source(2.0, [], [], 0, 3)) == [("f0", "count leak", 8)]
