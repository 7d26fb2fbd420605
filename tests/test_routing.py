"""The shared forwarding plane, checked once for every protocol in the table."""

import pytest

from vanetsim.engine import Scheduler
from vanetsim.metrics import MetricsLedger
from vanetsim.mobility import MobilityModel
from vanetsim.radio import Frame, RadioMedium, RoutedPacket
from vanetsim.simulation import PROTOCOLS
from vanetsim.transport import DataPacket

CHAIN = {0: (100.0, 400.0), 1: (300.0, 400.0), 2: (500.0, 400.0)}
# route errors a relay broadcasts when it has no route for a data packet
RERRS_ON_RELAY_NO_ROUTE = {"AODV": 1, "DSDV": 0}


class Recorder:
    """Radio tap and ledger hooks in one: frames sent, drops and paths."""

    def __init__(self):
        self.sends = []  # frame kinds, in send order
        self.drops = []  # (flow, seq, reason)
        self.paths = []  # (flow, chain)
        self.losses = []  # (frame kind, reason)

    def on_send(self, frame, t):
        self.sends.append(frame.kind)

    def on_delivery(self, frame, node, t):
        pass

    def on_loss(self, frame, reason, t):
        self.losses.append((frame.kind, reason))

    def on_flow_drop(self, flow, seq, t, reason):
        self.drops.append((flow, seq, reason))

    def on_path(self, flow, chain, t):
        self.paths.append((flow, tuple(chain)))


def chain(name, log=None):
    """Agents of one protocol on a three-node line, routes converged; log
    (a Recorder unless given) is the radio's tap."""
    agent_class = PROTOCOLS[name]
    sched = Scheduler()
    mobility = MobilityModel()
    log = Recorder() if log is None else log
    radio = RadioMedium(sched, mobility, log)
    delivered = []
    agents = {}
    for node, (x, y) in CHAIN.items():
        mobility.add_node(node, x, y)
        agents[node] = agent_class(
            sched, radio, node,
            deliver_up=lambda pkt, now, n=node: delivered.append((n, pkt)))
    if agent_class.proactive:
        for agent in agents.values():
            agent.start(0.0)
        # two table rounds carry every route along the line
        sched.run_until(2 * agents[0].config.update_interval + 1.0)
    return sched, agents, log, delivered


@pytest.mark.parametrize("name", PROTOCOLS)
def test_an_agent_without_deliver_up_fails_at_construction(name):
    radio = RadioMedium(Scheduler(), MobilityModel(), Recorder())
    with pytest.raises(TypeError, match="deliver_up"):
        PROTOCOLS[name](radio.sched, radio, 0)
    # it failed before registering, so the radio never hands it a frame
    assert 0 not in radio._receivers


@pytest.mark.parametrize("name", PROTOCOLS)
def test_self_addressed_packet_goes_straight_up(name):
    _sched, agents, log, delivered = chain(name)
    sent = len(log.sends)
    packet = DataPacket("f0", 0, 512)
    agents[1].send_packet(packet, 1)
    assert delivered == [(1, packet)]
    assert len(log.sends) == sent


@pytest.mark.parametrize("name", PROTOCOLS)
def test_relay_appends_its_id_and_destination_reports_the_chain(name):
    sched, agents, log, delivered = chain(name)
    packet = DataPacket("f0", 0, 512)
    agents[0].send_packet(packet, 2)
    sched.run_until(sched.now + 2.0)
    assert delivered == [(2, packet)]
    assert log.paths == [("f0", (0, 1, 2))]
    assert log.drops == []


@pytest.mark.parametrize("name", PROTOCOLS)
def test_relay_without_route_drops_once(name):
    sched, agents, log, delivered = chain(name)
    sent = len(log.sends)
    # a data frame reaches relay 1 for a node nobody has a route to
    env = RoutedPacket(0, 9, DataPacket("f0", 4, 512))
    agents[1].on_frame(Frame("DATA", 0, 1, 512, env))
    sched.run_until(sched.now + 0.5)
    assert log.drops == [("f0", 4, "no-route")]
    assert env.hops == [1]
    assert log.sends[sent:].count("RERR") == RERRS_ON_RELAY_NO_ROUTE[name]
    assert "DATA" not in log.sends[sent:]
    assert delivered == []


@pytest.mark.parametrize("name", PROTOCOLS)
def test_unicast_to_a_departed_next_hop_fails_synchronously(name):
    sched, agents, log, delivered = chain(name)
    if not agents[0].proactive:
        agents[0].send_packet(DataPacket("f0", 0, 512), 2)
        sched.run_until(sched.now + 1.0)
    # relay 1 races off north, 500 m from where it was after 0.5 s
    mobility = agents[0].radio.mobility
    mobility.set_motion(1, (300.0, 1500.0), 1000.0, sched.now)
    sched.run_until(sched.now + 0.5)
    lost = len(log.losses)
    failed = []
    data_fail = agents[0]._data_fail
    agents[0]._data_fail = lambda frame: (failed.append(frame.dst),
                                          data_fail(frame))
    agents[0].send_packet(DataPacket("f0", 1, 512), 2)
    # both before send_packet returns
    assert failed == [1]
    assert log.losses[lost] == ("DATA", "out-of-range")


# what a failed data unicast costs its flow: a relay, or a DSDV origin,
# drops the packet; an AODV origin holds it for a fresh discovery, which
# on this line runs out
LOST_AT_ORIGIN = {"AODV": {"discovery-exhausted": 1},
                  "DSDV": {"out-of-range": 1}}


@pytest.mark.parametrize("name", PROTOCOLS)
@pytest.mark.parametrize("at", ["origin", "relay"])
def test_a_failed_data_unicast_is_counted_lost_once(name, at):
    ledger = MetricsLedger()
    sched, agents, _log, delivered = chain(name, ledger)
    if not agents[0].proactive:
        agents[0].send_packet(DataPacket("f0", 0, 512), 2)
        sched.run_until(sched.now + 1.0)
    # the sender's next hop races north, out of range within 0.5 s
    gone = 1 if at == "origin" else 2
    mobility = agents[0].radio.mobility
    mobility.set_motion(gone, (CHAIN[gone][0], 1500.0), 1000.0, sched.now)
    sched.run_until(sched.now + 0.5)
    packet = DataPacket("f0", 1, 512)
    if at == "origin":
        agents[0].send_packet(packet, 2)
    else:
        agents[1].on_frame(Frame("DATA", 0, 1, 512, RoutedPacket(0, 2, packet)))
    sched.run_until(sched.now + 60.0)
    assert packet not in [pkt for _n, pkt in delivered]
    expected = LOST_AT_ORIGIN[name] if at == "origin" else {"out-of-range": 1}
    assert ledger.drops_by_reason("f0") == expected
