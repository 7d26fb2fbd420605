"""On-demand routing tests: discovery, replies, retries, failure handling."""

import dataclasses
import json
import math
import random
from collections import Counter, deque

import pytest

from vanetsim.aodv import AodvAgent, AodvConfig, Rerr, RouteEntry, Rrep, Rreq
from vanetsim.engine import Scheduler
from vanetsim.metrics import KeptTrace
from vanetsim.mobility import MobilityModel
from vanetsim.radio import BROADCAST, Frame, RadioMedium, RoutedPacket
from vanetsim.scenario import load_config
from vanetsim.simulation import Simulation
from vanetsim.transport import DataPacket


class FrameLog:
    def __init__(self):
        self.sends = []  # (t, kind, src, dst)
        self.losses = []
        self.drops = []  # flow-level drops reported by routing
        self.drop_reasons = []
        self.rerrs = []  # (src, unreachable pairs) of every error notice

    def on_send(self, frame, t):
        self.sends.append((t, frame.kind, frame.src, frame.dst))
        if frame.kind == "RERR":
            self.rerrs.append((frame.src, frame.payload.unreachable))

    def on_delivery(self, frame, node, t):
        pass

    def on_loss(self, frame, reason, t):
        self.losses.append((t, frame.kind, reason))

    def on_flow_drop(self, flow, seq, t, reason):
        self.drops.append((t, flow, seq))
        self.drop_reasons.append(reason)

    def on_path(self, flow, chain, t):
        pass

    def kinds(self, kind):
        return [s for s in self.sends if s[1] == kind]


def build(positions, config=None):
    sched = Scheduler()
    mob = MobilityModel()
    log = FrameLog()
    radio = RadioMedium(sched, mob, log)
    delivered = []
    agents = {}
    for node_id, (x, y) in positions.items():
        mob.add_node(node_id, x, y)
        agents[node_id] = AodvAgent(
            sched, radio, node_id, config=config,
            deliver_up=lambda pkt, now, n=node_id: delivered.append((n, pkt, now)),
        )
    return sched, mob, radio, agents, delivered, log


def bfs_hops(radio, src, dst, t=0.0):
    dist = {src: 0}
    queue = deque([src])
    while queue:
        u = queue.popleft()
        for v in radio.neighbors(u, t):
            if v not in dist:
                dist[v] = dist[u] + 1
                queue.append(v)
    return dist.get(dst)


def test_three_node_discovery_and_hop_conventions():
    sched, mob, radio, agents, delivered, log = build(
        {0: (0, 0), 1: (200, 0), 2: (400, 0)}
    )
    agents[0].send_packet(DataPacket("f0", 0, 512), 2)
    sched.run_until(1.0)
    assert delivered == [(2, DataPacket("f0", 0, 512), pytest.approx(delivered[0][2]))]
    # reverse entries count from zero: the origin's direct neighbor stores 0
    assert agents[1].table[0].hop_count == 0
    assert agents[1].table[0].next_hop == 0
    assert agents[2].table[0].hop_count == 1
    assert agents[2].table[0].next_hop == 1
    # forward entries carry true edge counts back toward the origin
    assert agents[1].table[2].hop_count == 1
    assert agents[0].table[2].hop_count == 2
    assert agents[0].table[2].next_hop == 1
    assert agents[0].table[2].dest_seq == agents[2].own_seq


def test_flood_rebroadcasts_once_per_node():
    sched, mob, radio, agents, delivered, log = build(
        {0: (0, 0), 1: (200, 0), 2: (200, 150), 3: (400, 75)}
    )
    agents[0].send_packet(DataPacket("f0", 0, 512), 3)
    sched.run_until(1.0)
    rreq_srcs = [src for _t, _k, src, _d in log.kinds("RREQ")]
    assert sorted(rreq_srcs) == [0, 1, 2]  # destination replies, never rebroadcasts
    assert len(delivered) == 1


def test_intermediate_node_with_fresher_route_replies():
    sched, mob, radio, agents, delivered, log = build(
        {0: (0, 0), 1: (200, 0), 2: (400, 0)}
    )
    agents[0].send_packet(DataPacket("f0", 0, 512), 2)
    sched.run_until(3.5)
    # keep node 1's route to 2 fresh while node 0's copy goes stale
    agents[1].send_packet(DataPacket("fx", 0, 512), 2)
    sched.run_until(3.6)
    n_rreq_before = len(log.kinds("RREQ"))
    agents[0].send_packet(DataPacket("f0", 1, 512), 2)
    sched.run_until(4.5)
    new_rreqs = log.kinds("RREQ")[n_rreq_before:]
    assert [src for _t, _k, src, _d in new_rreqs] == [0]
    replies = [s for s in log.kinds("RREP") if s[2] == 1 and s[0] > 3.6]
    assert replies, "the relay should answer from its table"
    assert len(delivered) == 3


def test_stale_route_triggers_rediscovery():
    sched, mob, radio, agents, delivered, log = build(
        {0: (0, 0), 1: (200, 0), 2: (400, 0)}
    )
    agents[0].send_packet(DataPacket("f0", 0, 512), 2)
    sched.run_until(0.5)
    assert not agents[0].table[2].usable(4.0)
    sched.run_until(4.0)
    before = len(log.kinds("RREQ"))
    agents[0].send_packet(DataPacket("f0", 1, 512), 2)
    sched.run_until(5.0)
    assert len(log.kinds("RREQ")) > before
    assert len(delivered) == 2


def test_retry_waits_double_then_buffer_is_dropped():
    sched, mob, radio, agents, delivered, log = build(
        {1: (0, 0), 25: (2900, 1500)}
    )
    agents[1].send_packet(DataPacket("f1", 0, 512), 25)
    sched.run_until(30.0)
    flood_times = [t for t, _k, src, _d in log.kinds("RREQ") if src == 1]
    assert flood_times == pytest.approx([0.0, 2.8, 8.4])
    assert log.drops == [(pytest.approx(19.6), "f1", 0)]
    assert log.drop_reasons == ["discovery-exhausted"]
    assert delivered == []


def test_buffered_packets_flush_in_order_after_reply():
    sched, mob, radio, agents, delivered, log = build(
        {0: (0, 0), 1: (200, 0), 2: (400, 0)}
    )
    for seq in range(3):
        agents[0].send_packet(DataPacket("f0", seq, 512), 2)
    sched.run_until(1.0)
    assert [pkt.seq for _n, pkt, _t in delivered] == [0, 1, 2]
    # one discovery served all three packets
    assert len(log.kinds("RREQ")) == 2  # origin flood + relay rebroadcast


def test_ttl_limits_flood_depth():
    cfg = AodvConfig(ttl=2)
    sched, mob, radio, agents, delivered, log = build(
        {0: (0, 0), 1: (200, 0), 2: (400, 0), 3: (600, 0)}, config=cfg
    )
    agents[0].send_packet(DataPacket("f0", 0, 512), 3)
    sched.run_until(5.0)
    assert delivered == []
    rreq_srcs = {src for _t, _k, src, _d in log.kinds("RREQ")}
    assert 2 not in rreq_srcs  # the flood dies two hops out
    assert log.drops, "buffered packet dropped after retries exhaust"


def test_geometric_break_invalidates_and_spreads_error():
    sched, mob, radio, agents, delivered, log = build(
        {0: (0, 0), 1: (200, 0), 2: (400, 0)}
    )
    mob.set_motion(2, (2900, 0), 100.0, 1.0)  # leaves node 1's range at t=1.5
    agents[0].send_packet(DataPacket("f0", 0, 512), 2)
    sched.run_until(1.4)
    assert agents[1].table[2].valid
    sched.run_until(2.0)
    assert not agents[1].table[2].valid
    assert not agents[0].table[2].valid  # learned via the error broadcast
    rerr_srcs = [src for _t, _k, src, _d in log.kinds("RERR")]
    assert 1 in rerr_srcs


def test_error_notice_and_link_failure_share_one_invalidation_rule():
    sched, mob, radio, agents, delivered, log = build(
        {0: (0, 0), 1: (200, 0), 2: (0, 200)})
    agent = agents[0]
    sched.run_until(10.0)
    stale = 10.0 - 2 * agent.config.route_lifetime
    # dest: next hop, stored seq, last used
    for dest, hop, seq, used in ((5, 1, 4, 9.0), (6, 1, 3, stale),
                                 (7, 2, 8, 9.0), (8, 1, 1, 9.0)):
        agent.table[dest] = RouteEntry(dest, hop, 2, seq, 20.0, True, used)

    def state():
        return {d: (e.valid, e.dest_seq) for d, e in agent.table.items()}

    agent.on_frame(Frame("RERR", 1, BROADCAST, 36,
                         Rerr([(5, 2), (6, 9), (7, 8)])))
    # only listed routes via the sender fall; a reported seq never lowers
    # the stored one; only the recently used route is reported on
    assert state() == {5: (False, 4), 6: (False, 9), 7: (True, 8), 8: (True, 1)}
    assert log.rerrs == [(0, [(5, 4)])]
    # a failed link of our own bumps the seq of every route through it
    agent.handle_link_failure(2, 10.0)
    assert state() == {5: (False, 4), 6: (False, 9), 7: (False, 9), 8: (True, 1)}
    sched.run_until(10.1)  # the first notice is still on the air
    assert log.rerrs[1:] == [(0, [(7, 9)])]


def test_unicast_failure_buffers_and_rediscovers_at_origin():
    sched, mob, radio, agents, delivered, log = build(
        {0: (0, 0), 1: (200, 0), 2: (400, 0)}
    )
    agents[0].send_packet(DataPacket("f0", 0, 512), 2)
    sched.run_until(1.0)
    # teleporting node 1 out is not possible; instead point node 0 at a
    # neighbor that was never in range by rewriting its next hop
    agents[0].table[2].next_hop = 9
    mob.add_node(9, 2900, 1500)
    radio.register(9, lambda frame: None)
    before = len(log.kinds("RREQ"))
    agents[0].send_packet(DataPacket("f0", 1, 512), 2)
    sched.run_until(2.0)
    assert len(log.kinds("RREQ")) > before
    assert [pkt.seq for _n, pkt, _t in delivered] == [0, 1]


def test_first_route_matches_breadth_first_search():
    rng = random.Random(11)
    for _case in range(5):
        while True:
            n = rng.randint(6, 14)
            positions = {
                i: (rng.uniform(50, 950), rng.uniform(50, 950)) for i in range(n)
            }
            sched, mob, radio, agents, delivered, log = build(positions)
            if all(bfs_hops(radio, 0, d) is not None for d in range(1, n)):
                break
        dest = n - 1
        agents[0].send_packet(DataPacket("f0", 0, 512), dest)
        sched.run_until(5.0)
        assert len(delivered) == 1
        assert agents[0].table[dest].hop_count == bfs_hops(radio, 0, dest)
        rreq_count = len(log.kinds("RREQ"))
        assert rreq_count <= n


# -- the hop path: one lookup that refreshes the route and its watch --------

LINE = {0: (0, 0), 1: (200, 0), 2: (400, 0)}


def schedule_spy(sched):
    """Record the kind of every event scheduled from now on."""
    kinds = []
    schedule = sched.schedule

    def spy(fire_at, kind, target, fn):
        kinds.append(kind)
        return schedule(fire_at, kind, target, fn)

    sched.schedule = spy
    return kinds


def relay_data(agents, seq):
    """A DATA frame from 0 for 2 reaches relay 1 now."""
    env = RoutedPacket(0, 2, DataPacket("f0", seq, 512))
    agents[1].on_frame(Frame("DATA", 0, 1, 512, env))


def test_relay_refreshes_the_route_it_forwards_on():
    sched, mob, radio, agents, delivered, log = build(LINE)
    agents[0].send_packet(DataPacket("f0", 0, 512), 2)
    sched.run_until(2.0)
    entry = agents[1].table[2]
    assert entry.last_used < 2.0
    relay_data(agents, 1)
    assert entry.last_used == 2.0
    assert entry.expires_at == 2.0 + agents[1].config.route_lifetime


def test_relay_arms_a_link_watch_only_when_plans_changed():
    sched, mob, radio, agents, delivered, log = build(LINE)
    agents[0].send_packet(DataPacket("f0", 0, 512), 2)
    sched.run_until(2.0)
    kinds = schedule_spy(sched)
    relay_data(agents, 1)
    assert kinds == ["rx"]
    # node 2 will leave node 1's range at t = 10
    mob.set_motion(2, (600, 0), 10.0, 5.0)
    sched.run_until(2.5)
    del kinds[:]
    relay_data(agents, 2)
    assert kinds == ["linkwatch", "rx"]
    sched.run_until(3.0)
    del kinds[:]
    relay_data(agents, 3)
    assert kinds == ["rx"]


def test_reply_flush_refreshes_the_route_it_sends_on():
    # node 2 is out of reach, so the discovery is still pending at t = 1
    sched, mob, radio, agents, delivered, log = build(
        {0: (0, 0), 1: (200, 0), 2: (2000, 0)})
    agents[0].send_packet(DataPacket("f0", 0, 512), 2)
    sched.run_until(1.0)
    # a route learnt meanwhile, which a reply with the same sequence
    # number and hop count does not replace
    agents[0]._update_route(2, 1, 2, 5, 0.5)
    entry = agents[0].table[2]
    assert (entry.last_used, entry.expires_at) == (0.5, 3.5)
    agents[0].on_frame(Frame("RREP", 1, 0, 44, Rrep(2, 5, 0, 1)))
    assert entry.last_used == 1.0
    assert entry.expires_at == 1.0 + agents[0].config.route_lifetime
    assert log.kinds("DATA")[-1] == (1.0, "DATA", 0, 1)


def test_route_lookup_leaves_the_entry_untouched():
    sched, mob, radio, agents, delivered, log = build(LINE)
    agents[0].send_packet(DataPacket("f0", 0, 512), 2)
    sched.run_until(2.0)
    mob.set_motion(2, (600, 0), 10.0, 5.0)
    before = dataclasses.replace(agents[1].table[2])
    watches = dict(agents[1]._watches)
    kinds = schedule_spy(sched)
    assert agents[1].route_lookup(2) == 2
    assert agents[1].table[2] == before
    assert agents[1]._watches == watches
    assert kinds == []


def test_seen_table_is_rebuilt_only_when_it_has_doubled():
    sched, mob, radio, agents, delivered, log = build({0: (0, 0), 1: (100, 0)})
    agent = agents[0]

    def flood(rid, now):
        # ttl 1 for an unknown destination: recorded, never rebroadcast
        agent._handle_rreq(Rreq(1, rid, 7, -1, rid, 0, 1), 1, now)

    rebuilds = 0
    for rid in range(600):
        before = agent.seen
        flood(rid, 0.0)
        rebuilds += agent.seen is not before
    assert len(agent.seen) == 600
    # a rebuild per new id past 512 would be 88
    assert rebuilds <= math.log2(600)
    # a duplicate leaves its expiry alone, and stays one past its expiry
    flood(599, 5.0)
    assert agent.seen[(1, 599)] == 10.0
    flood(0, 10.0)
    assert agent.seen[(1, 0)] == 10.0


def test_zero_seen_expiry_floods_once_per_node_and_runs_to_its_end():
    # a six-node chain and a sink out of reach: every discovery floods to
    # the full TTL, and with seen_expiry 0 each copy a node heard again
    # used to be re-admitted, so the copies doubled hop by hop
    config = load_config(json.dumps({
        "duration": 30,
        "placements": [[n, [100 + 200 * n, 300]] for n in range(6)]
                      + [[6, [2500, 300]]],
        "flows": [{"flow": "f0", "src": 0, "sink": 6}],
        "protocol_params": {"aodv": {"seen_expiry": 0}}}))
    sim = Simulation(config, trace=KeptTrace()).run(config.duration)
    assert sim.sched.now == config.duration
    floods = sum(agent.next_rreq_id for agent in sim.agents.values())
    rreqs = sum(line.split()[2] == "RREQ"
                for line in sim.ledger.trace_text().splitlines()
                if line.startswith("s "))
    assert floods > 0
    assert rreqs == 6 * floods


def test_parked_neighbours_one_rounding_step_inside_range_discover_once():
    # in range by math.dist, a hair outside by the squared distance: a
    # link watch that judged range by the latter broke the route at once,
    # so each packet rediscovered it and reported the break
    pa = (867.9155032407795, 1538.3647823201336)
    pb = (625.4692513363111, 1477.3744967209082)
    sim = Simulation(load_config(json.dumps({
        "placements": [[0, pa], [1, pb]],
        "flows": [{"flow": "f0", "src": 0, "sink": 1, "max_packets": 100}]})),
        trace=KeptTrace())
    sim.run(10.0)
    sends = Counter(line.split()[2] for line in sim.ledger.trace_text().splitlines()
                    if line.startswith("s "))
    assert len(sim.ledger.deliveries("f0")) == 100
    assert (sends["RREQ"], sends["RREP"], sends["RERR"]) == (1, 1, 0)


def test_fired_watch_rearms_at_the_break_later_plans_moved_it_to():
    sched, mob, radio, agents, delivered, log = build(LINE)
    agents[0].send_packet(DataPacket("f0", 0, 512), 2)
    sched.run_until(1.0)
    # node 2 heads east: relay 1's watch on it is armed for t = 6
    mob.set_motion(2, (600, 0), 10.0, 1.0)
    relay_data(agents, 1)
    # from t = 3 node 1 follows at 5 m/s, so the 220 m gap reaches the
    # 250 m range only at t = 9
    mob.set_motion(1, (400, 0), 5.0, 3.0)
    timers = []
    schedule = sched.schedule

    def spy(fire_at, kind, target, fn):
        timers.append((fire_at, kind, target))
        return schedule(fire_at, kind, target, fn)

    sched.schedule = spy
    sched.run_until(6.5)
    assert agents[1].table[2].valid
    assert [t for t in timers if t[1] == "linkwatch"] == [
        (pytest.approx(9.0), "linkwatch", 1)]
    sched.run_until(9.5)
    assert not agents[1].table[2].valid
    assert agents[1].table[0].valid  # node 0 is still 232.5 m away
