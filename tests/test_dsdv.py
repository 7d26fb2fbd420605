"""Distance-vector agent: adoption order, parity, damping, update kinds."""

import math
import random
from bisect import insort
from operator import attrgetter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vanetsim.dsdv import INFINITE, DsdvAgent, DsdvConfig, DsdvEntry, DsdvUpdate
from vanetsim.engine import Scheduler
from vanetsim.metrics import MetricsLedger
from vanetsim.mobility import MobilityModel
from vanetsim.radio import RadioMedium
from vanetsim.transport import DataPacket


class UpdateLog:
    """Registers as a bare node and keeps every routing update it hears."""

    def __init__(self, sched, radio, node_id):
        self.node_id = node_id
        self.updates = []
        self.sched = sched
        radio.register(node_id, self.on_frame)

    def on_frame(self, frame):
        if frame.kind == "DSDV":
            self.updates.append((self.sched.now, frame.size, frame.payload))

    def rows_for(self, dest):
        out = []
        for _, _, upd in self.updates:
            for d, m, s in upd.rows:
                if d == dest:
                    out.append((m, s))
        return out


class LedgerStub:
    def __init__(self):
        self.drops = []
        self.reasons = []

    def on_flow_drop(self, flow, seq, t, reason):
        self.drops.append((flow, seq, t))
        self.reasons.append(reason)


def build(positions, config=None, start=True):
    """One agent per position, all broadcasting on the same schedule."""
    sched = Scheduler()
    mob = MobilityModel()
    radio = RadioMedium(sched, mob, MetricsLedger())
    agents = {}
    delivered = []
    for node, pos in sorted(positions.items()):
        mob.add_node(node, *pos)
        agents[node] = DsdvAgent(
            sched, radio, node, config=config,
            deliver_up=lambda pkt, t, n=node: delivered.append((n, pkt, t)),
        )
    if start:
        for node in sorted(agents):
            agents[node].start(0.0)
    return sched, mob, radio, agents, delivered


def agent_with_listener(config=None):
    """A single agent at node 0 plus a passive listener in range at node 9."""
    sched = Scheduler()
    mob = MobilityModel()
    radio = RadioMedium(sched, mob, MetricsLedger())
    mob.add_node(0, 100.0, 400.0)
    mob.add_node(9, 250.0, 400.0)
    agent = DsdvAgent(sched, radio, 0, config=config,
                      deliver_up=lambda packet, now: None)
    log = UpdateLog(sched, radio, 9)
    return sched, agent, log


def bfs_hops(radio, nodes, src):
    dist = {src: 0}
    frontier = [src]
    while frontier:
        nxt = []
        for node in frontier:
            for other in radio.neighbors(node, 0.0):
                if other in nodes and other not in dist:
                    dist[other] = dist[node] + 1
                    nxt.append(other)
        frontier = nxt
    return dist


def test_first_update_is_full_dump_with_self_row():
    sched, agent, log = agent_with_listener()
    agent.start(0.7)
    sched.run_until(1.0)
    assert agent.own_seq == 2
    assert len(log.updates) == 1
    t, size, upd = log.updates[0]
    assert upd.kind == "full"
    assert upd.rows == [(0, 0, 2)]
    assert size == 24 + 12


def test_line_converges_to_hop_counts():
    positions = {i: (100.0 + 200.0 * i, 400.0) for i in range(4)}
    sched, mob, radio, agents, _ = build(positions)
    sched.run_until(46.0)  # diameter 3, so 4 rounds at the default 15s period
    for src in positions:
        want = bfs_hops(radio, set(positions), src)
        for dest in positions:
            entry = agents[src].table[dest]
            assert entry.metric == want[dest]
            assert entry.seq % 2 == 0
            assert entry.metric != INFINITE


def test_random_topologies_converge_to_bfs():
    for seed in (11, 12, 13):
        rng = random.Random(seed)
        while True:
            positions = {
                i: (rng.uniform(0, 1400), rng.uniform(0, 1400)) for i in range(10)
            }
            sched, mob, radio, agents, _ = build(positions)
            dist = bfs_hops(radio, set(positions), 0)
            if len(dist) == len(positions):
                break
        diameter = 0
        for src in positions:
            reach = bfs_hops(radio, set(positions), src)
            diameter = max(diameter, max(reach.values()))
        sched.run_until((diameter + 1) * 15.0 + 1.0)
        for src in positions:
            want = bfs_hops(radio, set(positions), src)
            for dest in positions:
                entry = agents[src].table[dest]
                assert entry.metric == want[dest], (seed, src, dest)
                assert entry.seq % 2 == 0


@settings(max_examples=200, deadline=None)
@given(
    rows=st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=5).map(lambda v: 2 * v),
            st.integers(min_value=0, max_value=8),
        ),
        min_size=1,
        max_size=8,
    ),
    order=st.randoms(use_true_random=False),
)
def test_adoption_order_independent_of_arrival(rows, order):
    """Whatever the arrival order, the table keeps the row that is greatest

    by sequence number and, among those, smallest by metric.
    """
    sched = Scheduler()
    mob = MobilityModel()
    radio = RadioMedium(sched, mob, MetricsLedger())
    mob.add_node(0, 100.0, 100.0)
    agent = DsdvAgent(sched, radio, 0, deliver_up=lambda packet, now: None)
    shuffled = list(rows)
    order.shuffle(shuffled)
    for seq, metric in shuffled:
        agent._handle_update(DsdvUpdate(1, "incremental", [(7, metric, seq)]), 0.0)
    best_seq = max(s for s, _ in rows)
    best_metric = min(m for s, m in rows if s == best_seq) + 1
    entry = agent.table[7]
    assert (entry.seq, entry.metric) == (best_seq, best_metric)


class Clock:
    """Stands in for the scheduler: a clock set by hand, events dropped."""

    now = 0.0

    def schedule(self, fire_at, kind, target, fn):
        pass


class MutationLog:
    def __init__(self):
        self.mutations = []

    def on_route_mutation(self, node, dest):
        self.mutations.append((node, dest))


class ReferenceTable:
    """The module docstring's rules, written out plainly for node 0.

    Rows are [next_hop, metric, seq, settling_deadline].
    """

    def __init__(self, config):
        self.config = config
        self.table = {0: [0, 0, 0, None]}
        self.dirty = set()
        self.own_seq = 0
        self.mutations = []
        self.last_trigger = -INFINITE
        self.last_full_dump = -INFINITE
        self.sent = []  # (kind, rows) of every update sent

    def _changed(self, dest):
        self.dirty.add(dest)
        self.mutations.append((0, dest))

    def update(self, sender, rows, now):
        for dest, metric, seq in rows:
            if dest == 0:
                # news about ourselves newer than our own number: jump past
                # it to a fresh even number
                if seq > self.own_seq:
                    self.own_seq = seq + 1 if seq % 2 else seq + 2
                    self.table[0][2] = self.own_seq
                    self._changed(0)
                continue
            cand = INFINITE if seq % 2 else metric + 1
            old = self.table.get(dest)
            if old is None:
                self.table[dest] = [sender, cand, seq, None]
            elif seq > old[2] or (seq == old[2] and cand < old[1]):
                live = old[2] % 2 == 0 and old[1] != INFINITE
                damped = seq % 2 == 0 and live and cand > old[1]
                deadline = now + self.config.settling_time if damped else None
                self.table[dest] = [sender, cand, seq, deadline]
            else:
                continue
            self._changed(dest)

    def neighbor_loss(self, dead, now):
        changed = False
        for dest in sorted(self.table):
            row = self.table[dest]
            if row[0] == dead and row[2] % 2 == 0 and row[1] != INFINITE:
                row[1], row[2], row[3] = INFINITE, row[2] + 1, None
                self._changed(dest)
                changed = True
        # an immediate update unless one went out within trigger_min_gap;
        # a deferred one never fires here, as the scheduler never runs
        if changed and now - self.last_trigger >= self.config.trigger_min_gap:
            sent = [d for d in sorted(self.dirty)
                    if self.table[d][3] is None or self.table[d][3] <= now]
            if sent:
                self.last_trigger = now
                self._send("incremental", sent)

    def periodic(self, now):
        """A fresh own number, then the update two_pass_dump picks."""
        self.own_seq += 2
        self.table[0][2] = self.own_seq
        self.dirty.add(0)
        deadlines = {d: row[3] for d, row in self.table.items()}
        kind, dests = two_pass_dump(deadlines, self.dirty, now,
                                    self.last_full_dump, self.config)
        if kind == "full":
            self.last_full_dump = now
        self._send(kind, dests)

    def _send(self, kind, dests):
        """Sent rows are no longer settling and no longer dirty."""
        for d in dests:
            self.table[d][3] = None
        self.dirty -= set(dests)
        self.sent.append(
            (kind, [(d, self.table[d][1], self.table[d][2]) for d in dests]))


update_rows = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=5),  # 0 is the agent itself
        st.one_of(st.integers(min_value=0, max_value=4), st.just(INFINITE)),
        st.integers(min_value=0, max_value=12),  # odd numbers included
    ),
    min_size=1, max_size=6,
)
agent_steps = st.lists(
    st.tuples(
        st.sampled_from([0.0, 0.5, 1.0, 2.5, 7.0]),  # time since last step
        st.one_of(
            st.tuples(st.just("update"), st.integers(min_value=1, max_value=3),
                      update_rows),
            st.tuples(st.just("loss"), st.integers(min_value=1, max_value=3)),
            st.tuples(st.just("periodic")),
        ),
    ),
    max_size=30,
)


@settings(max_examples=300, deadline=None)
@given(steps=agent_steps)
def test_agent_matches_reference_rules(steps):
    """Random updates (self rows, odd numbers, infinite and worsened

    metrics), neighbour losses and periodic updates leave the agent's
    table, dirty set, own sequence number, settling deadlines, mutation
    order and sent updates exactly as the plainly written rules do.
    """
    cfg = DsdvConfig()
    sched = Scheduler()
    mob = MobilityModel()
    radio = RadioMedium(sched, mob, MetricsLedger())
    mob.add_node(0, 100.0, 100.0)
    log = MutationLog()
    agent = DsdvAgent(sched, radio, 0, config=cfg, auditor=log,
                      deliver_up=lambda packet, now: None)
    # no scheduler runs: the clock is set by hand, the next periodic update
    # and any deferred trigger are dropped, and sent updates are captured
    agent.sched = Clock()
    sent = []
    agent._send = lambda rows, kind: sent.append((kind, rows))
    ref = ReferenceTable(cfg)
    now = 0.0
    for dt, step in steps:
        now += dt
        agent.sched.now = now
        if step[0] == "update":
            _, sender, rows = step
            agent._handle_update(DsdvUpdate(sender, "full", rows), now)
            ref.update(sender, rows, now)
        elif step[0] == "loss":
            agent.handle_neighbor_loss(step[1], now)
            ref.neighbor_loss(step[1], now)
        else:
            agent._periodic(0)
            ref.periodic(now)
        table = {d: [e.next_hop, e.metric, e.seq, e.settling_deadline]
                 for d, e in agent.table.items()}
        assert table == ref.table
        assert agent.dirty == ref.dirty
        assert agent.own_seq == ref.own_seq
        assert log.mutations == ref.mutations
        assert sent == ref.sent
        # the settling set covers every running deadline, and a full dump
        # prunes it to just those
        settling = {d for d, row in ref.table.items() if row[3] is not None}
        assert settling <= agent._damped
        if step[0] == "periodic" and ref.sent[-1][0] == "full":
            assert agent._damped == settling


def test_neighbor_loss_spreads_by_immediate_trigger():
    positions = {0: (100.0, 400.0), 1: (300.0, 400.0), 2: (500.0, 400.0)}
    sched, mob, radio, agents, _ = build(positions)
    sched.run_until(31.0)
    assert agents[1].table[2].metric == 1
    assert agents[0].table[2].metric == 2
    mob.set_motion(2, (1000.0, 400.0), 125.0, 31.0)
    sched.run_until(36.0)  # node 2 is now 700 m from node 1
    before = agents[1].table[2].seq
    agents[1].send_packet(DataPacket("f0", 0, 512), 2)
    sched.run_until(36.5)  # well before the next periodic update at t=45
    entry = agents[1].table[2]
    assert (entry.seq, entry.metric) == (before + 1, INFINITE)
    assert entry.seq % 2 == 1
    assert agents[1].route_lookup(2) is None
    # the bad news reached node 0 through the triggered incremental
    heard = agents[0].table[2]
    assert (heard.seq, heard.metric) == (before + 1, INFINITE)


def test_trigger_rate_limit_defers_second_burst():
    sched, agent, log = agent_with_listener()
    agent._handle_update(DsdvUpdate(5, "incremental", [(5, 0, 4), (6, 1, 4)]), 0.0)
    agent._handle_update(DsdvUpdate(7, "incremental", [(7, 0, 4)]), 0.0)
    agent.dirty.clear()

    def loss(dead, at):
        sched.schedule(at, "loss", "0",
                       lambda: agent.handle_neighbor_loss(dead, sched.now))

    loss(5, 1.0)
    loss(7, 1.3)
    sched.run_until(3.0)
    # timestamps are heard a fraction of a millisecond after emission
    times = [round(t, 3) for t, _, _ in log.updates]
    assert times == [1.0, 2.0]
    first, second = log.updates[0][2], log.updates[1][2]
    assert [d for d, _, _ in first.rows] == [5, 6]
    assert [d for d, _, _ in second.rows] == [7]
    for _, m, s in first.rows + second.rows:
        assert m == INFINITE and s % 2 == 1


def test_worse_metric_is_damped_until_settled():
    cfg = DsdvConfig(update_interval=10.0, settling_time=6.0)
    sched, agent, log = agent_with_listener(cfg)
    agent.start(0.0)
    sched.run_until(0.5)  # first full dump done, table is clean
    agent._handle_update(DsdvUpdate(1, "incremental", [(7, 2, 10)]), 0.5)
    agent._handle_update(DsdvUpdate(2, "incremental", [(7, 3, 12)]), 1.0)  # worse
    agent._handle_update(DsdvUpdate(3, "incremental", [(7, 2, 12)]), 2.0)  # settles back
    sched.run_until(25.0)
    advertised = log.rows_for(7)
    assert advertised == [(3, 12)]
    assert agent.table[7].settling_deadline is None


def test_damped_row_held_out_of_full_dump_until_deadline():
    cfg = DsdvConfig(update_interval=4.0, settling_time=6.0, full_dump_interval=1.0)
    sched, agent, log = agent_with_listener(cfg)
    agent._handle_update(DsdvUpdate(1, "incremental", [(7, 2, 10)]), 0.0)
    agent._handle_update(DsdvUpdate(2, "incremental", [(7, 4, 12)]), 0.0)  # damped
    agent.start(0.0)
    sched.run_until(13.0)
    # dumps at t=0 and t=4 fall inside the settling window, t=8 is past it
    with_row = [round(t, 3) for t, _, u in log.updates
                if any(d == 7 for d, _, _ in u.rows)]
    without = [round(t, 3) for t, _, u in log.updates
               if not any(d == 7 for d, _, _ in u.rows)]
    assert without == [0.0, 4.0]
    assert with_row == [8.0, 12.0]
    assert log.rows_for(7)[0] == (5, 12)


def test_full_dump_when_majority_dirty_else_incremental():
    cfg = DsdvConfig(update_interval=10.0, full_dump_interval=200.0)
    sched, agent, log = agent_with_listener(cfg)
    agent.start(0.0)

    def feed(at, rows):
        sched.schedule(at, "feed", "0",
                       lambda: agent._handle_update(DsdvUpdate(1, "incremental", rows), at))

    feed(5.0, [(5, 0, 2), (6, 1, 2), (7, 2, 2)])  # 4 of 4 rows dirty at t=10
    sched.run_until(35.0)
    kinds = [u.kind for _, _, u in log.updates]
    assert kinds == ["full", "full", "incremental", "incremental"]
    # the incrementals carry only the refreshed self row
    assert [d for d, _, _ in log.updates[2][2].rows] == [0]
    assert log.updates[1][2].rows == [
        (0, 0, 4), (5, 1, 2), (6, 2, 2), (7, 3, 2)]


def two_pass_dump(deadlines, dirty, now, last_full_dump, cfg):
    """Kind and destinations of a periodic update by the rule that filters
    the dirty set first and the whole table only when a full dump is due.

    deadlines maps every destination in the table to its settling deadline.
    """
    def advertisable(dests):
        return [d for d in sorted(dests)
                if deadlines[d] is None or deadlines[d] <= now]

    full_due = now - last_full_dump >= cfg.full_dump_interval
    if not full_due:
        adv = advertisable(dirty)
        full_due = len(adv) > cfg.full_dump_dirty_fraction * len(deadlines)
    if full_due:
        return "full", advertisable(deadlines)
    return "incremental", adv


@settings(max_examples=300, deadline=None)
@given(
    rows=st.dictionaries(
        st.integers(1, 30),
        st.tuples(st.booleans(), st.none() | st.floats(0.0, 40.0)),
        max_size=20),
    now=st.floats(0.0, 40.0),
    since_full=st.just(math.inf) | st.floats(0.0, 100.0),
    fraction=st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0]),
)
def test_periodic_update_equals_two_pass_rule(rows, now, since_full, fraction):
    """rows: dest -> (dirty, settling deadline)."""
    cfg = DsdvConfig(full_dump_dirty_fraction=fraction)
    sched, agent, _log = agent_with_listener(cfg)
    sched.run_until(now)
    for dest, (dirty, deadline) in rows.items():
        # written as _handle_update would: ordered, and damped if settling
        entry = agent.table[dest] = DsdvEntry(dest, 9, 2, 2, deadline)
        insort(agent._entries, entry, key=attrgetter("dest"))
        if deadline is not None:
            agent._damped.add(dest)
        if dirty:
            agent.dirty.add(dest)
    last_full_dump = agent.last_full_dump = now - since_full
    agent._first_update_at = now  # so the next update is not in the past
    # the update refreshes the self row and marks it dirty first
    deadlines = {d: e.settling_deadline for d, e in agent.table.items()}
    kind, dests = two_pass_dump(deadlines, agent.dirty | {0}, now,
                                last_full_dump, cfg)
    sent = []
    agent._send = lambda rows, kind: sent.append((kind, rows))
    agent._periodic(0)
    table = agent.table
    assert sent == [(kind, [(d, table[d].metric, table[d].seq) for d in dests])]
    assert agent.last_full_dump == (now if kind == "full" else last_full_dump)


def test_slow_timer_forces_full_dump():
    cfg = DsdvConfig(update_interval=10.0, full_dump_interval=25.0)
    sched, agent, log = agent_with_listener(cfg)
    agent._handle_update(
        DsdvUpdate(1, "incremental", [(5, 0, 2), (6, 1, 2), (7, 2, 2)]), 0.0)
    agent.start(0.0)
    sched.run_until(45.0)
    kinds = [(round(t, 3), u.kind) for t, _, u in log.updates]
    assert kinds == [
        (0.0, "full"), (10.0, "incremental"), (20.0, "incremental"),
        (30.0, "full"), (40.0, "incremental"),
    ]


def test_update_rows_sorted_and_sized():
    sched, agent, log = agent_with_listener()
    agent._handle_update(
        DsdvUpdate(1, "incremental", [(7, 1, 2), (3, 0, 2), (5, 2, 2)]), 0.0)
    agent.start(0.0)
    sched.run_until(1.0)
    _, size, upd = log.updates[0]
    assert [d for d, _, _ in upd.rows] == [0, 3, 5, 7]
    assert size == 24 + 12 * 4


def test_self_row_resurrection_outruns_stale_news():
    sched, agent, log = agent_with_listener()
    agent.own_seq = 4
    agent.table[0].seq = 4
    agent._handle_update(DsdvUpdate(1, "incremental", [(0, INFINITE, 5)]), 1.0)
    assert agent.own_seq == 6
    assert agent.table[0].seq == 6
    assert agent.table[0].metric == 0
    agent._handle_update(DsdvUpdate(1, "incremental", [(0, 2, 8)]), 2.0)
    assert agent.own_seq == 10
    assert agent.table[0].next_hop == 0


def test_broken_route_resurrected_by_fresher_even_seq():
    sched, agent, log = agent_with_listener()
    agent._handle_update(DsdvUpdate(1, "incremental", [(7, 1, 4)]), 0.0)
    agent.handle_neighbor_loss(1, 1.0)
    assert agent.route_lookup(7) is None
    assert agent.table[7].seq == 5
    agent._handle_update(DsdvUpdate(2, "incremental", [(7, 3, 6)]), 2.0)
    entry = agent.table[7]
    assert (entry.next_hop, entry.metric, entry.seq) == (2, 4, 6)
    assert agent.route_lookup(7) == 2


def test_parity_holds_through_breakage_and_news():
    rng = random.Random(4)
    positions = {i: (100.0 + 140.0 * i, 400.0) for i in range(6)}
    sched, mob, radio, agents, _ = build(positions)
    sched.run_until(91.0)

    def check_all():
        for agent in agents.values():
            for entry in agent.table.values():
                assert (entry.seq % 2 == 1) == (entry.metric == INFINITE)

    check_all()
    agents[2].handle_neighbor_loss(3, 91.0)
    check_all()
    for _ in range(40):
        node = rng.choice(list(agents))
        dest = rng.randrange(6)
        seq = rng.randrange(20)
        metric = INFINITE if seq % 2 else rng.randrange(5)
        agents[node]._handle_update(
            DsdvUpdate((node + 1) % 6, "incremental", [(dest, metric, seq)]), 92.0)
        check_all()
    sched.run_until(140.0)
    check_all()


def test_data_follows_converged_routes():
    positions = {i: (100.0 + 200.0 * i, 400.0) for i in range(4)}
    sched, mob, radio, agents, delivered = build(positions)
    sched.run_until(61.0)
    agents[0].send_packet(DataPacket("f0", 0, 512), 3)
    sched.run_until(62.0)
    assert [(n, pkt.seq) for n, pkt, _ in delivered] == [(3, 0)]


def test_no_route_drops_data_with_flow_loss():
    sched = Scheduler()
    mob = MobilityModel()
    ledger = LedgerStub()
    radio = RadioMedium(sched, mob, ledger)
    mob.add_node(0, 100.0, 400.0)
    agent = DsdvAgent(sched, radio, 0, deliver_up=lambda packet, now: None)
    agent.send_packet(DataPacket("f0", 3, 512), 7)
    assert ledger.drops == [("f0", 3, 0.0)]
    assert ledger.reasons == ["no-route"]


def test_idle_stale_route_outlives_departed_neighbor():
    positions = {0: (100.0, 400.0), 1: (300.0, 400.0)}
    sched, mob, radio, agents, _ = build(positions)
    sched.run_until(16.0)
    assert agents[0].table[1].metric == 1
    mob.set_motion(1, (2500.0, 400.0), 150.0, 16.0)
    sched.run_until(200.0)
    # no data was ever sent, so nothing could fail and the row stays alive
    assert agents[0].table[1].alive()
