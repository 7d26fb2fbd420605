"""Transport tests: pacing, window growth, recovery, conservation."""

import random

import pytest

from vanetsim.engine import Scheduler
from vanetsim.transport import (
    INITIAL_RTO,
    AckPacket,
    DataPacket,
    FlowConfig,
    TcpSink,
    TcpSource,
)


class LedgerStub:
    def __init__(self):
        self.handoffs = []
        self.cwnd_samples = []
        self.sink_deliveries = []

    def on_data_handoff(self, flow, seq, t):
        self.handoffs.append((t, seq))

    def on_cwnd(self, flow, t, value):
        self.cwnd_samples.append((t, value))

    def on_sink_delivery(self, flow, seq, size, t):
        self.sink_deliveries.append((t, seq))


class Auditor:
    """Checks the sequence-number partition after every transport event."""

    def __init__(self):
        self.checks = 0

    def check_source(self, src):
        assert len(src.in_flight) <= int(src.cwnd)
        in_f = set(src.in_flight)
        pend = set(src.pending)
        assert not (in_f & pend)
        for s in in_f | pend:
            assert src.highest_acked < s < src.next_seq
        acked = src.highest_acked + 1
        unsent = src.config.max_packets - src.next_seq
        assert acked + len(in_f) + len(pend) + unsent == src.config.max_packets
        self.checks += 1


def make_pair(sched, cfg, ledger, auditor=None, drop_data=None,
              drop_ack=None, latency=0.001):
    """Source and sink joined by a fixed-latency wire with optional drops."""
    ends = {}

    def send_data(pkt, dest):
        if drop_data is not None and drop_data(pkt):
            return
        sched.schedule(sched.now + latency, "wire", str(dest),
                       lambda: ends["sink"].on_data(pkt, sched.now))

    def send_ack(pkt, dest):
        if drop_ack is not None and drop_ack(pkt):
            return
        sched.schedule(sched.now + latency, "wire", str(dest),
                       lambda: ends["src"].on_ack(pkt.seq, sched.now))

    ends["src"] = TcpSource(sched, cfg, send_data, ledger, auditor)
    ends["sink"] = TcpSink(sched, cfg, send_ack, ledger)
    return ends["src"], ends["sink"]


def test_flow_config_validation():
    with pytest.raises(ValueError, match="source equals sink"):
        FlowConfig("f0", 3, 3, 0.0, 0.29)
    with pytest.raises(ValueError, match="data size > ack size"):
        FlowConfig("f0", 0, 1, 0.0, 0.29, data_packet_size=100, ack_size=210)
    with pytest.raises(ValueError, match="max_packets"):
        FlowConfig("f0", 0, 1, 0.0, 0.29, max_packets=0)
    with pytest.raises(ValueError, match="send_interval"):
        FlowConfig("f0", 0, 1, 0.0, 0.0)


def test_retransmission_grid_without_a_route():
    """With every packet dropped, handoffs follow start + {0,1,3,7,15} + 8j."""
    sched = Scheduler()
    led = LedgerStub()
    cfg = FlowConfig("f1", 1, 25, 30.0, 0.29)
    src = TcpSource(sched, cfg, lambda pkt, dest: None, ledger=led)
    src.start()
    sched.run_until(158.0)
    expected = [30.0, 31.0, 33.0, 37.0, 45.0] + [45.0 + 8.0 * j for j in range(1, 15)]
    assert [t for t, _ in led.handoffs] == pytest.approx(expected)
    assert {s for _, s in led.handoffs} == {0}
    assert src.cwnd == 1.0
    assert src.rto == 8.0


def test_new_sequences_only_at_pace_ticks():
    sched = Scheduler()
    led = LedgerStub()
    cfg = FlowConfig("f0", 0, 15, 0.0, 0.5, max_packets=10)
    src, sink = make_pair(sched, cfg, ledger=led)
    src.start()
    sched.run_until(10.0)
    assert src.complete
    # one fresh sequence per tick even though ACKs open the window sooner
    assert [(t, s) for t, s in led.handoffs] == [(0.5 * k, k) for k in range(10)]


def test_slow_start_then_congestion_avoidance():
    sched = Scheduler()
    led = LedgerStub()
    cfg = FlowConfig("f0", 0, 15, 0.0, 0.05, max_packets=50)
    src, sink = make_pair(sched, cfg, ledger=led)
    src.start()
    sched.run_until(20.0)
    assert src.complete
    values = [v for _t, v in led.cwnd_samples]
    assert values[0] == 1.0
    assert values[1:6] == [2.0, 3.0, 4.0, 5.0, 6.0]
    assert values[31] == 32.0
    assert values[32] == 32.03125


def test_timeout_multiplicative_decrease():
    sched = Scheduler()
    cfg = FlowConfig("f0", 0, 15, 0.0, 0.1, max_packets=100)
    src = TcpSource(sched, cfg, lambda pkt, dest: None, LedgerStub())
    src.start()
    src.cwnd = 16.0
    sched.run_until(1.5)  # first rto fires at 1.0
    assert src.ssthresh == 8.0
    assert src.cwnd == 1.0


def test_rto_resets_on_new_ack():
    sched = Scheduler()
    cfg = FlowConfig("f0", 0, 15, 0.0, 0.1)
    src = TcpSource(sched, cfg, lambda pkt, dest: None, LedgerStub())
    src.start()
    sched.run_until(10.0)
    assert src.rto > INITIAL_RTO
    src.on_ack(0, sched.now)
    assert src.rto == INITIAL_RTO


def test_stale_ack_is_ignored():
    sched = Scheduler()
    cfg = FlowConfig("f0", 0, 15, 0.0, 0.1)
    src = TcpSource(sched, cfg, lambda pkt, dest: None, LedgerStub())
    src.start()
    sched.run_until(0.2)
    before = (src.cwnd, src.highest_acked, set(src.in_flight))
    src.on_ack(-1, sched.now)
    assert (src.cwnd, src.highest_acked, src.in_flight) == before


def test_sink_cumulative_ack_values():
    sched = Scheduler()
    cfg = FlowConfig("f0", 0, 15, 0.0, 0.1)
    acks = []
    sink = TcpSink(sched, cfg, lambda pkt, dest: acks.append(pkt.seq),
                   LedgerStub())
    for seq in range(5):
        sink.on_data(DataPacket("f0", seq, 512), 0.0)
    assert acks == [0, 1, 2, 3, 4]
    sink.on_data(DataPacket("f0", 7, 512), 0.1)
    assert acks[-1] == 4  # gap at 5 and 6 holds the cumulative ACK back
    sink.on_data(DataPacket("f0", 5, 512), 0.2)
    assert acks[-1] == 5
    sink.on_data(DataPacket("f0", 6, 512), 0.3)
    assert acks[-1] == 7
    assert (sink.received.floor, sink.received.others) == (8, set())


def test_in_order_flow_keeps_no_out_of_order_seqs():
    sched = Scheduler()
    cfg = FlowConfig("f0", 0, 15, 0.0, 0.1, max_packets=30)
    src, sink = make_pair(sched, cfg, LedgerStub())
    others = []

    def on_data(pkt, now, receive=sink.on_data):
        receive(pkt, now)
        others.append(len(sink.received.others))

    sink.on_data = on_data
    src.start()
    sched.run_until(60.0)
    assert src.complete
    assert sink.received.floor == 30
    assert others == [0] * 30


def test_sink_acks_duplicates_but_reports_them_once():
    sched = Scheduler()
    led = LedgerStub()
    cfg = FlowConfig("f0", 0, 15, 0.0, 0.1)
    acks = []
    sink = TcpSink(sched, cfg, lambda pkt, dest: acks.append(pkt.seq), ledger=led)
    sink.on_data(DataPacket("f0", 0, 512), 0.0)
    sink.on_data(DataPacket("f0", 0, 512), 0.5)
    assert acks == [0, 0]
    assert len(led.sink_deliveries) == 1


def test_single_packet_flow_completes():
    sched = Scheduler()
    led = LedgerStub()
    cfg = FlowConfig("f0", 0, 15, 0.0, 0.1, max_packets=1)
    src, sink = make_pair(sched, cfg, ledger=led)
    src.start()
    sched.run_until(30.0)
    assert src.complete
    assert len(led.handoffs) == 1
    assert sched.pending_count() == 0


def test_reliability_and_conservation_under_random_loss():
    sched = Scheduler()
    led = LedgerStub()
    auditor = Auditor()
    rng = random.Random(7)
    cfg = FlowConfig("f3", 47, 77, 0.0, 0.1, max_packets=40)
    src, sink = make_pair(
        sched, cfg, ledger=led, auditor=auditor,
        drop_data=lambda pkt: rng.random() < 0.3,
        drop_ack=lambda pkt: rng.random() < 0.3,
    )
    src.start()
    sched.run_until(600.0)
    assert src.complete
    # the delivered set is exactly range(40): a floor of 40, nothing else
    assert sink.received.floor == 40
    assert sink.received.others == set()
    assert len(led.sink_deliveries) == 40
    assert auditor.checks > 100
