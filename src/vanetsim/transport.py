"""Simplified TCP with an application-limited (paced) source.

The application releases at most one new sequence number per send
interval, like a paced file transfer, so a flow's lifetime stretches
over the whole run instead of bursting at line rate. Everything else is
a small timeout-driven TCP: slow start below ssthresh (+1 per ACK),
congestion avoidance above it (+1/cwnd per ACK), and on timeout the
classic multiplicative decrease with a doubling, bounded retransmission
timer. There is no fast retransmit; recovery is timer-only.

Sequence accounting is a strict partition: every sequence number is in
exactly one of acked / in-flight / pending-retransmit / unsent, which an
attached auditor can verify after every state change.

The sink acknowledges every arriving data packet (duplicates included)
with a cumulative ACK carrying the highest in-order sequence received.
"""

import math
from dataclasses import dataclass

from .rules import Config, ConfigError, check_file_name, rule

INITIAL_SSTHRESH = 32.0
INITIAL_RTO = 1.0
RTO_MIN = 0.2
RTO_MAX = 8.0
# a frame's bit count must stay below 2**53, where floats hold every int
MAX_FRAME_BYTES = 2**50


@dataclass(frozen=True)
class FlowConfig(Config):
    flow: str = rule(check=check_file_name)  # a directory name under metrics/
    src: int = rule(integer=True)
    sink: int = rule(integer=True)
    start_t: float = rule(0.0)
    send_interval: float = rule(0.1, positive=True)
    data_packet_size: int = rule(512, integer=True, positive=True, most=MAX_FRAME_BYTES)
    ack_size: int = rule(210, integer=True, positive=True, most=MAX_FRAME_BYTES)
    max_packets: int = rule(2048, integer=True, positive=True)

    def __post_init__(self):
        super().__post_init__()
        if self.src == self.sink:
            raise ConfigError(f"flow {self.flow}: source equals sink ({self.src})")
        if self.data_packet_size <= self.ack_size:
            raise ConfigError(f"flow {self.flow}: need data size > ack size, "
                              f"got {self.data_packet_size}/{self.ack_size}")


@dataclass
class DataPacket:
    flow: str
    seq: int
    size: int
    kind: str = "DATA"


@dataclass
class AckPacket:
    flow: str
    seq: int  # highest in-order data sequence received, -1 for none
    size: int
    kind: str = "ACK"


class DeliveredSeqs:
    """A set of delivered sequence numbers, kept as a contiguous floor.

    It holds every seq in [0, floor) plus those in ``others``. In-order
    deliveries only raise the floor, so the set stays as small as the
    sequences delivered out of order (or below 0).
    """

    __slots__ = ("floor", "others")

    def __init__(self):
        self.floor = 0
        self.others: set[int] = set()

    def __contains__(self, seq: int) -> bool:
        return 0 <= seq < self.floor or seq in self.others

    def add(self, seq: int) -> None:
        if seq != self.floor:
            self.others.add(seq)
            return
        floor = seq + 1
        others = self.others
        while floor in others:
            others.remove(floor)
            floor += 1
        self.floor = floor


class TcpSource:
    def __init__(self, sched, config: FlowConfig, route_send, ledger, auditor=None):
        self.sched = sched
        self.config = config
        self.route_send = route_send
        self.ledger = ledger
        self.auditor = auditor
        self.cwnd = 1.0
        self.ssthresh = INITIAL_SSTHRESH
        self.rto = INITIAL_RTO
        self.next_seq = 0
        self.highest_acked = -1
        self.in_flight: set[int] = set()
        self.pending: list[int] = []  # timed-out seqs awaiting retransmission
        self.complete = False
        self._timer = None

    def start(self) -> None:
        self.sched.schedule(self.config.start_t, "tick", self.config.flow,
                            lambda: self._tick(0))

    # -- sending --------------------------------------------------------

    def _window_room(self) -> int:
        return int(self.cwnd) - len(self.in_flight)

    def _tick(self, k: int) -> None:
        if self.complete:
            return
        if k == 0:
            self._sample_cwnd()
        if self._window_room() >= 1:
            if self.pending:
                self._send(self.pending.pop(0))
            elif self.next_seq < self.config.max_packets:
                self._send(self.next_seq)
                self.next_seq += 1
        self._audit()
        nxt = self.config.start_t + (k + 1) * self.config.send_interval
        self.sched.schedule(nxt, "tick", self.config.flow, lambda: self._tick(k + 1))

    def _send(self, seq: int) -> None:
        now = self.sched.now
        self.in_flight.add(seq)
        self.ledger.on_data_handoff(self.config.flow, seq, now)
        if self._timer is None:
            self._arm_timer()
        self.route_send(
            DataPacket(self.config.flow, seq, self.config.data_packet_size),
            self.config.sink,
        )

    # -- timer ----------------------------------------------------------

    def _arm_timer(self) -> None:
        self._timer = self.sched.schedule(
            self.sched.now + self.rto, "rto", self.config.flow, self._on_timeout
        )

    def _cancel_timer(self) -> None:
        if self._timer is not None:
            self.sched.cancel(self._timer)
            self._timer = None

    def _on_timeout(self) -> None:
        self._timer = None
        if not self.in_flight or self.complete:
            return
        self.ssthresh = max(float(math.floor(self.cwnd / 2)), 2.0)
        self.cwnd = 1.0
        self._sample_cwnd()
        self.rto = min(max(self.rto * 2, RTO_MIN), RTO_MAX)
        self.pending = sorted(self.in_flight.union(self.pending))
        self.in_flight.clear()
        self._send(self.pending.pop(0))
        self._audit()

    # -- receiving ------------------------------------------------------

    def on_ack(self, ack: int, now: float) -> None:
        if self.complete:
            return
        if ack <= self.highest_acked:
            return
        self.highest_acked = ack
        self.in_flight = {s for s in self.in_flight if s > ack}
        self.pending = [s for s in self.pending if s > ack]
        self.rto = INITIAL_RTO
        if self.cwnd < self.ssthresh:
            self.cwnd += 1.0
        else:
            self.cwnd += 1.0 / self.cwnd
        self._sample_cwnd()
        self._cancel_timer()
        if ack == self.config.max_packets - 1:
            self.complete = True
            self._audit()
            return
        while self.pending and self._window_room() >= 1:
            self._send(self.pending.pop(0))
        if self.in_flight and self._timer is None:
            self._arm_timer()
        self._audit()

    # -- bookkeeping ------------------------------------------------------

    def _sample_cwnd(self) -> None:
        self.ledger.on_cwnd(self.config.flow, self.sched.now, self.cwnd)

    def _audit(self) -> None:
        if self.auditor is not None:
            self.auditor.check_source(self)


class TcpSink:
    def __init__(self, sched, config: FlowConfig, route_send, ledger):
        self.sched = sched
        self.config = config
        self.route_send = route_send
        self.ledger = ledger
        self.received = DeliveredSeqs()

    def on_data(self, packet: DataPacket, now: float) -> None:
        if packet.seq not in self.received:
            self.received.add(packet.seq)
            self.ledger.on_sink_delivery(
                self.config.flow, packet.seq, packet.size, now
            )
        self.route_send(
            AckPacket(self.config.flow, self.received.floor - 1, self.config.ack_size),
            self.config.src,
        )
