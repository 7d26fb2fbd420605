"""On-demand routing: flooded route requests, unicast replies, error fanout.

Routes exist only while traffic wants them. A source floods a request;
the destination (or an intermediate node holding a strictly fresher
route) unicasts a reply back along the reverse entries the flood left
behind. A failed link invalidates every route through the dead next hop
and broadcasts an error notice for the destinations that carried recent
traffic; sources simply rediscover on their next send attempt. Discovery
retries double their wait, and after the last retry the buffered packets
are dropped.

Hop-count bookkeeping follows the convention that a reverse entry counts
hops from zero (a direct neighbor of the origin stores hop 0), so
reverse entries run one lower than the true edge count. Forward entries,
accumulated by replies hop by hop from the destination, carry true edge
counts.

Route entries are never removed: an invalidated or expired entry keeps
its sequence number as a floor so stale offers can never displace newer
knowledge. Link failures surface two ways, both without beacons: a
unicast to a node that left range fails synchronously, and any entry's
next hop is watched with an analytically computed link-break time.
"""

import math
from dataclasses import dataclass

from .radio import BROADCAST, Frame, RoutedPacket
from .routing import RoutingAgent
from .rules import Config, rule


@dataclass(frozen=True)
class AodvConfig(Config):
    ttl: int = rule(35, integer=True, positive=True)
    node_traversal: float = rule(0.04, positive=True)
    max_retries: int = rule(3, integer=True)
    route_lifetime: float = rule(3.0)
    seen_expiry: float = rule(10.0)
    rreq_size: int = rule(64, integer=True)
    rrep_size: int = rule(44, integer=True)
    rerr_base_size: int = rule(12, integer=True)
    rerr_per_dest: int = rule(8, integer=True)

    @property
    def reply_wait(self) -> float:
        # round trip across the whole TTL at one traversal per hop
        return 2.0 * self.ttl * self.node_traversal


@dataclass
class Rreq:
    origin: int
    origin_seq: int
    dest: int
    dest_seq_known: int  # -1 when the origin has no sequence on file
    rreq_id: int
    hop_count: int
    ttl: int


@dataclass
class Rrep:
    dest: int
    dest_seq: int
    origin: int
    hop_count: int


@dataclass
class Rerr:
    unreachable: list  # (dest, dest_seq) pairs, sorted by dest


@dataclass
class RouteEntry:
    dest: int
    next_hop: int
    hop_count: int
    dest_seq: int
    expires_at: float
    valid: bool
    last_used: float

    def usable(self, now: float) -> bool:
        return self.valid and now <= self.expires_at


class _Discovery:
    __slots__ = ("retries", "wait", "buffer", "timer")

    def __init__(self, wait, buffer, timer):
        self.retries = 0
        self.wait = wait
        self.buffer = buffer
        self.timer = timer


class AodvAgent(RoutingAgent):
    config_class = AodvConfig

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.next_rreq_id = 0
        self.seen: dict[tuple[int, int], float] = {}
        self._seen_cap = 512  # seen's size that triggers the next prune
        self.pending: dict[int, _Discovery] = {}
        self._watches: dict[int, tuple] = {}  # next_hop -> (plan version, handle)

    def route_lookup(self, dest: int):
        """Current usable next hop toward dest, or None."""
        entry = self.table.get(dest)
        if entry is not None and entry.usable(self.sched.now):
            return entry.next_hop
        return None

    def _next_hop(self, dest: int, now: float):
        """route_lookup that refreshes the route and, if plans changed, its watch."""
        entry = self.table.get(dest)
        if entry is None or not entry.valid or now > entry.expires_at:
            return None
        entry.last_used = now
        entry.expires_at = now + self.config.route_lifetime
        hop = entry.next_hop
        w = self._watches.get(hop)
        if w is None or w[0] != self.radio.mobility.plan_version:
            self._ensure_watch(hop)
        return hop

    def _no_route(self, env: RoutedPacket, now: float) -> None:
        if not env.hops:
            # our own packet: hold it and look for a route
            self._buffer_and_discover(env.packet, env.dst)
            return
        # relay with no usable route: report and drop
        entry = self.table.get(env.dst)
        self._send_rerr([(env.dst, entry.dest_seq if entry is not None else 0)])
        self._drop(env.packet, now, "no-route")

    def _buffer_and_discover(self, packet, dest: int) -> None:
        if dest in self.pending:
            self.pending[dest].buffer.append(packet)
            return
        wait = self.config.reply_wait
        self.pending[dest] = _Discovery(wait, [packet], self._flood(dest, wait))

    def _flood(self, dest: int, wait: float) -> list:
        """Broadcast a fresh request for dest; returns its reply timer."""
        cfg = self.config
        self.own_seq += 1
        rid = self.next_rreq_id
        self.next_rreq_id += 1
        self.seen[(self.node_id, rid)] = self.sched.now + cfg.seen_expiry
        entry = self.table.get(dest)
        known = entry.dest_seq if entry is not None else -1
        rreq = Rreq(self.node_id, self.own_seq, dest, known, rid, 0, cfg.ttl)
        self.radio.transmit(Frame("RREQ", self.node_id, BROADCAST, cfg.rreq_size, rreq))
        return self.sched.schedule(self.sched.now + wait, "rreq-timer",
                                   self.node_id, lambda: self._retry(dest))

    def _retry(self, dest: int) -> None:
        disc = self.pending.get(dest)
        if disc is None:
            return
        disc.retries += 1
        if disc.retries >= self.config.max_retries:
            del self.pending[dest]
            for pkt in disc.buffer:
                self._drop(pkt, self.sched.now, "discovery-exhausted")
            return
        disc.wait *= 2
        disc.timer = self._flood(dest, disc.wait)

    # -- frame dispatch -----------------------------------------------------

    def on_frame(self, frame: Frame) -> None:
        now = self.sched.now
        kind = frame.kind
        if kind == "DATA" or kind == "ACK":
            self._handle_data(frame.payload, now)
        elif kind == "RREQ":
            self._handle_rreq(frame.payload, frame.src, now)
        elif kind == "RREP":
            self._handle_rrep(frame.payload, frame.src, now)
        else:
            self._handle_rerr(frame.payload, frame.src, now)

    def _handle_rreq(self, rreq: Rreq, prev_hop: int, now: float) -> None:
        key = (rreq.origin, rreq.rreq_id)
        if key in self.seen:
            return
        self.seen[key] = now + self.config.seen_expiry
        # ids are never reused, so a remembered id is always a duplicate;
        # the expiry only says which ids a prune may forget, and a prune
        # per doubling keeps its amortised cost constant per id
        if len(self.seen) > self._seen_cap:
            self.seen = {k: e for k, e in self.seen.items() if e > now}
            self._seen_cap = max(512, 2 * len(self.seen))
        self._update_route(rreq.origin, prev_hop, rreq.hop_count, rreq.origin_seq, now)
        if rreq.dest == self.node_id:
            self.own_seq += 1
            self._send_rrep(Rrep(self.node_id, self.own_seq, rreq.origin, 0), prev_hop)
            return
        entry = self.table.get(rreq.dest)
        if entry is not None and entry.usable(now) and entry.dest_seq > rreq.dest_seq_known:
            self._send_rrep(
                Rrep(rreq.dest, entry.dest_seq, rreq.origin, entry.hop_count), prev_hop
            )
            return
        if rreq.ttl <= 1:
            return
        fwd = Rreq(rreq.origin, rreq.origin_seq, rreq.dest, rreq.dest_seq_known,
                   rreq.rreq_id, rreq.hop_count + 1, rreq.ttl - 1)
        self.radio.transmit(
            Frame("RREQ", self.node_id, BROADCAST, self.config.rreq_size, fwd)
        )

    def _send_rrep(self, rrep: Rrep, to: int) -> None:
        self.radio.transmit(
            Frame("RREP", self.node_id, to, self.config.rrep_size, rrep),
            on_fail=self._control_fail,
        )

    def _handle_rrep(self, rrep: Rrep, prev_hop: int, now: float) -> None:
        self._update_route(rrep.dest, prev_hop, rrep.hop_count + 1, rrep.dest_seq, now)
        if rrep.origin == self.node_id:
            disc = self.pending.pop(rrep.dest, None)
            if disc is None:
                return
            self.sched.cancel(disc.timer)
            for pkt in disc.buffer:
                if self.route_lookup(rrep.dest) is None:
                    self._drop(pkt, now, "no-route-after-reply")
                else:
                    self._route(RoutedPacket(self.node_id, rrep.dest, pkt), now)
            return
        rev = self.table.get(rrep.origin)
        if rev is None or not rev.usable(now):
            return
        rev.last_used = now
        rev.expires_at = now + self.config.route_lifetime
        self._send_rrep(Rrep(rrep.dest, rrep.dest_seq, rrep.origin, rrep.hop_count + 1),
                        rev.next_hop)

    def _handle_rerr(self, rerr: Rerr, prev_hop: int, now: float) -> None:
        self._invalidate(prev_hop, rerr.unreachable, now)

    # -- forwarding and failure handling ---------------------------------

    def _data_fail(self, frame: Frame) -> None:
        env = frame.payload
        now = self.sched.now
        self.handle_link_failure(frame.dst, now)
        if env.origin == self.node_id:
            # our own packet: hold it and look for a fresh route; not lost
            self._buffer_and_discover(env.packet, env.dst)
        else:
            self._drop(env.packet, now, "out-of-range")

    def _control_fail(self, frame: Frame) -> None:
        self.handle_link_failure(frame.dst, self.sched.now)

    def handle_link_failure(self, dead: int, now: float) -> None:
        self._invalidate(dead, [(dest, None) for dest in sorted(self.table)], now)

    def _invalidate(self, hop: int, pairs, now: float) -> None:
        """Invalidate the valid routes to pairs' dests via hop and report
        the ones used within route_lifetime. A seq of None bumps the stored
        seq (own link failure); a reported seq raises it by max (RERR)."""
        affected = []
        for dest, seq in pairs:
            e = self.table.get(dest)
            if e is not None and e.valid and e.next_hop == hop:
                e.dest_seq = e.dest_seq + 1 if seq is None else max(e.dest_seq, seq)
                e.valid = False
                self._note_mutation(dest)
                if now - e.last_used <= self.config.route_lifetime:
                    affected.append((dest, e.dest_seq))
        if affected:
            self._send_rerr(affected)

    def _send_rerr(self, pairs) -> None:
        pairs = sorted(pairs)
        size = self.config.rerr_base_size + self.config.rerr_per_dest * len(pairs)
        self.radio.transmit(
            Frame("RERR", self.node_id, BROADCAST, size, Rerr(pairs))
        )

    # -- table upkeep ------------------------------------------------------

    def _update_route(self, dest, next_hop, hops, seq, now) -> None:
        if dest == self.node_id:
            return
        e = self.table.get(dest)
        if e is None:
            self.table[dest] = RouteEntry(
                dest, next_hop, hops, seq, now + self.config.route_lifetime, True, now
            )
        elif seq > e.dest_seq or (
            seq == e.dest_seq and (not e.valid or hops < e.hop_count)
        ):
            e.next_hop = next_hop
            e.hop_count = hops
            e.dest_seq = seq
            e.valid = True
            e.expires_at = now + self.config.route_lifetime
            e.last_used = now
        else:
            return
        self._note_mutation(dest)
        self._ensure_watch(next_hop)

    # -- geometric link watches -------------------------------------------

    def _ensure_watch(self, hop: int) -> None:
        version = self.radio.mobility.plan_version
        w = self._watches.get(hop)
        if w is not None and w[0] == version:
            return
        if w is not None and w[1] is not None:
            self.sched.cancel(w[1])
        tb = self.radio.link_break_time(self.node_id, hop, self.sched.now)
        handle = None
        if tb != math.inf:
            handle = self.sched.schedule(tb, "linkwatch", self.node_id,
                                         lambda h=hop: self._watch_fired(h))
        self._watches[hop] = (version, handle)

    def _watch_fired(self, hop: int) -> None:
        now = self.sched.now
        self._watches.pop(hop, None)
        if not any(e.valid and e.next_hop == hop for e in self.table.values()):
            return
        if self.radio.link_break_time(self.node_id, hop, now) <= now:
            self.handle_link_failure(hop, now)
        else:
            # motion plans changed since the watch was set; rearm
            self._ensure_watch(hop)
