"""Proactive distance-vector routing with destination sequence numbers.

Every node keeps a route to every destination it has heard of and
broadcasts its table on a fixed period (plus a one-off stagger so the
network does not fire in lockstep). Sequence numbers are minted by each
destination in even increments; a locally detected breakage marks the
route with the stored even sequence plus one, so odd always means
unreachable and a destination's next even number supersedes the bad
news everywhere.

Adoption rule: a row wins on greater sequence number, or on equal
sequence number with a strictly smaller metric. A newly adopted route
whose metric is worse than the one it replaces is damped: the table uses
it at once, but it is held out of outgoing updates (full dumps included)
until a settling deadline, since a better path with the same sequence
number usually arrives moments later.

Updates are full dumps when enough rows changed (or on a slow timer) and
incrementals otherwise. A full dump is one pass over the entries, which
the agent keeps in ascending destination order beside the table; the
destinations damped since the last full dump form a small set, so only
those are checked for a deadline still running, and only those have an
expired one cleared. Only locally detected link breakage triggers an
immediate update, rate-limited per node; propagated bad news and fresh
sequence numbers ride the periodic schedule. Link breakage is detected
solely by unicast transmission failure; there are no beacons, so an idle
stale route can outlive its link by a long time.
"""

import math
from bisect import insort
from dataclasses import dataclass
from operator import attrgetter
from typing import Optional

from .radio import BROADCAST, Frame
from .routing import RoutingAgent
from .rules import Config, rule

INFINITE = math.inf


@dataclass(frozen=True)
class DsdvConfig(Config):
    # a zero period would reschedule the broadcast at the same instant
    # forever, so simulated time would never advance
    update_interval: float = rule(15.0, positive=True)
    full_dump_interval: float = rule(90.0)
    settling_time: float = rule(6.0)
    trigger_min_gap: float = rule(1.0)
    full_dump_dirty_fraction: float = rule(0.5)
    header_size: int = rule(24, integer=True)
    row_size: int = rule(12, integer=True)


@dataclass
class DsdvUpdate:
    sender: int
    kind: str  # "full" or "incremental"
    rows: list  # (dest, metric, dest_seq) sorted by dest


@dataclass(slots=True)
class DsdvEntry:
    dest: int
    next_hop: int
    metric: float
    seq: int
    settling_deadline: Optional[float] = None

    def alive(self) -> bool:
        return self.seq % 2 == 0 and self.metric != INFINITE


class DsdvAgent(RoutingAgent):
    proactive = True
    config_class = DsdvConfig

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        me = DsdvEntry(self.node_id, self.node_id, 0, 0)
        self.table[self.node_id] = me
        # the table's entries in ascending dest order; entries are never
        # removed, so a new one is insorted where it is created
        self._entries = [me]
        # the dests damped since the last full dump or held back by it;
        # no other dest has a settling deadline
        self._damped: set[int] = set()
        self.dirty: set[int] = set()
        self.last_full_dump = -INFINITE
        self._last_trigger = -INFINITE
        self._trigger_deferred = False
        self._first_update_at = 0.0

    def start(self, first_update_at: float) -> None:
        self._first_update_at = first_update_at
        self.sched.schedule(first_update_at, "dsdv-periodic", self.node_id,
                            lambda: self._periodic(0))

    # -- update emission -------------------------------------------------

    def _held(self, now: float) -> set[int]:
        """The dests still settling at now; only a damped one can be."""
        table = self.table
        return {d for d in self._damped
                if table[d].settling_deadline is not None
                and table[d].settling_deadline > now}

    def _periodic(self, k: int) -> None:
        now = self.sched.now
        cfg = self.config
        table = self.table
        self.own_seq += 2
        table[self.node_id].seq = self.own_seq
        dirty = self.dirty
        dirty.add(self.node_id)
        held = self._held(now)
        if (now - self.last_full_dump >= cfg.full_dump_interval
                or len(dirty) - len(dirty & held)
                > cfg.full_dump_dirty_fraction * len(table)):
            # one pass over the ordered entries; only a damped dest can
            # carry a deadline, so only those need one cleared
            self.last_full_dump = now
            if held:
                rows = [(e.dest, e.metric, e.seq) for e in self._entries
                        if e.dest not in held]
            else:
                rows = [(e.dest, e.metric, e.seq) for e in self._entries]
            for d in self._damped - held:
                table[d].settling_deadline = None
            self._damped = held
            self.dirty = dirty & held
            self._send(rows, "full")
        else:
            self._broadcast(sorted(dirty - held), "incremental")
        self.sched.schedule(
            self._first_update_at + (k + 1) * cfg.update_interval,
            "dsdv-periodic", self.node_id, lambda: self._periodic(k + 1),
        )

    def _broadcast(self, dests: list[int], kind: str) -> None:
        rows = []
        for d in dests:
            e = self.table[d]
            e.settling_deadline = None
            rows.append((d, e.metric, e.seq))
        self.dirty.difference_update(dests)
        self._send(rows, kind)

    def _send(self, rows: list, kind: str) -> None:
        size = self.config.header_size + self.config.row_size * len(rows)
        self.radio.transmit(
            Frame("DSDV", self.node_id, BROADCAST, size,
                  DsdvUpdate(self.node_id, kind, rows))
        )

    def _trigger(self, now: float) -> None:
        if now - self._last_trigger >= self.config.trigger_min_gap:
            self._emit_trigger(now)
        elif not self._trigger_deferred:
            self._trigger_deferred = True
            self.sched.schedule(
                self._last_trigger + self.config.trigger_min_gap,
                "dsdv-trigger", self.node_id, self._deferred_trigger,
            )

    def _deferred_trigger(self) -> None:
        self._trigger_deferred = False
        self._emit_trigger(self.sched.now)

    def _emit_trigger(self, now: float) -> None:
        dests = sorted(self.dirty - self._held(now))
        if not dests:
            return
        self._last_trigger = now
        self._broadcast(dests, "incremental")

    # -- frame handling ----------------------------------------------------

    def on_frame(self, frame: Frame) -> None:
        now = self.sched.now
        if frame.kind == "DSDV":
            self._handle_update(frame.payload, now)
        else:
            self._handle_data(frame.payload, now)

    def _handle_update(self, update: DsdvUpdate, now: float) -> None:
        # full dumps make this the hottest loop of a DSDV run, and most of
        # their rows are no news: those are rejected on the sequence number
        # and the raw metric before any candidate is built
        me = self.node_id
        get = self.table.get
        dirty = self.dirty
        auditor = self.auditor
        sender = update.sender
        for dest, metric, seq in update.rows:
            e = get(dest)
            if e is None:
                e = self.table[dest] = DsdvEntry(
                    dest, sender, INFINITE if seq % 2 else metric + 1, seq)
                insort(self._entries, e, key=attrgetter("dest"))
            else:
                # the node's own row carries own_seq and metric 0, so this
                # test rejects any news about it at or below own_seq
                old_seq = e.seq
                if seq < old_seq or (seq == old_seq and (
                        metric + 1 >= e.metric or seq % 2)):
                    continue
                if dest == me:
                    # someone is spreading stale or bad news about us;
                    # mint a fresh even number above it
                    self.own_seq = seq + 1 if seq % 2 else seq + 2
                    e.seq = self.own_seq
                else:
                    cand_metric = INFINITE if seq % 2 else metric + 1
                    # a worse metric replacing a live route is damped
                    # (a finite metric always carries an even number)
                    if seq % 2 == 0 and cand_metric > e.metric:
                        e.settling_deadline = now + self.config.settling_time
                        self._damped.add(dest)
                    else:
                        e.settling_deadline = None
                    e.next_hop = sender
                    e.metric = cand_metric
                    e.seq = seq
            dirty.add(dest)
            if auditor is not None:
                auditor.on_route_mutation(me, dest)

    # -- data path ---------------------------------------------------------

    def route_lookup(self, dest: int) -> Optional[int]:
        return self._next_hop(dest, self.sched.now)

    def _next_hop(self, dest: int, now: float) -> Optional[int]:
        # a used route needs no upkeep; DsdvEntry.alive inlined
        e = self.table.get(dest)
        if e is not None and e.seq % 2 == 0 and e.metric != INFINITE:
            return e.next_hop
        return None

    def _data_fail(self, frame: Frame) -> None:
        # the packet is gone; poison the routes through the lost neighbour
        now = self.sched.now
        self.handle_neighbor_loss(frame.dst, now)
        self._drop(frame.payload.packet, now, "out-of-range")

    def handle_neighbor_loss(self, dead: int, now: float) -> None:
        changed = False
        for e in self._entries:
            if e.next_hop == dead and e.alive():
                e.seq += 1
                e.metric = INFINITE
                e.settling_deadline = None
                self.dirty.add(e.dest)
                self._note_mutation(e.dest)
                changed = True
        if changed:
            self._trigger(now)
