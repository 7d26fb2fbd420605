"""Unit-disk radio with per-node FIFO serialization.

A frame occupies its sender for size*8/bandwidth seconds; transmissions
queue behind the sender's previous frames. Range is a closed disk
evaluated at the moment the frame actually hits the air (its airtime
start), and delivery lands exactly transmission time plus a fixed
per-hop overhead later. One frame's receptions are one scheduler event,
which hands the frame to each receiver in ascending id order. There is
no contention model: receivers are never busy, only senders serialize.
"""

import bisect
import math
from dataclasses import dataclass, field
from typing import Callable, Optional

from .engine import Scheduler
from .mobility import MobilityModel
from .rules import Config, rule

BROADCAST = -1
# metres either side of the range edge within which position rounding
# can decide a range check
EDGE_BAND = 1e-6


def _together(va, vb) -> bool:
    """Equal velocities up to rounding, as on parallel legs at one speed."""
    return (abs(va[0] - vb[0]) + abs(va[1] - vb[1])
            <= 1e-12 * (abs(va[0]) + abs(va[1])))


@dataclass(frozen=True)
class RadioConfig(Config):
    radio_range: float = rule(250.0)
    bandwidth: float = rule(10_000_000.0, positive=True)
    per_hop_overhead: float = rule(50e-6)


@dataclass
class RoutedPacket:
    """Network-layer envelope a frame carries hop by hop."""

    origin: int
    dst: int
    packet: object
    hops: list = field(default_factory=list)  # relay nodes, in forwarding order


@dataclass(slots=True)
class Frame:
    kind: str
    src: int
    dst: int
    size: int
    payload: object = None
    trace_id: Optional[int] = None


class RadioMedium:
    """The shared channel. ``tap`` observes every send, reception and
    loss, and the routing agents report their data drops and paths to it."""

    def __init__(
        self,
        sched: Scheduler,
        mobility: MobilityModel,
        tap,
        config: Optional[RadioConfig] = None,
    ):
        self.sched = sched
        self.mobility = mobility
        self.tap = tap
        self.config = config or RadioConfig()
        self._receivers: dict[int, Callable[[Frame], None]] = {}
        self._ids: list[int] = []  # registered ids, ascending
        self._busy_until: dict[int, float] = {}
        # settled node -> its settled neighbours, valid while _memo_key holds
        self._memo: dict[int, list[int]] = {}
        self._memo_key = None

    def register(self, node_id: int, on_receive: Callable[[Frame], None]) -> None:
        if node_id not in self._receivers:
            bisect.insort(self._ids, node_id)
            self._memo = {}
        self._receivers[node_id] = on_receive
        self._busy_until.setdefault(node_id, 0.0)

    def in_range(self, a: int, b: int, t: float) -> bool:
        pos = self.mobility.position_at
        d = math.dist(pos(a, t), pos(b, t))
        r = self.config.radio_range
        if abs(d - r) > EDGE_BAND:
            return d <= r
        return self._edge_in_range(a, b, t, d)

    def _edge_in_range(self, a: int, b: int, t: float, d: float) -> bool:
        """The range rule for a pair within EDGE_BAND of the edge, d apart
        at t. A pair moving together keeps the distance it had when its
        velocities took effect: between leg ends, interpolated positions
        round that distance a few ulps either way, and would flicker."""
        mob = self.mobility
        if _together(mob.velocity_at(a, t), mob.velocity_at(b, t)):
            since = max(mob.velocity_since(a, t), mob.velocity_since(b, t))
            if since > -math.inf:
                pos = mob.position_at
                d = math.dist(pos(a, since), pos(b, since))
        return d <= self.config.radio_range

    def neighbors(self, node_id: int, t: float) -> list[int]:
        """Registered nodes other than node_id in range at t, ascending.

        A node settled at t sits at its final rest point, so the range
        checks among settled nodes hold for every query with the same
        plan version and the same moving nodes, earlier times included;
        they are memoised on that key.
        """
        position_at = self.mobility.position_at
        dist = math.dist
        r = self.config.radio_range
        p = position_at(node_id, t)
        lo, hi = r - EDGE_BAND, r + EDGE_BAND
        edge = self._edge_in_range

        def near(ids):
            # in_range's rule, with its edge case inline
            return [o for o in ids if o != node_id
                    and (d := dist(p, position_at(o, t))) <= hi
                    and (d < lo or edge(node_id, o, t, d))]

        moving = self.mobility.moving_at(t)
        if node_id in moving:
            return near(self._ids)
        key = (self.mobility.plan_version, moving)
        if key != self._memo_key:
            self._memo = {}
            self._memo_key = key
        settled = self._memo.get(node_id)
        if settled is None:
            settled = self._memo[node_id] = near(
                [o for o in self._ids if o not in moving])
        return sorted(settled + near([o for o in moving if o in self._receivers]))

    def transmit(self, frame: Frame, on_fail: Optional[Callable[[Frame], None]] = None):
        """Queue a frame on the sender's FIFO.

        The range check and (for unicast) the failure callback run at the
        frame's airtime start, which is now unless the sender is busy.
        """
        now = self.sched.now
        airtime = frame.size * 8 / self.config.bandwidth
        start = self._busy_until.get(frame.src, 0.0)
        if start <= now:
            self._busy_until[frame.src] = now + airtime
            self._launch(frame, on_fail, airtime)
        else:
            self._busy_until[frame.src] = start + airtime
            self.sched.schedule(
                start, "tx", frame.src,
                lambda: self._launch(frame, on_fail, airtime))

    def _launch(self, frame: Frame, on_fail, airtime: float) -> None:
        now = self.sched.now
        tap = self.tap
        tap.on_send(frame, now)
        dst = frame.dst
        if dst == BROADCAST:
            targets = self.neighbors(frame.src, now)
            if not targets:
                tap.on_loss(frame, "no-neighbors", now)
                return
        elif dst in self._receivers and self.in_range(frame.src, dst, now):
            targets = (dst,)
        else:
            tap.on_loss(frame, "out-of-range", now)
            if on_fail is not None:
                on_fail(frame)
            return
        deliver_at = now + airtime + self.config.per_hop_overhead
        receivers = self._receivers

        def deliver():
            for target in targets:
                tap.on_delivery(frame, target, deliver_at)
                receivers[target](frame)

        self.sched.schedule(deliver_at, "rx", dst, deliver)

    def link_break_time(self, a: int, b: int, from_t: float) -> float:
        """Earliest time >= from_t at which a and b are out of range.

        Out of range is what ``in_range`` says: ``math.dist`` above the
        range, read for a pair moving together where its velocities took
        effect. Solved analytically from the two motion plans: within each
        span of constant velocities the squared distance is quadratic in
        time, so the exit is a closed-form root. Returns from_t if already
        out of range, math.inf if never.
        """
        position_at = self.mobility.position_at
        breakpoints = self.mobility.motion_breakpoints
        starts = [from_t] + sorted(set(breakpoints(a, from_t, math.inf)
                                       + breakpoints(b, from_t, math.inf)))
        for i, seg_start in enumerate(starts):
            seg_len = (starts[i + 1] - seg_start) if i + 1 < len(starts) else math.inf
            if not self.in_range(a, b, seg_start):
                return seg_start
            pa = position_at(a, seg_start)
            pb = position_at(b, seg_start)
            t_hit = self._segment_break(a, b, pa, pb, seg_start, seg_len)
            if t_hit is not None:
                return t_hit
        return math.inf

    def _segment_break(self, a, b, pa, pb, seg_start, seg_len) -> Optional[float]:
        """Exit time within one constant-velocity span, or None; pa, pb at
        its start, in range."""
        va = self.mobility.velocity_at(a, seg_start)
        vb = self.mobility.velocity_at(b, seg_start)
        dx, dy = pa[0] - pb[0], pa[1] - pb[1]
        vx, vy = va[0] - vb[0], va[1] - vb[1]
        qa = vx * vx + vy * vy
        qb = 2 * (dx * vx + dy * vy)
        r = self.config.radio_range
        # r * r overflows to inf, where ** raises: the link never breaks
        qc = dx * dx + dy * dy - r * r
        if _together(va, vb):
            return None  # the distance in_range reads holds all span
        # a pair on the edge may square to just outside it, which can sink
        # the discriminant below 0 (it leaves at the vertex) or the exit
        # root below 0 (it leaves now)
        disc = max(qb * qb - 4 * qa * qc, 0.0)
        tau = max((-qb + math.sqrt(disc)) / (2 * qa), 0.0)
        if tau >= seg_len:
            return None
        # the squared distance is convex within a segment, so a pair the
        # radio finds in range at the segment's end never left it; this
        # also catches a float root just short of an end on the boundary
        if self.in_range(a, b, seg_start + seg_len):
            return None
        return seg_start + tau
