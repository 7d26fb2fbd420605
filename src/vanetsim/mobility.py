"""Node placement and motion plans on a rectangular field.

Every node carries a full motion plan: an ordered list of constant-speed
legs. Because the plan is data rather than scheduled state, a node's
position is computable for any time, past or future, which is what lets
the radio model solve link-break times analytically. Each plan also
records when the node settles for good and where, and keeps its legs'
start times in order, so a position or velocity read bisects to its one
leg instead of walking them.
"""

import bisect
import math
from dataclasses import dataclass, field
from typing import Optional

from .rules import Config, rule

Point = tuple[float, float]


@dataclass(frozen=True)
class FieldConfig(Config):
    # a field needs an extent: in a 0 x 0 field every random waypoint is
    # the node's own position and re-fires at one instant forever
    width: float = rule(3000.0, positive=True)
    height: float = rule(1600.0, positive=True)

    def contains(self, p: Point) -> bool:
        return 0.0 <= p[0] <= self.width and 0.0 <= p[1] <= self.height


@dataclass
class MotionLeg:
    """One constant-speed straight segment of a node's plan."""

    start_t: float
    origin: Point
    dest: Point
    speed: float
    arrival_t: float

    def position_at(self, t: float) -> Point:
        if t <= self.start_t:
            return self.origin
        if t >= self.arrival_t:
            return self.dest
        frac = (t - self.start_t) / (self.arrival_t - self.start_t)
        return (
            self.origin[0] + (self.dest[0] - self.origin[0]) * frac,
            self.origin[1] + (self.dest[1] - self.origin[1]) * frac,
        )


class MobilityError(ValueError):
    pass


@dataclass
class _NodePlan:
    home: Point
    # the node sits at `rest` for every time strictly after `settled_at`
    rest: Point
    settled_at: float = -math.inf
    legs: list[MotionLeg] = field(default_factory=list)
    starts: list[float] = field(default_factory=list)  # legs' start_t, in order


class MobilityModel:
    """Placements plus per-node ordered motion legs."""

    def __init__(self, field_config: Optional[FieldConfig] = None):
        self.field = field_config or FieldConfig()
        self._plans: dict[int, _NodePlan] = {}
        # node -> arrival of its last leg, for nodes that have any legs
        self._arrivals: dict[int, float] = {}
        # bumped on every added leg so cached motion analysis can detect
        # that previously computed link-break times went stale
        self.plan_version = 0

    def add_node(self, node_id: int, x: float, y: float) -> None:
        if node_id in self._plans:
            raise MobilityError(f"node {node_id} already placed")
        if not self.field.contains((x, y)):
            raise MobilityError(
                f"node {node_id} initial position ({x}, {y}) outside field"
            )
        self._plans[node_id] = _NodePlan(home=(x, y), rest=(x, y))

    def node_ids(self) -> list[int]:
        return sorted(self._plans)

    def legs(self, node_id: int) -> list[MotionLeg]:
        return list(self._plan(node_id).legs)

    def _plan(self, node_id: int) -> _NodePlan:
        try:
            return self._plans[node_id]
        except KeyError:
            raise MobilityError(f"unknown node {node_id}") from None

    def set_motion(
        self, node_id: int, dest: Point, speed: float, start_t: float
    ) -> float:
        """Append a leg; returns the arrival time.

        The leg must start at or after the previous leg's arrival so the
        plan stays a function of time.
        """
        plan = self._plan(node_id)
        if speed <= 0.0:
            raise MobilityError(f"node {node_id}: speed must be positive, got {speed}")
        if not self.field.contains(dest):
            raise MobilityError(f"node {node_id}: destination {dest} outside field")
        if plan.legs:
            earliest = plan.legs[-1].arrival_t
        else:
            earliest = 0.0
        if start_t < earliest:
            raise MobilityError(
                f"node {node_id}: leg at {start_t} overlaps previous leg "
                f"(earliest start {earliest})"
            )
        origin = self.position_at(node_id, start_t)
        arrival = start_t + math.dist(origin, dest) / speed
        leg = MotionLeg(start_t, origin, tuple(dest), speed, arrival)
        plan.legs.append(leg)
        plan.starts.append(start_t)
        plan.settled_at = arrival
        plan.rest = leg.dest
        self._arrivals[node_id] = arrival
        self.plan_version += 1
        return arrival

    def moving_at(self, t: float) -> tuple[int, ...]:
        """Nodes not yet settled at t, in the order they first got a leg."""
        return tuple(n for n, arrival in self._arrivals.items() if t <= arrival)

    def position_at(self, node_id: int, t: float) -> Point:
        try:
            plan = self._plans[node_id]
        except KeyError:
            plan = self._plan(node_id)
        if t > plan.settled_at:
            return plan.rest
        # the last leg starting before t decides; before the first, home
        i = bisect.bisect_left(plan.starts, t)
        return plan.legs[i - 1].position_at(t) if i else plan.home

    def velocity_at(self, node_id: int, t: float) -> Point:
        """Instantaneous velocity vector; leg boundaries take the later leg."""
        plan = self._plan(node_id)
        # legs never overlap, so only the last leg starting by t can hold t
        i = bisect.bisect_right(plan.starts, t)
        leg = plan.legs[i - 1] if i else None
        if leg is None or t >= leg.arrival_t:
            return (0.0, 0.0)
        d = math.dist(leg.origin, leg.dest)
        return (
            (leg.dest[0] - leg.origin[0]) / d * leg.speed,
            (leg.dest[1] - leg.origin[1]) / d * leg.speed,
        )

    def velocity_since(self, node_id: int, t: float) -> float:
        """When the velocity the node has at t took effect: its last leg
        start or arrival by t, or -inf if it has been at home throughout."""
        plan = self._plan(node_id)
        i = bisect.bisect_right(plan.starts, t)
        if not i:
            return -math.inf
        leg = plan.legs[i - 1]
        return leg.start_t if t < leg.arrival_t else leg.arrival_t

    def motion_breakpoints(self, node_id: int, from_t: float, to_t: float) -> list[float]:
        """Times in (from_t, to_t) where the node's velocity changes."""
        plan = self._plan(node_id)
        # legs that ended by from_t add nothing; the one holding it may
        first = max(bisect.bisect_right(plan.starts, from_t) - 1, 0)
        pts = []
        for leg in plan.legs[first:]:
            for t in (leg.start_t, leg.arrival_t):
                if from_t < t < to_t:
                    pts.append(t)
        return pts

    def random_waypoint_next(self, rng, v_min: float, v_max: float):
        """Draw the next waypoint: x, then y, then speed, zero pause.

        Returns (dest, speed); the caller appends the leg so draw order
        stays under scenario control.
        """
        x = rng.uniform(0.0, self.field.width)
        y = rng.uniform(0.0, self.field.height)
        if v_min == v_max:
            speed = v_min
        else:
            speed = rng.uniform(v_min, v_max)
        return (x, y), speed
