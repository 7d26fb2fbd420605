"""Wires mobility, radio, routing agents, and transport flows into one run.

The assembly order is fixed (nodes ascending, then flows in the order
given), and the waypoints and DSDV's start staggers each draw from their
own stream seeded with the scenario's seed: a (scenario, seed) pair
gives the same trace, byte for byte, and both protocols the same moves.

``PROTOCOLS`` is the one protocol table: it maps each protocol name to
its agent class. The agent's ``config_class`` is its config, and the
lower-case name its key under a scenario's ``protocol_params``.
Everything that chooses a protocol reads it.
"""

import random
from dataclasses import dataclass

from .aodv import AodvAgent
from .dsdv import DsdvAgent
from .engine import Scheduler
from .metrics import MetricsLedger
from .mobility import MobilityModel
from .radio import RadioMedium
from .transport import TcpSink, TcpSource
from .validation import RouteAuditor, TransportAuditor


PROTOCOLS = {"AODV": AodvAgent, "DSDV": DsdvAgent}

# spread of the one-off random delay before a node's first proactive
# table broadcast; keeps the network from updating in lockstep
START_STAGGER_MAX = 5.0


@dataclass(frozen=True)
class Motion:
    """A straight constant-speed move to start at a given time."""

    node: int
    start_t: float
    dest: tuple
    speed: float


class Simulation:
    """One run of a ScenarioConfig, which is valid by construction;
    ``auditing`` adds the auditors, and only a ``trace`` sink gets a trace."""

    def __init__(self, config, *, auditing=False, trace=None):
        agent_class = PROTOCOLS[config.protocol]
        protocol_config = config.protocol_params[config.protocol.lower()]
        self.config = config
        self.ledger = MetricsLedger({cfg.sink for cfg in config.flows}, trace)
        self.sched = Scheduler()
        self.mobility = MobilityModel(config.field)
        self.radio = RadioMedium(self.sched, self.mobility, self.ledger,
                                 config.radio)
        self.agents = {}
        self.route_auditor = RouteAuditor(
            self.agents, check_parity=agent_class.proactive) if auditing else None
        self.transport_auditor = TransportAuditor() if auditing else None

        for node in sorted(config.placements):
            x, y = config.placements[node]
            self.mobility.add_node(node, x, y)
            self.agents[node] = agent_class(
                self.sched, self.radio, node, config=protocol_config,
                deliver_up=self._deliver, auditor=self.route_auditor)

        self.rng = random.Random(config.seed)  # the waypoints
        if agent_class.proactive:
            stagger = random.Random(config.seed).uniform
            for node in sorted(self.agents):
                self.agents[node].start(stagger(0.0, START_STAGGER_MAX))

        self.sources = {}
        self.sinks = {}
        for cfg in config.flows:
            self.sources[cfg.flow] = TcpSource(
                self.sched, cfg, self.agents[cfg.src].send_packet,
                self.ledger, auditor=self.transport_auditor)
            self.sinks[cfg.flow] = TcpSink(
                self.sched, cfg, self.agents[cfg.sink].send_packet, self.ledger)
            self.ledger.delivered[cfg.flow] = self.sinks[cfg.flow].received
            self.sources[cfg.flow].start()

        for motion in config.motions:
            self.sched.schedule(
                motion.start_t, "motion", motion.node,
                lambda m=motion: self._move(m.node, m.dest, m.speed))

        # nodes without a script roam waypoint-to-waypoint when asked
        waypoint = config.background_mobility
        if waypoint is not None:
            scripted = {m.node for m in config.motions}
            for node in sorted(set(config.placements) - scripted):
                self.sched.schedule(waypoint.pause, "waypoint", node,
                                    lambda n=node: self._next_waypoint(n))

        # initial state line for every node, in id order; a parked node
        # reports its own position as its destination
        for node in sorted(config.placements):
            pos = self.mobility.position_at(node, 0.0)
            self.ledger.on_motion_state(0.0, node, pos, pos, 0.0)

    def _deliver(self, packet, now: float) -> None:
        """Every agent's deliver_up: a packet reached its flow's endpoint."""
        if packet.kind == "DATA":
            self.sinks[packet.flow].on_data(packet, now)
        else:
            self.sources[packet.flow].on_ack(packet.seq, now)

    def _move(self, node: int, dest: tuple, speed: float) -> float:
        """Start node's leg to dest now and log it; returns the arrival."""
        now = self.sched.now
        arrival = self.mobility.set_motion(node, dest, speed, now)
        pos = self.mobility.position_at(node, now)
        self.ledger.on_motion_state(now, node, pos, dest, speed)
        return arrival

    def _next_waypoint(self, node: int) -> None:
        waypoint = self.config.background_mobility
        dest, speed = self.mobility.random_waypoint_next(
            self.rng, waypoint.v_min, waypoint.v_max)
        arrival = self._move(node, dest, speed)
        self.sched.schedule(arrival + waypoint.pause, "waypoint", node,
                            lambda: self._next_waypoint(node))

    def run(self, until: float) -> "Simulation":
        self.sched.run_until(until)
        # send the last partial block too: a finished run keeps no raw records
        self.ledger.trace_lines.pack()
        return self
