"""The forwarding plane every routing agent shares.

An agent sits between one node's transport endpoints and the radio. The
data path is the same for every protocol: a packet addressed to this node
goes straight up, a packet for anyone else is wrapped in a RoutedPacket
and unicast to the next hop that ``_next_hop`` names, and each relay
appends its id so the destination can report the whole chain. A protocol
supplies ``_next_hop(dest, now)``, its data-path hook: one table lookup
that also does whatever upkeep using a route needs (AODV refreshes the
route's lifetime and its link watch). Beside it come ``route_lookup``, the
same answer as a side-effect-free read for auditors and tools, what to do
when there is no route (``_no_route``), what a failed unicast means
(``_data_fail``), and the protocol's own control frames, dispatched from
``on_frame``. The agent is the one place that declares a data packet
lost: each drop is reported once, with its reason, to the radio's tap.
"""

from .radio import Frame, RoutedPacket


class RoutingAgent:
    # proactive agents keep standing tables: they are started with a
    # staggered first broadcast, and their tables obey sequence parity
    proactive = False
    config_class = None

    def __init__(self, sched, radio, node_id, config=None, *, deliver_up,
                 auditor=None):
        self.sched = sched
        self.radio = radio
        self.node_id = node_id
        self.config = config or self.config_class()
        self.deliver_up = deliver_up
        self.auditor = auditor
        self.table = {}
        self.own_seq = 0
        radio.register(node_id, self.on_frame)

    def send_packet(self, packet, dest: int) -> None:
        now = self.sched.now
        if dest == self.node_id:
            self.deliver_up(packet, now)
            return
        self._route(RoutedPacket(self.node_id, dest, packet), now)

    def _handle_data(self, env: RoutedPacket, now: float) -> None:
        if env.dst == self.node_id:
            packet = env.packet
            if packet.kind == "DATA":
                self.radio.tap.on_path(
                    packet.flow, [env.origin, *env.hops, self.node_id], now)
            self.deliver_up(packet, now)
            return
        env.hops.append(self.node_id)
        self._route(env, now)

    def _route(self, env: RoutedPacket, now: float) -> None:
        next_hop = self._next_hop(env.dst, now)
        if next_hop is None:
            self._no_route(env, now)
            return
        packet = env.packet
        frame = Frame(packet.kind, self.node_id, next_hop, packet.size, env)
        self.radio.transmit(frame, on_fail=self._data_fail)

    def _no_route(self, env: RoutedPacket, now: float) -> None:
        """No next hop; env.hops is empty when this node is the origin."""
        self._drop(env.packet, now, "no-route")

    def _drop(self, packet, now: float, reason: str) -> None:
        if packet.kind == "DATA":
            self.radio.tap.on_flow_drop(packet.flow, packet.seq, now, reason)

    def _note_mutation(self, dest: int) -> None:
        if self.auditor is not None:
            self.auditor.on_route_mutation(self.node_id, dest)
