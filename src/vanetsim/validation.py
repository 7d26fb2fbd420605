"""Invariant auditors that watch a running network without touching it.

Each auditor only reads protocol or transport state and appends to its
own violation list, so enabling them cannot change simulation behavior.
"""

import math


class RouteAuditor:
    """Checks forwarding consistency after every route table change.

    Loop freedom: starting from the node that changed, repeatedly follow
    each node's current next hop toward the destination. The chain must
    reach the destination or dead-end; revisiting a node is a violation.

    Sequence parity (distance-vector tables only): an odd sequence
    number must mean an infinite metric and vice versa.
    """

    def __init__(self, agents, check_parity=False):
        self.agents = agents
        self.check_parity = check_parity
        self.loop_violations = []
        self.parity_violations = []
        self.mutations = 0

    def on_route_mutation(self, node, dest):
        self.mutations += 1
        if self.check_parity:
            entry = self.agents[node].table.get(dest)
            if entry is not None:
                if (entry.seq % 2 == 1) != (entry.metric == math.inf):
                    self.parity_violations.append(
                        (node, dest, entry.seq, entry.metric))
        cur = node
        seen = {node}
        while cur != dest:
            agent = self.agents.get(cur)
            if agent is None:
                break
            nxt = agent.route_lookup(dest)
            if nxt is None:
                break
            if nxt in seen:
                self.loop_violations.append((node, dest, nxt))
                break
            seen.add(nxt)
            cur = nxt


class TransportAuditor:
    """Checks the sequence-number bookkeeping after every transport event.

    Every sequence number must sit in exactly one of: acknowledged,
    in flight, awaiting retransmission, or not yet sent; and the amount
    in flight can never exceed the congestion window.
    """

    def __init__(self):
        self.violations = []
        self.checks = 0

    def check_source(self, src):
        self.checks += 1
        flow = src.config.flow
        if len(src.in_flight) > int(src.cwnd):
            self.violations.append((flow, "window overrun", len(src.in_flight), src.cwnd))
        in_f = src.in_flight
        pend = set(src.pending)
        if in_f & pend:
            self.violations.append((flow, "seq in two states", sorted(in_f & pend)))
        for s in in_f | pend:
            if not (src.highest_acked < s < src.next_seq):
                self.violations.append((flow, "seq outside sent range", s))
        acked = src.highest_acked + 1
        unsent = src.config.max_packets - src.next_seq
        total = acked + len(in_f) + len(pend) + unsent
        if total != src.config.max_packets:
            self.violations.append((flow, "count leak", total))
