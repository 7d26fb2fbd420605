"""Observation layer: delivery ledger, windowed metrics, trace formats.

The ledger hangs off the radio as its tap, which the routing agents also
report dropped data packets and paths to, and off the transport layer as
a set of notification hooks. It never schedules events, so it cannot
change simulation behaviour. Series builders only read what the
ledger collected and may be called repeatedly.

Windowed series tile [0, duration) with half-open windows [kW, (k+1)W)
and attribute each window's value to the window's end time. Throughput
counts transport payload bits only; destination bandwidth counts every
frame bit delivered to a node, control traffic included. Jitter is the
population standard deviation of the delays inside one window, emitted
only for windows holding at least two deliveries. It is computed in exact
integer arithmetic and rounded once, so it is the correctly rounded value
and the same float on every supported Python (the standard library's
``pstdev`` rounds twice before 3.11).

The ledger formats nothing: ``tracewriter.format_block`` makes the
text of each trace record, and ``tracewriter.format_series`` that of the
two-column plot series, nudging tied times: the series builders return
points as recorded. ``delay_series`` and ``cwnd_series`` take a start,
the number of points already read, so a run can send the points
recorded since its last send while it simulates. A flow's throughput and
jitter share one pass over its deliveries (``_windows``).

Memory: each trace line waits in the trace as its record, the tuple
``(op, t, kind, id, src, dst, size)`` of a packet event or
``("M", t, node, x, y, 0.0, dest_x, dest_y, speed)`` of a mobility
state. About every ``TRACE_BLOCK_LINES`` pending records are packed into
one block for the trace sink the run was wired with (``Simulation``'s
``trace``), so the per-frame path only builds a tuple. ``scenario.run``
passes the sink that writes every file of the run (see ``tracewriter``),
with each flow's new delay and cwnd points after each block, so the
simulating process formats no trace or series line and holds at most one
block of trace records; a ``KeptTrace`` keeps the text in memory
instead. A ledger with no sink builds no trace: its taps are
bound to build no record, and ``on_delivery`` only logs the sinks'
receptions.

Receptions are logged only at the sinks a ledger is built with, the
only nodes whose bandwidth a run reports; asking for any other node's
raises ValueError. Each sink's receptions are two
``array('d')``s (times, bits); bit counts are integers below 2**53, so
each converts to a float exactly and the bandwidth sums equal those over
the ints. A sequence keeps only its latest handoff time, dropped at its
first delivery; later handoffs are skipped. The ledger keeps no
delivered set: it reads each flow's sink's (``TcpSink.received``, a
contiguous floor plus a sparse set), which ``Simulation`` hands it in
``delivered``. So delivery bookkeeping grows with the sequences still in
flight, not with the run.
"""

import math
import sys
from array import array
from bisect import bisect_right
from dataclasses import dataclass
from typing import Optional

from .tracewriter import format_block


@dataclass
class MetricSeries:
    points: list
    unit: str


@dataclass(slots=True)
class FlowStats:
    """One flow's outcome; its first eight fields are summary.csv's."""

    flow: str
    delivered: int
    lost: int
    max_delay: float
    max_jitter: float
    mean_throughput: float
    first_delivery: Optional[float]
    sink_bandwidth_bits: float
    # end times of the first windows with nonzero throughput and sink bandwidth
    first_data_window: Optional[float]
    first_sink_bandwidth_window: Optional[float]


# bits of the scaled integer square root: two more than twice a float's
# 53-bit significand, enough for round-to-odd to round correctly once
_SQRT_BITS = 2 * sys.float_info.mant_dig + 3


def _pstdev(values) -> float:
    """Population standard deviation of floats, correctly rounded.

    Each float is n / d exactly with d a power of two. Over the largest d
    the k values are integers n_i, and the variance is exactly
    (k * sum(n_i**2) - sum(n_i)**2) / (k * d)**2. Its square root is taken
    by round-to-odd ``math.isqrt`` on a scaled integer and rounded to a
    float once, the method CPython 3.11+ ``statistics`` uses.
    """
    den = 1  # the largest d so far; total and squares are over it
    total = squares = 0
    for n, d in map(float.as_integer_ratio, values):
        if d > den:  # both powers of two: rescale what is summed
            scale = d // den
            total *= scale
            squares *= scale * scale
            den = d
        else:
            n *= den // d
        total += n
        squares += n * n
    k = len(values)
    ss = k * squares - total * total
    if ss == 0:
        return 0.0
    m = (k * den) ** 2
    shift = (ss.bit_length() - m.bit_length() - _SQRT_BITS) // 2
    if shift >= 0:
        m <<= 2 * shift
    else:
        ss <<= -2 * shift
    root = math.isqrt(ss // m)
    root |= root * root * m != ss  # an inexact root is made odd
    if shift >= 0:
        return float(root << shift)
    return root / (1 << -shift)


# pending trace lines packed into one block at a time; the check runs
# once per sent frame, so a block may hold a few lines more
TRACE_BLOCK_LINES = 4096


class TraceLines:
    """The trace: the records not yet packed, and the sink of packed blocks.

    A pending record is one trace line's tuple (see ``tracewriter``);
    ``len()`` counts every record. ``pack`` hands the pending list to
    ``send``, which must not keep it, and empties it in place, so its
    holder (the ledger appends to it) keeps a live list.
    """

    def __init__(self, send):
        self.pending: list = []  # packet and mobility record tuples
        self.send = send
        self._packed = 0

    def __len__(self) -> int:
        return self._packed + len(self.pending)

    def pack(self) -> None:
        """Send the pending records as one block."""
        pending = self.pending
        if pending:
            self._packed += len(pending)
            self.send(pending)
            pending.clear()


class KeptTrace(list):
    """A trace sink that keeps each block as the text ``format_block``
    makes of it; ``MetricsLedger.trace_text`` reads it."""

    def __call__(self, lines) -> None:
        self.append(format_block(lines))


def _rates(bits, window) -> MetricSeries:
    """Bits per second of each window's bits, at each window's end."""
    return MetricSeries([((k + 1) * window, b / window)
                         for k, b in enumerate(bits)], "bits/second")


def _first_nonzero(points):
    for t, v in points:
        if v > 0.0:
            return t
    return None


class MetricsLedger:
    def __init__(self, sinks=(), trace=None):
        self.trace_lines = TraceLines(trace)
        # records go straight onto the pending list, one list.append each
        self._lines = self.trace_lines.pending
        self._next_frame_id = 0
        # the latest handoff time of each (flow, seq) not yet delivered
        self._handoffs: dict[tuple[str, int], float] = {}
        self._deliveries: dict[str, list] = {}  # flow -> [(t, delay, seq, bits)]
        self.delivered = {}  # flow -> its sink's delivered seqs, TcpSink.received
        self._drops: dict[str, dict[str, int]] = {}  # flow -> reason -> count
        self._cwnd: dict[str, list] = {}
        self._paths: dict[str, list] = {}  # flow -> [(t, node chain)]
        # sink -> (times, frame bits) of every reception there; no other
        # node's receptions are kept
        self._received = {node: (array("d"), array("d")) for node in sinks}
        self._last_windows = (None,)  # see _windows
        if trace is None:  # the taps are bound once, so none tests per call
            self.on_send = self.on_loss = self.on_motion_state = lambda *a: None
            self.on_delivery = self._log_reception

    # -- radio tap ---------------------------------------------------

    def on_send(self, frame, t: float) -> None:
        trace_id = frame.trace_id
        if trace_id is None:
            trace_id = frame.trace_id = self._next_frame_id
            self._next_frame_id += 1
        dst = frame.dst
        lines = self._lines
        lines.append(("s", t, frame.kind, trace_id, frame.src,
                      "*" if dst == -1 else dst, frame.size))
        if len(lines) >= TRACE_BLOCK_LINES:
            self.trace_lines.pack()

    def on_delivery(self, frame, receiver: int, t: float) -> None:
        size = frame.size
        log = self._received.get(receiver)
        if log is not None:
            log[0].append(t)
            log[1].append(size * 8)
        self._lines.append(("r", t, frame.kind, frame.trace_id, frame.src,
                            receiver, size))

    def _log_reception(self, frame, receiver: int, t: float) -> None:
        """``on_delivery`` of an untraced run: it logs a sink's receptions."""
        log = self._received.get(receiver)
        if log is not None:
            log[0].append(t)
            log[1].append(frame.size * 8)

    def on_loss(self, frame, reason: str, t: float) -> None:
        """Trace a frame the radio could not deliver; a lost data packet
        is counted by ``on_flow_drop``, from the agent that drops it."""
        dst = frame.dst
        self._lines.append(("l", t, frame.kind, frame.trace_id, frame.src,
                            "*" if dst == -1 else dst, frame.size))

    # -- transport hooks ----------------------------------------------

    def on_data_handoff(self, flow: str, seq: int, t: float) -> None:
        # a delivered sequence's handoffs are never read again
        if seq not in self.delivered.get(flow, ()):
            self._handoffs[(flow, seq)] = t

    def on_sink_delivery(self, flow: str, seq: int, size: int, t: float) -> None:
        """Record the first end-to-end arrival of a sequence; the sink
        reports no other (see ``TcpSink.on_data``).

        Delay is measured from the latest handoff of this sequence, which
        precedes the arrival, as the clock never runs back; so a
        retransmitted packet is charged from its last attempt, which need
        not be the one that got through. One never handed off has delay 0.
        """
        handoff = self._handoffs.pop((flow, seq), None)
        delay = 0.0 if handoff is None else t - handoff
        self._deliveries.setdefault(flow, []).append((t, delay, seq, size * 8))

    def on_flow_drop(self, flow: str, seq: int, t: float, reason: str) -> None:
        """Count one lost data packet; its routing agent reports it once."""
        reasons = self._drops.setdefault(flow, {})
        reasons[reason] = reasons.get(reason, 0) + 1

    def on_cwnd(self, flow: str, t: float, value: float) -> None:
        self._cwnd.setdefault(flow, []).append((t, value))

    def on_path(self, flow: str, chain: list, t: float) -> None:
        """Note the node chain a data packet followed, skipping repeats."""
        chain = tuple(chain)
        seen = self._paths.setdefault(flow, [])
        if not seen or seen[-1][1] != chain:
            seen.append((t, chain))

    def paths_taken(self) -> dict:
        """Per-flow history of distinct forwarding chains, with timestamps."""
        return {flow: list(chains) for flow, chains in self._paths.items()}

    def path_log_lines(self) -> list[str]:
        lines = []
        for flow in sorted(self._paths):
            for t, chain in self._paths[flow]:
                lines.append(f"{t:.7f} {flow} " + " ".join(str(n) for n in chain))
        return lines

    # -- mobility hook -------------------------------------------------

    def on_motion_state(self, t, node, pos, dest, speed) -> None:
        self._lines.append(
            ("M", t, node, pos[0], pos[1], 0.0, dest[0], dest[1], speed))

    # -- series builders ------------------------------------------------

    def _windows(self, flow, duration, window):
        """Each window's delivered bits and delays, from one pass over the
        flow's deliveries. The last result is kept, keyed by the deliveries
        it read, so a flow's throughput and jitter share the pass."""
        deliveries = self._deliveries.get(flow, ())
        key = (flow, duration, window, len(deliveries))
        if self._last_windows[0] != key:
            n = math.ceil(duration / window)
            bits = [0.0] * n
            delays = [[] for _ in range(n)]
            for t, delay, _seq, b in deliveries:
                k = int(t // window)
                if k < n:
                    bits[k] += b
                    delays[k].append(delay)
            self._last_windows = (key, bits, delays)
        return self._last_windows[1:]

    def _bit_rate(self, arrivals, duration, window) -> MetricSeries:
        """Bits per second in each window, from (t, bits) arrivals."""
        n = math.ceil(duration / window)
        bits = [0.0] * n
        for t, b in arrivals:
            k = int(t // window)
            if k < n:
                bits[k] += b
        return _rates(bits, window)

    def throughput_series(self, flow, duration, window=1.0) -> MetricSeries:
        return _rates(self._windows(flow, duration, window)[0], window)

    def jitter_series(self, flow, duration, window=1.0) -> MetricSeries:
        delays = self._windows(flow, duration, window)[1]
        points = [((k + 1) * window, _pstdev(d))
                  for k, d in enumerate(delays) if len(d) >= 2]
        return MetricSeries(points, "seconds")

    def delay_series(self, flow, start=0) -> MetricSeries:
        """The flow's delay per delivery, from its start-th delivery on."""
        points = [(t, delay) for t, delay, _seq, _b
                  in self._deliveries.get(flow, [])[start:]]
        return MetricSeries(points, "seconds")

    def cwnd_series(self, flow, start=0) -> MetricSeries:
        """The flow's congestion-window samples, from its start-th on."""
        return MetricSeries(self._cwnd.get(flow, [])[start:], "packets")

    def _log(self, node):
        """The arrays (times, bits) of every frame the sink node received."""
        log = self._received.get(node)
        if log is None:
            raise ValueError(f"node {node} is not a sink: its receptions "
                             "are not recorded")
        return log

    def bandwidth_series(self, node, duration, window=1.0) -> MetricSeries:
        return self._bit_rate(zip(*self._log(node)), duration, window)

    def cumulative_bandwidth_bits(self, node, until=None) -> float:
        times, bits = self._log(node)
        end = len(times) if until is None else bisect_right(times, until)
        return sum(bits[:end], 0.0)  # a float even when nothing arrived

    def deliveries(self, flow) -> list:
        return list(self._deliveries.get(flow, []))

    def drops_by_reason(self, flow) -> dict[str, int]:
        """The flow's lost data packets by reason, reasons ascending."""
        return dict(sorted(self._drops.get(flow, {}).items()))

    def first_delivery(self, flow) -> Optional[float]:
        d = self._deliveries.get(flow)
        return d[0][0] if d else None

    def flow_summary(self, flow, sink, duration, throughput, jitter,
                     bandwidth) -> FlowStats:
        """The flow's outcome, from the series already built for it."""
        delivered = self._deliveries.get(flow, [])
        return FlowStats(
            flow=flow,
            delivered=len(delivered),
            lost=sum(self._drops.get(flow, {}).values()),
            max_delay=max((d for _t, d, _s, _b in delivered), default=0.0),
            max_jitter=max((v for _t, v in jitter.points), default=0.0),
            mean_throughput=math.fsum(v for _t, v in throughput.points)
            / len(throughput.points) if throughput.points else 0.0,
            first_delivery=self.first_delivery(flow),
            sink_bandwidth_bits=self.cumulative_bandwidth_bits(sink, until=duration),
            first_data_window=_first_nonzero(throughput.points),
            first_sink_bandwidth_window=_first_nonzero(bandwidth.points),
        )

    def trace_text(self) -> str:
        """The trace so far, of a ledger whose sink is a ``KeptTrace``."""
        self.trace_lines.pack()
        return "".join(self.trace_lines.send)
