"""Metric and trace-format tests with hand-computed expected values."""

import csv
import dataclasses
import gc
import json
import math
import os
import statistics
import sys
import tempfile
import tracemalloc
from bisect import bisect_right
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from vanetsim import metrics
from vanetsim.engine import Scheduler
from vanetsim.metrics import (
    TRACE_BLOCK_LINES,
    FlowStats,
    KeptTrace,
    MetricSeries,
    MetricsLedger,
    _pstdev,
)
from vanetsim.radio import Frame
from vanetsim.rules import FieldError
from vanetsim.scenario import (build_simulation, builtin_scenario, check_window,
                               load_config, random_waypoint_document)
from vanetsim.scenario import run as scenario_run
from vanetsim.simulation import Simulation
from vanetsim.tracewriter import (TraceFormatError, format_block, nudge_ties,
                                  parse_mobility_trace, write_series)
from vanetsim.transport import DataPacket, FlowConfig, TcpSink


def parse_plot_series(path) -> list:
    """The (t, value) points of a .dat file, read independently of the
    writer."""
    points = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            t_txt, v_txt = line.split()
            points.append((float(t_txt), float(v_txt)))
    return points


def deliver(ledger, flow, seq, t, size=512, handoff=None):
    ledger.on_data_handoff(flow, seq, handoff if handoff is not None else t)
    ledger.on_sink_delivery(flow, seq, size, t)


def summarize(ledger, flow, sink, duration, window=1.0):
    """flow_summary over series built for it, as scenario.run builds them."""
    return ledger.flow_summary(
        flow, sink, duration, ledger.throughput_series(flow, duration, window),
        ledger.jitter_series(flow, duration, window),
        ledger.bandwidth_series(sink, duration, window))


def test_throughput_ten_packets_in_one_second_window():
    led = MetricsLedger()
    for i in range(10):
        deliver(led, "f0", i, 0.05 + i * 0.09)
    series = led.throughput_series("f0", duration=3.0, window=1.0)
    assert series.unit == "bits/second"
    # 10 * 512 * 8 = 40960 bits in the first window, then silence
    assert series.points == [(1.0, 40960.0), (2.0, 0.0), (3.0, 0.0)]


def test_throughput_sum_conserves_total_bits():
    led = MetricsLedger()
    times = [0.2, 0.9, 1.4, 2.75, 2.8, 5.05]
    for i, t in enumerate(times):
        deliver(led, "f0", i, t, size=512)
    series = led.throughput_series("f0", duration=6.0, window=1.0)
    total = sum(v for _t, v in series.points) * 1.0
    assert total == pytest.approx(len(times) * 512 * 8, abs=1e-9)


def test_window_boundary_belongs_to_the_later_window():
    led = MetricsLedger()
    deliver(led, "f0", 0, 1.0)
    series = led.throughput_series("f0", duration=2.0, window=1.0)
    assert series.points == [(1.0, 0.0), (2.0, 4096.0)]


def test_jitter_two_known_delays():
    led = MetricsLedger()
    # delays of 1 ms and 3 ms: population standard deviation is 1 ms
    deliver(led, "f0", 0, 0.101, handoff=0.100)
    deliver(led, "f0", 1, 0.203, handoff=0.200)
    series = led.jitter_series("f0", duration=1.0, window=1.0)
    assert series.points == [(1.0, pytest.approx(0.001, rel=1e-12))]


def test_jitter_zero_variance_is_exactly_zero():
    led = MetricsLedger()
    for i in range(5):
        deliver(led, "f0", i, 0.1 * (i + 1) + 0.007, handoff=0.1 * (i + 1))
    series = led.jitter_series("f0", duration=1.0, window=1.0)
    assert series.points == [(1.0, 0.0)]
    assert series.points[0][1] == 0.0


def test_jitter_skips_windows_with_fewer_than_two_deliveries():
    led = MetricsLedger()
    deliver(led, "f0", 0, 0.5)
    deliver(led, "f0", 1, 2.1)
    deliver(led, "f0", 2, 2.2)
    series = led.jitter_series("f0", duration=4.0, window=1.0)
    assert [t for t, _v in series.points] == [3.0]


delay_windows = st.lists(
    st.one_of(
        st.floats(min_value=0.0, max_value=2.0),
        st.floats(min_value=-1e300, max_value=1e300),
        st.floats(min_value=-1e-300, max_value=1e-300),
    ),
    min_size=2, max_size=12)


def _exact_pvariance(values):
    xs = [Fraction(v) for v in values]
    mean = sum(xs) / len(xs)
    return sum((x - mean) ** 2 for x in xs) / len(xs)


@settings(max_examples=500, deadline=None)
@given(values=delay_windows)
@example(values=[0.0, 5e-324])  # exact root halfway between 0 and 5e-324
@example(values=[1.0, 2.0 ** 53 + 2.0])  # exact root halfway to 2**52 + 1
def test_pstdev_is_correctly_rounded(values):
    """The result is the float nearest the exact root, ties to even."""
    got = _pstdev(values)
    var = _exact_pvariance(values)
    if var == 0:
        assert got == 0.0
        return
    # the midpoints to the neighbouring floats bound the exact root
    below = (Fraction(math.nextafter(got, 0.0)) + Fraction(got)) / 2
    above = (Fraction(got) + Fraction(math.nextafter(got, math.inf))) / 2
    assert below ** 2 <= var <= above ** 2
    if var in (below ** 2, above ** 2):
        # a tie goes to the float whose last significand bit is 0
        assert Fraction(got) / Fraction(math.ulp(got)) % 2 == 0


@pytest.mark.skipif(sys.version_info < (3, 11),
                    reason="statistics.pstdev rounds twice before 3.11")
@settings(max_examples=300, deadline=None)
@given(values=delay_windows)
def test_pstdev_equals_stdlib_from_3_11(values):
    assert _pstdev(values) == statistics.pstdev(values)


@pytest.mark.parametrize("value", [0.0, 0.007, 1e-300, 123.456, -2.5])
def test_pstdev_of_constant_window_is_zero(value):
    assert _pstdev([value] * 7) == 0.0


def sink_reporting_to(ledger, flow="f0") -> TcpSink:
    """A flow's TcpSink reporting to ledger, which reads the sink's
    delivered set as Simulation hands it over."""
    sink = TcpSink(Scheduler(), FlowConfig(flow, 0, 1), lambda pkt, dest: None,
                   ledger)
    ledger.delivered[flow] = sink.received
    return sink


def test_delay_measured_from_latest_handoff_before_arrival():
    led = MetricsLedger()
    sink = sink_reporting_to(led)
    led.on_data_handoff("f0", 7, 1.0)
    led.on_data_handoff("f0", 7, 4.0)  # retransmission
    sink.on_data(DataPacket("f0", 7, 512), 4.5)
    series = led.delay_series("f0")
    assert series.points == [(4.5, pytest.approx(0.5))]


def test_duplicate_sink_arrivals_are_excluded():
    """The sink reports a sequence's first arrival only, and the ledger
    keeps no handoff of a sequence its sink has delivered."""
    led = MetricsLedger()
    sink = sink_reporting_to(led)
    led.on_data_handoff("f0", 3, 0.0)
    sink.on_data(DataPacket("f0", 3, 512), 0.4)
    sink.on_data(DataPacket("f0", 3, 512), 0.9)
    led.on_data_handoff("f0", 3, 1.0)  # a late retransmission
    assert len(led.deliveries("f0")) == 1
    assert led.first_delivery("f0") == 0.4
    assert led._handoffs == {}


class SetLedger:
    """Delivery bookkeeping that keeps every (flow, seq) for the whole run."""

    def __init__(self):
        self.handoffs = {}
        self.seen = set()
        self.deliveries = {}

    def on_data_handoff(self, flow, seq, t):
        self.handoffs.setdefault((flow, seq), []).append(t)

    def on_sink_delivery(self, flow, seq, size, t):
        if (flow, seq) in self.seen:
            return
        self.seen.add((flow, seq))
        handoffs = self.handoffs.get((flow, seq), [])
        i = bisect_right(handoffs, t) - 1
        delay = t - handoffs[i] if i >= 0 else 0.0
        self.deliveries.setdefault(flow, []).append((t, delay, seq, size * 8))


FLOWS = ("f0", "f1")
ledger_ops = st.lists(st.tuples(
    st.sampled_from(["handoff", "delivery"]), st.sampled_from(FLOWS),
    st.integers(-3, 12), st.floats(0.0, 50.0)), max_size=80)


@settings(max_examples=300, deadline=None)
@given(ops=ledger_ops)
# in order, a gap filled late, duplicates, a retransmission after delivery
@example(ops=[("handoff", "f0", 0, 1.0), ("delivery", "f0", 0, 1.5),
              ("handoff", "f0", 2, 2.0), ("delivery", "f0", 2, 2.5),
              ("handoff", "f0", 1, 3.0), ("delivery", "f0", 1, 3.5),
              ("handoff", "f0", 1, 4.0), ("delivery", "f0", 1, 4.5),
              ("delivery", "f0", 3, 5.0), ("handoff", "f0", 3, 5.5),
              ("delivery", "f0", 3, 6.0)])
@example(ops=[("handoff", "f1", -1, 1.0), ("delivery", "f1", -1, 2.0),
              ("handoff", "f1", -1, 3.0), ("delivery", "f1", -1, 4.0),
              ("delivery", "f1", 0, 5.0)])
def test_delivery_bookkeeping_equals_a_set_of_every_seq(ops):
    """A ledger fed by each flow's sink, whose delivered set it reads, has
    the deliveries and delays of the keep-everything rule, and only
    undelivered sequences keep their handoff times."""
    led, ref = MetricsLedger(), SetLedger()
    sinks = {flow: sink_reporting_to(led, flow) for flow in FLOWS}
    for op, flow, seq, t in ops:
        if op == "handoff":
            led.on_data_handoff(flow, seq, t)
            ref.on_data_handoff(flow, seq, t)
        else:
            sinks[flow].on_data(DataPacket(flow, seq, 512), t)
            ref.on_sink_delivery(flow, seq, 512, t)
    for flow in FLOWS:
        assert led.deliveries(flow) == ref.deliveries.get(flow, [])
    assert led._handoffs == {key: times for key, times in ref.handoffs.items()
                             if key not in ref.seen}


@pytest.mark.parametrize("name, protocol", [("long-distance", "AODV"),
                                            ("short-distance", "DSDV")])
def test_ledger_reads_each_sinks_delivered_set(name, protocol):
    """After a builtin run the ledger's delivered set of each flow is its
    sink's own, and no pending handoff is of a delivered sequence."""
    config = dataclasses.replace(builtin_scenario(name, protocol), duration=60.0)
    sim = Simulation(config).run(60.0)
    for flow, sink in sim.sinks.items():
        assert sim.ledger.delivered[flow] is sink.received
    assert not [(flow, seq) for flow, seq in sim.ledger._handoffs
                if seq in sim.sinks[flow].received]


def test_delay_series_nudges_equal_timestamps(tmp_path):
    """The ledger keeps the tied delivery times; the written series nudges
    them apart."""
    led = MetricsLedger()
    for seq in range(3):
        led.on_data_handoff("f0", seq, 0.0)
        led.on_sink_delivery("f0", seq, 512, 2.0)
    series = led.delay_series("f0")
    assert [t for t, _ in series.points] == [2.0, 2.0, 2.0]
    write_series(tmp_path / "delay.dat", series.unit, series.points)
    pts = parse_plot_series(tmp_path / "delay.dat")
    assert [t for t, _ in pts] == [2.0, 2.0 + 1e-9, 2.0 + 2e-9]


def reference_nudge_ties(points):
    """The ledger's nudge before it moved to tracewriter: each x-value at
    or below the one before becomes that one plus 1 ns."""
    out = []
    prev = None
    for t, v in points:
        if prev is not None and t <= prev:
            t = prev + 1e-9
        out.append((t, v))
        prev = t
    return out


@given(points=st.lists(st.tuples(
    st.sampled_from([0.0, 0.5, 0.5 + 1e-9, 1.0, 3.25]),
    st.floats(allow_nan=False, allow_infinity=False)), max_size=20))
@example(points=[(0.5, 1.0), (0.5, 2.0), (0.5 + 1e-9, 3.0), (0.0, 4.0)])
def test_nudge_ties_equals_the_reference(points):
    """Tied and falling x-values, nudged by the shared helper and in the
    text write_series writes, equal the reference; the ledger's series
    keeps them as recorded."""
    nudged = reference_nudge_ties(points)
    assert nudge_ties(points) == nudged
    led = MetricsLedger()
    for t, v in points:
        led.on_cwnd("f0", t, v)
    assert led.cwnd_series("f0").points == points
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "cwnd.dat")
        write_series(path, "packets", points)
        with open(path) as fh:
            text = fh.read()
    expected = "".join(f"{t!r} {v!r}\n" for t, v in nudged)
    assert text == (f"# packets\n{expected}" if points else "")


# windows per run, log-uniform up to the 10**6 check_window allows, so
# most draws build a short series
@settings(max_examples=10, deadline=None)
@given(duration=st.floats(1e-3, 1e6), log_windows=st.floats(0.0, 6.0))
@example(duration=3600.0, log_windows=6.0)  # 10**6 windows of 3.6 ms
def test_windowed_series_times_rise_and_are_written_unchanged(duration,
                                                              log_windows):
    """A window check_window accepts gives at most 10**6 windows, each
    stamped (k+1)*window: the times strictly rise, since the window is far
    above an ulp of the last stamp, so write_series, which nudges ties,
    writes every time as built."""
    window = duration / 10**log_windows
    try:
        check_window(window, duration)
    except FieldError:
        assume(False)
    led = MetricsLedger()
    deliver(led, "f0", 0, duration / 2)
    series = led.throughput_series("f0", duration, window)
    times = [t for t, _v in series.points]
    assert all(a < b for a, b in zip(times, times[1:]))
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "throughput.dat")
        write_series(path, series.unit, series.points)
        with open(path) as fh:
            text = fh.read()
    assert text == "# bits/second\n" + "".join(
        [f"{t!r} {v!r}\n" for t, v in series.points])


def test_destination_bandwidth_counts_every_frame_kind():
    led = MetricsLedger(sinks={4})
    for i in range(3):
        f = Frame("ACK", 9, 4, 210)
        led.on_send(f, 0.1 * i)
        led.on_delivery(f, 4, 0.1 * i + 0.001)
    series = led.bandwidth_series(4, duration=2.0, window=1.0)
    # three 210 byte frames: 5040 bits in the first second
    assert series.points == [(1.0, 5040.0), (2.0, 0.0)]
    assert led.cumulative_bandwidth_bits(4) == 5040.0
    assert led.cumulative_bandwidth_bits(4, until=0.15) == 3360.0


def test_bandwidth_ignores_frames_to_other_nodes_and_losses():
    led = MetricsLedger(sinks={1})
    ok = Frame("DATA", 0, 1, 512)
    led.on_send(ok, 0.0)
    led.on_delivery(ok, 1, 0.0005)
    lost = Frame("DATA", 0, 1, 512)
    led.on_send(lost, 0.1)
    led.on_loss(lost, "out-of-range", 0.1)
    series = led.bandwidth_series(1, duration=1.0, window=1.0)
    assert series.points == [(1.0, 4096.0)]


def _reference_bandwidth(receptions, duration, window):
    """Windowed bit rate over a plain list of (t, int bits) receptions."""
    n = math.ceil(duration / window)
    bits = [0.0] * n
    for t, b in receptions:
        k = int(t // window)
        if k < n:
            bits[k] += b
    return [((k + 1) * window, bits[k] / window) for k in range(n)]


@settings(max_examples=200, deadline=None)
@given(
    receptions=st.lists(
        st.tuples(st.integers(0, 2), st.floats(0.0, 12.0),
                  st.integers(1, 2 ** 40)),
        max_size=60).map(lambda rx: sorted(rx, key=lambda r: r[1])),
    window=st.sampled_from([0.1, 0.25, 1.0, 3.0]),
    duration=st.floats(0.5, 12.0),
    until=st.one_of(st.none(), st.floats(0.0, 12.0)),
    sinks=st.sets(st.integers(0, 2)),
)
def test_bandwidth_equals_list_of_tuples_reference(receptions, window,
                                                   duration, until, sinks):
    led = MetricsLedger(sinks=sinks)
    for node, t, size in receptions:
        led.on_delivery(Frame("DATA", 9, node, size), node, t)
    for node in range(3):
        if node not in sinks:
            # a node that is not a sink has no log, not an empty one
            with pytest.raises(ValueError, match=f"node {node} is not a sink"):
                led.bandwidth_series(node, duration, window)
            with pytest.raises(ValueError, match=f"node {node} is not a sink"):
                led.cumulative_bandwidth_bits(node, until)
            continue
        mine = [(t, size * 8) for n, t, size in receptions if n == node]
        series = led.bandwidth_series(node, duration, window)
        assert series.points == _reference_bandwidth(mine, duration, window)
        expected = sum((b for t, b in mine if until is None or t <= until),
                       0.0)
        assert led.cumulative_bandwidth_bits(node, until) == expected


# two flows into one sink: the sink's series is written once per flow
SHARED_SINK_DOCUMENT = {
    "duration": 20.0,
    "placements": [[0, [100, 300]], [1, [300, 300]], [2, [500, 300]]],
    "flows": [{"flow": "f0", "src": 0, "sink": 2},
              {"flow": "f1", "src": 1, "sink": 2, "start_t": 0.5}],
}


@pytest.mark.parametrize("config", [
    dataclasses.replace(builtin_scenario("long-distance", "AODV"),
                        duration=60.0),
    load_config(json.dumps(SHARED_SINK_DOCUMENT)),
], ids=["long-distance-60s", "shared-sink"])
def test_sink_bandwidth_equals_trace_receptions(config, tmp_path):
    """Each flow's sink bandwidth is the sum of the trace's r lines to it."""
    scenario_run(config, out_dir=str(tmp_path))
    received = {}  # node -> [(t, bits)] from trace.txt alone
    with open(tmp_path / "trace.txt") as fh:
        for line in fh:
            if line.startswith("r "):
                _op, t, _kind, _id, _src, node, size = line.split()
                received.setdefault(int(node), []).append(
                    (float(t), 8 * int(size)))
    with open(tmp_path / "summary.csv", newline="") as fh:
        rows = {row["flow"]: row for row in csv.DictReader(fh)}
    assert sorted(rows) == sorted(fc.flow for fc in config.flows)
    for fc in config.flows:
        mine = received[fc.sink]
        assert float(rows[fc.flow]["sink_bandwidth_bits"]) == sum(
            b for _t, b in mine)
        series = parse_plot_series(
            tmp_path / "metrics" / fc.flow / "destination_bandwidth.dat")
        assert series == _reference_bandwidth(mine, config.duration, 1.0)


def test_flow_summary_row():
    led = MetricsLedger(sinks={2})
    deliver(led, "f2", 0, 0.35, handoff=0.30)
    deliver(led, "f2", 1, 0.45, handoff=0.41)
    frame = Frame("RREQ", 1, -1, 64)
    led.on_send(frame, 1.5)
    led.on_delivery(frame, 2, 1.5)
    led.on_flow_drop("f2", 2, 1.2, "no-route")
    row = summarize(led, "f2", sink=2, duration=2.0)
    assert isinstance(row, FlowStats)
    assert row.flow == "f2"
    assert row.delivered == 2
    assert row.lost == 1
    assert led.drops_by_reason("f2") == {"no-route": 1}
    assert row.max_delay == pytest.approx(0.05)
    assert row.max_jitter == pytest.approx(0.005)
    assert row.mean_throughput == pytest.approx((2 * 512 * 8) / 2.0)
    assert row.first_delivery == 0.35
    # every frame bit reaching the sink counts, control traffic included
    assert row.sink_bandwidth_bits == 64 * 8
    assert row.first_data_window == 1.0
    assert row.first_sink_bandwidth_window == 2.0


def test_cwnd_series_keeps_every_sample(tmp_path):
    """Every sample is kept as recorded, and the written series keeps
    each one at a time after the one before."""
    led = MetricsLedger()
    led.on_cwnd("f0", 0.0, 1)
    led.on_cwnd("f0", 0.5, 2)
    led.on_cwnd("f0", 0.5, 1)
    series = led.cwnd_series("f0")
    assert series.points == [(0.0, 1), (0.5, 2), (0.5, 1)]
    write_series(tmp_path / "cwnd.dat", series.unit, series.points)
    pts = parse_plot_series(tmp_path / "cwnd.dat")
    assert [v for _t, v in pts] == [1, 2, 1]
    assert pts[2][0] > pts[1][0]


def test_motion_line_matches_sample_bytes():
    text = format_block([
        ("M", 0.0, 2, 550.0, 290.0, 0.0, 550.0, 290.0, 0.0),
        ("M", 0.0, 80, 1150.0, 920.0, 0.0, 1150.0, 920.0, 0.0)])
    assert text == (
        "M 0.00000 2 (550.00, 290.00, 0.00), (550.00, 290.00), 0.00\n"
        "M 0.00000 80 (1150.00, 920.00, 0.00), (1150.00, 920.00), 0.00\n")


def test_mobility_trace_round_trip():
    records = [
        ("M", 0.0, 2, 550.0, 290.0, 0.0, 550.0, 290.0, 0.0),
        ("M", 10.0, 15, 140.0, 450.0, 0.0, 2788.0, 450.0, 12.97),
    ]
    text = format_block(records)
    parsed, skipped = parse_mobility_trace(text)
    assert parsed == records
    assert skipped == 0
    assert format_block(parsed) == text


def test_random_waypoint_trace_round_trip():
    """The mobility lines of a run whose coordinates and speeds are
    arbitrary floats read back to records that format to those lines."""
    config = load_config(random_waypoint_document(7, 50, 10, 60.0))
    trace = Simulation(config, trace=KeptTrace()).run(60.0).ledger.trace_text()
    text = "".join(line + "\n" for line in trace.splitlines()
                   if line.startswith("M "))
    records, skipped = parse_mobility_trace(trace)
    assert len(records) > 50  # the waypoint legs, not only the placements
    assert skipped == len(trace.splitlines()) - len(records)
    assert format_block(records) == text


def test_parse_skips_packet_lines_and_counts_them():
    text = (
        "M 0.00000 2 (550.00, 290.00, 0.00), (550.00, 290.00), 0.00\n"
        "s 0.5000000 DATA 0 0 15 512\n"
        "r 0.5004596 DATA 0 0 15 512\n"
    )
    records, skipped = parse_mobility_trace(text)
    assert len(records) == 1
    assert skipped == 2


def test_parse_rejects_malformed_mobility_line():
    with pytest.raises(TraceFormatError, match="line 2"):
        parse_mobility_trace("s 0.1 DATA 0 0 1 512\nM x y\n")


def test_ledger_emits_interleaved_trace_lines():
    led = MetricsLedger(trace=KeptTrace())
    led.on_motion_state(0.0, 2, (550.0, 290.0), (550.0, 290.0), 0.0)
    f = Frame("DATA", 0, 15, 512)
    led.on_send(f, 0.5)
    led.on_delivery(f, 15, 0.5004596)
    text = led.trace_text()
    lines = text.splitlines()
    assert lines[0].startswith("M 0.00000 2 ")
    assert lines[1] == "s 0.5000000 DATA 0 0 15 512"
    assert lines[2] == "r 0.5004596 DATA 0 0 15 512"


def test_broadcast_trace_lines_use_star_and_loss_marks_flow():
    led = MetricsLedger(sinks={2}, trace=KeptTrace())
    f = Frame("RREQ", 1, -1, 64)
    led.on_send(f, 1.0)
    led.on_loss(f, "no-neighbors", 1.0)
    d = Frame("DATA", 1, 2, 512)
    led.on_send(d, 1.1)
    led.on_loss(d, "out-of-range", 1.1)
    lines = led.trace_text().splitlines()
    assert lines[0] == "s 1.0000000 RREQ 0 1 * 64"
    assert lines[1] == "l 1.0000000 RREQ 0 1 * 64"
    assert lines[3] == "l 1.1000000 DATA 1 1 2 512"
    # the radio's loss only traces the frame; the dropping agent counts it
    assert summarize(led, "f1", sink=2, duration=1.0).lost == 0
    led.on_flow_drop("f1", 12, 1.1, "out-of-range")
    assert summarize(led, "f1", sink=2, duration=1.0).lost == 1
    assert led.drops_by_reason("f1") == {"out-of-range": 1}


def _fstring_line(op, t, kind, trace_id, src, dst, size):
    """A packet line as the ledger formatted it eagerly, one f-string each."""
    dst_txt = "*" if dst == -1 else str(dst)
    return f"{op} {t:.7f} {kind} {trace_id} {src} {dst_txt} {size}"


def _fstring_motion_line(t, node, pos, dest, speed):
    """A mobility line as the ledger formatted it eagerly, one f-string."""
    x, y, z = pos
    return (f"M {t:.5f} {node} ({x:.2f}, {y:.2f}, {z:.2f}), "
            f"({dest[0]:.2f}, {dest[1]:.2f}), {speed:.2f}")


_TRACE_TIMES = st.one_of(
    st.sampled_from([0, 0.0, -0.0, 3, 1e-8, 1e9, 0.1 + 0.2, 599.99999995]),
    st.integers(min_value=0, max_value=10**6),
    st.floats(min_value=0.0, max_value=1e9))
_FRAME_FIELDS = (
    _TRACE_TIMES, st.sampled_from(["DATA", "ACK", "RREQ", "DSDV"]),
    st.one_of(st.none(), st.integers(0, 10**6)), st.integers(0, 120))
_TRACE_EVENTS = st.one_of(
    # a send or a loss names the frame's destination, -1 for broadcast; a
    # reception names its receiver, a node id
    st.tuples(st.sampled_from("sl"), *_FRAME_FIELDS, st.integers(-1, 120),
              st.integers(1, 10**6)),
    st.tuples(st.just("r"), *_FRAME_FIELDS, st.integers(0, 120),
              st.integers(1, 10**6)),
    # a mobility state's x, y, destination x, y and speed: ints or floats
    st.tuples(st.just("M"), _TRACE_TIMES, st.integers(0, 120),
              *[st.one_of(st.integers(-10**6, 10**6),
                          st.floats(-1e9, 1e9))] * 5))


@settings(max_examples=150, deadline=None)
@given(events=st.lists(_TRACE_EVENTS, max_size=30),
       block=st.integers(min_value=1, max_value=6))
@example(events=[("s", t, "RREQ", None, 1, -1, 64)
                 for t in (0, -0.0, 3, 1e-8, 1e9)]
         + [("r", 0.5, "DATA", None, 0, 2, 512),
            ("M", 2, 4, -0.0, 1e-3, 5, 0.005, 12.97),
            ("l", 1e-8, "ACK", 9, 2, -1, 210)],
         block=2)
def test_packed_records_equal_the_fstring_lines(events, block):
    """Records formatted a block at a time give the eager f-string text.

    A small block size makes packet and mobility records cross block
    edges; sends pack, so a block edge may fall anywhere. The mobility
    lines' f-string is this test's own, not the writer's template.
    """
    led = MetricsLedger(trace=KeptTrace())
    expected = []
    next_id = 0
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(metrics, "TRACE_BLOCK_LINES", block)
        for event in events:
            op = event[0]
            if op == "M":
                t, node, x, y, dest_x, dest_y, speed = event[1:]
                led.on_motion_state(t, node, (x, y), (dest_x, dest_y), speed)
                expected.append(_fstring_motion_line(
                    t, node, (x, y, 0.0), (dest_x, dest_y), speed))
            else:
                t, kind, trace_id, src, dst, size = event[1:]
                frame = Frame(kind, src, -1 if op == "r" else dst, size,
                              trace_id=trace_id)
                if op == "s":
                    led.on_send(frame, t)
                    if trace_id is None:
                        trace_id = next_id
                        next_id += 1
                elif op == "r":
                    led.on_delivery(frame, dst, t)
                else:
                    led.on_loss(frame, "out-of-range", t)
                expected.append(
                    _fstring_line(op, t, kind, trace_id, src, dst, size))
            assert len(led.trace_lines) == len(expected)
    text = "".join(line + "\n" for line in expected)
    assert led.trace_text() == text
    led.on_motion_state(7.0, 3, (1.0, 2.0), (3.0, 4.0), 5.0)
    led.trace_lines.pack()
    led.trace_lines.pack()
    assert led.trace_text() == text + _fstring_motion_line(
        7.0, 3, (1.0, 2.0, 0.0), (3.0, 4.0), 5.0) + "\n"
    assert len(led.trace_lines) == len(expected) + 1


@pytest.mark.parametrize("n_lines", [0, 1, TRACE_BLOCK_LINES - 1,
                                     TRACE_BLOCK_LINES, TRACE_BLOCK_LINES + 1,
                                     2 * TRACE_BLOCK_LINES])
def test_trace_blocks_join_to_the_lines(n_lines):
    """Packed blocks give the newline-joined lines, across block edges."""
    led = MetricsLedger(trace=KeptTrace())
    lines = []
    for i in range(n_lines):
        t = i * 1e-3
        if i % 3 == 2:  # every third line is a motion line
            led.on_motion_state(t, 4, (1.0, 2.0), (3.0, 4.0), 5.0)
            lines.append(_fstring_motion_line(t, 4, (1.0, 2.0, 0.0),
                                              (3.0, 4.0), 5.0))
        else:
            led.on_send(Frame("DATA", 0, 1, 512), t)
            lines.append(f"s {t:.7f} DATA {i - i // 3} 0 1 512")
    assert len(led.trace_lines) == n_lines
    # only on_send packs, and it packs once the pending lines fill a block
    if n_lines % TRACE_BLOCK_LINES == 0:
        assert not led.trace_lines.pending
    assert len(led.trace_lines.pending) < TRACE_BLOCK_LINES
    expected = "\n".join(lines) + "\n" if lines else ""
    assert led.trace_text() == expected
    assert led.trace_text() == expected
    assert len(led.trace_lines) == n_lines


def test_ledger_memory_per_record_stays_small():
    """Trace lines and receptions are held compactly after a run."""
    config = dataclasses.replace(builtin_scenario("long-distance", "AODV"),
                                 duration=60.0)
    tracemalloc.start()
    try:
        ledger = build_simulation(config, trace=KeptTrace()).run(
            config.duration).ledger
        # a full collection clears CPython's free lists, whose cached
        # tuples are not records the ledger holds
        gc.collect()
        snapshot = tracemalloc.take_snapshot()
    finally:
        tracemalloc.stop()
    held = sum(stat.size for stat in snapshot.filter_traces(
        [tracemalloc.Filter(True, metrics.__file__)]).statistics("filename"))
    receptions = sum(len(times) for times, _bits in ledger._received.values())
    lines = len(ledger.trace_lines)
    records = lines + receptions
    assert lines > 15000
    # one list entry, one string and a boxed (t, bits) tuple per record
    # held about 108 bytes each; packed text and float arrays hold about 41
    assert held / records < 48
    # with a reception log for every node the ledger held about 71 bytes
    # per trace line; keeping logs for the flows' sinks alone, about 44
    assert held / lines < 52


def test_simulation_run_packs_its_trace_tail():
    """A run leaves no raw record tuples behind, wherever it stops."""
    config = dataclasses.replace(builtin_scenario("long-distance", "AODV"),
                                 duration=60.0)
    trace_lines = build_simulation(config, trace=KeptTrace()).run(
        60.0).ledger.trace_lines
    assert len(trace_lines) > TRACE_BLOCK_LINES
    assert trace_lines.pending == []


def test_streamed_run_holds_little_trace(tmp_path, monkeypatch):
    """run() writes trace.txt during the simulation, not after it."""
    config = dataclasses.replace(builtin_scenario("long-distance", "AODV"),
                                 duration=60.0)
    held = []
    simulate = Simulation.run

    def run_then_measure(sim, until):
        simulate(sim, until)
        snapshot = tracemalloc.take_snapshot()
        held.append(sum(stat.size for stat in snapshot.filter_traces(
            [tracemalloc.Filter(True, metrics.__file__)]).statistics("filename")))
        held.append(len(sim.ledger.trace_lines))
        return sim

    monkeypatch.setattr(Simulation, "run", run_then_measure)
    tracemalloc.start()
    try:
        scenario_run(config, out_dir=str(tmp_path))
    finally:
        tracemalloc.stop()
    size, lines = held
    assert lines > 3 * TRACE_BLOCK_LINES
    # the ledger held about 81 bytes per trace line once the simulation
    # ended when it kept every block; streamed, it holds one block of
    # pending lines at most, plus the sinks' receptions and deliveries:
    # about 33
    assert size / lines < 60


def test_plot_series_round_trip(tmp_path):
    series = MetricSeries([(1.0, 40960.0), (2.0, 0.0), (2.5, 1.25e-3)], "bits/second")
    path = tmp_path / "throughput.dat"
    write_series(path, series.unit, series.points)
    text = path.read_text()
    assert text.startswith("# bits/second\n")
    assert parse_plot_series(path) == series.points


def test_plot_series_empty_writes_empty_file(tmp_path):
    path = tmp_path / "empty.dat"
    write_series(path, "seconds", [])
    assert path.read_text() == ""


def test_plot_series_plain_values(tmp_path):
    path = tmp_path / "simple.dat"
    write_series(path, "packets", [(1, 2.5)])
    assert path.read_text() == "# packets\n1 2.5\n"
