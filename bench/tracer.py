"""Per-layer spans for a traced repetition, recorded from outside the package.

The tracer replaces public methods of each vanetsim module with wrappers
that time the call and subtract the time of wrapped calls made inside it
(self time). Spans are aggregated in memory per (span, caller span) and
returned at the end. Every scheduled callback is wrapped too, in a span
named after its event kind and owned by the module that schedules it, so
the engine's own time is only the dispatch loop and the heap.

Install the tracer before ``build_simulation`` runs: agents and flows
capture bound methods when they are built, and those must be the wrapped
ones. Wrappers never change arguments, results or call order, so a traced
run writes the same artifacts as an untraced one; the benchmark checks it.

A span name is ``<layer>.<what>``; the layer is the vanetsim module.
"""

import statistics
import time
from collections import Counter

# scheduled callback kind -> module whose code the callback runs
EVENT_LAYER = {
    "rx": "radio", "tx": "radio",
    "tick": "transport", "rto": "transport",
    "rreq-timer": "aodv", "linkwatch": "aodv",
    "dsdv-periodic": "dsdv", "dsdv-trigger": "dsdv",
    "motion": "simulation", "waypoint": "simulation",
}
LAYERS = ("engine", "radio", "mobility", "aodv", "dsdv", "transport",
          "metrics", "simulation", "scenario")

# (module.Class, public methods), each wrapped as span <module>.<method>
_METHODS = (
    ("engine.Scheduler",
     ("schedule_in", "cancel", "pending_count", "run_until")),
    ("radio.RadioMedium",
     ("register", "in_range", "neighbors", "transmit", "link_break_time")),
    ("mobility.MobilityModel",
     ("add_node", "node_ids", "legs", "set_motion", "position_at",
      "velocity_at", "motion_breakpoints", "random_waypoint_next")),
    ("aodv.AodvAgent",
     ("send_packet", "route_lookup", "on_frame", "handle_link_failure")),
    ("dsdv.DsdvAgent",
     ("start", "on_frame", "send_packet", "route_lookup",
      "handle_neighbor_loss")),
    ("transport.TcpSource", ("start", "on_ack")),
    ("transport.TcpSink", ("on_data",)),
    ("simulation.Simulation", ("run",)),
)
# MetricsLedger methods grouped into the spans the benchmark reports
_LEDGER_SPANS = {
    "metrics.tap": ("on_send", "on_delivery", "on_loss"),
    "metrics.hook": ("on_data_handoff", "on_sink_delivery", "on_flow_drop",
                     "on_cwnd", "on_path", "on_motion_state"),
    "metrics.series": ("throughput_series", "jitter_series", "delay_series",
                       "cwnd_series", "bandwidth_series",
                       "cumulative_bandwidth_bits", "deliveries",
                       "first_delivery", "flow_summary", "paths_taken",
                       "path_log_lines"),
    "metrics.trace_text": ("trace_text",),
}


class Tracer:
    def __init__(self):
        self._stack = [["<harness>", 0.0]]  # [span name, wrapped-child time]
        self._spans = {}  # (name, caller) -> [calls, total_s, self_s]
        self.counts = Counter()
        self._handoffs = set()
        self._restore = []

    def wrap(self, name, fn, note=None):
        """fn timed as span name; note(args, result) runs inside the span."""
        stack = self._stack
        spans = self._spans
        clock = time.perf_counter

        def traced(*args, **kwargs):
            caller = stack[-1]
            frame = [name, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
                if note is not None:
                    note(args, result)
                return result
            finally:
                elapsed = clock() - start
                stack.pop()
                caller[1] += elapsed
                rec = spans.get((name, caller[0]))
                if rec is None:
                    rec = spans[(name, caller[0])] = [0, 0.0, 0.0]
                rec[0] += 1
                rec[1] += elapsed
                rec[2] += elapsed - frame[1]

        return traced

    def _patch(self, owner, attr, replacement):
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def install(self, scenario):
        """Wrap the public methods of every module under scenario's package."""
        import importlib
        package = scenario.__name__.rsplit(".", 1)[0]
        notes = self._notes()
        for path, methods in _METHODS:
            layer, cls_name = path.split(".")
            cls = getattr(importlib.import_module(f"{package}.{layer}"),
                          cls_name)
            for method in methods:
                self._patch(cls, method, self.wrap(
                    f"{layer}.{method}", getattr(cls, method),
                    notes.get(f"{layer}.{method}")))
        sched_cls = importlib.import_module(f"{package}.engine").Scheduler
        self._patch(sched_cls, "schedule", self.wrap(
            "engine.schedule", self._tagging_schedule(sched_cls.schedule)))
        ledger_cls = importlib.import_module(f"{package}.metrics").MetricsLedger
        for span, methods in _LEDGER_SPANS.items():
            for method in methods:
                note = self._note_handoff if method == "on_data_handoff" else None
                self._patch(ledger_cls, method,
                            self.wrap(span, getattr(ledger_cls, method), note))
        self._patch(scenario, "build_simulation",
                    self.wrap("scenario.build", scenario.build_simulation))
        self._patch(scenario, "run", self.wrap("scenario.run", scenario.run))

    def uninstall(self):
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    # -- counters noted inside spans ------------------------------------------

    def _notes(self):
        counts = self.counts

        def neighbors(args, result):
            counts["radio.neighbors.returned"] += len(result)

        def transmit(args, result):
            counts["radio.transmit." + args[1].kind] += 1

        def aodv_frame(args, result):
            counts["aodv.received." + args[1].kind] += 1

        def dsdv_frame(args, result):
            if args[1].kind == "DSDV":
                counts["dsdv.rows"] += len(args[1].payload.rows)

        def run_until(args, result):
            counts["engine.dispatched"] += result

        return {"radio.neighbors": neighbors, "radio.transmit": transmit,
                "aodv.on_frame": aodv_frame, "dsdv.on_frame": dsdv_frame,
                "engine.run_until": run_until}

    def _note_handoff(self, args, result):
        key = (args[1], args[2])  # (flow, seq)
        self.counts["transport.handoffs"] += 1
        if key in self._handoffs:
            self.counts["transport.retransmits"] += 1
        self._handoffs.add(key)

    def _tagging_schedule(self, schedule):
        counts = self.counts
        wrap = self.wrap
        names = {kind: f"{layer}.event.{kind}"
                 for kind, layer in EVENT_LAYER.items()}

        def tagging(sched, fire_at, kind, target, fn):
            counts["engine.scheduled"] += 1
            name = names.get(kind) or f"engine.event.{kind}"
            return schedule(sched, fire_at, kind, target, wrap(name, fn))

        return tagging

    # -- results ---------------------------------------------------------------

    def report(self, sim, wall_s):
        """Uninstall, then return the span table and counters of the run."""
        self.uninstall()
        return {
            "wall_s": wall_s,
            "spans": [[name, caller, *rec]
                      for (name, caller), rec in sorted(self._spans.items())],
            "counts": dict(self.counts),
            "pending": sim.sched.pending_count(),
            "trace_lines": len(sim.ledger.trace_lines),
        }


# -- derived per-layer metrics -------------------------------------------------

def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(report):
    """Per-layer metrics of one traced repetition: name -> (value, unit)."""
    calls = Counter()
    self_s = Counter()
    layer_self = Counter()
    tested = 0
    for name, caller, n, _total, own in report["spans"]:
        calls[name] += n
        self_s[name] += own
        layer_self[name.split(".", 1)[0]] += own
        if name == "radio.in_range" and caller == "radio.neighbors":
            tested += n
    counts = Counter(report["counts"])
    kinds = {k: calls[f"{layer}.event.{k}"] for k, layer in EVENT_LAYER.items()}
    dispatched = sum(kinds.values())
    scheduled = counts["engine.scheduled"]
    m = {
        "engine.events": (dispatched, "count"),
        **{f"engine.events.{k}": (v, "count") for k, v in kinds.items()},
        "engine.self_s": (layer_self["engine"], "s"),
        "engine.cancelled_share": (
            _ratio(scheduled - dispatched - report["pending"], scheduled),
            "share"),
    }
    spans = (
        ("radio", ("transmit", "neighbors", "in_range", "link_break_time")),
        ("mobility", ("position_at", "set_motion")),
        ("aodv", ("on_frame", "send_packet")),
        ("dsdv", ("on_frame", "send_packet")),
        ("transport", ("on_ack", "on_data")),
        ("metrics", ("tap", "series")),
    )
    for layer, names in spans:
        for what in names:
            m[f"{layer}.{what}.calls"] = (calls[f"{layer}.{what}"], "count")
            m[f"{layer}.{what}.self_s"] = (self_s[f"{layer}.{what}"], "s")
    returned = counts["radio.neighbors.returned"]
    m["radio.neighbor_hit_ratio"] = (_ratio(returned, tested), "ratio")
    m["radio.rx_per_broadcast"] = (
        _ratio(returned, calls["radio.neighbors"]), "ratio")
    m["mobility.reads_per_write"] = (
        _ratio(calls["mobility.position_at"], calls["mobility.set_motion"]),
        "ratio")
    m["aodv.rreq_forward_ratio"] = (
        _ratio(counts["radio.transmit.RREQ"], counts["aodv.received.RREQ"]),
        "ratio")
    m["dsdv.rows"] = (counts["dsdv.rows"], "count")
    m["dsdv.ns_per_row"] = (
        _ratio(self_s["dsdv.on_frame"] * 1e9, counts["dsdv.rows"]), "ns")
    for what in ("on_frame", "send_packet"):
        m[f"routing.{what}.self_s"] = (
            self_s[f"aodv.{what}"] + self_s[f"dsdv.{what}"], "s")
    m["transport.retransmit_share"] = (
        _ratio(counts["transport.retransmits"], counts["transport.handoffs"]),
        "share")
    m["metrics.trace_text.self_s"] = (self_s["metrics.trace_text"], "s")
    m["metrics.trace_lines"] = (report["trace_lines"], "count")
    m["scenario.build.self_s"] = (self_s["scenario.build"], "s")
    # run()'s own code, outside every wrapped call: file writes, CSV and
    # report formatting
    m["scenario.output.self_s"] = (self_s["scenario.run"], "s")
    for layer in LAYERS:
        m[f"layer.{layer}.self_s"] = (layer_self[layer], "s")
    m["trace.wall_s"] = (report["wall_s"], "s")
    m["trace.unwrapped_s"] = (report["wall_s"] - sum(layer_self.values()), "s")
    return m


def check(report):
    """Internal consistency of one traced repetition; returns problems.

    Every dispatch must be counted under a known event kind, or the
    per-kind counts and the layer split would miss work.
    """
    counted = layer_metrics(report)["engine.events"][0]
    dispatched = report["counts"].get("engine.dispatched", 0)
    if counted != dispatched:
        return [f"event spans count {counted} dispatches of known kinds but "
                f"run_until reported {dispatched}"]
    return []


def median_metrics(reports):
    """Median of each derived metric over traced repetitions."""
    per_rep = [layer_metrics(r) for r in reports]
    return {name: (statistics.median(rep[name][0] for rep in per_rep), unit)
            for name, (_v, unit) in per_rep[0].items()}
