"""Scenario documents, the two builtin scenarios, runs, and comparisons.

A scenario bundles everything a run needs: the field, node placements,
scripted motions, background mobility, flows, radio constants, per
protocol parameters, and the seed. Scenario documents are JSON, and the
two builtin scenarios are documents shipped beside this module
(``long-distance.json``, ``short-distance.json``), so every scenario
reaches a run through ``load_config``. The README's "Builtin scenarios"
explains their geometry.
"""

import contextlib
import csv
import dataclasses
import functools
import io
import json
import os
import random
from dataclasses import dataclass

from .metrics import FlowStats
from .mobility import FieldConfig, MobilityError, MobilityModel
from .radio import RadioConfig
from .rules import (Config, ConfigError, FieldError, check_number, check_string,
                    check_type, rule)
from .simulation import PROTOCOLS, Motion, Simulation
from .tracewriter import trace_sink
from .transport import FlowConfig

BUILTIN_SCENARIOS = ("long-distance", "short-distance")
# a document's default duration, and the builtins'
BUILTIN_DURATION = 600.0
# protocol of a scenario document that names none
DEFAULT_PROTOCOL = "AODV"


@dataclass(frozen=True)
class ScenarioConfig(Config):
    """A scenario that can run. Its rules are checked on every
    construction, ``dataclasses.replace`` included, so a config changed
    after loading is held to what its document would be."""

    name: str = rule(check=check_string)
    protocol: str = rule(check=check_string)  # held to PROTOCOLS' names
    duration: float = rule(positive=True)
    seed: int = rule(integer=True)  # Random(-3) draws what Random(3) does
    field: FieldConfig = rule(check=check_type, kind=FieldConfig)
    placements: dict = rule(check=check_type, kind=dict)  # {node: (x, y)}
    motions: list = rule(check=check_type, kind=list)  # [Motion]
    flows: list = rule(check=check_type, kind=list)  # [FlowConfig]
    primary_flow: str  # the flow a comparison's verdicts judge
    background_mobility: "RandomWaypoint | None"  # None: parked nodes
    radio: RadioConfig = rule(check=check_type, kind=RadioConfig)
    # lower-case protocol name -> its config, for every protocol
    protocol_params: dict = rule(check=check_type, kind=dict)

    def __post_init__(self):
        super().__post_init__()
        # float coordinates, as a document's; ids >= 0, as -1 is the broadcast address
        object.__setattr__(self, "placements", {
            check_number(node, f"placements[{i}][0]", integer=True):
                _point(pos, f"placements[{i}][1]")
            for i, (node, pos) in enumerate(self.placements.items())})
        for i, m in enumerate(self.motions):
            check_type(m, f"motions[{i}]", Motion)
        object.__setattr__(self, "motions", [
            Motion(check_number(m.node, f"motions[{i}][0]", integer=True),
                   check_number(m.start_t, f"motions[{i}][1]"),
                   _point(m.dest, f"motions[{i}][2]"),
                   check_number(m.speed, f"motions[{i}][3]", positive=True))
            for i, m in enumerate(self.motions)])
        for i, flow in enumerate(self.flows):
            check_type(flow, f"flows[{i}]", FlowConfig)
        if self.background_mobility is not None:
            check_type(self.background_mobility, "background_mobility",
                       RandomWaypoint)
        _check_keys(self.protocol_params, _PROTOCOL_CONFIGS, "protocol_params")
        for key, config_class in _PROTOCOL_CONFIGS.items():
            path = f"protocol_params.{key}"
            if key not in self.protocol_params:
                raise FieldError(path, "missing required field")
            check_type(self.protocol_params[key], path, config_class)
        if self.protocol not in PROTOCOLS:
            raise FieldError("protocol", f"unknown protocol {self.protocol!r}")
        extent = (self.field.width, self.field.height)
        for i, pos in enumerate(self.placements.values()):
            if not self.field.contains(pos):
                raise FieldError(f"placements[{i}]",
                                 f"position {pos} outside field {extent}")
        for i, m in enumerate(self.motions):
            if m.node not in self.placements:
                raise FieldError(f"motions[{i}]",
                                 f"motion references unknown node {m.node!r}")
            if not self.field.contains(m.dest):
                raise FieldError(f"motions[{i}][2]", f"destination "
                                 f"{m.dest} outside field {extent}")
        # replay the legs in the order the scheduler applies them (start
        # time, then list order) so an overlap is found before the run; a
        # leg touches only its own node's plan
        replay = MobilityModel(self.field)
        for node in {m.node for m in self.motions}:
            replay.add_node(node, *self.placements[node])
        for i in sorted(range(len(self.motions)),
                        key=lambda i: self.motions[i].start_t):
            m = self.motions[i]
            try:
                replay.set_motion(m.node, m.dest, m.speed, m.start_t)
            except MobilityError as e:
                raise FieldError(f"motions[{i}]", str(e)) from None
        # the run-length rules: no flow may tick, random-waypoint node start
        # a leg, or DSDV node update more than MAX_FLOW_TICKS times in a run
        duration = self.duration
        names = []  # a list, since primary_flow may be any value
        for i, flow in enumerate(self.flows):
            if flow.flow in names:
                raise FieldError(f"flows[{i}]", f"duplicate flow name {flow.flow!r}")
            names.append(flow.flow)
            for label, node in (("src", flow.src), ("sink", flow.sink)):
                if node not in self.placements:
                    raise FieldError(f"flows[{i}].{label}", f"flow {flow.flow!r} "
                                     f"references unknown node {node!r}")
            # tick k fires at start_t + k * send_interval, the sum the source uses
            if flow.start_t + MAX_FLOW_TICKS * flow.send_interval <= duration:
                raise FieldError(
                    f"flows[{i}].send_interval",
                    f"{flow.send_interval!r} would tick more than "
                    f"{MAX_FLOW_TICKS} times before duration {duration!r}")
        if self.primary_flow not in names:
            raise FieldError("primary_flow", f"unknown flow {self.primary_flow!r}")
        waypoint = self.background_mobility
        if waypoint is not None:
            v_max, pause = waypoint.v_max, waypoint.pause
            if v_max < waypoint.v_min:
                raise FieldError("background_mobility.v_max", f"expected at "
                                 f"least v_min {waypoint.v_min!r}, got {v_max!r}")
            # a leg takes about the field's shorter side over v_max, plus the pause
            if MAX_FLOW_TICKS * (pause + min(extent) / v_max) <= duration:
                raise FieldError(
                    "background_mobility.v_max",
                    f"{v_max!r} with pause {pause!r} would start more than "
                    f"{MAX_FLOW_TICKS} legs per node before duration {duration!r}")
        # checked whatever the protocol: compare runs both on one document
        interval = self.protocol_params["dsdv"].update_interval
        if MAX_FLOW_TICKS * interval <= duration:
            raise FieldError(
                "protocol_params.dsdv.update_interval",
                f"{interval!r} would update more than {MAX_FLOW_TICKS} times "
                f"before duration {duration!r}")


def builtin_scenario(name: str, protocol: str) -> ScenarioConfig:
    """A shipped 100-node scenario, loaded from its document beside this
    module, with the protocol replaced; same world for both protocols."""
    if name not in BUILTIN_SCENARIOS:
        raise ConfigError(f"unknown builtin scenario {name!r}")
    path = os.path.join(os.path.dirname(__file__), f"{name}.json")
    with open(path, encoding="utf-8") as fh:
        return dataclasses.replace(load_config(fh.read()), protocol=protocol)


# Random-waypoint methodology of Broch et al. (MobiCom 1998), with a
# non-zero minimum speed after Yoon, Liu & Noble (INFOCOM 2003)
RWP_FIELD = (1500.0, 300.0)
RWP_SPEED = (1.0, 20.0)
RWP_FLOW_START_MAX = 10.0
RWP_SEND_INTERVAL = 0.25


def random_waypoint_document(seed: int, nodes: int, flows: int,
                             duration: float, pause: float = 0.0) -> str:
    """A random-waypoint AODV scenario document drawn from
    random.Random(seed), named rwp-aodv.

    Nodes are placed uniformly on a 1500 m x 300 m field and roam at 1-20
    m/s with the given pause; each flow joins two distinct random nodes
    and starts within the first 10 s. The document's own seed, which
    drives the waypoint draws, is seed too. Equal arguments give equal
    text.
    """
    rng = random.Random(seed)
    width, height = RWP_FIELD
    placements = [[node, [rng.uniform(0.0, width), rng.uniform(0.0, height)]]
                  for node in range(nodes)]
    flow_docs = []
    for i in range(flows):
        src, sink = rng.sample(range(nodes), 2)
        flow_docs.append({
            "flow": f"f{i}", "src": src, "sink": sink,
            "start_t": rng.uniform(0.0, RWP_FLOW_START_MAX),
            "send_interval": RWP_SEND_INTERVAL,
        })
    doc = {
        "name": "rwp-aodv",
        "protocol": "AODV",
        "duration": duration,
        "seed": seed,
        "field": list(RWP_FIELD),
        "nodes": nodes,
        "placements": placements,
        "flows": flow_docs,
        "background_mobility": {
            "kind": "random-waypoint",
            "v_min": RWP_SPEED[0], "v_max": RWP_SPEED[1], "pause": pause,
        },
    }
    return json.dumps(doc, indent=1) + "\n"


# -- scenario documents ----------------------------------------------------

# times a flow may tick, a random-waypoint node start a leg, or a DSDV node
# update, before the run ends (the builtins tick at most 2,069 times); an
# interval too small to advance the clock re-fires at one instant and
# stalls a run. It also caps the windows of one metric series.
MAX_FLOW_TICKS = 10**6
# the config class of each protocol, under its protocol_params key
_PROTOCOL_CONFIGS = {name.lower(): agent.config_class
                     for name, agent in PROTOCOLS.items()}
# config fields whose document key is not the field name
_DOC_KEYS = {"radio_range": "range"}


@dataclass(frozen=True)
class RandomWaypoint(Config):
    """The fields of a random-waypoint background: m/s, m/s and s."""

    v_min: float = rule(positive=True)
    v_max: float = rule(positive=True)
    pause: float = rule(0.0)


def _point(raw, path) -> tuple:
    """An [x, y] pair of numbers as a float tuple."""
    if not (isinstance(raw, (list, tuple)) and len(raw) == 2):
        raise FieldError(path, "expected [x, y]")
    return tuple(check_number(v, f"{path}[{i}]") for i, v in enumerate(raw))


def _check_keys(raw, known, path=None) -> None:
    """Reject a key of a document object that is not in known."""
    for key in raw:
        if key not in known:
            raise FieldError(f"{path}.{key}" if path else key, "unknown parameter")


def _read(raw, config_class, path, skip=()):
    """A document object read into config_class. Each key must name a
    field (or be in ``skip``); a field left out takes its default, or is
    required. The config checks the values: the error of a field's rule
    is re-raised at its key, and of a rule spanning fields at ``path``."""
    if not isinstance(raw, dict):
        raise FieldError(path, "expected an object")
    fields = {_DOC_KEYS.get(f.name, f.name): f
              for f in dataclasses.fields(config_class)}
    _check_keys(raw, {*fields, *skip}, path)
    for key, f in fields.items():
        if key not in raw and f.default is dataclasses.MISSING:
            raise FieldError(f"{path}.{key}", "missing required field")
    try:
        return config_class(**{f.name: raw[key]
                               for key, f in fields.items() if key in raw})
    except FieldError as e:
        raise FieldError(f"{path}.{_DOC_KEYS.get(e.path, e.path)}", e.reason) from None
    except ValueError as e:
        raise FieldError(path, str(e)) from None


def _doc_object(config) -> dict:
    """A config's fields under their document keys, in field order."""
    return {_DOC_KEYS.get(f.name, f.name): getattr(config, f.name)
            for f in dataclasses.fields(config)}


def load_config(text: str) -> ScenarioConfig:
    """Parse a JSON scenario document, checking its shape and filling
    defaults; the configs check the values."""
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as e:  # also a huge int, deep nesting
        raise ConfigError(f"scenario document is not valid JSON: {e}") from e
    if not isinstance(doc, dict):
        raise ConfigError("scenario document must be a JSON object")
    _check_keys(doc, {"nodes", *(f.name for f in
                                 dataclasses.fields(ScenarioConfig))})

    protocol = doc.get("protocol", DEFAULT_PROTOCOL)
    if not isinstance(protocol, str):
        raise FieldError("protocol", f"unknown protocol {protocol!r}")

    raw_field = doc.get("field", [3000.0, 1600.0])
    if not (isinstance(raw_field, list) and len(raw_field) == 2):
        raise FieldError("field", "expected [width, height]")
    try:
        field = FieldConfig(*raw_field)
    except FieldError as e:
        raise FieldError(f"field[{('width', 'height').index(e.path)}]", e.reason) from None
    radio = _read(doc.get("radio", {}), RadioConfig, "radio")

    raw_placements = doc.get("placements")
    if not isinstance(raw_placements, list) or not raw_placements:
        raise FieldError("placements", "expected a non-empty list")
    placements = {}
    for i, item in enumerate(raw_placements):
        path = f"placements[{i}]"
        if not (isinstance(item, list) and len(item) == 2
                and isinstance(item[1], list) and len(item[1]) == 2):
            raise FieldError(path, "expected [node, [x, y]]")
        # an id is a dict key, so it is checked first: True would be 1
        node = check_number(item[0], f"{path}[0]", integer=True)
        if node in placements:
            raise FieldError(path, f"duplicate node id {node}")
        placements[node] = item[1]
    if "nodes" in doc and check_number(doc["nodes"], "nodes",
                                       integer=True) != len(placements):
        raise FieldError(
            "nodes", f"declares {doc['nodes']} nodes but "
            f"placements lists {len(placements)}")

    raw_motions = doc.get("motions", [])
    if not isinstance(raw_motions, list):
        raise FieldError("motions", "expected a list")
    for i, item in enumerate(raw_motions):
        if not (isinstance(item, list) and len(item) == 4
                and isinstance(item[2], list) and len(item[2]) == 2):
            raise FieldError(f"motions[{i}]",
                             "expected [node, start_t, [x, y], speed]")

    raw_flows = doc.get("flows")
    if not isinstance(raw_flows, list) or not raw_flows:
        raise FieldError("flows", "expected a non-empty list")
    flows = [_read(item, FlowConfig, f"flows[{i}]")
             for i, item in enumerate(raw_flows)]

    background = doc.get("background_mobility", {"kind": "stationary"})
    path = "background_mobility"
    if not (isinstance(background, dict) and "kind" in background):
        raise FieldError(path, "expected an object with a kind")
    if background["kind"] == "random-waypoint":
        waypoint = _read(background, RandomWaypoint, path, skip=("kind",))
    elif background["kind"] == "stationary":
        _check_keys(background, {"kind"}, path)
        waypoint = None
    else:
        raise FieldError(f"{path}.kind", f"unknown kind {background['kind']!r}")

    params = doc.get("protocol_params", {})
    if not isinstance(params, dict):
        raise FieldError("protocol_params", "expected an object")
    _check_keys(params, _PROTOCOL_CONFIGS, "protocol_params")
    params = {key: _read(params.get(key, {}), config_class,
                         f"protocol_params.{key}")
              for key, config_class in _PROTOCOL_CONFIGS.items()}

    return ScenarioConfig(
        name=doc.get("name", "custom"), protocol=protocol.upper(),
        duration=doc.get("duration", BUILTIN_DURATION), seed=doc.get("seed", 1),
        field=field, placements=placements,
        motions=[Motion(*item) for item in raw_motions], flows=flows,
        primary_flow=doc.get("primary_flow", flows[0].flow),
        background_mobility=waypoint, radio=radio, protocol_params=params,
    )


def check_window(window, duration, path="window") -> None:
    """A metric window: positive, and tiling the run in at most
    MAX_FLOW_TICKS windows, since every series holds one bin per window."""
    if duration / check_number(window, path, positive=True) > MAX_FLOW_TICKS:
        raise FieldError(
            path, f"{window!r} would make more than {MAX_FLOW_TICKS} "
                  f"windows over duration {duration!r}")


def serialize_config(config: ScenarioConfig) -> str:
    waypoint = config.background_mobility
    doc = {
        "name": config.name,
        "protocol": config.protocol,
        "duration": config.duration,
        "seed": config.seed,
        "field": [config.field.width, config.field.height],
        "radio": _doc_object(config.radio),
        "placements": [[node, [x, y]]
                       for node, (x, y) in config.placements.items()],
        "motions": [[m.node, m.start_t, [m.dest[0], m.dest[1]], m.speed]
                    for m in config.motions],
        "flows": [_doc_object(f) for f in config.flows],
        "primary_flow": config.primary_flow,
        "background_mobility": (
            {"kind": "stationary"} if waypoint is None
            else {"kind": "random-waypoint", **_doc_object(waypoint)}),
        "protocol_params": {key: _doc_object(params) for key, params
                            in config.protocol_params.items()},
    }
    return json.dumps(doc, indent=2)


# -- running ---------------------------------------------------------------

@dataclass
class RunReport:
    config: ScenarioConfig  # the scenario run
    flows: list  # one FlowStats per flow, config order
    paths: dict  # flow -> [(t, chain)]
    manifest: list  # files written, relative to the output directory


def build_simulation(config: ScenarioConfig, **options) -> Simulation:
    """The run of config, ``Simulation(config, **options)``; ``run`` builds
    through this name, so tools that time or patch a run's setup wrap it."""
    return Simulation(config, **options)


def run(config: ScenarioConfig, out_dir=None, window=1.0) -> RunReport:
    """Execute a scenario and, if out_dir is given, write every artifact.

    The simulation runs in this process, single-threaded; without out_dir
    it gets no trace sink and builds no trace. With out_dir, a sink (see
    ``tracewriter``) writes every file of the run, in a writer process
    or, where only one CPU is usable, in this one. While the simulation
    runs, each packed trace block goes to ``trace.txt``, followed by each
    flow's delay and cwnd points recorded since the last block, appended
    to its ``delay.dat`` and ``cwnd.dat``; the points left after the run,
    and every series still without a file, follow it. Then each flow's
    windowed series (throughput, jitter, destination bandwidth) goes to
    its ``.dat`` as soon as it is built after the run, then
    ``summary.csv``, ``paths.log`` and ``report.txt``. The trace is never
    held whole. A ``trace.txt`` that cannot be opened raises OSError
    before the simulation is built; a file that cannot be written later
    raises OSError ``cannot write <path>: <reason>`` as soon as a send
    finds the sink failed, so a delay or cwnd file may fail the run while
    it simulates. Whenever run
    raises, none of its manifest files and none of the directories it
    made, parents included, is left (see ``all_or_none``). Each point is
    sent once.
    """
    check_window(window, config.duration)
    if out_dir is None:
        ledger = build_simulation(config).run(config.duration).ledger
        return RunReport(config, _flow_stats(config, ledger, window),
                         ledger.paths_taken(), [])
    out = functools.partial(os.path.join, out_dir)

    def send(flow, metric, series):
        sink.send((out("metrics", flow, f"{metric}.dat"), series.unit,
                   series.points))

    streamed = {}  # (flow, metric) -> points of the series sent so far

    def stream(final=False):
        """Send each flow's delay and cwnd points recorded since the last
        call; the final call also sends each series not sent yet, so
        every file is made."""
        ledger = sim.ledger
        for fc in config.flows:
            for metric, build in (("delay", ledger.delay_series),
                                  ("cwnd", ledger.cwnd_series)):
                key = fc.flow, metric
                sent = streamed.get(key, 0)
                series = build(fc.flow, sent)  # raw points: the sink nudges ties
                if series.points or (final and key not in streamed):
                    streamed[key] = sent + len(series.points)
                    send(fc.flow, metric, series)

    def trace(block):
        sink.send(block)
        stream()

    files = manifest(config)
    with all_or_none([out(rel) for rel in files]), \
            trace_sink(out("trace.txt")) as sink:
        sim = build_simulation(config, trace=trace)
        ledger = sim.run(config.duration).ledger
        stream(final=True)
        flow_stats = _flow_stats(config, ledger, window, send)
        report = RunReport(config, flow_stats, ledger.paths_taken(), files)
        sink.send((out("summary.csv"), _summary_csv(flow_stats)))
        sink.send((out("paths.log"), "".join(
            [line + "\n" for line in ledger.path_log_lines()])))
        sink.send((out("report.txt"), format_report(report)))
    return report


def manifest(config: ScenarioConfig) -> list:
    """The files a run of config writes, relative to its output directory."""
    return ["trace.txt"] + [
        os.path.join("metrics", fc.flow, f"{metric}.dat")
        for fc in config.flows for metric in _SERIES] + [
        "summary.csv", "paths.log", "report.txt"]


@contextlib.contextmanager
def all_or_none(paths):
    """Make the missing directories of the files at paths, parents
    included; if the block raises, remove those files and every
    directory made, and let the error go on."""
    made = []

    def make(path):  # path and its missing parents, each listed in made
        if path and not os.path.isdir(path):
            make(os.path.dirname(path))
            os.makedirs(path, exist_ok=True)  # a path ending in .. exists now
            made.append(path)

    try:
        for path in paths:
            make(os.path.dirname(path))
        yield
    except BaseException:
        for remove, targets in ((os.remove, paths), (os.rmdir, made[::-1])):
            for path in targets:
                with contextlib.suppress(OSError):  # not written, or not empty
                    remove(path)
        raise


# each flow's series, in manifest order
_SERIES = ("throughput", "jitter", "delay", "cwnd", "destination_bandwidth")


def _flow_stats(config, ledger, window, send=None) -> list:
    """Each flow's FlowStats, from its windowed series; with send, each
    series goes to send(flow, metric, series) once built."""
    duration = config.duration
    flow_stats = []
    for fc in config.flows:
        windowed = []
        for metric, build, key in (
                ("throughput", ledger.throughput_series, fc.flow),
                ("jitter", ledger.jitter_series, fc.flow),
                ("destination_bandwidth", ledger.bandwidth_series, fc.sink)):
            windowed.append(build(key, duration, window))
            if send is not None:
                send(fc.flow, metric, windowed[-1])
        flow_stats.append(
            ledger.flow_summary(fc.flow, fc.sink, duration, *windowed))
    return flow_stats


_SUMMARY_COLUMNS = tuple(f.name for f in dataclasses.fields(FlowStats))[:8]


def _summary_csv(flow_stats) -> str:
    """summary.csv's text: a header, then one row per flow, each ending in
    \r\n; csv writes None as an empty cell."""
    text = io.StringIO()
    csv.writer(text).writerows([_SUMMARY_COLUMNS] + [
        [getattr(stats, c) for c in _SUMMARY_COLUMNS] for stats in flow_stats])
    return text.getvalue()


def format_report(report: RunReport) -> str:
    config = report.config
    lines = [
        f"scenario: {config.name}",
        f"protocol: {config.protocol}",
        f"seed: {config.seed}",
        f"duration: {config.duration:g}",
        f"primary flow: {config.primary_flow}",
        "",
    ]
    for stats in report.flows:
        first = stats.first_delivery
        lines.append(
            f"flow {stats.flow}: delivered={stats.delivered} "
            f"lost={stats.lost} max_delay={stats.max_delay:.6f} "
            f"max_jitter={stats.max_jitter:.6f} "
            f"mean_throughput={stats.mean_throughput:.3f} "
            f"first_delivery={'-' if first is None else format(first, '.3f')}"
        )
    lines.append("")
    lines.append("paths taken:")
    for flow in sorted(report.paths):
        for t, chain in report.paths[flow]:
            lines.append(f"  {t:.3f} {flow}: " + "-".join(str(n) for n in chain))
    lines.append("")
    lines.append("files:")
    for rel in report.manifest:
        lines.append(f"  {rel}")
    return "\n".join(lines) + "\n"


# -- comparison ------------------------------------------------------------

_COMPARE_METRICS = _SUMMARY_COLUMNS[1:6]  # delivered to mean_throughput


def verdicts(reactive: FlowStats, proactive: FlowStats) -> dict[str, bool]:
    """The seven verdicts on one flow's outcome under the two protocols."""
    r, p = reactive, proactive
    r_first = r.first_delivery
    p_first = p.first_delivery
    r_rise = r.first_sink_bandwidth_window
    p_data = p.first_data_window
    return {
        "reactive_max_delay_exceeds_proactive": r.max_delay > p.max_delay,
        "reactive_max_jitter_exceeds_proactive": r.max_jitter > p.max_jitter,
        "proactive_throughput_geq_reactive":
            p.mean_throughput >= r.mean_throughput,
        "reactive_throughput_geq_proactive":
            r.mean_throughput >= p.mean_throughput,
        "proactive_first_delivery_leq_reactive":
            p_first is not None and (r_first is None or p_first <= r_first),
        "proactive_sink_bandwidth_exceeds_reactive":
            p.sink_bandwidth_bits > r.sink_bandwidth_bits,
        "reactive_bandwidth_rises_before_proactive_data":
            r_rise is not None and (p_data is None or r_rise < p_data),
    }


def compare(report_a: RunReport, report_b: RunReport) -> dict:
    """Side-by-side stats for two runs of one scenario, with verdicts.

    The runs' configs must be equal apart from ``protocol``, and one
    protocol must be reactive (on-demand discovery) and the other
    proactive (standing tables); the verdicts name them by that nature
    and are computed on the scenario's primary flow. Either order is
    accepted.
    """
    a, b = report_a.config, report_b.config
    differ = [f.name for f in dataclasses.fields(ScenarioConfig)
              if f.name != "protocol"
              and getattr(a, f.name) != getattr(b, f.name)]
    if differ:
        raise ValueError(f"cannot compare runs of different scenarios "
                         f"(they differ in {', '.join(differ)})")
    if {PROTOCOLS[c.protocol].proactive for c in (a, b)} != {False, True}:
        raise ValueError(f"cannot compare {a.protocol} with {b.protocol}: "
                         f"need one reactive and one proactive run")
    reactive, proactive = sorted(
        (report_a, report_b),
        key=lambda report: PROTOCOLS[report.config.protocol].proactive)

    pairs = {r.flow: (r, p) for r, p in zip(reactive.flows, proactive.flows)}
    table = []
    for flow, (r, p) in pairs.items():
        for metric in _COMPARE_METRICS:
            table.append({
                "flow": flow,
                "metric": metric,
                "reactive": getattr(r, metric),
                "proactive": getattr(p, metric),
                "delta": getattr(p, metric) - getattr(r, metric),
            })

    return {
        "scenario": a.name,
        "primary_flow": a.primary_flow,
        "reactive_protocol": reactive.config.protocol,
        "proactive_protocol": proactive.config.protocol,
        "table": table,
        "verdicts": verdicts(*pairs[a.primary_flow]),
    }


def format_comparison(result: dict) -> str:
    lines = [
        f"scenario: {result['scenario']} "
        f"(reactive={result['reactive_protocol']}, "
        f"proactive={result['proactive_protocol']})",
        f"primary flow: {result['primary_flow']}",
        "",
        f"{'flow':<6} {'metric':<18} {'reactive':>14} {'proactive':>14} {'delta':>14}",
    ]
    for row in result["table"]:
        lines.append(
            f"{row['flow']:<6} {row['metric']:<18} "
            f"{row['reactive']:>14.6g} {row['proactive']:>14.6g} "
            f"{row['delta']:>14.6g}")
    lines.append("")
    lines.append("verdicts:")
    for name, value in result["verdicts"].items():
        lines.append(f"  {name}: {value}")
    return "\n".join(lines) + "\n"
